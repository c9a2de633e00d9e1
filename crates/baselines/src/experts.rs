//! Data parallelism and expert-designed strategies.

use crate::util::split_capped;
use pase_cost::{Config, Strategy};
use pase_graph::{DimRole, Graph, Node, OpKind};

/// Split the batch dimension of `node` into (up to) `p` parts, leaving
/// every other dimension whole. Layers without a batch dimension (or with a
/// batch smaller than `p`) replicate on the remaining devices — exactly the
/// behavior of a data-parallel framework.
fn dp_config(node: &Node, p: u32) -> Config {
    let mut splits = vec![1u32; node.rank()];
    if let Some(i) = node
        .iter_space
        .iter()
        .position(|d| d.role == DimRole::Batch)
    {
        if node.iter_space[i].splittable {
            splits[i] = split_capped(node.iter_space[i].size, p);
        }
    }
    Config::new(&splits)
}

/// Split the first `Param`-role dimension into (up to) `p` parts (classic
/// parameter parallelism for a fully-connected/softmax layer).
fn param_config(node: &Node, p: u32) -> Config {
    let mut splits = vec![1u32; node.rank()];
    if let Some(i) = node
        .iter_space
        .iter()
        .position(|d| d.role == DimRole::Param && d.splittable)
    {
        splits[i] = split_capped(node.iter_space[i].size, p);
    } else {
        return dp_config(node, p);
    }
    Config::new(&splits)
}

/// **Data parallelism**: every layer splits its batch dimension `p` ways.
pub fn data_parallel(graph: &Graph, p: u32) -> Strategy {
    Strategy::new(graph.nodes().iter().map(|n| dp_config(n, p)).collect())
}

/// **One weird trick** (Krizhevsky 2014, used for AlexNet and InceptionV3
/// in §IV): data parallelism for convolutional layers (and everything
/// feature-map shaped), switching to parameter parallelism for the
/// fully-connected and softmax layers. The paper notes OWT splits only the
/// out-channel dimension of FC layers, incurring the all-gather between
/// them that PaSE's alternating split avoids.
pub fn owt(graph: &Graph, p: u32) -> Strategy {
    Strategy::new(
        graph
            .nodes()
            .iter()
            .map(|n| match n.op {
                OpKind::FullyConnected | OpKind::Softmax | OpKind::Matmul => param_config(n, p),
                _ => dp_config(n, p),
            })
            .collect(),
    )
}

/// **GNMT-style data + pipeline parallelism** (Wu et al. 2016, the §IV
/// expert baseline for RNNLM): the recurrent stack's layers are placed on
/// different devices (splitting the `l` dimension of the single-vertex LSTM
/// operator) and each layer is replicated over the remaining devices for
/// data parallelism; the non-recurrent layers are data parallel.
pub fn gnmt_expert(graph: &Graph, p: u32) -> Strategy {
    Strategy::new(
        graph
            .nodes()
            .iter()
            .map(|n| match n.op {
                OpKind::Lstm { layers } => {
                    let mut splits = vec![1u32; n.rank()];
                    let l_split = split_capped(u64::from(layers), p);
                    if let Some(li) = n.dim_index("l") {
                        splits[li] = l_split;
                    }
                    if let Some(bi) = n.dim_index("b") {
                        splits[bi] = split_capped(n.iter_space[bi].size, p / l_split.max(1));
                    }
                    Config::new(&splits)
                }
                _ => dp_config(n, p),
            })
            .collect(),
    )
}

/// **Mesh-TensorFlow hybrid** (Shazeer et al. 2018, the §IV expert baseline
/// for Transformer): the batch dimension of every layer is split `m`-way
/// and the model dimensions — vocabulary, feed-forward hidden size,
/// attention heads — are split `n`-way, with `m·n = p`. We pick
/// `n = min(8, p/2)` (the per-node GPU count of the paper's testbed caps
/// the useful model-parallel group).
pub fn mesh_tf_expert(graph: &Graph, p: u32) -> Strategy {
    let n_model = if p >= 4 { (p / 2).min(8) } else { 1 };
    let m_batch = (p / n_model).max(1);
    Strategy::new(
        graph
            .nodes()
            .iter()
            .map(|node| {
                let mut splits = vec![1u32; node.rank()];
                if let Some(bi) = node.dim_index("b") {
                    splits[bi] = split_capped(node.iter_space[bi].size, m_batch);
                }
                // Model dimension by op kind, per the paper's description.
                let model_dim = match node.op {
                    OpKind::Embedding | OpKind::Softmax => node.dim_index("v"),
                    OpKind::Attention => node.dim_index("h"),
                    OpKind::FeedForward => node.dim_index("e"),
                    // The final projection shares the (v, d) layout.
                    OpKind::FullyConnected => node.dim_index("v"),
                    _ => None,
                };
                if let Some(mi) = model_dim {
                    if node.iter_space[mi].splittable {
                        splits[mi] = split_capped(node.iter_space[mi].size, n_model);
                    }
                }
                Config::new(&splits)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pase_graph::{GraphBuilder, IterDim, TensorRef};

    fn fc(name: &str, ins: usize) -> Node {
        let dims = vec![
            IterDim::new("b", 64, DimRole::Batch),
            IterDim::new("n", 128, DimRole::Param),
            IterDim::new("c", 128, DimRole::Reduction),
        ];
        Node {
            name: name.into(),
            op: OpKind::FullyConnected,
            iter_space: dims,
            inputs: (0..ins)
                .map(|_| TensorRef::new(vec![0, 2], vec![64, 128]))
                .collect(),
            output: TensorRef::new(vec![0, 1], vec![64, 128]),
            params: vec![TensorRef::new(vec![1, 2], vec![128, 128])],
        }
    }

    fn conv(name: &str, ins: usize) -> Node {
        let dims = vec![
            IterDim::new("b", 64, DimRole::Batch),
            IterDim::new("c", 16, DimRole::Reduction),
            IterDim::new("h", 32, DimRole::Spatial),
            IterDim::new("w", 32, DimRole::Spatial),
            IterDim::new("n", 32, DimRole::Param),
            IterDim::fixed("r", 3, DimRole::Reduction),
            IterDim::fixed("s", 3, DimRole::Reduction),
        ];
        Node {
            name: name.into(),
            op: OpKind::Conv2d {
                kernel_h: 3,
                kernel_w: 3,
                stride: 1,
            },
            iter_space: dims,
            inputs: (0..ins)
                .map(|_| TensorRef::new(vec![0, 1, 2, 3], vec![64, 16, 32, 32]))
                .collect(),
            // Flattened to (b, n·h·w), as the zoo's flattening pool does,
            // so the conv → fc edge joins tensors of equal rank.
            output: TensorRef::new(vec![0, 4], vec![64, 32 * 32 * 32]),
            params: vec![TensorRef::new(vec![4, 1, 5, 6], vec![32, 16, 3, 3])],
        }
    }

    fn cnn() -> Graph {
        let mut b = GraphBuilder::new();
        let c1 = b.add_node(conv("conv1", 0));
        let f1 = b.add_node(fc("fc1", 1));
        b.connect(c1, f1);
        b.build().unwrap()
    }

    #[test]
    fn data_parallel_splits_batch_everywhere() {
        let g = cnn();
        let s = data_parallel(&g, 16);
        for (id, node) in g.iter() {
            let cfg = s.config(id);
            let bi = node.dim_index("b").unwrap();
            assert_eq!(cfg.split(bi), 16);
            assert_eq!(cfg.product(), 16);
        }
    }

    #[test]
    fn data_parallel_caps_at_batch_size() {
        let g = cnn();
        let s = data_parallel(&g, 128); // batch is only 64
        for (id, node) in g.iter() {
            assert_eq!(s.config(id).split(node.dim_index("b").unwrap()), 64);
        }
    }

    #[test]
    fn owt_switches_fc_to_parameter_parallelism() {
        let g = cnn();
        let s = owt(&g, 8);
        // conv: batch split
        assert_eq!(
            s.config(pase_graph::NodeId(0)).splits(),
            &[8, 1, 1, 1, 1, 1, 1]
        );
        // fc: out-feature split
        assert_eq!(s.config(pase_graph::NodeId(1)).splits(), &[1, 8, 1]);
    }

    #[test]
    fn gnmt_splits_lstm_layers_then_batch() {
        let lstm = Node {
            name: "lstm".into(),
            op: OpKind::Lstm { layers: 2 },
            iter_space: vec![
                IterDim::new("l", 2, DimRole::Pipeline),
                IterDim::new("b", 64, DimRole::Batch),
                IterDim::new("s", 40, DimRole::Pipeline),
                IterDim::new("d", 1024, DimRole::Reduction),
                IterDim::new("e", 2048, DimRole::Param),
            ],
            inputs: vec![],
            output: TensorRef::new(vec![1, 2, 4], vec![64, 40, 2048]),
            params: vec![TensorRef::new(vec![0, 3, 4], vec![2, 1024, 2048])],
        };
        let mut b = GraphBuilder::new();
        b.add_node(lstm);
        let g = b.build().unwrap();
        let s = gnmt_expert(&g, 8);
        // l split 2, batch split 8/2 = 4
        assert_eq!(s.config(pase_graph::NodeId(0)).splits(), &[2, 4, 1, 1, 1]);
    }

    #[test]
    fn mesh_tf_splits_batch_and_model_dims() {
        let ffn = Node {
            name: "ffn".into(),
            op: OpKind::FeedForward,
            iter_space: vec![
                IterDim::new("b", 64, DimRole::Batch),
                IterDim::new("s", 256, DimRole::Spatial),
                IterDim::new("d", 1024, DimRole::Param),
                IterDim::new("e", 4096, DimRole::Reduction),
            ],
            inputs: vec![],
            output: TensorRef::new(vec![0, 1, 2], vec![64, 256, 1024]),
            params: vec![TensorRef::new(vec![2, 3], vec![1024, 4096])],
        };
        let mut b = GraphBuilder::new();
        b.add_node(ffn);
        let g = b.build().unwrap();
        let s = mesh_tf_expert(&g, 32);
        // p = 32 → n = 8, m = 4: batch 4-way, hidden e 8-way
        assert_eq!(s.config(pase_graph::NodeId(0)).splits(), &[4, 1, 1, 8]);
    }

    #[test]
    fn experts_produce_valid_products() {
        let g = cnn();
        for p in [4u32, 8, 16, 32, 64] {
            for s in [data_parallel(&g, p), owt(&g, p)] {
                for (id, _) in g.iter() {
                    assert!(s.config(id).product() <= u64::from(p));
                }
            }
        }
    }
}
