//! The computation graph and its builder.

use crate::ids::{EdgeId, NodeId};
use crate::node::Node;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A directed edge: the output tensor of `src` flows into input slot
/// `dst_slot` of `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Producing node.
    pub src: NodeId,
    /// Consuming node.
    pub dst: NodeId,
    /// Which input slot of `dst` this edge feeds (index into
    /// `Node::inputs`).
    pub dst_slot: u32,
}

/// Errors raised by [`GraphBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node failed internal validation.
    InvalidNode(String),
    /// An edge references a slot that the destination node does not declare,
    /// joins a producer output and a consumer input of different ranks, or
    /// a slot is fed by more than one edge / left unconnected.
    InvalidEdge(String),
    /// A cluster/topology shape is degenerate (zero devices or nodes).
    /// Raised by consumers that validate execution shapes (e.g. the
    /// simulator's `Topology`) rather than by [`GraphBuilder::build`]
    /// itself, so shape violations flow through the same error channel as
    /// graph violations instead of panicking.
    InvalidShape(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidNode(m) => write!(f, "invalid node: {m}"),
            GraphError::InvalidEdge(m) => write!(f, "invalid edge: {m}"),
            GraphError::InvalidShape(m) => write!(f, "invalid shape: {m}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable DNN computation graph `G = (V, E)` (PaSE §II).
///
/// Adjacency is stored both directed (for tensor-flow semantics) and
/// undirected (the search algorithms are edge-direction agnostic: `N(v)`
/// unions in- and out-neighbors, and `t_x` covers both forward and backward
/// transfers).
#[derive(Clone, Debug, Serialize)]
pub struct Graph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
    /// Deduplicated undirected neighbor lists, sorted by node index.
    neighbors: Vec<Vec<NodeId>>,
}

impl Graph {
    /// Number of nodes `|V|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of directed edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All nodes, indexable by `NodeId::index`.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterate over `(NodeId, &Node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The edge with the given id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// All edges, indexable by `EdgeId::index`.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edges produced by `v`.
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out_edges[v.index()]
    }

    /// Edges consumed by `v`.
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.in_edges[v.index()]
    }

    /// Undirected neighbors `N(v) = {u | (u,v) ∈ E ∨ (v,u) ∈ E}`,
    /// deduplicated and sorted by index.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[v.index()]
    }

    /// Undirected degree `|N(v)|` (parallel edges between the same pair of
    /// nodes count once, matching the paper's set-valued `N(v)`).
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors[v.index()].len()
    }

    /// All node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Sum of `Node::step_flops` over all nodes: the sequential work of one
    /// training step.
    pub fn total_step_flops(&self) -> f64 {
        self.nodes.iter().map(Node::step_flops).sum()
    }

    /// Total trainable parameters of the model.
    pub fn total_params(&self) -> f64 {
        self.nodes.iter().map(Node::param_elements).sum()
    }
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use pase_graph::{DimRole, GraphBuilder, IterDim, Node, OpKind, TensorRef};
///
/// let mut b = GraphBuilder::new();
/// let sizes = [64u64, 10];
/// let fc = b.add_node(Node {
///     name: "fc".into(),
///     op: OpKind::FullyConnected,
///     iter_space: vec![
///         IterDim::new("b", 64, DimRole::Batch),
///         IterDim::new("n", 10, DimRole::Param),
///     ],
///     inputs: vec![],
///     output: TensorRef::aligned(vec![0, 1], &sizes),
///     params: vec![],
/// });
/// let g = b.build().unwrap();
/// assert_eq!(g.len(), 1);
/// assert_eq!(g.degree(fc), 0);
/// ```
#[derive(Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a node, returning its id.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Connect `src`'s output to the next free input slot of `dst`,
    /// returning the edge id. Slots are assigned in call order.
    pub fn connect(&mut self, src: NodeId, dst: NodeId) -> EdgeId {
        let slot = self.edges.iter().filter(|e| e.dst == dst).count() as u32;
        self.connect_slot(src, dst, slot)
    }

    /// Connect `src`'s output to a specific input slot of `dst`.
    pub fn connect_slot(&mut self, src: NodeId, dst: NodeId, dst_slot: u32) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { src, dst, dst_slot });
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Read access to a node added earlier (useful while wiring models).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Finalize into an immutable [`Graph`], validating nodes and edge/slot
    /// consistency.
    pub fn build(self) -> Result<Graph, GraphError> {
        let n = self.nodes.len();
        for node in &self.nodes {
            node.validate().map_err(GraphError::InvalidNode)?;
        }
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        let mut slot_seen = vec![Vec::<u32>::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            if e.src.index() >= n || e.dst.index() >= n {
                return Err(GraphError::InvalidEdge(format!(
                    "edge {i} references nonexistent node"
                )));
            }
            if e.src == e.dst {
                return Err(GraphError::InvalidEdge(format!("edge {i} is a self-loop")));
            }
            let dst = &self.nodes[e.dst.index()];
            if (e.dst_slot as usize) >= dst.inputs.len() {
                return Err(GraphError::InvalidEdge(format!(
                    "edge {i} feeds slot {} of '{}' which declares {} inputs",
                    e.dst_slot,
                    dst.name,
                    dst.inputs.len()
                )));
            }
            let (out, inp) = (
                &self.nodes[e.src.index()].output,
                &dst.inputs[e.dst_slot as usize],
            );
            if out.rank() != inp.rank() {
                return Err(GraphError::InvalidEdge(format!(
                    "edge {i}: '{}' output is rank {} but '{}' input[{}] is rank {}",
                    self.nodes[e.src.index()].name,
                    out.rank(),
                    dst.name,
                    e.dst_slot,
                    inp.rank()
                )));
            }
            if slot_seen[e.dst.index()].contains(&e.dst_slot) {
                return Err(GraphError::InvalidEdge(format!(
                    "slot {} of '{}' is fed by multiple edges",
                    e.dst_slot, dst.name
                )));
            }
            slot_seen[e.dst.index()].push(e.dst_slot);
            out_edges[e.src.index()].push(EdgeId(i as u32));
            in_edges[e.dst.index()].push(EdgeId(i as u32));
        }
        // Every declared input slot must be fed — except for pure *source*
        // nodes (no in-edges at all), whose declared inputs describe
        // external data tensors (images, token ids) from the data pipeline.
        for (i, node) in self.nodes.iter().enumerate() {
            if !slot_seen[i].is_empty() && slot_seen[i].len() != node.inputs.len() {
                return Err(GraphError::InvalidEdge(format!(
                    "node '{}' declares {} inputs but {} slots are connected",
                    node.name,
                    node.inputs.len(),
                    slot_seen[i].len()
                )));
            }
        }
        let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for e in &self.edges {
            neighbors[e.src.index()].push(e.dst);
            neighbors[e.dst.index()].push(e.src);
        }
        for nb in &mut neighbors {
            nb.sort_unstable();
            nb.dedup();
        }
        Ok(Graph {
            nodes: self.nodes,
            edges: self.edges,
            out_edges,
            in_edges,
            neighbors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::{DimRole, IterDim};
    use crate::op::OpKind;
    use crate::tensor::TensorRef;

    /// A minimal elementwise node over a (b,) iteration space with `ins`
    /// input slots.
    pub(crate) fn ew(name: &str, ins: usize) -> Node {
        let iter_space = vec![IterDim::new("b", 8, DimRole::Batch)];
        Node {
            name: name.into(),
            op: OpKind::Elementwise {
                flops_per_point: 1.0,
            },
            iter_space,
            inputs: (0..ins).map(|_| TensorRef::new(vec![0], vec![8])).collect(),
            output: TensorRef::new(vec![0], vec![8]),
            params: vec![],
        }
    }

    fn chain(k: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..k)
            .map(|i| b.add_node(ew(&format!("n{i}"), usize::from(i > 0))))
            .collect();
        for w in ids.windows(2) {
            b.connect(w[0], w[1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_adjacency() {
        let g = chain(4);
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.out_edges(NodeId(0)).len(), 1);
        assert_eq!(g.in_edges(NodeId(0)).len(), 0);
    }

    #[test]
    fn diamond_neighbors_are_deduplicated_and_sorted() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(ew("a", 0));
        let n1 = b.add_node(ew("b", 1));
        let n2 = b.add_node(ew("c", 1));
        let n3 = b.add_node(ew("d", 2));
        b.connect(n0, n1);
        b.connect(n0, n2);
        b.connect(n1, n3);
        b.connect(n2, n3);
        let g = b.build().unwrap();
        assert_eq!(g.neighbors(n0), &[n1, n2]);
        assert_eq!(g.neighbors(n3), &[n1, n2]);
        assert_eq!(g.degree(n3), 2);
    }

    #[test]
    fn partially_connected_node_is_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(ew("a", 0));
        let c = b.add_node(ew("c", 2)); // declares 2 inputs, only 1 connected
        b.connect(a, c);
        assert!(matches!(b.build(), Err(GraphError::InvalidEdge(_))));
    }

    #[test]
    fn fully_unconnected_node_is_a_valid_source() {
        // A node whose declared inputs are external data (images, token
        // ids) has no in-edges and is accepted as a graph source.
        let mut b = GraphBuilder::new();
        let src = b.add_node(ew("input-conv", 1));
        let dst = b.add_node(ew("next", 1));
        b.connect(src, dst);
        let g = b.build().unwrap();
        assert!(g.in_edges(src).is_empty());
        assert_eq!(g.in_edges(dst).len(), 1);
    }

    #[test]
    fn double_fed_slot_is_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(ew("a", 0));
        let c = b.add_node(ew("c", 0));
        let d = b.add_node(ew("d", 1));
        b.connect_slot(a, d, 0);
        b.connect_slot(c, d, 0);
        assert!(matches!(b.build(), Err(GraphError::InvalidEdge(_))));
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(ew("a", 1));
        b.connect(a, a);
        assert!(matches!(b.build(), Err(GraphError::InvalidEdge(_))));
    }

    #[test]
    fn out_of_range_slot_is_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(ew("a", 0));
        let c = b.add_node(ew("c", 1));
        b.connect_slot(a, c, 5);
        assert!(matches!(b.build(), Err(GraphError::InvalidEdge(_))));
    }

    #[test]
    fn rank_mismatched_edge_is_rejected() {
        // Regression: a rank-0 output feeding a rank-1 input used to pass
        // `build` and panic later, inside the cost-table fill.
        let mut b = GraphBuilder::new();
        let mut scalar = ew("sum", 0);
        scalar.output = TensorRef::new(vec![], vec![]);
        let a = b.add_node(scalar);
        let c = b.add_node(ew("c", 1));
        b.connect(a, c);
        let err = b.build().unwrap_err();
        assert!(matches!(err, GraphError::InvalidEdge(_)));
        assert!(err.to_string().contains("rank"), "got: {err}");
    }

    #[test]
    fn total_step_flops_sums_nodes() {
        let g = chain(3);
        // each node: 8 points × 1 flop × 2 (fwd+bwd, no params)
        assert_eq!(g.total_step_flops(), 3.0 * 16.0);
    }
}
