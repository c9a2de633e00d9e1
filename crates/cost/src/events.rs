//! Structured intra-layer communication breakdown.
//!
//! [`layer_comm_events`] decomposes everything `t_l` charges beyond pure
//! compute into typed [`CommEvent`]s. The analytical cost model reduces
//! each event to per-device bytes with the flat ring formulas and
//! multiplies by `r`; the execution simulator (`pase-sim`) instead times
//! each event against the *hierarchical* topology, using the event's
//! `group_dims` to locate the participating devices (intra-node vs
//! inter-node) under the canonical placement.

use crate::comm::{all_gather_bytes, all_reduce_bytes};
use crate::config::{Config, MAX_RANK};
use crate::sharding::{replication, shard_bytes};
use pase_graph::{DimRole, Node, OpKind};

/// Which collective realizes the event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Collective {
    /// Ring all-reduce of a `volume`-byte buffer held by every member.
    AllReduce,
    /// Ring all-gather producing a `volume`-byte concatenation.
    AllGather,
    /// Point-to-point neighbor exchange of `volume` bytes per device.
    PointToPoint,
}

/// Why the communication happens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommKind {
    /// Partial-sum reduction of a split contraction dimension.
    PartialReduce,
    /// Update-phase gradient all-reduce of replicated parameters.
    GradientSync,
    /// Convolution halo exchange across a split spatial dimension.
    Halo,
    /// Per-timestep hidden-state reduction of a split RNN hidden dim.
    RecurrentReduce,
    /// Hidden-state transfer across RNN pipeline-stage boundaries.
    PipelineTransfer,
    /// Key/value all-gather of a sequence-split attention operator.
    KvAllGather,
}

/// One intra-layer communication event of a configured node.
#[derive(Clone, Debug, PartialEq)]
pub struct CommEvent {
    /// Why the event occurs.
    pub kind: CommKind,
    /// How it is realized.
    pub collective: Collective,
    /// Logical buffer volume in bytes (see [`Collective`] for the
    /// per-device traffic semantics).
    pub volume: f64,
    /// Iteration-space dimensions whose split factors form the
    /// communication group (used by the simulator's placement).
    pub group_dims: Vec<u32>,
    /// Number of devices in the group.
    pub group: u32,
}

impl CommEvent {
    /// Per-device traffic in bytes under bandwidth-optimal ring algorithms
    /// (what the flat analytical model charges).
    pub fn traffic_bytes(&self) -> f64 {
        traffic_bytes(self.collective, self.volume, self.group)
    }
}

/// Per-device ring traffic of a `volume`-byte `collective` over `group`
/// devices ([`CommEvent::traffic_bytes`] without the event).
pub(crate) fn traffic_bytes(collective: Collective, volume: f64, group: u32) -> f64 {
    match collective {
        Collective::AllReduce => all_reduce_bytes(volume, group),
        Collective::AllGather => all_gather_bytes(volume, group),
        Collective::PointToPoint => volume,
    }
}

/// One event as [`for_each_comm_event`] reports it: a [`CommEvent`] whose
/// `group_dims` live in a stack buffer instead of a `Vec`.
pub(crate) struct EventRef<'a> {
    pub(crate) kind: CommKind,
    pub(crate) collective: Collective,
    pub(crate) volume: f64,
    pub(crate) group_dims: &'a [u32],
    pub(crate) group: u32,
}

/// A fixed-capacity list of iteration-dim indices (a configured node has at
/// most [`MAX_RANK`] dimensions).
#[derive(Default)]
struct DimList {
    buf: [u32; MAX_RANK],
    len: usize,
}

impl DimList {
    fn push(&mut self, d: u32) {
        self.buf[self.len] = d;
        self.len += 1;
    }

    fn of(node: &Node, name: &str) -> Self {
        let mut dims = Self::default();
        if let Some(i) = node.dim_index(name) {
            dims.push(i as u32);
        }
        dims
    }

    fn as_slice(&self) -> &[u32] {
        &self.buf[..self.len]
    }
}

/// Split factor of the iteration dim named `name`, or 1 if absent.
fn split_of(node: &Node, cfg: &Config, name: &str) -> u32 {
    node.dim_index(name).map_or(1, |i| cfg.split(i))
}

/// Extent of the iteration dim named `name`, or 1 if absent.
fn size_of(node: &Node, name: &str) -> f64 {
    node.dim_size(name).map_or(1.0, |s| s as f64)
}

/// Compute FLOPs of `node` under `cfg`: the forward+backward work divided
/// across `∏ c_i` devices, inflated by the pipeline-bubble factor for the
/// single-vertex RNN operator.
pub fn layer_compute_flops(node: &Node, cfg: &Config) -> f64 {
    compute_flops(node, node.step_flops(), cfg.product(), cfg)
}

/// [`layer_compute_flops`] with the node's `step_flops` and the
/// configuration's `product` supplied by the caller (the table fill reads
/// both once per class and configuration).
pub(crate) fn compute_flops(node: &Node, step_flops: f64, product: u64, cfg: &Config) -> f64 {
    let parts = product as f64;
    let mut compute = step_flops / parts;
    if let OpKind::Lstm { .. } = node.op {
        let p_stages = f64::from(split_of(node, cfg, "l") * split_of(node, cfg, "s"));
        if p_stages > 1.0 {
            let m = size_of(node, "s");
            compute *= (m + p_stages - 1.0) / m;
        }
    }
    compute
}

/// All intra-layer communication events of `node` under `cfg`.
pub fn layer_comm_events(node: &Node, cfg: &Config) -> Vec<CommEvent> {
    let mut events = Vec::new();
    for_each_comm_event(node, cfg, |e| {
        events.push(CommEvent {
            kind: e.kind,
            collective: e.collective,
            volume: e.volume,
            group_dims: e.group_dims.to_vec(),
            group: e.group,
        });
    });
    events
}

/// Report every event of [`layer_comm_events`], in the same order and with
/// the same values, to `emit` without allocating: the cost-table fill
/// calls this once per configuration.
pub(crate) fn for_each_comm_event(node: &Node, cfg: &Config, mut emit: impl FnMut(&EventRef<'_>)) {
    // Partial-sum reduction of split contraction dims (not mapped to the
    // output; Pipeline dims are staging decisions, not contractions).
    let mut red_group = 1u64;
    let mut red_dims = DimList::default();
    for (i, d) in node.iter_space.iter().enumerate() {
        if d.role == DimRole::Reduction && !node.output.maps_dim(i as u32) && cfg.split(i) > 1 {
            red_group *= u64::from(cfg.split(i));
            red_dims.push(i as u32);
        }
    }
    if red_group > 1 {
        emit(&EventRef {
            kind: CommKind::PartialReduce,
            collective: Collective::AllReduce,
            volume: shard_bytes(&node.output, cfg),
            group_dims: red_dims.as_slice(),
            group: red_group as u32,
        });
    }

    // Update-phase gradient synchronization for replicated parameters.
    for param in &node.params {
        let repl = replication(param, cfg);
        if repl > 1 {
            let mut group_dims = DimList::default();
            for i in 0..node.rank() as u32 {
                if !param.maps_dim(i) && cfg.split(i as usize) > 1 {
                    group_dims.push(i);
                }
            }
            emit(&EventRef {
                kind: CommKind::GradientSync,
                collective: Collective::AllReduce,
                volume: shard_bytes(param, cfg),
                group_dims: group_dims.as_slice(),
                group: repl,
            });
        }
    }

    match &node.op {
        OpKind::Conv2d {
            kernel_h, kernel_w, ..
        } => {
            if let Some(input) = node.inputs.first() {
                let in_shard = shard_bytes(input, cfg);
                let kernels = [*kernel_h, *kernel_w];
                let mut spatial_seen = 0usize;
                for (i, d) in node.iter_space.iter().enumerate() {
                    if d.role != DimRole::Spatial {
                        continue;
                    }
                    let k = f64::from(kernels[spatial_seen.min(1)]);
                    spatial_seen += 1;
                    let c = f64::from(cfg.split(i));
                    if c > 1.0 && k > 1.0 {
                        let local = size_of_tensor_dim(node, input, i as u32) / c;
                        if local > 0.0 {
                            emit(&EventRef {
                                kind: CommKind::Halo,
                                collective: Collective::PointToPoint,
                                volume: 2.0 * in_shard * (k - 1.0) / local,
                                group_dims: &[i as u32],
                                group: cfg.split(i),
                            });
                        }
                    }
                }
            }
        }
        OpKind::Lstm { .. } => {
            let (cl, cb, cs, ce) = (
                split_of(node, cfg, "l"),
                split_of(node, cfg, "b"),
                split_of(node, cfg, "s"),
                split_of(node, cfg, "e"),
            );
            let (l, b, s, e) = (
                size_of(node, "l"),
                size_of(node, "b"),
                size_of(node, "s"),
                size_of(node, "e"),
            );
            let elem = f64::from(node.output.elem_bytes);
            if ce > 1 {
                let cells_per_dev = (l / f64::from(cl)) * (s / f64::from(cs));
                let gate_block = (b / f64::from(cb)) * (e / f64::from(ce)) * elem;
                emit(&EventRef {
                    kind: CommKind::RecurrentReduce,
                    collective: Collective::AllReduce,
                    volume: cells_per_dev * gate_block,
                    group_dims: DimList::of(node, "e").as_slice(),
                    group: ce,
                });
            }
            let p_stages = cl * cs;
            if p_stages > 1 {
                let h_block = (b / f64::from(cb)) * (e / f64::from(ce)) * elem;
                let crossings = (s / f64::from(cs)) * f64::from(p_stages - 1) / f64::from(p_stages);
                let mut dims = DimList::of(node, "l");
                if let Some(i) = node.dim_index("s") {
                    dims.push(i as u32);
                }
                emit(&EventRef {
                    kind: CommKind::PipelineTransfer,
                    collective: Collective::PointToPoint,
                    volume: 2.0 * crossings * h_block,
                    group_dims: dims.as_slice(),
                    group: p_stages,
                });
            }
        }
        OpKind::Attention => {
            let cs = split_of(node, cfg, "s");
            if cs > 1 {
                let (b, s, h, k) = (
                    size_of(node, "b"),
                    size_of(node, "s"),
                    size_of(node, "h"),
                    size_of(node, "k"),
                );
                let (cb, ch, ck) = (
                    split_of(node, cfg, "b"),
                    split_of(node, cfg, "h"),
                    split_of(node, cfg, "k"),
                );
                let kv = (b / f64::from(cb)) * s * (h / f64::from(ch)) * (k / f64::from(ck)) * 4.0;
                emit(&EventRef {
                    kind: CommKind::KvAllGather,
                    collective: Collective::AllGather,
                    volume: 4.0 * kv, // K and V, forward and backward
                    group_dims: DimList::of(node, "s").as_slice(),
                    group: cs,
                });
            }
        }
        OpKind::FeedForward => {
            let cd = split_of(node, cfg, "d");
            if cd > 1 {
                let (b, s, e) = (size_of(node, "b"), size_of(node, "s"), size_of(node, "e"));
                let (cb, cs2, ce) = (
                    split_of(node, cfg, "b"),
                    split_of(node, cfg, "s"),
                    split_of(node, cfg, "e"),
                );
                let hidden = (b / f64::from(cb)) * (s / f64::from(cs2)) * (e / f64::from(ce)) * 4.0;
                emit(&EventRef {
                    kind: CommKind::PartialReduce,
                    collective: Collective::AllReduce,
                    volume: hidden,
                    group_dims: DimList::of(node, "d").as_slice(),
                    group: cd,
                });
            }
        }
        _ => {}
    }
}

/// Extent of the tensor dimension of `t` mapped to iteration dim `iter_dim`
/// (falling back to the iteration extent if the tensor does not map it).
fn size_of_tensor_dim(node: &Node, t: &pase_graph::TensorRef, iter_dim: u32) -> f64 {
    t.dims
        .iter()
        .position(|&d| d == iter_dim)
        .map(|pos| t.sizes[pos] as f64)
        .unwrap_or_else(|| node.iter_space[iter_dim as usize].size as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pase_graph::{IterDim, TensorRef};

    fn fc() -> Node {
        let dims = vec![
            IterDim::new("b", 64, DimRole::Batch),
            IterDim::new("n", 256, DimRole::Param),
            IterDim::new("c", 512, DimRole::Reduction),
        ];
        let sizes: Vec<u64> = dims.iter().map(|d| d.size).collect();
        Node {
            name: "fc".into(),
            op: OpKind::FullyConnected,
            iter_space: dims,
            inputs: vec![TensorRef::aligned(vec![0, 2], &sizes)],
            output: TensorRef::aligned(vec![0, 1], &sizes),
            params: vec![TensorRef::aligned(vec![1, 2], &sizes)],
        }
    }

    #[test]
    fn data_parallel_fc_has_one_gradient_sync_event() {
        let events = layer_comm_events(&fc(), &Config::new(&[8, 1, 1]));
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.kind, CommKind::GradientSync);
        assert_eq!(e.group, 8);
        assert_eq!(e.group_dims, vec![0]);
        assert_eq!(e.volume, 256.0 * 512.0 * 4.0);
    }

    #[test]
    fn reduction_split_fc_has_one_partial_reduce_event() {
        let events = layer_comm_events(&fc(), &Config::new(&[1, 1, 8]));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, CommKind::PartialReduce);
        assert_eq!(events[0].group_dims, vec![2]);
    }

    #[test]
    fn param_split_fc_is_event_free() {
        assert!(layer_comm_events(&fc(), &Config::new(&[1, 8, 1])).is_empty());
    }

    #[test]
    fn traffic_matches_ring_formulas() {
        let e = CommEvent {
            kind: CommKind::GradientSync,
            collective: Collective::AllReduce,
            volume: 1000.0,
            group_dims: vec![0],
            group: 4,
        };
        assert_eq!(e.traffic_bytes(), all_reduce_bytes(1000.0, 4));
        let g = CommEvent {
            collective: Collective::AllGather,
            ..e.clone()
        };
        assert_eq!(g.traffic_bytes(), all_gather_bytes(1000.0, 4));
        let p = CommEvent {
            collective: Collective::PointToPoint,
            ..e
        };
        assert_eq!(p.traffic_bytes(), 1000.0);
    }

    #[test]
    fn compute_flops_divide_evenly_without_pipeline() {
        let n = fc();
        assert_eq!(
            layer_compute_flops(&n, &Config::new(&[2, 2, 2])),
            n.step_flops() / 8.0
        );
    }

    #[test]
    fn layer_cost_equals_compute_plus_traffic_for_all_configs() {
        // layer_cost is defined as compute + r·Σ traffic; guard the
        // decomposition across the whole configuration space of a node.
        let n = fc();
        let r = 777.0;
        for cfg in crate::enumerate_configs(&n, &crate::ConfigRule::new(8).allow_idle()) {
            let direct = crate::layer_cost(&n, &cfg, r);
            let composed = layer_compute_flops(&n, &cfg)
                + r * layer_comm_events(&n, &cfg)
                    .iter()
                    .map(CommEvent::traffic_bytes)
                    .sum::<f64>();
            assert!(
                (direct - composed).abs() <= 1e-9 * direct.abs().max(1.0),
                "decomposition broke at {cfg}"
            );
        }
    }

    #[test]
    fn events_have_sane_groups_and_volumes() {
        let n = fc();
        for cfg in crate::enumerate_configs(&n, &crate::ConfigRule::new(16).allow_idle()) {
            for e in layer_comm_events(&n, &cfg) {
                assert!(e.group >= 2, "event with trivial group at {cfg}");
                assert!(e.volume > 0.0);
                assert!(!e.group_dims.is_empty());
                for &d in &e.group_dims {
                    assert!(cfg.split(d as usize) > 1, "group dim {d} unsplit at {cfg}");
                }
            }
        }
    }
}
