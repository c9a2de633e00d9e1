//! Per-configuration peak-memory model.
//!
//! The frontier search in `pase-core` carries a (step-time, peak-memory)
//! pair per DP state, so it needs a per-device memory charge for every
//! `(node, Config)` pair that is **additive over nodes**: the peak memory
//! of a complete strategy is defined as the sum of the per-node charges.
//! That additivity is what lets the DP combine frontiers component-wise
//! (time adds, memory adds) exactly like the scalar recurrence adds costs.
//!
//! The charge for one configured node is the steady-state per-device
//! residency the training step cannot avoid:
//!
//! * **weights** — `3 ×` the parameter shard (parameters + gradients +
//!   optimizer state), exactly [`layer_footprint_bytes`]'s weight term;
//! * **activations** — the output-tensor shard kept for the backward pass
//!   ([`layer_footprint_bytes`]'s activation term);
//! * **collective buffers** — the largest staging buffer any intra-layer
//!   collective of the configuration holds per device (the event's logical
//!   `volume`; ring algorithms stage the full buffer on every member).
//!   Events are charged by the single largest buffer, not their sum,
//!   because collectives of one layer run serially on the hot path.
//!
//! Transient inter-layer transfer buffers are deliberately *not* charged:
//! they are bounded by the activation shards already counted and would
//! break the per-node additivity the DP relies on.

use crate::config::{layer_footprint_bytes, Config};
use crate::events::layer_comm_events;
use pase_graph::Node;

/// Per-device memory in bytes that `node` occupies under `cfg`: weight
/// shards (×3 for grads + optimizer state), the output activation shard,
/// and the largest collective staging buffer. Rounded up to whole bytes.
pub fn config_memory_bytes(node: &Node, cfg: &Config) -> u64 {
    let comm_buf = layer_comm_events(node, cfg)
        .iter()
        .map(|e| e.volume)
        .fold(0.0_f64, f64::max);
    memory_charge(layer_footprint_bytes(node, cfg), comm_buf)
}

/// The charge [`config_memory_bytes`] assigns a layer footprint plus its
/// largest collective buffer.
pub(crate) fn memory_charge(footprint: f64, comm_buf: f64) -> u64 {
    let total = footprint + comm_buf;
    debug_assert!(total.is_finite() && total >= 0.0, "bad memory charge");
    total.ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{enumerate_configs, ConfigRule};
    use pase_graph::{DimRole, IterDim, Node, OpKind, TensorRef};

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
    fn data_parallel_fc_charges_full_weights_plus_sync_buffer() {
        // Data-parallel: weights fully replicated (256×512×4 B), output
        // batch-sharded across 8, and one gradient-sync all-reduce whose
        // buffer is the whole weight shard.
        let n = fc();
        let weights: f64 = 256.0 * 512.0 * 4.0;
        let act: f64 = (64.0 / 8.0) * 256.0 * 4.0;
        let got = config_memory_bytes(&n, &Config::new(&[8, 1, 1]));
        assert_eq!(got, (3.0 * weights + act + weights).ceil() as u64);
    }

    #[test]
    fn param_split_fc_has_no_collective_buffer() {
        // Param-split: no events at all, so the charge is exactly the
        // footprint.
        let n = fc();
        let cfg = Config::new(&[1, 8, 1]);
        assert_eq!(
            config_memory_bytes(&n, &cfg),
            layer_footprint_bytes(&n, &cfg).ceil() as u64
        );
    }

    #[test]
    fn charge_is_at_least_the_footprint_for_every_config() {
        // Collective buffers only ever add on top of the weight/activation
        // footprint, and every charge is a sane positive byte count.
        let n = fc();
        for cfg in enumerate_configs(&n, &ConfigRule::new(8).allow_idle()) {
            let got = config_memory_bytes(&n, &cfg);
            assert!(got >= layer_footprint_bytes(&n, &cfg).floor() as u64);
            assert!(got > 0);
        }
    }
}
