//! # pase-cost — the analytical cost model of PaSE (§II)
//!
//! Implements everything Equation (1) needs:
//!
//! ```text
//! F(G, φ) = Σ_v t_l(v, φ, r)  +  Σ_(u,v)∈E  r · t_x(u, v, φ)
//! ```
//!
//! * [`Config`] / [`ConfigRule`] / [`enumerate_configs`] — the per-node
//!   configuration space `C(v) = {(c_1…c_d) | ∏ c_i ≤ p}` restricted to
//!   power-of-two splits of splittable dimensions;
//! * [`MachineSpec`] — peak per-device FLOPs `F`, link bandwidth `B`, and
//!   the FLOP-to-byte ratio `r = F/B` that converts communication bytes
//!   into FLOP-equivalent cost;
//! * [`DeviceMesh`] — the hierarchical refinement of [`MachineSpec`]: a
//!   list of mesh axes (innermost first) with per-link α/bandwidth and
//!   per-device FLOPs, charging each collective at the slowest link its
//!   group spans; [`DeviceMesh::flat`] reproduces the scalar model
//!   bit-identically;
//! * [`layer_cost`] — `t_l(v, φ, r)`: compute divided by the split product,
//!   plus intra-layer communication (gradient all-reduce, partial-sum
//!   reduction of split contraction dims, convolution halo exchange, RNN
//!   pipeline bubbles and recurrent reductions) normalized to FLOPs;
//! * [`transfer_cost`] — `t_x(u, v, φ)`: the per-device
//!   `max_d |A(v,d,φ)| − |A(v,d,φ) ∩ A(u,d,φ)|` transfer volume between
//!   adjacent layers under block sharding with aligned greedy placement;
//! * [`CostTables`] — a precomputation of all per-node layer costs and
//!   per-edge transfer-cost matrices so the dynamic program in `pase-core`
//!   runs on pure table lookups;
//! * [`Strategy`] — a complete assignment of configurations to nodes, plus
//!   the direct evaluation of `F(G, φ)` used to cross-check the DP.

#![warn(missing_docs)]

mod calibrate;
mod comm;
mod config;
mod events;
mod export;
mod fill;
mod layer;
mod machine;
mod memory;
mod mesh;
mod prune;
mod sharding;
mod strategy;
mod tables;
mod transfer;

pub use calibrate::{fit_machine, strategy_features, Observation};
pub use comm::{all_gather_bytes, all_reduce_bytes, reduce_scatter_bytes};
pub use config::{
    enumerate_configs, layer_footprint_bytes, Config, ConfigRule, ConfigSpace, MAX_RANK,
};
pub use events::{layer_comm_events, layer_compute_flops, Collective, CommEvent, CommKind};
pub use export::{from_sharding_json, to_sharding_json, to_sharding_json_with};
pub use layer::layer_cost;
pub use machine::MachineSpec;
pub use memory::config_memory_bytes;
pub use mesh::{mesh_layer_cost, mesh_transfer_cost, DeviceMesh, MeshAxis};
pub use prune::{PruneOptions, PruneStats, PrunedTables};
pub use sharding::{replication, shard_bytes, shard_elements, tensor_sharding};
pub use strategy::{evaluate, validate_strategy, Strategy};
pub use tables::{CostTables, InternStats, NonFiniteCost, TableOptions};
pub use transfer::{transfer_bytes, transfer_cost, try_transfer_bytes, TransferError};
