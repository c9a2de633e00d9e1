//! # pase-core — PaSE's search algorithms (§III)
//!
//! This crate implements the paper's contribution:
//!
//! * [`generate_seq`] — the **GenerateSeq** greedy vertex ordering (Fig. 3)
//!   that keeps dependent sets small by sequencing high-degree vertices
//!   only after their neighborhoods;
//! * [`VertexStructure`] — connected sets `X(i)`, connected subsets `S(i)`
//!   and dependent sets `D(i)` for a given ordering (§III-B definitions),
//!   in both the *exact* form of recurrence (4) and the *prefix* form
//!   `X(i) = V_{≤i}` that degenerates to the naive recurrence (2);
//! * [`Search`] — the unified builder entry point
//!   (`Search::new(&graph).devices(p).run()`) over the **FindBestStrategy**
//!   dynamic program (Fig. 4): precomputed [`pase_cost::CostTables`],
//!   rayon-parallel substrategy loops, optional dominance pruning and
//!   tracing, strategy extraction by back-substitution, and explicit
//!   time/memory budgets whose exhaustion reproduces the `OOM` entries of
//!   Table I — it is the sole search entry point (the legacy
//!   `find_best_strategy*` free-function grid has been removed), and costs
//!   against a [`pase_cost::DeviceMesh`] (flat single-axis meshes
//!   reproduce the scalar machine model bit-identically);
//! * [`kernel`] — the packed/tiled min-plus microkernel that fills the DP
//!   tables, treating the combine step as a GEMM-shaped min-plus matrix
//!   product; [`mod@reference`] keeps the scalar and incremental loops it
//!   replaced as test oracles (bit-identical results);
//! * [`Error`] — the single error type of the search stack (budget
//!   exhaustion, cost-model failures, cache I/O, protocol violations,
//!   schema-version mismatches);
//! * [`brute_force`] — exhaustive strategy enumeration for small graphs,
//!   used to validate the DP's optimality (Theorem 1).

#![warn(missing_docs)]

mod brute;
mod budget;
mod dp;
mod error;
mod frontier;
pub mod kernel;
mod ordering;
mod pool;
mod reduction;
pub mod reference;
mod report;
mod search;
mod structure;

pub use brute::{brute_force, random_strategy_costs};
pub use budget::{SearchBudget, SearchOutcome, SearchResult, SearchStats, DP_ENTRY_BYTES};
pub use dp::naive_best_strategy;
pub use error::Error;
pub use frontier::{cheapest_within, FrontierPoint, StrategyFrontier};
pub use ordering::{
    dependent_set_sizes, generate_seq, generate_seq_with_sets, make_ordering, search_profile,
    OrderingKind, PositionProfile,
};
pub use reduction::{optcnn_search, optcnn_search_pruned, ReductionOutcome};
pub use report::{PhaseReport, SearchReport, SCHEMA_VERSION};
pub use search::{PruneGate, Search, SearchRun};
pub use structure::{ConnectedSetMode, VertexStructure};
