//! # pase-serve — the PaSE planner service
//!
//! A std-only TCP strategy server: clients send newline-delimited JSON
//! requests naming a model, a device count `p`, a machine profile, and an
//! optional budget/deadline; the server answers with the optimal
//! parallelization strategy and a full [`pase_core::SearchReport`].
//! Repeated queries are answered from a **content-addressed strategy
//! cache** keyed by a canonical hash of everything that determines the
//! answer — graph structure (name-blind), per-node iteration spaces and
//! tensors, the [`pase_cost::ConfigRule`], the machine's measured rates,
//! `p`, and the pruning settings — with in-memory LRU eviction and
//! optional JSON persistence to a `--cache-dir`.
//!
//! ```no_run
//! use pase_serve::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default())?;
//! println!("listening on {}", server.local_addr()?);
//! #[cfg(unix)]
//! pase_serve::install_sigint(server.shutdown_handle());
//! let summary = server.run()?; // blocks until shutdown
//! eprintln!(
//!     "served {} requests ({} cache hits)",
//!     summary.requests, summary.cache_hits
//! );
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The wire protocol is documented in [`protocol`]; the cache-key
//! derivation in [`cache`]. The CLI front-ends are `pase serve` and
//! `pase query`.

pub mod cache;
#[cfg(target_os = "linux")]
mod event;
mod prewarm;
pub mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
mod server;
pub mod sharded;

pub use cache::{strategy_cache_key, CacheEntry, StrategyCache};
pub use prewarm::parse_prewarm_spec;
pub use protocol::{
    error_json, response_json, write_batch_close, write_batch_open, write_error_json,
    write_frontier_response_json, write_response_json, write_stats_json, Request, RequestKind,
    MAX_BATCH,
};
#[cfg(unix)]
pub use server::install_sigint;
pub use server::limit_malloc_arenas;
pub use server::{FrontEnd, ServeSummary, Server, ServerConfig, ShutdownHandle};
pub use sharded::{CacheCounters, Lookup, MissGuard, ShardedCache};
