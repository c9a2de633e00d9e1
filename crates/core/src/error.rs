//! The unified error type of the search stack.
//!
//! Before this module each layer grew its own ad-hoc error carrier —
//! `String` messages from the transfer-cost checks, panics from budget
//! exhaustion, and stringly-typed I/O plumbing in the drivers. [`Error`]
//! consolidates them: budget exhaustion ([`Error::Oom`] /
//! [`Error::Timeout`]), structural cost-model failures
//! ([`Error::Transfer`], wrapping [`pase_cost::TransferError`]), graph
//! construction failures ([`Error::Graph`]), strategy-cache persistence
//! failures ([`Error::CacheIo`]), planner-service wire-protocol violations
//! ([`Error::Protocol`]), and schema-version mismatches of persisted
//! artifacts ([`Error::SchemaVersion`]). Everything implements
//! `Display` and `std::error::Error` with `source()` chaining.

use crate::budget::SearchStats;
use pase_cost::{NonFiniteCost, TransferError};
use pase_graph::GraphError;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Any failure the search stack can report (see the module docs).
#[derive(Debug)]
pub enum Error {
    /// The projected DP table allocation exceeded the memory budget — the
    /// programmatic form of [`crate::SearchOutcome::Oom`].
    Oom {
        /// Entries that would have been needed when the search aborted.
        needed_entries: u64,
        /// Statistics up to the abort (boxed: they dwarf every other
        /// variant).
        stats: Box<SearchStats>,
    },
    /// The wall-clock budget was exhausted — the programmatic form of
    /// [`crate::SearchOutcome::Timeout`].
    Timeout {
        /// Time spent before the abort.
        elapsed: Duration,
        /// Statistics up to the abort (boxed: they dwarf every other
        /// variant).
        stats: Box<SearchStats>,
    },
    /// A memory-constrained search completed but no strategy fits the
    /// requested budget — the programmatic form of
    /// [`crate::SearchOutcome::Infeasible`].
    Infeasible {
        /// The smallest peak strategy memory any strategy achieves.
        min_memory_bytes: u64,
        /// Statistics of the completed frontier search.
        stats: Box<SearchStats>,
    },
    /// A structurally malformed edge surfaced by the cost model
    /// ([`pase_cost::try_transfer_bytes`]).
    Transfer(TransferError),
    /// The cost tables contain a NaN or infinite entry (a degenerate
    /// [`pase_cost::MachineSpec`] rate); rejected before it can silently
    /// poison the dominance prune or the DP argmin.
    NonFiniteCost(NonFiniteCost),
    /// Graph construction failed.
    Graph(GraphError),
    /// Reading or writing a persisted strategy-cache entry failed.
    CacheIo {
        /// The entry (or directory) involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A malformed planner-service request or response.
    Protocol(String),
    /// A persisted artifact (cache entry, search report) was produced by an
    /// incompatible build and must be rejected rather than misparsed.
    SchemaVersion {
        /// Version found in the artifact.
        found: u64,
        /// Version this build understands.
        expected: u64,
    },
    /// An unknown model, machine, or other named entity was requested.
    UnknownName {
        /// What kind of name failed to resolve (`"model"`, `"machine"`…).
        kind: &'static str,
        /// The unresolvable name.
        name: String,
    },
}

impl Error {
    /// Convert a failed [`crate::SearchOutcome`] into the matching error
    /// (`None` for [`crate::SearchOutcome::Found`]).
    pub fn from_outcome(outcome: &crate::SearchOutcome) -> Option<Self> {
        match outcome {
            crate::SearchOutcome::Found(_) => None,
            crate::SearchOutcome::Oom {
                needed_entries,
                stats,
            } => Some(Error::Oom {
                needed_entries: *needed_entries,
                stats: Box::new(stats.clone()),
            }),
            crate::SearchOutcome::Timeout { stats } => Some(Error::Timeout {
                elapsed: stats.elapsed,
                stats: Box::new(stats.clone()),
            }),
            crate::SearchOutcome::Infeasible {
                min_memory_bytes,
                stats,
            } => Some(Error::Infeasible {
                min_memory_bytes: *min_memory_bytes,
                stats: Box::new(stats.clone()),
            }),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Oom { needed_entries, .. } => write!(
                f,
                "search exceeded its memory budget ({needed_entries} DP table entries needed)"
            ),
            Error::Timeout { elapsed, .. } => {
                write!(f, "search exceeded its time budget after {elapsed:?}")
            }
            Error::Infeasible {
                min_memory_bytes, ..
            } => write!(
                f,
                "no strategy fits the memory budget (the cheapest needs {min_memory_bytes} B)"
            ),
            Error::Transfer(e) => write!(f, "cost model: {e}"),
            Error::NonFiniteCost(e) => write!(f, "cost model: {e}"),
            Error::Graph(e) => write!(f, "graph: {e}"),
            Error::CacheIo { path, source } => {
                write!(f, "strategy cache I/O on {}: {source}", path.display())
            }
            Error::Protocol(msg) => write!(f, "protocol: {msg}"),
            Error::SchemaVersion { found, expected } => write!(
                f,
                "schema version {found} is not the supported version {expected}; \
                 refusing to parse an artifact from an incompatible build"
            ),
            Error::UnknownName { kind, name } => write!(f, "unknown {kind} '{name}'"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Transfer(e) => Some(e),
            Error::NonFiniteCost(e) => Some(e),
            Error::Graph(e) => Some(e),
            Error::CacheIo { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<TransferError> for Error {
    fn from(e: TransferError) -> Self {
        Error::Transfer(e)
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        Error::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::SearchOutcome;

    #[test]
    fn outcome_conversion_maps_failures_only() {
        let oom = SearchOutcome::Oom {
            needed_entries: 42,
            stats: SearchStats::default(),
        };
        match Error::from_outcome(&oom) {
            Some(Error::Oom { needed_entries, .. }) => assert_eq!(needed_entries, 42),
            other => panic!("expected Oom, got {other:?}"),
        }
        let timeout = SearchOutcome::Timeout {
            stats: SearchStats {
                elapsed: Duration::from_secs(3),
                ..SearchStats::default()
            },
        };
        match Error::from_outcome(&timeout) {
            Some(Error::Timeout { elapsed, .. }) => assert_eq!(elapsed, Duration::from_secs(3)),
            other => panic!("expected Timeout, got {other:?}"),
        }
        let found = SearchOutcome::Found(crate::SearchResult {
            cost: 1.0,
            config_ids: vec![],
            stats: SearchStats::default(),
        });
        assert!(Error::from_outcome(&found).is_none());
    }

    #[test]
    fn display_and_source_chain() {
        let e = Error::Transfer(pase_cost::TransferError::BadSlot {
            consumer: "fc".into(),
            n_inputs: 1,
            slot: 5,
        });
        assert!(e.to_string().contains("no slot 5"));
        assert!(std::error::Error::source(&e).is_some());

        let io = Error::CacheIo {
            path: PathBuf::from("/tmp/x.json"),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        assert!(io.to_string().contains("/tmp/x.json"));
        assert!(std::error::Error::source(&io).is_some());

        let schema = Error::SchemaVersion {
            found: 9,
            expected: 1,
        };
        assert!(schema.to_string().contains("schema version 9"));
        assert!(std::error::Error::source(&schema).is_none());

        assert_eq!(
            Error::UnknownName {
                kind: "model",
                name: "gpt5".into()
            }
            .to_string(),
            "unknown model 'gpt5'"
        );
    }
}
