//! Search budgets, outcomes, and statistics.
//!
//! The naive recurrence's tables grow as `K^M`; on InceptionV3 and
//! Transformer the paper reports breadth-first ordering running out of
//! memory (Table I). Running a reproduction to actual OOM is not
//! acceptable, so the DP engine accounts for every table entry it is about
//! to allocate and aborts with [`SearchOutcome::Oom`] when a cap is
//! exceeded, or [`SearchOutcome::Timeout`] on a wall-clock cap — those are
//! exactly the `OOM` cells of our Table I reproduction.

use std::time::Duration;

/// Bytes one DP table entry actually occupies: an `f64` cost plus a `u16`
/// chosen-configuration id, as allocated by the DP fill
/// (`Vec<f64>` + `Vec<u16>` of equal length per table). Derived from
/// `size_of` so the budget arithmetic cannot drift from the entry types.
pub const DP_ENTRY_BYTES: u64 = (std::mem::size_of::<f64>() + std::mem::size_of::<u16>()) as u64;

/// Resource limits for one search invocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchBudget {
    /// Cap on the total number of DP table entries allocated across the
    /// whole search. Each entry costs [`DP_ENTRY_BYTES`] (10) bytes, so
    /// the default of 2^28 entries caps table memory at 2.5 GiB —
    /// a memory-constrained workstation.
    pub max_table_entries: u64,
    /// Wall-clock cap.
    pub max_time: Duration,
}

impl Default for SearchBudget {
    fn default() -> Self {
        Self {
            max_table_entries: 1 << 28,
            max_time: Duration::from_secs(600),
        }
    }
}

impl SearchBudget {
    /// A budget with the given entry cap and the default time cap.
    pub fn with_max_entries(entries: u64) -> Self {
        Self {
            max_table_entries: entries,
            ..Self::default()
        }
    }

    /// A budget capping table memory at `bytes` (rounded down to whole
    /// entries of [`DP_ENTRY_BYTES`]), with the default time cap. Clamped
    /// to at least one entry: a sub-entry byte count used to truncate to a
    /// 0-entry budget, making every search — even on an empty graph's
    /// zero-entry tables — report Oom before evaluating anything.
    pub fn with_max_bytes(bytes: u64) -> Self {
        Self::with_max_entries((bytes / DP_ENTRY_BYTES).max(1))
    }

    /// A budget with the given time cap and the default entry cap.
    pub fn with_max_time(t: Duration) -> Self {
        Self {
            max_time: t,
            ..Self::default()
        }
    }

    /// The entry cap expressed in bytes ([`DP_ENTRY_BYTES`] per entry) —
    /// what [`SearchOutcome::Oom`] actually protects against.
    pub fn max_table_bytes(&self) -> u64 {
        self.max_table_entries.saturating_mul(DP_ENTRY_BYTES)
    }
}

/// Statistics reported by a (successful or failed) search.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SearchStats {
    /// `M`: size of the largest dependent set encountered.
    pub max_dependent_set: usize,
    /// `K`: the largest per-vertex configuration count of the tables the
    /// search actually ran on (the post-pruning K when pruning ran).
    pub max_configs: usize,
    /// `K` before dominance pruning. Equal to `max_configs` when the search
    /// ran on unpruned tables; strictly larger when the dominance prune of
    /// [`crate::Search::pruning`] removed configurations.
    pub k_before: usize,
    /// Wall-clock time of the dominance-pruning pass (zero when no pruning
    /// ran).
    pub prune_time: Duration,
    /// Total DP table entries allocated.
    pub table_entries: u64,
    /// High-water mark of DP table memory in bytes:
    /// `table_entries × DP_ENTRY_BYTES` at the point of greatest
    /// allocation. Tables stay live through back-substitution, so on a
    /// completed search this equals the final total; on an aborted one it
    /// is what had been accounted when the budget tripped.
    pub peak_table_bytes: u64,
    /// Total `(substrategy, configuration)` pairs evaluated.
    pub states_evaluated: u64,
    /// Number of wavefronts in the table-dependency DAG (tables within a
    /// wavefront are filled concurrently).
    pub wavefronts: usize,
    /// Size of the largest wavefront (peak table-level parallelism).
    pub max_wavefront_width: usize,
    /// Fraction of cost-table lookups served by structural interning in the
    /// [`pase_cost::CostTables`] the search ran on. `None` when the tables
    /// were built without interning (e.g. the `intern_min_nodes` size gate
    /// skipped it) — a skipped pass is *not* the same as a measured 0% hit
    /// rate.
    pub intern_hit_rate: Option<f64>,
    /// Which DP engine ran: `"tiled"` for scalar searches,
    /// `"frontier-tiled"` for frontier searches (the [`crate::reference`]
    /// oracles report `"scalar"` / `"frontier"`); empty on stats that never
    /// reached the DP.
    pub dp_kernel: &'static str,
    /// `true` when the adaptive prune gate (`PruneGate::Auto`) decided to
    /// skip the dominance prune because its fixed cost was predicted to
    /// exceed the DP savings. Always `false` for `PruneGate::On`/`Off`.
    pub prune_skipped: bool,
    /// The gate's DP-work estimate (total `(substrategy, configuration)`
    /// evaluations over the unpruned tables); `0` when the gate did not run.
    pub gate_dp_est: u64,
    /// The gate's prune-work estimate (dominance cost comparisons across
    /// distinct pruning signatures); `0` when the gate did not run.
    pub gate_prune_est: u64,
    /// Number of Pareto points on the strategy frontier the search
    /// produced. `0` for a scalar (non-frontier) search.
    pub frontier_len: usize,
    /// Number of axes of the [`pase_cost::DeviceMesh`] the cost tables
    /// were built against (1 = flat scalar-equivalent mesh; `0` only on
    /// stats that never reached a table build).
    pub mesh_axes: usize,
    /// Peak per-device memory in bytes of the returned strategy under the
    /// additive model of [`pase_cost::config_memory_bytes`]. `0` on stats
    /// that never reached a result.
    pub peak_strategy_bytes: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// A successful search result.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The minimum of the cost function `F(G, φ)` over the search space
    /// (in FLOP units).
    pub cost: f64,
    /// The argmin strategy, as per-node configuration ids into the
    /// [`pase_cost::CostTables`] the search ran on.
    pub config_ids: Vec<u16>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// The outcome of a search under a [`SearchBudget`].
#[derive(Clone, Debug)]
pub enum SearchOutcome {
    /// The search completed; the result is exact under the cost model.
    Found(SearchResult),
    /// The projected table allocation exceeded the budget — the reproduction
    /// of Table I's `OOM` entries.
    Oom {
        /// Entries that would have been needed when the search aborted.
        needed_entries: u64,
        /// Statistics up to the abort.
        stats: SearchStats,
    },
    /// The wall-clock budget was exhausted.
    Timeout {
        /// Statistics up to the abort.
        stats: SearchStats,
    },
    /// A memory-constrained search completed, but no strategy fits the
    /// requested `max_memory_bytes`: even the frontier's smallest-memory
    /// point needs more. Distinct from [`SearchOutcome::Oom`], which is
    /// about the *search's own* table memory, not the strategy's.
    Infeasible {
        /// The smallest peak strategy memory any enumerated strategy
        /// achieves (the frontier's min-memory point).
        min_memory_bytes: u64,
        /// Statistics of the completed frontier search.
        stats: SearchStats,
    },
}

impl SearchOutcome {
    /// The stats of whichever variant this is.
    pub(crate) fn stats_mut(&mut self) -> &mut SearchStats {
        match self {
            SearchOutcome::Found(r) => &mut r.stats,
            SearchOutcome::Oom { stats, .. }
            | SearchOutcome::Timeout { stats }
            | SearchOutcome::Infeasible { stats, .. } => stats,
        }
    }

    /// The result if the search completed.
    pub fn found(&self) -> Option<&SearchResult> {
        match self {
            SearchOutcome::Found(r) => Some(r),
            _ => None,
        }
    }

    /// Unwrap the successful result, panicking otherwise.
    pub fn expect_found(self, msg: &str) -> SearchResult {
        match self {
            SearchOutcome::Found(r) => r,
            SearchOutcome::Oom { needed_entries, .. } => {
                panic!("{msg}: search OOMed (needed {needed_entries} entries)")
            }
            SearchOutcome::Timeout { stats } => {
                panic!("{msg}: search timed out after {:?}", stats.elapsed)
            }
            SearchOutcome::Infeasible {
                min_memory_bytes, ..
            } => {
                panic!("{msg}: no strategy fits the memory budget (min {min_memory_bytes} B)")
            }
        }
    }

    /// The statistics regardless of outcome.
    pub fn stats(&self) -> &SearchStats {
        match self {
            SearchOutcome::Found(r) => &r.stats,
            SearchOutcome::Oom { stats, .. } => stats,
            SearchOutcome::Timeout { stats } => stats,
            SearchOutcome::Infeasible { stats, .. } => stats,
        }
    }

    /// Short tag for report tables: `ok`, `OOM`, `timeout`, or
    /// `infeasible`.
    pub fn tag(&self) -> &'static str {
        match self {
            SearchOutcome::Found(_) => "ok",
            SearchOutcome::Oom { .. } => "OOM",
            SearchOutcome::Timeout { .. } => "timeout",
            SearchOutcome::Infeasible { .. } => "infeasible",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_generous() {
        let b = SearchBudget::default();
        assert!(b.max_table_entries >= 1 << 20);
        assert!(b.max_time >= Duration::from_secs(60));
    }

    #[test]
    fn entry_size_comes_from_the_real_types() {
        // The DP fill allocates a Vec<f64> and a Vec<u16> per table; the
        // budget constant must track those types, not a hand-written guess.
        assert_eq!(DP_ENTRY_BYTES, 10);
        // Default cap: 2^28 entries × 10 B = 2.5 GiB.
        let b = SearchBudget::default();
        assert_eq!(b.max_table_bytes(), (1u64 << 28) * 10);
        assert_eq!(b.max_table_bytes(), 2_684_354_560); // 2.5 GiB exactly
    }

    #[test]
    fn byte_budget_rounds_down_to_whole_entries() {
        let b = SearchBudget::with_max_bytes(105);
        assert_eq!(b.max_table_entries, 10);
        assert_eq!(b.max_table_bytes(), 100);
        assert_eq!(b.max_time, SearchBudget::default().max_time);
    }

    #[test]
    fn sub_entry_byte_budget_clamps_to_one_entry() {
        // Regression: bytes < DP_ENTRY_BYTES used to truncate to a
        // 0-entry budget, so every search instantly reported Oom. The
        // caller asked for "as little memory as possible", not "none".
        for bytes in [0u64, 1, DP_ENTRY_BYTES - 1] {
            let b = SearchBudget::with_max_bytes(bytes);
            assert_eq!(b.max_table_entries, 1, "bytes = {bytes}");
        }
        // At exactly one entry and beyond, the rounding is unchanged.
        assert_eq!(
            SearchBudget::with_max_bytes(DP_ENTRY_BYTES).max_table_entries,
            1
        );
        assert_eq!(
            SearchBudget::with_max_bytes(2 * DP_ENTRY_BYTES + 3).max_table_entries,
            2
        );
    }

    #[test]
    fn outcome_accessors() {
        let r = SearchResult {
            cost: 1.0,
            config_ids: vec![0],
            stats: SearchStats::default(),
        };
        let found = SearchOutcome::Found(r);
        assert!(found.found().is_some());
        assert_eq!(found.tag(), "ok");
        let oom = SearchOutcome::Oom {
            needed_entries: 9,
            stats: SearchStats::default(),
        };
        assert!(oom.found().is_none());
        assert_eq!(oom.tag(), "OOM");
        let to = SearchOutcome::Timeout {
            stats: SearchStats::default(),
        };
        assert_eq!(to.tag(), "timeout");
    }

    #[test]
    #[should_panic(expected = "search OOMed")]
    fn expect_found_panics_on_oom() {
        SearchOutcome::Oom {
            needed_entries: 1,
            stats: SearchStats::default(),
        }
        .expect_found("test");
    }
}
