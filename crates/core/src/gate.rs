//! The adaptive prune gate.
//!
//! Dominance pruning (PR 2) shrinks the DP's per-vertex configuration count
//! `K` multiplicatively, but its own cost is *fixed*: every distinct pruning
//! signature pays an `O(K²·Σ edge-row length)` dominance scan whether or not
//! the DP afterwards is expensive. On small searches (AlexNet at p ≤ 32) the
//! scan costs more than the entire unpruned DP fill — a measured net loss in
//! `BENCH_search.json` — while on large ones (Transformer at p = 64) it pays
//! for itself many times over.
//!
//! [`PruneGate::Auto`] resolves the tradeoff per search: it estimates the
//! DP fill work from the vertex structure (`Σ_i k(v_i)·∏_{w∈D(i)} k(w)` —
//! exactly the `states_evaluated` the DP would report) and the prune pass
//! work from the distinct pruning signatures
//! ([`pase_cost::estimate_prune_work`]), and runs the prune only when the
//! predicted DP work is large enough for the multiplicative `K` reduction to
//! plausibly recoup the fixed scan cost. Both estimates and the decision are
//! recorded in [`crate::SearchStats`] (`gate_dp_est`, `gate_prune_est`,
//! `prune_skipped`) so the gate is observable and tunable.
//!
//! The gate only ever changes *when pruning runs*, never *what the search
//! returns*: exact (ε = 0) pruning is bit-identical to no pruning, so every
//! gate mode yields the same optimum (asserted by the gate parity tests).

use crate::structure::VertexStructure;
use pase_cost::CostTables;

/// When to run dominance pruning before the DP (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PruneGate {
    /// Always prune when prune options were supplied (the historical
    /// behavior; the builder default).
    #[default]
    On,
    /// Never prune, even when prune options were supplied.
    Off,
    /// Estimate DP work vs. prune work and prune only when the DP is
    /// predicted to be expensive enough for pruning to pay off.
    Auto,
}

impl PruneGate {
    /// Parse a CLI/wire value (`"auto"`, `"on"`, `"off"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(PruneGate::Auto),
            "on" => Some(PruneGate::On),
            "off" => Some(PruneGate::Off),
            _ => None,
        }
    }

    /// The CLI/wire spelling of this mode.
    pub fn as_str(self) -> &'static str {
        match self {
            PruneGate::Auto => "auto",
            PruneGate::On => "on",
            PruneGate::Off => "off",
        }
    }
}

/// Above this predicted DP state count, prune unconditionally: at the
/// measured throughput of the scalar loop (~1.5 × 10⁸ states/s in
/// `BENCH_search.json`; today the [`crate::reference`] oracle) 10⁸ states
/// is ≈ 0.7 s of unpruned fill, where even a few-percent `K` reduction
/// repays the prune's fixed cost many times over regardless of the work
/// ratio. Calibrated between InceptionV3 p = 32 (5.7 × 10⁷ states,
/// measured −1.8 ms marginal loss when pruned) and InceptionV3 p = 64
/// (1.8 × 10⁸ states, measured +64 ms win).
///
/// The tiled kernel ([`crate::kernel`]), the only production fill, raises
/// fill throughput several-fold, which *shrinks* the absolute DP time this
/// threshold stands for — but it speeds up the pruned and unpruned fill
/// alike, so the crossover is governed by the prune pass's fixed cost vs.
/// the DP *reduction*, and the measured decisions in
/// `gate_decisions_match_measured_crossover_on_paper_benchmarks` still
/// hold against the tiled-kernel columns of `BENCH_search.json`. Keeping
/// the scalar-calibrated threshold is therefore conservative (it only errs
/// toward skipping a cheap prune on mid-size searches).
const GATE_DP_ALWAYS: u64 = 100_000_000;

/// Estimate the DP fill work on the *unpruned* tables: the exact
/// `states_evaluated` the DP would report, `Σ_i k(v_i)·∏_{w∈D(i)} k(w)`,
/// saturating instead of overflowing on search spaces the budget would
/// reject anyway.
pub(crate) fn estimate_dp_work(structure: &VertexStructure, tables: &CostTables) -> u64 {
    let mut total: u64 = 0;
    for i in 0..structure.order().len() {
        let mut size: u64 = 1;
        for &w in structure.dependent_set(i) {
            size = size.saturating_mul(tables.k(w) as u64);
        }
        let kv = tables.k(structure.vertex(i)) as u64;
        total = total.saturating_add(size.saturating_mul(kv));
    }
    total
}

/// The gate decision: prune iff the predicted DP work exceeds the
/// predicted prune work, or the DP is predicted huge ([`GATE_DP_ALWAYS`]).
///
/// Per `BENCH_search.json` a DP state evaluation costs ~50 prune
/// comparisons (AlexNet p = 32: 1.1 × 10⁷ comparisons in 1.5 ms vs
/// 5.6 × 10⁴ states in 0.41 ms), so `dp_est > prune_est` demands the prune
/// reduce DP work by only ~2% to break even — exactly the measured
/// crossover: every net-loss cell (AlexNet and RNNLM at all p, where the
/// estimate ratio is ≤ 0.02, and InceptionV3 p ∈ {8, 32} at ~0.45) sits
/// below it, and every clear win (Transformer at all p, ratio ≥ 1.28)
/// above it, with the [`GATE_DP_ALWAYS`] term catching InceptionV3
/// p = 64's big-DP win (ratio 0.39 but 64 ms net gain).
pub(crate) fn prune_pays_off(dp_est: u64, prune_est: u64) -> bool {
    dp_est > prune_est || dp_est >= GATE_DP_ALWAYS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for mode in [PruneGate::Auto, PruneGate::On, PruneGate::Off] {
            assert_eq!(PruneGate::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(PruneGate::parse("maybe"), None);
        assert_eq!(PruneGate::default(), PruneGate::On);
    }

    #[test]
    fn decision_is_monotone_in_dp_work() {
        // Tiny DP, any prune cost: skip.
        assert!(!prune_pays_off(100, 100));
        // Huge DP, small prune cost: prune.
        assert!(prune_pays_off(1_000_000, 100));
        // Monotone: more predicted DP work never turns pruning off.
        let mut prev = false;
        for dp in [0u64, 10, 1_000, 100_000, 10_000_000] {
            let now = prune_pays_off(dp, 1_000);
            assert!(now || !prev, "gate flipped back off as dp work grew");
            prev = now;
        }
    }

    #[test]
    fn saturating_estimates_do_not_wrap() {
        // u64::MAX-level DP estimates must stay MAX-ish, not wrap to small.
        assert!(prune_pays_off(u64::MAX, 1));
    }

    /// The calibration the threshold was chosen against (run with
    /// `--nocapture` to see the estimator values): on the paper benchmarks
    /// the gate must skip the AlexNet cells where `BENCH_search.json`
    /// measured pruning as a net loss (prune time ≥ whole unpruned DP
    /// fill) and keep it where the pruned DP win is large (Transformer
    /// p = 64, InceptionV3 p ∈ {32, 64}).
    #[test]
    fn gate_decisions_match_measured_crossover_on_paper_benchmarks() {
        use crate::ordering::{make_ordering, OrderingKind};
        use crate::structure::ConnectedSetMode;
        use pase_cost::{estimate_prune_work, ConfigRule, MachineSpec};
        use pase_models::Benchmark;

        let decide = |bench: Benchmark, p: u32| -> bool {
            let graph = bench.build_for(p);
            let tables = CostTables::build(&graph, ConfigRule::new(p), &MachineSpec::gtx1080ti());
            let order = make_ordering(&graph, OrderingKind::GenerateSeq);
            let structure = VertexStructure::build(&graph, &order, ConnectedSetMode::Exact);
            let dp = estimate_dp_work(&structure, &tables);
            let prune = estimate_prune_work(&graph, &tables);
            let keep = prune_pays_off(dp, prune);
            println!(
                "{:<12} p={:<3} dp_est={:<12} prune_est={:<12} prune={}",
                bench.name(),
                p,
                dp,
                prune,
                keep
            );
            keep
        };

        // Expected decision per (model, p), from the measured net win of
        // pruning in BENCH_search.json (prune_s + pruned_s vs unpruned_s):
        // AlexNet and RNNLM lose at every p, Transformer wins at every p,
        // InceptionV3 wins only at p = 64 (+64 ms; −1.8 ms at p = 32).
        let cases = [
            (Benchmark::AlexNet, [false, false, false]),
            (Benchmark::InceptionV3, [false, false, true]),
            (Benchmark::Rnnlm, [false, false, false]),
            (Benchmark::Transformer, [true, true, true]),
        ];
        for (bench, expect) in cases {
            for (p, want) in [8u32, 32, 64].into_iter().zip(expect) {
                assert_eq!(
                    decide(bench, p),
                    want,
                    "{} p={p}: gate disagrees with measured crossover",
                    bench.name()
                );
            }
        }
    }
}
