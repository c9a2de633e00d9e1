//! # pase-bench — experiment harness (PaSE §IV reproduction)
//!
//! Shared plumbing for the reproduction binaries:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table I — search time of BF / FlexFlow-MCMC / PaSE |
//! | `table2` | Table II — best strategies found at p = 32 |
//! | `figure5` | Fig. 5 + §III-C — InceptionV3 graph structure & dependent sets |
//! | `figure6` | Fig. 6 — simulated speedup over data parallelism |
//! | `ablation` | §V limitation study + design-choice ablations |
//!
//! This library provides the strategy *sources* every binary compares —
//! data parallelism, the per-benchmark expert, the FlexFlow-style MCMC
//! (driven by the execution simulator, mirroring FlexFlow's
//! simulator-in-the-loop architecture), and PaSE's DP search — plus output
//! formatting helpers.

#![warn(missing_docs)]

use pase_baselines::{
    data_parallel, gnmt_expert, mcmc_search, mesh_tf_expert, owt, CostOracle, McmcOptions,
    McmcResult,
};
use pase_core::{Search, SearchOutcome};
use pase_cost::{
    ConfigRule, ConfigSpace, CostTables, DeviceMesh, MachineSpec, Strategy, TableOptions,
};
use pase_graph::{Graph, NodeId};
use pase_models::Benchmark;
use pase_sim::{simulate_step, SimOptions, Topology};
use std::time::Duration;

/// Format a duration like the paper's Table I (`mins:secs.msecs`).
pub fn fmt_mins(d: Duration) -> String {
    let total_ms = d.as_millis();
    let mins = total_ms / 60_000;
    let secs = (total_ms % 60_000) / 1000;
    let ms = total_ms % 1000;
    format!("{mins}:{secs:02}.{ms:03}")
}

/// Build the standard cost tables for a benchmark graph (power-of-two
/// splits, all `p` devices used).
pub fn standard_tables(graph: &Graph, p: u32, machine: &MachineSpec) -> CostTables {
    CostTables::build(graph, ConfigRule::new(p), machine)
}

/// The configuration space [`standard_tables`] enumerates, hoisted out so
/// sweeps can share one enumeration across several machine profiles or
/// repeated data points (see [`standard_tables_with_space`]).
pub fn standard_space(graph: &Graph, p: u32) -> ConfigSpace {
    ConfigSpace::build(graph, &ConfigRule::new(p))
}

/// [`standard_tables`] over a pre-enumerated [`standard_space`]: identical
/// tables, minus the redundant per-call `enumerate_configs` pass.
pub fn standard_tables_with_space(
    graph: &Graph,
    p: u32,
    machine: &MachineSpec,
    space: &ConfigSpace,
) -> CostTables {
    CostTables::build_mesh_with_space(
        graph,
        ConfigRule::new(p),
        &DeviceMesh::flat(machine),
        space,
        &TableOptions::default(),
    )
}

/// Build the *relaxed* configuration space the MCMC search explores
/// (`∏ c_i ≤ p`: FlexFlow's space includes idle-device configurations and
/// the expert seeds need them). A plain enumeration without cost matrices —
/// the simulator oracle scores whole strategies directly.
pub fn relaxed_space(graph: &Graph, p: u32) -> ConfigSpace {
    ConfigSpace::build(graph, &ConfigRule::new(p).allow_idle())
}

/// The expert-designed strategy the paper compares against for each
/// benchmark (§IV): OWT for the CNNs, GNMT data+pipeline for RNNLM,
/// Mesh-TensorFlow hybrid for Transformer.
pub fn expert_strategy(bench: Benchmark, graph: &Graph, p: u32) -> Strategy {
    match bench {
        Benchmark::AlexNet | Benchmark::InceptionV3 => owt(graph, p),
        Benchmark::Rnnlm => gnmt_expert(graph, p),
        Benchmark::Transformer => mesh_tf_expert(graph, p),
    }
}

/// Run PaSE's FindBestStrategy with the default search knobs and return
/// the outcome together with the extracted [`Strategy`] when it completed.
pub fn pase_strategy(graph: &Graph, tables: &CostTables) -> (SearchOutcome, Option<Strategy>) {
    let run = Search::new(graph).tables(tables).run();
    let strategy = run
        .outcome()
        .found()
        .map(|r| tables.ids_to_strategy(&r.config_ids));
    (run.into_outcome(), strategy)
}

/// A cost oracle that scores candidate strategies by *simulating* a
/// training step — the architecture of FlexFlow's MCMC, whose inner loop
/// queries an execution simulator calibrated by device microbenchmarks.
pub struct SimOracle<'a> {
    graph: &'a Graph,
    space: &'a ConfigSpace,
    topology: &'a Topology,
    opts: SimOptions,
}

impl<'a> SimOracle<'a> {
    /// Wrap a graph, its (relaxed) configuration space, and a topology.
    pub fn new(graph: &'a Graph, space: &'a ConfigSpace, topology: &'a Topology) -> Self {
        Self {
            graph,
            space,
            topology,
            opts: SimOptions::default(),
        }
    }
}

impl CostOracle for SimOracle<'_> {
    fn full_cost(&self, ids: &[u16]) -> f64 {
        let strategy = self.space.ids_to_strategy(ids);
        simulate_step(self.graph, &strategy, self.topology, &self.opts).step_seconds
    }
}

/// Result of the FlexFlow-style search: the best strategy plus the raw
/// MCMC statistics.
pub struct FlexFlowResult {
    /// Best strategy discovered.
    pub strategy: Strategy,
    /// Underlying MCMC result (iterations, acceptance, elapsed time).
    pub mcmc: McmcResult,
}

/// Run the FlexFlow-style MCMC baseline: relaxed configuration space,
/// simulator-in-the-loop oracle, seeded with the benchmark's expert
/// strategy, stopped by the paper's half-time / iteration-cap rule.
pub fn flexflow_strategy(
    bench: Benchmark,
    graph: &Graph,
    space: &ConfigSpace,
    topology: &Topology,
    opts: &McmcOptions,
) -> FlexFlowResult {
    let p = topology.devices();
    let expert = expert_strategy(bench, graph, p);
    let init = space
        .strategy_to_ids(&expert)
        .unwrap_or_else(|| vec![0u16; graph.len()]);
    let k: Vec<usize> = graph.node_ids().map(|v| space.k(v)).collect();
    let oracle = SimOracle::new(graph, space, topology);
    let mcmc = mcmc_search(graph, &k, &oracle, init, opts);
    FlexFlowResult {
        strategy: space.ids_to_strategy(&mcmc.best_ids),
        mcmc,
    }
}

/// Compress a per-layer strategy report by merging consecutive layers with
/// identical `(op, dims, configuration)` rows — Table II reports
/// "Conv 1-4" style ranges.
pub fn compressed_report(graph: &Graph, strategy: &Strategy) -> Vec<(String, String, String)> {
    let mut rows: Vec<(String, String, String)> = Vec::new();
    let mut run: Option<(usize, usize, String, String)> = None; // (first, last, key, dims)
    let flush = |run: &Option<(usize, usize, String, String)>,
                 rows: &mut Vec<(String, String, String)>,
                 graph: &Graph| {
        if let Some((first, last, key, dims)) = run {
            let name = if first == last {
                graph.node(NodeId(*first as u32)).name.clone()
            } else {
                format!(
                    "{} … {}",
                    graph.node(NodeId(*first as u32)).name,
                    graph.node(NodeId(*last as u32)).name
                )
            };
            rows.push((name, dims.clone(), key.clone()));
        }
    };
    for (id, node) in graph.iter() {
        let cfg = format!("{}", strategy.config(id));
        let key = format!("{}|{}", node.op.tag(), cfg);
        match &mut run {
            Some((_, last, k, _)) if *k == key && *last + 1 == id.index() => {
                *last = id.index();
            }
            _ => {
                flush(&run, &mut rows, graph);
                run = Some((id.index(), id.index(), key, node.dims_string()));
            }
        }
    }
    flush(&run, &mut rows, graph);
    rows.into_iter()
        .map(|(name, dims, key)| {
            let cfg = key.split('|').nth(1).unwrap_or("").to_string();
            (name, dims, cfg)
        })
        .collect()
}

/// Per-benchmark data-parallel baseline (used as Fig. 6's denominator).
pub fn dp_strategy(graph: &Graph, p: u32) -> Strategy {
    data_parallel(graph, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pase_models::Benchmark;

    #[test]
    fn fmt_mins_matches_paper_format() {
        assert_eq!(fmt_mins(Duration::from_millis(226)), "0:00.226");
        assert_eq!(fmt_mins(Duration::from_millis(86_039)), "1:26.039");
        assert_eq!(fmt_mins(Duration::from_secs(37 * 60 + 17)), "37:17.000");
    }

    #[test]
    fn expert_strategies_cover_all_benchmarks() {
        for b in Benchmark::all() {
            let g = b.build_tiny();
            let s = expert_strategy(b, &g, 4);
            assert_eq!(s.len(), g.len());
        }
    }

    #[test]
    fn compressed_report_merges_runs() {
        let g = Benchmark::AlexNet.build();
        let s = dp_strategy(&g, 8);
        let rows = compressed_report(&g, &s);
        // conv1..pool* all share (op-dependent) configs; at minimum the
        // report is shorter than the full layer list.
        assert!(rows.len() < g.len());
        assert!(rows.iter().any(|(name, _, _)| name.contains('…')));
    }

    #[test]
    fn flexflow_runs_end_to_end_on_tiny_model() {
        let b = Benchmark::Rnnlm;
        let g = b.build_tiny();
        let machine = MachineSpec::test_machine();
        let space = relaxed_space(&g, 4);
        let topo = Topology::cluster(machine, 4).unwrap();
        let res = flexflow_strategy(
            b,
            &g,
            &space,
            &topo,
            &McmcOptions {
                max_iters: 500,
                half_time_rule: false,
                ..Default::default()
            },
        );
        assert_eq!(res.strategy.len(), g.len());
        assert!(res.mcmc.iters <= 500);
    }

    #[test]
    fn pase_strategy_returns_extracted_strategy() {
        let g = Benchmark::AlexNet.build_tiny();
        let tables = standard_tables(&g, 4, &MachineSpec::test_machine());
        let (outcome, strategy) = pase_strategy(&g, &tables);
        assert!(outcome.found().is_some());
        assert_eq!(strategy.unwrap().len(), g.len());
    }
}
