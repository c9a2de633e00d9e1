//! A/B wall-clock smoke job for the search hot paths.
//!
//! For each benchmark model and each `p ∈ {8, 32, 64}` (the regime where
//! dominance pruning starts to pay), times:
//!
//! * cost-table construction, baseline (no interning, sequential fill) vs
//!   optimized (structural interning + parallel fill);
//! * the dominance-pruning pass itself, with its K reduction — reported as
//!   the total configuration-space size `Σ_v |C(v)|` (`k_before`/`k_after`;
//!   each DP position's work is a product of per-node K's, so the sum is
//!   the aggregate that pruning shrinks) plus the per-node maximum
//!   (`max_k_before`/`max_k_after`, which repetition-free conv stacks can
//!   keep unchanged even when thousands of configs are removed elsewhere);
//! * the full DP, unpruned vs pruned (identical optimum — asserted here —
//!   but the pruned tables shrink every dependent-set table
//!   multiplicatively);
//! * the DP table fill alone, single-threaded: the scalar reference loop
//!   ([`reference::scalar_search`], its sequential-fill span) vs the tiled
//!   kernel (the sum of the wavefront spans of a traced run on a 1-thread
//!   rayon pool), as `dp_fill_scalar_s` / `dp_fill_tiled_s` — scheduling
//!   noise is excluded and the loops are compared core-for-core. The
//!   tiled kernel's speedup on the two biggest cells is asserted, and both
//!   must agree on the optimum bit-for-bit;
//! * the Pareto-frontier DP fill, the incremental reference loop
//!   ([`reference::frontier`]) vs the run-blocked microkernel
//!   (`dp_fill_frontier_s` / `dp_fill_frontier_tiled_s`, the same
//!   single-threaded spans). Every cell asserts the min-time point of both
//!   frontiers is bit-identical to the scalar optimum, and the microkernel
//!   must be ≥5× faster than the incremental fill on the two biggest
//!   cells; the traced microkernel run's `SearchReport` is emitted per
//!   cell as `frontier_report`.
//!
//! * the whole search end to end (`end_to_end_s`), as `pase search` runs
//!   it: graph build, cost tables, the exact prune, the DP fill and the
//!   backtrack — so each layer above can be read against the request it
//!   is part of.
//!
//! Medians are written to `BENCH_search.json`. Mirrors the criterion
//! benches but runs in seconds, so it can gate a PR.

use pase_core::{reference, Search, SearchReport, DP_ENTRY_BYTES};
use pase_cost::{
    ConfigRule, CostTables, DeviceMesh, MachineSpec, PruneOptions, PrunedTables, TableOptions,
};
use pase_models::Benchmark;
use pase_obs::{phase, Trace};
use std::fmt::Write as _;
use std::time::Instant;

const PS: [u32; 3] = [8, 32, 64];

/// The per-state frontier width the frontier engine uses by default.
const FRONTIER_WIDTH: usize = 8;

/// Fewer samples at larger `p` keeps the whole job in smoke-test range.
fn samples_for(p: u32) -> usize {
    match p {
        0..=8 => 10,
        9..=32 => 5,
        _ => 3,
    }
}

/// Median wall-clock seconds of `samples` runs of `f`.
fn median_secs<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            let out = f();
            let dt = t0.elapsed().as_secs_f64();
            drop(out);
            dt
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median of `samples` values of `f` (for measurements that are not plain
/// wall-clock, e.g. a traced span's duration).
fn median_of(samples: usize, mut f: impl FnMut() -> f64) -> f64 {
    median((0..samples).map(|_| f()).collect())
}

fn median(mut vals: Vec<f64>) -> f64 {
    vals.sort_by(f64::total_cmp);
    vals[vals.len() / 2]
}

fn main() {
    let machine = MachineSpec::gtx1080ti();
    // The baseline build is uninterned and runs on one thread.
    let baseline_tables = TableOptions {
        intern_min_nodes: usize::MAX,
    };
    let optimized_tables = TableOptions::default();
    let single_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool");

    let mut json = String::from("{\n  \"models\": {\n");
    // How many cells the two-tier cluster mesh moved away from the flat
    // optimum (cost bits or chosen strategy) — at least one must, or the
    // topology-aware model is not actually being exercised.
    let mut mesh_diverged = 0usize;
    let mut mesh_moved_strategy = 0usize;
    let all = Benchmark::all();
    for (i, bench) in all.iter().enumerate() {
        let _ = writeln!(json, "    \"{}\": {{", bench.name());
        for (pi, &p) in PS.iter().enumerate() {
            let samples = samples_for(p);
            let g = bench.build_for(p);
            let rule = ConfigRule::new(p);

            let build_base = median_secs(samples, || {
                single_thread
                    .install(|| CostTables::build_with(&g, rule, &machine, &baseline_tables))
            });
            let build_opt = median_secs(samples, || {
                CostTables::build_with(&g, rule, &machine, &optimized_tables)
            });

            let tables = CostTables::build_with(&g, rule, &machine, &optimized_tables);
            let prune_s = median_secs(samples, || {
                PrunedTables::build(&g, &tables, &PruneOptions::default())
            });
            let pruned = PrunedTables::build(&g, &tables, &PruneOptions::default());
            let ps = *pruned.stats();

            let end_to_end = median_secs(samples, || {
                let g = bench.build_for(p);
                Search::new(&g)
                    .devices(p)
                    .machine(machine.clone())
                    .pruning(PruneOptions::default())
                    .run()
                    .expect_found(bench.name())
                    .cost
            });

            let search_plain = median_secs(samples, || Search::new(&g).tables(&tables).run());
            let search_pruned =
                median_secs(samples, || Search::new(&g).tables(pruned.tables()).run());

            // Kernel A/B: the fill spans of a single-threaded traced run
            // (the oracle's sequential-fill span, the production driver's
            // wavefront spans on a 1-thread pool) isolate the table-fill
            // inner loop from rayon scheduling, so the scalar reference
            // loop vs the tiled kernel is a core-for-core comparison. The
            // big p=64 cells are slow single-threaded — keep samples low.
            let fill_samples = samples.min(3);
            let fill_span = |trace: &Trace| {
                trace
                    .span_time_where(|n| n == phase::SEQUENTIAL_FILL || phase::is_wavefront(n))
                    .as_secs_f64()
            };
            let mut scalar_cost = f64::NAN;
            let fill_scalar = median_of(fill_samples, || {
                let trace = Trace::new();
                scalar_cost = reference::scalar_search(&g, &tables, Some(&trace)).cost;
                fill_span(&trace)
            });
            let mut tiled_cost = f64::NAN;
            let fill_tiled = median_of(fill_samples, || {
                let trace = Trace::new();
                tiled_cost = single_thread.install(|| {
                    Search::new(&g)
                        .tables(&tables)
                        .trace(&trace)
                        .run()
                        .expect_found(bench.name())
                        .cost
                });
                fill_span(&trace)
            });
            assert_eq!(
                scalar_cost.to_bits(),
                tiled_cost.to_bits(),
                "{} p={p}: tiled optimum {tiled_cost} != scalar {scalar_cost}",
                bench.name()
            );
            // Acceptance floor for the microkernel on the two biggest
            // cells (the rest are too fast for a stable ratio).
            if p == 64 && matches!(bench, Benchmark::InceptionV3 | Benchmark::Transformer) {
                assert!(
                    fill_tiled * 3.0 <= fill_scalar,
                    "{} p={p}: tiled fill {fill_tiled:.4}s not >=3x faster than scalar {fill_scalar:.4}s",
                    bench.name()
                );
            }

            // Frontier A/B: the same single-threaded fill spans with the
            // Pareto DP on, once through the incremental reference
            // loop and once through the run-blocked microkernel. Both
            // frontiers' min-time point must stay bit-identical to the
            // scalar optimum (asserted on every cell of this grid), and
            // the microkernel carries a >=5x acceptance floor over the
            // incremental fill on the two biggest cells. Transformer p=64
            // sits closest to that floor, so it takes the median of three
            // fills of each, interleaved (incremental, tiled, incremental,
            // …) so that a burst of host load slows both engines rather
            // than one batch; every other cell takes one sample, as the big
            // cells are slow single-threaded under the incremental loop
            // (over a minute per fill on InceptionV3 p=64, which clears the
            // floor by a wide margin).
            let frontier_samples = if p == 64 && matches!(bench, Benchmark::Transformer) {
                3
            } else {
                1
            };
            let (mut incremental, mut outcome, mut trace) = (None, None, Trace::new());
            let (mut incremental_s, mut tiled_s) = (Vec::new(), Vec::new());
            for _ in 0..frontier_samples {
                let t = Trace::new();
                incremental = Some(reference::frontier(&g, &tables, FRONTIER_WIDTH, Some(&t)));
                incremental_s.push(fill_span(&t));
                trace = Trace::new();
                outcome = Some(single_thread.install(|| {
                    Search::new(&g)
                        .tables(&tables)
                        .frontier_width(FRONTIER_WIDTH)
                        .trace(&trace)
                        .frontier()
                        .run()
                        .into_outcome()
                }));
                tiled_s.push(fill_span(&trace));
            }
            let (dp_fill_frontier_s, dp_fill_frontier_tiled_s) =
                (median(incremental_s), median(tiled_s));
            let incremental = incremental.expect("at least one frontier sample");
            let outcome = outcome.expect("at least one frontier sample");
            let frontier_report = SearchReport::new(bench.name(), p, &outcome, Some(&trace));
            assert_eq!(frontier_report.stats.dp_kernel, "frontier-tiled");
            for (engine, cost) in [
                ("incremental", incremental.min_time().cost),
                (
                    "tiled",
                    outcome
                        .found()
                        .unwrap_or_else(|| panic!("{}", bench.name()))
                        .cost,
                ),
            ] {
                assert_eq!(
                    cost.to_bits(),
                    scalar_cost.to_bits(),
                    "{} p={p}: frontier ({engine}) min-time {cost} != scalar optimum {scalar_cost}",
                    bench.name()
                );
            }
            let frontier_len = frontier_report.stats.frontier_len;
            // Acceptance floor for the frontier microkernel on the two
            // biggest cells.
            if p == 64 && matches!(bench, Benchmark::InceptionV3 | Benchmark::Transformer) {
                assert!(
                    dp_fill_frontier_tiled_s * 5.0 <= dp_fill_frontier_s,
                    "{} p={p}: tiled frontier fill {dp_fill_frontier_tiled_s:.4}s not >=5x \
                     faster than incremental {dp_fill_frontier_s:.4}s",
                    bench.name()
                );
            }

            // Exactness gate: the pruned optimum must be bit-identical.
            // The pruned run is traced so the cell's search report carries
            // a per-phase wall-time breakdown.
            let plain_cost = Search::new(&g)
                .tables(&tables)
                .run()
                .expect_found(bench.name())
                .cost;
            let trace = Trace::new();
            let pruned_outcome = Search::new(&g)
                .tables(&tables)
                .pruning(PruneOptions::default())
                .trace(&trace)
                .run()
                .into_outcome();
            let pruned_cost = pruned_outcome
                .found()
                .unwrap_or_else(|| panic!("{}", bench.name()))
                .cost;
            assert_eq!(
                plain_cost.to_bits(),
                pruned_cost.to_bits(),
                "{} p={p}: pruned optimum {pruned_cost} != unpruned {plain_cost}",
                bench.name()
            );
            let report = SearchReport::new(bench.name(), p, &pruned_outcome, Some(&trace));
            // Children's costs are freed once their parent is filled, so
            // the live peak stays below every allocated entry's bytes.
            assert!(
                report.stats.peak_table_bytes < report.stats.table_entries * DP_ENTRY_BYTES,
                "{} p={p}: peak table bytes {} not below the {} entries' {} B",
                bench.name(),
                report.stats.peak_table_bytes,
                report.stats.table_entries,
                report.stats.table_entries * DP_ENTRY_BYTES
            );

            // Mesh sweep: the same cell planned on its explicit flat mesh
            // (must stay bit-identical to the scalar tables — the
            // tentpole's parity anchor, asserted on every cell of this
            // grid) and on the paper's two-tier testbed mesh (8 devices
            // per node over the slower inter-node fabric), which may move
            // the optimum.
            let flat_best = Search::new(&g)
                .tables(&CostTables::build_mesh(
                    &g,
                    rule,
                    &DeviceMesh::flat(&machine),
                    &optimized_tables,
                    None,
                ))
                .run()
                .expect_found(bench.name());
            assert_eq!(
                flat_best.cost.to_bits(),
                plain_cost.to_bits(),
                "{} p={p}: flat mesh optimum {} != scalar optimum {plain_cost}",
                bench.name(),
                flat_best.cost
            );
            let tiered = DeviceMesh::cluster(&machine, (p / 8).max(1), p.min(8));
            let t0 = Instant::now();
            let tiered_best = Search::new(&g)
                .tables(&CostTables::build_mesh(
                    &g,
                    rule,
                    &tiered,
                    &optimized_tables,
                    None,
                ))
                .run()
                .expect_found(bench.name());
            let mesh_tiered_s = t0.elapsed().as_secs_f64();
            assert!(
                tiered_best.cost >= flat_best.cost,
                "{} p={p}: a slower inter-node fabric cannot make the optimum cheaper \
                 (flat {}, tiered {})",
                bench.name(),
                flat_best.cost,
                tiered_best.cost
            );
            let strategy_moved = tiered_best.config_ids != flat_best.config_ids;
            let cell_diverged =
                strategy_moved || tiered_best.cost.to_bits() != flat_best.cost.to_bits();
            mesh_diverged += usize::from(cell_diverged);
            mesh_moved_strategy += usize::from(strategy_moved);

            let hit = tables.intern_stats().hit_rate_opt();
            let hit_pct = hit.map_or_else(|| "n/a".to_string(), |h| format!("{:.0}%", h * 100.0));
            println!(
                "{:<12} p={:<3} end_to_end {:.2}ms   cost_tables {:.2}ms -> {:.2}ms ({:.2}x)   prune {:.2}ms ΣK {} -> {} (max {} -> {})   search {:.2}ms -> {:.2}ms ({:.2}x)   dp_fill(1t) scalar {:.2}ms -> tiled {:.2}ms ({:.2}x)   frontier {:.2}ms -> tiled {:.2}ms ({:.2}x, {} points)   mesh flat {:.4e} -> tiered {:.4e}{}   intern hit {}",
                bench.name(),
                p,
                end_to_end * 1e3,
                build_base * 1e3,
                build_opt * 1e3,
                build_base / build_opt.max(1e-12),
                prune_s * 1e3,
                ps.configs_before,
                ps.configs_after,
                ps.k_before,
                ps.k_after,
                search_plain * 1e3,
                search_pruned * 1e3,
                search_plain / search_pruned.max(1e-12),
                fill_scalar * 1e3,
                fill_tiled * 1e3,
                fill_scalar / fill_tiled.max(1e-12),
                dp_fill_frontier_s * 1e3,
                dp_fill_frontier_tiled_s * 1e3,
                dp_fill_frontier_s / dp_fill_frontier_tiled_s.max(1e-12),
                frontier_len,
                flat_best.cost,
                tiered_best.cost,
                if strategy_moved {
                    " (strategy moved)"
                } else if cell_diverged {
                    " (cost moved)"
                } else {
                    ""
                },
                hit_pct
            );

            let hit_json = hit.map_or_else(|| "null".to_string(), |h| format!("{h:.4}"));
            let _ = write!(
                json,
                "      \"p{p}\": {{\n        \"samples\": {samples},\n        \"cost_tables\": {{\"baseline_s\": {:.6}, \"optimized_s\": {:.6}}},\n        \"prune\": {{\"prune_s\": {:.6}, \"k_before\": {}, \"k_after\": {}, \"max_k_before\": {}, \"max_k_after\": {}}},\n        \"search\": {{\"unpruned_s\": {:.6}, \"pruned_s\": {:.6}, \"end_to_end_s\": {end_to_end:.6}}},\n        \"dp_fill\": {{\"dp_fill_scalar_s\": {:.6}, \"dp_fill_tiled_s\": {:.6}, \"dp_fill_frontier_s\": {dp_fill_frontier_s:.6}, \"dp_fill_frontier_tiled_s\": {dp_fill_frontier_tiled_s:.6}}},\n        \"frontier_len\": {frontier_len},\n        \"frontier_report\": {},\n        \"mesh\": {{\"flat_cost\": {}, \"tiered_cost\": {}, \"tiered_axes\": {}, \"tiered_s\": {mesh_tiered_s:.6}, \"diverged\": {cell_diverged}, \"strategy_moved\": {strategy_moved}}},\n        \"intern_hit_rate\": {hit_json},\n        \"search_report\": {}\n      }}{}\n",
                build_base,
                build_opt,
                prune_s,
                ps.configs_before,
                ps.configs_after,
                ps.k_before,
                ps.k_after,
                search_plain,
                search_pruned,
                fill_scalar,
                fill_tiled,
                frontier_report.to_json(),
                flat_best.cost,
                tiered_best.cost,
                tiered.axes.len(),
                report.to_json(),
                if pi + 1 < PS.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "    }}{}", if i + 1 < all.len() { "," } else { "" });
    }
    assert!(
        mesh_diverged >= 1,
        "no two-tier mesh cell moved the optimum away from flat — the \
         topology-aware cost model is not being exercised"
    );
    let _ = write!(
        json,
        "  }},\n  \"mesh_cells_diverged\": {mesh_diverged},\n  \
         \"mesh_cells_strategy_moved\": {mesh_moved_strategy}\n}}\n"
    );
    std::fs::write("BENCH_search.json", &json).expect("write BENCH_search.json");
    println!(
        "wrote BENCH_search.json ({mesh_diverged}/12 tiered-mesh cells diverged from flat, \
         {mesh_moved_strategy} moved the strategy)"
    );
}
