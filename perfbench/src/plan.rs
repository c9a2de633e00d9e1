//! The library workloads: `plan` (cold scalar min-time searches, as
//! `pase search` runs them) and `plan-frontier` (cold Pareto-frontier
//! searches plus a budget pick).
//!
//! Both run single-threaded, as `pase search --search-threads 1` does: on a
//! small shared machine the per-wavefront thread spawns of the parallel
//! fill measure the scheduler rather than the kernels.

use crate::oracle::{self, Answer, Expected, Recorder};
use crate::spans::{is_fill, OpSpans, Spans};
use crate::stats::{class_counts, ClassLatencies};
use crate::{Args, Layers, Measured, Report, SetupClock};
use pase_core::{PruneGate, Search, SearchReport, SearchStats};
use pase_cost::{ConfigRule, CostTables, DeviceMesh, MachineSpec, PruneOptions, TableOptions};
use pase_graph::Graph;
use pase_obs::{phase, Trace};
use std::time::{Duration, Instant};

/// The two-tier 8 × 4 cluster mesh (eight GPUs per node, four nodes).
pub const TWO_TIER_MESH: &str = r#"{"name": "twotier", "axes": [{"name": "gpu", "size": 8, "alpha": 5e-6, "bandwidth": 12.0e9, "peak_flops": 11.3e12}, {"name": "node", "size": 4, "alpha": 15e-6, "bandwidth": 6.0e9, "peak_flops": 11.3e12}]}"#;

/// One (model, p, mesh) cell. `nominal_ms` is a fixed estimate of one
/// op's cost, used only to size the op counts (see
/// [`crate::stats::class_counts`]).
pub struct Cell {
    pub model: &'static str,
    pub p: u32,
    pub two_tier: bool,
    pub nominal_ms: f64,
}

const fn cell(model: &'static str, p: u32, two_tier: bool, nominal_ms: f64) -> Cell {
    Cell {
        model,
        p,
        two_tier,
        nominal_ms,
    }
}

/// The paper's four models at p ∈ {8, 32, 64} on the flat GTX 1080 Ti
/// mesh, less InceptionV3 p64 (about 0.5 s per op: the forty samples a
/// tail needs would take most of a run), plus four zoo models at p = 32 on
/// the two-tier mesh.
pub const PLAN_CELLS: [Cell; 15] = [
    cell("alexnet", 8, false, 0.75),
    cell("alexnet", 32, false, 5.3),
    cell("alexnet", 64, false, 11.7),
    cell("inception", 8, false, 15.6),
    cell("inception", 32, false, 147.0),
    cell("rnnlm", 8, false, 0.23),
    cell("rnnlm", 32, false, 0.97),
    cell("rnnlm", 64, false, 1.95),
    cell("transformer", 8, false, 1.24),
    cell("transformer", 32, false, 9.9),
    cell("transformer", 64, false, 25.6),
    cell("resnet", 32, true, 39.0),
    cell("vgg", 32, true, 15.0),
    cell("bert", 32, true, 6.6),
    cell("gnmt", 32, true, 2.8),
];

/// Frontier cells whose single-op cost stays low enough for forty samples
/// each; InceptionV3 p32/p64 take seconds per op and are left out.
pub const FRONTIER_CELLS: [Cell; 6] = [
    cell("alexnet", 64, false, 10.5),
    cell("transformer", 8, false, 16.2),
    cell("rnnlm", 64, false, 1.7),
    cell("inception", 8, false, 294.0),
    cell("resnet", 8, false, 40.4),
    cell("bert", 8, false, 6.9),
];

impl Cell {
    pub fn label(&self) -> String {
        let mesh = if self.two_tier { "twotier" } else { "flat" };
        format!("{}/{}/{mesh}", self.model, self.p)
    }

    fn mesh(&self) -> DeviceMesh {
        if self.two_tier {
            DeviceMesh::from_json_str(TWO_TIER_MESH).expect("the built-in mesh parses")
        } else {
            DeviceMesh::flat(&MachineSpec::gtx1080ti())
        }
    }
}

/// Everything one op returns: its latency plus what the oracle and the
/// per-layer metrics need.
struct OpOut {
    latency: Duration,
    graph: Graph,
    tables: CostTables,
    cost: f64,
    ids: Vec<u16>,
    stats: SearchStats,
    frontier: Vec<oracle::Point>,
    /// `(cost, memory, ids digest)` of the budget pick, when one fits.
    pick: Option<(f64, u64, u64)>,
    min_memory: u64,
    packed_bytes: u64,
}

/// One cold op: graph build → tables → [prune] → structure → DP fill →
/// backtrack → [budget pick] → report. With `spans`, each public call
/// gets a span and the engine's phase spans are imported under `search`.
fn op(
    cell: &Cell,
    mesh: &DeviceMesh,
    frontier: bool,
    budget: u64,
    mut spans: OpSpans,
) -> Result<OpOut, String> {
    let start = Instant::now();
    let op_span = spans.open("op");

    let span = spans.open("graph_build");
    let graph = pase_models::build_named(cell.model, cell.p, false)?;
    spans.close(span);

    let span = spans.open("tables");
    let tables = CostTables::build_mesh(
        &graph,
        ConfigRule::new(cell.p),
        mesh,
        &TableOptions::default(),
        None,
    );
    spans.close(span);

    let search_span = spans.open("search");
    let t0 = spans.now();
    let trace = t0.map(|_| Trace::new());
    let mut search = Search::new(&graph).tables(&tables);
    search = if frontier {
        search.frontier()
    } else {
        search
            .pruning(PruneOptions::default())
            .prune_gate(PruneGate::On)
    };
    if let Some(t) = &trace {
        search = search.trace(t);
    }
    let run = search.run();
    spans.close(search_span);

    let (mut pick, mut min_memory, mut points) = (None, 0, Vec::new());
    if let Some(f) = run.frontier() {
        let span = spans.open("budget_select");
        let p = f.cheapest_within(budget);
        spans.close(span);
        pick = p.map(|p| (p.cost, p.memory_bytes, oracle::digest(&p.config_ids)));
        min_memory = f.min_memory_bytes();
        points = oracle::points_of(f.points());
    }

    let span = spans.open("report");
    let report = SearchReport::new(cell.model, cell.p, run.outcome(), trace.as_ref()).to_json();
    spans.close(span);
    spans.close(op_span);
    let latency = start.elapsed();
    std::hint::black_box(report);
    if let (Some(t), Some(t0)) = (&trace, t0) {
        spans.import(t, t0, search_span);
    }

    let r = run
        .result()
        .map_err(|e| format!("{}: search failed: {e}", cell.label()))?;
    let (cost, ids, stats) = (r.cost, r.config_ids.clone(), r.stats.clone());
    drop(run);
    let packed_bytes = trace.map_or(0, |t| {
        t.counters()
            .iter()
            .filter(|c| c.name == "packed_bytes")
            .map(|c| c.value)
            .max()
            .unwrap_or(0)
    });
    Ok(OpOut {
        latency,
        graph,
        tables,
        cost,
        ids,
        stats,
        frontier: points,
        pick,
        min_memory,
        packed_bytes,
    })
}

/// The oracle for one op (see [`crate::oracle`]).
fn check(
    cell: &Cell,
    out: &OpOut,
    expected: &Expected,
    budget: u64,
    frontier: bool,
) -> Result<(), String> {
    let label = cell.label();
    oracle::check_against_tables(&out.graph, &out.tables, cell.p, out.cost, &out.ids)
        .and_then(|()| {
            let scalar = expected.get(&format!("plan/{label}"))?;
            let ids = oracle::digest(&out.ids);
            if !frontier {
                return oracle::check_optimum(scalar, out.cost, ids);
            }
            let want = expected.get(&format!("frontier/{label}"))?;
            oracle::check_optimum(want, out.cost, ids)?;
            oracle::check_frontier(scalar, &out.frontier)?;
            if out.frontier != want.points {
                return Err("frontier differs from the expected one".into());
            }
            oracle::check_pick(want, budget, out.pick, out.min_memory)
        })
        .map_err(|e| format!("{label}: {e}"))
}

/// A seeded budget between the cell's memory floor and its min-time
/// point's memory (from the stored frontier, never from the answer).
fn draw_budget(want: &Answer, u: f64) -> u64 {
    let (lo, hi) = (want.min_memory(), want.top_memory());
    lo + ((hi - lo) as f64 * u) as u64
}

pub fn run(args: &Args, frontier: bool, clock: &mut SetupClock) -> Result<Report, String> {
    let cells: &[Cell] = if frontier {
        &FRONTIER_CELLS
    } else {
        &PLAN_CELLS
    };
    let expected = Expected::load()?;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    pool.install(|| run_single_threaded(args, cells, frontier, &expected, clock))
}

fn run_single_threaded(
    args: &Args,
    cells: &[Cell],
    frontier: bool,
    expected: &Expected,
    clock: &mut SetupClock,
) -> Result<Report, String> {
    let answers: Vec<Option<&Answer>> = cells
        .iter()
        .map(|c| {
            frontier
                .then(|| expected.get(&format!("frontier/{}", c.label())))
                .transpose()
        })
        .collect::<Result<_, _>>()?;
    let mut failures: Vec<String> = Vec::new();

    // Set-up: generate the op sequence and run one untimed op per class,
    // repeated so the reported set-up time is a median.
    let mut schedule = Vec::new();
    let mut meshes = Vec::new();
    for _ in 0..crate::SETUP_REPS {
        clock.begin();
        meshes = cells.iter().map(Cell::mesh).collect();
        let mut rng = crate::rng::Rng::new(args.seed);
        let counts = class_counts(
            &cells.iter().map(|c| c.nominal_ms).collect::<Vec<_>>(),
            args.seconds,
        );
        schedule = counts
            .iter()
            .enumerate()
            .flat_map(|(class, &n)| std::iter::repeat_n(class, n))
            .map(|class| (class, rng.unit()))
            .collect::<Vec<_>>();
        rng.shuffle(&mut schedule);
        for (i, c) in cells.iter().enumerate() {
            let budget = answers[i].map_or(0, |a| draw_budget(a, 0.5));
            let out = op(c, &meshes[i], frontier, budget, OpSpans::new(None, 0))?;
            if let Err(e) = check(c, &out, expected, budget, frontier) {
                failures.push(format!("warm-up {e}"));
            }
        }
        clock.end();
    }

    let names = cells.iter().map(Cell::label).collect();
    let mut lat = ClassLatencies::new(names);
    let mut lat_traced = ClassLatencies::new(cells.iter().map(Cell::label).collect());
    let mut spans = Spans::with_capacity(if args.trace { 64 * schedule.len() } else { 0 });
    let mut layers = Layers::new(cells.len());
    let mut counts_seen = vec![false; cells.len()];
    let mut counts = PlanCounts::default();
    let cpu0 = crate::sys::cpu_time(None)?;
    let mut busy = Duration::ZERO;
    for (n, &(class, u)) in schedule.iter().enumerate() {
        let c = &cells[class];
        let budget = answers[class].map_or(0, |a| draw_budget(a, u));
        let traced = args.trace && n % 2 == 0;
        let rec = traced.then_some(&mut spans);
        let out = op(
            c,
            &meshes[class],
            frontier,
            budget,
            OpSpans::new(rec, n as u64),
        )?;
        let ms = out.latency.as_secs_f64() * 1e3;
        if traced {
            lat_traced.push(class, ms);
            let root = spans
                .recs
                .iter()
                .rposition(|r| r.parent.is_none() && r.op == n as u64);
            let root = root.ok_or("traced op has no root span")?;
            layers.add_op(&spans, root, class, |name| plan_layer(name, frontier));
            if !counts_seen[class] {
                counts_seen[class] = true;
                counts.add(&out, frontier);
            }
        } else {
            busy += out.latency;
            lat.push(class, ms);
        }
        if let Err(e) = check(c, &out, expected, budget, frontier) {
            failures.push(e);
        }
    }
    let cpu = crate::sys::cpu_time(None)?.saturating_sub(cpu0);
    if args.trace {
        let names: Vec<String> = cells.iter().map(Cell::label).collect();
        if let Err(e) = layers.check_accounting(&names) {
            failures.push(e);
        }
    }
    let ops = schedule.len();
    for f in failures.iter().take(5) {
        eprintln!("perfbench: FAIL {f}");
    }
    let mut report = Report::new(ops as u64, failures.len() as u64, true);
    let untraced: usize = lat.samples.iter().map(Vec::len).sum();
    let measured = Measured {
        ops_per_s: untraced as f64 / busy.as_secs_f64(),
        cpu_ms_per_op: cpu.as_secs_f64() * 1e3 / ops as f64,
        peak_rss_kb: crate::sys::status_kb(None, "VmHWM")?,
    };
    if args.trace {
        spans.write_jsonl(&args.spans_path())?;
        let mut m = layers.metrics();
        counts.metrics(&mut m, cells.len());
        m.insert("obs.tracing_overhead_ms", lat_traced.p50() - lat.p50());
        crate::observed(&mut m, &lat, &measured);
        report.per_layer(m);
    } else {
        report.end_to_end(clock, &lat, &measured);
    }
    Ok(report)
}

/// Which per-layer metric an engine or benchmark span's self time feeds.
fn plan_layer(name: &str, frontier: bool) -> Option<&'static str> {
    Some(match name {
        "graph_build" => "models.graph_build_ms",
        "tables" => "cost.tables_ms",
        phase::PRUNE => "cost.prune_ms",
        phase::STRUCTURE | phase::PLAN => "core.structure_ms",
        phase::BACKTRACK => "core.backtrack_ms",
        "budget_select" => "core.budget_select_us",
        "report" => "core.report_ms",
        // Search::run outside the engine's phase spans: input checks, the
        // gate, and teardown of the DP tables after backtrack.
        "search" => "core.search_other_ms",
        n if is_fill(n) || n == phase::KERNEL => {
            if frontier {
                "core.frontier_fill_ms"
            } else {
                "core.dp_fill_ms"
            }
        }
        _ => return None,
    })
}

/// Exact per-class counts, taken once per class from a traced op so they
/// repeat exactly for a seed.
#[derive(Default)]
struct PlanCounts {
    dp_entries: u64,
    frontier_points: u64,
    packed_bytes: u64,
    kept: f64,
    intern: Vec<f64>,
}

impl PlanCounts {
    fn add(&mut self, out: &OpOut, frontier: bool) {
        let s = &out.stats;
        self.dp_entries += s.table_entries;
        if frontier {
            self.frontier_points += out.frontier.len() as u64;
        }
        self.packed_bytes += out.packed_bytes;
        self.kept += if s.k_before > 0 {
            s.max_configs as f64 / s.k_before as f64
        } else {
            1.0
        };
        if let Some(h) = out.tables.intern_stats().hit_rate_opt() {
            self.intern.push(h);
        }
    }

    fn metrics(&self, m: &mut std::collections::BTreeMap<&'static str, f64>, classes: usize) {
        m.insert("core.dp_entries", self.dp_entries as f64);
        m.insert("core.frontier_points", self.frontier_points as f64);
        m.insert("core.packed_bytes", self.packed_bytes as f64);
        m.insert("cost.prune_kept_ratio", self.kept / classes as f64);
        let n = self.intern.len().max(1) as f64;
        m.insert("cost.intern_hit_rate", self.intern.iter().sum::<f64>() / n);
    }
}

/// Record the expected optimum of every plan and frontier cell.
pub fn record(rec: &mut Recorder) -> Result<(), String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    pool.install(|| {
        for (cells, frontier) in [(&PLAN_CELLS[..], false), (&FRONTIER_CELLS[..], true)] {
            for c in cells {
                let mesh = c.mesh();
                let scalar = op(c, &mesh, false, 0, OpSpans::new(None, 0))?;
                rec.add(
                    format!("plan/{}", c.label()),
                    &scalar.graph,
                    &scalar.tables,
                    c.p,
                    scalar.cost,
                    &scalar.ids,
                    Vec::new(),
                )?;
                if frontier {
                    let f = op(c, &mesh, true, 0, OpSpans::new(None, 0))?;
                    rec.add(
                        format!("frontier/{}", c.label()),
                        &f.graph,
                        &f.tables,
                        c.p,
                        f.cost,
                        &f.ids,
                        f.frontier,
                    )?;
                }
                eprintln!("recorded {}", c.label());
            }
        }
        Ok(())
    })
}
