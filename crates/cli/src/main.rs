//! `pase` — find, compare, and export DNN parallelization strategies from
//! the command line.
//!
//! ```text
//! pase search  --model alexnet --devices 32 [--machine 1080ti] [--json]
//!              [--memory-limit-gb 8] [--weak-scaling]
//! pase compare --model rnnlm --devices 32 [--machine 2080ti]
//! pase stats   --model inception
//! pase export  --model transformer --devices 16 [--out strategy.json]
//! pase serve   [--addr 127.0.0.1:7878] [--workers 4] [--cache-dir DIR]
//! pase query   --model alexnet --devices 8 [--addr 127.0.0.1:7878]
//! ```

mod args;

use args::Args;
use pase_baselines::{data_parallel, gnmt_expert, mesh_tf_expert, owt};
use pase_core::{
    dependent_set_sizes, generate_seq, optcnn_search, FrontierPoint, ReductionOutcome, Search,
    SearchOutcome, SearchReport, SearchResult, SearchRun, SearchStats,
};
use pase_cost::{
    from_sharding_json, to_sharding_json, to_sharding_json_with, validate_strategy, ConfigRule,
    CostTables, DeviceMesh, MachineSpec, PruneOptions, Strategy, TableOptions,
};
use pase_graph::{bfs_order, Graph, GraphStats};
use pase_models as models;
use pase_obs::{chrome_trace_json, Trace};
use pase_serve::{Server, ServerConfig};
use pase_sim::{memory_per_device, simulate_step, simulate_step_trace, SimOptions, Topology};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
pase — parallelization strategies for efficient DNN training

USAGE:
  pase <search|compare|stats|export|simulate|trace|pipeline|serve|query> [options]

OPTIONS:
  --model <alexnet|inception|rnnlm|rnnlm-unrolled|gnmt|transformer|densenet|resnet|vgg|bert|mlp>
  --devices <p>            device count (default 8)
  --machine <1080ti|2080ti|test> named machine profile (default 1080ti)
  --machine-file <json>    plan against a machine loaded from a JSON file:
                           either a scalar profile object or a topology mesh
                           {\"name\": .., \"axes\": [{\"name\", \"size\", \"alpha\",
                           \"bandwidth\", \"peak_flops\"}, ..]} with axes listed
                           innermost first (overrides --machine)
  --memory-limit-gb <g>    per-device memory cap for the search
  --algorithm <pase|optcnn> search algorithm (default pase; optcnn fails on
                           graphs outside its reducible class, cf. paper §VI)
  --weak-scaling           scale the global batch with the device count
  --search-threads <n>     worker threads for the wavefront-parallel search
                           (default: all cores)
  --prune-epsilon <e>      prune configs dominated within (1+e) — faster on
                           large p but only (1+e)-optimal (default 0 = exact)
  --frontier               (search, query) compute the whole (step-time x
                           peak-memory) Pareto frontier instead of a single
                           optimum
  --max-memory <bytes>     (search, query) fastest strategy whose peak
                           per-device memory fits the cap; reports the
                           frontier's memory floor when nothing fits
  --json                   print the strategy as a GShard-style sharding spec
                           with an embedded \"search_report\" object
  --trace-out <file>       (search) write a Chrome-trace JSON timeline of the
                           search pipeline (open in chrome://tracing or
                           https://ui.perfetto.dev)
  --out <file>             write output to a file instead of stdout
  --strategy <file>        (simulate) sharding spec produced by `pase export`
  --top <k>                (trace) show the k most expensive layers (default 10)
  --stages <s>             (pipeline) stage count, must divide p (default 2)
  --microbatches <m>       (pipeline) GPipe chunks per step (default 8)
  --addr <host:port>       (serve, query) server address
                           (default 127.0.0.1:7878; serve accepts port 0)
  --workers <n>            (serve) worker-pool size (default 4)
  --deadline-ms <ms>       (serve) default per-request deadline
                           (query) per-request deadline override
  --cache-capacity <n>     (serve) in-memory strategy-cache entries (default 64)
  --cache-max-bytes <n>    (serve) approximate in-memory cache byte budget
                           (default 0 = unbounded; evicts by bytes before
                           the entry cap)
  --cache-dir <dir>        (serve) persist cache entries as JSON files
  --idle-timeout-ms <ms>   (serve) close connections idle this long (default 30000)
  --prewarm <spec>         (serve) fill the cache before accepting:
                           models:devices[:machines], each comma-separated,
                           e.g. \"mlp,resnet:4,8:1080ti\"
  --stats                  (query) ask the server for its counters instead of
                           a strategy
  --batch <n>              (query) send the query n times as one wire batch
                           (one request line, one response array)
";

/// The options `USAGE` documents: every line that opens with two spaces
/// and `--`, paired with whether the option takes a value (its name is
/// followed by a `<…>` placeholder). The parser accepts exactly these.
fn documented_options() -> Vec<(&'static str, bool)> {
    USAGE
        .lines()
        .filter_map(|line| line.strip_prefix("  --"))
        .filter_map(|rest| {
            let mut words = rest.split_whitespace();
            let name = words.next()?;
            Some((name, words.next().is_some_and(|w| w.starts_with('<'))))
        })
        .collect()
}

fn build_model(name: &str, p: u32, weak_scaling: bool) -> Result<Graph, String> {
    models::build_named(name, p, weak_scaling).map_err(|e| format!("{e}\n\n{USAGE}"))
}

fn machine_profile(name: &str) -> Result<MachineSpec, String> {
    MachineSpec::by_name(name).ok_or_else(|| {
        format!(
            "unknown machine '{name}'; known profiles: {}",
            MachineSpec::known_names().join(", ")
        )
    })
}

/// Resolve `--machine` / `--machine-file` into the mesh the search plans
/// against plus the scalar profile the execution simulator consumes. A
/// `--machine-file` mesh degrades to its [`DeviceMesh::effective_spec`]
/// for the simulator; a named profile keeps its exact spec (including the
/// profile's internode rate) and plans on its flat mesh.
fn machine_and_mesh(args: &Args) -> Result<(MachineSpec, DeviceMesh), String> {
    match args.get("machine-file") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read --machine-file {path}: {e}"))?;
            let mesh = DeviceMesh::from_json_str(&text)
                .map_err(|e| format!("invalid machine file {path}: {e}"))?;
            Ok((mesh.effective_spec(), mesh))
        }
        None => {
            let machine = machine_profile(args.get("machine").unwrap_or("1080ti"))?;
            let mesh = DeviceMesh::flat(&machine);
            Ok((machine, mesh))
        }
    }
}

/// Engine knobs shared by every searching subcommand.
#[derive(Clone, Copy, Debug)]
struct SearchKnobs {
    /// Worker threads for table building and the wavefront fill (0 = all
    /// cores).
    threads: usize,
    /// Dominance slack ε for `--prune-epsilon` (0 = exact).
    prune_epsilon: f64,
}

impl SearchKnobs {
    fn from_args(args: &Args) -> Result<Self, String> {
        let prune_epsilon: f64 = args.get_or("prune-epsilon", 0.0)?;
        if prune_epsilon.is_nan() || prune_epsilon < 0.0 {
            return Err(format!("--prune-epsilon must be ≥ 0, got {prune_epsilon}"));
        }
        Ok(Self {
            threads: args.get_or("search-threads", 0usize)?,
            prune_epsilon,
        })
    }

    /// The dominance prune every searching subcommand runs.
    fn prune_options(self) -> PruneOptions {
        PruneOptions {
            epsilon: self.prune_epsilon,
            ..PruneOptions::default()
        }
    }
}

/// A completed CLI search: the strategy plus everything the subcommands
/// print about it.
struct Searched {
    strategy: Strategy,
    cost: f64,
    stats: SearchStats,
    /// `None` when the interning size gate skipped the pass entirely
    /// (printed as "n/a" — distinct from a measured 0%).
    intern_hit_rate: Option<f64>,
}

/// The search every searching subcommand runs: `rule` (with the per-device
/// memory cap) on `mesh`, with the knobs' prune, recording into `trace`.
fn base_search<'a>(
    graph: &'a Graph,
    p: u32,
    mesh: &DeviceMesh,
    memory_limit_gb: Option<f64>,
    knobs: SearchKnobs,
    trace: Option<&'a Trace>,
) -> Search<'a> {
    let mut rule = ConfigRule::new(p);
    if let Some(gb) = memory_limit_gb {
        rule = rule.with_memory_limit(gb * (1u64 << 30) as f64);
    }
    let search = Search::new(graph)
        .rule(rule)
        .mesh(mesh.clone())
        .pruning(knobs.prune_options());
    match trace {
        Some(t) => search.trace(t),
        None => search,
    }
}

/// Run `search` on `threads` workers (0 = all cores). Returns the run and
/// the elapsed time of the whole pipeline (table build + prune + DP), which
/// is what the recorded phase spans cover.
fn run_on_threads(search: Search<'_>, threads: usize) -> Result<(SearchRun<'_>, Duration), String> {
    let start = Instant::now();
    let run = if threads > 0 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| format!("cannot build thread pool: {e}"))?
            .install(|| search.run())
    } else {
        search.run()
    };
    Ok((run, start.elapsed()))
}

/// The CLI's view of a found result, with the pipeline's `elapsed`.
fn searched(run: &SearchRun<'_>, r: &SearchResult, elapsed: Duration) -> Searched {
    let mut stats = r.stats.clone();
    stats.elapsed = elapsed;
    Searched {
        strategy: run.tables().ids_to_strategy(&r.config_ids),
        cost: r.cost,
        stats,
        intern_hit_rate: run.tables().intern_stats().hit_rate_opt(),
    }
}

fn search_strategy(
    graph: &Graph,
    p: u32,
    mesh: &DeviceMesh,
    memory_limit_gb: Option<f64>,
    knobs: SearchKnobs,
    trace: Option<&Trace>,
) -> Result<Searched, String> {
    let search = base_search(graph, p, mesh, memory_limit_gb, knobs, trace);
    let (run, elapsed) = run_on_threads(search, knobs.threads)?;
    match run.outcome() {
        SearchOutcome::Found(r) => Ok(searched(&run, r, elapsed)),
        other => Err(format!("search failed: {}", other.tag())),
    }
}

/// The text report of a scalar search: the header, then the layer report.
fn search_text(graph: &Graph, model: &str, p: u32, machine: &str, s: &Searched) -> String {
    let stats = &s.stats;
    let prune_line = if stats.k_before > stats.max_configs {
        format!(
            "dominance pruning: K {} -> {} in {:?}\n",
            stats.k_before, stats.max_configs, stats.prune_time
        )
    } else {
        String::new()
    };
    let hit_rate = match s.intern_hit_rate {
        Some(h) => format!("{:.0}%", h * 100.0),
        None => "n/a (interning skipped)".to_string(),
    };
    let mut content = format!(
        "model {model}, p = {p}, machine {machine} — search {:?} (K = {}, M = {})\n\
         wavefronts {} (max width {}), intern hit rate {hit_rate}\n\
         {prune_line}\
         minimum cost {:.4e} FLOP-units\n\n",
        stats.elapsed,
        stats.max_configs,
        stats.max_dependent_set,
        stats.wavefronts,
        stats.max_wavefront_width,
        s.cost,
    );
    content.push_str(&s.strategy.report(graph));
    content
}

/// Run a frontier-mode search: the selected point, plus a text rendering
/// of the (step-time × peak-memory) Pareto frontier and the selected
/// point's layer report. With `max_memory`, selection is the fastest point
/// whose peak per-device strategy memory fits the cap; an impossible cap
/// is a clean error naming the frontier's memory floor.
#[allow(clippy::too_many_arguments)]
fn frontier_search(
    graph: &Graph,
    model: &str,
    p: u32,
    mesh: &DeviceMesh,
    memory_limit_gb: Option<f64>,
    max_memory: Option<u64>,
    knobs: SearchKnobs,
    trace: Option<&Trace>,
) -> Result<(Searched, String), String> {
    let mut search = base_search(graph, p, mesh, memory_limit_gb, knobs, trace).frontier();
    if let Some(bytes) = max_memory {
        search = search.max_memory_bytes(bytes);
    }
    let (run, elapsed) = run_on_threads(search, knobs.threads)?;
    let points: &[FrontierPoint] = run.frontier().map_or(&[], |f| f.points());
    match run.outcome() {
        SearchOutcome::Found(r) => {
            let selected = searched(&run, r, elapsed);
            let mut content = format!(
                "model {model}, p = {p}, machine {} — Pareto frontier: {} points \
                 (search {:?})\n\n      {:>16}  {:>12}\n",
                mesh.name,
                points.len(),
                selected.stats.elapsed,
                "cost",
                "peak memory",
            );
            for pt in points {
                let mark = if pt.config_ids == r.config_ids {
                    '*'
                } else {
                    ' '
                };
                content.push_str(&format!(
                    "  {mark}   {:>16.4e}  {:>8.1} MiB\n",
                    pt.cost,
                    pt.memory_bytes as f64 / (1 << 20) as f64,
                ));
            }
            content.push_str(&match max_memory {
                Some(bytes) => format!(
                    "\nselected: fastest point within {bytes} bytes \
                     (cost {:.4e}, peak {} bytes)\n\n",
                    r.cost, r.stats.peak_strategy_bytes,
                ),
                None => format!("\nselected: the min-time point (cost {:.4e})\n\n", r.cost),
            });
            content.push_str(&selected.strategy.report(graph));
            Ok((selected, content))
        }
        SearchOutcome::Infeasible {
            min_memory_bytes, ..
        } => Err(format!(
            "no strategy fits --max-memory {}: the cheapest frontier point needs \
             {min_memory_bytes} bytes per device",
            max_memory.unwrap_or(0),
        )),
        other => Err(format!("search failed: {}", other.tag())),
    }
}

fn emit(out_path: Option<&str>, content: &str) -> Result<(), String> {
    match out_path {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
        }
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let Some(command) = args.command.clone() else {
        return Err(USAGE.to_string());
    };
    args.validate(&documented_options())
        .map_err(|e| format!("{e}\n\n{USAGE}"))?;
    let model = args.get("model").unwrap_or("mlp").to_string();
    let p: u32 = args.get_or("devices", 8)?;
    let (machine, mesh) = machine_and_mesh(&args)?;
    let weak = args.has("weak-scaling");
    let knobs = SearchKnobs::from_args(&args)?;
    let graph = build_model(&model, p, weak)?;

    match command.as_str() {
        "search" => {
            let memory_limit = args.get("memory-limit-gb").map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("invalid --memory-limit-gb: {v}"))
            });
            let memory_limit = memory_limit.transpose()?;
            if args.get("algorithm") == Some("optcnn") {
                let tables = CostTables::build_mesh(
                    &graph,
                    ConfigRule::new(p),
                    &mesh,
                    &TableOptions::default(),
                    None,
                );
                return match optcnn_search(&graph, &tables) {
                    ReductionOutcome::Reduced {
                        cost,
                        config_ids,
                        eliminations,
                    } => {
                        let strategy = tables.ids_to_strategy(&config_ids);
                        let mut content = format!(
                            "model {model}, p = {p} — OptCNN graph reduction \
                             ({eliminations} eliminations)\nminimum cost {cost:.4e} \
                             FLOP-units\n\n"
                        );
                        content.push_str(&strategy.report(&graph));
                        emit(args.get("out"), &content)
                    }
                    ReductionOutcome::Irreducible { remaining } => Err(format!(
                        "optcnn: graph is irreducible ({} vertices remain) — \
                         use the default PaSE algorithm (paper §VI)",
                        remaining.len()
                    )),
                };
            }
            let max_memory = args
                .get("max-memory")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("invalid --max-memory: {v}"))
                })
                .transpose()?;
            // A trace is recorded whenever it has a consumer: an explicit
            // --trace-out file, or the per-phase breakdown of the --json
            // search report.
            let trace = (args.get("trace-out").is_some() || args.has("json")).then(Trace::new);
            let (found, text) = if args.has("frontier") || max_memory.is_some() {
                frontier_search(
                    &graph,
                    &model,
                    p,
                    &mesh,
                    memory_limit,
                    max_memory,
                    knobs,
                    trace.as_ref(),
                )?
            } else {
                let s = search_strategy(&graph, p, &mesh, memory_limit, knobs, trace.as_ref())?;
                let text = search_text(&graph, &model, p, &machine.name, &s);
                (s, text)
            };
            if let Some(path) = args.get("trace-out") {
                let t = trace.as_ref().expect("trace was created for --trace-out");
                std::fs::write(path, chrome_trace_json(t))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            if args.has("json") {
                let outcome = SearchOutcome::Found(SearchResult {
                    cost: found.cost,
                    config_ids: vec![],
                    stats: found.stats,
                });
                let report = SearchReport::new(model.as_str(), p, &outcome, trace.as_ref());
                let report_json = report.to_json();
                emit(
                    args.get("out"),
                    &to_sharding_json_with(
                        &graph,
                        &found.strategy,
                        &[("search_report", &report_json)],
                    ),
                )?;
            } else {
                emit(args.get("out"), &text)?;
            }
        }
        "compare" => {
            let topo = Topology::cluster(machine.clone(), p).map_err(|e| e.to_string())?;
            let opts = SimOptions::default();
            let ours = search_strategy(&graph, p, &mesh, None, knobs, None)?.strategy;
            let expert = match model.as_str() {
                "rnnlm" | "rnnlm-unrolled" | "gnmt" => gnmt_expert(&graph, p),
                "transformer" => mesh_tf_expert(&graph, p),
                _ => owt(&graph, p),
            };
            let mut content = format!(
                "{:<16} {:>12} {:>14} {:>12}\n",
                "strategy", "step (ms)", "samples/s", "mem (MiB)"
            );
            for (name, s) in [
                ("data-parallel", data_parallel(&graph, p)),
                ("expert", expert),
                ("pase", ours),
            ] {
                let rep = simulate_step(&graph, &s, &topo, &opts);
                let mem = memory_per_device(&graph, &s, &topo) / (1 << 20) as f64;
                content.push_str(&format!(
                    "{:<16} {:>12.2} {:>14.0} {:>12.0}\n",
                    name,
                    rep.step_seconds * 1e3,
                    rep.throughput,
                    mem
                ));
            }
            emit(args.get("out"), &content)?;
        }
        "stats" => {
            let stats = GraphStats::of(&graph);
            let order = generate_seq(&graph);
            let gs = dependent_set_sizes(&graph, &order);
            let bf = dependent_set_sizes(&graph, &bfs_order(&graph));
            let structure = pase_core::VertexStructure::build(
                &graph,
                &order,
                pase_core::ConnectedSetMode::Exact,
            );
            let tables = CostTables::build_mesh(
                &graph,
                ConfigRule::new(p),
                &mesh,
                &TableOptions::default(),
                None,
            );
            let intern = tables.intern_stats();
            let hit_rate = match intern.hit_rate_opt() {
                Some(h) => format!("{:.0}%", h * 100.0),
                None => "n/a (interning skipped)".to_string(),
            };
            let content = format!(
                "model {model}: {} nodes, {} edges\n\
                 degrees: max {}, mean {:.2}, high-degree (≥5) {}\n\
                 step flops: {:.3e}, parameters: {:.3e}\n\
                 max |D(i)|: GenerateSeq {}, breadth-first {}\n\
                 wavefronts: {} (max width {})\n\
                 cost tables (p = {p}): {} layer tables for {} nodes, \
                 {} edge tables for {} edges — intern hit rate {hit_rate}\n",
                stats.nodes,
                stats.edges,
                stats.degrees.max,
                stats.degrees.mean,
                stats.degrees.high_degree,
                stats.step_flops,
                stats.params,
                gs.iter().max().unwrap_or(&0),
                bf.iter().max().unwrap_or(&0),
                structure.wavefronts().len(),
                structure.max_wavefront_width(),
                intern.unique_layer_tables,
                intern.nodes,
                intern.unique_edge_tables,
                intern.edges,
            );
            emit(args.get("out"), &content)?;
        }
        "export" => {
            let strategy = search_strategy(&graph, p, &mesh, None, knobs, None)?.strategy;
            emit(args.get("out"), &to_sharding_json(&graph, &strategy))?;
        }
        "simulate" => {
            // Load a user-provided sharding spec, validate it, and time it
            // on the chosen cluster — the round trip a framework
            // integration would take.
            let path = args
                .get("strategy")
                .ok_or("simulate needs --strategy <file>")?;
            let json =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let strategy = from_sharding_json(&graph, &json)?;
            validate_strategy(&graph, &strategy, &ConfigRule::new(p))?;
            let topo = Topology::cluster(machine.clone(), p).map_err(|e| e.to_string())?;
            let rep = simulate_step(&graph, &strategy, &topo, &SimOptions::default());
            let content = format!(
                "model {model}, p = {p}, machine {}\n\
                 step time      {:.3} ms\n\
                 compute        {:.3} ms\n\
                 intra-layer    {:.3} ms\n\
                 transfers      {:.3} ms\n\
                 gradient sync  {:.3} ms\n\
                 throughput     {:.0} samples/s\n\
                 memory/device  {:.0} MiB\n",
                machine.name,
                rep.step_seconds * 1e3,
                rep.compute_seconds * 1e3,
                rep.intra_layer_seconds * 1e3,
                rep.transfer_seconds * 1e3,
                rep.gradient_sync_seconds * 1e3,
                rep.throughput,
                memory_per_device(&graph, &strategy, &topo) / (1 << 20) as f64,
            );
            emit(args.get("out"), &content)?;
        }
        "trace" => {
            // Per-layer timing of the searched strategy: where does the
            // step time actually go?
            let strategy = search_strategy(&graph, p, &mesh, None, knobs, None)?.strategy;
            let topo = Topology::cluster(machine.clone(), p).map_err(|e| e.to_string())?;
            let (rep, mut rows) =
                simulate_step_trace(&graph, &strategy, &topo, &SimOptions::default());
            let top: usize = args.get_or("top", 10)?;
            rows.sort_by(|a, b| {
                let ta = a.compute + a.intra_layer + a.gradient_sync;
                let tb = b.compute + b.intra_layer + b.gradient_sync;
                tb.partial_cmp(&ta).unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut content = format!(
                "model {model}, p = {p}: step {:.2} ms (compute {:.2}, comm {:.2})\n\n\
                 {:<28} {:<12} {:>11} {:>11} {:>11}\n",
                rep.step_seconds * 1e3,
                rep.compute_seconds * 1e3,
                rep.comm_seconds() * 1e3,
                "layer",
                "config",
                "compute ms",
                "intra ms",
                "sync ms"
            );
            for row in rows.iter().take(top) {
                let node = graph.node(row.node);
                content.push_str(&format!(
                    "{:<28} {:<12} {:>11.3} {:>11.3} {:>11.3}\n",
                    node.name,
                    format!("{}", strategy.config(row.node)),
                    row.compute * 1e3,
                    row.intra_layer * 1e3,
                    row.gradient_sync * 1e3
                ));
            }
            emit(args.get("out"), &content)?;
        }
        "pipeline" => {
            // §VI composition: PipeDream-style stages, PaSE inside each.
            use pase_pipeline::{plan_pipeline, simulate_pipeline, PipelineOptions};
            let stages: usize = args.get_or("stages", 2)?;
            let microbatches: u32 = args.get_or("microbatches", 8)?;
            let plan = plan_pipeline(
                &graph,
                p,
                &machine,
                &PipelineOptions {
                    stages,
                    microbatches,
                    ..Default::default()
                },
            )?;
            let stage_topo = Topology::cluster(machine.clone(), plan.devices_per_stage)
                .map_err(|e| e.to_string())?;
            let rep = simulate_pipeline(&graph, &plan, &stage_topo, &SimOptions::default());
            let mut content = format!(
                "model {model}, p = {p}: {stages} stages x {} devices, \
                 {microbatches} microbatches\n\
                 step {:.2} ms (bubble x{:.2}, boundary {:.1} MiB) -> \
                 {:.0} samples/s\n\nper-stage times:\n",
                plan.devices_per_stage,
                rep.step_seconds * 1e3,
                rep.bubble_factor,
                rep.boundary_bytes / (1 << 20) as f64,
                rep.throughput,
            );
            for (i, t) in rep.stage_seconds.iter().enumerate() {
                let (sub, _) = &plan.stage_graphs[i];
                content.push_str(&format!(
                    "  stage {i}: {:>8.2} ms  ({} layers)\n",
                    t * 1e3,
                    sub.len()
                ));
            }
            emit(args.get("out"), &content)?;
        }
        "serve" => {
            // Before any server thread allocates: a steady memory peak.
            pase_serve::limit_malloc_arenas();
            let cfg = ServerConfig {
                addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
                workers: args.get_or("workers", 4usize)?,
                deadline: Duration::from_millis(args.get_or("deadline-ms", 120_000u64)?),
                cache_capacity: args.get_or("cache-capacity", 64usize)?,
                cache_max_bytes: args.get_or("cache-max-bytes", 0u64)?,
                cache_dir: args.get("cache-dir").map(std::path::PathBuf::from),
                idle_timeout: Duration::from_millis(args.get_or("idle-timeout-ms", 30_000u64)?),
                prewarm: args.get("prewarm").map(str::to_string),
            };
            if let Some(spec) = &cfg.prewarm {
                // Fail on a bad spec before binding, not after "listening".
                pase_serve::parse_prewarm_spec(spec)?;
            }
            let server = Server::bind(cfg).map_err(|e| format!("cannot bind server: {e}"))?;
            let addr = server
                .local_addr()
                .map_err(|e| format!("cannot resolve bound address: {e}"))?;
            // Scripts read the bound address from the first stdout line
            // (ephemeral ports make this the only way to learn the port).
            println!("listening on {addr}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            #[cfg(unix)]
            pase_serve::install_sigint(server.shutdown_handle());
            let summary = server.run().map_err(|e| format!("server error: {e}"))?;
            eprintln!(
                "served {} requests ({} cache hits, {} misses, {} coalesced, {} prewarmed)",
                summary.requests,
                summary.cache_hits,
                summary.cache_misses,
                summary.coalesced,
                summary.prewarmed
            );
        }
        "query" => {
            use std::io::{BufRead, BufReader, Write as _};
            let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
            let request = if args.has("stats") {
                "{\"stats\": true}".to_string()
            } else {
                let copies: usize = args.get_or("batch", 1usize)?;
                if copies == 0 {
                    return Err("--batch must be at least 1".into());
                }
                // With --machine-file the wire request carries the full
                // mesh inline (the server has no file to read); a named
                // profile travels as its registry name.
                let machine_field = if args.get("machine-file").is_some() {
                    mesh.to_json()
                } else {
                    format!("\"{}\"", machine.name)
                };
                let mut request = format!(
                    "{{\"model\": \"{model}\", \"devices\": {p}, \
                     \"machine\": {machine_field}, \"weak_scaling\": {weak}"
                );
                if knobs.prune_epsilon > 0.0 {
                    request.push_str(&format!(
                        ", \"prune\": true, \"epsilon\": {}",
                        knobs.prune_epsilon
                    ));
                }
                if let Some(ms) = args.get("deadline-ms") {
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| format!("invalid --deadline-ms: {ms}"))?;
                    request.push_str(&format!(", \"deadline_ms\": {ms}"));
                }
                if let Some(v) = args.get("max-memory") {
                    let bytes: u64 = v
                        .parse()
                        .map_err(|_| format!("invalid --max-memory: {v}"))?;
                    request.push_str(&format!(", \"max_memory_bytes\": {bytes}"));
                }
                if args.has("frontier") {
                    request.push_str(", \"frontier\": true");
                }
                request.push('}');
                if copies > 1 {
                    // One wire line, one response array — the batch path.
                    let elems = vec![request; copies].join(",");
                    format!("{{\"batch\": [{elems}]}}")
                } else {
                    request
                }
            };
            let mut stream = std::net::TcpStream::connect(addr)
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            stream
                .write_all(request.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .map_err(|e| format!("cannot send request: {e}"))?;
            let mut response = String::new();
            BufReader::new(stream)
                .read_line(&mut response)
                .map_err(|e| format!("cannot read response: {e}"))?;
            if response.is_empty() {
                return Err("server closed the connection without responding".into());
            }
            emit(args.get("out"), &response)?;
        }
        other => return Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_advertised_model_builds() {
        for m in [
            "alexnet",
            "inception",
            "rnnlm",
            "rnnlm-unrolled",
            "gnmt",
            "transformer",
            "densenet",
            "resnet",
            "vgg",
            "bert",
            "mlp",
        ] {
            let g = build_model(m, 4, false).unwrap_or_else(|e| panic!("{m}: {e}"));
            assert!(!g.is_empty(), "{m}");
        }
        assert!(build_model("nope", 4, false).is_err());
    }

    #[test]
    fn weak_scaling_multiplies_the_batch() {
        let g1 = build_model("rnnlm", 8, false).unwrap();
        let g8 = build_model("rnnlm", 8, true).unwrap();
        assert_eq!(pase_sim::batch_size(&g8), 8 * pase_sim::batch_size(&g1));
    }

    #[test]
    fn machine_profiles_resolve() {
        for name in MachineSpec::known_names() {
            assert_eq!(machine_profile(&name).unwrap().name, name);
        }
        // Unknown names fail with the full registry listing, so the
        // message stays correct as profiles are added.
        let err = machine_profile("v100").unwrap_err();
        for name in MachineSpec::known_names() {
            assert!(err.contains(&name), "{err}");
        }
    }

    #[test]
    fn machine_file_overrides_the_profile_and_rejects_bad_meshes() {
        let dir = std::env::temp_dir().join("pase-cli-machine-file-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("mesh.json");
        std::fs::write(
            &good,
            "{\"name\": \"testbed\", \"axes\": [\
             {\"name\": \"gpu\", \"size\": 4, \"alpha\": 5e-6, \
              \"bandwidth\": 1e10, \"peak_flops\": 1e13},\
             {\"name\": \"node\", \"size\": 2, \"alpha\": 15e-6, \
              \"bandwidth\": 1e9, \"peak_flops\": 1e13}]}",
        )
        .unwrap();
        let argv = |path: &str| {
            Args::parse(
                ["search", "--machine-file", path]
                    .into_iter()
                    .map(str::to_string),
            )
            .unwrap()
        };
        let (machine, mesh) = machine_and_mesh(&argv(good.to_str().unwrap())).unwrap();
        assert_eq!(mesh.name, "testbed");
        assert_eq!(mesh.axes.len(), 2);
        // The simulator-facing spec degrades to the mesh's weakest links.
        assert_eq!(machine.name, "testbed");
        assert_eq!(machine.internode_bandwidth, 1e9);

        // Without --machine-file the named profile wins, on its flat mesh.
        let (machine, mesh) = machine_and_mesh(&Args::default()).unwrap();
        assert_eq!(machine.name, "1080ti");
        assert_eq!(mesh, DeviceMesh::flat(&MachineSpec::gtx1080ti()));

        // Hostile meshes are clean errors naming the file, not panics.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"name\": \"x\", \"axes\": []}").unwrap();
        let err = machine_and_mesh(&argv(bad.to_str().unwrap())).unwrap_err();
        assert!(err.contains("invalid machine file"), "{err}");
        let err = machine_and_mesh(&argv("/nonexistent/mesh.json")).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn search_strategy_produces_complete_cover() {
        let g = build_model("mlp", 4, false).unwrap();
        let knobs = SearchKnobs::from_args(&Args::default()).unwrap();
        let s = search_strategy(
            &g,
            4,
            &DeviceMesh::flat(&MachineSpec::gtx1080ti()),
            None,
            knobs,
            None,
        )
        .unwrap();
        assert_eq!(s.strategy.len(), g.len());
        assert!(s.cost > 0.0);
        assert!(s.stats.max_configs > 0);
        assert!(s.stats.wavefronts > 0);
    }

    #[test]
    fn frontier_search_matches_the_scalar_optimum_and_rejects_impossible_caps() {
        let g = build_model("mlp", 4, false).unwrap();
        let knobs = SearchKnobs::from_args(&Args::default()).unwrap();
        let m = DeviceMesh::flat(&MachineSpec::gtx1080ti());
        let scalar = search_strategy(&g, 4, &m, None, knobs, None).unwrap();
        let (found, content) = frontier_search(&g, "mlp", 4, &m, None, None, knobs, None).unwrap();
        assert!(content.contains("Pareto frontier"));
        assert_eq!(found.cost.to_bits(), scalar.cost.to_bits());
        assert_eq!(found.stats.dp_kernel, "frontier-tiled");
        // The frontier's min-time point is the scalar optimum, bit for bit.
        assert!(
            content.contains(&format!("{:.4e}", scalar.cost)),
            "frontier output lacks the scalar optimum {:.4e}:\n{content}",
            scalar.cost
        );
        // A one-byte cap cannot fit any strategy: clean error, not a panic.
        let Err(err) = frontier_search(&g, "mlp", 4, &m, None, Some(1), knobs, None) else {
            panic!("a one-byte cap found a strategy");
        };
        assert!(err.contains("no strategy fits"), "{err}");
    }

    #[test]
    fn traced_search_spans_cover_reported_elapsed() {
        use pase_obs::phase;
        let g = build_model("mlp", 8, false).unwrap();
        let knobs = SearchKnobs::from_args(&Args::default()).unwrap();
        let trace = Trace::new();
        let mesh = DeviceMesh::flat(&MachineSpec::gtx1080ti());
        let stats = search_strategy(&g, 8, &mesh, None, knobs, Some(&trace))
            .unwrap()
            .stats;
        let names: Vec<String> = trace.spans().iter().map(|s| s.name.clone()).collect();
        for required in [
            phase::ENUMERATION,
            phase::INTERNING,
            phase::TABLE_BUILD,
            phase::PRUNE,
            phase::STRUCTURE,
            phase::BACKTRACK,
        ] {
            assert!(
                names.iter().any(|n| n == required),
                "missing {required} in {names:?}"
            );
        }
        assert!(names.iter().any(|n| phase::is_wavefront(n)));
        // The pipeline spans are disjoint phases of the same run, so their
        // sum is bounded by the full-pipeline elapsed that search_strategy
        // reports.
        let disjoint = trace.span_time_where(|n| {
            matches!(
                n,
                phase::ENUMERATION
                    | phase::INTERNING
                    | phase::TABLE_BUILD
                    | phase::PRUNE
                    | phase::STRUCTURE
                    | phase::PLAN
                    | phase::BACKTRACK
            ) || phase::is_wavefront(n)
        });
        assert!(
            disjoint <= stats.elapsed,
            "span sum {disjoint:?} exceeds pipeline elapsed {:?}",
            stats.elapsed
        );
    }

    #[test]
    fn search_knobs_parse_from_args() {
        let a = Args::parse(
            "search --search-threads 2"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let k = SearchKnobs::from_args(&a).unwrap();
        assert_eq!(k.threads, 2);
        let d = SearchKnobs::from_args(&Args::default()).unwrap();
        assert_eq!(d.threads, 0);
        assert_eq!(d.prune_epsilon, 0.0);
        let e = Args::parse(
            "search --prune-epsilon 0.05"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(SearchKnobs::from_args(&e).unwrap().prune_epsilon, 0.05);
        let bad = Args::parse(
            "search --prune-epsilon -1"
                .split_whitespace()
                .map(String::from),
        );
        // "-1" is parsed as a flag-less value only if it doesn't look like
        // an option; either parse or knob construction must reject it.
        assert!(bad.is_err() || SearchKnobs::from_args(&bad.unwrap()).is_err());
    }

    fn check(line: &str) -> Result<(), String> {
        Args::parse(line.split_whitespace().map(String::from))
            .unwrap()
            .validate(&documented_options())
    }

    #[test]
    fn retired_knobs_are_unknown_options() {
        for (line, name) in [
            ("search --model alexnet --no-prune", "--no-prune"),
            ("search --prune-gate auto", "--prune-gate"),
            ("search --no-intern --search-threads 1", "--no-intern"),
            ("serve --frontend threaded", "--frontend"),
            ("serve --cache-shards 4", "--cache-shards"),
            ("serve --no-singleflight", "--no-singleflight"),
        ] {
            assert_eq!(check(line), Err(format!("unknown option {name}")), "{line}");
        }
    }

    #[test]
    fn an_option_given_without_its_value_is_an_error() {
        assert_eq!(
            check("search --model alexnet --devices"),
            Err("--devices needs a value".to_string())
        );
        assert_eq!(
            check("query --stats --addr"),
            Err("--addr needs a value".to_string())
        );
    }

    #[test]
    fn every_option_the_scripts_pass_parses() {
        for line in [
            "search --model transformer --devices 64 --trace-out t.json --json --out s.json",
            "search --model inception --devices 8 --search-threads 1 --prune-epsilon 0.05",
            "search --model mlp --frontier --max-memory 1000 --machine 2080ti",
            "search --model inception --devices 8 --frontier --trace-out t.json --json --out s.json",
            "serve --addr 127.0.0.1:0 --workers 2 --prewarm alexnet:8:1080ti",
            "query --model alexnet --devices 8 --weak-scaling --addr a:1 --out q.json",
            "query --stats --addr a:1 --batch 8 --machine-file m.json --deadline-ms 5",
        ] {
            assert_eq!(check(line), Ok(()), "{line}");
        }
    }

    #[test]
    fn capped_threads_match_defaults() {
        let g = build_model("mlp", 4, false).unwrap();
        let m = DeviceMesh::flat(&MachineSpec::gtx1080ti());
        let search = |threads| {
            let knobs = SearchKnobs {
                threads,
                prune_epsilon: 0.0,
            };
            search_strategy(&g, 4, &m, None, knobs, None).unwrap()
        };
        let (base, capped) = (search(0), search(1));
        assert_eq!(base.cost.to_bits(), capped.cost.to_bits());
        assert_eq!(base.strategy.configs(), capped.strategy.configs());
    }
}
