//! `perfbench` — end-to-end and per-layer benchmark of the PaSE planner.
//!
//! ```text
//! perfbench --workload <plan|plan-frontier|serve-hits|serve-churn>
//!           --seed <n> --seconds <s> --trace <0|1> [--pase <pase binary>]
//!           [--out-dir <dir>]
//! perfbench --record <expected.json>
//! ```
//!
//! Each run executes a fixed, seeded op sequence (its length scales with
//! `--seconds`, never with how fast the machine is), checks every answer
//! against the oracle, and prints one JSON result line. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` runs the same sequence with spans
//! around each public call and prints the per-layer metrics. See
//! `README.md` beside this crate.

mod oracle;
mod plan;
mod rng;
mod serve;
mod spans;
mod stats;
mod sys;

use spans::Spans;
use stats::ClassLatencies;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Per-layer metrics every traced run prints (zero where a workload does
/// not exercise the layer), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.graph_build_ms", "ms"),
    ("cost.tables_ms", "ms"),
    ("cost.intern_hit_rate", "ratio"),
    ("cost.prune_ms", "ms"),
    ("cost.prune_kept_ratio", "ratio"),
    ("core.structure_ms", "ms"),
    ("core.dp_fill_ms", "ms"),
    ("core.dp_entries", "count"),
    ("core.frontier_fill_ms", "ms"),
    ("core.frontier_points", "count"),
    ("core.packed_bytes", "B"),
    ("core.backtrack_ms", "ms"),
    ("core.budget_select_us", "us"),
    ("core.report_ms", "ms"),
    ("core.search_other_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.graph_build_us", "us"),
    ("serve.key_us", "us"),
    ("serve.lookup_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.miss_search_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.cache_entries", "count"),
    ("serve.cache_bytes", "B"),
    ("obs.rss_growth_kb_per_kreq", "kB/kreq"),
    ("obs.tracing_overhead_ms", "ms"),
    ("obs.layer_coverage", "ratio"),
    ("obs.coverage_misses", "count"),
    ("e2e.latency_p50_ms", "ms"),
    ("e2e.latency_tail_ms", "ms"),
    ("e2e.ops_per_s", "1/s"),
    ("e2e.cpu_ms_per_op", "ms"),
    ("stats.tail_quantile", "ratio"),
    ("stats.tail_beyond", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub pase: Option<PathBuf>,
    pub out_dir: PathBuf,
}

impl Args {
    /// Where a traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("spans-{}-{}.jsonl", self.workload, self.seed))
    }
}

/// Times the repeated set-up passes. The first starts at process start.
pub struct SetupClock {
    next_start: Instant,
    reps: Vec<f64>,
}

impl SetupClock {
    pub fn begin(&mut self) {
        if !self.reps.is_empty() {
            self.next_start = Instant::now();
        }
    }

    pub fn end(&mut self) {
        self.reps.push(self.next_start.elapsed().as_secs_f64());
    }

    pub fn median(&self) -> f64 {
        stats::median(&self.reps)
    }
}

/// One run's result line.
pub struct Report {
    attempted: u64,
    failed: u64,
    /// Whether the run-level checks besides the per-op oracle (server
    /// hygiene) passed.
    sound: bool,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64, sound: bool) -> Self {
        Self {
            attempted,
            failed,
            sound,
            metrics: Vec::new(),
        }
    }

    /// The gated end-to-end metrics of an untraced run. The figures this
    /// machine's drift moves by more than a bound (`Measured`) go to
    /// stderr here and into the traced run's result.
    pub fn end_to_end(&mut self, clock: &SetupClock, lat: &ClassLatencies, m: &Measured) {
        let (q, tail) = lat.tail();
        eprintln!(
            "perfbench: p50 {:.4} ms, tail p{:.0} {tail:.4} ms ({} beyond it in the smallest \
             class), {:.2} ops/s, {:.4} CPU ms/op",
            lat.p50(),
            q * 100.0,
            stats::beyond(lat.min_count(), q),
            m.ops_per_s,
            m.cpu_ms_per_op
        );
        for (name, v) in lat.names.iter().zip(&lat.samples) {
            eprintln!(
                "perfbench:   {name:<40} min {:>9.4}  p50 {:>9.4} ms over {} ops",
                stats::percentile(v, 0.0),
                stats::median(v),
                v.len()
            );
        }
        self.metrics = vec![
            ("setup_s", clock.median(), "s"),
            // The fastest op of each class: on the shared 2-vCPU host the
            // same op runs up to 1.6x slower for seconds to minutes at a
            // time, and the median flips between the states (README.md).
            ("latency_min_ms", lat.quantile(0.0), "ms"),
            ("peak_rss_mb", m.peak_rss_kb as f64 / 1024.0, "MB"),
            (
                "success_rate",
                self.attempted.saturating_sub(self.failed) as f64 / self.attempted as f64,
                "ratio",
            ),
        ];
    }

    /// The per-layer metrics of a traced run; every name in [`PER_LAYER`]
    /// is printed, zero where the workload leaves the layer idle.
    pub fn per_layer(&mut self, m: BTreeMap<&'static str, f64>) {
        self.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
            .collect();
    }

    fn correct(&self) -> bool {
        self.sound && self.failed == 0
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Ops whose layer self-times may miss their latency by more than
/// [`COVERAGE_TOLERANCE`]: a scheduler preemption between two spans of a
/// microsecond-scale op on shared vCPUs is not a missing layer.
const COVERAGE_MISS_SHARE: f64 = 0.01;
const COVERAGE_TOLERANCE: f64 = 0.10;

/// Per-class self-time samples of each layer metric, from traced ops.
pub struct Layers {
    samples: Vec<BTreeMap<&'static str, Vec<f64>>>,
    /// Per class, each op's attributed time ÷ its latency.
    coverage: Vec<Vec<f64>>,
}

impl Layers {
    pub fn new(classes: usize) -> Self {
        Self {
            samples: vec![BTreeMap::new(); classes],
            coverage: vec![Vec::new(); classes],
        }
    }

    /// Attribute the self time of every span under `root` to the layer
    /// metric `layer` maps its name to.
    pub fn add_op(
        &mut self,
        spans: &Spans,
        root: usize,
        class: usize,
        layer: impl Fn(&str) -> Option<&'static str>,
    ) {
        let mut per: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (id, self_ns) in spans.descendants(root) {
            if let Some(metric) = layer(&spans.recs[id].name) {
                *per.entry(metric).or_default() += self_ns;
            }
        }
        let accounted: u64 = per.values().sum();
        for (metric, ns) in per {
            let scale = if metric.ends_with("_us") { 1e-3 } else { 1e-6 };
            self.samples[class]
                .entry(metric)
                .or_default()
                .push(ns as f64 * scale);
        }
        self.coverage[class].push(accounted as f64 / spans.dur(root).max(1) as f64);
    }

    /// The layer-accounting check: layer self-times add up to each op's
    /// latency within 10% — in every class's median op, and in all but
    /// [`COVERAGE_MISS_SHARE`] of the ops.
    pub fn check_accounting(&self, classes: &[String]) -> Result<(), String> {
        let ok = |r: f64| (r - 1.0).abs() <= COVERAGE_TOLERANCE;
        for (name, cov) in classes.iter().zip(&self.coverage) {
            if !cov.is_empty() && !ok(stats::median(cov)) {
                return Err(format!(
                    "{name}: layer self-times cover {:.1}% of the median op's latency",
                    stats::median(cov) * 100.0
                ));
            }
        }
        let all: Vec<f64> = self.coverage.concat();
        let misses = all.iter().filter(|r| !ok(**r)).count();
        if misses as f64 > COVERAGE_MISS_SHARE * all.len() as f64 {
            return Err(format!(
                "layer self-times miss the latency by over 10% in {misses} of {} ops",
                all.len()
            ));
        }
        Ok(())
    }

    /// Geomean across classes of each class's median, per layer metric;
    /// a class contributes only to the layers its ops ran.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for class in &self.samples {
            for (metric, v) in class {
                per.entry(metric)
                    .or_default()
                    .push(stats::median(v).max(1e-9));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = per
            .into_iter()
            .map(|(k, v)| (k, stats::geomean(&v)))
            .collect();
        let all: Vec<f64> = self.coverage.concat();
        if !all.is_empty() {
            let misses = all
                .iter()
                .filter(|r| (**r - 1.0).abs() > COVERAGE_TOLERANCE)
                .count();
            out.insert("obs.layer_coverage", stats::median(&all));
            out.insert("obs.coverage_misses", misses as f64);
        }
        out
    }

    /// Per-class medians of one layer metric (0 where a class lacks it).
    pub fn class_medians(&self, metric: &str) -> Vec<f64> {
        self.samples
            .iter()
            .map(|c| c.get(metric).map_or(0.0, |v| stats::median(v)))
            .collect()
    }
}

/// Figures of the timed sequence besides its latencies.
pub struct Measured {
    pub ops_per_s: f64,
    pub cpu_ms_per_op: f64,
    pub peak_rss_kb: u64,
}

/// The end-to-end figures a traced run reports ungated, from its
/// untraced ops: median, tail, throughput and CPU per op, plus the tail
/// percentile used and the samples beyond it in the smallest class.
pub fn observed(m: &mut BTreeMap<&'static str, f64>, lat: &ClassLatencies, meas: &Measured) {
    let (q, tail) = lat.tail();
    m.insert("e2e.latency_p50_ms", lat.p50());
    m.insert("e2e.latency_tail_ms", tail);
    m.insert("e2e.ops_per_s", meas.ops_per_s);
    m.insert("e2e.cpu_ms_per_op", meas.cpu_ms_per_op);
    m.insert("stats.tail_quantile", q);
    m.insert(
        "stats.tail_beyond",
        stats::beyond(lat.min_count(), q) as f64,
    );
}

fn parse_args() -> Result<Result<Args, PathBuf>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    if let Some(path) = flags.get("record") {
        return Ok(Err(PathBuf::from(path)));
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Ok(Args {
        workload: get("workload")?.to_string(),
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        pase: flags.get("pase").map(PathBuf::from),
        out_dir: PathBuf::from(flags.get("out-dir").copied().unwrap_or("perfbench/out")),
    }))
}

fn main() {
    let mut clock = SetupClock {
        next_start: Instant::now(),
        reps: Vec::new(),
    };
    let result = parse_args().and_then(|args| match args {
        Err(path) => record(&path).map(|()| None),
        Ok(args) => {
            let report = match args.workload.as_str() {
                "plan" => plan::run(&args, false, &mut clock),
                "plan-frontier" => plan::run(&args, true, &mut clock),
                "serve-hits" => serve::run(&args, false, &mut clock),
                "serve-churn" => serve::run(&args, true, &mut clock),
                other => Err(format!("unknown workload {other}")),
            };
            report.map(Some)
        }
    });
    match result {
        Ok(Some(report)) => {
            println!("{}", report.to_json());
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            std::process::exit(2);
        }
    }
}

/// Recompute every stored answer and write `expected.json` to `path`.
fn record(path: &std::path::Path) -> Result<(), String> {
    let mut rec = oracle::Recorder::new();
    plan::record(&mut rec)?;
    serve::record(&mut rec)?;
    std::fs::write(path, rec.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}
