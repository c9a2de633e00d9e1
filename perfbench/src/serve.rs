//! The planner-service workloads, run against a `pase serve --workers 2`
//! child process over 2 keep-alive connections in a closed loop.
//!
//! * `serve-hits` — a fixed key set warmed during set-up, so every timed
//!   request is a cache hit: wire parse, graph build, key hash, lookup,
//!   serialize and the socket path do the work, search does none.
//! * `serve-churn` — 80% hot keys, 20% a cold tail of 256 keys (four
//!   times the default 64-entry cache) plus an occasional wire batch:
//!   misses, puts, evictions, singleflight and the parallel fill.
//!
//! A traced run also replays a prefix of the same request lines in-process
//! through the same public functions the server calls, with a span around
//! each, so the socket path's share is what remains of the end-to-end
//! latency.

use crate::oracle::{self, Expected, Recorder};
use crate::plan::TWO_TIER_MESH;
use crate::rng::Rng;
use crate::spans::{OpSpans, Spans};
use crate::stats::{self, ClassLatencies};
use crate::{sys, Args, Layers, Measured, Report, SetupClock};
use pase_core::{Search, SearchOutcome, SearchReport};
use pase_cost::{ConfigRule, CostTables, PruneOptions, TableOptions};
use pase_obs::{json, Trace};
use pase_serve::{
    strategy_cache_key, write_batch_close, write_batch_open, write_frontier_response_json,
    write_response_json, CacheEntry, Lookup, Request, RequestKind, ShardedCache,
};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::os::unix::process::CommandExt as _;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Client connections and server workers (the machine's 2 vCPUs).
const CONNECTIONS: usize = 2;
/// Request lines per nominal second: fixed constants that size each run.
const HITS_LINES_PER_S: f64 = 3500.0;
const CHURN_LINES_PER_S: f64 = 1150.0;
/// Share of lines a traced run also replays in-process.
const REPLAY_SHARE: f64 = 0.5;
/// Cold-tail keys per cold base: distinct prune ε, so distinct cache keys
/// that cost the same to search.
const EPSILONS: usize = 32;
const BATCH_SHARE: f64 = 0.03;
const HOT_SHARE: f64 = 0.8;
/// A reply slower than this means the server hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One cache key family: a model cell on a machine, scalar or frontier.
#[derive(Clone, Copy)]
struct Key {
    model: &'static str,
    p: u32,
    two_tier: bool,
    frontier: bool,
}

const fn key(model: &'static str, p: u32, two_tier: bool, frontier: bool) -> Key {
    Key {
        model,
        p,
        two_tier,
        frontier,
    }
}

const HITS_KEYS: [Key; 6] = [
    key("mlp", 8, false, false),
    key("alexnet", 8, false, false),
    key("transformer", 32, false, false),
    key("inception", 32, false, false),
    key("alexnet", 32, true, false),
    key("inception", 8, false, true),
];

const HOT_KEYS: [Key; 4] = [
    key("mlp", 8, false, false),
    key("alexnet", 8, false, false),
    key("transformer", 32, false, false),
    key("alexnet", 32, true, false),
];

const COLD_BASES: [Key; 8] = [
    key("mlp", 8, false, false),
    key("mlp", 8, false, true),
    key("alexnet", 8, false, false),
    key("alexnet", 8, false, true),
    key("rnnlm", 8, false, false),
    key("rnnlm", 8, false, true),
    key("transformer", 8, false, false),
    key("transformer", 8, false, true),
];

impl Key {
    fn label(&self) -> String {
        let mesh = if self.two_tier { "twotier" } else { "flat" };
        let kind = if self.frontier { "frontier" } else { "scalar" };
        format!("serve/{}/{}/{mesh}/{kind}", self.model, self.p)
    }

    /// The wire request: exact pruning (ε = `eps`), the budget only for
    /// frontier keys.
    fn request(&self, eps: f64, budget: Option<u64>) -> String {
        let machine = if self.two_tier {
            TWO_TIER_MESH.to_string()
        } else {
            "\"1080ti\"".to_string()
        };
        let mut s = format!(
            "{{\"model\": \"{}\", \"devices\": {}, \"machine\": {machine}, \"prune\": true",
            self.model, self.p
        );
        if eps > 0.0 {
            s.push_str(&format!(", \"epsilon\": {}", json::number(eps)));
        }
        if let Some(b) = budget {
            s.push_str(&format!(", \"max_memory_bytes\": {b}"));
        }
        s.push('}');
        s
    }
}

fn epsilon(i: usize) -> f64 {
    (i + 1) as f64 * 1e-9
}

/// What one request element must answer.
struct Check {
    label: String,
    budget: Option<u64>,
}

/// One wire line of the seeded stream.
struct Line {
    text: String,
    class: usize,
    checks: Vec<Check>,
}

struct Stream {
    classes: Vec<String>,
    /// Classes answered from the cache in steady state (the transport
    /// residual is taken over these).
    hit_classes: Vec<usize>,
    warmup: Vec<Line>,
    timed: Vec<Line>,
}

fn single(
    k: &Key,
    eps: f64,
    class: usize,
    rng: &mut Rng,
    expected: &Expected,
    slack: f64,
) -> Result<Line, String> {
    let label = k.label();
    let budget = if k.frontier {
        let want = expected.get(&label)?;
        let lo = want.min_memory() as f64 * (1.0 - slack);
        let hi = want.top_memory() as f64 * (1.0 + slack);
        Some((lo + (hi - lo) * rng.unit()) as u64)
    } else {
        None
    };
    Ok(Line {
        text: k.request(eps, budget),
        class,
        checks: vec![Check { label, budget }],
    })
}

fn batch(keys: &[Key], class: usize, rng: &mut Rng) -> Line {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    rng.shuffle(&mut order);
    let elems: Vec<String> = order.iter().map(|&i| keys[i].request(0.0, None)).collect();
    Line {
        text: format!("{{\"batch\": [{}]}}", elems.join(", ")),
        class,
        checks: order
            .iter()
            .map(|&i| Check {
                label: keys[i].label(),
                budget: None,
            })
            .collect(),
    }
}

fn hits_stream(args: &Args, expected: &Expected) -> Result<Stream, String> {
    let mut rng = Rng::new(args.seed);
    let classes = HITS_KEYS.iter().map(Key::label).collect();
    let warmup = HITS_KEYS
        .iter()
        .enumerate()
        .map(|(c, k)| single(k, 0.0, c, &mut rng, expected, 0.0))
        .collect::<Result<_, _>>()?;
    let n = (args.seconds * HITS_LINES_PER_S).round() as usize;
    let timed = (0..n)
        .map(|_| {
            let c = rng.below(HITS_KEYS.len());
            // Budgets straddle the frontier's ends, so some are infeasible.
            single(&HITS_KEYS[c], 0.0, c, &mut rng, expected, 0.05)
        })
        .collect::<Result<_, _>>()?;
    Ok(Stream {
        classes,
        hit_classes: (0..HITS_KEYS.len()).collect(),
        warmup,
        timed,
    })
}

fn churn_stream(args: &Args, expected: &Expected) -> Result<Stream, String> {
    let mut rng = Rng::new(args.seed);
    let mut classes: Vec<String> = HOT_KEYS
        .iter()
        .map(|k| format!("hot {}", k.label()))
        .collect();
    let cold = classes.len();
    classes.extend(COLD_BASES.iter().map(|k| format!("cold {}", k.label())));
    let batch_class = classes.len();
    classes.push("batch".into());

    // Warm-up fills each cold base under an ε outside the cold tail, so
    // no timed cold request finds its key cached.
    let mut warmup: Vec<Line> = Vec::new();
    for (c, k) in HOT_KEYS.iter().enumerate() {
        warmup.push(single(k, 0.0, c, &mut rng, expected, 0.0)?);
    }
    for (i, k) in COLD_BASES.iter().enumerate() {
        warmup.push(single(
            k,
            epsilon(EPSILONS),
            cold + i,
            &mut rng,
            expected,
            0.0,
        )?);
    }
    warmup.push(batch(&HOT_KEYS, batch_class, &mut rng));

    // Each connection owns half of the cold tail and cycles through it in
    // a seeded order, so a key returns only after the connection's other
    // cold keys have evicted it: every timed cold request is a miss, even
    // though the two closed loops drift apart in the stream. (Sending a
    // cold request from both connections would exercise coalescing, but
    // which copy leads depends on timing, so the class of the copy that
    // waits would read as a hit.)
    let mut tail: Vec<(usize, usize)> = (0..COLD_BASES.len())
        .flat_map(|b| (0..EPSILONS).map(move |e| (b, e)))
        .collect();
    rng.shuffle(&mut tail);
    let owned: Vec<Vec<(usize, usize)>> = (0..CONNECTIONS)
        .map(|c| tail.iter().copied().skip(c).step_by(CONNECTIONS).collect())
        .collect();
    let mut cold_sent = [0; CONNECTIONS];
    let n = (args.seconds * CHURN_LINES_PER_S).round() as usize;
    let mut timed: Vec<Line> = Vec::with_capacity(n);
    while timed.len() < n {
        if rng.unit() < BATCH_SHARE {
            timed.push(batch(&HOT_KEYS, batch_class, &mut rng));
        } else if rng.unit() < HOT_SHARE {
            let c = rng.below(HOT_KEYS.len());
            timed.push(single(&HOT_KEYS[c], 0.0, c, &mut rng, expected, 0.0)?);
        } else {
            // Line i is sent by connection i % CONNECTIONS.
            let conn = timed.len() % CONNECTIONS;
            let (b, e) = owned[conn][cold_sent[conn] % owned[conn].len()];
            cold_sent[conn] += 1;
            let k = &COLD_BASES[b];
            timed.push(single(k, epsilon(e), cold + b, &mut rng, expected, 0.0)?);
        }
    }
    let mut hit_classes: Vec<usize> = (0..HOT_KEYS.len()).collect();
    hit_classes.push(batch_class);
    Ok(Stream {
        classes,
        hit_classes,
        warmup,
        timed,
    })
}

/// One timed request line: its index, latency in ms and checked reply.
type Timed = (usize, f64, Result<Reply, String>);

/// What a checked reply tells the benchmark.
struct Reply {
    /// Summed phase times of the search reports of elements that missed.
    miss_search_ms: Option<f64>,
}

fn ids_digest(v: &json::Value) -> Option<u64> {
    let ids: Option<Vec<u16>> = v
        .as_array()?
        .iter()
        .map(|x| x.as_u64().and_then(|x| u16::try_from(x).ok()))
        .collect();
    Some(oracle::digest(&ids?))
}

fn check_element(
    v: &json::Value,
    check: &Check,
    expected: &Expected,
) -> Result<Option<f64>, String> {
    if let Some(e) = v.get("error") {
        return Err(format!("{}: error response {e:?}", check.label));
    }
    let want = expected.get(&check.label)?;
    let cost = v.get("cost").and_then(json::Value::as_f64);
    let ids = v.get("strategy").and_then(ids_digest);
    let r = match check.budget {
        None => oracle::check_optimum(
            want,
            cost.ok_or("reply has no cost")?,
            ids.ok_or("reply has no strategy")?,
        ),
        Some(budget) => {
            let got = match v.get("infeasible").and_then(json::Value::as_bool) {
                Some(false) => Some((
                    cost.ok_or("reply has no cost")?,
                    v.get("peak_memory_bytes")
                        .and_then(json::Value::as_u64)
                        .ok_or("reply has no peak_memory_bytes")?,
                    ids.ok_or("reply has no strategy")?,
                )),
                Some(true) => None,
                None => return Err(format!("{}: reply has no infeasible flag", check.label)),
            };
            let floor = v.get("min_memory_bytes").and_then(json::Value::as_u64);
            oracle::check_pick(want, budget, got, floor.unwrap_or(0))
        }
    };
    r.map_err(|e| format!("{}: {e}", check.label))?;
    if v.get("cached").and_then(json::Value::as_bool) == Some(false) {
        let phases = v.get("report").and_then(|r| r.get("phases"));
        let Some(json::Value::Object(phases)) = phases else {
            return Err(format!("{}: miss reply has no report phases", check.label));
        };
        // The nested kernel span is already inside its fill phase.
        let secs: f64 = phases
            .iter()
            .filter(|(name, _)| name != "kernel")
            .filter_map(|(_, p)| p.get("time").and_then(json::Value::as_f64))
            .sum();
        return Ok(Some(secs * 1e3));
    }
    Ok(None)
}

fn check_reply(reply: &str, line: &Line, expected: &Expected) -> Result<Reply, String> {
    let v = json::parse(reply).map_err(|e| format!("unparseable reply: {e}"))?;
    let elems: Vec<&json::Value> = match v.get("batch") {
        Some(b) => b
            .as_array()
            .ok_or("batch reply is not an array")?
            .iter()
            .collect(),
        None => vec![&v],
    };
    if elems.len() != line.checks.len() {
        return Err(format!(
            "reply has {} elements for {} requests",
            elems.len(),
            line.checks.len()
        ));
    }
    let mut miss: Option<f64> = None;
    for (e, c) in elems.iter().zip(&line.checks) {
        if let Some(ms) = check_element(e, c, expected)? {
            *miss.get_or_insert(0.0) += ms;
        }
    }
    Ok(Reply {
        miss_search_ms: miss,
    })
}

/// One keep-alive client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Self {
            reader: BufReader::new(s),
            writer,
            buf: String::new(),
        })
    }

    /// Send one line and wait for its reply. A timeout or a closed
    /// connection is a hung or crashed server.
    fn call(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.buf.trim_end()),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }

    fn stats(&mut self) -> Result<ServerStats, String> {
        let reply = self.call("{\"stats\": true}")?;
        let v = json::parse(reply).map_err(|e| format!("stats reply: {e}"))?;
        let s = v.get("stats").ok_or("stats reply has no stats")?;
        let f = |name: &str| {
            s.get(name)
                .and_then(json::Value::as_u64)
                .ok_or_else(|| format!("stats reply has no {name}"))
        };
        Ok(ServerStats {
            requests: f("requests")?,
            hits: f("cache_hits")?,
            misses: f("cache_misses")?,
            coalesced: f("coalesced")?,
            entries: f("entries")?,
            bytes: f("cache_bytes")?,
        })
    }
}

struct ServerStats {
    requests: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    entries: u64,
    bytes: u64,
}

/// The `pase serve` child. Dropping it kills and reaps the process, so no
/// error path leaves a server behind.
struct Server {
    child: Option<Child>,
    addr: String,
    pid: u32,
}

impl Server {
    fn spawn(pase: &Path) -> Result<Self, String> {
        let mut cmd = Command::new(pase);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        // SAFETY: the hook runs in the forked child before exec and only
        // calls prctl(2), which is async-signal-safe.
        unsafe {
            cmd.pre_exec(|| {
                // The server dies with the benchmark even if the benchmark
                // is killed before its Drop can stop it.
                sys::die_with_parent();
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", pase.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().ok_or("no server stdout")?;
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            pid,
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(line) => line,
            Err(_) => {
                // Killing the server closes the pipe and ends the reader.
                drop(server);
                let _ = reader.join();
                return Err("server did not report its address within 30 s".into());
            }
        };
        let _ = reader.join();
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or("server printed no address")?
            .to_string();
        Ok(server)
    }

    /// SIGINT must drain the server and end it with exit code 0.
    fn shutdown(mut self) -> Result<(), String> {
        let mut child = self.child.take().ok_or("server already stopped")?;
        sys::signal(self.pid, sys::SIGINT)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status} after SIGINT")),
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit within 20 s of SIGINT".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn elements(lines: &[Line]) -> u64 {
    lines.iter().map(|l| l.checks.len() as u64).sum()
}

pub fn run(args: &Args, churn: bool, clock: &mut SetupClock) -> Result<Report, String> {
    let pase = args
        .pase
        .as_deref()
        .ok_or("serve workloads need --pase <path to the pase binary>")?;
    let expected = Expected::load()?;
    let mut failures: Vec<String> = Vec::new();

    // Set-up: generate the stream, start a server and fill its cache;
    // repeated (each earlier server drained with SIGINT) for a median.
    let reps = if args.trace { 1 } else { crate::SETUP_REPS };
    let mut live = None;
    let mut stream = None;
    for rep in 0..reps {
        clock.begin();
        let s = if churn {
            churn_stream(args, &expected)?
        } else {
            hits_stream(args, &expected)?
        };
        let server = Server::spawn(pase)?;
        let mut conn = Conn::open(&server.addr)?;
        for line in &s.warmup {
            let reply = conn.call(&line.text)?;
            if let Err(e) = check_reply(reply, line, &expected) {
                failures.push(format!("warm-up {e}"));
            }
        }
        let warm = conn.stats()?;
        clock.end();
        if warm.requests != elements(&s.warmup) + 1 {
            return Err(format!(
                "server counted {} requests, {} were sent",
                warm.requests,
                elements(&s.warmup) + 1
            ));
        }
        // The set-up connection would sit idle through the timed phase and
        // hit the server's idle timeout; the final probe opens its own.
        drop(conn);
        if rep + 1 < reps {
            server.shutdown()?;
        } else {
            live = Some((server, warm));
            stream = Some(s);
        }
    }
    let (server, warm) = live.ok_or("no set-up pass ran")?;
    let stream = stream.ok_or("no set-up pass ran")?;
    let rss_warm = sys::status_kb(Some(server.pid), "VmRSS")?;

    // Timed: each connection sends every CONNECTIONS-th line, closed loop.
    let cpu0 = sys::cpu_time(Some(server.pid))?;
    let start = Instant::now();
    let per_conn: Vec<Result<Vec<Timed>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (stream, expected, addr) = (&stream, &expected, &server.addr);
                scope.spawn(move || {
                    let mut conn = Conn::open(addr)?;
                    let mut out = Vec::new();
                    for (i, line) in stream.timed.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                        let t = Instant::now();
                        let reply = conn.call(&line.text)?;
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        out.push((i, ms, check_reply(reply, line, expected)));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed();
    let cpu = sys::cpu_time(Some(server.pid))?.saturating_sub(cpu0);

    let mut lat = ClassLatencies::new(stream.classes.clone());
    let mut miss_ms: Vec<Vec<f64>> = vec![Vec::new(); stream.classes.len()];
    for results in per_conn {
        for (i, ms, reply) in results? {
            let class = stream.timed[i].class;
            lat.push(class, ms);
            match reply {
                Ok(r) => miss_ms[class].extend(r.miss_search_ms),
                Err(e) => failures.push(e),
            }
        }
    }
    let end = Conn::open(&server.addr)?.stats()?;
    let rss_end = sys::status_kb(Some(server.pid), "VmRSS")?;
    let peak_kb = sys::status_kb(Some(server.pid), "VmHWM")?;
    let sent = elements(&stream.warmup) + elements(&stream.timed) + 2;
    let mut sound = true;
    if end.requests != sent {
        eprintln!(
            "perfbench: FAIL server counted {} requests, {sent} were sent",
            end.requests
        );
        sound = false;
    }
    if let Err(e) = server.shutdown() {
        eprintln!("perfbench: FAIL {e}");
        sound = false;
    }

    let ops = stream.timed.len() as f64;
    let measured = Measured {
        ops_per_s: ops / wall.as_secs_f64(),
        cpu_ms_per_op: cpu.as_secs_f64() * 1e3 / ops,
        peak_rss_kb: peak_kb,
    };
    let mut m = std::collections::BTreeMap::new();
    if args.trace {
        crate::observed(&mut m, &lat, &measured);
        let timed_requests = elements(&stream.timed) as f64;
        let hits = end.hits - warm.hits;
        let misses = end.misses - warm.misses;
        let coalesced = end.coalesced - warm.coalesced;
        m.insert("serve.cache_hits", hits as f64);
        m.insert("serve.cache_misses", misses as f64);
        m.insert("serve.coalesced", coalesced as f64);
        m.insert(
            "serve.hit_ratio",
            hits as f64 / (hits + misses + coalesced).max(1) as f64,
        );
        m.insert("serve.cache_entries", end.entries as f64);
        m.insert("serve.cache_bytes", end.bytes as f64);
        m.insert(
            "obs.rss_growth_kb_per_kreq",
            (rss_end as f64 - rss_warm as f64) / (timed_requests / 1000.0),
        );
        let miss_medians: Vec<f64> = miss_ms
            .iter()
            .filter(|v| v.len() >= stats::MIN_CLASS_SAMPLES / 4)
            .map(|v| stats::median(v))
            .collect();
        if !miss_medians.is_empty() {
            m.insert("serve.miss_search_ms", stats::geomean(&miss_medians));
        }
        replay(args, &stream, &expected, &lat, &mut m, &mut failures)?;
    }
    for f in failures.iter().take(5) {
        eprintln!("perfbench: FAIL {f}");
    }
    let mut report = Report::new(stream.timed.len() as u64, failures.len() as u64, sound);
    if args.trace {
        report.per_layer(m);
    } else {
        report.end_to_end(clock, &lat, &measured);
    }
    Ok(report)
}

/// The server's request path, in-process and spanned: parse → per
/// element graph build → cache key → lookup → (miss: search + report +
/// fill) → serialize. Mirrors `pase_serve`'s answer path through its
/// public functions, on a cache sized like `pase serve --workers 2`.
struct InProcess {
    cache: ShardedCache,
}

impl InProcess {
    fn answer(&self, line: &str, mut spans: OpSpans) -> Result<String, String> {
        let mut out = String::new();
        let op = spans.open("op");
        let span = spans.open("parse");
        let kind = RequestKind::parse(line).map_err(|e| e.to_string())?;
        spans.close(span);
        let (reqs, is_batch) = match kind {
            RequestKind::Search(r) => (vec![*r], false),
            RequestKind::Batch(rs) => (rs, true),
            RequestKind::Stats => return Err("unexpected stats line".into()),
        };
        if is_batch {
            let span = spans.open("serialize");
            write_batch_open(&mut out);
            spans.close(span);
        }
        for (i, req) in reqs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let span = spans.open("graph_build");
            let graph = pase_models::build_named(&req.model, req.devices, req.weak_scaling)?;
            spans.close(span);
            let rule = ConfigRule::new(req.devices);
            let span = spans.open("key");
            let key = strategy_cache_key(
                &graph,
                &rule,
                &req.machine,
                req.prune.then_some(req.epsilon),
                req.wants_frontier(),
            );
            spans.close(span);
            let span = spans.open("lookup");
            let looked = self.cache.lookup(key);
            spans.close(span);
            let (entry, cached) = match looked {
                Lookup::Hit(e) | Lookup::Coalesced(e) => (e, true),
                Lookup::Miss(guard) => {
                    let span = spans.open("miss_search");
                    let entry = search(req, &graph, rule)?;
                    guard.fulfill(entry.clone()).map_err(|e| e.to_string())?;
                    spans.close(span);
                    (entry, false)
                }
            };
            let span = spans.open("serialize");
            serialize(req, key, cached, &entry, &mut out);
            spans.close(span);
            // Freeing is charged to the layer that allocated: the graph to
            // graph build, the entry copy the cache handed out to lookup.
            let span = spans.open("graph_build");
            drop(graph);
            spans.close(span);
            let span = spans.open("lookup");
            drop(entry);
            spans.close(span);
        }
        if is_batch {
            let span = spans.open("serialize");
            write_batch_close(&mut out);
            spans.close(span);
        }
        spans.close(op);
        Ok(out)
    }
}

/// A fresh search configured as the server configures it.
fn search(
    req: &Request,
    graph: &pase_graph::Graph,
    rule: ConfigRule,
) -> Result<CacheEntry, String> {
    let trace = Trace::new();
    let mut s = Search::new(graph)
        .rule(rule)
        .mesh(req.machine.clone())
        .budget(req.budget)
        .prune_gate(req.prune_gate)
        .trace(&trace);
    if req.prune {
        s = s.pruning(PruneOptions {
            epsilon: req.epsilon,
            ..PruneOptions::default()
        });
    }
    if req.wants_frontier() {
        s = s.frontier();
    }
    let run = s.run();
    let report = SearchReport::new(&req.model, req.devices, run.outcome(), Some(&trace)).to_json();
    match run.outcome() {
        SearchOutcome::Found(r) => Ok(CacheEntry {
            model: req.model.clone(),
            devices: req.devices,
            cost: r.cost,
            config_ids: r.config_ids.clone(),
            frontier: run
                .frontier()
                .map_or_else(Vec::new, |f| f.points().to_vec()),
            report_json: report,
        }),
        other => Err(format!("{} search ended {}", req.model, other.tag())),
    }
}

fn serialize(req: &Request, key: u64, cached: bool, entry: &CacheEntry, out: &mut String) {
    if !req.wants_frontier() {
        return write_response_json(
            out,
            key,
            cached,
            Some(entry.cost),
            Some(&entry.config_ids),
            &entry.report_json,
        );
    }
    let points = &entry.frontier;
    let picked = match req.max_memory_bytes {
        Some(b) => points.iter().find(|p| p.memory_bytes <= b),
        None => points.first(),
    };
    write_frontier_response_json(
        out,
        key,
        cached,
        picked.map(|p| (p.cost, p.memory_bytes, p.config_ids.as_slice())),
        points.last().map_or(0, |p| p.memory_bytes),
        req.frontier.then_some(points.as_slice()),
        &entry.report_json,
    );
}

fn serve_layer(name: &str) -> Option<&'static str> {
    Some(match name {
        "parse" => "serve.parse_us",
        "graph_build" => "serve.graph_build_us",
        "key" => "serve.key_us",
        "lookup" => "serve.lookup_us",
        "serialize" => "serve.serialize_us",
        // Counted for the accounting check; the reported miss-search time
        // comes from the server's own replies.
        "miss_search" => "replay.miss_search_ms",
        _ => return None,
    })
}

/// Replay a prefix of the stream in-process, every other line spanned,
/// on a cache warmed by the same warm-up lines.
fn replay(
    args: &Args,
    stream: &Stream,
    expected: &Expected,
    socket: &ClassLatencies,
    m: &mut std::collections::BTreeMap<&'static str, f64>,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let inproc = InProcess {
        cache: ShardedCache::new(2, 64, None, true),
    };
    for line in &stream.warmup {
        let reply = inproc.answer(&line.text, OpSpans::new(None, 0))?;
        if let Err(e) = check_reply(&reply, line, expected) {
            failures.push(format!("replay warm-up {e}"));
        }
    }
    let n = ((stream.timed.len() as f64) * REPLAY_SHARE) as usize;
    let mut spans = Spans::with_capacity(16 * n);
    let mut layers = Layers::new(stream.classes.len());
    let mut traced_lat = ClassLatencies::new(stream.classes.clone());
    let mut untraced_lat = ClassLatencies::new(stream.classes.clone());
    for (i, line) in stream.timed[..n].iter().enumerate() {
        let t = Instant::now();
        let traced = i % 2 == 0;
        let rec = traced.then_some(&mut spans);
        let reply = inproc.answer(&line.text, OpSpans::new(rec, i as u64))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if traced {
            traced_lat.push(line.class, ms);
            let root = spans
                .recs
                .iter()
                .rposition(|r| r.parent.is_none() && r.op == i as u64)
                .ok_or("replayed op has no root span")?;
            layers.add_op(&spans, root, line.class, serve_layer);
        } else {
            untraced_lat.push(line.class, ms);
        }
        if let Err(e) = check_reply(&reply, line, expected) {
            failures.push(format!("replay {e}"));
        }
    }
    if let Err(e) = layers.check_accounting(&stream.classes) {
        failures.push(format!("replay {e}"));
    }
    spans.write_jsonl(&args.spans_path())?;
    m.extend(layers.metrics());
    m.insert(
        "obs.tracing_overhead_ms",
        traced_lat.p50() - untraced_lat.p50(),
    );
    // Transport: what the socket path adds to a hit beyond the five
    // in-process layers, per hit class, averaged.
    let e2e = socket.class_medians();
    let names = [
        "serve.parse_us",
        "serve.graph_build_us",
        "serve.key_us",
        "serve.lookup_us",
        "serve.serialize_us",
    ];
    let layer_us: Vec<Vec<f64>> = names.iter().map(|n| layers.class_medians(n)).collect();
    let residuals: Vec<f64> = stream
        .hit_classes
        .iter()
        .map(|&c| e2e[c] * 1e3 - layer_us.iter().map(|l| l[c]).sum::<f64>())
        .collect();
    m.insert(
        "serve.transport_us",
        residuals.iter().sum::<f64>() / residuals.len() as f64,
    );
    Ok(())
}

/// Record the expected answer of every serve key; every ε variant of a
/// cold base must agree with the others.
pub fn record(rec: &mut Recorder) -> Result<(), String> {
    let mut keys: Vec<(Key, f64)> = HITS_KEYS
        .iter()
        .chain(&HOT_KEYS)
        .map(|k| (*k, 0.0))
        .collect();
    for k in &COLD_BASES {
        keys.extend((0..=EPSILONS).map(|i| (*k, epsilon(i))));
    }
    for (k, eps) in keys {
        // Any budget makes a frontier request; the server searches the
        // whole frontier regardless.
        let budget = k.frontier.then_some(u64::MAX);
        let req = Request::parse(&k.request(eps, budget)).map_err(|e| e.to_string())?;
        let graph = pase_models::build_named(&req.model, req.devices, req.weak_scaling)?;
        let rule = ConfigRule::new(req.devices);
        let entry = search(&req, &graph, rule)?;
        // The tables that search ran on, for the oracle's checks.
        let tables =
            CostTables::build_mesh(&graph, rule, &req.machine, &TableOptions::default(), None);
        rec.add(
            k.label(),
            &graph,
            &tables,
            k.p,
            entry.cost,
            &entry.config_ids,
            oracle::points_of(&entry.frontier),
        )?;
    }
    eprintln!("recorded serve keys");
    Ok(())
}
