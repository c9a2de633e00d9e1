//! The planner service: a multi-threaded TCP server for strategy searches.
//!
//! Pure std: a nonblocking [`TcpListener`] accept loop feeds connections to
//! a bounded worker pool over an `mpsc` channel; each worker speaks the
//! newline-delimited JSON protocol of [`crate::protocol`] and answers
//! through the [`StrategyCache`]. Shutdown is cooperative — an
//! [`AtomicBool`] flag (typically wired to SIGINT via
//! [`crate::install_sigint`]) stops the accept loop, after which workers
//! drain buffered and in-flight requests before the pool joins.
//!
//! Observability rides on a [`pase_obs::Trace`]: one `"request"` span per
//! request (latency), plus `requests` / `cache_hits` / `cache_misses` /
//! `coalesced` counter samples.
//!
//! The cache sits behind a [`ShardedCache`] — lock-striped stripes plus a
//! singleflight layer that coalesces concurrent identical queries into one
//! search (see [`crate::sharded`]); the `{"stats": true}` wire request
//! exposes its counters.

use crate::cache::{strategy_cache_key, CacheEntry};
use crate::protocol::{
    write_batch_close, write_batch_open, write_error_json, write_frontier_response_json,
    write_response_json, write_stats_json, Request, RequestKind,
};
use crate::sharded::{Lookup, ShardedCache};
use pase_core::{cheapest_within, FrontierPoint, Search, SearchOutcome, SearchReport};
use pase_cost::{ConfigRule, PruneOptions};
use pase_obs::Trace;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// How long the accept loop sleeps between polls, and the read timeout
/// granularity at which idle connections notice a shutdown.
const POLL: Duration = Duration::from_millis(20);

/// Accept-loop sleep. Unlike the read timeout (which wakes as soon as
/// bytes arrive), this sleep bounds how long a queued connection waits to
/// be accepted, so it is kept much shorter than [`POLL`] — at 20ms it was
/// the p99 of every benchmarked request mix.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Maximum accepted request-line length. A client streaming bytes without
/// a newline is cut off here instead of growing the buffer unboundedly.
pub(crate) const MAX_LINE: usize = 4 << 20;

/// Which connection front end [`Server::run`] drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontEnd {
    /// Thread-per-connection loop: each accepted connection occupies a
    /// worker thread for its whole lifetime. Kept as the A/B baseline.
    Threaded,
    /// Event-driven epoll readiness loop (linux only): one event thread
    /// owns every connection's buffers and workers only ever see complete
    /// request lines, so idle connections cost bytes, not threads.
    Event,
}

impl Default for FrontEnd {
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            FrontEnd::Event
        } else {
            FrontEnd::Threaded
        }
    }
}

impl FrontEnd {
    /// Parse a CLI-style name (`"event"` / `"threaded"`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "event" => Ok(FrontEnd::Event),
            "threaded" => Ok(FrontEnd::Threaded),
            other => Err(format!(
                "unknown front end '{other}' (expected 'event' or 'threaded')"
            )),
        }
    }

    /// The CLI-style name (inverse of [`FrontEnd::parse`]).
    pub fn as_str(self) -> &'static str {
        match self {
            FrontEnd::Event => "event",
            FrontEnd::Threaded => "threaded",
        }
    }
}

/// Planner service configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker-pool size (bounds concurrent searches).
    pub workers: usize,
    /// Default per-request deadline; a request's `deadline_ms` or
    /// `budget_seconds` may shorten but never extend it.
    pub deadline: Duration,
    /// In-memory strategy-cache capacity (entries).
    pub cache_capacity: usize,
    /// Approximate in-memory strategy-cache byte budget (0 = unbounded).
    /// Entries vary wildly in size — frontier entries carry the whole
    /// Pareto set — so the byte-weighted LRU evicts by bytes before the
    /// entry cap (see [`crate::StrategyCache::with_max_bytes`]).
    pub cache_max_bytes: u64,
    /// Directory for persistent cache entries (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
    /// Connections with no complete request line for this long are closed,
    /// so idle keep-alive clients cannot pin workers (each connection
    /// occupies a worker for its whole lifetime) and starve the accept
    /// queue.
    pub idle_timeout: Duration,
    /// Cache lock stripes (rounded up to a power of two). `0` (the
    /// default) derives the count from the worker pool:
    /// `min(16, workers.next_power_of_two())`, so a 2-worker server does
    /// not pay 16-stripe overhead. `1` reproduces the single-mutex PR 4
    /// cache for A/B benchmarking.
    pub cache_shards: usize,
    /// Coalesce concurrent identical queries into one search (default on).
    pub singleflight: bool,
    /// Connection front end (see [`FrontEnd`]; default [`FrontEnd::Event`]
    /// on linux, [`FrontEnd::Threaded`] elsewhere).
    pub frontend: FrontEnd,
    /// Optional zoo-prewarm spec (`models:devices:machines`, each a
    /// comma-separated list — e.g. `"mlp,resnet:4,8:test"`). The
    /// cross-product is searched through the normal singleflight lookup
    /// path before the server accepts its first connection, so a
    /// prewarmed server answers matching queries as cache hits.
    pub prewarm: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            deadline: Duration::from_secs(120),
            cache_capacity: 64,
            cache_max_bytes: 0,
            cache_dir: None,
            idle_timeout: Duration::from_secs(30),
            cache_shards: 0,
            singleflight: true,
            frontend: FrontEnd::default(),
            prewarm: None,
        }
    }
}

/// Totals reported by [`Server::run`] after shutdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered (including error and stats responses).
    pub requests: u64,
    /// Requests answered from the strategy cache.
    pub cache_hits: u64,
    /// Requests that ran a fresh search.
    pub cache_misses: u64,
    /// Requests answered by waiting on another request's identical
    /// in-flight search (the singleflight layer).
    pub coalesced: u64,
    /// Cache entries filled by `--prewarm` before the first accept.
    pub prewarmed: u64,
}

/// Shared per-server state handed to every worker.
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) cache: ShardedCache,
    pub(crate) shutdown: AtomicBool,
    pub(crate) trace: Trace,
    pub(crate) requests: AtomicU64,
    pub(crate) prewarmed: AtomicU64,
}

/// A bound planner service. Construct with [`Server::bind`], then call
/// [`Server::run`] (blocking) from the serving thread.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener and assemble the cache. The server does not
    /// accept connections until [`Server::run`].
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        // Stripe count follows the worker pool unless pinned: more stripes
        // than workers only buys lock padding nobody contends on.
        let shards = if cfg.cache_shards == 0 {
            cfg.workers.max(1).next_power_of_two().min(16)
        } else {
            cfg.cache_shards
        };
        let cache = ShardedCache::new(
            shards,
            cfg.cache_capacity,
            cfg.cache_dir.clone(),
            cfg.singleflight,
        )
        .with_max_bytes(cfg.cache_max_bytes);
        Ok(Self {
            listener,
            shared: Arc::new(Shared {
                cfg,
                cache,
                shutdown: AtomicBool::new(false),
                trace: Trace::new(),
                requests: AtomicU64::new(0),
                prewarmed: AtomicU64::new(0),
            }),
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops the server when set to `true`: the accept loop
    /// exits, in-flight requests drain, and [`Server::run`] returns.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Accept connections and serve until the shutdown flag is set.
    /// Returns the request/cache totals once every worker has drained.
    ///
    /// If [`ServerConfig::prewarm`] is set, the zoo is searched first —
    /// clients that connect during the prewarm wait in the listen backlog.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        if let Some(spec) = self.shared.cfg.prewarm.clone() {
            let n = crate::prewarm::prewarm(&spec, &self.shared)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
            self.shared.prewarmed.store(n, Ordering::SeqCst);
        }
        match self.shared.cfg.frontend {
            FrontEnd::Threaded => self.run_threaded(),
            #[cfg(target_os = "linux")]
            FrontEnd::Event => crate::event::run(self.listener, self.shared),
            #[cfg(not(target_os = "linux"))]
            FrontEnd::Event => Err(std::io::Error::new(
                ErrorKind::Unsupported,
                "the event front end needs linux epoll; use FrontEnd::Threaded",
            )),
        }
    }

    /// The thread-per-connection front end ([`FrontEnd::Threaded`]).
    fn run_threaded(self) -> std::io::Result<ServeSummary> {
        self.listener.set_nonblocking(true)?;
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..self.shared.cfg.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || {
                    // One response buffer per worker, reused across every
                    // connection and request this worker ever serves.
                    let mut buf = String::new();
                    loop {
                        // Holding the lock only for recv() keeps the pool
                        // work-stealing: whichever worker is idle takes the
                        // next connection.
                        let next = rx.lock().expect("worker queue").recv();
                        match next {
                            Ok(stream) => handle_connection(stream, &shared, &mut buf),
                            Err(_) => break, // accept loop closed the channel
                        }
                    }
                })
            })
            .collect();

        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Request/response lines are tiny; Nagle + delayed ACK
                    // would add tens of ms to every round trip.
                    let _ = stream.set_nodelay(true);
                    // A send can only fail if all workers died; surface
                    // that as a server error rather than spinning.
                    if tx.send(stream).is_err() {
                        return Err(std::io::Error::new(
                            ErrorKind::Other,
                            "worker pool terminated unexpectedly",
                        ));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain the listen backlog: connections whose handshake completed
        // before shutdown was requested still get served.
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        // Closing the channel lets each worker finish its queued and
        // in-flight connections, then exit — the graceful drain.
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        Ok(summarize(&self.shared))
    }
}

/// Snapshot the request/cache totals for [`ServeSummary`] — shared by
/// both front ends at shutdown.
pub(crate) fn summarize(shared: &Shared) -> ServeSummary {
    let counters = shared.cache.counters();
    ServeSummary {
        requests: shared.requests.load(Ordering::SeqCst),
        cache_hits: counters.hits,
        cache_misses: counters.misses,
        coalesced: counters.coalesced,
        prewarmed: shared.prewarmed.load(Ordering::SeqCst),
    }
}

/// Clonable stop signal for a [`Server`] (see [`Server::shutdown_handle`]).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Request shutdown: stop accepting, drain in-flight work, return from
    /// [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// Reads newline-delimited lines from a stream with a poll-granularity
/// read timeout, so idle connections notice shutdown without losing
/// partially received lines (BufReader's `read_line` may drop a partial
/// line on timeout; this accumulator never does).
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

enum Line {
    /// A complete line (without the trailing newline).
    Full(String),
    /// No complete line yet; the read timed out.
    Pending,
    /// The peer closed the connection.
    Eof,
    /// The line exceeded [`MAX_LINE`] before a newline arrived.
    TooLong,
}

impl LineReader {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(POLL))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    fn next_line(&mut self) -> std::io::Result<Line> {
        loop {
            if let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(nl + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Line::Full(String::from_utf8_lossy(&line).into_owned()));
            }
            if self.buf.len() > MAX_LINE {
                return Ok(Line::TooLong);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Line::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(Line::Pending)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Serve one connection until EOF, an I/O error, the configured idle
/// timeout, or (once shutdown has been requested) the first idle poll. Buffered
/// requests are always answered before the connection closes — that is
/// the drain guarantee.
fn handle_connection(stream: TcpStream, shared: &Shared, out: &mut String) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = match LineReader::new(stream) {
        Ok(r) => r,
        Err(_) => return,
    };
    // `out` is the worker's reusable response buffer: every response is
    // rendered into it (after a clear) and written straight to the socket,
    // so the steady-state serve path allocates nothing per response.
    // One write per response: the newline is appended into the reused
    // buffer so the whole line goes out in a single segment.
    let mut respond = |response: &str| {
        writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.flush())
            .is_ok()
    };
    let max_idle_polls = (shared.cfg.idle_timeout.as_millis() / POLL.as_millis()).max(1);
    let mut idle_polls = 0u128;
    loop {
        match reader.next_line() {
            Ok(Line::Full(line)) => {
                idle_polls = 0;
                if line.trim().is_empty() {
                    continue;
                }
                out.clear();
                handle_line(&line, shared, out);
                out.push('\n');
                if !respond(out) {
                    return;
                }
            }
            Ok(Line::Pending) => {
                idle_polls += 1;
                if shared.shutdown.load(Ordering::SeqCst) || idle_polls >= max_idle_polls {
                    return;
                }
            }
            Ok(Line::TooLong) => {
                out.clear();
                write_error_json(
                    out,
                    &pase_core::Error::Protocol(format!("request line exceeds {MAX_LINE} bytes")),
                );
                out.push('\n');
                respond(out);
                return;
            }
            Ok(Line::Eof) | Err(_) => return,
        }
    }
}

/// Answer one request line into `out` (cleared by the caller). A line is
/// a single search, a `batch` of searches (answered in order as one
/// response array), or a `stats` probe; each batch element is counted
/// and spanned as its own request.
pub(crate) fn handle_line(line: &str, shared: &Shared, out: &mut String) {
    match RequestKind::parse(line) {
        Ok(RequestKind::Batch(reqs)) => {
            shared.trace.counter("batch_size", reqs.len() as u64);
            write_batch_open(out);
            for (i, req) in reqs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let mut span = shared.trace.span("request");
                let n = shared.requests.fetch_add(1, Ordering::SeqCst) + 1;
                shared.trace.counter("requests", n);
                span.arg("model", req.model.as_str());
                answer_search(req, shared, out);
            }
            write_batch_close(out);
        }
        Ok(RequestKind::Search(req)) => {
            let mut span = shared.trace.span("request");
            let n = shared.requests.fetch_add(1, Ordering::SeqCst) + 1;
            shared.trace.counter("requests", n);
            span.arg("model", req.model.as_str());
            answer_search(&req, shared, out);
        }
        Ok(RequestKind::Stats) => {
            let _span = shared.trace.span("request");
            let n = shared.requests.fetch_add(1, Ordering::SeqCst) + 1;
            shared.trace.counter("requests", n);
            let counters = shared.cache.counters();
            write_stats_json(
                out,
                n,
                counters.hits,
                counters.misses,
                counters.coalesced,
                counters.in_flight,
                shared.cache.len() as u64,
                shared.cache.bytes(),
            );
        }
        Err(e) => {
            let _span = shared.trace.span("request");
            let n = shared.requests.fetch_add(1, Ordering::SeqCst) + 1;
            shared.trace.counter("requests", n);
            write_error_json(out, &e);
        }
    }
}

/// Answer a frontier-family request from a Pareto point set (cached or
/// fresh): select the cheapest point that fits `max_memory_bytes` (the
/// min-time point when unconstrained), falling back to an
/// `"infeasible": true` response when nothing fits. The selection runs at
/// response time, never at search time — that is what lets one cached
/// frontier serve every budget variant of the same search.
fn write_frontier_from_points(
    req: &Request,
    key: u64,
    cached: bool,
    points: &[FrontierPoint],
    report_json: &str,
    out: &mut String,
) {
    let picked = match req.max_memory_bytes {
        Some(budget) => cheapest_within(points, budget),
        None => points.first(),
    };
    let min_memory_bytes = points.last().map_or(0, |p| p.memory_bytes);
    write_frontier_response_json(
        out,
        key,
        cached,
        picked.map(|p| (p.cost, p.memory_bytes, p.config_ids.as_slice())),
        min_memory_bytes,
        req.frontier.then_some(points),
        report_json,
    );
}

/// Answer one parsed search request into `out`: consult the sharded cache
/// (possibly coalescing onto an identical in-flight search), run a fresh
/// search on a miss. Also the prewarm path — zoo entries are filled
/// through exactly this lookup.
///
/// Frontier-family requests (`max_memory_bytes` / `frontier`) run the
/// frontier DP *unconstrained* and cache the whole Pareto set under a key
/// that excludes the budget; the budget is applied by point selection on
/// the way out, so follow-up queries with any other budget are cache hits.
pub(crate) fn answer_search(req: &Request, shared: &Shared, out: &mut String) {
    let graph = match pase_models::build_named(&req.model, req.devices, req.weak_scaling) {
        Ok(g) => g,
        Err(msg) => return write_error_json(out, &pase_core::Error::Protocol(msg)),
    };
    let rule = ConfigRule::new(req.devices);
    let wants_frontier = req.wants_frontier();
    let key = strategy_cache_key(
        &graph,
        &rule,
        &req.machine,
        req.prune.then_some(req.epsilon),
        wants_frontier,
    );

    let guard = match shared.cache.lookup(key) {
        Lookup::Hit(entry) | Lookup::Coalesced(entry) => {
            let counters = shared.cache.counters();
            shared.trace.counter("cache_hits", counters.hits);
            shared.trace.counter("coalesced", counters.coalesced);
            if wants_frontier {
                return write_frontier_from_points(
                    req,
                    key,
                    true,
                    &entry.frontier,
                    &entry.report_json,
                    out,
                );
            }
            return write_response_json(
                out,
                key,
                true,
                Some(entry.cost),
                Some(&entry.config_ids),
                &entry.report_json,
            );
        }
        Lookup::Miss(guard) => {
            shared
                .trace
                .counter("cache_misses", shared.cache.counters().misses);
            guard
        }
    };

    // The effective wall clock is the tightest of the client's budget, the
    // client's explicit deadline, and the server's deadline policy.
    let mut budget = req.budget;
    budget.max_time = budget
        .max_time
        .min(req.deadline.unwrap_or(shared.cfg.deadline));

    let trace = Trace::new();
    let mut search = Search::new(&graph)
        .rule(rule)
        .mesh(req.machine.clone())
        .budget(budget)
        .prune_gate(req.prune_gate)
        .trace(&trace);
    if req.prune {
        search = search.pruning(PruneOptions {
            epsilon: req.epsilon,
            ..PruneOptions::default()
        });
    }
    if wants_frontier {
        // Deliberately only `.frontier()`, never `.max_memory_bytes()`:
        // the engine computes the full Pareto set and the budget is
        // applied per-response above, keeping the cached entry
        // budget-agnostic.
        search = search.frontier();
    }
    let run = search.run();
    let report = SearchReport::new(&req.model, req.devices, run.outcome(), Some(&trace)).to_json();

    match run.outcome() {
        SearchOutcome::Found(r) => {
            let frontier = run
                .frontier()
                .map_or_else(Vec::new, |f| f.points().to_vec());
            let entry = CacheEntry {
                model: req.model.clone(),
                devices: req.devices,
                cost: r.cost,
                config_ids: r.config_ids.clone(),
                frontier: frontier.clone(),
                report_json: report.clone(),
            };
            if wants_frontier {
                write_frontier_from_points(req, key, false, &frontier, &report, out);
            } else {
                write_response_json(out, key, false, Some(r.cost), Some(&r.config_ids), &report);
            }
            // Fulfilling releases any coalesced waiters; failed outcomes
            // instead drop the guard below, letting a waiter retry with
            // its own deadline.
            if let Err(e) = guard.fulfill(entry) {
                // Persistence is best-effort: the response is still served
                // from the in-memory entry.
                eprintln!("pase-serve: cache persistence failed: {e}");
            }
        }
        _ => write_response_json(out, key, false, None, None, &report),
    }
}

static SIGINT_FLAG: AtomicBool = AtomicBool::new(false);

/// Install a SIGINT (ctrl-c) handler that triggers `handle` — the handler
/// itself only sets a static flag (async-signal-safe); a forwarder thread
/// relays it to the [`ShutdownHandle`]. Call at most once per process.
#[cfg(unix)]
pub fn install_sigint(handle: ShutdownHandle) {
    extern "C" fn on_sigint(_sig: i32) {
        SIGINT_FLAG.store(true, Ordering::SeqCst);
    }
    extern "C" {
        // POSIX signal(2); libc is always linked into std binaries on unix,
        // so no external crate is needed.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    let f: extern "C" fn(i32) = on_sigint;
    unsafe {
        signal(SIGINT, f as usize);
    }
    std::thread::spawn(move || loop {
        if SIGINT_FLAG.load(Ordering::SeqCst) {
            handle.shutdown();
            break;
        }
        std::thread::sleep(POLL);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pase_obs::json;
    use std::io::{BufRead, BufReader};

    fn start(
        cfg: ServerConfig,
    ) -> (
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<ServeSummary>,
    ) {
        let server = Server::bind(cfg).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().expect("run"));
        (addr, handle, join)
    }

    fn query(addr: SocketAddr, line: &str) -> json::Value {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("response");
        json::parse(&response).expect("valid response JSON")
    }

    const MLP: &str =
        "{\"model\": \"mlp\", \"devices\": 4, \"machine\": \"test\", \"weak_scaling\": false}";

    #[test]
    fn concurrent_clients_all_get_answers() {
        let (addr, handle, join) = start(ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        });
        let clients: Vec<_> = (0..3)
            .map(|_| std::thread::spawn(move || query(addr, MLP)))
            .collect();
        let responses: Vec<json::Value> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let costs: Vec<f64> = responses
            .iter()
            .map(|v| v.get("cost").and_then(|c| c.as_f64()).expect("a cost"))
            .collect();
        assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");
        for v in &responses {
            assert_eq!(
                v.get("report")
                    .and_then(|r| r.get("outcome"))
                    .and_then(|o| o.as_str()),
                Some("ok")
            );
            assert!(v.get("strategy").and_then(|s| s.as_array()).is_some());
        }
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.requests, 3);
        // All three raced the same key: exactly one search (singleflight),
        // the rest hit the cache or coalesced onto the in-flight search
        // depending on interleaving.
        assert_eq!(
            summary.cache_hits + summary.cache_misses + summary.coalesced,
            3
        );
        assert_eq!(summary.cache_misses, 1, "{summary:?}");
    }

    #[test]
    fn repeated_query_hits_the_cache_with_identical_strategy() {
        let (addr, handle, join) = start(ServerConfig::default());
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut ask = || {
            stream.write_all(MLP.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            json::parse(&response).expect("valid response JSON")
        };
        let first = ask();
        let second = ask();
        assert_eq!(first.get("cached").and_then(|c| c.as_bool()), Some(false));
        assert_eq!(second.get("cached").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(first.get("strategy"), second.get("strategy"));
        assert_eq!(first.get("cost"), second.get("cost"));
        assert_eq!(first.get("cache_key"), second.get("cache_key"));
        drop(stream);
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.cache_hits, 1);
        assert_eq!(summary.cache_misses, 1);
    }

    #[test]
    fn per_request_deadline_becomes_a_timeout_outcome() {
        let (addr, handle, join) = start(ServerConfig::default());
        let v = query(
            addr,
            "{\"model\": \"mlp\", \"devices\": 4, \"machine\": \"test\", \"deadline_ms\": 0}",
        );
        assert_eq!(
            v.get("report")
                .and_then(|r| r.get("outcome"))
                .and_then(|o| o.as_str()),
            Some("timeout")
        );
        assert!(v.get("cost").unwrap().as_f64().is_none());
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn malformed_and_unknown_requests_get_error_responses() {
        let (addr, handle, join) = start(ServerConfig::default());
        let v = query(addr, "{\"model\": \"gpt5\"}");
        assert_eq!(
            v.get("error").and_then(|e| e.as_str()),
            Some("unknown model 'gpt5'")
        );
        let v = query(addr, "not json at all");
        assert!(v
            .get("error")
            .and_then(|e| e.as_str())
            .expect("an error")
            .starts_with("protocol:"));
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn oversized_request_line_gets_an_error_and_the_connection_closes() {
        let (addr, handle, join) = start(ServerConfig::default());
        let mut stream = TcpStream::connect(addr).expect("connect");
        // One byte over the cap, no newline: the server must answer with a
        // protocol error instead of buffering without bound.
        let big = vec![b'x'; MAX_LINE + 1];
        stream.write_all(&big).unwrap();
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("error response");
        let v = json::parse(&response).expect("valid JSON");
        assert!(v
            .get("error")
            .and_then(|e| e.as_str())
            .expect("an error")
            .contains("exceeds"));
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).unwrap(),
            0,
            "closed after error"
        );
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn idle_connections_are_closed_after_the_idle_timeout() {
        let (addr, handle, join) = start(ServerConfig {
            idle_timeout: Duration::from_millis(60),
            ..ServerConfig::default()
        });
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        // A client that never sends a request must not pin the worker
        // forever: the server closes the connection (EOF) on its own.
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn graceful_shutdown_drains_in_flight_requests() {
        let (addr, handle, join) = start(ServerConfig::default());
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(MLP.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        // Shut down while the request is (at latest) buffered in the
        // socket: the drain guarantee says it must still be answered.
        handle.shutdown();
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("drained response");
        let v = json::parse(&response).expect("valid JSON");
        assert!(v.get("cost").and_then(|c| c.as_f64()).is_some());
        let summary = join.join().unwrap();
        assert_eq!(summary.requests, 1);
    }

    #[test]
    fn stats_request_reports_server_counters() {
        let (addr, handle, join) = start(ServerConfig::default());
        query(addr, MLP);
        query(addr, MLP); // hit
        let v = query(addr, "{\"stats\": true}");
        let stats = v.get("stats").expect("a stats object");
        let field = |name: &str| stats.get(name).and_then(|x| x.as_u64()).expect(name);
        assert_eq!(field("requests"), 3, "the stats probe itself is counted");
        assert_eq!(field("cache_hits"), 1);
        assert_eq!(field("cache_misses"), 1);
        assert_eq!(field("coalesced"), 0);
        assert_eq!(field("in_flight"), 0);
        assert_eq!(field("entries"), 1, "one cached strategy");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn one_cached_frontier_serves_every_budget_variant() {
        let (addr, handle, join) = start(ServerConfig::default());

        // The scalar optimum, for the bit-parity check.
        let scalar = query(addr, MLP);
        let scalar_cost = scalar.get("cost").and_then(|c| c.as_f64()).expect("cost");

        // A frontier query: full Pareto set, min-time point selected.
        let f = query(
            addr,
            "{\"model\": \"mlp\", \"devices\": 4, \"machine\": \"test\", \
             \"weak_scaling\": false, \"frontier\": true}",
        );
        assert_eq!(f.get("cached").and_then(|c| c.as_bool()), Some(false));
        assert_eq!(f.get("cost").and_then(|c| c.as_f64()), Some(scalar_cost));
        assert_eq!(f.get("infeasible").and_then(|i| i.as_bool()), Some(false));
        let points = f.get("frontier").and_then(|x| x.as_array()).expect("array");
        assert!(!points.is_empty());
        let min_mem = points
            .last()
            .and_then(|p| p.get("memory_bytes"))
            .and_then(|m| m.as_u64())
            .expect("memory");
        let max_mem = f
            .get("peak_memory_bytes")
            .and_then(|m| m.as_u64())
            .expect("peak memory");

        // Two different memory budgets: both must be served from the one
        // cached frontier — no new DP fill, same cache entry.
        let generous = query(
            addr,
            &format!(
                "{{\"model\": \"mlp\", \"devices\": 4, \"machine\": \"test\", \
                 \"weak_scaling\": false, \"max_memory_bytes\": {}}}",
                max_mem + 1
            ),
        );
        assert_eq!(generous.get("cached").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(
            generous.get("cost").and_then(|c| c.as_f64()),
            Some(scalar_cost)
        );
        assert_eq!(generous.get("cache_key"), f.get("cache_key"));
        assert!(generous.get("frontier").is_none(), "not asked for");

        let tight = query(
            addr,
            &format!(
                "{{\"model\": \"mlp\", \"devices\": 4, \"machine\": \"test\", \
                 \"weak_scaling\": false, \"max_memory_bytes\": {min_mem}}}"
            ),
        );
        assert_eq!(tight.get("cached").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(tight.get("cache_key"), f.get("cache_key"));
        assert_eq!(
            tight.get("peak_memory_bytes").and_then(|m| m.as_u64()),
            Some(min_mem),
            "tightest budget selects the min-memory point"
        );

        // An unsatisfiable budget is answered from cache too, as
        // infeasible with the frontier's memory floor.
        let impossible = query(
            addr,
            &format!(
                "{{\"model\": \"mlp\", \"devices\": 4, \"machine\": \"test\", \
                 \"weak_scaling\": false, \"max_memory_bytes\": {}}}",
                min_mem - 1
            ),
        );
        assert_eq!(
            impossible.get("cached").and_then(|c| c.as_bool()),
            Some(true)
        );
        assert_eq!(
            impossible.get("infeasible").and_then(|i| i.as_bool()),
            Some(true)
        );
        assert!(impossible.get("cost").unwrap().as_f64().is_none());
        assert_eq!(
            impossible.get("min_memory_bytes").and_then(|m| m.as_u64()),
            Some(min_mem)
        );

        handle.shutdown();
        let summary = join.join().unwrap();
        // Five requests, two searches: the scalar one and the single
        // frontier fill all budget variants shared.
        assert_eq!(summary.requests, 5);
        assert_eq!(summary.cache_misses, 2, "{summary:?}");
        assert_eq!(summary.cache_hits, 3, "{summary:?}");
    }

    #[test]
    fn stats_report_the_cache_byte_accounting() {
        let (addr, handle, join) = start(ServerConfig::default());
        query(addr, MLP);
        let v = query(addr, "{\"stats\": true}");
        let bytes = v
            .get("stats")
            .and_then(|s| s.get("cache_bytes"))
            .and_then(|b| b.as_u64())
            .expect("cache_bytes");
        assert!(bytes > 0, "one resident entry must be accounted");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn a_request_carrying_the_retired_dp_kernel_field_gets_the_same_answer() {
        // Older servers accepted "dp_kernel" to pick the DP fill loop; it
        // never changed an answer and is now ignored like any unknown
        // field. Each request goes to a fresh server so both are misses.
        let legacy = MLP.replace('}', ", \"dp_kernel\": \"scalar\"}");
        let mut answers = Vec::new();
        for line in [legacy.as_str(), MLP] {
            let (addr, handle, join) = start(ServerConfig::default());
            answers.push(query(addr, line));
            handle.shutdown();
            join.join().unwrap();
        }
        let engine = |v: &json::Value| {
            v.get("report")
                .and_then(|r| r.get("stats"))
                .and_then(|s| s.get("dp_kernel"))
                .cloned()
        };
        for field in ["cached", "cache_key", "cost", "strategy"] {
            assert_eq!(answers[0].get(field), answers[1].get(field), "{field}");
        }
        assert_eq!(engine(&answers[0]), engine(&answers[1]));
        assert_eq!(
            engine(&answers[0]).as_ref().and_then(|k| k.as_str()),
            Some("tiled")
        );
    }

    #[test]
    fn both_front_ends_serve_identical_answers() {
        let mut answers = Vec::new();
        for frontend in [FrontEnd::Threaded, FrontEnd::default()] {
            let (addr, handle, join) = start(ServerConfig {
                frontend,
                ..ServerConfig::default()
            });
            let v = query(addr, MLP);
            assert_eq!(
                v.get("cached").and_then(|c| c.as_bool()),
                Some(false),
                "{frontend:?}"
            );
            answers.push((v.get("cost").cloned(), v.get("strategy").cloned()));
            handle.shutdown();
            let summary = join.join().unwrap();
            assert_eq!(summary.requests, 1, "{frontend:?}");
        }
        assert_eq!(answers[0], answers[1]);
    }

    #[test]
    fn inline_machine_objects_round_trip_and_cache_per_mesh() {
        let (addr, handle, join) = start(ServerConfig::default());
        let flat = "{\"model\": \"mlp\", \"devices\": 4, \"weak_scaling\": false, \
             \"machine\": {\"name\": \"t\", \"peak_flops\": 1e12, \
             \"link_bandwidth\": 1e9}}";
        let tiered = "{\"model\": \"mlp\", \"devices\": 4, \"weak_scaling\": false, \
             \"machine\": {\"name\": \"t\", \"axes\": [\
             {\"name\": \"gpu\", \"size\": 2, \"bandwidth\": 1e9, \
              \"peak_flops\": 1e12, \"alpha\": 5e-6}, \
             {\"name\": \"node\", \"size\": 2, \"bandwidth\": 1e8, \
              \"peak_flops\": 1e12, \"alpha\": 1.5e-5}]}}";
        let v_flat = query(addr, flat);
        let v_tier = query(addr, tiered);
        for v in [&v_flat, &v_tier] {
            assert!(v.get("cost").and_then(|c| c.as_f64()).is_some(), "a cost");
            assert_eq!(v.get("cached").and_then(|c| c.as_bool()), Some(false));
        }
        // Distinct meshes are distinct cache entries; a repeat of either
        // mesh hits its own entry.
        assert_ne!(v_flat.get("cache_key"), v_tier.get("cache_key"));
        let again = query(addr, tiered);
        assert_eq!(again.get("cached").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(again.get("cache_key"), v_tier.get("cache_key"));
        // The slower inter-node fabric cannot make the optimum cheaper.
        let c_flat = v_flat.get("cost").and_then(|c| c.as_f64()).unwrap();
        let c_tier = v_tier.get("cost").and_then(|c| c.as_f64()).unwrap();
        assert!(c_tier >= c_flat, "flat {c_flat} vs tiered {c_tier}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn hostile_machine_requests_get_protocol_errors_not_a_dead_worker() {
        let (addr, handle, join) = start(ServerConfig::default());
        // Unknown profile name: the error lists the registry.
        let v = query(addr, "{\"model\": \"mlp\", \"machine\": \"abacus\"}");
        let err = v.get("error").and_then(|e| e.as_str()).expect("an error");
        assert!(err.contains("known profiles"), "{err}");
        // Zero-bandwidth inline machine: rejected at the parse boundary.
        let v = query(
            addr,
            "{\"model\": \"mlp\", \"machine\": {\"name\": \"x\", \
             \"peak_flops\": 1.0, \"link_bandwidth\": 0.0}}",
        );
        let err = v.get("error").and_then(|e| e.as_str()).expect("an error");
        assert!(err.contains("bandwidth"), "{err}");
        // The worker is still alive and answers a good request.
        let v = query(addr, MLP);
        assert!(v.get("cost").and_then(|c| c.as_f64()).is_some());
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.cache_misses, 1, "only the good request searched");
    }

    #[test]
    fn batch_requests_are_answered_in_order_as_one_array() {
        let (addr, handle, join) = start(ServerConfig::default());
        let v = query(
            addr,
            "{\"batch\": [\
             {\"model\": \"mlp\", \"devices\": 4, \"machine\": \"test\", \"weak_scaling\": false},\
             {\"model\": \"mlp\", \"devices\": 4, \"machine\": \"test\", \"weak_scaling\": false},\
             {\"model\": \"mlp\", \"devices\": 2, \"machine\": \"test\", \"weak_scaling\": false}\
             ]}",
        );
        let batch = v.get("batch").and_then(|b| b.as_array()).expect("an array");
        assert_eq!(batch.len(), 3);
        // Identical consecutive queries: the second is served from cache.
        assert_eq!(
            batch[0].get("cached").and_then(|c| c.as_bool()),
            Some(false)
        );
        assert_eq!(batch[1].get("cached").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(batch[0].get("cost"), batch[1].get("cost"));
        // The third is a different key, answered in position.
        assert_eq!(
            batch[2].get("cached").and_then(|c| c.as_bool()),
            Some(false)
        );
        assert_ne!(batch[0].get("cache_key"), batch[2].get("cache_key"));
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.requests, 3, "each batch element is a request");
        assert_eq!(summary.cache_hits, 1);
        assert_eq!(summary.cache_misses, 2);
    }

    #[test]
    fn malformed_batch_element_rejects_the_whole_line() {
        let (addr, handle, join) = start(ServerConfig::default());
        let v = query(
            addr,
            "{\"batch\": [{\"model\": \"mlp\", \"machine\": \"test\"}, {\"model\": \"gpt5\"}]}",
        );
        let err = v.get("error").and_then(|e| e.as_str()).expect("an error");
        assert!(err.contains("batch[1]"), "{err}");
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.cache_misses, 0, "no element was searched");
    }

    #[test]
    fn prewarmed_server_answers_its_first_query_as_a_hit() {
        let (addr, handle, join) = start(ServerConfig {
            prewarm: Some("mlp:2,4:test".into()),
            ..ServerConfig::default()
        });
        // Wire-default options (weak scaling on, no pruning) — the same
        // cells the prewarm filled.
        let v = query(
            addr,
            "{\"model\": \"mlp\", \"devices\": 4, \"machine\": \"test\"}",
        );
        assert_eq!(v.get("cached").and_then(|c| c.as_bool()), Some(true));
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.prewarmed, 2);
        assert_eq!(summary.cache_hits, 1);
        assert_eq!(summary.cache_misses, 2, "the prewarm searches");
    }

    #[test]
    fn bad_prewarm_spec_fails_bind_run_with_invalid_input() {
        let server = Server::bind(ServerConfig {
            prewarm: Some("gpt5:4".into()),
            ..ServerConfig::default()
        })
        .expect("bind");
        let err = server.run().expect_err("bad spec must not serve");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(err.to_string().contains("gpt5"), "{err}");
    }

    #[test]
    fn shard_count_follows_the_worker_pool_unless_pinned() {
        for (workers, shards, expect) in [(2, 0, 2), (5, 0, 8), (64, 0, 16), (2, 4, 4)] {
            let server = Server::bind(ServerConfig {
                workers,
                cache_shards: shards,
                ..ServerConfig::default()
            })
            .expect("bind");
            assert_eq!(
                server.shared.cache.shard_count(),
                expect,
                "workers={workers} cache_shards={shards}"
            );
        }
    }

    #[test]
    fn request_latency_spans_and_counters_are_recorded() {
        let server = Server::bind(ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.shutdown_handle();
        let shared = Arc::clone(&server.shared);
        let join = std::thread::spawn(move || server.run().expect("run"));
        query(addr, MLP);
        query(addr, MLP);
        handle.shutdown();
        join.join().unwrap();
        let spans = shared.trace.spans();
        assert_eq!(spans.iter().filter(|s| s.name == "request").count(), 2);
        let counters = shared.trace.counters();
        assert!(counters
            .iter()
            .any(|c| c.name == "requests" && c.value == 2));
        assert!(counters
            .iter()
            .any(|c| c.name == "cache_hits" && c.value == 1));
        assert!(counters
            .iter()
            .any(|c| c.name == "cache_misses" && c.value == 1));
    }
}
