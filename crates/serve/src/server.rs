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
//! Observability is a fixed set of atomics: the `requests` total here and
//! the hit / miss / coalesced counters of the [`ShardedCache`], all read
//! lock-free by the `{"stats": true}` wire request. Nothing per request
//! is retained, so a long-running server's memory stays flat.
//!
//! A cache hit costs one parse, one key, one lookup and one serialize:
//! [`Shared`] memoizes each zoo graph's [`graph_digest`] by the request
//! fields [`pase_models::build_named`] reads, so a hit derives its key with
//! [`finish_key`] and never rebuilds or re-hashes the graph. The event
//! front end answers such hits on its event-loop threads ([`answer_hit`]);
//! only misses, batches, disk-only entries and coalesced waits reach a
//! worker.
//!
//! The cache sits behind a [`ShardedCache`] — lock-striped stripes plus a
//! singleflight layer that coalesces concurrent identical queries into one
//! search (see [`crate::sharded`]); the `{"stats": true}` wire request
//! exposes its counters.

use crate::cache::{finish_key, graph_digest, CacheEntry};
use crate::protocol::{
    write_batch_close, write_batch_open, write_error_json, write_frontier_response_json,
    write_response_json, write_stats_json, Request, RequestKind,
};
use crate::sharded::{Lookup, ShardedCache};
use pase_core::{cheapest_within, Error, FrontierPoint, Search, SearchOutcome, SearchReport};
use pase_cost::{ConfigRule, PruneOptions};
use pase_graph::Graph;
use pase_models::MODEL_NAMES;
use pase_obs::Trace;
use std::collections::{HashMap, VecDeque};
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
    /// Event-driven epoll readiness loops (linux only), one per usable
    /// CPU: the loops own every connection's buffers and answer
    /// memory-resident hits themselves, and workers only ever see parsed
    /// requests, so idle connections cost bytes, not threads.
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
    pub(crate) requests: AtomicU64,
    pub(crate) prewarmed: AtomicU64,
    digests: Mutex<DigestMemo>,
}

/// Capacity of the graph-digest memo. The zoo's request space is small
/// (a dozen models × the device counts clients plan for × weak scaling),
/// so every hot cell fits; a client sweeping `devices` evicts the oldest
/// digests instead of growing the server.
const DIGEST_MEMO_CAP: usize = 1024;

/// What [`pase_models::build_named`] reads from a request: the model's
/// registry name, the device count and weak scaling. Equal ids build
/// identical graphs, hence identical [`graph_digest`]s.
type GraphId = (&'static str, u32, bool);

/// Graph digests by [`GraphId`], bounded at [`DIGEST_MEMO_CAP`] with
/// first-in-first-out eviction. Only successful builds are recorded.
#[derive(Default)]
struct DigestMemo {
    map: HashMap<GraphId, u64>,
    order: VecDeque<GraphId>,
}

impl DigestMemo {
    fn insert(&mut self, id: GraphId, digest: u64) {
        if self.map.insert(id, digest).is_none() {
            self.order.push_back(id);
            if self.order.len() > DIGEST_MEMO_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

/// The memo id of `req`'s graph; `None` for a model outside the zoo
/// (which [`pase_models::build_named`] then rejects).
fn graph_id(req: &Request) -> Option<GraphId> {
    let name = MODEL_NAMES.iter().find(|&&m| m == req.model)?;
    Some((name, req.devices, req.weak_scaling))
}

/// `req`'s content key from its graph's digest — bit-identical to
/// [`crate::strategy_cache_key`] over the built graph.
fn request_key(digest: u64, req: &Request) -> u64 {
    finish_key(
        digest,
        &ConfigRule::new(req.devices),
        &req.machine,
        req.prune.then_some(req.epsilon),
        req.wants_frontier(),
    )
}

impl Shared {
    /// `req`'s content key if its graph digest is memoized — no graph
    /// build, no graph hash.
    pub(crate) fn memoized_key(&self, req: &Request) -> Option<u64> {
        let id = graph_id(req)?;
        let digest = *self.digests.lock().expect("digest memo").map.get(&id)?;
        Some(request_key(digest, req))
    }

    /// Build `req`'s graph, memoize its digest, and return both the graph
    /// and the request's content key.
    fn build_graph(&self, req: &Request) -> Result<(Graph, u64), String> {
        let graph = pase_models::build_named(&req.model, req.devices, req.weak_scaling)?;
        let digest = graph_digest(&graph);
        if let Some(id) = graph_id(req) {
            self.digests.lock().expect("digest memo").insert(id, digest);
        }
        Ok((graph, request_key(digest, req)))
    }

    #[cfg(test)]
    pub(crate) fn memo_len(&self) -> usize {
        self.digests.lock().expect("digest memo").map.len()
    }
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
                requests: AtomicU64::new(0),
                prewarmed: AtomicU64::new(0),
                digests: Mutex::new(DigestMemo::default()),
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
                        return Err(std::io::Error::other("worker pool terminated unexpectedly"));
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

/// Answer one request line into `out` (cleared by the caller).
pub(crate) fn handle_line(line: &str, shared: &Shared, out: &mut String) {
    handle_request(RequestKind::parse(line), shared, out);
}

/// Answer one parsed request line into `out` (cleared by the caller). A
/// line is a single search, a `batch` of searches (answered in order as
/// one response array), or a `stats` probe; each batch element is counted
/// as its own request.
pub(crate) fn handle_request(
    request: Result<RequestKind, Error>,
    shared: &Shared,
    out: &mut String,
) {
    match request {
        Ok(RequestKind::Batch(reqs)) => {
            write_batch_open(out);
            for (i, req) in reqs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                shared.requests.fetch_add(1, Ordering::SeqCst);
                answer_search(req, shared, out);
            }
            write_batch_close(out);
        }
        Ok(RequestKind::Search(req)) => {
            shared.requests.fetch_add(1, Ordering::SeqCst);
            answer_search(&req, shared, out);
        }
        Ok(RequestKind::Stats) => {
            let n = shared.requests.fetch_add(1, Ordering::SeqCst) + 1;
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
            shared.requests.fetch_add(1, Ordering::SeqCst);
            write_error_json(out, &e);
        }
    }
}

/// Answer `req` in place if it is a hit that needs neither a graph nor
/// any I/O: its graph digest is memoized and its entry is resident in
/// memory. That is one key derivation, one lookup and one serialize,
/// counted as a request and a cache hit. Returns `false`, having counted
/// and written nothing, for everything else — misses, disk-only entries,
/// keys with a search in flight — which the caller hands to a worker.
pub(crate) fn answer_hit(req: &Request, shared: &Shared, out: &mut String) -> bool {
    let Some(key) = shared.memoized_key(req) else {
        return false;
    };
    let answered = shared
        .cache
        .memory_hit(key, |entry| write_cached(req, key, entry, out))
        .is_some();
    if answered {
        shared.requests.fetch_add(1, Ordering::SeqCst);
    }
    answered
}

/// Render a cache hit for `req` from `entry`.
fn write_cached(req: &Request, key: u64, entry: &CacheEntry, out: &mut String) {
    if req.wants_frontier() {
        write_frontier_from_points(req, key, true, &entry.frontier, &entry.report_json, out);
    } else {
        write_response_json(
            out,
            key,
            true,
            Some(entry.cost),
            Some(&entry.config_ids),
            &entry.report_json,
        );
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
/// The key comes from the digest memo when it can; the graph is then
/// built only if the lookup misses and a search needs it.
///
/// Frontier-family requests (`max_memory_bytes` / `frontier`) run the
/// frontier DP *unconstrained* and cache the whole Pareto set under a key
/// that excludes the budget; the budget is applied by point selection on
/// the way out, so follow-up queries with any other budget are cache hits.
pub(crate) fn answer_search(req: &Request, shared: &Shared, out: &mut String) {
    let (key, built) = match shared.memoized_key(req) {
        Some(key) => (key, None),
        None => match shared.build_graph(req) {
            Ok((graph, key)) => (key, Some(graph)),
            Err(msg) => return write_error_json(out, &Error::Protocol(msg)),
        },
    };

    let guard = match shared.cache.lookup(key) {
        Lookup::Hit(entry) | Lookup::Coalesced(entry) => {
            return write_cached(req, key, &entry, out);
        }
        Lookup::Miss(guard) => guard,
    };
    // A memoized key skipped the build; the search needs the graph now.
    let graph = match built {
        Some(graph) => graph,
        None => match pase_models::build_named(&req.model, req.devices, req.weak_scaling) {
            Ok(graph) => graph,
            Err(msg) => return write_error_json(out, &Error::Protocol(msg)),
        },
    };
    let rule = ConfigRule::new(req.devices);
    let wants_frontier = req.wants_frontier();

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

/// Make every thread of the process allocate from one glibc malloc arena.
///
/// By default glibc gives each new allocating thread an arena of its own
/// (up to eight per core) and never moves free memory between them. A
/// search leaves its freed tables in the arena of the worker that ran it,
/// so the next miss taken by the other worker (or the rayon helper) grows
/// a second heap instead of reusing the first: the server's resident
/// high-water mark then depends on which worker took which miss and
/// varies by ~10 MB from one run to the next. With one arena freed memory
/// is reused whichever thread allocates; per-thread tcache still serves
/// small allocations without the arena lock. Call once, before the server
/// starts its threads. A no-op off linux-gnu.
pub fn limit_malloc_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            // glibc mallopt(3); libc is always linked into std binaries.
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
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
    fn graceful_shutdown_drains_requests_on_every_connection() {
        let (addr, handle, join) = start(ServerConfig::default());
        query(addr, MLP);
        // Several connections, so the event front end deals them to more
        // than one loop: half ask for the warm key (answered in place),
        // half for fresh ones (answered by a worker).
        let mut conns: Vec<TcpStream> = (0..6)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        for (i, c) in conns.iter_mut().enumerate() {
            let line = if i % 2 == 0 {
                MLP.to_string()
            } else {
                mlp_line(1 << i, "")
            };
            c.write_all(format!("{line}\n").as_bytes()).unwrap();
        }
        handle.shutdown();
        for (i, c) in conns.into_iter().enumerate() {
            let mut response = String::new();
            BufReader::new(c).read_line(&mut response).expect("drained");
            let v = json::parse(&response).expect("valid JSON");
            assert_eq!(
                v.get("cached").and_then(|c| c.as_bool()),
                Some(i % 2 == 0),
                "connection {i}"
            );
        }
        let summary = join.join().unwrap();
        assert_eq!(summary.requests, 7);
        assert_eq!((summary.cache_hits, summary.cache_misses), (3, 4));
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

    /// Send `lines` on one connection and read one response line each.
    fn converse(addr: SocketAddr, lines: &[&str]) -> Vec<json::Value> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        lines
            .iter()
            .map(|line| {
                stream.write_all(line.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).expect("response");
                json::parse(&response).expect("valid response JSON")
            })
            .collect()
    }

    fn stats_field(v: &json::Value, name: &str) -> u64 {
        v.get("stats")
            .and_then(|s| s.get(name))
            .and_then(|x| x.as_u64())
            .unwrap_or_else(|| panic!("stats.{name}"))
    }

    fn cache_key_of(v: &json::Value) -> u64 {
        let hex = v.get("cache_key").and_then(|k| k.as_str()).expect("key");
        u64::from_str_radix(hex, 16).expect("hex key")
    }

    fn mlp_line(devices: u32, extra: &str) -> String {
        format!(
            "{{\"model\": \"mlp\", \"devices\": {devices}, \"machine\": \"test\", \
             \"weak_scaling\": false{extra}}}"
        )
    }

    #[test]
    fn stats_counters_match_the_requests_sent() {
        let (addr, handle, join) = start(ServerConfig::default());
        let batch = format!(
            "{{\"batch\": [{MLP}, {}, {}]}}",
            mlp_line(2, ""),
            mlp_line(2, ", \"frontier\": true")
        );
        let answers = converse(
            addr,
            &[
                MLP,
                MLP,
                &batch,
                "not json",
                "{\"model\": \"gpt5\"}",
                &mlp_line(2, ", \"max_memory_bytes\": 1"),
                "{\"stats\": true}",
            ],
        );
        let stats = answers.last().unwrap();
        // 2 single searches + 3 batch elements + 2 errors + 1 search + the
        // probe itself.
        assert_eq!(stats_field(stats, "requests"), 9);
        // Searches: MLP (miss), MLP (hit), batch MLP (hit), mlp p2 (miss),
        // mlp p2 frontier (miss), the budget query (hit on that frontier).
        assert_eq!(stats_field(stats, "cache_misses"), 3);
        assert_eq!(stats_field(stats, "cache_hits"), 3);
        assert_eq!(stats_field(stats, "coalesced"), 0);
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.requests, 9);
        assert_eq!(
            (summary.cache_hits, summary.cache_misses),
            (3, 3),
            "{summary:?}"
        );
    }

    #[test]
    fn every_search_element_is_exactly_one_hit_miss_or_coalesced() {
        let (addr, handle, join) = start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        // Four clients race overlapping keys, singly and in batches.
        let clients: Vec<_> = (0..4u32)
            .map(|c| {
                std::thread::spawn(move || {
                    let single = mlp_line(1 + c % 2, "");
                    let batch = format!(
                        "{{\"batch\": [{}, {}, {MLP}]}}",
                        mlp_line(2, ""),
                        mlp_line(1 + c % 3, ", \"frontier\": true")
                    );
                    let lines = [single.as_str(), MLP, &batch, &single];
                    converse(addr, &lines).len()
                })
            })
            .collect();
        for c in clients {
            assert_eq!(c.join().unwrap(), 4);
        }
        let stats = query(addr, "{\"stats\": true}");
        let searches = 4 * (1 + 1 + 3 + 1);
        assert_eq!(stats_field(&stats, "requests"), searches + 1);
        assert_eq!(
            stats_field(&stats, "cache_hits")
                + stats_field(&stats, "cache_misses")
                + stats_field(&stats, "coalesced"),
            searches
        );
        handle.shutdown();
        join.join().unwrap();
    }

    /// A server persisting to a fresh cache directory, plus its shared
    /// state so a test can slow the persistence down.
    fn start_persisting(
        tag: &str,
        workers: usize,
    ) -> (
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<ServeSummary>,
        Arc<Shared>,
        PathBuf,
    ) {
        let dir = std::env::temp_dir().join(format!("pase-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(ServerConfig {
            workers,
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.shutdown_handle();
        let shared = Arc::clone(&server.shared);
        let join = std::thread::spawn(move || server.run().expect("run"));
        (addr, handle, join, shared, dir)
    }

    /// Slow every later cache fill down to `delay` in its disk write, and
    /// wait until a miss sent after this call holds its worker there (its
    /// entry is already in memory, its response not yet sent).
    fn hold_next_miss(shared: &Shared, delay: Duration) -> impl Fn() + '_ {
        shared.cache.set_disk_write_delay_for_tests(delay);
        let entries = shared.cache.len();
        move || {
            let t0 = std::time::Instant::now();
            while shared.cache.len() == entries {
                assert!(t0.elapsed() < Duration::from_secs(60), "miss never ran");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn pipelined_miss_hit_hit_are_answered_in_request_order() {
        let (addr, handle, join, shared, dir) = start_persisting("order", 2);
        // Warm the hit key: its entry and its graph digest.
        let warm = query(addr, MLP);
        let wait_for_miss = hold_next_miss(&shared, Duration::from_millis(300));
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("{}\n", mlp_line(16, "")).as_bytes())
            .unwrap();
        wait_for_miss();
        // Two hits arrive while the miss is in flight. The loop could
        // answer them at once; they must wait their turn.
        stream
            .write_all(format!("{MLP}\n{MLP}\n").as_bytes())
            .unwrap();
        let mut reader = BufReader::new(stream);
        let answers: Vec<json::Value> = (0..3)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("response");
                json::parse(&line).expect("valid JSON")
            })
            .collect();
        let cached: Vec<Option<bool>> = answers
            .iter()
            .map(|v| v.get("cached").and_then(|c| c.as_bool()))
            .collect();
        assert_eq!(cached, [Some(false), Some(true), Some(true)]);
        assert_ne!(answers[0].get("cache_key"), warm.get("cache_key"));
        assert_eq!(answers[1].get("cache_key"), warm.get("cache_key"));
        assert_eq!(answers[2].get("strategy"), warm.get("strategy"));
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!((summary.cache_hits, summary.cache_misses), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_hit_is_answered_while_the_only_worker_is_busy() {
        let (addr, handle, join, shared, dir) = start_persisting("busy", 1);
        let warm = query(addr, MLP);
        // The only worker sleeps for seconds in the next miss's disk
        // write; a hit on another connection must not wait for it.
        let wait_for_miss = hold_next_miss(&shared, Duration::from_secs(3));
        let mut slow = TcpStream::connect(addr).expect("connect");
        slow.write_all(format!("{}\n", mlp_line(2, "")).as_bytes())
            .unwrap();
        wait_for_miss();
        let hit = query(addr, MLP);
        assert_eq!(hit.get("cached").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(hit.get("strategy"), warm.get("strategy"));
        slow.set_nonblocking(true).unwrap();
        let mut byte = [0u8; 1];
        let pending = matches!(
            (&slow).read(&mut byte),
            Err(e) if e.kind() == ErrorKind::WouldBlock
        );
        assert!(pending, "the miss finished before the hit was answered");
        slow.set_nonblocking(false).unwrap();
        let mut reader = BufReader::new(slow);
        let mut response = String::new();
        reader.read_line(&mut response).expect("miss response");
        let miss = json::parse(&response).expect("valid JSON");
        assert_eq!(miss.get("cached").and_then(|c| c.as_bool()), Some(false));
        handle.shutdown();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_only_on_disk_is_served_by_a_worker_and_counted_once() {
        let dir = std::env::temp_dir().join(format!("pase-serve-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let (addr, handle, join) = start(cfg.clone());
        let first = query(addr, MLP);
        handle.shutdown();
        join.join().unwrap();

        // A fresh server: the entry is on disk only. A different search
        // over the same graph memoizes the digest, so the second line's
        // key is known without a build — but it must still not be
        // answered from memory (nothing is there), read disk on the event
        // thread, or be counted twice.
        let (addr, handle, join) = start(cfg);
        let answers = converse(
            addr,
            &[
                &mlp_line(4, ", \"prune\": true, \"epsilon\": 0.5"),
                MLP,
                "{\"stats\": true}",
            ],
        );
        assert_eq!(
            answers[1].get("cached").and_then(|c| c.as_bool()),
            Some(true)
        );
        assert_eq!(answers[1].get("strategy"), first.get("strategy"));
        assert_eq!(answers[1].get("cache_key"), first.get("cache_key"));
        assert_eq!(stats_field(&answers[2], "cache_hits"), 1);
        assert_eq!(stats_field(&answers[2], "cache_misses"), 1);
        assert_eq!(stats_field(&answers[2], "requests"), 3);
        handle.shutdown();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memoized_keys_equal_keys_over_the_built_graph() {
        use crate::cache::strategy_cache_key;
        use pase_cost::{DeviceMesh, MachineSpec};
        let server = Server::bind(ServerConfig::default()).expect("bind");
        let shared = &server.shared;
        let flat = DeviceMesh::flat(&MachineSpec::gtx1080ti());
        let tiered = DeviceMesh::cluster(&MachineSpec::gtx1080ti(), 8, 4);
        let mut checked = 0;
        for model in MODEL_NAMES {
            for devices in [1u32, 8, 32, 64] {
                for weak_scaling in [false, true] {
                    let graph = pase_models::build_named(model, devices, weak_scaling).unwrap();
                    for machine in [&flat, &tiered] {
                        for epsilon in [None, Some(0.0), Some(0.05)] {
                            for frontier in [false, true] {
                                let req = Request {
                                    model: model.to_string(),
                                    devices,
                                    machine: machine.clone(),
                                    weak_scaling,
                                    prune: epsilon.is_some(),
                                    epsilon: epsilon.unwrap_or(0.0),
                                    prune_gate: Default::default(),
                                    budget: Default::default(),
                                    deadline: None,
                                    max_memory_bytes: None,
                                    frontier,
                                };
                                let expect = strategy_cache_key(
                                    &graph,
                                    &ConfigRule::new(devices),
                                    machine,
                                    epsilon,
                                    frontier,
                                );
                                if shared.memoized_key(&req).is_none() {
                                    let (_, built) = shared.build_graph(&req).unwrap();
                                    assert_eq!(built, expect, "{model} p{devices}");
                                }
                                assert_eq!(
                                    shared.memoized_key(&req),
                                    Some(expect),
                                    "{model} p{devices} weak={weak_scaling} \
                                     {epsilon:?} frontier={frontier}"
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, MODEL_NAMES.len() * 4 * 2 * 2 * 3 * 2);
    }

    #[test]
    fn a_device_sweep_keeps_the_digest_memo_bounded() {
        let server = Server::bind(ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.shutdown_handle();
        let shared = Arc::clone(&server.shared);
        let join = std::thread::spawn(move || server.run().expect("run"));
        // More distinct graphs than the memo holds, spread over
        // 1..=100000 devices. A zero deadline keeps each miss's search
        // short; the key in every answer must still be the built graph's.
        let sweep: Vec<u32> = (0..DIGEST_MEMO_CAP as u32 + 200)
            .map(|i| 1 + i * 81)
            .chain([100_000])
            .collect();
        for chunk in sweep.chunks(crate::protocol::MAX_BATCH) {
            let elements: Vec<String> = chunk
                .iter()
                .map(|&d| mlp_line(d, ", \"deadline_ms\": 0"))
                .collect();
            let v = query(addr, &format!("{{\"batch\": [{}]}}", elements.join(",")));
            let answers = v.get("batch").and_then(|b| b.as_array()).expect("batch");
            assert_eq!(answers.len(), chunk.len());
            for (&d, a) in chunk.iter().zip(answers) {
                let graph = pase_models::build_named("mlp", d, false).unwrap();
                let mesh = pase_cost::DeviceMesh::flat(&pase_cost::MachineSpec::test_machine());
                let expect = crate::cache::strategy_cache_key(
                    &graph,
                    &ConfigRule::new(d),
                    &mesh,
                    None,
                    false,
                );
                assert_eq!(cache_key_of(a), expect, "devices {d}");
            }
            assert!(
                shared.memo_len() <= DIGEST_MEMO_CAP,
                "{}",
                shared.memo_len()
            );
        }
        assert_eq!(shared.memo_len(), DIGEST_MEMO_CAP);
        // The first sweep value was evicted, the last is memoized; both
        // are answered with a real search, then a hit.
        for d in [sweep[0], *sweep.last().unwrap()] {
            let line = mlp_line(d, "");
            let answers = converse(addr, &[&line, &line]);
            assert!(answers[0].get("cost").and_then(|c| c.as_f64()).is_some());
            assert_eq!(
                answers[1].get("cached").and_then(|c| c.as_bool()),
                Some(true)
            );
            assert_eq!(answers[0].get("strategy"), answers[1].get("strategy"));
        }
        handle.shutdown();
        join.join().unwrap();
    }
}
