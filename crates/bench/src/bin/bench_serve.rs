//! Concurrent load benchmark for the planner service.
//!
//! Per (model, p, concurrency) cell it drives N concurrent connections of
//! mixed cached/uncached queries against an in-process server and measures
//! client-observed latency.
//!
//! Each client cycles through a small set of distinct cache keys (the
//! prune ε is part of the key, so varying it makes fresh keys without
//! changing the search difficulty), offset per client so the first wave
//! contends on identical keys — the singleflight case — while steady
//! state is cache-hit dominated, the lock-striping case.
//!
//! Two further dimensions:
//!
//! - **Idle swarm** (`idle_cells`): 512 idle keep-alive connections plus
//!   16 active clients for a fixed window. The swarm costs the event loops
//!   buffers, not workers, so the active clients keep being served.
//! - **Batch** (`batch_cells`): 16 warmed queries as one wire batch vs 16
//!   sequential round trips, comparing per-query p50.
//!
//! Per cell the job reports req/s and p50/p95/p99 latency, and writes
//! everything to `BENCH_serve.json`.
//!
//! ```text
//! cargo run -p pase-bench --release --bin bench_serve            # full sweep
//! cargo run -p pase-bench --release --bin bench_serve -- --smoke # tier-1 gate
//! ```
//!
//! `--smoke` runs a small load cell, a nonzero idle-swarm cell, and a
//! batch-coalescing check, asserting counters and clean drains; it writes
//! nothing.

use pase_serve::{ServeSummary, Server, ServerConfig};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Distinct cache keys per (model, p) cell: each key is a different prune
/// ε. Key 0 (ε = 0) is shared across clients' first requests, so wave one
/// exercises singleflight; the rest spread load across shards.
const KEYS: usize = 4;

/// Per-client request count in the full sweep.
const REQUESTS: usize = 50;

/// Concurrency sweep (connections = worker threads on both sides).
const CONCURRENCY: [usize; 3] = [2, 8, 16];

/// (wire model name, devices): "mlp" and "alexnet" are hit-dominated
/// cells where lock striping is the lever; "inception" searches are slow
/// enough that the first wave overlaps and singleflight decides how many
/// duplicate searches the tail pays for.
const MODELS: [(&str, u32); 3] = [("mlp", 8), ("alexnet", 8), ("inception", 8)];

/// Idle-swarm dimension: this many silent keep-alive connections…
const IDLE_SWARM: usize = 512;
/// …alongside this many active clients…
const IDLE_ACTIVE: usize = 16;
/// …for this long.
const IDLE_WINDOW: Duration = Duration::from_secs(2);

/// Queries per wire batch in the batch dimension.
const BATCH: usize = 16;
/// Measured rounds per batch cell.
const BATCH_ROUNDS: usize = 30;

fn request_line(model: &str, devices: u32, key: usize) -> String {
    format!(
        "{{\"model\": \"{model}\", \"devices\": {devices}, \"machine\": \"test\", \
         \"weak_scaling\": false, \"prune\": true, \"epsilon\": {}}}",
        key as f64 * 1e-6
    )
}

struct ClientStats {
    latencies: Vec<Duration>,
    elapsed: Duration,
}

/// One client: connect, wait on the barrier, send `requests` queries on a
/// single connection, timing each round trip.
fn run_client(
    addr: SocketAddr,
    barrier: Arc<Barrier>,
    client: usize,
    requests: usize,
    model: &str,
    devices: u32,
) -> ClientStats {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut latencies = Vec::with_capacity(requests);
    // Warm the connection with a stats probe before the barrier: by the
    // time timing starts every connection is accepted and registered, so
    // the measurements cover the serve path, not the accept queue.
    writer.write_all(b"{\"stats\": true}\n").unwrap();
    let mut warmup = String::new();
    reader.read_line(&mut warmup).expect("warmup response");
    barrier.wait();
    let t0 = Instant::now();
    for i in 0..requests {
        // First request of every client is key 0 (maximal contention);
        // afterwards clients walk the key set from per-client offsets.
        let key = if i == 0 { 0 } else { (client + i) % KEYS };
        let mut line = request_line(model, devices, key);
        line.push('\n');
        let sent = Instant::now();
        writer.write_all(line.as_bytes()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).expect("response");
        latencies.push(sent.elapsed());
        assert!(
            response.contains("\"cost\""),
            "search response expected, got: {response}"
        );
    }
    ClientStats {
        latencies,
        elapsed: t0.elapsed(),
    }
}

struct CellResult {
    req_per_s: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    summary: ServeSummary,
}

fn percentile(sorted: &[Duration], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx].as_secs_f64()
}

/// Start a server with `workers` workers on an ephemeral port.
fn start(
    workers: usize,
) -> (
    SocketAddr,
    pase_serve::ShutdownHandle,
    std::thread::JoinHandle<ServeSummary>,
) {
    let server = Server::bind(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    (addr, handle, join)
}

/// Run one (model, p, concurrency) cell against a fresh server.
fn run_cell(model: &str, devices: u32, concurrency: usize, requests: usize) -> CellResult {
    let (addr, handle, join) = start(concurrency);
    let barrier = Arc::new(Barrier::new(concurrency));
    let clients: Vec<_> = (0..concurrency)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let model = model.to_string();
            std::thread::spawn(move || run_client(addr, barrier, c, requests, &model, devices))
        })
        .collect();
    let stats: Vec<ClientStats> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    handle.shutdown();
    let summary = join.join().unwrap();

    let wall = stats
        .iter()
        .map(|s| s.elapsed)
        .max()
        .unwrap_or(Duration::ZERO);
    let mut latencies: Vec<Duration> = stats.into_iter().flat_map(|s| s.latencies).collect();
    latencies.sort_unstable();
    let total = latencies.len();
    CellResult {
        req_per_s: total as f64 / wall.as_secs_f64().max(1e-12),
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
        summary,
    }
}

struct IdleCellResult {
    completed: usize,
    req_per_s: f64,
    summary: ServeSummary,
}

/// The idle-swarm cell: `idle` silent keep-alive connections, then
/// `active` clients hammering a warmed key for a fixed `window`. Clients
/// use read timeouts and count only completed round trips, so a starved
/// server scores ~0 instead of hanging the benchmark.
fn run_idle_cell(idle: usize, active: usize, window: Duration) -> IdleCellResult {
    let (addr, handle, join) = start(IDLE_ACTIVE);
    // The swarm connects first, so the active clients arrive at a server
    // already holding every idle connection.
    let swarm: Vec<TcpStream> = (0..idle)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    // Give the server time to accept the swarm.
    std::thread::sleep(Duration::from_millis(200));

    let barrier = Arc::new(Barrier::new(active));
    let clients: Vec<_> = (0..active)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let Ok(stream) = TcpStream::connect(addr) else {
                    return 0usize; // rejected: scored as zero completions
                };
                let _ = stream.set_nodelay(true);
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut line = request_line("mlp", 8, 0);
                line.push('\n');
                barrier.wait();
                let t0 = Instant::now();
                let mut completed = 0usize;
                loop {
                    let left = window.saturating_sub(t0.elapsed());
                    if left.is_zero() {
                        break;
                    }
                    if writer.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                    if reader.get_ref().set_read_timeout(Some(left)).is_err() {
                        break;
                    }
                    let mut response = String::new();
                    match reader.read_line(&mut response) {
                        Ok(n) if n > 0 => completed += 1,
                        Ok(_) => break,
                        Err(e)
                            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                        {
                            break; // starved past the window
                        }
                        Err(_) => break,
                    }
                }
                completed
            })
        })
        .collect();
    let completed: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    drop(swarm);
    handle.shutdown();
    let summary = join.join().unwrap();
    IdleCellResult {
        completed,
        req_per_s: completed as f64 / window.as_secs_f64(),
        summary,
    }
}

struct BatchCellResult {
    batch_p50_per_query: f64,
    seq_p50_per_query: f64,
    summary: ServeSummary,
}

/// The batch cell: per-query p50 of `BATCH` warmed queries sent as one
/// wire batch vs the same queries as sequential round trips, on one
/// connection each.
fn run_batch_cell(batch: usize, rounds: usize) -> BatchCellResult {
    let (addr, handle, join) = start(4);
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    let single = request_line("mlp", 8, 0);
    // Warm the cache: the measured rounds are all hits on both sides.
    writer.write_all(single.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).expect("warm response");

    let mut seq = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..batch {
            writer.write_all(single.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            response.clear();
            reader.read_line(&mut response).expect("seq response");
        }
        seq.push(t0.elapsed() / batch as u32);
    }

    let batch_line = format!(
        "{{\"batch\": [{}]}}\n",
        vec![single.clone(); batch].join(",")
    );
    let mut batched = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        writer.write_all(batch_line.as_bytes()).unwrap();
        response.clear();
        reader.read_line(&mut response).expect("batch response");
        batched.push(t0.elapsed() / batch as u32);
        assert!(
            response.contains("\"batch\""),
            "batch response expected, got: {response}"
        );
    }

    drop(writer);
    drop(reader);
    handle.shutdown();
    let summary = join.join().unwrap();
    seq.sort_unstable();
    batched.sort_unstable();
    BatchCellResult {
        batch_p50_per_query: percentile(&batched, 0.50),
        seq_p50_per_query: percentile(&seq, 0.50),
        summary,
    }
}

fn smoke() {
    // "inception" searches take long enough (several ms) that the four
    // barrier-released identical first requests reliably overlap.
    let concurrency = 4;
    let requests = 20;
    let r = run_cell("inception", 8, concurrency, requests);
    assert_eq!(
        r.summary.requests,
        (concurrency * (requests + 1)) as u64,
        "every request (plus one warmup stats probe per client) answered \
         before shutdown"
    );
    assert_eq!(
        r.summary.cache_hits + r.summary.cache_misses + r.summary.coalesced,
        (concurrency * requests) as u64,
        "every search request accounted as exactly one of hit/miss/coalesced"
    );
    assert!(
        r.summary.coalesced > 0,
        "4 clients racing the same first key must coalesce at least once: {:?}",
        r.summary
    );
    println!(
        "bench_serve smoke OK [load]: {} requests, {} hits, {} misses, \
         {} coalesced, p99 {:.3} ms",
        r.summary.requests,
        r.summary.cache_hits,
        r.summary.cache_misses,
        r.summary.coalesced,
        r.p99 * 1e3
    );

    // Nonzero idle-swarm cell: a small swarm must not stop the server
    // from serving.
    let idle = run_idle_cell(32, 2, Duration::from_millis(500));
    assert!(
        idle.completed > 0,
        "the server must serve under an idle swarm: {:?}",
        idle.summary
    );
    println!(
        "bench_serve smoke OK [idle-swarm]: {} completions under 32 idle conns",
        idle.completed
    );

    // Batch coalescing: N identical queries in one batch are 1 search +
    // N−1 hits.
    let batch = run_batch_cell(8, 2);
    assert_eq!(batch.summary.cache_misses, 1, "{:?}", batch.summary);
    assert_eq!(
        batch.summary.cache_hits,
        batch.summary.requests - 1,
        "{:?}",
        batch.summary
    );
    println!(
        "bench_serve smoke OK [batch]: batch p50/query {:.3} ms vs sequential {:.3} ms",
        batch.batch_p50_per_query * 1e3,
        batch.seq_p50_per_query * 1e3
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let mut json = String::from("{\n  \"cells\": [\n");
    let mut first = true;
    for (model, devices) in MODELS {
        for concurrency in CONCURRENCY {
            let r = run_cell(model, devices, concurrency, REQUESTS);
            println!(
                "{model} p={devices} c={concurrency:<3} {:>9.0} req/s  p50 {:>7.3} ms  \
                 p95 {:>7.3} ms  p99 {:>7.3} ms  (hits {}, misses {}, coalesced {})",
                r.req_per_s,
                r.p50 * 1e3,
                r.p95 * 1e3,
                r.p99 * 1e3,
                r.summary.cache_hits,
                r.summary.cache_misses,
                r.summary.coalesced
            );
            if !first {
                json.push_str(",\n");
            }
            first = false;
            let _ = write!(
                json,
                "    {{\"model\": \"{model}\", \"devices\": {devices}, \
                 \"concurrency\": {concurrency}, \
                 \"requests\": {}, \"req_per_s\": {:.1}, \
                 \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \
                 \"cache_hits\": {}, \"cache_misses\": {}, \"coalesced\": {}}}",
                r.summary.requests,
                r.req_per_s,
                r.p50 * 1e3,
                r.p95 * 1e3,
                r.p99 * 1e3,
                r.summary.cache_hits,
                r.summary.cache_misses,
                r.summary.coalesced
            );
        }
    }

    let r = run_idle_cell(IDLE_SWARM, IDLE_ACTIVE, IDLE_WINDOW);
    println!(
        "idle swarm: {IDLE_SWARM} idle + {IDLE_ACTIVE} active, {IDLE_WINDOW:?}: \
         {} completed  {:.0} req/s",
        r.completed, r.req_per_s
    );
    let _ = write!(
        json,
        "\n  ],\n  \"idle_cells\": [\n    {{\"idle_connections\": {IDLE_SWARM}, \
         \"active_clients\": {IDLE_ACTIVE}, \"window_s\": {}, \"completed\": {}, \
         \"req_per_s\": {:.1}}}",
        IDLE_WINDOW.as_secs_f64(),
        r.completed,
        r.req_per_s
    );

    let r = run_batch_cell(BATCH, BATCH_ROUNDS);
    println!(
        "batch: {BATCH} queries per line: p50/query {:.4} ms, sequential {:.4} ms ({:.2}x)",
        r.batch_p50_per_query * 1e3,
        r.seq_p50_per_query * 1e3,
        r.seq_p50_per_query / r.batch_p50_per_query.max(1e-12)
    );
    let _ = write!(
        json,
        "\n  ],\n  \"batch_cells\": [\n    {{\"batch\": {BATCH}, \
         \"rounds\": {BATCH_ROUNDS}, \"batch_p50_per_query_ms\": {:.4}, \
         \"sequential_p50_per_query_ms\": {:.4}}}",
        r.batch_p50_per_query * 1e3,
        r.seq_p50_per_query * 1e3
    );
    let _ = write!(
        json,
        "\n  ],\n  \"keys_per_cell\": {KEYS},\n  \"requests_per_client\": {REQUESTS}\n}}\n"
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");
}
