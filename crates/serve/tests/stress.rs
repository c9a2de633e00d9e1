//! Stress coverage for the sharded cache + singleflight serve path:
//! many concurrent identical and distinct queries against a live server
//! with cache-dir persistence, asserting result parity, coalescing, and
//! the absence of deadlocks under contention. `pase serve` is
//! linux-only, so this file is too.
#![cfg(target_os = "linux")]

use pase_obs::json;
use pase_serve::{ServeSummary, Server, ServerConfig, ShutdownHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};

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

/// The "inception" search takes long enough (tens of ms) that concurrent
/// identical requests reliably pile up behind the first one's flight.
const SLOW: &str =
    "{\"model\": \"inception\", \"devices\": 8, \"machine\": \"test\", \"weak_scaling\": false}";

#[test]
fn concurrent_identical_and_distinct_queries_under_persistence() {
    let dir = std::env::temp_dir().join(format!("pase-serve-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (addr, handle, join) = start(ServerConfig {
        workers: 12,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });

    // Phase 1: 8 identical "slow" queries released simultaneously, plus 4
    // distinct "mlp" queries racing them on other shards. The barrier
    // maximizes the window in which identical requests can coalesce.
    let barrier = Arc::new(Barrier::new(12));
    let identical: Vec<_> = (0..8)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                query(addr, SLOW)
            })
        })
        .collect();
    let distinct: Vec<_> = (0..4)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let line = format!(
                "{{\"model\": \"mlp\", \"devices\": {}, \"machine\": \"test\", \
                 \"weak_scaling\": false}}",
                2 + i
            );
            std::thread::spawn(move || {
                barrier.wait();
                query(addr, &line)
            })
        })
        .collect();

    // (a) Identical keys get identical strategies, costs, and cache keys.
    let responses: Vec<json::Value> = identical.into_iter().map(|t| t.join().unwrap()).collect();
    let first = &responses[0];
    assert!(first.get("cost").and_then(|c| c.as_f64()).is_some());
    for v in &responses[1..] {
        assert_eq!(v.get("cost"), first.get("cost"));
        assert_eq!(v.get("strategy"), first.get("strategy"));
        assert_eq!(v.get("cache_key"), first.get("cache_key"));
    }
    // Distinct queries all succeed and differ from each other.
    let distinct: Vec<json::Value> = distinct.into_iter().map(|t| t.join().unwrap()).collect();
    for v in &distinct {
        assert!(v.get("cost").and_then(|c| c.as_f64()).is_some());
    }
    for w in distinct.windows(2) {
        assert_ne!(w[0].get("cache_key"), w[1].get("cache_key"));
    }

    // (b) The stats endpoint shows the searches were deduplicated: fewer
    // misses (= real searches) than search requests, and every request
    // accounted as exactly one of hit/miss/coalesced.
    let v = query(addr, "{\"stats\": true}");
    let stats = v.get("stats").expect("stats object");
    let field = |name: &str| stats.get(name).and_then(|x| x.as_u64()).expect(name);
    let (hits, misses, coalesced) = (
        field("cache_hits"),
        field("cache_misses"),
        field("coalesced"),
    );
    assert_eq!(hits + misses + coalesced, 12, "12 search requests");
    assert!(
        misses < 12,
        "singleflight/cache must deduplicate at least one search: \
         hits={hits} misses={misses} coalesced={coalesced}"
    );
    assert!(misses >= 5, "5 distinct keys need at least 5 searches");
    assert_eq!(field("in_flight"), 0);

    // Phase 2 (c): hammer the same + fresh keys again — every hit now also
    // exercises disk promotion/persistence under contention. Completing at
    // all (within the test harness timeout) is the no-deadlock assertion.
    let again: Vec<_> = (0..12)
        .map(|i| {
            std::thread::spawn(move || {
                if i % 2 == 0 {
                    query(addr, SLOW)
                } else {
                    query(
                        addr,
                        &format!(
                            "{{\"model\": \"mlp\", \"devices\": {}, \"machine\": \"test\", \
                             \"weak_scaling\": false}}",
                            2 + i
                        ),
                    )
                }
            })
        })
        .collect();
    for t in again {
        let v = t.join().unwrap();
        assert!(v.get("cost").and_then(|c| c.as_f64()).is_some());
    }

    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.requests, 25, "12 + stats + 12");
    assert_eq!(
        summary.cache_hits + summary.cache_misses + summary.coalesced,
        24
    );
    // Persistence actually happened: entries exist on disk.
    let files = std::fs::read_dir(&dir).expect("cache dir exists").count();
    assert!(
        files >= 5,
        "at least one file per distinct key, got {files}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two clients released together send distinct cold requests to a
/// 2-worker server, so both workers run a search at once and issue their
/// parallel operations into the shared helper pool concurrently. Each
/// answer must equal a 1-thread search of the same request bit for bit.
#[test]
fn concurrent_cold_searches_match_single_thread_searches() {
    use pase_core::Search;
    use pase_cost::{ConfigRule, DeviceMesh, MachineSpec};

    let (addr, handle, join) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool");
    for (round, p) in [4u32, 8, 16].into_iter().enumerate() {
        let models = ["rnnlm", "transformer"];
        let start = Arc::new(Barrier::new(models.len()));
        let clients: Vec<_> = models
            .iter()
            .map(|&model| {
                let start = Arc::clone(&start);
                let line = format!(
                    "{{\"model\": \"{model}\", \"devices\": {p}, \"machine\": \"test\", \
                     \"weak_scaling\": false}}"
                );
                std::thread::spawn(move || {
                    start.wait();
                    query(addr, &line)
                })
            })
            .collect();
        for (model, client) in models.iter().zip(clients) {
            let v = client.join().expect("client");
            assert_eq!(v.get("cached").and_then(|c| c.as_bool()), Some(false));
            let graph = pase_models::build_named(model, p, false).expect("model");
            let oracle = single
                .install(|| {
                    Search::new(&graph)
                        .rule(ConfigRule::new(p))
                        .mesh(DeviceMesh::flat(&MachineSpec::test_machine()))
                        .run()
                })
                .expect_found("oracle search");
            let cost = v.get("cost").and_then(|c| c.as_f64()).expect("cost");
            assert_eq!(
                cost.to_bits(),
                oracle.cost.to_bits(),
                "round {round}: {model} p={p} cost"
            );
            let ids: Vec<u16> = v
                .get("strategy")
                .and_then(|s| s.as_array())
                .expect("strategy")
                .iter()
                .map(|id| u16::try_from(id.as_u64().expect("id")).expect("u16 id"))
                .collect();
            assert_eq!(
                ids, oracle.config_ids,
                "round {round}: {model} p={p} config_ids"
            );
        }
    }
    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.cache_misses, 6, "every request was a cold search");
}
