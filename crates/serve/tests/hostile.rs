//! Hostile-client coverage for the serve front end: slow-loris writers,
//! idle keep-alive swarms, oversized lines, and deeply nested JSON must
//! not occupy a search worker, must still be bounded by `idle_timeout`,
//! and must never take down the server. `pase serve` is linux-only, so
//! this file is too.
#![cfg(target_os = "linux")]

use pase_obs::json;
use pase_serve::{ServeSummary, Server, ServerConfig, ShutdownHandle};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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

/// An idle keep-alive connection must not occupy a worker: with a
/// single-worker pool and an idle client still connected, queries are
/// answered: connections live on the event loops, not on workers.
#[test]
fn idle_connection_does_not_occupy_the_only_worker() {
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let idle = TcpStream::connect(addr).expect("idle connect");
    idle.set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    let v = query(addr, MLP);
    assert!(v.get("cost").and_then(|c| c.as_f64()).is_some());
    // The idle connection is still open after the query was served.
    let mut buf = [0u8; 1];
    match (&idle).read(&mut buf) {
        Ok(0) => panic!("idle connection was closed to serve the query"),
        Ok(_) => panic!("unexpected bytes on an idle connection"),
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{e}"
        ),
    }
    handle.shutdown();
    join.join().unwrap();
}

/// A swarm of idle keep-alive connections costs buffers, not workers:
/// queries keep completing promptly with the swarm connected, and the
/// idle timeout still reaps every member.
#[test]
fn idle_swarm_neither_starves_workers_nor_escapes_the_idle_timeout() {
    let (addr, handle, join) = start(ServerConfig {
        workers: 2,
        idle_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    });
    let swarm: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(addr).expect("swarm connect"))
        .collect();
    for s in &swarm {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    }
    // Active load while the swarm idles.
    for _ in 0..4 {
        let v = query(addr, MLP);
        assert!(v.get("cost").and_then(|c| c.as_f64()).is_some());
    }
    // Every swarm member is closed by the server on its own.
    for mut s in swarm {
        let mut buf = [0u8; 1];
        assert_eq!(s.read(&mut buf).expect("server-side close"), 0);
    }
    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.requests, 4);
}

/// A slow-loris client dribbling bytes that never form a complete line is
/// closed at the idle deadline — partial input does not refresh the idle
/// clock — and meanwhile occupies no worker.
#[test]
fn slow_loris_is_closed_at_the_idle_deadline_without_pinning_a_worker() {
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut loris = TcpStream::connect(addr).expect("loris connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let t0 = Instant::now();
    let closed_after = loop {
        // One byte at a time, never a newline.
        match loris.write_all(b"x") {
            Ok(()) => {}
            Err(_) => break t0.elapsed(), // reset: server already closed
        }
        // The single worker stays available for real traffic.
        let v = query(addr, MLP);
        assert!(v.get("cost").and_then(|c| c.as_f64()).is_some());
        let mut buf = [0u8; 1];
        match loris.set_read_timeout(Some(Duration::from_millis(50))) {
            Ok(()) => match loris.read(&mut buf) {
                Ok(0) => break t0.elapsed(), // server-side close
                Ok(_) => panic!("unexpected bytes for a loris"),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => break t0.elapsed(),
            },
            Err(_) => break t0.elapsed(),
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "loris never closed");
    };
    assert!(
        closed_after >= Duration::from_millis(250),
        "closed too eagerly: {closed_after:?}"
    );
    handle.shutdown();
    join.join().unwrap();
}

/// Port of the PR 4 oversized-line test: a line over the cap gets one
/// protocol error, then the connection closes.
#[test]
fn oversized_line_gets_an_error_and_the_connection_closes() {
    const MAX_LINE: usize = 4 << 20;
    let (addr, handle, join) = start(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
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

/// Port of the PR 4 deep-nesting test: the JSON parser's depth bound
/// answers with a protocol error, and the connection survives to serve a
/// well-formed request.
#[test]
fn deeply_nested_json_is_rejected_and_the_connection_survives() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
    stream.write_all(deep.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).expect("error response");
    let v = json::parse(&response).expect("valid JSON");
    assert!(v
        .get("error")
        .and_then(|e| e.as_str())
        .expect("an error")
        .contains("nesting"));
    // Same connection, a valid request: still served.
    stream.write_all(MLP.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    response.clear();
    reader.read_line(&mut response).expect("valid response");
    let v = json::parse(&response).expect("valid JSON");
    assert!(v.get("cost").and_then(|c| c.as_f64()).is_some());
    handle.shutdown();
    join.join().unwrap();
}

/// Pipelined requests written in one burst come back in order, one
/// response line each.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut burst = String::new();
    for devices in [2, 3, 4] {
        burst.push_str(&format!(
            "{{\"model\": \"mlp\", \"devices\": {devices}, \"machine\": \"test\", \
             \"weak_scaling\": false}}\n"
        ));
    }
    stream.write_all(burst.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut keys = Vec::new();
    for _ in 0..3 {
        let mut response = String::new();
        reader.read_line(&mut response).expect("response");
        let v = json::parse(&response).expect("valid JSON");
        assert!(v.get("cost").and_then(|c| c.as_f64()).is_some());
        keys.push(v.get("cache_key").cloned().expect("a key"));
    }
    // Distinct requests, distinct keys, in request order (keys are
    // deterministic, so re-asking devices=2 must reproduce keys[0]).
    assert_ne!(keys[0], keys[1]);
    assert_ne!(keys[1], keys[2]);
    let again = query(
        addr,
        "{\"model\": \"mlp\", \"devices\": 2, \"machine\": \"test\", \"weak_scaling\": false}",
    );
    assert_eq!(again.get("cache_key"), keys.first());
    handle.shutdown();
    join.join().unwrap();
}
