//! `pase search` output options, driven through the built binary: the
//! frontier path writes the Chrome trace and the `--json` sharding spec
//! with its `search_report`, as the scalar path does.

use pase_obs::json::{self, Value};
use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch directory for one test's output files.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pase-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn read_json(path: &PathBuf) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{} was not written: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{} is not JSON: {e}", path.display()))
}

#[test]
fn frontier_search_writes_the_trace_and_the_json_report() {
    let dir = scratch_dir("frontier-json");
    let (trace, spec) = (dir.join("t.json"), dir.join("s.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_pase"))
        .args(["search", "--model", "rnnlm", "--devices", "8", "--frontier"])
        .arg("--trace-out")
        .arg(&trace)
        .arg("--json")
        .arg("--out")
        .arg(&spec)
        .status()
        .expect("pase runs");
    assert!(status.success(), "pase exited with {status}");

    let events = read_json(&trace);
    let events = events
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let named = |name: &str| {
        events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some(name))
    };
    assert!(
        named("backtrack") && named("kernel"),
        "trace lacks DP spans"
    );

    let spec = read_json(&spec);
    let layers = spec
        .get("layers")
        .and_then(Value::as_array)
        .expect("layers");
    assert!(!layers.is_empty());
    let report = spec.get("search_report").expect("search_report");
    assert_eq!(report.get("outcome").and_then(Value::as_str), Some("ok"));
    let stats = report.get("stats").expect("stats");
    assert_eq!(
        stats.get("dp_kernel").and_then(Value::as_str),
        Some("frontier-tiled")
    );
    assert!(stats.get("frontier_len").and_then(Value::as_u64) >= Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}
