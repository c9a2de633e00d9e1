//! Determinism self-test: two traced runs of a workload with one seed must
//! report identical exact counts, and every run must pass its oracle.
//!
//! The serve workloads start `pase serve`, found next to the `perfbench`
//! binary (`python3 perfbench/run.py --self-test` builds both into one
//! target directory) or at `$PERFBENCH_PASE`.

use pase_obs::json;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

fn pase() -> PathBuf {
    if let Some(p) = std::env::var_os("PERFBENCH_PASE") {
        return PathBuf::from(p);
    }
    let sibling = PathBuf::from(BIN).with_file_name("pase");
    assert!(
        sibling.exists(),
        "no pase binary at {}: run `python3 perfbench/run.py --self-test` \
         or set PERFBENCH_PASE",
        sibling.display()
    );
    sibling
}

/// One traced run; returns its metrics by name.
fn run(workload: &str, seed: u64) -> Vec<(String, f64)> {
    let out_dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .arg("--pase")
        .arg(pase())
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("perfbench runs");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let v = json::parse(last).expect("the result line is JSON");
    assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(true));
    assert_eq!(v.get("failed").and_then(json::Value::as_u64), Some(0));
    let Some(json::Value::Object(metrics)) = v.get("metrics") else {
        panic!("no metrics in {last}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(json::Value::as_f64).expect("value");
            (name.clone(), value)
        })
        .collect()
}

fn assert_same(workload: &str, names: &[&str]) {
    let (a, b) = (run(workload, 7), run(workload, 7));
    for name in names {
        let get = |m: &[(String, f64)]| {
            m.iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{workload} reports no {name}"))
        };
        assert_eq!(get(&a), get(&b), "{workload}: {name} differs between runs");
    }
}

#[test]
fn plan_counts_repeat() {
    assert_same(
        "plan",
        &[
            "core.dp_entries",
            "cost.prune_kept_ratio",
            "core.packed_bytes",
        ],
    );
}

#[test]
fn frontier_counts_repeat() {
    assert_same(
        "plan-frontier",
        &[
            "core.dp_entries",
            "core.frontier_points",
            "core.packed_bytes",
        ],
    );
}

#[test]
fn serve_hits_counts_repeat() {
    assert_same(
        "serve-hits",
        &[
            "serve.cache_hits",
            "serve.cache_misses",
            "serve.cache_entries",
        ],
    );
}

/// Coalescing depends on timing, so churn is only checked for a clean
/// run; its counts are reported, not compared.
#[test]
fn serve_churn_runs_clean() {
    run("serve-churn", 7);
}
