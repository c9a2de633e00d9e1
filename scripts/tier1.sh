#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md): formatting, release build,
# full test suite, a smoke run of the search A/B benchmark so the
# exactness assertions in bench_search (pruned optimum bit-identical to
# unpruned, flat-mesh optimum bit-identical to scalar) execute on the
# real benchmark graphs, the perfbench self-test, a trace smoke test
# validating the --trace-out Chrome-trace output end to end, and the
# `pase serve` binary smoke (scripts/serve_smoke.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
cargo test -q
# The vendored rayon stub's pool tests (helper panics, nested ops under a
# cap, concurrent callers, withdrawn queue entries) in an optimized build;
# the root package's `cargo test` does not run member crates' tests.
cargo test -q --release -p rayon
# Every cost-table entry bit-identical to the per-entry model, including
# the p = 64 sweep that is too slow for a debug build.
cargo test -q --release --test table_parity -- --include-ignored
# Every keep set equal to the plain pairwise dominance scan, including the
# p = 64 sweep (and InceptionV3 p = 32 and 64).
cargo test -q --release --test prune_parity -- --include-ignored
# Every zoo cell's production search, pruned and unpruned, bit-identical
# to the scalar reference fill, which never frees a table.
cargo test -q --release --test zoo_oracle -- --include-ignored
# The benchmark harness under perfbench/ builds against the library's
# public API: build it and run its determinism and oracle tests, so an API
# change that breaks it fails here rather than at benchmark time.
python3 perfbench/run.py --self-test

# Smoke: regenerates BENCH_search.json; fails if pruning ever changes the
# optimum on any model at p ∈ {8, 32, 64}.
cargo run -p pase-bench --release --bin bench_search

# Trace smoke: the acceptance search must write a valid Chrome-trace JSON
# document containing a span for every pipeline phase, and the spans must
# account for the reported elapsed time (within 10%); check_trace.py also
# asserts the nested "kernel" sub-span and the packed_bytes counter the
# tiled DP kernel records.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run -p pase-cli --release --bin pase -- search \
    --model transformer --devices 64 \
    --trace-out "$trace_dir/trace.json" --json --out "$trace_dir/spec.json"
python3 scripts/check_trace.py "$trace_dir/trace.json" "$trace_dir/spec.json"
# The same checks on a frontier search, whose fill releases each child's
# points once its parent is filled.
cargo run -p pase-cli --release --bin pase -- search \
    --model inception --devices 8 --frontier \
    --trace-out "$trace_dir/frontier_trace.json" --json --out "$trace_dir/frontier_spec.json"
python3 scripts/check_trace.py "$trace_dir/frontier_trace.json" "$trace_dir/frontier_spec.json"

# Concurrent-serve smoke: a small load cell, a nonzero idle-swarm cell
# (32 idle connections must not stop the server from serving), and a
# batch-coalescing check (N identical queries in one batch = 1 search +
# N-1 hits).
cargo run -p pase-bench --release --bin bench_serve -- --smoke

# The `pase serve` binary end to end: queries, stats, batch, SIGINT drain,
# prewarm, frontier budgets and device meshes.
scripts/serve_smoke.sh
