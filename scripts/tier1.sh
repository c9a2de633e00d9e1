#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md): formatting, release build,
# full test suite, a smoke run of the search A/B benchmark so the
# exactness assertions in bench_search (pruned optimum bit-identical to
# unpruned, flat-mesh optimum bit-identical to scalar) execute on the
# real benchmark graphs, the perfbench self-test, a trace smoke test
# validating the --trace-out Chrome-trace output end to end, and a mesh
# smoke planning one model across three device-mesh shapes through the
# serve path.
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
serve_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$serve_dir"' EXIT
cargo run -p pase-cli --release --bin pase -- search \
    --model transformer --devices 64 \
    --trace-out "$trace_dir/trace.json" --json --out "$trace_dir/spec.json"
python3 scripts/check_trace.py "$trace_dir/trace.json" "$trace_dir/spec.json"

# Concurrent-serve smoke: small load cells against the sharded (threaded)
# and event front ends, a nonzero idle-swarm cell (32 idle connections
# must not stop the event loop from serving), and a batch-coalescing
# check (N identical queries in one batch = 1 search + N-1 hits).
cargo run -p pase-bench --release --bin bench_serve -- --smoke

# Planner-service smoke, once per front end: start `pase serve` on an
# ephemeral port, issue the same query twice, require the second to be a
# cache hit returning the identical strategy, probe the counters, then
# send a batch of 8 identical queries for a fresh key (1 search + 7
# hits), and shut down cleanly (SIGINT must drain and exit 0).
for frontend in event threaded; do
    ./target/release/pase serve --addr 127.0.0.1:0 --workers 2 \
        --frontend "$frontend" \
        > "$serve_dir/serve.out" 2> "$serve_dir/serve.err" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$serve_dir/serve.out")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "pase serve ($frontend) never reported its address:" >&2
        cat "$serve_dir/serve.err" >&2
        exit 1
    fi
    ./target/release/pase query --model alexnet --devices 8 --addr "$addr" \
        --out "$serve_dir/q1.json"
    ./target/release/pase query --model alexnet --devices 8 --addr "$addr" \
        --out "$serve_dir/q2.json"
    ./target/release/pase query --stats --addr "$addr" --out "$serve_dir/stats.json"
    ./target/release/pase query --model mlp --devices 8 --batch 8 --addr "$addr" \
        --out "$serve_dir/batch.json"
    kill -INT "$serve_pid"
    wait "$serve_pid"
    echo "== serve smoke ($frontend front end) =="
    python3 scripts/check_serve.py "$serve_dir/q1.json" "$serve_dir/q2.json" \
        "$serve_dir/stats.json"
    python3 scripts/check_serve.py --batch "$serve_dir/batch.json" 8
done

# Prewarm smoke: a server started with --prewarm answers its first query
# for a prewarmed cell as a cache hit (prewarm fills wire-default cells,
# so the query passes --weak-scaling to match).
./target/release/pase serve --addr 127.0.0.1:0 --workers 2 \
    --prewarm alexnet:8:1080ti \
    > "$serve_dir/prewarm.out" 2> "$serve_dir/prewarm.err" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_dir/prewarm.out")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "pase serve --prewarm never reported its address:" >&2
    cat "$serve_dir/prewarm.err" >&2
    exit 1
fi
./target/release/pase query --model alexnet --devices 8 --weak-scaling \
    --addr "$addr" --out "$serve_dir/prewarm_q.json"
kill -INT "$serve_pid"
wait "$serve_pid"
python3 scripts/check_serve.py --prewarm "$serve_dir/prewarm_q.json"

# Frontier smoke: one --frontier query pays the only DP fill (through the
# frontier microkernel); two different --max-memory queries for the same
# cell (one generous, one equal to the frontier's memory floor) must then
# both be cache hits on the same entry — the cache key deliberately drops
# the memory budget — and must answer points of the cached frontier.
./target/release/pase serve --addr 127.0.0.1:0 --workers 2 \
    > "$serve_dir/frontier.out" 2> "$serve_dir/frontier.err" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_dir/frontier.out")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "pase serve (frontier smoke) never reported its address:" >&2
    cat "$serve_dir/frontier.err" >&2
    exit 1
fi
./target/release/pase query --model mlp --devices 8 --frontier \
    --addr "$addr" --out "$serve_dir/f.json"
generous="$(python3 -c "import json; \
print(max(p['memory_bytes'] for p in json.load(open('$serve_dir/f.json'))['frontier']))")"
floor="$(python3 -c "import json; \
print(min(p['memory_bytes'] for p in json.load(open('$serve_dir/f.json'))['frontier']))")"
./target/release/pase query --model mlp --devices 8 --max-memory "$generous" \
    --addr "$addr" --out "$serve_dir/b1.json"
./target/release/pase query --model mlp --devices 8 --max-memory "$floor" \
    --addr "$addr" --out "$serve_dir/b2.json"
./target/release/pase query --stats --addr "$addr" --out "$serve_dir/fstats.json"
kill -INT "$serve_pid"
wait "$serve_pid"
python3 scripts/check_serve.py --frontier "$serve_dir/f.json" \
    "$serve_dir/b1.json" "$serve_dir/b2.json" "$serve_dir/fstats.json"

# Mesh smoke: one model planned across three mesh shapes. The named
# profile and an inline scalar machine object with the same numbers must
# share one cache entry (flat == scalar, and the cache key is name-blind);
# a two-tier mesh and a three-tier heterogeneous mesh must each get their
# own distinct entry, costed no cheaper than flat.
cat > "$serve_dir/flat_machine.json" <<'JSON'
{"name": "inline-1080ti", "peak_flops": 11.3e12, "link_bandwidth": 12.0e9}
JSON
cat > "$serve_dir/tier2_machine.json" <<'JSON'
{"name": "twotier", "axes": [
  {"name": "gpu",  "size": 8, "alpha": 5e-6,  "bandwidth": 12.0e9, "peak_flops": 11.3e12},
  {"name": "node", "size": 4, "alpha": 15e-6, "bandwidth": 6.0e9,  "peak_flops": 11.3e12}]}
JSON
cat > "$serve_dir/hetero_machine.json" <<'JSON'
{"name": "hetero", "axes": [
  {"name": "gpu",  "size": 2, "alpha": 5e-6,  "bandwidth": 12.0e9, "peak_flops": 11.3e12},
  {"name": "node", "size": 2, "alpha": 15e-6, "bandwidth": 6.0e9,  "peak_flops": 13.4e12},
  {"name": "rack", "size": 2, "alpha": 30e-6, "bandwidth": 1.5e9,  "peak_flops": 11.3e12}]}
JSON
./target/release/pase serve --addr 127.0.0.1:0 --workers 2 \
    > "$serve_dir/mesh.out" 2> "$serve_dir/mesh.err" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_dir/mesh.out")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "pase serve (mesh smoke) never reported its address:" >&2
    cat "$serve_dir/mesh.err" >&2
    exit 1
fi
./target/release/pase query --model mlp --devices 8 --addr "$addr" \
    --out "$serve_dir/m_flat.json"
./target/release/pase query --model mlp --devices 8 \
    --machine-file "$serve_dir/flat_machine.json" --addr "$addr" \
    --out "$serve_dir/m_flat_inline.json"
./target/release/pase query --model mlp --devices 8 \
    --machine-file "$serve_dir/tier2_machine.json" --addr "$addr" \
    --out "$serve_dir/m_tier2.json"
./target/release/pase query --model mlp --devices 8 \
    --machine-file "$serve_dir/hetero_machine.json" --addr "$addr" \
    --out "$serve_dir/m_hetero.json"
./target/release/pase query --stats --addr "$addr" --out "$serve_dir/m_stats.json"
kill -INT "$serve_pid"
wait "$serve_pid"
python3 scripts/check_serve.py --mesh "$serve_dir/m_flat.json" \
    "$serve_dir/m_flat_inline.json" "$serve_dir/m_tier2.json" \
    "$serve_dir/m_hetero.json" "$serve_dir/m_stats.json"
