#!/usr/bin/env bash
# End-to-end smoke of the `pase serve` binary (linux only). Needs a
# release build: `cargo build --release -p pase-cli`. Each check starts a
# server on an ephemeral port, talks to it with `pase query`, shuts it
# down with SIGINT (which must drain and exit 0), and validates the
# answers with scripts/check_serve.py.
set -euo pipefail
cd "$(dirname "$0")/.."

pase=./target/release/pase
dir="$(mktemp -d)"
serve_pid=""
cleanup() {
    if [ -n "$serve_pid" ]; then
        kill "$serve_pid" 2> /dev/null || true
    fi
    rm -rf "$dir"
}
trap cleanup EXIT

# start_serve NAME [serve options...]: start a server, wait for the
# "listening on" line, and set $addr and $serve_pid.
start_serve() {
    local name="$1"
    shift
    "$pase" serve --addr 127.0.0.1:0 --workers 2 "$@" \
        > "$dir/$name.out" 2> "$dir/$name.err" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$dir/$name.out")"
        [ -n "$addr" ] && return 0
        sleep 0.1
    done
    echo "pase serve ($name) never reported its address:" >&2
    cat "$dir/$name.err" >&2
    exit 1
}

# stop_serve: SIGINT must drain in-flight work and exit 0.
stop_serve() {
    kill -INT "$serve_pid"
    wait "$serve_pid"
    serve_pid=""
}

# Query smoke: the same query twice (the second must be a cache hit with
# the identical strategy), the counters, then a batch of 8 identical
# queries for a fresh key (1 search + 7 hits).
echo "== serve smoke: query, stats, batch =="
start_serve query
"$pase" query --model alexnet --devices 8 --addr "$addr" --out "$dir/q1.json"
"$pase" query --model alexnet --devices 8 --addr "$addr" --out "$dir/q2.json"
"$pase" query --stats --addr "$addr" --out "$dir/stats.json"
"$pase" query --model mlp --devices 8 --batch 8 --addr "$addr" --out "$dir/batch.json"
stop_serve
python3 scripts/check_serve.py "$dir/q1.json" "$dir/q2.json" "$dir/stats.json"
python3 scripts/check_serve.py --batch "$dir/batch.json" 8

# Prewarm smoke: a server started with --prewarm answers its first query
# for a prewarmed cell as a cache hit (prewarm fills wire-default cells,
# so the query passes --weak-scaling to match).
echo "== serve smoke: prewarm =="
start_serve prewarm --prewarm alexnet:8:1080ti
"$pase" query --model alexnet --devices 8 --weak-scaling \
    --addr "$addr" --out "$dir/prewarm_q.json"
stop_serve
python3 scripts/check_serve.py --prewarm "$dir/prewarm_q.json"

# Frontier smoke: one --frontier query pays the only DP fill; two
# different --max-memory queries for the same cell (one generous, one
# equal to the frontier's memory floor) must then both be cache hits on
# the same entry — the cache key deliberately drops the memory budget —
# and must answer points of the cached frontier.
echo "== serve smoke: frontier =="
start_serve frontier
"$pase" query --model mlp --devices 8 --frontier --addr "$addr" --out "$dir/f.json"
generous="$(python3 -c "import json; \
print(max(p['memory_bytes'] for p in json.load(open('$dir/f.json'))['frontier']))")"
floor="$(python3 -c "import json; \
print(min(p['memory_bytes'] for p in json.load(open('$dir/f.json'))['frontier']))")"
"$pase" query --model mlp --devices 8 --max-memory "$generous" \
    --addr "$addr" --out "$dir/b1.json"
"$pase" query --model mlp --devices 8 --max-memory "$floor" \
    --addr "$addr" --out "$dir/b2.json"
"$pase" query --stats --addr "$addr" --out "$dir/fstats.json"
stop_serve
python3 scripts/check_serve.py --frontier "$dir/f.json" \
    "$dir/b1.json" "$dir/b2.json" "$dir/fstats.json"

# Mesh smoke: one model planned across three mesh shapes. The named
# profile and an inline scalar machine object with the same numbers must
# share one cache entry (flat == scalar, and the cache key is name-blind);
# a two-tier mesh and a three-tier heterogeneous mesh must each get their
# own distinct entry, costed no cheaper than flat.
echo "== serve smoke: meshes =="
cat > "$dir/flat_machine.json" <<'JSON'
{"name": "inline-1080ti", "peak_flops": 11.3e12, "link_bandwidth": 12.0e9}
JSON
cat > "$dir/tier2_machine.json" <<'JSON'
{"name": "twotier", "axes": [
  {"name": "gpu",  "size": 8, "alpha": 5e-6,  "bandwidth": 12.0e9, "peak_flops": 11.3e12},
  {"name": "node", "size": 4, "alpha": 15e-6, "bandwidth": 6.0e9,  "peak_flops": 11.3e12}]}
JSON
cat > "$dir/hetero_machine.json" <<'JSON'
{"name": "hetero", "axes": [
  {"name": "gpu",  "size": 2, "alpha": 5e-6,  "bandwidth": 12.0e9, "peak_flops": 11.3e12},
  {"name": "node", "size": 2, "alpha": 15e-6, "bandwidth": 6.0e9,  "peak_flops": 13.4e12},
  {"name": "rack", "size": 2, "alpha": 30e-6, "bandwidth": 1.5e9,  "peak_flops": 11.3e12}]}
JSON
start_serve mesh
"$pase" query --model mlp --devices 8 --addr "$addr" --out "$dir/m_flat.json"
"$pase" query --model mlp --devices 8 --machine-file "$dir/flat_machine.json" \
    --addr "$addr" --out "$dir/m_flat_inline.json"
"$pase" query --model mlp --devices 8 --machine-file "$dir/tier2_machine.json" \
    --addr "$addr" --out "$dir/m_tier2.json"
"$pase" query --model mlp --devices 8 --machine-file "$dir/hetero_machine.json" \
    --addr "$addr" --out "$dir/m_hetero.json"
"$pase" query --stats --addr "$addr" --out "$dir/m_stats.json"
stop_serve
python3 scripts/check_serve.py --mesh "$dir/m_flat.json" "$dir/m_flat_inline.json" \
    "$dir/m_tier2.json" "$dir/m_hetero.json" "$dir/m_stats.json"
