#!/usr/bin/env python3
"""Validate a `pase search --trace-out` Chrome trace against its --json spec.

Usage: check_trace.py <trace.json> <spec.json>

Checks:
  * both files parse as JSON;
  * the trace contains one "X" span for every pipeline phase (enumeration,
    interning, table_build, prune, structure, plan, backtrack) and at least
    one per-wavefront fill span;
  * every DP fill runs a packing microkernel (stats.dp_kernel "tiled", or
    "frontier-tiled" for Pareto-frontier searches), so the trace must
    contain the nested "kernel" sub-span and a packed_bytes counter sample;
  * the summed span durations are within 10% of the elapsed time reported
    by the embedded search report (the spans partition the pipeline, so
    their sum must also not exceed elapsed by more than rounding). The
    "kernel" span is nested inside its fill span, so it is excluded from
    the disjoint sum;
  * every table_bytes sample (the live table bytes after a wave) is at
    most stats.peak_table_bytes: the fill frees a child's costs (scalar)
    or (time, mem) points (frontier) once its parent is filled, and the
    peak is taken before a batch's children are freed;
  * for a scalar ("tiled") search, stats.peak_table_bytes is at most
    stats.table_entries x 10 bytes (an f64 cost plus a u16 choice per
    allocated entry);
  * for a frontier ("frontier-tiled") search, the report counts at least
    one Pareto point (stats.frontier_len).
"""

import json
import sys


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <trace.json> <spec.json>")
    trace_path, spec_path = sys.argv[1], sys.argv[2]

    with open(trace_path, encoding="utf-8") as f:
        trace = json.load(f)
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)

    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace has no traceEvents array")
    spans = [e for e in events if e.get("ph") == "X"]
    names = {e["name"] for e in spans}

    report = spec.get("search_report")
    if not isinstance(report, dict):
        fail("spec has no embedded search_report object")

    required = {
        "enumeration",
        "interning",
        "table_build",
        "prune",
        "structure",
        "plan",
        "backtrack",
    }
    missing = required - names
    if missing:
        fail(f"missing phase spans: {sorted(missing)} (have: {sorted(names)})")
    wavefronts = [n for n in names if n.startswith("wavefront ")]
    if not wavefronts:
        fail(f"no per-wavefront fill spans (have: {sorted(names)})")

    dp_kernel = report["stats"].get("dp_kernel")
    if dp_kernel not in ("tiled", "frontier-tiled"):
        fail(f"stats.dp_kernel is {dp_kernel!r}, want 'tiled' or 'frontier-tiled'")
    if "kernel" not in names:
        fail(f"the DP ran ({dp_kernel}) but the trace has no kernel span")
    counter_names = {e["name"] for e in events if e.get("ph") == "C"}
    if "packed_bytes" not in counter_names:
        fail(f"the DP ran ({dp_kernel}) but the trace has no packed_bytes counter")

    elapsed_us = report["stats"]["elapsed"] * 1e6
    # The kernel sub-span nests inside its fill span — its time is already
    # counted by the parent, so it stays out of the disjoint sum.
    span_sum_us = sum(e["dur"] for e in spans if e["name"] != "kernel")
    if elapsed_us <= 0:
        fail("report elapsed is not positive")
    ratio = span_sum_us / elapsed_us
    if not 0.9 <= ratio <= 1.1:
        fail(
            f"span sum {span_sum_us / 1e3:.2f}ms vs reported elapsed "
            f"{elapsed_us / 1e3:.2f}ms (ratio {ratio:.3f}, want 0.9..1.1)"
        )

    counters = [e for e in events if e.get("ph") == "C"]
    table_bytes = [e["args"]["value"] for e in counters if e["name"] == "table_bytes"]
    if not table_bytes:
        fail("no table_bytes counter samples")
    peak = report["stats"]["peak_table_bytes"]
    if max(table_bytes) > peak:
        fail(f"a table_bytes sample {max(table_bytes)} exceeds peak_table_bytes {peak}")
    if dp_kernel == "tiled":
        allocated = report["stats"]["table_entries"] * 10
        if peak > allocated:
            fail(f"peak_table_bytes {peak} exceeds table_entries x 10 = {allocated}")
    elif report["stats"]["frontier_len"] < 1:
        fail("a frontier search reported no Pareto points")

    print(
        f"check_trace: OK — {len(spans)} spans ({len(wavefronts)} wavefronts), "
        f"{len(counters)} counter samples, span sum covers {ratio:.1%} of elapsed"
    )


if __name__ == "__main__":
    main()
