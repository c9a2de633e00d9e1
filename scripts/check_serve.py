#!/usr/bin/env python3
"""Planner-service smoke assertions (see scripts/tier1.sh).

Default mode takes the response files of two identical `pase query` calls
against one server and checks the content-addressed cache contract: the
first response is a miss, the second is a hit, and both carry the same
cache key, cost, and strategy (the hit must be byte-for-byte the cached
answer, not a re-search).

An optional third file is the response of a `pase query --stats` probe
issued after the two queries; it must report the server's counters with
the two search requests accounted for (one miss, one hit) and nothing
left in flight.

Two further modes:

  check_serve.py --batch FILE N    FILE is the response of a
                                   `pase query --batch N` for a key the
                                   server had not seen: one response array
                                   of N elements, element 0 a miss and the
                                   other N-1 cache hits of the identical
                                   strategy (1 search + N-1 hits).
  check_serve.py --prewarm FILE    FILE is the response of the FIRST query
                                   against a `--prewarm`ed server; it must
                                   already be a cache hit.
  check_serve.py --frontier F B1 B2 STATS
                                   F is the response of a `--frontier`
                                   query (a miss carrying the Pareto set);
                                   B1/B2 are two different `--max-memory`
                                   queries for the same cell. The cache key
                                   drops the budget, so both must be cache
                                   hits on F's entry — one DP fill serves
                                   every budget variant — and each answer
                                   must be a point of F's frontier. F's
                                   report must name the frontier
                                   microkernel (stats.dp_kernel
                                   "frontier-tiled") and count its points
                                   in stats.frontier_len. STATS must
                                   account exactly 1 miss + 2 hits.
  check_serve.py --mesh FLAT FLAT_INLINE TIER2 HETERO STATS
                                   One model planned across mesh shapes.
                                   FLAT names a registry profile;
                                   FLAT_INLINE sends the same machine as an
                                   inline scalar object and must hit FLAT's
                                   cache entry with the identical cost and
                                   strategy (the key is name-blind and a
                                   flat mesh is bit-identical to the scalar
                                   model); TIER2/HETERO are inline multi-
                                   axis meshes and must be misses on their
                                   own distinct entries, costed no cheaper
                                   than FLAT. STATS must account exactly
                                   3 misses + 1 hit.
"""

import json
import sys

SCHEMA_VERSION = 5


def check_batch(path: str, n: int) -> None:
    with open(path) as f:
        resp = json.load(f)
    assert "error" not in resp, f"batch query failed: {resp['error']}"
    assert resp["schema_version"] == SCHEMA_VERSION, f"batch: bad schema_version: {resp}"
    batch = resp["batch"]
    assert len(batch) == n, f"expected {n} batch responses, got {len(batch)}"
    for i, q in enumerate(batch):
        assert "error" not in q, f"batch[{i}] failed: {q['error']}"
        assert q["report"]["outcome"] == "ok", f"batch[{i}]: {q['report']}"
        assert q["cached"] is (i > 0), (
            f"batch[{i}]: identical queries must be 1 search + {n - 1} hits: "
            f"cached={q['cached']}"
        )
        assert q["cache_key"] == batch[0]["cache_key"], f"batch[{i}]: key differs"
        assert q["strategy"] == batch[0]["strategy"], f"batch[{i}]: strategy differs"
        assert q["cost"] == batch[0]["cost"], f"batch[{i}]: cost differs"
    print(
        f"serve batch OK: {n} identical queries -> 1 search + {n - 1} hits, "
        f"key {batch[0]['cache_key']}"
    )


def check_prewarm(path: str) -> None:
    with open(path) as f:
        q = json.load(f)
    assert "error" not in q, f"prewarm query failed: {q['error']}"
    assert q["report"]["outcome"] == "ok", f"prewarm query: {q['report']}"
    assert q["cached"] is True, (
        "the first query against a prewarmed server must be a cache hit"
    )
    assert q["strategy"], "prewarm query: empty strategy"
    print(f"serve prewarm OK: first query hit, key {q['cache_key']}")


def check_stats(path: str) -> None:
    with open(path) as f:
        resp = json.load(f)
    assert "error" not in resp, f"stats query failed: {resp['error']}"
    assert resp["schema_version"] == SCHEMA_VERSION, f"stats: bad schema_version: {resp}"
    stats = resp["stats"]
    assert stats["cache_bytes"] > 0, f"a populated cache must report bytes: {stats}"
    hits, misses = stats["cache_hits"], stats["cache_misses"]
    coalesced, in_flight = stats["coalesced"], stats["in_flight"]
    assert stats["requests"] >= 3, f"expected >= 3 requests (incl. probe): {stats}"
    assert misses >= 1, f"the first search query must be a miss: {stats}"
    assert hits >= 1, f"the second search query must be a hit: {stats}"
    assert hits + misses + coalesced == 2, (
        f"exactly the two search queries must be accounted: {stats}"
    )
    assert in_flight == 0, f"no search may be left in flight: {stats}"
    print(
        f"serve stats OK: {stats['requests']} requests, {hits} hits, "
        f"{misses} misses, {coalesced} coalesced"
    )


def check_frontier(f_path: str, b1_path: str, b2_path: str, stats_path: str) -> None:
    with open(f_path) as f:
        fr = json.load(f)
    assert "error" not in fr, f"frontier query failed: {fr['error']}"
    assert fr["schema_version"] == SCHEMA_VERSION, f"frontier: bad schema_version: {fr}"
    assert fr["cached"] is False, "the frontier query must be the one DP fill"
    points = fr["frontier"]
    assert points, "frontier query returned an empty frontier"
    for a, b in zip(points, points[1:]):
        assert a["cost"] < b["cost"] and a["memory_bytes"] > b["memory_bytes"], (
            f"frontier is not dominance-pruned: {a} vs {b}"
        )
    assert fr["cost"] == points[0]["cost"], (
        "an unbudgeted frontier query must answer the min-time point"
    )
    fstats = fr["report"]["stats"]
    assert fstats["dp_kernel"] == "frontier-tiled", (
        f"the frontier fill must run the frontier microkernel: {fstats}"
    )
    assert fstats["frontier_len"] == len(points), (
        f"stats.frontier_len {fstats['frontier_len']} != {len(points)} returned points"
    )

    answers = {(p["cost"], p["memory_bytes"]) for p in points}
    for i, path in enumerate((b1_path, b2_path), 1):
        with open(path) as f:
            q = json.load(f)
        assert "error" not in q, f"budget query {i} failed: {q['error']}"
        assert q["cached"] is True, (
            f"budget query {i} must be served from the cached frontier "
            f"(the cache key drops the budget): {q}"
        )
        assert q["cache_key"] == fr["cache_key"], (
            f"budget query {i} hit a different entry than the frontier query"
        )
        assert q["infeasible"] is False, f"budget query {i}: {q}"
        assert (q["cost"], q["peak_memory_bytes"]) in answers, (
            f"budget query {i} answered ({q['cost']}, {q['peak_memory_bytes']}), "
            f"which is not a point of the cached frontier"
        )

    with open(stats_path) as f:
        stats = json.load(f)["stats"]
    assert stats["cache_misses"] == 1, (
        f"one DP fill must serve every budget variant: {stats}"
    )
    assert stats["cache_hits"] == 2, f"both budget queries must be hits: {stats}"
    print(
        f"serve frontier OK: {len(points)}-point frontier, key {fr['cache_key']}, "
        f"1 fill + 2 budget hits"
    )


def check_mesh(
    flat_path: str, inline_path: str, tier2_path: str, hetero_path: str, stats_path: str
) -> None:
    responses = {}
    for name, path in (
        ("flat", flat_path),
        ("flat_inline", inline_path),
        ("tier2", tier2_path),
        ("hetero", hetero_path),
    ):
        with open(path) as f:
            q = json.load(f)
        assert "error" not in q, f"{name} query failed: {q['error']}"
        assert q["schema_version"] == SCHEMA_VERSION, f"{name}: bad schema_version: {q}"
        assert q["report"]["outcome"] == "ok", f"{name}: {q['report']}"
        assert q["strategy"], f"{name}: empty strategy"
        responses[name] = q

    flat, inline = responses["flat"], responses["flat_inline"]
    tier2, hetero = responses["tier2"], responses["hetero"]

    # Flat == scalar: the inline scalar-machine object describes the same
    # flat mesh as the registry name, so it must land on the same
    # (name-blind) cache entry and be served the identical answer.
    assert flat["cached"] is False, "the named-profile query must be the first miss"
    assert inline["cached"] is True, (
        "an inline scalar machine equal to the profile must hit the profile's entry"
    )
    assert inline["cache_key"] == flat["cache_key"], (
        "the cache key must be name-blind: same axes, same entry"
    )
    assert inline["cost"] == flat["cost"], "flat inline mesh changed the cost"
    assert inline["strategy"] == flat["strategy"], "flat inline mesh changed the strategy"
    assert flat["report"]["stats"]["mesh_axes"] == 1, flat["report"]["stats"]

    # Each multi-axis mesh is its own cache entry and its own plan.
    keys = {flat["cache_key"], tier2["cache_key"], hetero["cache_key"]}
    assert len(keys) == 3, f"mesh shapes must cache separately: {keys}"
    for name, q, axes in (("tier2", tier2, 2), ("hetero", hetero, 3)):
        assert q["cached"] is False, f"{name} must be a fresh plan, not a hit"
        assert q["report"]["stats"]["mesh_axes"] == axes, (
            f"{name}: expected {axes} mesh axes: {q['report']['stats']}"
        )
        assert q["cost"] >= flat["cost"], (
            f"{name}: slower outer fabrics cannot beat the flat mesh "
            f"({q['cost']} < {flat['cost']})"
        )

    with open(stats_path) as f:
        stats = json.load(f)["stats"]
    assert stats["cache_misses"] == 3, f"three mesh shapes = three fills: {stats}"
    assert stats["cache_hits"] == 1, f"the inline flat query must be the one hit: {stats}"
    print(
        f"serve mesh OK: 3 mesh shapes -> 3 entries, inline flat == scalar "
        f"(key {flat['cache_key']}), tiered costs {tier2['cost']:.6g} / "
        f"{hetero['cost']:.6g} vs flat {flat['cost']:.6g}"
    )


def main() -> None:
    if sys.argv[1] == "--batch":
        check_batch(sys.argv[2], int(sys.argv[3]))
        return
    if sys.argv[1] == "--prewarm":
        check_prewarm(sys.argv[2])
        return
    if sys.argv[1] == "--frontier":
        check_frontier(sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5])
        return
    if sys.argv[1] == "--mesh":
        check_mesh(sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5], sys.argv[6])
        return
    with open(sys.argv[1]) as f:
        q1 = json.load(f)
    with open(sys.argv[2]) as f:
        q2 = json.load(f)

    for i, q in enumerate((q1, q2), 1):
        assert "error" not in q, f"query {i} failed: {q['error']}"
        assert q["schema_version"] == SCHEMA_VERSION, f"query {i}: bad schema_version: {q}"
        assert q["report"]["outcome"] == "ok", f"query {i}: {q['report']}"
        assert q["strategy"], f"query {i}: empty strategy"

    assert q1["cached"] is False, "first query must be a cache miss"
    assert q2["cached"] is True, "second identical query must be a cache hit"
    assert q1["cache_key"] == q2["cache_key"], "cache keys differ"
    assert q1["strategy"] == q2["strategy"], "cache hit returned a different strategy"
    assert q1["cost"] == q2["cost"], "cache hit returned a different cost"

    print(
        f"serve smoke OK: key {q1['cache_key']}, "
        f"{len(q1['strategy'])} node configs, cost {q1['cost']:.6g}"
    )

    if len(sys.argv) > 3:
        check_stats(sys.argv[3])


if __name__ == "__main__":
    main()
