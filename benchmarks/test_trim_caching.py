"""Read-cache benchmarks: memoized selects and queries.

Two questions the cache tier answers:

1. **Warm repeated reads** — SLIMPad browsing traffic re-runs the same
   conjunctive queries and selections over a store that mutates in
   bursts.  With the read cache a warm repeated ``TrimManager.query``
   must run >= 10x faster than the planner-only baseline
   (``cache=False`` — the planner evaluating the join from scratch
   every time): a hit is one read barrier + one dict probe + one copy,
   independent of join width.  A churn pass over more distinct keys
   than the cache holds exercises the LRU so the eviction counters in
   the report are live numbers, not zeros.
2. **Reads between writes** — the cache drops only the entries a write
   can change, so bundle selects interleaved one-for-one with scrap
   renames (writes to other subjects) must keep a >= 0.9 hit rate;
   invalidating every entry on every write would miss every select.

Reachability views ride the same cache (``TrimManager.reachable``);
their served cost is measured end to end by ``perfbench`` (``review``'s
bundle views).

Results print via ``print_table`` (run with ``-s``) and aggregate into
``BENCH_trim_caching.json`` at the repo root.  ``BENCH_SMOKE=1`` shrinks
the workload and redirects the JSON to a temp path.
"""

import json
import os
import time
from pathlib import Path

from repro.triples.query import Pattern, Query, Var
from repro.triples.trim import TrimManager
from repro.triples.triple import Resource

from benchmarks.conftest import print_table, run_once

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))
#: Repeated-read shape: bundle/scrap pool size and read-pass op count.
BUNDLES = 60 if _SMOKE else 200
SCRAPS_PER_BUNDLE = 3
QUERY_OPS = 150 if _SMOKE else 1500
SELECT_OPS = 2000 if _SMOKE else 20000
#: Reads-between-writes shape: select + scrap rename rounds.
INTERLEAVED_OPS = 1000 if _SMOKE else 10000
#: LRU churn shape: distinct subject keys probed vs the cache entry cap.
CHURN_ENTRIES = 64
CHURN_SUBJECTS = 200 if _SMOKE else 2000
_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_trim_caching.json"

#: Sections accumulated by the tests below; the last test writes the file.
_RESULTS = {}


def _seed_pad(trim):
    """A bundle/scrap pool shaped like the SLIMPad workloads: BUNDLES
    bundles, each holding SCRAPS_PER_BUNDLE scraps with names."""
    with trim.store.bulk():
        for b in range(BUNDLES):
            bundle = f"slim:b{b}"
            trim.create(bundle, "slim:bundleName", f"Bundle {b}")
            for s in range(SCRAPS_PER_BUNDLE):
                scrap = f"slim:b{b}-s{s}"
                trim.create(bundle, "slim:bundleContent", Resource(scrap))
                trim.create(scrap, "slim:scrapName", f"scrap {b}-{s}")
    return trim


def _join_query():
    """The paper's bundle-browse join, built fresh per op (a real caller
    constructs its query each time — structural equality must hit)."""
    return Query([
        Pattern(Var("b"), Resource("slim:bundleContent"), Var("s")),
        Pattern(Var("s"), Resource("slim:scrapName"), Var("n")),
    ])


def _query_pass(trim, ops):
    """Repeated conjunctive queries; returns (seconds, rows_per_op)."""
    rows = 0
    start = time.perf_counter()
    for _ in range(ops):
        rows = len(trim.query(_join_query()))
    return time.perf_counter() - start, rows


def _select_pass(trim, ops):
    """Repeated subject-routed selections; returns seconds."""
    subjects = [Resource(f"slim:b{b}") for b in range(BUNDLES)]
    start = time.perf_counter()
    for i in range(ops):
        trim.select(subject=subjects[i % BUNDLES])
    return time.perf_counter() - start


def test_warm_repeated_reads(benchmark):
    """The tentpole acceptance: >= 10x repeated queries at a warm cache
    vs the planner-only baseline."""
    cached = _seed_pad(TrimManager())
    uncached = _seed_pad(TrimManager(cache=False))

    _query_pass(cached, 2)                        # warm the cache
    _query_pass(uncached, 2)                      # warm allocator/planner
    baseline_s, baseline_rows = _query_pass(uncached, QUERY_OPS)
    cached_s, cached_rows = run_once(
        benchmark, lambda: _query_pass(cached, QUERY_OPS))
    assert cached_rows == baseline_rows == BUNDLES * SCRAPS_PER_BUNDLE

    speedup = baseline_s / cached_s
    if not _SMOKE:  # smoke workloads are too small for a stable ratio
        assert speedup >= 10.0, \
            f"warm cached queries only {speedup:.1f}x the planner-only rate"

    select_uncached_s = _select_pass(uncached, SELECT_OPS)
    select_cached_s = _select_pass(cached, SELECT_OPS)

    # LRU churn: more distinct keys than entries, so the eviction
    # counters below report a live bounded-cache workload.
    churn = TrimManager()
    churn.cache.MAX_ENTRIES = CHURN_ENTRIES
    _seed_pad(churn)
    for i in range(CHURN_SUBJECTS):
        churn.select(subject=Resource(f"slim:churn{i}"))
    churn_stats = churn.cache_stats()["select_cache"]
    assert churn_stats["evictions"] > 0
    assert churn_stats["entries"] <= CHURN_ENTRIES

    stats = cached.cache_stats()["select_cache"]
    assert stats["hit_rate"] > 0.9                # warm = mostly hits
    _RESULTS["cached_reads"] = {
        "query_ops": QUERY_OPS,
        "rows_per_query": cached_rows,
        "planner_only_query_us": round(baseline_s / QUERY_OPS * 1e6, 2),
        "cached_query_us": round(cached_s / QUERY_OPS * 1e6, 2),
        "query_speedup_x": round(speedup, 2),
        "select_ops": SELECT_OPS,
        "uncached_select_us": round(select_uncached_s / SELECT_OPS * 1e6, 3),
        "cached_select_us": round(select_cached_s / SELECT_OPS * 1e6, 3),
        "hit_rate": round(stats["hit_rate"], 4),
        "hits": stats["hits"],
        "misses": stats["misses"],
        "invalidations": stats["invalidations"],
        "evictions_under_churn": churn_stats["evictions"],
        "avg_fill_us": round(stats["avg_fill_us"], 2),
    }
    print_table(
        f"Warm repeated reads ({QUERY_OPS} joins over "
        f"{BUNDLES * SCRAPS_PER_BUNDLE} rows)",
        ["read path", "planner-only µs", "cached µs", "speedup"],
        [("conjunctive query", f"{baseline_s / QUERY_OPS * 1e6:.1f}",
          f"{cached_s / QUERY_OPS * 1e6:.1f}", f"{speedup:.1f}x"),
         ("subject select", f"{select_uncached_s / SELECT_OPS * 1e6:.2f}",
          f"{select_cached_s / SELECT_OPS * 1e6:.2f}",
          f"{select_uncached_s / select_cached_s:.1f}x")])


def _interleaved_pass(trim, ops):
    """Each round selects one bundle, then renames one scrap (a write to
    another subject); returns seconds."""
    bundles = [Resource(f"slim:b{b}") for b in range(BUNDLES)]
    scraps = [Resource(f"slim:b{b}-s{s}") for b in range(BUNDLES)
              for s in range(SCRAPS_PER_BUNDLE)]
    name = Resource("slim:scrapName")
    start = time.perf_counter()
    for i in range(ops):
        trim.select(subject=bundles[i % BUNDLES])
        scrap = scraps[i % len(scraps)]
        trim.store.remove_matching(subject=scrap, property=name)
        trim.create(scrap, name, f"renamed {i}")
    return time.perf_counter() - start


def test_selects_between_writes(benchmark):
    """Selects stay cached across writes that cannot change them."""
    cached = _seed_pad(TrimManager())
    uncached = _seed_pad(TrimManager(cache=False))
    uncached_s = _interleaved_pass(uncached, INTERLEAVED_OPS)
    cached_s = run_once(
        benchmark, lambda: _interleaved_pass(cached, INTERLEAVED_OPS))
    assert cached.select(subject=Resource("slim:b0")) == \
        uncached.select(subject=Resource("slim:b0"))
    stats = cached.cache_stats()["select_cache"]
    assert stats["hits"] + stats["misses"] == INTERLEAVED_OPS + 1
    hit_rate = stats["hits"] / (stats["hits"] + stats["misses"])
    assert hit_rate >= 0.9, f"hit rate between writes {hit_rate:.3f}"
    _RESULTS["reads_between_writes"] = {
        "ops": INTERLEAVED_OPS,
        "hit_rate": round(hit_rate, 4),
        "hits": stats["hits"],
        "misses": stats["misses"],
        "invalidations": stats["invalidations"],
        "uncached_round_us": round(uncached_s / INTERLEAVED_OPS * 1e6, 2),
        "cached_round_us": round(cached_s / INTERLEAVED_OPS * 1e6, 2),
    }
    print_table(
        f"Bundle selects between scrap renames ({INTERLEAVED_OPS} rounds)",
        ["read path", "µs/round", "hit rate"],
        [("uncached", f"{uncached_s / INTERLEAVED_OPS * 1e6:.1f}", "-"),
         ("cached", f"{cached_s / INTERLEAVED_OPS * 1e6:.1f}",
          f"{hit_rate:.3f}")])


def test_writes_trajectory_json(benchmark, tmp_path):
    """Aggregate the sections above into BENCH_trim_caching.json.

    Smoke runs write to a temp path instead, so the checked-in trajectory
    file always holds full-scale numbers.
    """
    assert set(_RESULTS) == {"cached_reads", "reads_between_writes"}, \
        "earlier bench tests must run first"
    json_path = ((tmp_path / "BENCH_trim_caching.json")
                 if _SMOKE else _JSON_PATH)
    payload = {
        "bench": "trim_caching",
        "smoke": _SMOKE,
        "workload": {
            "bundles": BUNDLES,
            "scraps_per_bundle": SCRAPS_PER_BUNDLE,
            "query_ops": QUERY_OPS,
            "select_ops": SELECT_OPS,
            "interleaved_ops": INTERLEAVED_OPS,
        },
        **_RESULTS,
    }

    def write():
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        return json_path

    path = run_once(benchmark, write)
    assert path.exists()
    assert json.loads(path.read_text())["bench"] == "trim_caching"
