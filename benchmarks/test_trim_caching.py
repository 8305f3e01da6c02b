"""Read-cache benchmarks: memoized selects/queries + incremental views (ISSUE 6).

Three questions the cache tier answers:

1. **Warm repeated reads** — SLIMPad browsing traffic re-runs the same
   conjunctive queries and selections over a store that mutates in
   bursts.  With the read cache a warm repeated ``TrimManager.query``
   must run >= 10x faster than the planner-only baseline
   (``cache=False`` — the PR-1 planner evaluating the join from scratch
   every time): a hit is one read barrier + one dict probe + one copy,
   independent of join width.  A churn pass over more distinct keys
   than the cache holds exercises the LRU so the eviction counters in
   the report are live numbers, not zeros.
2. **Reads between writes** — the cache drops only the entries a write
   can change, so bundle selects interleaved one-for-one with scrap
   renames (writes to other subjects) must keep a >= 0.9 hit rate;
   invalidating every entry on every write would miss every select.
3. **Views under mutation** — a reachability view read after every write
   burst used to pay a full closure BFS per generation bump.  The
   listener-maintained view applies each insert incrementally (O(1) for
   unreachable subjects, frontier-BFS for reachable ones), so the
   read-after-write loop must run >= 5x faster than ``incremental=False``
   legacy views on the same op sequence — while returning the identical
   closure.

Results print via ``print_table`` (run with ``-s``) and aggregate into
``BENCH_trim_caching.json`` at the repo root.  ``BENCH_SMOKE=1`` shrinks
the workload and redirects the JSON to a temp path.
"""

import json
import os
import time
from pathlib import Path

from repro.triples.query import Pattern, Query, Var
from repro.triples.store import TripleStore
from repro.triples.trim import TrimManager
from repro.triples.triple import Literal, Resource, triple
from repro.triples.views import View

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
#: View shape: reachable graph size and mutate+read round count.
VIEW_NODES = 120 if _SMOKE else 400
VIEW_ROUNDS = 80 if _SMOKE else 300
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
    churn = _seed_pad(TrimManager(cache_entries=CHURN_ENTRIES))
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


def _seed_graph(store):
    """A bundle tree: a root fanning out to VIEW_NODES nested bundles in
    a 4-ary hierarchy, each node holding one name triple — deep enough
    that a full closure BFS is visibly expensive."""
    with store.bulk():
        for i in range(VIEW_NODES):
            parent = "slim:root" if i < 4 else f"slim:v{(i - 4) // 4}"
            store.add(triple(parent, "slim:nestedBundle",
                             Resource(f"slim:v{i}")))
            store.add(triple(f"slim:v{i}", "slim:bundleName", f"node {i}"))
    return store


def _view_churn(store, view, rounds):
    """The mutating read-after-write loop: each round adds one triple to
    a reachable subject and one to an unreachable one, then reads the
    closure; returns (seconds, final closure size)."""
    size = 0
    start = time.perf_counter()
    for i in range(rounds):
        store.add(triple(f"slim:v{i % VIEW_NODES}", "slim:note",
                         Literal(f"edit {i}")))
        store.add(triple(f"slim:offview{i}", "slim:note", "unrelated"))
        size = len(view.triples())
    return time.perf_counter() - start, size


def test_incremental_views_under_mutation(benchmark):
    """The second acceptance: >= 5x repeated ``View.triples()`` under a
    mutating workload vs full-recompute (legacy) views."""
    legacy_store = _seed_graph(TripleStore())
    legacy_view = View(legacy_store, Resource("slim:root"),
                       incremental=False)
    incr_store = _seed_graph(TripleStore())
    incr_view = View(incr_store, Resource("slim:root"))

    legacy_view.triples()                         # materialize both once
    incr_view.triples()
    legacy_s, legacy_size = _view_churn(legacy_store, legacy_view,
                                        VIEW_ROUNDS)
    incr_s, incr_size = run_once(
        benchmark, lambda: _view_churn(incr_store, incr_view, VIEW_ROUNDS))
    assert incr_size == legacy_size               # identical closures

    speedup = legacy_s / incr_s
    if not _SMOKE:
        assert speedup >= 5.0, \
            f"incremental views only {speedup:.1f}x the full-recompute rate"

    stats = incr_view.cache_stats()
    assert stats["recomputes"] == 1               # the initial BFS only
    _RESULTS["incremental_views"] = {
        "nodes": VIEW_NODES,
        "rounds": VIEW_ROUNDS,
        "closure_size": incr_size,
        "legacy_read_us": round(legacy_s / VIEW_ROUNDS * 1e6, 2),
        "incremental_read_us": round(incr_s / VIEW_ROUNDS * 1e6, 2),
        "speedup_x": round(speedup, 2),
        "recomputes": stats["recomputes"],
        "events_applied": stats["events_applied"],
        "events_seen": stats["events_seen"],
    }
    print_table(
        f"View reads under mutation ({VIEW_ROUNDS} write+read rounds, "
        f"closure of {incr_size})",
        ["view mode", "µs/round", "recomputes", "speedup"],
        [("full recompute (legacy)", f"{legacy_s / VIEW_ROUNDS * 1e6:.1f}",
          VIEW_ROUNDS, "1.0x"),
         ("incremental", f"{incr_s / VIEW_ROUNDS * 1e6:.1f}",
          stats["recomputes"], f"{speedup:.1f}x")])


def test_writes_trajectory_json(benchmark, tmp_path):
    """Aggregate the sections above into BENCH_trim_caching.json.

    Smoke runs write to a temp path instead, so the checked-in trajectory
    file always holds full-scale numbers.
    """
    assert set(_RESULTS) == {"cached_reads", "reads_between_writes",
                             "incremental_views"}, \
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
            "view_nodes": VIEW_NODES,
            "view_rounds": VIEW_ROUNDS,
        },
        **_RESULTS,
    }

    def write():
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        return json_path

    path = run_once(benchmark, write)
    assert path.exists()
    assert json.loads(path.read_text())["bench"] == "trim_caching"
