"""TRIM query fast path — compound indexes and the planner.

Section 6 names both growth directions this bench measures: alternative
implementation mechanisms for large data sets (storage/indexing) and
"augmenting such interfaces with query capabilities" (the conjunctive
engine).  Two measurements on one large generated pad workload
(:func:`repro.workloads.generator.build_planner_store`):

1. **Two-field selection** — ``value_of`` on a hub subject: the exact
   ``(subject, property)`` compound bucket versus the seed behaviour
   (filter the smaller single-field bucket, replicated here verbatim).
2. **Adversarially-ordered conjunctive query** — the unselective pattern
   written first; planner off evaluates the written order, planner on
   reorders by index statistics.

Results print via ``print_table`` (run with ``-s``) and aggregate into
``BENCH_trim_query.json`` at the repo root so future PRs can track the
trajectory.  Set ``BENCH_SMOKE=1`` to shrink the workload for CI smoke
runs (the JSON then records the smoke scale).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.triples.query import Pattern, Query, Var
from repro.triples.triple import Literal, Resource
from repro.workloads.generator import PLANNER_NEEDLE, build_planner_store

from benchmarks.conftest import print_table, run_once

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))
NUM_BUNDLES = 150 if _SMOKE else 1500
SCRAPS_PER_BUNDLE = 4 if _SMOKE else 8
TWO_FIELD_LOOKUPS = 50 if _SMOKE else 300

_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_trim_query.json"

#: Sections accumulated by the tests below; the last test writes the file.
_RESULTS = {}


@pytest.fixture(scope="module")
def store():
    return build_planner_store(NUM_BUNDLES, SCRAPS_PER_BUNDLE)


def _best_of(fn, repeats=3):
    """Wall-clock the callable, best of *repeats* (noise guard)."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _legacy_two_field(store, subject, prop):
    """The seed's two-field selection: filter the smaller single-field
    bucket (what ``_candidates`` did before the compound indexes)."""
    buckets = [store._by_subject.get(subject, frozenset()),
               store._by_property.get(prop, frozenset())]
    bucket = min(buckets, key=len)
    return [t for t in bucket
            if t.subject == subject and t.property == prop]


def test_two_field_selection_compound_vs_single(benchmark, store):
    """DMI-style ``value_of`` on the hub subject: compound bucket wins."""
    root = Resource("wl-root")
    name = Resource("slim:bundleName")

    def legacy():
        for _ in range(TWO_FIELD_LOOKUPS):
            hits = _legacy_two_field(store, root, name)
        return hits

    def indexed():
        for _ in range(TWO_FIELD_LOOKUPS):
            hits = store.select(subject=root, property=name)
        return hits

    legacy_s, legacy_hits = _best_of(legacy)
    indexed_s, indexed_hits = run_once(benchmark, lambda: _best_of(indexed))
    assert legacy_hits == indexed_hits
    assert indexed_hits[0].value == Literal("workload root")
    speedup = legacy_s / indexed_s
    _RESULTS["two_field_selection"] = {
        "lookups": TWO_FIELD_LOOKUPS,
        "single_index_s": round(legacy_s, 6),
        "compound_index_s": round(indexed_s, 6),
        "speedup": round(speedup, 2),
    }
    print_table(
        f"Two-field selection × {TWO_FIELD_LOOKUPS} (hub subject)",
        ["path", "seconds", "speedup"],
        [("single-field min bucket (seed)", f"{legacy_s:.6f}", "1.00x"),
         ("(subject, property) compound", f"{indexed_s:.6f}",
          f"{speedup:.1f}x")])
    assert speedup > 2  # the hub case the compound index exists for


def _adversarial_query(planner):
    # Unselective pattern written first: every bundleContent edge binds
    # before the one-hit scrapName value is ever consulted.
    return Query([
        Pattern(Var("b"), Resource("slim:bundleContent"), Var("s")),
        Pattern(Var("s"), Resource("slim:scrapName"),
                Literal(PLANNER_NEEDLE)),
    ], planner=planner)


def test_adversarial_conjunctive_query_planner(benchmark, store):
    """Planner reorders the written worst case; ≥5× is the claim floor."""
    unplanned_s, unplanned = _best_of(
        lambda: _adversarial_query(planner=False).run_all(store))
    planned_s, planned = run_once(
        benchmark,
        lambda: _best_of(lambda: _adversarial_query(planner=True).run_all(store)))

    canon = lambda rows: {tuple(sorted(r.items())) for r in rows}
    assert canon(unplanned) == canon(planned)
    assert len(planned) == 1   # exactly one needle scrap in the workload

    plan = _adversarial_query(planner=True).explain(store)
    assert [step.position for step in plan] == [1, 0]  # selective first
    assert plan[0].estimate <= 1

    speedup = unplanned_s / planned_s
    _RESULTS["conjunctive_query"] = {
        "patterns": 2,
        "unplanned_s": round(unplanned_s, 6),
        "planned_s": round(planned_s, 6),
        "speedup": round(speedup, 2),
        "solutions": len(planned),
    }
    print_table(
        "Adversarially-ordered conjunctive query",
        ["evaluation", "seconds", "speedup"],
        [("written order (planner off)", f"{unplanned_s:.6f}", "1.00x"),
         ("selectivity plan (planner on)", f"{planned_s:.6f}",
          f"{speedup:.1f}x")])
    assert speedup >= 5


def test_writes_trajectory_json(benchmark, store, tmp_path):
    """Aggregate the sections above into BENCH_trim_query.json.

    Smoke runs (``BENCH_SMOKE=1``, the ``make bench-smoke`` target) write to
    a temp path instead, so the checked-in trajectory file always holds
    full-scale numbers.
    """
    assert set(_RESULTS) == {"two_field_selection", "conjunctive_query"}, \
        "earlier bench tests must run first"
    json_path = (tmp_path / "BENCH_trim_query.json") if _SMOKE else _JSON_PATH
    payload = {
        "bench": "trim_query",
        "smoke": _SMOKE,
        "workload": {
            "generator": "repro.workloads.generator.build_planner_store",
            "num_bundles": NUM_BUNDLES,
            "scraps_per_bundle": SCRAPS_PER_BUNDLE,
            "triples": len(store),
        },
        **_RESULTS,
    }

    def write():
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        return json_path

    path = run_once(benchmark, write)
    assert path.exists() and json.loads(path.read_text())["bench"] == "trim_query"
