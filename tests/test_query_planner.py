"""Tests for the selectivity-based query planner.

The planner contract: results are identical (order-insensitive) with the
planner on and off — the written pattern order may change the cost, never
the answer.  ``explain()`` exposes the chosen order so the reordering
itself is testable.
"""

import random

import pytest

from repro.triples.query import Pattern, PlanStep, Query, Var
from repro.triples.store import TripleStore
from repro.triples.triple import Literal, Resource, triple


@pytest.fixture
def pad_store():
    s = TripleStore()
    s.add(triple("pad", "slim:rootBundle", Resource("b0")))
    s.add(triple("b0", "slim:bundleName", "John Smith"))
    s.add(triple("b0", "slim:bundleContent", Resource("s0")))
    s.add(triple("b0", "slim:nestedBundle", Resource("b1")))
    s.add(triple("s0", "slim:scrapName", "Lasix 40mg"))
    s.add(triple("b1", "slim:bundleName", "Electrolyte"))
    s.add(triple("b1", "slim:bundleContent", Resource("s1")))
    s.add(triple("s1", "slim:scrapName", "K+ 3.9"))
    s.add(triple("b9", "slim:bundleName", "Unrelated"))
    return s


def _canon(bindings):
    return {tuple(sorted(b.items())) for b in bindings}


class TestExplain:
    def test_explain_orders_selective_pattern_first(self, pad_store):
        q = Query([
            Pattern(Var("b"), Resource("slim:bundleContent"), Var("s")),
            Pattern(Var("s"), Resource("slim:scrapName"), Literal("K+ 3.9")),
        ])
        plan = q.explain(pad_store)
        assert [step.position for step in plan] == [1, 0]
        assert all(isinstance(step, PlanStep) for step in plan)
        # The selective step is estimated from the exact (p, v) bucket.
        assert plan[0].estimate == 1
        assert plan[0].bound_before == ()
        assert plan[1].bound_before == ("s",)

    def test_explain_with_planner_off_keeps_written_order(self, pad_store):
        q = Query([
            Pattern(Var("b"), Resource("slim:bundleContent"), Var("s")),
            Pattern(Var("s"), Resource("slim:scrapName"), Literal("K+ 3.9")),
        ], planner=False)
        assert [step.position for step in q.explain(pad_store)] == [0, 1]

    def test_explain_without_statistics_keeps_written_order(self, pad_store):
        class BareStore:
            """Match-only stand-in: no count(), so no planning."""

            def match(self, subject=None, property=None, value=None):
                return pad_store.match(subject, property, value)

        q = Query([
            Pattern(Var("b"), Resource("slim:bundleContent"), Var("s")),
            Pattern(Var("s"), Resource("slim:scrapName"), Literal("K+ 3.9")),
        ])
        plan = q.explain(BareStore())
        assert [step.position for step in plan] == [0, 1]
        assert [step.estimate for step in plan] == [-1, -1]
        assert len(q.run_all(BareStore())) == 1

    def test_plan_step_renders_readably(self, pad_store):
        q = Query([Pattern(Var("s"), Resource("slim:scrapName"), None)])
        text = str(q.explain(pad_store)[0])
        assert "?s" in text and "slim:scrapName" in text and "_" in text

    def test_ties_fall_back_to_written_order(self, pad_store):
        p = Pattern(Var("x"), Resource("slim:bundleName"), Var("n"))
        q = Query([p, p])
        assert [step.position for step in q.explain(pad_store)] == [0, 1]

    def test_zero_estimate_patterns_chosen_first(self, pad_store):
        q = Query([
            Pattern(Var("b"), Resource("slim:bundleName"), Var("n")),
            Pattern(Var("b"), Resource("slim:noSuchProperty"), Var("v")),
        ])
        plan = q.explain(pad_store)
        assert plan[0].position == 1 and plan[0].estimate == 0
        assert q.run_all(pad_store) == []


class TestPlannerEquivalence:
    def test_join_query_same_results_both_modes(self, pad_store):
        patterns = [
            Pattern(Var("b"), Resource("slim:bundleContent"), Var("s")),
            Pattern(Var("s"), Resource("slim:scrapName"), Var("n")),
        ]
        on = Query(patterns).run_all(pad_store)
        off = Query(patterns, planner=False).run_all(pad_store)
        assert _canon(on) == _canon(off)
        assert len(on) == 2

    def test_randomized_equivalence(self):
        """Random stores × random conjunctive queries: planner on == off."""
        rng = random.Random(2001)
        subjects = [Resource(f"n{i}") for i in range(12)]
        properties = [Resource(f"p{i}") for i in range(4)]
        values = subjects + [Literal(i) for i in range(6)]
        var_names = ["a", "b", "c", "d"]

        for trial in range(25):
            store = TripleStore()
            for _ in range(rng.randrange(5, 60)):
                store.add(triple(rng.choice(subjects), rng.choice(properties),
                                 rng.choice(values)))

            def term(position):
                roll = rng.random()
                if roll < 0.45:
                    return Var(rng.choice(var_names))
                if roll < 0.55:
                    return None
                if position == "value":
                    return rng.choice(values)
                return rng.choice(subjects if position == "subject"
                                  else properties)

            patterns = [Pattern(term("subject"), term("property"),
                                term("value"))
                        for _ in range(rng.randrange(1, 4))]
            on = Query(patterns).run_all(store)
            off = Query(patterns, planner=False).run_all(store)
            assert _canon(on) == _canon(off), (trial, patterns)
            assert len(on) == len(off)  # dedup agrees too

    def test_dedup_does_not_drop_distinct_bindings(self, pad_store):
        q = Query([Pattern(Var("b"), Resource("slim:bundleName"), Var("n"))])
        results = q.run_all(pad_store)
        assert len(results) == 3
        assert len(_canon(results)) == 3


class TestTrimIntegration:
    def test_trim_count_and_explain(self):
        from repro.triples.trim import TrimManager
        trim = TrimManager()
        trim.create("b1", "slim:bundleContent", Resource("s1"))
        trim.create("s1", "slim:scrapName", "K+ 3.9")
        for i in range(5):
            trim.create(f"b{i + 2}", "slim:bundleContent", Resource(f"s{i + 2}"))
            trim.create(f"s{i + 2}", "slim:scrapName", f"scrap {i}")
        assert trim.count(subject=Resource("b1")) == 1
        assert trim.count(prop=Resource("slim:scrapName"),
                          value=Literal("K+ 3.9")) == 1
        q = Query([
            Pattern(Var("b"), Resource("slim:bundleContent"), Var("s")),
            Pattern(Var("s"), Resource("slim:scrapName"), Literal("K+ 3.9")),
        ])
        plan = trim.explain(q)
        assert [step.position for step in plan] == [1, 0]
        assert trim.query(q)[0]["b"] == Resource("b1")
