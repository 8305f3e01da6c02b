"""Tests for conjunctive queries and reachability views."""

import pytest

from repro.errors import QueryError
from repro.triples.query import Pattern, Query, Var
from repro.triples.store import TripleStore
from repro.triples.triple import Literal, Resource, triple
from repro.triples.views import reachable_triples


@pytest.fixture
def pad_store():
    """A small Bundle-Scrap graph:

    pad -> root bundle b0 -> {scrap s0, bundle b1 -> scrap s1}
    plus an unrelated bundle b9.
    """
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


class TestVarAndPattern:
    def test_var_requires_name(self):
        with pytest.raises(QueryError):
            Var("")

    def test_var_str(self):
        assert str(Var("x")) == "?x"

    def test_literal_subject_rejected(self):
        with pytest.raises(QueryError):
            Pattern(Literal("x"), Resource("p"), None)

    def test_literal_property_rejected(self):
        with pytest.raises(QueryError):
            Pattern(Resource("s"), Literal("p"), None)

    def test_pattern_variables(self):
        p = Pattern(Var("a"), Resource("p"), Var("b"))
        assert p.variables() == ["a", "b"]


class TestQuery:
    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            Query([])

    def test_single_pattern_binds_variables(self, pad_store):
        q = Query([Pattern(Var("b"), Resource("slim:bundleName"), Var("n"))])
        names = {b["n"].value for b in q.run(pad_store)}
        assert names == {"John Smith", "Electrolyte", "Unrelated"}

    def test_join_across_patterns(self, pad_store):
        # Which bundle contains the scrap named 'K+ 3.9'?
        q = Query([
            Pattern(Var("b"), Resource("slim:bundleContent"), Var("s")),
            Pattern(Var("s"), Resource("slim:scrapName"), Literal("K+ 3.9")),
        ])
        results = q.run_all(pad_store)
        assert len(results) == 1
        assert results[0]["b"] == Resource("b1")

    def test_shared_variable_enforces_equality(self, pad_store):
        # ?x named by itself: no scrapName equals a bundleName here.
        q = Query([
            Pattern(Var("x"), Resource("slim:bundleName"), Var("n")),
            Pattern(Var("x"), Resource("slim:scrapName"), Var("n")),
        ])
        assert q.run_all(pad_store) == []

    def test_anonymous_wildcards_do_not_join(self, pad_store):
        q = Query([Pattern(None, Resource("slim:bundleContent"), Var("s"))])
        scraps = {b["s"].uri for b in q.run(pad_store)}
        assert scraps == {"s0", "s1"}

    def test_results_deduplicated(self, pad_store):
        # ?b has a name — pattern twice over should not double results.
        q = Query([
            Pattern(Var("b"), Resource("slim:bundleName"), None),
            Pattern(Var("b"), Resource("slim:bundleName"), None),
        ])
        bundles = [b["b"].uri for b in q.run(pad_store)]
        assert sorted(bundles) == ["b0", "b1", "b9"]

    def test_pattern_order_does_not_change_results(self, pad_store):
        p1 = Pattern(Var("b"), Resource("slim:bundleContent"), Var("s"))
        p2 = Pattern(Var("s"), Resource("slim:scrapName"), Var("n"))
        forward = {(b["b"], b["s"], b["n"]) for b in Query([p1, p2]).run(pad_store)}
        backward = {(b["b"], b["s"], b["n"]) for b in Query([p2, p1]).run(pad_store)}
        assert forward == backward

    def test_variables_listing(self):
        q = Query([Pattern(Var("a"), Var("p"), Var("a"))])
        assert q.variables == ["a", "p"]

    def test_variable_bound_to_literal_in_subject_position_fails_cleanly(self, pad_store):
        # ?n binds to a literal in pattern 1 and is then used as a subject.
        q = Query([
            Pattern(Var("b"), Resource("slim:bundleName"), Var("n")),
            Pattern(Var("n"), Resource("slim:anything"), None),
        ])
        assert q.run_all(pad_store) == []


class TestReachability:
    def test_view_from_root_bundle_excludes_unrelated(self, pad_store):
        triples = reachable_triples(pad_store, Resource("b0"))
        subjects = {t.subject.uri for t in triples}
        assert subjects == {"b0", "s0", "b1", "s1"}
        assert all(t.subject.uri != "b9" for t in triples)

    def test_view_from_pad_reaches_everything_linked(self, pad_store):
        triples = reachable_triples(pad_store, Resource("pad"))
        subjects = list(dict.fromkeys(t.subject.uri for t in triples))
        # Every linked resource, in BFS discovery order.
        assert subjects == ["pad", "b0", "s0", "b1", "s1"]

    def test_cycles_terminate(self):
        s = TripleStore()
        s.add(triple("a", "p", Resource("b")))
        s.add(triple("b", "p", Resource("a")))
        triples = reachable_triples(s, Resource("a"))
        assert len(triples) == 2

    def test_follow_properties_restricts_traversal(self, pad_store):
        triples = reachable_triples(pad_store, Resource("b0"),
                                    follow_properties=[Resource("slim:bundleContent")])
        subjects = {t.subject.uri for t in triples}
        # nestedBundle edge not followed: b1's contents invisible...
        assert "s1" not in subjects
        # ...but b0's own nestedBundle triple is still part of the view.
        assert any(t.property.uri == "slim:nestedBundle" for t in triples)

    def test_max_depth_bounds_expansion(self, pad_store):
        triples = reachable_triples(pad_store, Resource("pad"), max_depth=1)
        subjects = {t.subject.uri for t in triples}
        assert subjects == {"pad", "b0"}

    def test_root_with_no_triples_gives_empty_view(self, pad_store):
        assert reachable_triples(pad_store, Resource("ghost")) == []

    def test_literal_values_never_expand(self, pad_store):
        # A literal equal to a resource uri must not cause traversal.
        s = TripleStore()
        s.add(triple("a", "p", "b"))          # literal 'b'
        s.add(triple("b", "q", "unreachable"))
        triples = reachable_triples(s, Resource("a"))
        assert len(triples) == 1
