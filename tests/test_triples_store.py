"""Tests for the indexed TripleStore: mutation, selection, inspection."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TransactionError, TripleNotFoundError
from repro.triples.store import TripleStore
from repro.triples.triple import Literal, Resource, Triple, triple

# -- hypothesis strategies ----------------------------------------------------

uris = st.text(alphabet="abcdefg:/-", min_size=1, max_size=8).filter(bool)
resources = st.builds(Resource, uris)
literals = st.builds(Literal, st.one_of(
    st.text(max_size=8), st.integers(-99, 99), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32)))
nodes = st.one_of(resources, literals)
triples_st = st.builds(Triple, resources, resources, nodes)


@pytest.fixture
def store():
    s = TripleStore()
    s.add(triple("b1", "slim:bundleName", "Electrolyte"))
    s.add(triple("b1", "slim:bundleContent", Resource("s1")))
    s.add(triple("b1", "slim:bundleContent", Resource("s2")))
    s.add(triple("s1", "slim:scrapName", "K+ 3.9"))
    s.add(triple("s2", "slim:scrapName", "Na 140"))
    return s


class TestMutation:
    def test_add_reports_novelty(self):
        s = TripleStore()
        t = triple("a", "p", "v")
        assert s.add(t) is True
        assert s.add(t) is False
        assert len(s) == 1

    def test_add_all_counts_new_only(self):
        s = TripleStore()
        t1, t2 = triple("a", "p", 1), triple("a", "p", 2)
        assert s.add_all([t1, t2, t1]) == 2

    def test_remove_present(self, store):
        t = triple("s1", "slim:scrapName", "K+ 3.9")
        store.remove(t)
        assert t not in store
        assert len(store) == 4

    def test_remove_absent_raises(self, store):
        with pytest.raises(TripleNotFoundError):
            store.remove(triple("nope", "p", "v"))

    def test_discard_reports_presence(self, store):
        t = triple("s1", "slim:scrapName", "K+ 3.9")
        assert store.discard(t) is True
        assert store.discard(t) is False

    def test_remove_matching_by_subject(self, store):
        removed = store.remove_matching(subject=Resource("b1"))
        assert removed == 3
        assert store.select(subject=Resource("b1")) == []

    def test_clear(self, store):
        store.clear()
        assert len(store) == 0
        assert store.subjects() == []

    def test_readd_after_remove(self, store):
        t = triple("s1", "slim:scrapName", "K+ 3.9")
        store.remove(t)
        assert store.add(t) is True
        assert t in store


class TestSelection:
    def test_match_by_subject(self, store):
        hits = list(store.match(subject=Resource("b1")))
        assert len(hits) == 3

    def test_match_by_property(self, store):
        hits = list(store.match(property=Resource("slim:scrapName")))
        assert {t.subject.uri for t in hits} == {"s1", "s2"}

    def test_match_by_value(self, store):
        hits = list(store.match(value=Resource("s1")))
        assert len(hits) == 1
        assert hits[0].subject == Resource("b1")

    def test_match_by_literal_value(self, store):
        hits = list(store.match(value=Literal("Na 140")))
        assert [t.subject.uri for t in hits] == ["s2"]

    def test_match_combined_fields(self, store):
        hits = list(store.match(subject=Resource("b1"),
                                property=Resource("slim:bundleName")))
        assert len(hits) == 1

    def test_match_all_wildcards(self, store):
        assert len(list(store.match())) == 5

    def test_match_no_hits(self, store):
        assert list(store.match(subject=Resource("ghost"))) == []

    def test_select_preserves_insertion_order(self, store):
        hits = store.select(subject=Resource("b1"))
        assert [str(t.value) for t in hits] == ["'Electrolyte'", "s1", "s2"]

    def test_one_single_match(self, store):
        t = store.one(subject=Resource("b1"), property=Resource("slim:bundleName"))
        assert t is not None and t.value == Literal("Electrolyte")

    def test_one_no_match_is_none(self, store):
        assert store.one(subject=Resource("ghost")) is None

    def test_one_multiple_matches_raises(self, store):
        with pytest.raises(LookupError):
            store.one(subject=Resource("b1"), property=Resource("slim:bundleContent"))

    def test_value_of_and_literal_of(self, store):
        assert store.literal_of(Resource("b1"), Resource("slim:bundleName")) == "Electrolyte"
        assert store.value_of(Resource("ghost"), Resource("p")) is None

    def test_literal_of_rejects_resource_value(self):
        s = TripleStore()
        s.add(triple("pad", "slim:rootBundle", Resource("b0")))
        with pytest.raises(LookupError):
            s.literal_of(Resource("pad"), Resource("slim:rootBundle"))

    def test_values_of_lists_all(self, store):
        values = store.values_of(Resource("b1"), Resource("slim:bundleContent"))
        assert values == [Resource("s1"), Resource("s2")]


class TestInspection:
    def test_len_contains_iter(self, store):
        assert len(store) == 5
        assert triple("s2", "slim:scrapName", "Na 140") in store
        assert len(list(iter(store))) == 5

    def test_subjects_distinct_in_order(self, store):
        assert [r.uri for r in store.subjects()] == ["b1", "s1", "s2"]

    def test_properties_distinct(self, store):
        assert [r.uri for r in store.properties()] == [
            "slim:bundleName", "slim:bundleContent", "slim:scrapName"]

    def test_resources_include_values(self, store):
        uris = [r.uri for r in store.resources()]
        assert "s1" in uris and "s2" in uris and "b1" in uris

    def test_estimated_bytes_grows_with_content(self):
        small, big = TripleStore(), TripleStore()
        small.add(triple("a", "p", "x"))
        for i in range(100):
            big.add(triple(f"subject-{i}", "property", "value" * 10))
        assert big.estimated_bytes() > small.estimated_bytes() > 0

    def test_estimated_bytes_empty_store(self):
        assert TripleStore().estimated_bytes() == 0


class TestListeners:
    def test_listener_sees_adds_and_removes(self, store):
        log = []
        store.add_listener(
            lambda action, t, seq: log.append((action, t.subject.uri)))
        t = triple("x", "p", 1)
        store.add(t)
        store.remove(t)
        assert log == [("add", "x"), ("remove", "x")]

    def test_duplicate_add_not_notified(self, store):
        log = []
        store.add_listener(lambda action, t, seq: log.append(action))
        store.add(triple("b1", "slim:bundleName", "Electrolyte"))
        assert log == []

    def test_unsubscribe(self, store):
        log = []
        unsubscribe = store.add_listener(lambda a, t, seq: log.append(a))
        unsubscribe()
        store.add(triple("x", "p", 1))
        assert log == []


class TestRestoreRows:
    """The dictionary-encoded bulk restore the v3 snapshot loader uses.

    ``restore_rows`` bypasses the per-triple constructor and index
    maintenance, so these tests pin its one obligation: the resulting
    store must be indistinguishable from one built through ``add`` /
    ``restore`` — same membership, iteration order, sequences, and
    index-backed selection — and a bad input must leave the store
    untouched rather than half-built.
    """

    NODES = [Resource("b1"), Resource("slim:bundleName"), Literal("Electrolyte"),
             Resource("slim:bundleContent"), Resource("s1"), Literal(3.9),
             Literal(True)]
    ROWS = [(0, 1, 2, 0), (0, 3, 4, 1), (4, 1, 5, 2), (4, 3, 6, 7)]

    def _restored(self):
        s = TripleStore()
        assert s.restore_rows(self.NODES, self.ROWS) == len(self.ROWS)
        return s

    def _reference(self):
        s = TripleStore()
        for sid, pid, vid, seq in self.ROWS:
            s.restore(Triple(self.NODES[sid], self.NODES[pid],
                             self.NODES[vid]), seq)
        return s

    def test_parity_with_restore_path(self):
        restored, reference = self._restored(), self._reference()
        assert list(restored) == list(reference)
        for t in reference:
            assert restored.sequence_of(t) == reference.sequence_of(t)

    def test_indexes_serve_selections(self):
        s = self._restored()
        assert len(s.select(subject=Resource("b1"))) == 2
        assert len(s.select(property=Resource("slim:bundleName"))) == 2
        assert s.one(subject=Resource("s1"),
                     property=Resource("slim:bundleName")).value == Literal(3.9)
        assert [t.subject.uri
                for t in s.match(value=Resource("s1"))] == ["b1"]

    def test_out_of_order_sequences_iterate_sorted(self):
        s = TripleStore()
        shuffled = [self.ROWS[2], self.ROWS[0], self.ROWS[3], self.ROWS[1]]
        s.restore_rows(self.NODES, shuffled)
        assert [s.sequence_of(t) for t in s] == [0, 1, 2, 7]

    def test_next_sequence_continues_above_restored(self):
        s = self._restored()
        t = triple("fresh", "p", "v")
        s.add(t)
        assert s.sequence_of(t) == 8   # top restored sequence was 7

    def test_requires_empty_store(self):
        s = TripleStore()
        s.add(triple("a", "p", 1))
        with pytest.raises(TransactionError):
            s.restore_rows(self.NODES, self.ROWS)

    def test_requires_idle_store(self):
        s = TripleStore()
        with pytest.raises(TransactionError):
            with s.bulk():
                s.restore_rows(self.NODES, self.ROWS)

    def test_rejects_listeners(self):
        s = TripleStore()
        s.add_listener(lambda action, t, seq: None)
        with pytest.raises(TransactionError):
            s.restore_rows(self.NODES, self.ROWS)

    def test_rejects_non_node_dictionary_entry(self):
        s = TripleStore()
        with pytest.raises(ValueError):
            s.restore_rows([Resource("a"), "not-a-node"], [(0, 0, 1, 0)])
        assert len(s) == 0

    def test_rejects_literal_subject_and_property(self):
        s = TripleStore()
        nodes = [Resource("r"), Literal("text")]
        with pytest.raises(ValueError):
            s.restore_rows(nodes, [(1, 0, 0, 0)])   # literal subject
        with pytest.raises(ValueError):
            s.restore_rows(nodes, [(0, 1, 0, 0)])   # literal property
        assert len(s) == 0
        assert s.add(triple("still", "works", 1))   # store left usable

    def test_failed_restore_leaves_store_empty(self):
        s = TripleStore()
        rows = list(self.ROWS) + [(99, 0, 0, 8)]    # id out of bounds
        with pytest.raises(IndexError):
            s.restore_rows(self.NODES, rows)
        assert len(s) == 0
        assert s.select(subject=Resource("b1")) == []

    @given(st.lists(st.tuples(triples_st, st.integers(0, 10_000)),
                    max_size=30, unique_by=lambda pair: pair[0]))
    def test_random_parity_with_restore(self, items):
        reference = TripleStore()
        for t, seq in items:
            reference.restore(t, seq)
        # Dictionary-encode the reference the way the v3 writer does.
        ids, nodes, rows = {}, [], []
        for t, seq in items:
            key = []
            for node in (t.subject, t.property, t.value):
                if node not in ids:
                    ids[node] = len(nodes)
                    nodes.append(node)
                key.append(ids[node])
            rows.append((key[0], key[1], key[2], seq))
        restored = TripleStore()
        restored.restore_rows(nodes, rows)
        assert list(restored) == list(reference)
        assert all(restored.sequence_of(t) == reference.sequence_of(t)
                   for t, _ in items)


_COMPOUND = ("_by_subject_property", "_by_property_value")


def _check_bucket_shapes(store):
    """Every compound bucket is a bare triple or a set of two or more,
    and holds exactly the member triples that share its key."""
    key_of = {"_by_subject_property": lambda t: (t.subject, t.property),
              "_by_property_value": lambda t: (t.property, t.value)}
    for name in _COMPOUND:
        expected = {}
        for t in store:
            expected.setdefault(key_of[name](t), set()).add(t)
        index = getattr(store, name)
        assert index.keys() == expected.keys(), name
        for key, bucket in index.items():
            if isinstance(bucket, Triple):
                assert {bucket} == expected[key], (name, key)
            else:
                assert isinstance(bucket, set) and len(bucket) >= 2, \
                    (name, key, bucket)
                assert bucket == expected[key], (name, key)


def _check_eight_shapes(store, order, probes):
    """select/count/match agree with *order* (the members in insertion
    order) for every mask of every probe's fields."""
    for probe in probes:
        fields = (probe.subject, probe.property, probe.value)
        for mask in range(8):
            pattern = tuple(node if mask & (1 << i) else None
                            for i, node in enumerate(fields))
            expected = [t for t in order
                        if all(want is None or want == got for want, got
                               in zip(pattern, t.as_tuple()))]
            assert store.select(*pattern) == expected, pattern
            assert set(store.match(*pattern)) == set(expected), pattern
            assert store.count(*pattern) == len(expected), pattern


@pytest.mark.parametrize("concurrent", [False, True],
                         ids=["TripleStore", "concurrent"])
class TestBucketShapes:
    """A compound-index key holding one triple maps to the bare triple;
    a second triple promotes it to a set, and a removal down to one
    demotes it again."""

    def test_every_mutation_leaves_bare_or_multi_buckets(self, concurrent):
        s = TripleStore(concurrent=concurrent)
        a1, a2, a3 = (triple("a", "p", i) for i in (1, 2, 3))
        b1, bq, cq = triple("b", "p", 1), triple("b", "q", 1), \
            triple("c", "q", 1)

        def bulk_flush():
            with s.bulk():
                s.add_all([triple("d", "p", 1), triple("d", "p", 2),
                           triple("e", "q", 9)])
                s.add(triple("b", "p", 2))   # promotes (b, p)
                assert s.count(property=Resource("q")) == 3  # owner flush
                s.add(triple("f", "q", 9))   # promotes (q, 9)

        steps = [
            lambda: s.add(a1),
            lambda: s.add(a2),
            lambda: s.add_all([a3, b1, bq, cq]),
            lambda: s.remove(a2),
            lambda: s.restore(a2, 1),
            bulk_flush,
            lambda: s.discard(b1),
            lambda: s.remove_matching(subject=Resource("a"),
                                      property=Resource("p")),
            lambda: s.remove_matching(property=Resource("q"),
                                      value=Literal(1)),
            lambda: s.remove_matching(value=Literal(9)),
        ]
        for step in steps:
            step()
            _check_bucket_shapes(s)
        assert len(s) == 3
        s.clear()
        _check_bucket_shapes(s)
        assert s._by_subject_property == {} and s._by_property_value == {}

    def test_restore_rows_builds_bare_and_multi_buckets(self, concurrent):
        nodes = [Resource("a"), Resource("b"), Resource("p"), Resource("q"),
                 Literal(1), Literal(2), Literal(3)]
        rows = [(0, 2, 4, 0), (0, 2, 5, 1), (0, 2, 6, 2),   # (a, p) x3
                (1, 2, 4, 3),                               # (p, 1) x2
                (1, 3, 4, 4)]                               # (b, q) x1
        s = TripleStore(concurrent=concurrent)
        assert s.restore_rows(nodes, rows) == len(rows)
        _check_bucket_shapes(s)
        assert isinstance(s._by_subject_property[(nodes[1], nodes[3])], Triple)
        assert isinstance(s._by_property_value[(nodes[3], nodes[4])], Triple)
        assert len(s._by_subject_property[(nodes[0], nodes[2])]) == 3
        assert len(s._by_property_value[(nodes[2], nodes[4])]) == 2
        _check_eight_shapes(s, list(s), list(s))
        s.remove(triple("a", "p", 2))
        s.remove(triple("a", "p", 3))
        _check_bucket_shapes(s)
        assert isinstance(s._by_subject_property[(nodes[0], nodes[2])], Triple)

    def test_restore_rows_repeated_row_keeps_one_bare_triple(self, concurrent):
        nodes = [Resource("a"), Resource("p"), Literal(1)]
        s = TripleStore(concurrent=concurrent)
        s.restore_rows(nodes, [(0, 1, 2, 0), (0, 1, 2, 1)])
        assert len(s) == 1
        _check_bucket_shapes(s)

    def test_promote_on_second_insert_demote_on_removal_to_one(
            self, concurrent):
        s = TripleStore(concurrent=concurrent)
        a, p, v = Resource("a"), Resource("p"), Literal("v")
        first, second, third = triple(a, p, v), triple(a, p, "w"), \
            triple("b", p, v)
        other = triple("c", "q", "x")
        probes = [first, second, third, other, triple("z", "p", "v"),
                  triple("a", "q", "w")]
        order = []

        def shapes():
            return (s._by_subject_property.get((a, p)),
                    s._by_property_value.get((p, v)))

        def check():
            _check_bucket_shapes(s)
            _check_eight_shapes(s, order, probes)

        for t in (other, first):
            s.add(t)
            order.append(t)
        check()
        assert shapes() == (first, first)   # bare in both indexes
        assert shapes()[0] is first

        s.add(second)                        # promotes (a, p)
        order.append(second)
        check()
        sp, pv = shapes()
        assert sp == {first, second} and pv is first

        s.add_all([third])                   # promotes (p, v)
        order.append(third)
        check()
        assert shapes() == ({first, second}, {first, third})

        s.remove(first)                      # demotes both
        order.remove(first)
        check()
        assert shapes() == (second, third)
        assert type(shapes()[0]) is Triple and type(shapes()[1]) is Triple

        s.add(first)                         # promotes both again
        order.append(first)
        check()
        s.remove_matching(subject=a, property=p)
        order = [t for t in order if (t.subject, t.property) != (a, p)]
        check()
        assert shapes() == (None, third)

        s.discard(third)
        order.remove(third)
        check()
        assert shapes() == (None, None)

    def test_demote_rebinds_without_touching_the_old_set(self, concurrent):
        s = TripleStore(concurrent=concurrent)
        keep, drop = triple("a", "p", 1), triple("a", "p", 2)
        s.add_all([keep, drop])
        pair = s._by_subject_property[(keep.subject, keep.property)]
        s.remove(drop)
        assert s._by_subject_property[(keep.subject, keep.property)] is keep
        assert pair == {keep, drop}   # a racing reader's view is intact


class TestStoreProperties:
    """Property-based invariants of the indexed store."""

    @given(st.lists(triples_st, max_size=40))
    def test_add_is_idempotent_set_semantics(self, items):
        s = TripleStore()
        s.add_all(items)
        s.add_all(items)
        assert len(s) == len(set(items))

    @given(st.lists(triples_st, max_size=40))
    def test_match_by_each_field_agrees_with_scan(self, items):
        s = TripleStore()
        s.add_all(items)
        for t in set(items):
            assert t in set(s.match(subject=t.subject))
            assert t in set(s.match(property=t.property))
            assert t in set(s.match(value=t.value))
            assert t in set(s.match(t.subject, t.property, t.value))

    @given(st.lists(triples_st, max_size=40), st.lists(triples_st, max_size=10))
    def test_remove_then_absent_everywhere(self, items, extra):
        s = TripleStore()
        s.add_all(items)
        for t in set(items):
            s.remove(t)
            assert t not in s
            assert t not in set(s.match(subject=t.subject))
            assert t not in set(s.match(value=t.value))
        assert len(s) == 0

    @given(st.lists(triples_st, max_size=40))
    def test_iteration_matches_membership(self, items):
        s = TripleStore()
        s.add_all(items)
        assert set(iter(s)) == set(items)
