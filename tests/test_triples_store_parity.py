"""Store contract suite: :class:`TripleStore` in both of its modes.

Every test here runs against a plain ``TripleStore()`` (the in-process
SLIMPad's mode) *and* ``TripleStore(concurrent=True)`` (every tenant
``repro serve`` opens) via one parametrized fixture.  Anything TRIM-level
code may call on "a store" belongs here: mutation, selection,
single-value reads, iteration order, statistics (:meth:`count`), and
``estimated_bytes`` sanity.  :class:`TestNaiveOracle`
closes the suite by driving both modes against a plain-dict model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransactionError, TripleNotFoundError
from repro.triples.store import TripleStore
from repro.triples.transactions import Batch, UndoLog
from repro.triples.triple import Literal, Resource, Triple, triple


def _concurrent_store() -> TripleStore:
    return TripleStore(concurrent=True)


STORE_FACTORIES = [TripleStore, _concurrent_store]


def _factory_id(factory) -> str:
    return "concurrent" if factory is _concurrent_store else "TripleStore"


@pytest.fixture(params=STORE_FACTORIES, ids=_factory_id)
def store(request):
    s = request.param()
    s.add(triple("b1", "slim:bundleName", "Electrolyte"))
    s.add(triple("b1", "slim:bundleContent", Resource("s1")))
    s.add(triple("b1", "slim:bundleContent", Resource("s2")))
    s.add(triple("s1", "slim:scrapName", "K+ 3.9"))
    s.add(triple("s2", "slim:scrapName", "Na 140"))
    return s


@pytest.fixture(params=STORE_FACTORIES, ids=_factory_id)
def empty_store(request):
    return request.param()


class TestMutationParity:
    def test_add_reports_novelty(self, empty_store):
        t = triple("a", "p", "v")
        assert empty_store.add(t) is True
        assert empty_store.add(t) is False
        assert len(empty_store) == 1

    def test_add_all_counts_new_only(self, empty_store):
        t1, t2 = triple("a", "p", 1), triple("a", "p", 2)
        assert empty_store.add_all([t1, t2, t1]) == 2
        assert empty_store.add_all([t1]) == 0

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
        assert store.remove_matching(subject=Resource("b1")) == 3
        assert store.select(subject=Resource("b1")) == []
        assert len(store) == 2

    def test_remove_matching_two_fields(self, store):
        removed = store.remove_matching(subject=Resource("b1"),
                                        property=Resource("slim:bundleContent"))
        assert removed == 2
        assert len(store) == 3

    def test_clear(self, store):
        store.clear()
        assert len(store) == 0
        assert list(store) == []
        assert store.select() == []

    def test_clear_empty_is_noop(self, empty_store):
        empty_store.clear()
        assert len(empty_store) == 0

    def test_readd_after_remove(self, store):
        t = triple("s1", "slim:scrapName", "K+ 3.9")
        store.remove(t)
        assert store.add(t) is True
        assert t in store

    def test_readd_after_clear(self, store):
        t = triple("s1", "slim:scrapName", "K+ 3.9")
        store.clear()
        assert store.add(t) is True
        assert list(store.match(subject=Resource("s1"))) == [t]


class TestSelectionParity:
    def test_match_by_each_single_field(self, store):
        assert len(list(store.match(subject=Resource("b1")))) == 3
        assert {t.subject.uri
                for t in store.match(property=Resource("slim:scrapName"))} \
            == {"s1", "s2"}
        assert [t.subject.uri for t in store.match(value=Resource("s1"))] \
            == ["b1"]
        assert [t.subject.uri for t in store.match(value=Literal("Na 140"))] \
            == ["s2"]

    def test_match_subject_property(self, store):
        hits = list(store.match(subject=Resource("b1"),
                                property=Resource("slim:bundleContent")))
        assert {t.value for t in hits} == {Resource("s1"), Resource("s2")}

    def test_match_property_value(self, store):
        hits = list(store.match(property=Resource("slim:scrapName"),
                                value=Literal("K+ 3.9")))
        assert [t.subject.uri for t in hits] == ["s1"]

    def test_match_subject_value(self, store):
        hits = list(store.match(subject=Resource("b1"),
                                value=Resource("s2")))
        assert len(hits) == 1
        assert hits[0].property == Resource("slim:bundleContent")

    def test_match_fully_ground(self, store):
        t = triple("s2", "slim:scrapName", "Na 140")
        assert list(store.match(t.subject, t.property, t.value)) == [t]
        assert list(store.match(t.subject, t.property, Literal("absent"))) == []

    def test_match_all_wildcards(self, store):
        assert len(list(store.match())) == 5

    def test_match_no_hits_unknown_nodes(self, store):
        assert list(store.match(subject=Resource("ghost"))) == []
        assert list(store.match(property=Resource("ghost"))) == []
        assert list(store.match(value=Literal(42))) == []

    def test_select_preserves_insertion_order(self, store):
        hits = store.select(subject=Resource("b1"))
        assert [str(t.value) for t in hits] == ["'Electrolyte'", "s1", "s2"]

    def test_select_order_survives_remove_and_readd(self, store):
        first = triple("b1", "slim:bundleName", "Electrolyte")
        store.remove(first)
        store.add(first)   # now newest
        hits = store.select(subject=Resource("b1"))
        assert [str(t.value) for t in hits] == ["s1", "s2", "'Electrolyte'"]

    def test_one_and_value_of(self, store):
        t = store.one(subject=Resource("b1"),
                      property=Resource("slim:bundleName"))
        assert t is not None and t.value == Literal("Electrolyte")
        assert store.one(subject=Resource("ghost")) is None
        with pytest.raises(LookupError):
            store.one(subject=Resource("b1"),
                      property=Resource("slim:bundleContent"))
        assert store.value_of(Resource("ghost"), Resource("p")) is None

    def test_literal_of(self, store):
        assert store.literal_of(Resource("b1"),
                                Resource("slim:bundleName")) == "Electrolyte"
        with pytest.raises(LookupError):
            store.literal_of(Resource("b1"), Resource("slim:bundleContent"))

    def test_values_of_lists_all_in_order(self, store):
        values = store.values_of(Resource("b1"), Resource("slim:bundleContent"))
        assert values == [Resource("s1"), Resource("s2")]


class TestInspectionParity:
    def test_len_contains_iter(self, store):
        assert len(store) == 5
        assert triple("s2", "slim:scrapName", "Na 140") in store
        assert triple("s2", "slim:scrapName", "ghost") not in store
        assert set(iter(store)) == set(store.select())

    def test_iteration_is_insertion_order(self, store):
        assert list(store) == store.select()

    def test_subjects_properties_distinct_in_order(self, store):
        assert [r.uri for r in store.subjects()] == ["b1", "s1", "s2"]
        assert [r.uri for r in store.properties()] == [
            "slim:bundleName", "slim:bundleContent", "slim:scrapName"]

    def test_estimated_bytes_sanity(self, empty_store):
        assert empty_store.estimated_bytes() == 0
        empty_store.add(triple("a", "p", "x"))
        small = empty_store.estimated_bytes()
        for i in range(100):
            empty_store.add(triple(f"subject-{i}", "property", "value" * 10))
        assert empty_store.estimated_bytes() > small > 0


class TestStatisticsParity:
    def test_count_matches_select_everywhere(self, store):
        s, p, v = (Resource("b1"), Resource("slim:bundleContent"),
                   Resource("s1"))
        cases = [
            {},
            {"subject": s},
            {"property": p},
            {"value": v},
            {"subject": s, "property": p},
            {"property": p, "value": v},
            {"subject": s, "value": v},
            {"subject": s, "property": p, "value": v},
            {"subject": Resource("ghost")},
            {"property": Resource("slim:scrapName"), "value": Literal("Na 140")},
        ]
        for kwargs in cases:
            assert store.count(**kwargs) == len(store.select(**kwargs)), kwargs

    def test_count_subject_value_is_upper_bound(self, store):
        estimate = store.count(subject=Resource("b1"), value=Resource("s1"))
        exact = len(store.select(subject=Resource("b1"),
                                 value=Resource("s1")))
        assert estimate >= exact


class TestListenerParity:
    """The change-listener contract: ``listener(action, triple, sequence)``
    after every mutation, identically on both stores.  The WAL and the
    undo log both build on exactly these events."""

    def test_add_notifies_with_sequence(self, empty_store):
        log = []
        empty_store.add_listener(lambda a, t, seq: log.append((a, t, seq)))
        t1, t2 = triple("a", "p", 1), triple("b", "p", 2)
        empty_store.add(t1)
        empty_store.add(t2)
        assert log == [("add", t1, 0), ("add", t2, 1)]

    def test_duplicate_add_not_notified(self, empty_store):
        log = []
        t = triple("a", "p", 1)
        empty_store.add(t)
        empty_store.add_listener(lambda a, t, seq: log.append(a))
        empty_store.add(t)
        assert log == []

    def test_add_all_notifies_each_new_triple_in_order(self, empty_store):
        log = []
        empty_store.add_listener(lambda a, t, seq: log.append((t, seq)))
        t1, t2 = triple("a", "p", 1), triple("b", "p", 2)
        empty_store.add_all([t1, t2, t1])
        assert log == [(t1, 0), (t2, 1)]

    def test_remove_reports_the_sequence_the_triple_held(self, empty_store):
        log = []
        t1, t2 = triple("a", "p", 1), triple("b", "p", 2)
        empty_store.add_all([t1, t2])
        empty_store.add_listener(lambda a, t, seq: log.append((a, t, seq)))
        empty_store.remove(t2)
        empty_store.remove(t1)
        assert log == [("remove", t2, 1), ("remove", t1, 0)]

    def test_clear_notifies_removals_in_insertion_order(self, empty_store):
        log = []
        items = [triple(f"s{i}", "p", i) for i in range(4)]
        empty_store.add_all(items)
        empty_store.add_listener(lambda a, t, seq: log.append((a, t, seq)))
        empty_store.clear()
        assert log == [("remove", t, i) for i, t in enumerate(items)]

    def test_unsubscribe_stops_notifications(self, empty_store):
        log = []
        unsubscribe = empty_store.add_listener(
            lambda a, t, seq: log.append(a))
        unsubscribe()
        unsubscribe()   # idempotent
        empty_store.add(triple("a", "p", 1))
        assert log == []

    def test_listeners_fire_after_the_mutation_landed(self, empty_store):
        seen = []
        empty_store.add_listener(
            lambda a, t, seq: seen.append((a, t in empty_store)))
        t = triple("a", "p", 1)
        empty_store.add(t)
        empty_store.remove(t)
        assert seen == [("add", True), ("remove", False)]


class TestRestoreParity:
    """``restore`` / ``sequence_of``: position-exact reinsertion, as used
    by undo and WAL replay."""

    def test_sequence_of_present_and_absent(self, empty_store):
        t = triple("a", "p", 1)
        empty_store.add(t)
        assert empty_store.sequence_of(t) == 0
        with pytest.raises(TripleNotFoundError):
            empty_store.sequence_of(triple("ghost", "p", 1))

    def test_restore_reinserts_at_original_position(self, store):
        first = triple("b1", "slim:bundleName", "Electrolyte")
        sequence = store.sequence_of(first)
        store.remove(first)
        assert store.restore(first, sequence) is True
        hits = store.select(subject=Resource("b1"))
        assert [str(t.value) for t in hits] == ["'Electrolyte'", "s1", "s2"]
        assert store.sequence_of(first) == sequence

    def test_restore_present_is_noop(self, store):
        t = triple("s1", "slim:scrapName", "K+ 3.9")
        before = list(store.sequenced())
        events = []
        store.add_listener(lambda *event: events.append(event))
        assert store.restore(t, store.sequence_of(t)) is False
        assert list(store.sequenced()) == before and events == []

    def test_restore_keeps_iteration_and_select_aligned(self, empty_store):
        items = [triple(f"s{i}", "p", i) for i in range(5)]
        for t in items:
            empty_store.add(t)
        empty_store.remove(items[1])
        empty_store.remove(items[3])
        empty_store.restore(items[3], 3)
        empty_store.restore(items[1], 1)
        assert list(empty_store) == items
        assert empty_store.select() == items

    def test_restore_notifies_listeners(self, empty_store):
        t = triple("a", "p", 1)
        empty_store.add(t)
        empty_store.remove(t)
        log = []
        empty_store.add_listener(lambda a, tr, seq: log.append((a, tr, seq)))
        empty_store.restore(t, 0)
        assert log == [("add", t, 0)]

    def test_restore_past_the_tail_advances_the_sequence(self, empty_store):
        empty_store.restore(triple("a", "p", 1), 10)
        empty_store.add(triple("b", "p", 2))
        assert empty_store.sequence_of(triple("b", "p", 2)) == 11
        assert list(empty_store) == empty_store.select()


class TestBulkLoadParity:
    """The bulk-ingest contract, identical on both store implementations:
    deferred indexing that is *never observable* — membership reads stay
    exact, and any selection, removal, or listener attach flushes first."""

    def test_bulk_result_identical_to_per_op(self, empty_store):
        items = [triple(f"s{i % 5}", f"slim:p{i % 3}", i) for i in range(30)]
        reference = type(empty_store)()
        for t in items:
            reference.add(t)
        with empty_store.bulk():
            for t in items:
                empty_store.add(t)
        assert list(empty_store) == list(reference)
        for t in items[::4]:
            assert empty_store.select(subject=t.subject) == \
                reference.select(subject=t.subject)
            assert empty_store.count(property=t.property, value=t.value) == \
                reference.count(property=t.property, value=t.value)
            assert empty_store.sequence_of(t) == reference.sequence_of(t)

    def test_membership_is_live_inside_bulk(self, empty_store):
        t = triple("a", "p", 1)
        with empty_store.bulk():
            assert empty_store.in_bulk
            empty_store.add(t)
            assert t in empty_store
            assert len(empty_store) == 1
            assert empty_store.add(t) is False   # dup detected while pending
        assert not empty_store.in_bulk

    def test_queries_inside_bulk_see_pending_triples(self, empty_store):
        with empty_store.bulk():
            empty_store.add(triple("a", "p", 1))
            empty_store.add(triple("a", "q", 2))
            # Selections flush the pending tail first — indexes are never
            # stale from a reader's point of view.
            assert len(empty_store.select(subject=Resource("a"))) == 2
            assert empty_store.count(subject=Resource("a"),
                                     property=Resource("q")) == 1
            empty_store.add(triple("b", "p", 3))
            assert empty_store.count(subject=Resource("b")) == 1

    def test_removal_inside_bulk_flushes_first(self, empty_store):
        t1, t2 = triple("a", "p", 1), triple("a", "p", 2)
        with empty_store.bulk():
            empty_store.add(t1)
            empty_store.add(t2)
            empty_store.remove(t1)
        assert list(empty_store) == [t2]
        assert empty_store.count(subject=Resource("a")) == 1

    def test_abort_rolls_back_pending(self, empty_store):
        empty_store.add(triple("keep", "p", 1))
        with pytest.raises(RuntimeError):
            with empty_store.bulk():
                empty_store.add(triple("doomed", "p", 2))
                empty_store.add(triple("doomed", "p", 3))
                raise RuntimeError("die mid-bulk")
        assert list(empty_store) == [triple("keep", "p", 1)]
        assert empty_store.count(subject=Resource("doomed")) == 0
        # The sequence counter rewound too: the next insert reuses the
        # aborted numbers instead of leaving holes.
        empty_store.add(triple("next", "p", 4))
        assert empty_store.sequence_of(triple("next", "p", 4)) == 1

    def test_abort_keeps_flushed_prefix(self, empty_store):
        with pytest.raises(RuntimeError):
            with empty_store.bulk():
                empty_store.add(triple("flushed", "p", 1))
                empty_store.select(subject=Resource("flushed"))  # flushes
                empty_store.add(triple("pending", "p", 2))
                raise RuntimeError("die mid-bulk")
        # Only the still-pending tail rolled back.
        assert list(empty_store) == [triple("flushed", "p", 1)]

    def test_listeners_fire_in_order_at_flush(self, empty_store):
        events = []
        empty_store.add_listener(
            lambda action, t, seq: events.append((action, t, seq)))
        items = [triple(f"s{i}", "p", i) for i in range(4)]
        with empty_store.bulk():
            for t in items:
                empty_store.add(t)
            assert events == []     # nothing flushed yet
        assert events == [("add", t, i) for i, t in enumerate(items)]

    def test_add_listener_inside_bulk_flushes_pending(self, empty_store):
        events = []
        with empty_store.bulk():
            empty_store.add(triple("early", "p", 1))
            empty_store.add_listener(
                lambda action, t, seq: events.append(t.subject.uri))
            empty_store.add(triple("late", "p", 2))
        # The new listener must not receive events for triples added
        # before it subscribed.
        assert events == ["late"]

    def test_bulk_does_not_nest(self, empty_store):
        with empty_store.bulk():
            with pytest.raises(TransactionError):
                with empty_store.bulk():
                    pass

    def test_restore_inside_bulk_keeps_positions(self, empty_store):
        items = [triple(f"s{i}", "p", i) for i in range(5)]
        for t in items:
            empty_store.add(t)
        empty_store.remove(items[2])
        with empty_store.bulk():
            empty_store.restore(items[2], 2)
        assert list(empty_store) == items
        assert empty_store.sequence_of(items[2]) == 2

    def test_add_all_routes_through_pending(self, empty_store):
        items = [triple(f"s{i}", "p", i) for i in range(10)]
        with empty_store.bulk():
            assert empty_store.add_all(items + items[:3]) == 10
            assert len(empty_store) == 10
        assert empty_store.select() == items


class TestBatchBulkParity:
    """Batches ride the bulk path; undo/restore behavior must be byte-for-
    byte identical to per-op ingest (the satellite parity requirement)."""

    def _run_script(self, store, bulk):
        log = UndoLog(store)
        items = [triple(f"s{i}", "slim:p", i) for i in range(6)]
        with Batch(store, bulk=bulk) as batch:
            for t in items:
                store.add(t)
            store.remove(items[3])
        log.checkpoint()
        store.add(triple("late", "p", 99))
        log.checkpoint()
        return log, batch.changes

    @pytest.mark.parametrize("store_cls", STORE_FACTORIES, ids=_factory_id)
    def test_undo_restore_sequences_identical(self, store_cls):
        bulk_store, per_op_store = store_cls(), store_cls()
        bulk_log, bulk_changes = self._run_script(bulk_store, bulk=True)
        per_op_log, per_op_changes = self._run_script(per_op_store, bulk=False)
        assert bulk_changes == per_op_changes
        assert list(bulk_store) == list(per_op_store)
        bulk_log.undo()
        per_op_log.undo()
        bulk_log.undo()
        per_op_log.undo()
        assert list(bulk_store) == list(per_op_store) == []
        bulk_log.redo()
        per_op_log.redo()
        assert list(bulk_store) == list(per_op_store)
        assert [bulk_store.sequence_of(t) for t in bulk_store] == \
            [per_op_store.sequence_of(t) for t in per_op_store]

    @pytest.mark.parametrize("store_cls", STORE_FACTORIES, ids=_factory_id)
    def test_batch_rollback_identical_under_bulk(self, store_cls):
        for bulk in (True, False):
            store = store_cls()
            store.add(triple("keep", "p", 0))
            with pytest.raises(RuntimeError):
                with Batch(store, bulk=bulk):
                    store.add(triple("new", "p", 1))
                    store.remove(triple("keep", "p", 0))
                    raise RuntimeError("die mid-batch")
            assert list(store) == [triple("keep", "p", 0)], f"bulk={bulk}"
            assert store.sequence_of(triple("keep", "p", 0)) == 0

    @pytest.mark.parametrize("store_cls", STORE_FACTORIES, ids=_factory_id)
    def test_batch_refuses_to_open_inside_bulk(self, store_cls):
        store = store_cls()
        with store.bulk():
            with pytest.raises(TransactionError):
                Batch(store).__enter__()


# ---------------------------------------------------------------------------
# naive oracle: both modes against a plain dict of triple -> sequence

_S = [Resource(f"s{i}") for i in range(3)]
_P = [Resource(f"p{i}") for i in range(2)]
_V = [Literal(1), Literal("x"), _S[0], _S[1]]
_UNIVERSE = [Triple(s, p, v) for s in _S for p in _P for v in _V]
_PATTERN_NODES = [(s, p, v) for s in (None, _S[0]) for p in (None, _P[1])
                  for v in (None, _S[1])]

_triples = st.sampled_from(_UNIVERSE)
_changes = st.lists(st.tuples(st.sampled_from(["add", "discard"]), _triples),
                    max_size=6)
_steps = st.one_of(
    st.tuples(st.just("add"), _triples),
    st.tuples(st.just("discard"), _triples),
    st.tuples(st.just("remove_matching"), st.sampled_from(_PATTERN_NODES)),
    st.tuples(st.just("restore"), st.integers(0, 50)),
    st.tuples(st.just("bulk"), st.lists(_triples, max_size=6)),
    st.tuples(st.just("rolled_back_batch"), _changes),
)


class _Model:
    """The store's contract as a dict of present triple -> sequence."""

    def __init__(self):
        self.seqs = {}
        self.next_seq = 0
        self.graveyard = {}      # removed triple -> the sequence it held

    def add(self, t):
        if t not in self.seqs:
            self.seqs[t] = self.next_seq
            self.next_seq += 1

    def remove(self, t):
        self.graveyard[t] = self.seqs.pop(t)

    def restore(self, t, seq):
        if t not in self.seqs:
            self.seqs[t] = seq
            self.next_seq = max(self.next_seq, seq + 1)

    def order(self):
        return sorted(self.seqs, key=self.seqs.__getitem__)


def _apply(store, model, step):
    kind, arg = step
    if kind == "add":
        assert store.add(arg) == (arg not in model.seqs)
        model.add(arg)
    elif kind == "discard":
        assert store.discard(arg) == (arg in model.seqs)
        if arg in model.seqs:
            model.remove(arg)
    elif kind == "remove_matching":
        victims = [t for t in model.order() if _matches(t, arg)]
        assert store.remove_matching(*arg) == len(victims)
        for t in victims:
            model.remove(t)
    elif kind == "restore" and model.graveyard:
        t, seq = sorted(model.graveyard.items(), key=lambda item: item[1])[
            arg % len(model.graveyard)]
        assert store.restore(t, seq) == (t not in model.seqs)
        model.restore(t, seq)
    elif kind == "bulk":
        with store.bulk():
            for t in arg:
                store.add(t)
                model.add(t)
                assert t in store and len(store) == len(model.seqs)
    elif kind == "rolled_back_batch":
        # Pending adds roll back with the bulk abort, which rewinds the
        # sequence counter to the last flush; a removal flushes first.
        mark = model.next_seq
        with pytest.raises(RuntimeError):
            with Batch(store):
                for action, t in arg:
                    if action == "add" and store.add(t):
                        model.next_seq += 1
                    elif action == "discard" and store.discard(t):
                        mark = model.next_seq
                raise RuntimeError("roll back")
        model.next_seq = mark


def _matches(t, pattern):
    return all(want is None or want == got
               for want, got in zip(pattern, (t.subject, t.property, t.value)))


def _check(store, model):
    order = model.order()
    assert list(store) == order
    assert len(store) == len(order)
    assert [store.sequence_of(t) for t in order] == \
        [model.seqs[t] for t in order]
    for probe in _UNIVERSE[::5]:
        for mask in range(8):
            pattern = tuple(node if mask & (1 << i) else None
                            for i, node in enumerate(
                                (probe.subject, probe.property, probe.value)))
            expected = [t for t in order if _matches(t, pattern)]
            assert store.select(*pattern) == expected
            assert sorted(store.match(*pattern), key=model.seqs.__getitem__) \
                == expected
            assert store.count(*pattern) == len(expected)


class TestNaiveOracle:
    """Both modes agree with the dict model after every step."""

    @pytest.mark.parametrize("factory", STORE_FACTORIES, ids=_factory_id)
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_steps, max_size=25))
    def test_store_matches_dict_model(self, factory, steps):
        store, model = factory(), _Model()
        for step in steps:
            _apply(store, model, step)
            _check(store, model)
