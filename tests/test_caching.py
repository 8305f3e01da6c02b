"""Tests for the generation-keyed read cache and incremental views.

The cache contract: a hit is indistinguishable from a fresh read — any
mutation that could change an answer invalidates its entries before the
next lookup, including writes raced across ``bulk()`` scopes,
snapshot-isolation reads mid-ingest, and durable commits.  The
incremental-view contract: after any op sequence, a listener-maintained
view equals a fresh closure recompute.
"""

import gc
import random
import threading

import pytest

import repro.triples.views as views_module
from repro.triples.cache import GenerationCache
from repro.triples.query import Pattern, Query, Var
from repro.triples.store import TripleStore
from repro.triples.trim import TrimManager
from repro.triples.triple import Literal, Resource, triple
from repro.triples.views import View, reachable_resources, reachable_triples


class TestSelectCacheBasics:
    def test_repeat_select_hits(self):
        trim = TrimManager()
        trim.create("b0", "slim:bundleName", "John Smith")
        first = trim.select(subject=Resource("b0"))
        assert trim.select(subject=Resource("b0")) == first
        stats = trim.cache_stats()["select_cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_mutation_invalidates(self):
        trim = TrimManager()
        trim.create("b0", "slim:bundleName", "John Smith")
        assert len(trim.select(subject=Resource("b0"))) == 1
        trim.create("b0", "slim:note", "flagged")
        assert len(trim.select(subject=Resource("b0"))) == 2
        trim.remove(triple("b0", "slim:note", "flagged"))
        assert len(trim.select(subject=Resource("b0"))) == 1
        stats = trim.cache_stats()["select_cache"]
        assert stats["invalidations"] == 2
        assert stats["hits"] == 0

    def test_results_are_caller_safe_copies(self):
        trim = TrimManager()
        trim.create("b0", "slim:bundleName", "John Smith")
        got = trim.select(subject=Resource("b0"))
        got.clear()
        assert len(trim.select(subject=Resource("b0"))) == 1

    def test_lru_evicts_oldest(self):
        trim = TrimManager(cache_entries=2)
        for i in range(3):
            trim.create(f"s{i}", "p", i)
        trim.select(subject=Resource("s0"))
        trim.select(subject=Resource("s1"))
        trim.select(subject=Resource("s2"))      # evicts the s0 entry
        stats = trim.cache_stats()["select_cache"]
        assert stats["evictions"] == 1 and stats["entries"] == 2
        trim.select(subject=Resource("s1"))      # still resident
        assert trim.cache_stats()["select_cache"]["hits"] == 1

    def test_oversize_results_are_not_pinned(self):
        store = TripleStore()
        cache = GenerationCache(store, max_result_items=3)
        for i in range(5):
            store.add(triple("s", "p", i))
        result = cache.get(("select", None, None, None), store.select)
        assert len(result) == 5
        stats = cache.stats()
        assert stats["oversize_skipped"] == 1 and stats["entries"] == 0

    def test_cache_disabled(self):
        trim = TrimManager(cache=False)
        trim.create("b0", "p", 1)
        assert len(trim.select(subject=Resource("b0"))) == 1
        assert trim.cache_stats()["select_cache"] is None

    def test_empty_cache_still_reports_stats(self):
        # An empty GenerationCache is falsy (len 0) — stats must still
        # distinguish "enabled but cold" from "disabled".
        trim = TrimManager()
        stats = trim.cache_stats()["select_cache"]
        assert stats is not None
        assert stats["entries"] == 0 and stats["hits"] == 0

    def test_duck_typed_store_is_uncacheable(self):
        backing = TripleStore()
        backing.add(triple("s", "p", 1))

        class BareStore:
            def select(self, subject=None, property=None, value=None):
                return backing.select(subject, property, value)

        cache = GenerationCache(BareStore())
        assert len(cache.get(("select", None, None, None),
                             backing.select)) == 1
        assert cache.stats()["uncacheable"] == 1

    def test_cached_value_helpers(self):
        trim = TrimManager()
        trim.create("s", "name", "Ada")
        trim.create("s", "ref", Resource("t"))
        assert trim.literal_of(Resource("s"), Resource("name")) == "Ada"
        assert trim.value_of(Resource("s"), Resource("ref")) == Resource("t")
        assert trim.values_of(Resource("s"), Resource("name")) == \
            [Literal("Ada")]
        with pytest.raises(LookupError):
            trim.literal_of(Resource("s"), Resource("ref"))
        trim.create("s", "name", "Grace")
        with pytest.raises(LookupError):
            trim.value_of(Resource("s"), Resource("name"))


class TestQueryCache:
    def test_structurally_equal_queries_share_entries(self):
        trim = TrimManager()
        trim.create("b0", "slim:bundleContent", Resource("s0"))
        trim.create("s0", "slim:scrapName", "Lasix 40mg")
        patterns = [
            Pattern(Var("b"), Resource("slim:bundleContent"), Var("s")),
            Pattern(Var("s"), Resource("slim:scrapName"), Var("n")),
        ]
        first = trim.query(Query(patterns))
        second = trim.query(Query(list(patterns)))   # distinct instance
        assert first == second
        stats = trim.cache_stats()["select_cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_planner_flag_keys_separately(self):
        trim = TrimManager()
        trim.create("b0", "p", 1)
        pattern = Pattern(Var("b"), Resource("p"), Var("v"))
        trim.query(Query([pattern]))
        trim.query(Query([pattern], planner=False))
        assert trim.cache_stats()["select_cache"]["misses"] == 2

    def test_binding_rows_are_copies(self):
        trim = TrimManager()
        trim.create("b0", "p", 1)
        q = Query([Pattern(Var("b"), Resource("p"), Var("v"))])
        rows = trim.query(q)
        rows[0]["b"] = "corrupted"
        assert trim.query(q)[0]["b"] == Resource("b0")

    def test_query_invalidated_by_any_write(self):
        trim = TrimManager()
        q = Query([Pattern(Var("b"), Resource("p"), Var("v"))])
        trim.create("s0", "p", 1)
        assert len(trim.query(q)) == 1
        trim.create("s1", "p", 2)                # any write invalidates
        assert len(trim.query(q)) == 2


class TestCacheAcrossBulkScopes:
    def test_owner_reads_see_pending_writes(self):
        trim = TrimManager()
        trim.create("s", "p", 0)
        assert len(trim.select(subject=Resource("s"))) == 1
        with trim.store.bulk():
            trim.create("s", "p", 1)
            # Read-your-writes: the token read flushes the owner's
            # pending insert, so the stale entry cannot be served.
            assert len(trim.select(subject=Resource("s"))) == 2
        assert len(trim.select(subject=Resource("s"))) == 2

    def test_fill_refused_while_generation_moves(self):
        store = TripleStore()
        cache = GenerationCache(store)
        store.add(triple("s", "p", 0))

        def racing_compute():
            result = store.select(subject=Resource("s"))
            store.add(triple("s", "p", 1))       # writer races the fill
            return result

        cache.get(("select", Resource("s"), None, None), racing_compute)
        stats = cache.stats()
        assert stats["racy_fills_skipped"] == 1 and stats["entries"] == 0

    def test_snapshot_isolation_mid_ingest(self):
        trim = TrimManager(concurrent=True)
        trim.create("s", "p", 0)
        ingesting = threading.Event()
        release = threading.Event()
        done = threading.Event()

        def ingest():
            with trim.store.bulk():
                trim.store.add(triple("s", "p", 1))
                trim.store.add(triple("s", "p", 2))
                ingesting.set()
                release.wait(timeout=10)
            done.set()

        writer = threading.Thread(target=ingest)
        writer.start()
        try:
            assert ingesting.wait(timeout=10)
            # Non-owner reads mid-ingest: pinned last-flush snapshot,
            # cached normally at the pinned generation.
            assert len(trim.select(subject=Resource("s"))) == 1
            assert len(trim.select(subject=Resource("s"))) == 1
            mid = trim.cache_stats()["select_cache"]
            assert mid["hits"] >= 1
        finally:
            release.set()
            writer.join(timeout=10)
        assert done.wait(timeout=10)
        # The flush bumped the generation: the pinned entry is stale now.
        assert len(trim.select(subject=Resource("s"))) == 3


class TestIncrementalViewMaintenance:
    def test_add_applies_without_recompute(self):
        store = TripleStore()
        store.add(triple("root", "p", Resource("a")))
        view = View(store, Resource("root"))
        assert len(view) == 1
        store.add(triple("a", "q", "leaf"))
        assert len(view) == 2
        stats = view.cache_stats()
        assert stats["recomputes"] == 1          # only the initial BFS
        assert stats["events_applied"] == 1

    def test_unreachable_add_is_noop(self):
        store = TripleStore()
        store.add(triple("root", "p", Resource("a")))
        view = View(store, Resource("root"))
        view.triples()
        store.add(triple("elsewhere", "p", "x"))
        assert len(view) == 1
        assert view.cache_stats()["recomputes"] == 1

    def test_removal_inside_closure_recomputes(self):
        store = TripleStore()
        store.add(triple("root", "p", Resource("a")))
        store.add(triple("a", "q", "leaf"))
        view = View(store, Resource("root"))
        assert len(view) == 2
        store.remove(triple("root", "p", Resource("a")))
        assert view.triples() == [t for t in store.select(subject=Resource("root"))]
        assert view.cache_stats()["recomputes"] == 2

    def test_removal_outside_closure_is_noop(self):
        store = TripleStore()
        store.add(triple("root", "p", Resource("a")))
        store.add(triple("elsewhere", "p", "x"))
        view = View(store, Resource("root"))
        view.triples()
        store.remove(triple("elsewhere", "p", "x"))
        assert len(view) == 1
        assert view.cache_stats()["recomputes"] == 1

    def test_depth_relaxation_pulls_nodes_into_range(self):
        store = TripleStore()
        store.add(triple("root", "p", Resource("x")))
        store.add(triple("x", "p", Resource("y")))
        store.add(triple("y", "p", Resource("z")))
        store.add(triple("z", "name", "deep"))
        view = View(store, Resource("root"), max_depth=2)
        assert Resource("z") not in view.resources()   # three hops out
        store.add(triple("root", "p", Resource("y")))  # shortcut: y at 1
        assert Resource("z") in view.resources()       # relaxed into range
        expected = reachable_triples(store, Resource("root"), max_depth=2)
        assert set(view.triples()) == set(expected)

    def test_event_overflow_forces_recompute(self, monkeypatch):
        monkeypatch.setattr(views_module, "EVENT_QUEUE_LIMIT", 4)
        store = TripleStore()
        store.add(triple("root", "p", Resource("a")))
        view = View(store, Resource("root"))
        view.triples()
        for i in range(10):
            store.add(triple("a", "n", i))
        assert len(view) == 11
        stats = view.cache_stats()
        assert stats["overflows"] == 1 and stats["recomputes"] == 2

    def test_dead_views_unsubscribe_from_the_store(self):
        store = TripleStore()
        store.add(triple("root", "p", Resource("a")))
        view = View(store, Resource("root"))
        view.triples()
        assert len(store._listeners) == 1
        del view
        gc.collect()
        store.add(triple("root", "q", "poke"))   # tap sees the dead ref...
        assert store._listeners == []            # ...and removes itself

    def test_close_detaches(self):
        store = TripleStore()
        view = View(store, Resource("root"))
        view.close()
        view.close()                             # idempotent
        assert store._listeners == []

    def test_legacy_mode_still_recomputes_per_generation(self):
        store = TripleStore()
        store.add(triple("root", "p", Resource("a")))
        view = View(store, Resource("root"), incremental=False)
        assert len(view) == 1
        assert store._listeners == []            # no tap in legacy mode
        store.add(triple("a", "q", "leaf"))
        assert len(view) == 2


class TestRandomizedViewParity:
    @pytest.mark.parametrize("seed", [2001, 2002, 2003])
    @pytest.mark.parametrize("config", [
        {},
        {"max_depth": 2},
        {"follow_properties": [Resource("p0"), Resource("p1")]},
    ])
    def test_incremental_view_matches_fresh_recompute(self, seed, config):
        """Random op sequences: the listener-maintained closure equals a
        fresh BFS after every read, with and without depth bounds and
        property filters."""
        store = TripleStore()
        rng = random.Random(seed)
        resources = [Resource(f"n{i}") for i in range(10)]
        properties = [Resource(f"p{i}") for i in range(3)]
        root = resources[0]
        view = View(store, root, **config)
        present = []
        for step in range(300):
            if present and rng.random() < 0.3:
                victim = present.pop(rng.randrange(len(present)))
                store.remove(victim)
            else:
                value = rng.choice(resources) if rng.random() < 0.7 \
                    else Literal(rng.randrange(5))
                t = triple(rng.choice(resources), rng.choice(properties),
                           value)
                if store.add(t):
                    present.append(t)
            if step % 7 == 0:
                expected = reachable_triples(store, root, **config)
                assert set(view.triples()) == set(expected), (seed, step)
                assert set(view.resources()) == \
                    set(reachable_resources(store, root, **config)), \
                    (seed, step)
        # Final state parity, including exact sizes (no duplicates).
        final = view.triples()
        assert len(final) == len(set(final))
        assert set(final) == set(reachable_triples(store, root, **config))


class TestTrimViewStats:
    def test_cache_stats_aggregates_views(self):
        trim = TrimManager()
        trim.create("root", "p", Resource("a"))
        trim.create("a", "q", "leaf")
        view = trim.view(Resource("root"))
        view.triples()
        view.triples()
        stats = trim.cache_stats()["views"]
        assert stats["live"] == 1
        assert stats["reads"] == 2 and stats["recomputes"] == 1
        del view
        gc.collect()
        assert trim.cache_stats()["views"]["live"] == 0


class TestCacheStatsConcurrency:
    """`cache_stats()` under concurrent writers and view registration.

    The service's ``admin.stats`` / ``trim.stats`` ops call
    ``cache_stats()`` from executor threads while the tenant's writer
    thread commits durably — the snapshot must
    be internally consistent and must never lose a concurrently
    registered view (the ``_views`` list is rebuilt by both ``view()``
    and ``cache_stats()``; pre-lock, that read-modify-write could drop
    a registration).
    """

    def test_counter_snapshot_is_consistent_under_commits(self, tmp_path):
        trim = TrimManager(durable=str(tmp_path), concurrent=True)
        stop = threading.Event()
        failures = []

        def writer():
            i = 0
            while not stop.is_set():
                trim.create(f"s{i % 17}", "p", i)
                trim.commit()  # one durable group per write
                i += 1

        def reader():
            while not stop.is_set():
                trim.select(subject=Resource("s1"))
                stats = trim.cache_stats()
                select = stats["select_cache"]
                try:
                    # The invariant the cache maintains per snapshot:
                    # every fill was preceded by a miss (or a racy/
                    # oversize skip accounted against one).
                    assert select["fills"] + select["racy_fills_skipped"] \
                        + select["oversize_skipped"] \
                        <= select["misses"] + select["invalidations"]
                    assert 0.0 <= select["hit_rate"] <= 1.0
                except AssertionError as exc:
                    failures.append(exc)
                    stop.set()

        threads = [threading.Thread(target=writer)] + \
            [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        stop.wait(1.5)
        stop.set()
        for t in threads:
            t.join()
        trim.close()
        assert not failures, failures[0]

    def test_concurrent_view_registration_is_never_lost(self):
        trim = TrimManager(concurrent=True)
        trim.create("root", "p", Resource("a"))
        stop = threading.Event()
        registered = []
        failures = []

        def registrar():
            while not stop.is_set():
                registered.append(trim.view(Resource("root")))

        def poller():
            while not stop.is_set():
                trim.cache_stats()

        threads = [threading.Thread(target=registrar) for _ in range(2)] + \
            [threading.Thread(target=poller) for _ in range(2)]
        for t in threads:
            t.start()
        stop.wait(0.8)
        stop.set()
        for t in threads:
            t.join()
        # Every strongly-held view must still be tracked: none was
        # dropped by a racing cache_stats() rebuild of the weakref list.
        live = trim.cache_stats()["views"]["live"]
        assert live == len(registered), (live, len(registered))
        assert not failures
