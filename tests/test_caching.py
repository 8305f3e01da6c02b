"""Tests for the pattern-invalidated read cache.

The cache contract: a hit is indistinguishable from a fresh read — any
mutation that could change an answer invalidates its entries before the
next lookup, including writes raced across ``bulk()`` scopes,
snapshot-isolation reads mid-ingest, durable commits and recovery — and
a write that cannot change an answer leaves its entry cached.  Selects,
queries and reachability views (``TrimManager.reachable``) all ride it;
``tests/test_read_cache_differential.py`` checks every read against an
uncached twin after random op sequences.
"""

import threading

import pytest

from repro.triples.cache import ReadCache
from repro.triples.query import Pattern, Query, Var
from repro.triples.store import TripleStore
from repro.triples.trim import TrimManager
from repro.triples.triple import Literal, Resource, triple
from repro.triples.views import reachable_triples


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
        view = trim.reachable(Resource("b0"))
        view.clear()
        assert len(trim.reachable(Resource("b0"))) == 1

    def test_lru_evicts_oldest(self):
        trim = TrimManager()
        trim.cache.MAX_ENTRIES = 2
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
        cache = ReadCache(store)
        cache.MAX_RESULT_ITEMS = 3
        cache.attach()
        for i in range(5):
            store.add(triple("s", "p", i))
        result = cache.get(("select", None, None, None),
                           lambda reads: reads.select())
        assert len(result) == 5
        stats = cache.stats()
        assert stats["oversize_skipped"] == 1 and stats["entries"] == 0

    def test_cache_disabled(self):
        trim = TrimManager(cache=False)
        trim.create("b0", "p", 1)
        assert len(trim.select(subject=Resource("b0"))) == 1
        assert trim.cache_stats()["select_cache"] is None

    def test_empty_cache_still_reports_stats(self):
        # An empty ReadCache is falsy (len 0) — stats must still
        # distinguish "enabled but cold" from "disabled".
        trim = TrimManager()
        stats = trim.cache_stats()["select_cache"]
        assert stats is not None
        assert stats["entries"] == 0 and stats["hits"] == 0

    def test_detached_cache_is_uncacheable(self):
        store = TripleStore()
        store.add(triple("s", "p", 1))
        cache = ReadCache(store)
        cache.attach()
        cache.detach()
        key = ("select", None, None, None)
        # Detached: nothing is cached, every read is computed fresh and
        # sees the latest write.
        assert len(cache.get(key, lambda reads: reads.select())) == 1
        store.add(triple("s", "p", 2))
        assert len(cache.get(key, lambda reads: reads.select())) == 2
        stats = cache.stats()
        assert stats["uncacheable"] == 2 and stats["entries"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 0

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

    @staticmethod
    def _ward():
        """Two bundles, three named scraps, and a join whose planner
        counts a pattern its evaluation never matches."""
        trim = TrimManager()
        trim.create("b0", "bc", Resource("s0"))
        trim.create("b0", "bc", Resource("s1"))
        trim.create("b1", "bc", Resource("s2"))
        trim.create("s0", "name", "K+")
        trim.create("s1", "name", "Na")
        trim.create("s2", "name", "Cl")
        # Planned as (?s name "K+") first, then (?b bc s0): the second
        # step matches only (_, bc, s0), but the planner counted
        # (_, bc, _) to choose the order.
        q = Query([Pattern(Var("b"), Resource("bc"), Var("s")),
                   Pattern(Var("s"), Resource("name"), Literal("K+"))])
        return trim, q

    def test_query_kept_across_unrelated_write(self):
        trim, q = self._ward()
        rows = trim.query(q)
        assert rows == [{"b": Resource("b0"), "s": Resource("s0")}]
        trim.create("s7", "name", "Na")          # no pattern it read
        trim.create("s1", "note", "stat")
        assert trim.query(q) == rows
        stats = trim.cache_stats()["select_cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["invalidations"] == 0

    def test_query_dropped_by_matching_write(self):
        trim, q = self._ward()
        assert len(trim.query(q)) == 1
        trim.create("s2", "name", "K+")          # matches (_, name, "K+")
        assert len(trim.query(q)) == 2
        stats = trim.cache_stats()["select_cache"]
        assert stats["misses"] == 2 and stats["invalidations"] == 1

    def test_query_dropped_by_planner_count_pattern(self):
        trim, q = self._ward()
        rows = trim.query(q)
        # Only the planner's count of (_, bc, _) reads this triple's
        # patterns; the count moved, so the plan may, and the entry goes.
        trim.create("b2", "bc", Resource("s9"))
        assert trim.query(q) == rows
        stats = trim.cache_stats()["select_cache"]
        assert stats["hits"] == 0 and stats["misses"] == 2
        assert stats["invalidations"] == 1


class TestCacheAcrossBulkScopes:
    def test_owner_reads_see_pending_writes(self):
        trim = TrimManager()
        trim.create("s", "p", 0)
        assert len(trim.select(subject=Resource("s"))) == 1
        with trim.store.bulk():
            trim.create("s", "p", 1)
            # Read-your-writes: the lookup's read barrier flushes the
            # owner's pending insert, whose notification drops the entry.
            assert len(trim.select(subject=Resource("s"))) == 2
        assert len(trim.select(subject=Resource("s"))) == 2

    def test_change_between_compute_and_insert_skips_the_fill(self):
        store = TripleStore()
        cache = ReadCache(store)
        cache.attach()
        store.add(triple("s", "p", 0))
        key = ("select", Resource("s"), None, None)

        def racing_compute(reads):
            result = reads.select(subject=Resource("s"))
            # A writer lands after the read, before the fill inserts.
            store.add(triple("s", "p", 1))
            return result

        assert len(cache.get(key, racing_compute)) == 1   # handed back
        stats = cache.stats()
        assert stats["racy_fills_skipped"] == 1 and stats["entries"] == 0
        # Not pinned: the next lookup misses and sees the write.
        assert len(cache.get(key, lambda reads: reads.select(
            subject=Resource("s")))) == 2
        stats = cache.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0
        assert stats["entries"] == 1

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
            # Non-owner reads mid-ingest: the last-flush snapshot,
            # cached normally (pending inserts notify nobody yet).
            assert len(trim.select(subject=Resource("s"))) == 1
            assert len(trim.select(subject=Resource("s"))) == 1
            mid = trim.cache_stats()["select_cache"]
            assert mid["hits"] >= 1
        finally:
            release.set()
            writer.join(timeout=10)
        assert done.wait(timeout=10)
        # The flush notified the cache, which dropped the entry.
        assert len(trim.select(subject=Resource("s"))) == 3


class TestPreciseInvalidation:
    def test_write_to_another_subject_keeps_select(self):
        trim = TrimManager()
        trim.create("s0", "name", "a")
        trim.create("s1", "name", "b")
        first = trim.select(subject=Resource("s0"))
        trim.create("s1", "name", "c")           # other subject
        trim.remove(triple("s1", "name", "b"))
        assert trim.select(subject=Resource("s0")) == first
        stats = trim.cache_stats()["select_cache"]
        assert stats["hits"] == 1 and stats["invalidations"] == 0

    def test_each_of_the_eight_patterns_is_dropped(self):
        trim = TrimManager()
        s, p, v = Resource("s"), Resource("p"), Literal("v")
        reads = [(s, p, v), (s, p, None), (s, None, v), (s, None, None),
                 (None, p, v), (None, p, None), (None, None, v),
                 (None, None, None)]
        for read in reads:
            assert trim.select(*read) == []
        trim.select(Resource("other"))           # matches none of them
        trim.create("s", "p", "v")
        for read in reads:
            assert trim.select(*read) == [triple("s", "p", "v")]
        stats = trim.cache_stats()["select_cache"]
        assert stats["invalidations"] == len(reads)
        assert stats["hits"] == 0 and stats["entries"] == len(reads) + 1

    def test_subject_value_read_tracks_its_own_pattern(self):
        # (s, _, v) records only its own pattern: writes sharing just the
        # subject or just the value keep the entry, a match drops it.
        trim = TrimManager()
        trim.create("s", "p", "v")
        key = (Resource("s"), None, Literal("v"))
        trim.select(*key)
        trim.create("s", "q", "w")               # same subject only
        trim.select(*key)
        trim.create("t", "q", "v")               # same value only
        trim.select(*key)
        stats = trim.cache_stats()["select_cache"]
        assert stats["misses"] == 1 and stats["invalidations"] == 0
        assert stats["hits"] == 2
        trim.create("s", "q", "v")               # matches (s, _, v)
        assert trim.select(*key) == [triple("s", "p", "v"),
                                     triple("s", "q", "v")]
        stats = trim.cache_stats()["select_cache"]
        assert stats["misses"] == 2 and stats["invalidations"] == 1

    def test_reachable_kept_unless_a_visited_subject_changes(self):
        trim = TrimManager()
        trim.create("b0", "bc", Resource("s0"))
        trim.create("s0", "name", "K+")
        trim.create("b1", "bc", Resource("s1"))
        trim.create("s1", "name", "Na")
        view = trim.reachable(Resource("b0"))
        assert view == reachable_triples(trim.store, Resource("b0"))
        trim.create("s1", "name", "Cl")          # scrap of another bundle
        assert trim.reachable(Resource("b0")) == view
        assert trim.cache_stats()["select_cache"]["hits"] == 1
        trim.create("s0", "note", "stat")        # scrap inside the view
        fresh = trim.reachable(Resource("b0"))
        assert fresh == reachable_triples(trim.store, Resource("b0"))
        assert len(fresh) == len(view) + 1
        # Followed properties are a set: either order shares one entry.
        follow = [Resource("bc"), Resource("name")]
        trim.reachable(Resource("b0"), follow)
        trim.reachable(Resource("b0"), follow[::-1])
        assert trim.cache_stats()["select_cache"]["hits"] == 2

    def test_reachable_shortcut_edge_under_max_depth(self):
        # A new edge from a visited resource can shorten the path to a
        # node and pull one that was out of range into the closure.
        trim = TrimManager()
        trim.create("root", "p", Resource("x"))
        trim.create("x", "p", Resource("y"))
        trim.create("y", "p", Resource("z"))
        trim.create("z", "name", "deep")
        before = trim.reachable(Resource("root"), max_depth=2)
        assert Resource("z") not in {t.subject for t in before}
        trim.create("root", "p", Resource("y"))  # y now one hop out
        after = trim.reachable(Resource("root"), max_depth=2)
        assert triple("z", "name", "deep") in after
        assert after == reachable_triples(trim.store, Resource("root"),
                                          max_depth=2)


class TestCacheAcrossRecovery:
    @staticmethod
    def _snapshotted(directory):
        with TrimManager(durable=directory) as trim:
            trim.create("s", "p", 1)
            trim.create("t", "p", 2)
            trim.commit()
            trim.durability.compact()

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        original = TripleStore.restore_rows

        def spy(self, nodes, rows):
            calls.append(len(rows))
            return original(self, nodes, rows)

        monkeypatch.setattr(TripleStore, "restore_rows", spy)
        return calls

    def test_durable_constructor_restores_rows(self, tmp_path, monkeypatch):
        self._snapshotted(str(tmp_path))
        calls = self._spy(monkeypatch)
        with TrimManager(durable=str(tmp_path)) as trim:
            assert calls == [2]
            assert len(trim.select(prop=Resource("p"))) == 2
            trim.create("u", "p", 3)             # the cache is listening
            assert len(trim.select(prop=Resource("p"))) == 3

    def test_enable_durability_restores_rows(self, tmp_path, monkeypatch):
        self._snapshotted(str(tmp_path))
        calls = self._spy(monkeypatch)
        trim = TrimManager()
        trim.enable_durability(str(tmp_path))
        try:
            assert calls == [2]
            assert len(trim.select(prop=Resource("p"))) == 2
        finally:
            trim.close()

    def test_select_cached_before_recovery_is_not_served(self, tmp_path):
        self._snapshotted(str(tmp_path))
        trim = TrimManager()
        assert trim.select(subject=Resource("s")) == []   # cached empty
        trim.enable_durability(str(tmp_path))
        try:
            assert trim.select(subject=Resource("s")) == \
                [triple("s", "p", 1)]
        finally:
            trim.close()


class TestCacheStatsConcurrency:
    """`cache_stats()` under concurrent writers.

    The service's ``trim.stats`` op calls ``cache_stats()`` from
    executor threads while the tenant's writer thread commits durably —
    each snapshot must be internally consistent.
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
                    # every fill, racy skip or oversize skip follows
                    # its own miss.
                    assert select["fills"] + select["racy_fills_skipped"] \
                        + select["oversize_skipped"] <= select["misses"]
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
