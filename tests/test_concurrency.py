"""Concurrent reads during ingest, racing durable committers, and the
durability edge cases that ride along.

The central contract: reader threads querying a store mid-``bulk``
see the *last-flushed snapshot* — consistent membership and indexes —
and never force the ingest's deferred index flush
(``_flush_bulk`` runs only on the bulk-owner thread).  Durable commits
racing from several threads each write and fsync on the caller's
thread, so a commit that returned is in the WAL
(:class:`TestConcurrentCommitters`); coalescing many writers into one
fsync is the service writer thread's job (``tests/test_service.py``).

Regression coverage for the three durability edge cases shipped with
this change lives in :class:`TestDurabilityEdgeCases`:

1. a failing baseline snapshot in ``Durability.__init__`` used to leave
   the change listener attached to the store;
2. a ``Batch`` must never be half-recoverable: WAL groups close only on
   an explicit commit, so a crash mid-batch recovers none of it and a
   rolled-back batch commits as one clean group;
3. ``WriteAheadLog.commit()`` on an empty buffer used to write a
   boundary record and fsync for nothing.
"""

import os
import pickle
import shutil
import sys
import threading
import time

import pytest

from repro.triples import persistence
from repro.triples.query import Pattern, Query, Var
from repro.triples.store import TripleStore
from repro.triples.transactions import Batch
from repro.triples.trim import TrimManager
from repro.triples.triple import Literal, Resource, Triple, triple
from repro.triples.views import reachable_triples
from repro.triples.wal import (WAL_FILE, Durability, WriteAheadLog, recover,
                               scan_wal)



def _in_thread(fn):
    """Run *fn* on a fresh thread, join, re-raise, return its result."""
    box = {}

    def runner():
        try:
            box["result"] = fn()
        except BaseException as exc:  # pragma: no cover - failure path
            box["error"] = exc

    t = threading.Thread(target=runner)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive(), "worker thread hung"
    if "error" in box:
        raise box["error"]
    return box["result"]


def _spy_flushes(store):
    """Wrap ``store._flush_bulk`` to record which threads flushed."""
    calls = []
    original = store._flush_bulk

    def spy(*args, **kwargs):
        calls.append(threading.get_ident())
        return original(*args, **kwargs)

    store._flush_bulk = spy
    return calls


@pytest.fixture(params=[TripleStore], ids=["TripleStore"])
def store_cls(request):
    return request.param


class TestSnapshotReadsDuringBulk:
    """Reader threads see the last flush; only the owner ever flushes."""

    def test_reader_sees_last_flush_not_pending(self, store_cls):
        store = store_cls()
        flushed = [triple(f"s{i}", "p", i) for i in range(3)]
        store.add_all(flushed)
        bulk = store.bulk()
        bulk.__enter__()
        try:
            for i in range(5):
                store.add(triple(f"bulk{i}", "p", i))
            # Owner: read-your-writes (8 visible, pending counted).
            assert len(store) == 8

            def read():
                return (len(store), store.select(), list(store),
                        store.count(property=Resource("p")))

            length, selected, iterated, counted = _in_thread(read)
            # The reader's whole world is the last flush: 3 triples, no
            # trace of the 5 pending inserts.
            assert length == 3
            assert selected == flushed
            assert iterated == flushed
            assert counted == 3
        finally:
            bulk.__exit__(None, None, None)
        assert len(store) == 8
        assert _in_thread(lambda: len(store)) == 8  # flush published

    def test_reader_never_triggers_flush(self, store_cls):
        store = store_cls(concurrent=True)
        store.add_all(triple(f"s{i}", "p", i) for i in range(4))
        calls = _spy_flushes(store)
        with store.bulk():
            for i in range(6):
                store.add(triple(f"bulk{i}", "p", i))

            def read():
                assert len(store.select(property=Resource("p"))) == 4
                assert store.count(property=Resource("p")) == 4
                assert len(store) == 4
                assert list(store) == [triple(f"s{i}", "p", i)
                                       for i in range(4)]
                assert triple("bulk0", "p", 0) not in store

            _in_thread(read)
            reader_flushes = list(calls)
            assert reader_flushes == []  # zero flushes from any reader
        assert len(store) == 10
        assert calls  # the owner's exit flushed

    def test_planned_query_runs_against_snapshot(self, store_cls):
        store = store_cls(concurrent=True)
        store.add(triple("b1", "slim:bundleContent", Resource("s1")))
        store.add(triple("s1", "slim:scrapName", "K+ 3.9"))
        query = Query([
            Pattern(Var("b"), Resource("slim:bundleContent"), Var("s")),
            Pattern(Var("s"), Resource("slim:scrapName"), Var("n")),
        ])
        calls = _spy_flushes(store)
        with store.bulk():
            store.add(triple("b1", "slim:bundleContent", Resource("s2")))
            store.add(triple("s2", "slim:scrapName", "Na 140"))

            rows = _in_thread(lambda: query.run_all(store))
            assert [str(row["n"].value) for row in rows] == ["K+ 3.9"]
            assert calls == []
        rows = query.run_all(store)
        assert {str(row["n"].value) for row in rows} == {"K+ 3.9", "Na 140"}

    def test_view_closure_is_pinned_mid_bulk(self, store_cls):
        store = store_cls(concurrent=True)
        root = Resource("root")
        store.add(triple(root, "slim:bundleContent", Resource("a")))
        store.add(triple("a", "slim:scrapName", "one"))
        calls = _spy_flushes(store)
        with store.bulk():
            store.add(triple(root, "slim:bundleContent", Resource("b")))
            store.add(triple("b", "slim:scrapName", "two"))

            closure = _in_thread(lambda: reachable_triples(store, root))
            assert len(closure) == 2  # only the flushed subgraph
            assert calls == []        # the reader forced no flush
        assert len(reachable_triples(store, root)) == 4  # after the flush

    def test_concurrent_flag_preserves_results(self, store_cls):
        plain, cow = store_cls(), store_cls(concurrent=True)
        statements = [triple(f"s{i % 7}", f"p{i % 3}", i) for i in range(40)]
        for s in (plain, cow):
            s.add_all(statements[:25])
            s.remove(statements[3])
            with s.bulk():
                s.add_all(statements[25:])
            s.remove_matching(subject=Resource("s5"))
        assert plain.select() == cow.select()
        assert plain.select(subject=Resource("s1")) == \
            cow.select(subject=Resource("s1"))
        assert plain.count(property=Resource("p2")) == \
            cow.count(property=Resource("p2"))
        assert len(plain) == len(cow)


class TestConcurrentStress:
    """Readers race a real bulk ingest; every observation is consistent."""

    CHUNKS = 30
    CHUNK_SIZE = 20

    def test_readers_race_bulk_ingest(self, store_cls):
        store = store_cls(concurrent=True)
        root = Resource("root")
        store.add(triple(root, "slim:bundleContent", Resource("seed")))
        store.add(triple("seed", "slim:scrapName", "seed"))
        flush_threads = _spy_flushes(store)
        done = threading.Event()
        published = []          # chunk ids whose bulk scope has exited
        errors = []

        def writer():
            try:
                for chunk in range(self.CHUNKS):
                    subject = Resource(f"chunk{chunk}")
                    with store.bulk():
                        for i in range(self.CHUNK_SIZE):
                            store.add(triple(subject, "p", chunk * 1000 + i))
                    published.append(chunk)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    safe = len(published)
                    for chunk in range(self.CHUNKS):
                        n = store.count(subject=Resource(f"chunk{chunk}"))
                        # A chunk is all-or-nothing: its triples publish
                        # in one flush, never partially.
                        assert n in (0, self.CHUNK_SIZE), \
                            f"torn chunk {chunk}: saw {n}"
                        if chunk < safe:
                            assert n == self.CHUNK_SIZE
                        selected = store.select(
                            subject=Resource(f"chunk{chunk}"))
                        assert len(selected) in (0, self.CHUNK_SIZE)
                    # The untouched subgraph's closure never moves.
                    assert len(reachable_triples(store, root)) == 2
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
                done.set()

        writer_thread = threading.Thread(target=writer)
        reader_threads = [threading.Thread(target=reader) for _ in range(2)]
        reader_idents = set()
        for t in reader_threads:
            t.start()
            reader_idents.add(t.ident)
        writer_thread.start()
        writer_thread.join(timeout=60)
        for t in reader_threads:
            t.join(timeout=60)
        assert not errors, errors[0]
        assert len(store) == 2 + self.CHUNKS * self.CHUNK_SIZE
        # The acceptance bar: not one flush ran on a reader thread.
        assert not (set(flush_threads) & reader_idents)
        assert set(flush_threads) == {writer_thread.ident}


_INDEXES = ("_by_subject", "_by_property",
            "_by_subject_property", "_by_property_value")


def _buckets(store):
    """Every index bucket of *store*, keyed by (index name, bucket key)."""
    return {(name, key): bucket for name in _INDEXES
            for key, bucket in getattr(store, name).items()}


class TestInPlaceIndexWrites:
    """concurrent=True keeps single-triple writes O(1): no bucket copies.

    A compound bucket holding one triple is the bare triple, and a second
    triple promotes it to a new two-element set: an O(1) rebind, not a
    copy.  So the check is that no *set-valued* bucket is rebound."""

    BIG = 10_000

    def test_single_writes_never_rebind_a_bucket(self, store_cls):
        store = store_cls(concurrent=True)
        name = Resource("slim:scrapName")
        store.add_all(triple(f"scrap{i}", name, f"n{i}")
                      for i in range(self.BIG))
        big = store._by_property[name]
        assert len(big) == self.BIG
        writes = [
            lambda: store.add(triple("scrap1", name, "renamed")),
            lambda: store.remove(triple("scrap2", name, "n2")),
            # A DMI rename: remove the old value, add the new one.
            lambda: store.remove_matching(subject=Resource("scrap3"),
                                          property=name),
            lambda: store.add(triple("scrap3", name, "r3")),
        ]
        for write in writes:
            before = _buckets(store)
            write()
            after = _buckets(store)
            for key, bucket in before.items():
                if isinstance(bucket, set):
                    assert after.get(key, bucket) is bucket, \
                        f"{key[0]} bucket was copied by a single-triple write"
        assert store._by_property[name] is big
        assert len(big) == self.BIG  # +1 add, -1 remove, -1/+1 rename

    def test_batch_publish_rebuilds_only_multi_triple_buckets(self, store_cls):
        store = store_cls(concurrent=True)
        store.add_all([triple("s", "p", 0), triple("t", "q", 0)])
        p_bucket = store._by_property[Resource("p")]
        q_bucket = store._by_property[Resource("q")]
        with store.bulk():
            store.add_all([triple("s", "p", 1), triple("s", "p", 2),
                           triple("t", "q", 1)])
        # Two additions: rebuilt and republished, all-or-nothing.
        assert store._by_property[Resource("p")] \
            is not p_bucket
        # One addition: updated in place.
        assert store._by_property[Resource("q")] \
            is q_bucket
        assert store.count(property=Resource("p")) == 3
        assert store.count(property=Resource("q")) == 2


class TestReadersRaceInPlaceWrites:
    """Lock-free readers iterate buckets a writer is updating in place."""

    BASE = 2000
    WRITES = 1500

    @staticmethod
    def _race(write, checks):
        """Run *write* on one thread and loop each of *checks* on a thread
        of its own until *write* returns, under a 10 µs switch interval;
        the first error any thread raised fails the test."""
        done = threading.Event()
        errors = []

        def writer():
            try:
                write()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        def reader(check):
            try:
                while not done.is_set():
                    check()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(check,))
                       for check in checks]
            threads.append(threading.Thread(target=writer))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), "thread hung"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]

    def test_readers_see_before_or_after_each_write(self, store_cls):
        store = store_cls(concurrent=True)
        big, hot = Resource("big"), Resource("hot")
        base = {triple(f"s{i}", big, i) for i in range(self.BASE)}
        store.add_all(base)
        anchor = triple(hot, "kind", "x")
        store.add(anchor)
        # The writer toggles churn triples one at a time, so at any
        # instant at most one of them is present — in the big property
        # bucket and in the small subject bucket alike.
        churn = [triple(hot, big, -i) for i in range(1, self.WRITES + 1)]
        universe = set(churn)

        def write():
            for t in churn:
                store.add(t)
                store.remove(t)

        def check():
            selected = store.select(property=big)
            extra = set(selected) - base
            assert len(selected) - len(extra) == self.BASE
            assert len(extra) <= 1 and extra <= universe
            matched = set(store.match(subject=hot))
            assert anchor in matched
            assert len(matched) <= 2 and matched - {anchor} <= universe
            assert self.BASE <= store.count(property=big) <= self.BASE + 1
            assert 1 <= store.count(subject=hot) <= 2

        self._race(write, [check] * 3)
        assert set(store.select(property=big)) == base

    PROPERTIES = 1000
    WAVE = 50

    def test_value_only_readers_race_new_properties(self, store_cls):
        # A value-only read walks a snapshot of the property keys and
        # probes (property, value) under each; the writer adds and drops
        # a property key with every write.
        store = store_cls(concurrent=True)
        hot, shared = Resource("hot"), Literal("shared")
        base = {triple(f"s{i}", f"p{i}", value)
                for i in range(self.PROPERTIES) for value in (shared, i)}
        store.add_all(base)
        anchor = triple(hot, "kind", shared)
        store.add(anchor)
        expected = {t for t in base if t.value == shared} | {anchor}
        # Each churn triple holds a property of its own.  The writer adds
        # a wave of them one at a time, then removes them one at a time,
        # so at most WAVE are present and the key count keeps moving.
        churn = [triple(hot, f"new{i}", shared) for i in range(self.WAVE)]
        universe = set(churn)

        def write():
            for _ in range(self.WRITES // self.WAVE):
                for t in churn:
                    store.add(t)
                for t in churn:
                    store.remove(t)

        def check_select():
            selected = set(store.select(value=shared))
            extra = selected - expected
            assert expected <= selected
            assert len(extra) <= self.WAVE and extra <= universe

        def check_count():
            assert len(expected) <= store.count(value=shared) \
                <= len(expected) + self.WAVE

        def check_match():
            matched = set(store.match(subject=hot, value=shared))
            assert anchor in matched and matched - {anchor} <= universe
            assert len(matched) <= 1 + self.WAVE

        # One reader per read shape, so each races the writer alone.
        self._race(write, [check_select, check_count, check_match])
        assert set(store.select(value=shared)) == expected
        assert store.count(value=shared) == len(expected)

    KEYS = 250
    TOGGLES = 40

    def test_readers_race_promote_and_demote(self, store_cls):
        # The writer moves each (subject, property) and (property, value)
        # key through 0 -> 1 -> 2 -> 1 -> 0 triples: the survivor bare,
        # promoted to a set by a second triple, demoted back to the bare
        # survivor (TOGGLES times), gone.  A read made while the survivor
        # was present from start to end must return it.
        store = store_cls(concurrent=True)
        p, q = Resource("p"), Resource("q")
        pairs, patterns = [], []
        for i in range(self.KEYS):
            pairs.append((triple(f"s{i}", p, "gone"),
                          triple(f"s{i}", p, "kept")))
            patterns.append((Resource(f"s{i}"), p, None))
            pairs.append((triple(f"a{i}", q, i), triple(f"b{i}", q, i)))
            patterns.append((None, q, Literal(i)))
        # 2k + 1 from after pair k's survivor is added until just before
        # it is removed; the promotes and demotes run in between.
        progress = [0]

        def write():
            for k, (gone, kept) in enumerate(pairs):
                store.add(kept)
                progress[0] = 2 * k + 1
                for _ in range(self.TOGGLES):
                    store.add(gone)
                    store.remove(gone)
                progress[0] = 2 * k + 2
                store.remove(kept)

        def pinned(read):
            """Read the current pair; return (its two triples, the read,
            whether its survivor was present throughout)."""
            before = progress[0]
            k = min(before // 2, len(pairs) - 1)
            result = read(*patterns[k])
            return pairs[k], result, before % 2 == 1 and progress[0] == before

        def check(read):
            (gone, kept), result, held = pinned(read)
            assert set(result) <= {gone, kept} and len(result) <= 2
            if held:
                assert kept in result, "survivor missing in a promote/demote"

        def check_select():
            check(lambda s, p, v: store.select(s, p, v))

        def check_count():
            (gone, kept), n, held = pinned(lambda s, p, v: store.count(s, p, v))
            assert (1 if held else 0) <= n <= 2

        def check_match():
            check(lambda s, p, v: list(store.match(s, p, v)))

        def check_without_property():
            # The subject bucket for a (subject, property) key; the walk
            # over (property, value) buckets for a (property, value) key.
            check(lambda s, p, v: store.select(s, None, v))

        self._race(write, [check_select, check_count, check_match,
                           check_without_property])
        assert len(store) == 0
        assert not store._by_subject_property and not store._by_property_value


class TestCachedHashes:
    """TRIM nodes cache their hash; equality and hashing stay consistent."""

    def test_equal_nodes_and_triples_hash_equal(self):
        assert Resource("a") == Resource("a")
        assert hash(Resource("a")) == hash(Resource("a"))
        assert hash(Literal("a")) == hash(Literal("a"))
        one = triple("s", "p", 1)
        assert one == triple("s", "p", 1)
        assert hash(one) == hash(triple("s", "p", 1))
        copied = pickle.loads(pickle.dumps(one))
        assert copied == one and hash(copied) == hash(one)

    def test_literal_types_stay_distinct(self):
        nodes = [Literal(1), Literal(1.0), Literal(True)]
        for i, left in enumerate(nodes):
            for right in nodes[i + 1:]:
                assert left != right
        assert len(set(nodes)) == 3

    def test_restore_rows_triples_match_constructed_ones(self, store_cls):
        nodes = [Resource("scrap1"), Resource("slim:scrapName"),
                 Literal("K+ 3.9"), Literal(1), Literal(True)]
        rows = [(0, 1, 2, 0), (0, 1, 3, 1), (0, 1, 4, 2)]
        store = store_cls()
        store.restore_rows(nodes, rows)
        built = [Triple(nodes[s], nodes[p], nodes[v]) for s, p, v, _ in rows]
        restored = list(store)
        assert restored == built
        assert [hash(t) for t in restored] == [hash(t) for t in built]
        assert all(t in store for t in built)
        assert len(set(restored) | set(built)) == len(rows)


class TestConcurrentCommitters:
    """Durable commits from several threads on a ``concurrent`` store."""

    def test_racing_committers_ack_is_durable_at_kill_point(self, tmp_path):
        """Copy the WAL mid-race: acked commits are in the copy."""
        wal_dir = tmp_path / "live"
        store = TripleStore(concurrent=True)
        durability = Durability(store, str(wal_dir), compact_every=10_000)
        acked = set()
        acked_lock = threading.Lock()
        errors = []

        def committer(worker):
            try:
                for i in range(8):
                    t = triple(f"w{worker}", "p", i)
                    store.add(t)
                    durability.commit()
                    with acked_lock:
                        acked.add(t)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=committer, args=(w,))
                   for w in range(3)]
        for t in threads:
            t.start()
        # "Kill": snapshot the durable file while commits race.
        deadline = time.monotonic() + 30
        while True:
            with acked_lock:
                acked_at_copy = set(acked)
            if len(acked_at_copy) >= 4:
                break
            assert time.monotonic() < deadline, "no commit was acked"
            time.sleep(0.001)
        kill_dir = tmp_path / "killed"
        os.makedirs(kill_dir)
        shutil.copy(wal_dir / WAL_FILE, kill_dir / WAL_FILE)
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "committer hung"
        assert not errors, errors[0]
        durability.close()
        recovered = TripleStore()
        recover(str(kill_dir), recovered)
        survivors = set(recovered.select())
        everything = {triple(f"w{w}", "p", i)
                      for w in range(3) for i in range(8)}
        # Durable-ack contract: every commit acked before the copy is in
        # the copy; nothing outside the real write set ever appears.
        assert acked_at_copy <= survivors <= everything

    def test_durable_concurrent_trim_round_trip(self, tmp_path):
        trim = TrimManager(durable=str(tmp_path), concurrent=True)
        assert trim.store.concurrent is True
        scrap = trim.new_resource("scrap")
        trim.create(scrap, "slim:scrapName", "first")
        assert trim.commit() is True
        trim.close()
        reopened = TrimManager(durable=str(tmp_path))
        assert reopened.select(prop=Resource("slim:scrapName"))
        reopened.close()


class TestDurabilityEdgeCases:
    """Regression tests for the three shipped edge-case fixes."""

    # -- #1: baseline-compaction failure must detach the listener ----------

    def test_failed_baseline_snapshot_detaches_listener(self, tmp_path,
                                                        monkeypatch):
        store = TripleStore()
        store.add(triple("s", "p", 1))  # non-empty: triggers baseline

        def broken_save(*args, **kwargs):
            raise OSError("snapshot device gone")

        monkeypatch.setattr(persistence, "save_snapshot", broken_save)
        with pytest.raises(OSError, match="snapshot device gone"):
            Durability(store, str(tmp_path))
        # The half-built handle left nothing behind: later mutations
        # notify no stale listener.
        assert store._listeners == []
        store.add(triple("s", "p", 2))  # would explode on a stale handle

    # -- #2: a Batch is all-or-nothing across a crash ------------------

    def test_wal_copied_mid_batch_recovers_none_of_it(self, tmp_path):
        store = TripleStore()
        durability = Durability(store, str(tmp_path))
        store.add(triple("s", "p", 0))
        durability.commit()
        group_before = durability.group
        with Batch(store, bulk=False):
            store.add(triple("s", "p", 1))
            store.add(triple("s", "p", 2))
            assert durability.group == group_before
            assert durability.pending_changes == 2
            # A crash here recovers the committed prefix and NONE of
            # the batch.
            torn_dir = tmp_path / "torn"
            os.makedirs(torn_dir)
            shutil.copy(tmp_path / WAL_FILE, torn_dir / WAL_FILE)
            mid_crash = TripleStore()
            recover(str(torn_dir), mid_crash)
            assert list(mid_crash) == [triple("s", "p", 0)]
        # Batch exit commits nothing by itself; the caller's commit
        # closes the whole operation as one group.
        assert durability.group == group_before
        assert durability.commit() is True
        assert durability.group == group_before + 1
        durability.close()
        recovered = TripleStore()
        assert recover(str(tmp_path), recovered).groups_replayed == 2
        assert len(recovered) == 3

    def test_rolled_back_batch_commits_as_one_clean_group(self, tmp_path):
        store = TripleStore()
        durability = Durability(store, str(tmp_path))
        with pytest.raises(RuntimeError):
            with Batch(store, bulk=False):
                store.add(triple("s", "p", 1))
                raise RuntimeError("boom")
        # The add and its rollback inversion land in the same group —
        # recovery can never resurrect half of the aborted operation.
        assert durability.commit() is True
        durability.close()
        recovered = TripleStore()
        assert recover(str(tmp_path), recovered).groups_replayed == 1
        assert len(recovered) == 0

    def test_bulk_ingest_then_commit_is_one_group(self, tmp_path):
        trim = TrimManager(durable=str(tmp_path))
        group_before = trim.durability.group
        with trim.bulk_ingest():
            for i in range(10):
                trim.create(f"s{i}", "p", i)
            assert trim.durability.group == group_before
        assert trim.durability.group == group_before + 1
        assert trim.commit() is False       # the session already closed it
        trim.close()
        recovered = recover(str(tmp_path))
        assert recovered.groups_replayed == 1
        assert len(recovered.store) == 10

    # -- #3: empty WAL commit is a no-op ---------------------------------

    def test_empty_wal_commit_writes_nothing(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path, scan_wal(path))
        from repro.triples.transactions import Change
        wal.append(Change("add", triple("s", "p", 1), 0))
        assert wal.commit() == 1
        size_after = os.path.getsize(path)
        syncs_after = wal.sync_count
        # Empty-buffer commits: same group, zero bytes, zero fsyncs.
        assert wal.commit() == 1
        assert wal.commit() == 1
        assert os.path.getsize(path) == size_after
        assert wal.sync_count == syncs_after
        assert wal.group == 1
        wal.close()

    def test_durability_commit_reports_false_when_clean(self, tmp_path):
        store = TripleStore()
        durability = Durability(store, str(tmp_path))
        assert durability.commit() is False
        store.add(triple("s", "p", 1))
        assert durability.commit() is True
        assert durability.commit() is False
        assert durability.group == 1
        durability.close()
