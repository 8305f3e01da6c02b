"""Served tenant heaps and the cyclic garbage collector.

Two properties keep a served tenant's heap out of the collector's way
(DESIGN.md §15, "Tenant heaps and the cyclic collector"):

- **Teardown is cycle-free.**  Closing a :class:`TrimManager`, abandoning
  a :class:`Durability` and evicting a registry tenant leave no
  reference cycle, so everything they owned dies with its last
  reference.  These tests run with the collector disabled and watch
  weak references.
- **The frozen heap stays bounded.**  :class:`PadRegistry` freezes the
  heap after each cold open; the server's reaper reconciles
  (unfreeze, collect, refreeze) so cycles stranded by a freeze are
  reclaimed.  A reconcile never runs on a request path.
- **Recovery runs collector-free.**  Every :func:`recover` (and so every
  durable open) and every registry cold open pause the collector through
  one process-wide count, which restores the collector's prior state
  when the last overlapping pause ends.
"""

import gc
import threading
import time
import weakref

import pytest

from repro.errors import PersistenceError
from repro.service.client import ServiceClient
from repro.service.registry import PadRegistry, TenantHandle
from repro.service.server import MUTATIONS, READS, TrimService
from repro.triples.query import Pattern, Query, Var
from repro.triples.store import TripleStore
from repro.triples.trim import TrimManager
from repro.triples.triple import Resource
from repro.triples.wal import Durability, recover
from tests.snapshot_files import v2_text_snapshot


@pytest.fixture
def collector_off():
    """Run the test with the cyclic collector disabled, so an object
    dies only when reference counting frees it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _dead(refs):
    """The names of the weakly referenced objects that are still alive."""
    return sorted(name for name, ref in refs.items() if ref() is not None)


def _populated(directory):
    trim = TrimManager(durable=directory, concurrent=True)
    trim.create("slim:b1", "slim:content", Resource("slim:s1"))
    trim.create("slim:s1", "slim:name", "K+")
    trim.commit()
    trim.select(subject=Resource("slim:s1"))
    trim.reachable(Resource("slim:b1"))
    return trim


def _parts(trim):
    return {"trim": weakref.ref(trim),
            "store": weakref.ref(trim.store),
            "cache": weakref.ref(trim.cache),
            "durability": weakref.ref(trim.durability)}


class TestTeardownIsCycleFree:
    def test_closed_manager_is_freed_without_a_collection(
            self, tmp_path, collector_off):
        trim = _populated(str(tmp_path / "t"))
        assert len(trim.cache) == 2
        refs = _parts(trim)
        trim.close()
        del trim
        assert _dead(refs) == []

    def test_abandoned_durability_is_freed_without_a_collection(
            self, tmp_path, collector_off):
        directory = str(tmp_path / "t")
        trim = _populated(directory)
        refs = _parts(trim)
        trim.durability.abandon()
        # close() finds the handle already closed, so only abandon()
        # could have dropped its unsubscribe closures.
        trim.close()
        del trim
        assert _dead(refs) == []
        reopened = TrimManager(durable=directory)
        assert len(reopened.store) == 2
        reopened.close()

    def test_bare_durability_abandon_frees_the_store(
            self, tmp_path, collector_off):
        store = TripleStore()
        durability = Durability(store, str(tmp_path / "t"))
        refs = {"store": weakref.ref(store),
                "durability": weakref.ref(durability)}
        durability.abandon()
        durability.abandon()   # idempotent
        del store, durability
        assert _dead(refs) == []

    def test_closed_manager_serves_correct_uncached_reads(self, tmp_path):
        trim = _populated(str(tmp_path / "t"))
        query = Query([Pattern(Var("b"), Resource("slim:content"), Var("s")),
                       Pattern(Var("s"), Resource("slim:name"), None)])
        assert trim.query(query) == [{"b": Resource("slim:b1"),
                                      "s": Resource("slim:s1")}]
        trim.close()
        before = trim.cache_stats()["select_cache"]
        # The store is still readable and writable in memory; every read
        # is now computed fresh, so none can go stale.
        trim.create("slim:s1", "slim:note", "stat")
        trim.create("slim:b1", "slim:content", Resource("slim:s2"))
        trim.create("slim:s2", "slim:name", "Na")
        assert {t.property.uri for t in
                trim.select(subject=Resource("slim:s1"))} \
            == {"slim:name", "slim:note"}
        assert len(trim.reachable(Resource("slim:b1"))) == 5
        assert sorted(row["s"].uri for row in trim.query(query)) \
            == ["slim:s1", "slim:s2"]
        after = trim.cache_stats()["select_cache"]
        assert after["hits"] == before["hits"]
        assert after["uncacheable"] == before["uncacheable"] + 3
        assert after["entries"] == 0

    def test_evicted_tenant_is_freed_without_a_collection(
            self, tmp_path, collector_off):
        registry = PadRegistry(str(tmp_path), idle_ttl=0.0)
        handle = registry.acquire("ward")
        pad = handle.submit(MUTATIONS["pad.new"](
            handle, {"name": "rounds"})).wait()
        scrap = handle.submit(MUTATIONS["pad.note"](
            handle, {"text": "check labs"})).wait()["scrap"]
        for _ in range(2):   # fill, then hit
            READS["trim.select"](handle, {"s": scrap})
            READS["trim.view"](handle, {"root": pad["root"]})
        assert READS["dmi.value"](handle, {
            "entity": "Scrap", "id": scrap,
            "attr": "scrapName"})["value"] == "check labs"
        stats = handle.trim.cache_stats()["select_cache"]
        assert stats["hits"] >= 2 and stats["entries"] >= 2
        trim = handle.trim
        refs = {"handle": weakref.ref(handle), "dmi": weakref.ref(handle.dmi),
                **_parts(trim)}
        registry.release(handle)
        del handle, trim
        assert registry.evict_idle() == ["ward"]
        assert _dead(refs) == []
        registry.close_all()


class TestFrozenHeap:
    def test_cold_open_freezes_and_reconcile_follows_freezes(self, tmp_path):
        registry = PadRegistry(str(tmp_path), idle_ttl=0.0)
        assert registry.heap_stats()["frozen"] is None
        assert registry.reconcile_heap() is False   # nothing frozen yet
        handle = registry.acquire("a")
        assert gc.get_freeze_count() > 0
        # A warm acquire opens nothing, so it does not freeze.
        registry.release(registry.acquire("a"))
        assert registry.stats()["opens"] == 1
        assert registry.reconcile_heap() is True
        heap = registry.heap_stats()
        assert heap["reconciles"] == 1
        assert heap["frozen"] > 0
        assert heap["last_reconcile_ms"] >= 0
        assert heap["last_reconcile_collected"] >= 0
        assert len(heap["collections"]) == len(gc.get_stats())
        # An idle registry does nothing on the next tick.
        assert registry.reconcile_heap() is False
        assert registry.heap_stats()["reconciles"] == 1
        registry.release(handle)
        registry.close_all()

    def test_cold_open_runs_no_collection(self, tmp_path):
        directory = str(tmp_path / "ward")
        trim = TrimManager(durable=directory)
        for i in range(3000):
            trim.create(f"slim:s{i}", "slim:name", f"scrap {i}")
        trim.commit()
        trim.durability.compact()
        trim.close()
        # A small threshold makes the cold open's allocations trip young
        # collections within a few hundred objects if the collector runs.
        old_threshold = gc.get_threshold()
        gc.set_threshold(100, 10, 10)
        try:
            registry = PadRegistry(str(tmp_path), idle_ttl=0.0)
            assert gc.isenabled()
            before = [g["collections"] for g in gc.get_stats()]
            handle = registry.acquire("ward")
            after = [g["collections"] for g in gc.get_stats()]
            assert len(handle.trim.store) == 3000
            assert after == before
            assert gc.isenabled()
            registry.release(handle)
            registry.close_all()
        finally:
            gc.set_threshold(*old_threshold)

    def test_collector_resumes_after_a_failed_open(self, tmp_path):
        registry = PadRegistry(str(tmp_path), idle_ttl=0.0)
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "snapshot.slim").write_bytes(b"not a snapshot")
        with pytest.raises(PersistenceError):
            registry.acquire("broken")
        assert gc.isenabled()
        # A collector that was off before the open stays off.
        gc.disable()
        try:
            registry.release(registry.acquire("fine"))
            assert not gc.isenabled()
        finally:
            gc.enable()
        registry.close_all()

    def test_failed_open_leaves_the_frozen_heap_frozen(self, tmp_path):
        """A refused cold open (a snapshot an earlier release wrote)
        leaves the heap that an earlier open froze frozen."""
        old = tmp_path / "old"
        trim = TrimManager(durable=str(old))
        trim.create("slim:s1", "slim:name", "K+")
        trim.commit()
        trim.durability.compact()
        (old / "snapshot.slim").write_bytes(
            v2_text_snapshot(trim.store, group=1))
        trim.close()
        registry = PadRegistry(str(tmp_path), idle_ttl=0.0)
        try:
            registry.release(registry.acquire("fine"))
            assert gc.get_freeze_count() > 0
            with pytest.raises(PersistenceError, match="earlier release"):
                registry.acquire("old")
            assert gc.get_freeze_count() > 0
            assert gc.isenabled()
        finally:
            registry.close_all()

    def test_admin_stats_carries_the_heap_block(self, tmp_path):
        svc = TrimService(str(tmp_path), port=0,
                          reap_interval=60.0).start_in_background()
        try:
            with ServiceClient("127.0.0.1", svc.port, tenant="a") as c:
                c.create("slim:s", "slim:p", 1)
                heap = c.admin_stats()["heap"]
            assert set(heap) == {"collections", "reconciles",
                                 "last_reconcile_ms",
                                 "last_reconcile_collected", "frozen"}
        finally:
            svc.stop()

    def test_reaper_tick_reconciles_after_a_cold_open(self, tmp_path):
        svc = TrimService(str(tmp_path), port=0, idle_ttl=300.0,
                          reap_interval=0.05).start_in_background()
        try:
            with ServiceClient("127.0.0.1", svc.port, tenant="a") as c:
                c.create("slim:s", "slim:p", 1)
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    heap = c.admin_stats()["heap"]
                    if heap["reconciles"] >= 1:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("the reaper never reconciled the heap")
                assert heap["frozen"] > 0
        finally:
            svc.stop()

    def test_stranded_cycles_stay_bounded(self, tmp_path, monkeypatch):
        """Connect -> read/write -> close -> ``admin.evict`` cycles.

        Each cycle cold-opens a tenant (one freeze) and closes a
        connection; on CPython a closed asyncio transport leaves a small
        reference cycle that the next freeze strands.  After a reconcile
        the frozen count must not grow with the number of cycles, and no
        collection may run on the acquire or evict path.
        """
        collects = []
        real_collect = gc.collect

        def counting_collect(*args):
            collects.append(threading.current_thread().name)
            return real_collect(*args)

        svc = TrimService(str(tmp_path), port=0,
                          reap_interval=60.0).start_in_background()
        registry = svc.registry
        try:
            with ServiceClient("127.0.0.1", svc.port) as admin:

                def cycles(count, start):
                    for i in range(start, start + count):
                        tenant = f"t{i % 4}"
                        with ServiceClient("127.0.0.1", svc.port,
                                           tenant=tenant) as c:
                            c.create(f"slim:s{i}", "slim:p", i)
                            assert c.values(f"slim:s{i}", "slim:p")
                        for _ in range(500):
                            if tenant in admin.admin_evict(force=True):
                                break
                            time.sleep(0.005)
                        else:
                            pytest.fail(f"{tenant} was never evicted")

                cycles(24, 0)   # warm up: executor threads, name locks
                monkeypatch.setattr(gc, "collect", counting_collect)
                assert registry.reconcile_heap() is True
                baseline = registry.heap_stats()["frozen"]
                collects.clear()
                cycles(60, 24)
                assert collects == []   # none in acquire or admin.evict
                assert registry.reconcile_heap() is True
                assert len(collects) == 1
                heap = registry.heap_stats()
                # 60 cycles strand on the order of 5 objects each; after
                # the reconcile only a few objects of slack remain.
                assert heap["frozen"] - baseline < 60, (baseline, heap)
        finally:
            svc.stop()


def _durable_pad(directory, count=3000):
    """A directory holding a *count*-triple snapshot and a WAL tail."""
    trim = TrimManager(durable=directory, compact_every=10_000)
    for i in range(count):
        trim.create(f"slim:s{i}", "slim:name", f"scrap {i}")
    trim.commit()
    trim.durability.compact()
    trim.create("slim:tail", "slim:name", "tail")
    trim.commit()
    trim.close()


class TestCollectorPause:
    def test_recover_collects_once_after_the_load(self, tmp_path):
        """The load runs no collection.  Re-enabling the collector when
        the pause ends leaves what the load built in the young
        generation, and the next allocation collects it once."""
        directory = str(tmp_path / "ward")
        _durable_pad(directory)
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append((info["generation"], gc.isenabled()))

        # A small threshold makes recovery's allocations trip young
        # collections within a few hundred objects if the collector runs.
        old_threshold = gc.get_threshold()
        gc.set_threshold(100, 10, 10)
        gc.collect()    # zero every generation's count
        gc.callbacks.append(count)
        try:
            assert gc.isenabled()
            result = recover(directory)
            [[] for _ in range(50)]   # fewer than one young threshold
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*old_threshold)
        assert len(result.store) == 3001
        assert collections == [(0, True)]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_recover_keeps_the_collectors_prior_state(self, tmp_path,
                                                      enabled):
        directory = str(tmp_path / "ward")
        _durable_pad(directory, count=10)
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "snapshot.slim").write_bytes(b"not a snapshot")
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert len(recover(directory).store) == 11
            assert gc.isenabled() is enabled
            with pytest.raises(PersistenceError):
                recover(str(broken))
            assert gc.isenabled() is enabled
            TrimManager(durable=directory).close()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_interleaved_opens_of_two_registries(self, tmp_path,
                                                 monkeypatch):
        """The collector is process-wide: with two registries opening at
        once, it stays off until the last open ends, whichever registry
        began first."""
        entered = {name: threading.Event() for name in ("a", "b")}
        proceed = {name: threading.Event() for name in ("a", "b")}
        real_init = TenantHandle.__init__

        def gated_init(self, name, *args, **kwargs):
            real_init(self, name, *args, **kwargs)
            entered[name].set()
            assert proceed[name].wait(10)

        monkeypatch.setattr(TenantHandle, "__init__", gated_init)
        registries = {"a": PadRegistry(str(tmp_path / "one")),
                      "b": PadRegistry(str(tmp_path / "two"))}
        acquired = {}

        def acquire(name):
            acquired[name] = registries[name].acquire(name)

        threads = {name: threading.Thread(target=acquire, args=(name,))
                   for name in ("a", "b")}
        assert gc.isenabled()
        try:
            threads["a"].start()
            assert entered["a"].wait(10)
            threads["b"].start()
            assert entered["b"].wait(10)
            assert not gc.isenabled()
            proceed["a"].set()          # the first open ends first
            threads["a"].join(10)
            assert not threads["a"].is_alive()
            assert not gc.isenabled()   # b is still opening
            proceed["b"].set()
            threads["b"].join(10)
            assert not threads["b"].is_alive()
            assert gc.isenabled()
            assert sorted(acquired) == ["a", "b"]
        finally:
            for name in ("a", "b"):
                proceed[name].set()
                threads[name].join(10)
                registries[name].close_all()
            gc.enable()
