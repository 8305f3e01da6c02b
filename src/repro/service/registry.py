"""Multi-tenant pad registry: lazy durable TRIMs + per-tenant coalescers.

One server process fronts many *tenants* — named pads, each owning a
durable :class:`~repro.triples.trim.TrimManager` (its own snapshot and
WAL directory under the registry root).  The registry's job is the
lifecycle (DESIGN.md §15):

- **Lazy open.**  A tenant's TRIM is opened (recovering any prior state
  under ``root/<name>/``) the first time a connection touches the name,
  not at server start — a server fronting thousands of dormant pads
  pays only for the live ones.
- **Reference counting.**  Every connection that touches a tenant holds
  a reference until it disconnects.  A tenant with live references is
  never evicted.
- **Idle close.**  A reaper pass (:meth:`PadRegistry.evict_idle`, run
  periodically by the server) closes tenants whose refcount is zero and
  whose last use is older than ``idle_ttl`` — flushing the coalescer,
  committing, and closing the WAL — so a long-lived server's open-file
  and memory footprint tracks the *working set* of tenants, not the
  historical set.  Re-touching an evicted name transparently reopens it.
- **Open/close serialization.**  A per-name lock serializes opening,
  closing, and eviction of the same tenant, so an eviction racing a
  late write can never leave two TrimManagers (two WAL handles) open on
  one directory: the late acquirer blocks until the close finishes,
  then recovers the just-committed state into a fresh manager.

The **write coalescer** is the throughput story.  All mutations for one
tenant funnel through a single writer thread: the asyncio front end
enqueues ``(fn, future)`` work items, the writer drains *everything
currently queued* into one batch, applies the ops, then closes the whole
batch with **one** durable :meth:`~repro.triples.trim.TrimManager.commit`
— so N concurrent connections cost ~one fsync group per drain cycle,
not N fsyncs (the measured ratio is the ``coalesce_ratio`` headline in
``BENCH_trim_service.json``).  Acks resolve only *after* that commit
returns, so an acknowledged write is always durable — the drain-on-
shutdown test recovers every acked op by reopening the directory.

Admission control is a bounded inflight count per tenant: past the
high-water mark, :meth:`TenantHandle.submit` raises
:class:`~repro.errors.BackpressureError`, which the server maps onto a
``RETRY_AFTER`` error frame instead of queueing unboundedly when the
writer thread's fsyncs fall behind.
"""

from __future__ import annotations

import gc
import os
import queue
import re
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import (BackpressureError, ProtocolError,
                          ServiceUnavailableError)
from repro.triples.trim import TrimManager
from repro.util.heap import collector_paused
from repro.util.stats import percentiles_us

__all__ = ["PadRegistry", "TenantHandle", "valid_tenant_name"]

#: Tenant names become directory names under the registry root, so they
#: are restricted to a conservative portable subset (no traversal, no
#: hidden files, bounded length).
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Sentinel enqueued to stop a tenant's writer thread.
_STOP = object()


def valid_tenant_name(name: str) -> bool:
    """Whether *name* is acceptable as a tenant (and directory) name."""
    return bool(_TENANT_NAME.match(name)) and ".." not in name


class _WorkItem:
    """One queued mutation: a thunk plus the asyncio future awaiting it.

    The writer thread resolves the future through
    ``loop.call_soon_threadsafe`` — the only safe way to touch an
    asyncio future from outside its loop.  A ``None`` loop/future pair
    makes the item synchronous (used by tests and the drain path);
    completion is then observable via :meth:`wait`.
    """

    __slots__ = ("fn", "loop", "future", "_event", "_outcome")

    def __init__(self, fn: Callable[[], Any], loop=None, future=None) -> None:
        self.fn = fn
        self.loop = loop
        self.future = future
        self._event = threading.Event() if future is None else None
        self._outcome: Any = None

    def resolve(self, error: Optional[BaseException], result: Any) -> None:
        """Deliver the outcome to whoever is waiting."""
        if self.future is None:
            self._outcome = (error, result)
            self._event.set()
            return
        loop, future = self.loop, self.future

        def _set() -> None:
            if future.cancelled():
                return
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)

        try:
            loop.call_soon_threadsafe(_set)
        except RuntimeError:
            # The loop is gone (server torn down mid-request); nothing
            # is waiting anymore.
            pass

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Synchronous completion: return the result or re-raise."""
        assert self._event is not None, "wait() on an async work item"
        if not self._event.wait(timeout):
            raise TimeoutError("work item did not complete in time")
        error, result = self._outcome
        if error is not None:
            raise error
        return result


class TenantHandle:
    """One live tenant: a durable TRIM plus its write coalescer.

    Obtained from :meth:`PadRegistry.acquire`; every acquire must be
    paired with a :meth:`PadRegistry.release`.  Mutations go through
    :meth:`submit`; reads may touch :attr:`trim` directly from any
    thread (the store is opened ``concurrent=True``, so reads are
    snapshot-isolated against the writer thread).
    """

    def __init__(self, name: str, directory: str,
                 high_water: int = 64, max_batch: int = 256) -> None:
        self.name = name
        self.directory = directory
        opened = time.perf_counter()
        self.trim = TrimManager(durable=directory, concurrent=True)
        #: Cold-open cost: wall-clock seconds recovery took for this
        #: tenant (snapshot load + WAL replay).
        self.open_seconds = time.perf_counter() - opened
        self._dmi = None
        self._dmi_lock = threading.Lock()
        self.high_water = high_water
        self.max_batch = max_batch
        self.refcount = 0
        self.last_used = time.monotonic()
        self.opened_at = time.time()
        self._lock = threading.Lock()
        self._inflight = 0
        self._writes = 0
        self._write_batches = 0
        self._rejected = 0
        self._closing = False
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._writer = threading.Thread(
            target=self._run, name=f"trim-service-{name}-writer", daemon=True)
        self._writer.start()

    # -- the DMI / SLIMPad surface -------------------------------------------

    @property
    def dmi(self):
        """The tenant's :class:`~repro.slimpad.dmi.SlimPadDMI`, built
        lazily over the tenant's TRIM (so pure-TRIM tenants never pay
        for the entity layer)."""
        if self._dmi is None:
            with self._dmi_lock:
                if self._dmi is None:
                    from repro.slimpad.dmi import SlimPadDMI
                    self._dmi = SlimPadDMI(trim=self.trim)
        return self._dmi

    # -- write path (the coalescer) ------------------------------------------

    def submit(self, fn: Callable[[], Any], loop=None, future=None
               ) -> _WorkItem:
        """Enqueue one mutation thunk for the writer thread.

        Applies admission control: past ``high_water`` queued-or-running
        mutations the call raises :class:`BackpressureError` instead of
        queueing.  Raises :class:`ServiceUnavailableError` once the
        tenant is draining.  Returns the enqueued work item; its future
        (or :meth:`_WorkItem.wait`) resolves *after* the batch holding
        this op has durably committed.
        """
        item = _WorkItem(fn, loop=loop, future=future)
        with self._lock:
            if self._closing:
                raise ServiceUnavailableError(
                    f"tenant {self.name!r} is draining")
            if self._inflight >= self.high_water:
                self._rejected += 1
                raise BackpressureError(
                    f"tenant {self.name!r} is past its high-water mark "
                    f"({self.high_water} inflight writes)")
            self._inflight += 1
            self.last_used = time.monotonic()
        self._queue.put(item)
        return item

    def _run(self) -> None:
        """Writer loop: drain queued ops, apply, commit once per batch."""
        while True:
            item = self._queue.get()
            if item is _STOP:
                break
            batch: List[_WorkItem] = [item]
            stop = False
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    stop = True
                    break
                batch.append(extra)
            self._apply(batch)
            if stop:
                break

    def _apply(self, batch: List[_WorkItem]) -> None:
        """Apply one drained batch, then make it durable with one commit.

        Per-op failures are isolated — op *i* raising never poisons op
        *i+1* — but a failed *commit* fails every op in the batch: none
        of them became durable, so none may be acknowledged.
        """
        outcomes: List[Any] = []
        for item in batch:
            try:
                outcomes.append((None, item.fn()))
            except BaseException as exc:
                outcomes.append((exc, None))
        commit_error: Optional[BaseException] = None
        try:
            self.trim.commit()
        except BaseException as exc:
            commit_error = exc
        with self._lock:
            self._write_batches += 1
            self._writes += len(batch)
            self._inflight -= len(batch)
        for item, (error, result) in zip(batch, outcomes):
            if commit_error is not None and error is None:
                error = commit_error
            item.resolve(error, result)

    # -- lifecycle ------------------------------------------------------------

    @property
    def closing(self) -> bool:
        """Whether :meth:`close` has begun (no further submits land)."""
        return self._closing

    def touch(self) -> None:
        """Refresh the idle clock (reads call this; submits do it inline)."""
        self.last_used = time.monotonic()

    def close(self, compact: bool = False) -> None:
        """Drain the coalescer, commit, and close the WAL (idempotent).

        Everything already queued is applied and durably committed —
        acked writes are never dropped — then the writer thread exits
        and the TRIM detaches its durability handle.  With *compact*
        the tenant is fully compacted first — one v3 snapshot, then a
        WAL reset — so the *next* open of this directory is a pure
        snapshot load, the fastest recovery path.
        Eviction passes it; shutdown does not (drain time over reopen
        speed when every tenant closes at once).
        """
        with self._lock:
            if self._closing:
                already = True
            else:
                already = False
                self._closing = True
        if not already:
            self._queue.put(_STOP)
        self._writer.join()
        # Final safety commit: harmless when the queue drained cleanly,
        # load-bearing if the writer thread died to an unexpected error.
        try:
            self.trim.commit()
            if compact and not already:
                durability = self.trim.durability
                if durability is not None:
                    durability.compact()
        finally:
            self.trim.close()

    # -- metrics --------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Counters for ``admin.stats``: sizing, queue, and commit totals."""
        durability = self.trim.durability
        with self._lock:
            block = {
                "triples": len(self.trim.store),
                "refcount": self.refcount,
                "inflight": self._inflight,
                "high_water": self.high_water,
                "writes": self._writes,
                "write_batches": self._write_batches,
                "rejected": self._rejected,
                "idle_seconds": round(time.monotonic() - self.last_used, 3),
                "open_seconds": round(self.open_seconds, 6),
            }
        if durability is not None:
            block["commits_requested"] = durability.commits_requested
            block["fsync_count"] = durability.fsync_count
            block["group"] = durability.group
        return block


class PadRegistry:
    """Names -> live tenants, with lazy open / refcounts / idle eviction.

    ::

        registry = PadRegistry("/var/lib/trim")
        handle = registry.acquire("ward-6")     # opens (or reuses) the pad
        try:
            handle.submit(lambda: handle.trim.create(...)).wait()
        finally:
            registry.release(handle)
        registry.close_all()                    # drain every tenant

    Thread-safe; see the module docstring for the lifecycle contract.

    **Heap policy (process-wide).**  A cold open builds tens of
    thousands of long-lived objects (triples, index sets, nodes).  Left
    to the cyclic collector they set off a full collection every few
    opens, each walking every live tenant, and young collections during
    the open itself, each walking the objects the open just built.  So
    the collector is paused for the duration of every cold open
    (:func:`repro.util.heap.collector_paused`, counted process-wide: it
    resumes when the last overlapping open in the process ends, only if
    it was enabled when the first began, also when an open fails), and
    after each cold open the registry calls
    ``gc.freeze()`` (O(1)), which moves *every* object
    then alive in the process, not just this registry's, into the
    permanent generation that collections skip.  Evicted tenants hold
    no reference cycles and are freed by reference counting alone.  A
    cycle that was alive at a freeze and dies later is never
    collected, so :meth:`reconcile_heap` (run by the server's reaper)
    unfreezes, collects and refreezes once per reaper tick that
    follows a freeze.  There is no switch: any registry in the process
    freezes the process's heap.
    """

    #: How many recent cold-open latencies feed the percentile block.
    _OPEN_LATENCY_WINDOW = 512

    def __init__(self, root: str, high_water: int = 64,
                 max_batch: int = 256, idle_ttl: float = 300.0) -> None:
        if high_water < 1:
            raise ValueError("high_water must be >= 1")
        self.root = root
        self.high_water = high_water
        self.max_batch = max_batch
        self.idle_ttl = idle_ttl
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantHandle] = {}
        self._name_locks: Dict[str, threading.Lock] = {}
        self._closed = False
        self._opens = 0
        self._evictions = 0
        #: Recent cold-open latencies (seconds), newest last, bounded so
        #: a long-lived server's stats block stays O(1).
        self._open_latencies: List[float] = []
        # Heap policy bookkeeping (see the class docstring): the open
        # count (each cold open froze the heap) the last reconcile saw,
        # and the last reconcile's (seconds, objects collected, objects
        # frozen).
        self._reconciled_opens = 0
        self._reconciles = 0
        self._last_reconcile: Tuple[Optional[float], Optional[int],
                                    Optional[int]] = (None, None, None)

    def _name_lock(self, name: str) -> threading.Lock:
        with self._lock:
            lock = self._name_locks.get(name)
            if lock is None:
                lock = self._name_locks[name] = threading.Lock()
            return lock

    # -- acquire / release -----------------------------------------------------

    def acquire(self, name: str) -> TenantHandle:
        """The live tenant for *name*, opened if needed; refcount +1.

        Raises :class:`ProtocolError` on an invalid name and
        :class:`ServiceUnavailableError` once the registry is closed.
        The per-name lock makes open-vs-evict ordering safe: if an
        eviction of this name is mid-close, the call blocks until the
        old manager has fully released the directory, then reopens.
        """
        if not valid_tenant_name(name):
            raise ProtocolError(f"invalid tenant name {name!r}")
        with self._name_lock(name):
            with self._lock:
                if self._closed:
                    raise ServiceUnavailableError("registry is closed")
                handle = self._tenants.get(name)
                if handle is not None and not handle.closing:
                    handle.refcount += 1
                    handle.touch()
                    return handle
            # Not open (or a stale closing handle was already removed):
            # open outside the registry lock — recovery can be slow —
            # but inside the name lock, so a concurrent acquire of the
            # same name waits instead of double-opening the WAL.
            with collector_paused():
                handle = TenantHandle(
                    name, os.path.join(self.root, name),
                    high_water=self.high_water, max_batch=self.max_batch)
                with self._lock:
                    if self._closed:
                        # Lost the race with close_all(): roll back.
                        handle.close()
                        raise ServiceUnavailableError("registry is closed")
                    self._tenants[name] = handle
                    self._opens += 1
                    self._open_latencies.append(handle.open_seconds)
                    del self._open_latencies[:-self._OPEN_LATENCY_WINDOW]
                    handle.refcount += 1
                    handle.touch()
                # The open just built the tenant's long-lived heap: move
                # it, with everything else alive, out of the collector's
                # sight before the collector runs again.
                gc.freeze()
            return handle

    def release(self, handle: TenantHandle) -> None:
        """Drop one reference taken by :meth:`acquire`."""
        with self._lock:
            handle.refcount -= 1
            assert handle.refcount >= 0, "release without acquire"
            handle.touch()

    # -- eviction / shutdown ---------------------------------------------------

    def evict_idle(self, now: Optional[float] = None) -> List[str]:
        """Close tenants idle past ``idle_ttl`` with no references.

        Returns the names closed.  Run periodically by the server's
        reaper task; safe against concurrent acquires — the per-name
        lock means a racing late acquire either re-references the
        tenant before we commit to closing it (we skip it), or waits
        for the close and reopens.
        """
        if now is None:
            now = time.monotonic()
        victims: List[str] = []
        with self._lock:
            candidates = [name for name, handle in self._tenants.items()
                          if handle.refcount == 0
                          and now - handle.last_used >= self.idle_ttl]
        for name in candidates:
            lock = self._name_lock(name)
            with lock:
                with self._lock:
                    handle = self._tenants.get(name)
                    if handle is None or handle.refcount > 0 \
                            or now - handle.last_used < self.idle_ttl:
                        continue
                    del self._tenants[name]
                    self._evictions += 1
                # Close under the name lock (but outside the registry
                # lock): a late acquire of this name now blocks until
                # the WAL is fully released.  Eviction compacts on the
                # way out: the tenant is cold, so spend the snapshot
                # write now to make its next cold open a pure (fast)
                # snapshot load instead of a WAL replay.
                handle.close(compact=True)
                victims.append(name)
        return victims

    def close_all(self) -> None:
        """Graceful drain: flush and close every tenant (idempotent).

        New acquires fail immediately; each tenant's queued writes are
        applied and committed before its WAL closes, so every
        acknowledged write is on disk when this returns.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._tenants.items())
            self._tenants.clear()
        for name, handle in handles:
            with self._name_lock(name):
                handle.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close_all` has run."""
        return self._closed

    # -- the frozen heap --------------------------------------------------------

    def reconcile_heap(self) -> bool:
        """Collect the cycles a freeze stranded, then freeze again.

        ``gc.unfreeze(); gc.collect(); gc.freeze()``: one full collection
        over the whole heap, so it belongs to the server's reaper tick
        and never to a request.  Does nothing, and returns ``False``,
        unless a cold open froze the heap since the last reconcile, so
        an idle server never pays for it.  Also the only place the
        frozen-object count is measured (counting walks the heap).
        """
        with self._lock:
            if self._opens == self._reconciled_opens:
                return False
            self._reconciled_opens = self._opens
        started = time.perf_counter()
        gc.unfreeze()
        collected = gc.collect()
        gc.freeze()
        seconds = time.perf_counter() - started
        frozen = gc.get_freeze_count()
        with self._lock:
            self._reconciles += 1
            self._last_reconcile = (seconds, collected, frozen)
        return True

    def heap_stats(self) -> Dict[str, Any]:
        """The ``heap`` block of ``admin.stats``; O(1), no heap walk.

        ``collections`` counts collections per collector generation
        (young to old) since process start; ``frozen`` is the frozen
        object count as the last reconcile left it (``None`` before the
        first).
        """
        collections = [g["collections"] for g in gc.get_stats()]
        with self._lock:
            reconciles = self._reconciles
            seconds, collected, frozen = self._last_reconcile
        return {
            "collections": collections,
            "reconciles": reconciles,
            "last_reconcile_ms": (None if seconds is None
                                  else round(seconds * 1e3, 3)),
            "last_reconcile_collected": collected,
            "frozen": frozen,
        }

    # -- introspection ---------------------------------------------------------

    def tenants(self) -> Dict[str, TenantHandle]:
        """Snapshot of the currently open tenants (name -> handle)."""
        with self._lock:
            return dict(self._tenants)

    def stats(self) -> Dict[str, Any]:
        """Registry-level counters plus one block per open tenant."""
        with self._lock:
            handles = dict(self._tenants)
            opens, evictions = self._opens, self._evictions
            latencies = list(self._open_latencies)
        return {
            "root": self.root,
            "open_tenants": len(handles),
            "opens": opens,
            "evictions": evictions,
            "idle_ttl": self.idle_ttl,
            "open_latency_us": percentiles_us(latencies),
            "heap": self.heap_stats(),
            "tenants": {name: handle.stats()
                        for name, handle in sorted(handles.items())},
        }
