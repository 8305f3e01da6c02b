"""Sharded triple stores: hash-partitioned ingest and scatter-gather query.

The paper's SLIM store keeps all superimposed information in one TRIM
triple pool, which caps both ingest and query throughput at a single
core (and a single WAL fsync stream) no matter how many users annotate
base documents.  This module partitions the pool by *subject hash*
across N independent store instances:

- :class:`ShardedTripleStore` — presents the whole
  :class:`~repro.triples.store.TripleStore` surface (``add`` / ``remove``
  / ``select`` / ``match`` / ``count`` / ``bulk`` / ``add_listener`` /
  views / persistence iteration) over N shards.  Subject-bound
  operations route to exactly one shard; everything else scatter-gathers
  and merges by global insertion sequence.  A shared thread pool fans
  large ingests out per shard.
- :class:`ShardedDurability` — one
  :class:`~repro.triples.wal.Durability` orchestrator (own WAL directory
  + snapshot) per shard, plus a coordinator *meta-WAL* that makes
  multi-shard commit groups atomic through two-phase commit.
- :func:`recover_sharded` — rebuild a sharded durable directory,
  finishing or rolling back any transaction a crash left in doubt.

Routing
-------

A triple lives on the shard its subject's slot maps to:
``map.slots[crc32(subject.uri) % len(map.slots)]``, where the
:class:`ShardMap` slot table (64 slots per shard) is versioned data
persisted in the meta-WAL, not code.  The version-1 layout is
``slots[i] = i % N``, which is bit-identical to the original
``crc32 % N`` arithmetic — directories written before maps existed
reopen under their implicit v1 map with no migration.  CRC-32 is
stable across processes and Python versions (unlike the salted builtin
``hash``), so a directory written by one process routes identically in
the next.  Subject-bound probes — the DMI's dominant traffic
(``value_of``, liveness checks, entity reads) — therefore touch exactly
one shard and stay flat-latency as N grows.  ``reshard(new_count)``
bumps the map version and live-migrates the affected slots' subjects
(DESIGN.md §14); :func:`split_offline` rewrites cold directories and is
the shrink path.

Global ordering
---------------

The sharded store allocates insertion-sequence numbers from one global
counter and inserts into shards via
:meth:`~repro.triples.store.TripleStore.restore`, so each shard's
sequence numbers are *globally* meaningful.  Cross-shard ``select()`` /
iteration merge per-shard results by sequence, reproducing exactly the
insertion order an unsharded store would report — the parity suite
(``tests/test_sharding.py``) pins this against a plain store over
randomized op sequences.

Query planning
--------------

The PR 1 selectivity planner needs no fork: it reads statistics through
``store.count()``, and the sharded ``count()`` returns the *sum* of the
per-shard index bucket sizes — a global selectivity estimate.  Pattern
evaluation grounds subjects as bindings propagate, so a plan's
subject-bound probes route to single shards while unbound patterns
scatter-gather; ``Query.run`` dedups merged bindings canonically, same
as before.

Two-phase commit (DESIGN.md §11)
--------------------------------

A commit group touching one shard is that shard's ordinary WAL group
commit — no coordination, one fsync.  A group touching k > 1 shards
runs 2PC:

1. **Prepare** — each participant's WAL durably stages the group's
   changes behind a ``'P'`` record carrying (txn, participant count,
   epoch); no ``'C'`` boundary yet, so a crash here recovers to
   rollback everywhere.
2. **Decide** — the coordinator appends a commit decision for txn to
   the meta-WAL and fsyncs it.  This single record is the commit point.
3. **Fence** — each participant's WAL gets its normal ``'C'`` boundary.
   A crash between decide and fence is repaired at recovery: the
   meta-WAL says *commit*, so the prepared group is fenced then.

Recovery therefore always lands on an all-shards-consistent state equal
to either the full commit or the full rollback of every in-flight
transaction — the crash matrix in ``tests/test_sharding.py`` sweeps
every window.  The *epoch* in the prepare record is the store
incarnation: a fresh meta-WAL picks an epoch above any found in stale
prepare records, so leftovers from a discarded meta-WAL can never be
mistaken for a current transaction.
"""

from __future__ import annotations

import heapq
import os
import re
import shutil
import struct
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple)

from repro.errors import PersistenceError, TransactionError, TripleNotFoundError
from repro.triples.namespaces import NamespaceRegistry
from repro.triples.persistence import _atomic_write
from repro.triples.store import AtomicListener, ChangeListener, TripleStore
from repro.triples.triple import Literal, Node, Resource, Triple
from repro.triples.wal import (WAL_FILE, Durability, PrepareInfo,
                               RecoveryResult, _frame, encode_commit,
                               recover, scan_wal)

META_FILE = "meta.wal"
META_MAGIC = b"SLIMMETA"
SHARD_DIR_FMT = "shard-%03d"
_SHARD_DIR_RE = re.compile(r"^shard-(\d{3})$")

_FRAME = struct.Struct(">II")
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")

#: Below this many triples, a sharded ``add_all`` applies per-shard groups
#: inline — pool dispatch overhead would outweigh any fsync/CPU overlap.
_PARALLEL_MIN = 512


def shard_of(uri: str, shard_count: int) -> int:
    """The shard index owning subject *uri*: ``crc32(uri) % shard_count``.

    CRC-32 (not the salted builtin ``hash``) keeps routing stable across
    processes, so a durable directory reopens onto the same layout.
    """
    return zlib.crc32(uri.encode("utf-8", "surrogatepass")) % shard_count


#: Slots allocated per shard when a map is first laid out.  The slot
#: table is the unit of migration: growing from N to M shards reassigns
#: whole slots, so N*64 slots support growth to 64x the original count
#: before a table rebuild (offline split) is needed.
SLOTS_PER_SHARD = 64


class ShardMap:
    """A versioned slot table mapping subject hashes to shard indices.

    Routing is ``slots[crc32(uri) % len(slots)]``.  Version 1 lays the
    table out as ``slots[i] = i % N`` over ``N * SLOTS_PER_SHARD``
    slots, which makes it *exactly* equivalent to the legacy
    ``crc32(uri) % N`` routing (``N`` divides the slot count), so
    directories written before maps existed route identically under
    their implicit version-1 map.  :meth:`rebalanced` produces the
    next version, reassigning the minimum number of slots needed to
    level the table over a new shard count — resharding moves only the
    subjects whose slot changed owner.
    """

    __slots__ = ("version", "slots", "shard_count")

    def __init__(self, version: int, slots: Tuple[int, ...],
                 shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if len(slots) < shard_count:
            raise ValueError("slot table smaller than shard count")
        self.version = version
        self.slots = tuple(slots)
        self.shard_count = shard_count

    @classmethod
    def initial(cls, shard_count: int) -> "ShardMap":
        """The version-1 map: legacy ``crc32 % N`` parity by layout."""
        slots = tuple(i % shard_count
                      for i in range(shard_count * SLOTS_PER_SHARD))
        return cls(1, slots, shard_count)

    def slot_of(self, uri: str) -> int:
        """Which slot the subject hash lands in."""
        return zlib.crc32(uri.encode("utf-8", "surrogatepass")) \
            % len(self.slots)

    def shard_for_uri(self, uri: str) -> int:
        """The shard index owning subject *uri* under this map."""
        return self.slots[self.slot_of(uri)]

    def rebalanced(self, new_count: int) -> "ShardMap":
        """The next-version map levelled over *new_count* shards.

        Deterministic and movement-minimal: every shard keeps as many of
        its current slots as its new target size allows; only the excess
        (and any slot pointing past the new count, when shrinking) is
        reassigned, in slot order, to the under-target shards.
        """
        n_slots = len(self.slots)
        if not 1 <= new_count <= n_slots:
            raise ValueError(
                f"new shard count must be in 1..{n_slots} for this slot "
                f"table (rebuild it with an offline split to go higher)")
        base, extra = divmod(n_slots, new_count)
        target = [base + (1 if i < extra else 0) for i in range(new_count)]
        slots = list(self.slots)
        counts = [0] * new_count
        excess: List[int] = []
        for slot, owner in enumerate(slots):
            if owner < new_count and counts[owner] < target[owner]:
                counts[owner] += 1
            else:
                excess.append(slot)
        moves = iter(excess)
        for shard in range(new_count):
            while counts[shard] < target[shard]:
                slots[next(moves)] = shard
                counts[shard] += 1
        return ShardMap(self.version + 1, tuple(slots), new_count)

    def diff(self, other: "ShardMap") -> Dict[int, Tuple[int, int]]:
        """``{slot: (from_shard, to_shard)}`` for slots that change owner."""
        return {slot: (mine, theirs)
                for slot, (mine, theirs)
                in enumerate(zip(self.slots, other.slots))
                if mine != theirs}

    def encode(self) -> bytes:
        """The meta-WAL ``'M'`` record payload for this map."""
        return (b"M" + _U64.pack(self.version) + _U32.pack(self.shard_count)
                + _U32.pack(len(self.slots))
                + struct.pack(">%dH" % len(self.slots), *self.slots))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ShardMap)
                and self.version == other.version
                and self.shard_count == other.shard_count
                and self.slots == other.slots)

    def __repr__(self) -> str:
        return (f"ShardMap(version={self.version}, "
                f"shards={self.shard_count}, slots={len(self.slots)})")


class MigrationPlan(NamedTuple):
    """A persisted migration intent (the meta-WAL ``'G'`` record)."""

    target_version: int            #: map version the migration installs
    target_count: int              #: shard count after the migration
    moves: Dict[int, Tuple[int, int]]  #: slot -> (donor, recipient)

    def target_map(self, current: ShardMap) -> ShardMap:
        """The map this migration installs, reconstructed from *current*."""
        slots = list(current.slots)
        for slot, (_, to) in self.moves.items():
            slots[slot] = to
        return ShardMap(self.target_version, tuple(slots), self.target_count)

    def encode(self) -> bytes:
        """The meta-WAL ``'G'`` record payload for this plan."""
        out = [b"G", _U64.pack(self.target_version),
               _U32.pack(self.target_count), _U32.pack(len(self.moves))]
        for slot in sorted(self.moves):
            frm, to = self.moves[slot]
            out.append(_U32.pack(slot) + _U32.pack(frm) + _U32.pack(to))
        return b"".join(out)


class _ActiveMigration:
    """In-memory routing state while a migration drains.

    ``moves`` is the slot reassignment being applied; ``moved`` holds
    the subject URIs whose triples already live on their recipient
    shard.  A subject in a migrating slot routes to the donor until its
    URI enters ``moved``, then to the recipient — the flip happens
    while both shards' store locks are held, so lock-validated writers
    never straddle it.
    """

    __slots__ = ("target", "moves", "moved")

    def __init__(self, target: ShardMap,
                 moves: Dict[int, Tuple[int, int]]) -> None:
        self.target = target
        self.moves = dict(moves)
        self.moved: Set[str] = set()


class SimulatedCrash(BaseException):
    """Raised by test crash hooks to kill a 2PC mid-protocol.

    Derives from :class:`BaseException` so the coordinator's abort
    handling (which catches ``Exception``-level failures and rolls
    prepared shards back) does not treat a simulated kill as a live
    failure — a real crash gets no cleanup either.
    """


class ShardedBulkLoad:
    """Context manager bracketing a bulk load across every shard.

    Entering opens each shard's deferred-indexing bulk; a clean exit
    flushes them all (and fires the sharded store's atomic listeners at
    depth zero); an exception aborts every shard's still-pending inserts.
    Same contract as :class:`~repro.triples.store.BulkLoad`, shard-wide.
    """

    __slots__ = ("_store",)

    def __init__(self, store: "ShardedTripleStore") -> None:
        self._store = store

    def __enter__(self) -> "ShardedTripleStore":
        self._store._begin_bulk()
        return self._store

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._store._end_bulk()
        else:
            self._store._abort_bulk()
        return False


class ShardedTripleStore:
    """N hash-partitioned stores behind the single-store API.

    *shards* fixes the partition count (it also fixes the on-disk layout
    under :class:`ShardedDurability` — reopening a directory with a
    different count is rejected).  *store_factory* picks the per-shard
    implementation (:class:`~repro.triples.store.TripleStore` or
    :class:`~repro.triples.interned.InternedTripleStore` — both honour
    the contract the parity suite pins).  *concurrent* is forwarded to
    every shard.

    Mutations route by subject; reads either route (subject bound) or
    scatter-gather with a sequence-merge.  Change listeners subscribe at
    the sharded level and receive the union of every shard's events with
    their global sequence numbers.  The store-level lock only guards the
    global sequence counter and listener bookkeeping — per-shard locks
    serialize actual index mutation, which is what lets ingest fan out.
    """

    def __init__(self, shards: int = 4, concurrent: bool = False,
                 store_factory: Callable[..., TripleStore] = TripleStore,
                 max_workers: Optional[int] = None,
                 shard_map: Optional[ShardMap] = None) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if shard_map is not None and shard_map.shard_count > shards:
            raise ValueError(
                f"shard map routes to {shard_map.shard_count} shard(s) but "
                f"only {shards} were created")
        self._shards: List[TripleStore] = [
            store_factory(concurrent=concurrent) for _ in range(shards)]
        self._map = shard_map if shard_map is not None \
            else ShardMap.initial(shards)
        self._migration: Optional[_ActiveMigration] = None
        self._store_factory = store_factory
        self.concurrent = concurrent
        self._lock = threading.RLock()
        self._sequence = 0
        self._listeners: List[ChangeListener] = []
        self._forwarding = False
        self._atomic_depth = 0
        self._atomic_listeners: List[AtomicListener] = []
        self._in_bulk = False
        self._bulk_owner: Optional[int] = None
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # -- topology -------------------------------------------------------------

    @property
    def shards(self) -> Tuple[TripleStore, ...]:
        """The per-shard stores, in shard-index order."""
        return tuple(self._shards)

    @property
    def shard_count(self) -> int:
        """How many shards partition this store."""
        return len(self._shards)

    @property
    def shard_map(self) -> ShardMap:
        """The versioned slot table routing subjects to shards."""
        return self._map

    @property
    def map_version(self) -> int:
        """The current shard-map version (bumps on every reshard)."""
        return self._map.version

    @property
    def migration_active(self) -> bool:
        """Whether a reshard migration is currently draining."""
        return self._migration is not None

    def _route_uri(self, uri: str) -> int:
        """The shard index owning *uri* right now.

        Reads ``_migration`` *before* ``_map`` so lock-free readers stay
        correct across a finalize (which installs the new map first,
        then clears the migration): seeing the new map with the old
        migration routes moved subjects to their recipients; seeing
        neither update routes by the still-valid old state.
        """
        mig = self._migration
        m = self._map
        slot = zlib.crc32(uri.encode("utf-8", "surrogatepass")) \
            % len(m.slots)
        if mig is not None:
            move = mig.moves.get(slot)
            if move is not None:
                return move[1] if uri in mig.moved else move[0]
        return m.slots[slot]

    def shard_index(self, subject: Resource) -> int:
        """Which shard owns triples with this subject."""
        return self._route_uri(subject.uri)

    def shard_for(self, subject: Resource) -> TripleStore:
        """The shard store owning triples with this subject."""
        return self._shards[self._route_uri(subject.uri)]

    def _acquire_shard(self, uri: str) -> TripleStore:
        """Acquire and return the owning shard's lock, route-validated.

        Any routing change for *uri* (a migration moving its subject, or
        a finalize swapping the map) happens while its owning shard's
        store lock is held, so re-checking the route under the lock
        closes the window where a writer lands a triple on a shard the
        map no longer points at.  Caller must release ``shard._lock``.
        """
        while True:
            shard = self._shards[self._route_uri(uri)]
            shard._lock.acquire()
            if self._shards[self._route_uri(uri)] is shard:
                return shard
            shard._lock.release()

    def _route_read(self, subject: Resource
                    ) -> Tuple[TripleStore, Optional[TripleStore]]:
        """(primary, secondary) shards for a lock-free subject read.

        Outside a migration the secondary is ``None``.  While the
        subject's slot is migrating, both the donor and the recipient
        are returned — mid-move, a subject's triples are guaranteed to
        be present on at least one of them (inserted on the recipient
        before being removed from the donor), so merging the two with
        sequence-dedup never misses and never double-counts.
        """
        mig = self._migration
        m = self._map
        uri = subject.uri
        slot = zlib.crc32(uri.encode("utf-8", "surrogatepass")) \
            % len(m.slots)
        if mig is not None:
            move = mig.moves.get(slot)
            if move is not None:
                return self._shards[move[0]], self._shards[move[1]]
        return self._shards[m.slots[slot]], None

    def route(self, subject: Optional[Resource] = None,
              property: Optional[Resource] = None,
              value: Optional[Node] = None) -> Tuple[str, int]:
        """How a selection would be executed: ``('single', shard_index)``
        for subject-bound probes, ``('scatter', shard_count)`` otherwise.
        Surfaced for tests, ``explain`` output, and the routing docs."""
        if subject is not None:
            return ("single", self.shard_index(subject))
        return ("scatter", len(self._shards))

    # -- thread pool (ingest fan-out) ----------------------------------------

    def _get_pool(self) -> Optional[ThreadPoolExecutor]:
        if len(self._shards) == 1:
            return None
        with self._pool_lock:
            if self._pool is None:
                workers = self._max_workers or len(self._shards)
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="slim-shard")
            return self._pool

    def close(self, wait: bool = True) -> None:
        """Shut the ingest fan-out pool down (idempotent).

        The shards themselves hold no OS resources; durability handles
        are closed by their owners (:class:`ShardedDurability`).
        ``wait=False`` skips joining the worker threads — finalizers must
        use it, because a join inside ``__del__`` can deadlock when GC
        fires on a thread that is mid-bootstrap and already holds
        CPython's ``_shutdown_locks_lock``, which ``Thread._stop``
        (reached via the join) then re-acquires.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __del__(self) -> None:
        try:
            self.close(wait=False)
        except BaseException:
            pass

    # -- locking / atomic scopes ---------------------------------------------

    @property
    def lock(self) -> "threading.RLock":
        """The store-level lock (sequence counter + listener bookkeeping).

        This does **not** freeze the shards; multi-step consistent reads
        against one shard should hold that shard's own ``lock``.
        """
        return self._lock

    @property
    def in_atomic(self) -> bool:
        """Whether an atomic scope (bulk load or Batch) is open."""
        return self._atomic_depth > 0

    def begin_atomic(self) -> None:
        """Open an atomic scope on the sharded store (scopes nest)."""
        with self._lock:
            self._atomic_depth += 1

    def end_atomic(self) -> None:
        """Close one atomic scope; fire atomic listeners at depth zero."""
        with self._lock:
            if self._atomic_depth <= 0:
                raise TransactionError("no atomic scope to end")
            self._atomic_depth -= 1
            fire = self._atomic_depth == 0
        if fire:
            for listener in list(self._atomic_listeners):
                listener()

    def add_atomic_listener(self, listener: AtomicListener) -> Callable[[], None]:
        """Register a callback for outermost atomic-scope exit
        (same contract as the single store's)."""
        with self._lock:
            self._atomic_listeners.append(listener)

        def unsubscribe() -> None:
            with self._lock:
                if listener in self._atomic_listeners:
                    self._atomic_listeners.remove(listener)

        return unsubscribe

    # -- bulk loading ---------------------------------------------------------

    def bulk(self) -> ShardedBulkLoad:
        """A deferred-indexing ingest across all shards."""
        return ShardedBulkLoad(self)

    @property
    def in_bulk(self) -> bool:
        """Whether a sharded bulk load is currently active."""
        return self._in_bulk

    def _begin_bulk(self) -> None:
        with self._lock:
            if self._in_bulk:
                raise TransactionError("bulk load already active on this store")
            self._in_bulk = True
            self._bulk_owner = threading.get_ident()
            self._atomic_depth += 1
        entered: List[TripleStore] = []
        try:
            for shard in self._shards:
                shard._begin_bulk()
                entered.append(shard)
        except BaseException:
            for shard in entered:
                shard._abort_bulk()
            with self._lock:
                self._in_bulk = False
                self._bulk_owner = None
                self._atomic_depth -= 1
            raise

    def _end_bulk(self) -> None:
        for shard in self._shards:
            shard._end_bulk()
        self._finish_bulk()

    def _abort_bulk(self) -> None:
        for shard in self._shards:
            shard._abort_bulk()
        self._finish_bulk()

    def _finish_bulk(self) -> None:
        with self._lock:
            self._in_bulk = False
            self._bulk_owner = None
            self._atomic_depth -= 1
            fire = self._atomic_depth == 0
        if fire:
            for listener in list(self._atomic_listeners):
                listener()

    # -- mutation -------------------------------------------------------------

    def _next_sequence(self) -> int:
        with self._lock:
            sequence = self._sequence
            self._sequence += 1
            return sequence

    def add(self, triple: Triple) -> bool:
        """Insert *triple* on its subject's shard; ``True`` when new.

        The triple enters the shard with a globally allocated sequence
        number, so cross-shard ordering stays total.  A duplicate insert
        leaves an unused sequence behind — harmless, ordering only needs
        monotonicity, never density.

        The sequence is allocated *under the shard's lock* (an RLock, so
        the nested :meth:`TripleStore.restore` re-enters it) — racing
        writers on one shard then hand their sequences over in allocation
        order, keeping every shard's tail append-only.  Allocating first
        and inserting second would let a later sequence land before an
        earlier one and trip restore's below-tail O(n log n) rebuild on
        every race.
        """
        shard = self._acquire_shard(triple.subject.uri)
        try:
            sequence = self._next_sequence()
            return shard.restore(triple, sequence)
        finally:
            shard._lock.release()

    def restore(self, triple: Triple, sequence: int) -> bool:
        """Insert *triple* at an explicit global sequence position
        (undo/rollback/WAL replay; see :meth:`TripleStore.restore`)."""
        with self._lock:
            self._sequence = max(self._sequence, sequence + 1)
        shard = self._acquire_shard(triple.subject.uri)
        try:
            return shard.restore(triple, sequence)
        finally:
            shard._lock.release()

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; return how many were new.

        Routing happens in one pass that also allocates the global
        sequence block; the per-shard groups are then applied through
        each shard's own fast path.  Large batches fan the per-shard
        groups out across the ingest thread pool, so one shard's WAL and
        index work overlaps another's — inside a :meth:`bulk` load each
        group is a pending-buffer append riding the deferred-index path.
        """
        count = len(self._shards)
        routed_map = self._map
        groups: List[List[Tuple[Triple, int]]] = [[] for _ in range(count)]
        total = 0
        with self._lock:
            sequence = self._sequence
            for t in triples:
                groups[self._route_uri(t.subject.uri)].append((t, sequence))
                sequence += 1
                total += 1
            self._sequence = sequence
        busy = [(self._shards[i], group)
                for i, group in enumerate(groups) if group]
        pool = self._get_pool() if total >= _PARALLEL_MIN else None
        if pool is None or len(busy) < 2:
            return sum(self._apply_group(shard, group, routed_map)
                       for shard, group in busy)
        futures = [pool.submit(self._apply_group, shard, group, routed_map)
                   for shard, group in busy]
        return sum(f.result() for f in futures)

    def _apply_group(self, shard: TripleStore,
                     group: List[Tuple[Triple, int]],
                     routed_map: ShardMap) -> int:
        added = 0
        for i, (t, sequence) in enumerate(group):
            # The group was routed in one pass; a migration starting (or
            # finalizing) since then can invalidate those routes, so the
            # moment one is detected the rest of the group re-routes
            # per-triple under lock validation.  Triples already landed
            # on a now-donor shard are swept up by the drain loop, which
            # only finalizes once every donor is verifiably empty.
            if self._migration is not None or self._map is not routed_map:
                for t2, seq2 in group[i:]:
                    added += self._routed_restore(t2, seq2)
                return added
            if shard.restore(t, sequence):
                added += 1
        return added

    def _routed_restore(self, triple: Triple, sequence: int) -> int:
        shard = self._acquire_shard(triple.subject.uri)
        try:
            return 1 if shard.restore(triple, sequence) else 0
        finally:
            shard._lock.release()

    def remove(self, triple: Triple) -> None:
        """Delete *triple*; raise :class:`TripleNotFoundError` if absent."""
        shard = self._acquire_shard(triple.subject.uri)
        try:
            shard.remove(triple)
        finally:
            shard._lock.release()

    def discard(self, triple: Triple) -> bool:
        """Delete *triple* if present; return whether it was."""
        shard = self._acquire_shard(triple.subject.uri)
        try:
            return shard.discard(triple)
        finally:
            shard._lock.release()

    def remove_matching(self, subject: Optional[Resource] = None,
                        property: Optional[Resource] = None,
                        value: Optional[Node] = None) -> int:
        """Delete every matching triple; subject-bound removals touch one
        shard, the rest sweep all shards.  Returns the total count."""
        if subject is not None:
            shard = self._acquire_shard(subject.uri)
            try:
                return shard.remove_matching(subject, property, value)
            finally:
                shard._lock.release()
        return sum(shard.remove_matching(subject, property, value)
                   for shard in self._shards)

    def clear(self) -> None:
        """Delete every triple on every shard (listeners see each removal)."""
        for shard in self._shards:
            shard.clear()

    # -- selection ------------------------------------------------------------

    def match(self, subject: Optional[Resource] = None,
              property: Optional[Resource] = None,
              value: Optional[Node] = None) -> Iterator[Triple]:
        """Yield matching triples: routed to one shard when the subject is
        fixed, scatter-gathered (shard-index order) otherwise.

        While a migration drains, a migrating subject's triples may
        transiently exist on both its donor and recipient shard, so
        those probes (and the scatter sweep) dedup before yielding."""
        if subject is not None:
            primary, secondary = self._route_read(subject)
            if secondary is None:
                yield from primary.match(subject, property, value)
                return
            seen = set()
            for shard in (primary, secondary):
                for t in shard.match(subject, property, value):
                    if t not in seen:
                        seen.add(t)
                        yield t
            return
        # Scatter.  The shard list is visited in index order; growth
        # migrations only move subjects donor -> higher-index recipient,
        # so a subject moved mid-sweep is either deduped (read on its
        # donor first) or picked up on its recipient later — never lost.
        # ``seen`` records every yield so dedup stays correct even when
        # a migration begins mid-sweep.
        version = self._map.version
        careful = self._migration is not None
        seen: Set[Triple] = set()
        for shard in self._shards:
            careful = (careful or self._migration is not None
                       or self._map.version != version)
            hits: Optional[List[Triple]] = None
            if careful:
                with shard._lock:
                    hits = list(shard.match(subject, property, value))
            else:
                try:
                    for t in shard.match(subject, property, value):
                        if t not in seen:
                            seen.add(t)
                            yield t
                    continue
                except RuntimeError:
                    # A migration started under us and moved a subject
                    # out of this shard's indexes mid-iteration; re-read
                    # the shard consistently under its lock (everything
                    # already yielded from it is in ``seen``).
                    careful = True
                    with shard._lock:
                        hits = list(shard.match(subject, property, value))
            for t in hits:
                if t not in seen:
                    seen.add(t)
                    yield t

    def select(self, subject: Optional[Resource] = None,
               property: Optional[Resource] = None,
               value: Optional[Node] = None) -> List[Triple]:
        """Matching triples in global insertion order.

        Subject-bound selections are a single shard's (already globally
        ordered) result; scatter-gather merges the per-shard sorted runs
        by sequence number — k sorted runs, O(n log k), no full re-sort.
        Mid-migration duplicates (a subject present on its donor and its
        recipient) collapse in the merge: both copies carry the same
        global sequence number.
        """
        if subject is not None:
            primary, secondary = self._route_read(subject)
            hits = primary.select(subject, property, value)
            if secondary is not None:
                present = set(hits)
                extra = [t for t in secondary.select(subject, property, value)
                         if t not in present]
                if extra:
                    if hits:
                        hits = hits + extra
                        hits.sort(key=lambda t: max(
                            self._sequence_or(primary, t),
                            self._sequence_or(secondary, t)))
                    else:
                        hits = extra
            return hits
        runs: List[List[Tuple[int, Triple]]] = []
        for shard in self._shards:
            if self._migration is not None:
                with shard._lock:
                    hits = shard.select(subject, property, value)
                    run = [(self._sequence_or(shard, t), t) for t in hits]
            else:
                try:
                    hits = shard.select(subject, property, value)
                except RuntimeError:   # migration moved a subject mid-read
                    with shard._lock:
                        hits = shard.select(subject, property, value)
                run = [(self._sequence_or(shard, t), t) for t in hits]
            if run:
                runs.append(run)
        if not runs:
            return []
        if len(runs) == 1:
            return [t for _, t in runs[0]]
        return self._merge_runs(runs)

    @staticmethod
    def _merge_runs(runs: List[List[Tuple[int, Triple]]]) -> List[Triple]:
        """Merge per-shard (sequence, triple) runs, dropping mid-move
        duplicates (same triple, same sequence, two shards)."""
        out: List[Triple] = []
        last_seq = -1
        last_t: Optional[Triple] = None
        for seq, t in heapq.merge(*runs, key=lambda item: item[0]):
            if seq == last_seq and t == last_t:
                continue
            out.append(t)
            last_seq, last_t = seq, t
        return out

    @staticmethod
    def _sequence_or(shard: TripleStore, triple: Triple) -> int:
        # A racing removal can drop a hit between the shard's select and
        # this lookup (concurrent mode); order it first, as the plain
        # store's concurrent select does, rather than raise.
        try:
            return shard.sequence_of(triple)
        except TripleNotFoundError:
            return -1

    def one(self, subject: Optional[Resource] = None,
            property: Optional[Resource] = None,
            value: Optional[Node] = None) -> Optional[Triple]:
        """The single matching triple, ``None`` if none; raises
        :class:`LookupError` when more than one matches."""
        found: Optional[Triple] = None
        for triple in self.match(subject, property, value):
            if found is not None:
                raise LookupError(
                    f"expected at most one triple for "
                    f"({subject}, {property}, {value})")
            found = triple
        return found

    def value_of(self, subject: Resource, property: Resource) -> Optional[Node]:
        """The value of a single-valued property, or ``None``."""
        hit = self.one(subject=subject, property=property)
        return None if hit is None else hit.value

    def literal_of(self, subject: Resource, property: Resource):
        """The Python value of a single-valued literal property, or ``None``."""
        node = self.value_of(subject, property)
        if node is None:
            return None
        if not isinstance(node, Literal):
            raise LookupError(
                f"{subject} {property} holds a resource, not a literal")
        return node.value

    def values_of(self, subject: Resource, property: Resource) -> List[Node]:
        """All values of a property on *subject*, in insertion order."""
        return [t.value for t in self.select(subject=subject,
                                             property=property)]

    # -- statistics (read by the query planner) -------------------------------

    @property
    def generation(self) -> int:
        """Sum of the shard generations: bumps on every mutation anywhere,
        so view caches keyed on it stay exactly as safe as before."""
        return sum(shard.generation for shard in self._shards)

    def generation_of(self, subject: Resource) -> int:
        """The owning shard's generation counter — the invalidation token
        for subject-routed reads.  A write to any *other* shard leaves it
        untouched, so caches keyed on it survive unrelated traffic; a 2PC
        multi-shard commit bumps exactly the written shards' counters.
        Mid-migration, a migrating subject stamps with the *sum* of its
        donor's and recipient's counters — it changes when either side
        does, so cache entries can never go stale across the move."""
        primary, secondary = self._route_read(subject)
        if secondary is None:
            return primary.generation_of(subject)
        return (primary.generation_of(subject)
                + secondary.generation_of(subject))

    @property
    def generation_vector(self) -> Tuple[int, ...]:
        """Per-shard generation counters, in shard order.

        The stamp for unbound (scatter-gather) reads: any write anywhere
        changes one slot, invalidating exactly the entries whose answer
        could have changed.  Each slot goes through its shard's read
        barrier, so a bulk owner reading the vector flushes first.
        """
        return tuple(shard.generation_of() for shard in self._shards)

    @property
    def sequence_ceiling(self) -> int:
        """The next global insertion-sequence number."""
        return self._sequence

    def count(self, subject: Optional[Resource] = None,
              property: Optional[Resource] = None,
              value: Optional[Node] = None) -> int:
        """Matching-triple count: one shard's exact bucket size when the
        subject is bound, the sum over shards otherwise — which is what
        makes per-shard statistics feed a *global* selectivity estimate
        for the planner without any planner changes."""
        if subject is not None:
            primary, secondary = self._route_read(subject)
            if secondary is None:
                return primary.count(subject, property, value)
            # Mid-move both shards may hold copies; the deduped select
            # is the exact answer (migration windows are bounded).
            return len(self.select(subject, property, value))
        return sum(shard.count(subject, property, value)
                   for shard in self._shards)

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        if self._migration is None:
            return sum(len(shard) for shard in self._shards)
        return sum(1 for _ in self)

    def __contains__(self, triple: Triple) -> bool:
        primary, secondary = self._route_read(triple.subject)
        if triple in primary:
            return True
        return secondary is not None and triple in secondary

    def _merged_items(self) -> Iterator[Tuple[int, Triple]]:
        runs = []
        for shard in self._shards:
            if self._migration is not None:
                with shard._lock:
                    items = [(self._sequence_or(shard, t), t) for t in shard]
            else:
                try:
                    items = [(self._sequence_or(shard, t), t) for t in shard]
                except RuntimeError:   # migration moved a subject mid-read
                    with shard._lock:
                        items = [(self._sequence_or(shard, t), t)
                                 for t in shard]
            if items:
                runs.append(items)
        # Keyed merge: mid-migration a moved triple can appear in two
        # runs with the same sequence, and equal bare tuples would try
        # to order the triples themselves.
        last_seq = -1
        last_t: Optional[Triple] = None
        for seq, t in heapq.merge(*runs, key=lambda item: item[0]):
            if seq == last_seq and t == last_t:
                continue
            yield seq, t
            last_seq, last_t = seq, t

    def __iter__(self) -> Iterator[Triple]:
        return (t for _, t in self._merged_items())

    def sequence_of(self, triple: Triple) -> int:
        """The global insertion-sequence number of a present triple."""
        primary, secondary = self._route_read(triple.subject)
        try:
            return primary.sequence_of(triple)
        except TripleNotFoundError:
            if secondary is None:
                raise
            return secondary.sequence_of(triple)

    def subjects(self) -> List[Resource]:
        """Distinct subjects, in first-appearance (global) order."""
        seen: Dict[Resource, None] = {}
        for triple in self:
            seen.setdefault(triple.subject, None)
        return list(seen)

    def properties(self) -> List[Resource]:
        """Distinct properties, in first-appearance (global) order."""
        seen: Dict[Resource, None] = {}
        for triple in self:
            seen.setdefault(triple.property, None)
        return list(seen)

    def resources(self) -> List[Resource]:
        """Every resource mentioned anywhere, first-appearance order."""
        seen: Dict[Resource, None] = {}
        for triple in self:
            seen.setdefault(triple.subject, None)
            seen.setdefault(triple.property, None)
            if isinstance(triple.value, Resource):
                seen.setdefault(triple.value, None)
        return list(seen)

    def estimated_bytes(self) -> int:
        """Rough in-memory footprint: sum of the shard estimates."""
        return sum(shard.estimated_bytes() for shard in self._shards)

    # -- listeners ------------------------------------------------------------

    def add_listener(self, listener: ChangeListener) -> Callable[[], None]:
        """Register a change listener for events from *every* shard.

        Forwarding taps onto the shard stores attach lazily on the first
        subscription, so an unobserved sharded store pays no per-mutation
        fan-out cost.  Sequence numbers in events are global.
        """
        with self._lock:
            if not self._forwarding:
                self._forwarding = True
                for shard in self._shards:
                    shard.add_listener(self._forward)
            self._listeners.append(listener)

        def unsubscribe() -> None:
            with self._lock:
                if listener in self._listeners:
                    self._listeners.remove(listener)

        return unsubscribe

    def _forward(self, action: str, triple: Triple, sequence: int) -> None:
        for listener in list(self._listeners):
            listener(action, triple, sequence)

    # -- recovery support -----------------------------------------------------

    def _resync_sequence(self) -> None:
        """Advance the global counter past every shard's ceiling —
        required after recovery loads shards with logged sequences."""
        with self._lock:
            ceiling = max((shard.sequence_ceiling for shard in self._shards),
                          default=0)
            self._sequence = max(self._sequence, ceiling)

    # -- resharding (live migration) ------------------------------------------

    def _install_map(self, shard_map: ShardMap,
                     migration: Optional[_ActiveMigration] = None) -> None:
        """Adopt a persisted map (and open migration) — recovery path."""
        if shard_map.shard_count > len(self._shards):
            raise ValueError(
                f"map routes to {shard_map.shard_count} shard(s), store has "
                f"{len(self._shards)}")
        self._map = shard_map
        self._migration = migration

    def _grow_shards(self, new_total: int) -> None:
        """Append fresh (empty) shards up to *new_total*.

        New shards join the forwarding fan-out immediately; the ingest
        pool is retired so the next fan-out sizes itself to the new
        count.  Routing is untouched — nothing points at the new shards
        until a migration (or a map install) says so.
        """
        with self._lock:
            while len(self._shards) < new_total:
                shard = self._store_factory(concurrent=self.concurrent)
                if self._forwarding:
                    shard.add_listener(self._forward)
                self._shards.append(shard)
        self.close(wait=True)

    def _begin_migration(self, target: ShardMap,
                         moves: Dict[int, Tuple[int, int]]
                         ) -> _ActiveMigration:
        """Install migration routing state.  Routing is initially
        unchanged (every migrating slot still routes to its donor), so a
        plain assignment is enough — no locks needed."""
        if self._migration is not None:
            raise TransactionError("a shard migration is already active")
        if target.shard_count > len(self._shards):
            raise ValueError("grow the shard list before migrating onto it")
        migration = _ActiveMigration(target, moves)
        self._migration = migration
        return migration

    def _migration_pending(self, limit: int) -> Dict[Tuple[int, int],
                                                     List[str]]:
        """Up to *limit* subject URIs still on their donor shards,
        grouped by (donor, recipient) pair.  Empty when drained."""
        mig = self._migration
        if mig is None:
            return {}
        donors: Dict[int, Dict[int, int]] = {}
        for slot, (frm, to) in mig.moves.items():
            donors.setdefault(frm, {})[slot] = to
        out: Dict[Tuple[int, int], List[str]] = {}
        n = 0
        for frm, slot_map in sorted(donors.items()):
            donor = self._shards[frm]
            with donor._lock:
                subjects = list(donor._by_subject.keys())
            for subject in subjects:
                uri = subject.uri
                to = slot_map.get(self._map.slot_of(uri))
                if to is None:
                    continue
                out.setdefault((frm, to), []).append(uri)
                n += 1
                if n >= limit:
                    return out
        return out

    def _move_subjects_locked(self, frm: int, to: int,
                              uris: List[str]) -> int:
        """Move the given subjects' triples donor -> recipient.

        Caller holds **both** shards' store locks.  Per subject: insert
        every triple on the recipient (original sequences, so global
        order survives), flip the subject's route, then remove from the
        donor — lock-free readers see the subject on at least one side
        at every instant.  Returns how many subjects moved triples.
        """
        mig = self._migration
        if mig is None:
            raise TransactionError("no active migration")
        donor, recipient = self._shards[frm], self._shards[to]
        moved = 0
        for uri in uris:
            subject = Resource(uri)
            hits = donor.select(subject=subject)
            if not hits:
                mig.moved.add(uri)
                continue
            pairs = [(t, donor.sequence_of(t)) for t in hits]
            recipient.restore_all(pairs)
            mig.moved.add(uri)
            for t, _ in pairs:
                donor.discard(t)
            moved += 1
        return moved

    def _migration_drained_locked(self) -> bool:
        """Whether every donor is empty of migrating subjects.

        Caller holds every shard's store lock.  Checks both the indexed
        membership and any bulk-pending buffers — pending inserts are
        invisible to the drain loop, so finalizing past them would
        strand their flush on a de-routed shard.
        """
        mig = self._migration
        if mig is None:
            return True
        donors: Dict[int, Set[int]] = {}
        for slot, (frm, _) in mig.moves.items():
            donors.setdefault(frm, set()).add(slot)
        for frm, slots in donors.items():
            donor = self._shards[frm]
            for subject in donor._by_subject:
                if self._map.slot_of(subject.uri) in slots \
                        and donor._by_subject.get(subject):
                    return False
            if donor._pending is not None:
                for t, _ in donor._pending:
                    if self._map.slot_of(t.subject.uri) in slots:
                        return False
        return True

    def _try_finish_migration(self) -> bool:
        """Finalize if every donor is drained: swap the map in, clear the
        migration.  Holds every shard lock so no writer can race the
        cutover; returns ``False`` (caller keeps draining) otherwise."""
        with self._lock:
            locks = [shard._lock for shard in self._shards]
        for lock in locks:
            lock.acquire()
        try:
            mig = self._migration
            if mig is None:
                return True
            if not self._migration_drained_locked():
                return False
            # Map first, then migration: lock-free readers load the
            # migration before the map (see _route_uri), so either
            # snapshot they observe routes moved subjects correctly.
            self._map = mig.target
            self._migration = None
            return True
        finally:
            for lock in reversed(locks):
                lock.release()

    def reshard(self, new_count: int, batch_subjects: int = 256) -> int:
        """Grow (or shrink) the in-memory partition count live.

        Produces the rebalanced next-version map, migrates affected
        subjects in bounded batches (readers and writers keep running —
        writers re-validate routes under shard locks, readers follow
        moved subjects through the migration state), then swaps the new
        map in.  Returns the new map version.

        Durable stores must go through
        :meth:`ShardedDurability.reshard` (via
        :meth:`TrimManager.reshard`) so the migration rides the 2PC
        machinery; calling this on a store with durability attached
        raises.
        """
        if getattr(self, "_durability_attached", False):
            raise TransactionError(
                "this store is durable — use TrimManager.reshard() / "
                "ShardedDurability.reshard() so the migration is "
                "crash-consistent")
        if self._in_bulk:
            raise TransactionError("cannot reshard during a bulk load")
        target = self._map.rebalanced(new_count)
        moves = self._map.diff(target)
        if new_count > len(self._shards):
            self._grow_shards(new_count)
        self._begin_migration(target, moves)
        while True:
            batch = self._migration_pending(batch_subjects)
            if not batch:
                if self._try_finish_migration():
                    break
                time.sleep(0.001)
                continue
            for (frm, to), uris in batch.items():
                first, second = sorted((frm, to))
                with self._shards[first]._lock, self._shards[second]._lock:
                    self._move_subjects_locked(frm, to, uris)
        return self._map.version


# -- the coordinator meta-WAL -------------------------------------------------

class MetaScan(NamedTuple):
    """Decoded state of a coordinator meta-WAL."""

    epoch: int                  #: store incarnation (0 = no epoch record)
    shard_count: int            #: layout the epoch record pinned
    decisions: Dict[int, bool]  #: txn -> committed?
    finished: Set[int]          #: txns whose every participant is fenced
    txn_floor: int              #: highest txn number ever issued
    valid_end: int              #: offset past the last valid record
    total_bytes: int            #: file size on disk
    map: Optional[ShardMap] = None           #: latest 'M' record, if any
    migration: Optional[MigrationPlan] = None  #: open 'G' record, if any

    def live_shard_count(self) -> int:
        """The shard count the directory is currently laid out for:
        the open migration's target, else the map's count, else the
        legacy epoch-record count."""
        if self.migration is not None:
            return self.migration.target_count
        if self.map is not None:
            return self.map.shard_count
        return self.shard_count


def _scan_meta(path: str) -> MetaScan:
    """Read a meta-WAL, stopping (like :func:`scan_wal`) at the first
    torn or corrupt record.  A missing file scans as empty."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return MetaScan(0, 0, {}, set(), 0, 0, 0)
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    total = len(data)
    if data[:len(META_MAGIC)] != META_MAGIC:
        return MetaScan(0, 0, {}, set(), 0, 0, total)
    epoch = 0
    shard_count = 0
    decisions: Dict[int, bool] = {}
    finished: Set[int] = set()
    txn_floor = 0
    shard_map: Optional[ShardMap] = None
    migration: Optional[MigrationPlan] = None
    offset = len(META_MAGIC)
    valid_end = offset
    while offset + _FRAME.size <= total:
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > total:
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        kind = payload[:1]
        try:
            if kind == b"E" and len(payload) == 1 + 8 + 4 + 8:
                (epoch,) = _U64.unpack_from(payload, 1)
                (shard_count,) = _U32.unpack_from(payload, 9)
                (floor,) = _U64.unpack_from(payload, 13)
                txn_floor = max(txn_floor, floor)
            elif kind == b"T" and len(payload) == 1 + 8 + 1:
                (txn,) = _U64.unpack_from(payload, 1)
                decisions[txn] = payload[9] == 1
                txn_floor = max(txn_floor, txn)
            elif kind == b"F" and len(payload) == 1 + 8:
                (txn,) = _U64.unpack_from(payload, 1)
                finished.add(txn)
            elif kind == b"M" and len(payload) >= 1 + 8 + 4 + 4:
                (version,) = _U64.unpack_from(payload, 1)
                (count,) = _U32.unpack_from(payload, 9)
                (n_slots,) = _U32.unpack_from(payload, 13)
                if len(payload) != 17 + 2 * n_slots:
                    break
                slots = struct.unpack_from(">%dH" % n_slots, payload, 17)
                shard_map = ShardMap(version, slots, count)
                # A map at (or past) an open migration's target version
                # is the migration's durable completion record.
                if migration is not None \
                        and version >= migration.target_version:
                    migration = None
            elif kind == b"G" and len(payload) >= 1 + 8 + 4 + 4:
                (version,) = _U64.unpack_from(payload, 1)
                (count,) = _U32.unpack_from(payload, 9)
                (n_moves,) = _U32.unpack_from(payload, 13)
                if len(payload) != 17 + 12 * n_moves:
                    break
                moves: Dict[int, Tuple[int, int]] = {}
                pos = 17
                for _ in range(n_moves):
                    (slot,) = _U32.unpack_from(payload, pos)
                    (frm,) = _U32.unpack_from(payload, pos + 4)
                    (to,) = _U32.unpack_from(payload, pos + 8)
                    moves[slot] = (frm, to)
                    pos += 12
                migration = MigrationPlan(version, count, moves)
            else:
                break
        except struct.error:
            break
        offset = end
        valid_end = end
    return MetaScan(epoch, shard_count, decisions, finished, txn_floor,
                    valid_end, total, shard_map, migration)


def _meta_header(epoch: int, shard_count: int, txn_floor: int,
                 shard_map: Optional[ShardMap] = None) -> bytes:
    record = (b"E" + _U64.pack(epoch) + _U32.pack(shard_count)
              + _U64.pack(txn_floor))
    header = META_MAGIC + _frame(record)
    if shard_map is not None:
        header += _frame(shard_map.encode())
    return header


class _MetaLog:
    """The coordinator's decision log for multi-shard transactions.

    Appends checksummed frames in the WAL's framing: an epoch record
    pinning (epoch, shard layout, txn floor), per-transaction decision
    records (the 2PC commit point — fsynced), and advisory *finished*
    records (not fsynced; they only let compaction know a decision can
    be dropped).  Compaction atomically rewrites the file down to a
    fresh epoch record carrying the current txn floor, and only runs
    when every decided transaction is finished — so no decision that a
    shard repair might still need can ever be lost.
    """

    #: Compact once this many decisions have accumulated (all finished).
    COMPACT_DECISIONS = 64

    def __init__(self, path: str, shard_count: int, fsync: bool = True,
                 epoch_floor: int = 0,
                 initial_map: Optional[ShardMap] = None) -> None:
        self.path = path
        self._fsync = fsync
        self._lock = threading.RLock()
        self.sync_count = 0
        scan = _scan_meta(path)
        if scan.epoch == 0:
            # Fresh (or unreadable) meta-WAL: start an incarnation above
            # both anything the old file pinned and any epoch found in
            # stale shard prepare records, so leftovers can never match.
            self.epoch = max(scan.epoch, epoch_floor) + 1
            self.shard_count = shard_count
            self._txn = scan.txn_floor
            self.map = initial_map if initial_map is not None \
                else ShardMap.initial(shard_count)
            self.migration: Optional[MigrationPlan] = None
            header = _meta_header(self.epoch, shard_count, self._txn,
                                  self.map)
            _atomic_write(path, header)
            self.decisions: Dict[int, bool] = {}
            self.finished: Set[int] = set()
            valid_end = len(header)
        else:
            self.epoch = scan.epoch
            # Directories written before shard maps existed carry no 'M'
            # record; their routing is exactly the implicit version-1
            # map (see ShardMap.initial).
            self.map = scan.map if scan.map is not None \
                else ShardMap.initial(scan.shard_count)
            self.migration = scan.migration
            self.shard_count = scan.live_shard_count()
            self._txn = scan.txn_floor
            self.decisions = dict(scan.decisions)
            self.finished = set(scan.finished)
            valid_end = scan.valid_end
            if shard_count != self.shard_count:
                status = (f"a migration to {self.shard_count} shard(s) is "
                          f"in progress" if scan.migration is not None
                          else f"laid out for {self.shard_count} shard(s)")
                raise PersistenceError(
                    f"{path}: {status} at map version {self.map.version}, "
                    f"but the store was opened with shard_count="
                    f"{shard_count}.  Reopen with shards="
                    f"{self.shard_count}, grow it live with "
                    f"TrimManager.reshard({shard_count}) / "
                    f"ShardedDurability.reshard({shard_count}), or rewrite "
                    f"it offline with `python -m repro shards split <dir> "
                    f"--shards {shard_count}`")
        try:
            self._file = open(path, "r+b")
            self._file.truncate(valid_end)
            self._file.seek(valid_end)
        except OSError as exc:
            raise PersistenceError(
                f"cannot open meta-WAL {path}: {exc}") from exc

    def next_txn(self) -> int:
        """Allocate the next coordinator transaction number."""
        with self._lock:
            self._txn += 1
            return self._txn

    def decide(self, txn: int, commit: bool) -> None:
        """Durably record the commit/abort decision — the 2PC commit point."""
        payload = b"T" + _U64.pack(txn) + (b"\x01" if commit else b"\x00")
        self._append(payload, durable=True)
        with self._lock:
            self.decisions[txn] = commit

    def finish(self, txn: int) -> None:
        """Record that every participant is fenced (advisory, no fsync)."""
        self._append(b"F" + _U64.pack(txn), durable=False)
        with self._lock:
            self.finished.add(txn)

    def begin_migration(self, plan: MigrationPlan) -> None:
        """Durably record a reshard's intent (the ``'G'`` record).

        From this record on, every recovery knows which slots are in
        flight and to which recipients — until a map record at the
        plan's target version supersedes it, reopening the directory
        resumes (and completes) the migration.
        """
        with self._lock:
            if self.migration is not None:
                raise TransactionError(
                    "a shard migration is already recorded as in progress")
            self._append(plan.encode(), durable=True)
            self.migration = plan
            self.shard_count = plan.target_count

    def write_map(self, shard_map: ShardMap) -> None:
        """Durably install a new shard map (the ``'M'`` record).

        Written at reshard finalize; at (or past) an open migration's
        target version it doubles as the migration's completion record.
        """
        with self._lock:
            self._append(shard_map.encode(), durable=True)
            self.map = shard_map
            self.shard_count = shard_map.shard_count
            if self.migration is not None \
                    and shard_map.version >= self.migration.target_version:
                self.migration = None

    def maybe_compact(self) -> None:
        """Drop fully-finished decisions by rewriting the log atomically."""
        with self._lock:
            if self._file is None:
                return
            if self.migration is not None:
                # An open 'G' record must survive verbatim until its
                # closing 'M' lands; compaction waits the migration out.
                return
            if len(self.decisions) < self.COMPACT_DECISIONS:
                return
            if any(txn not in self.finished for txn in self.decisions):
                return
            header = _meta_header(self.epoch, self.shard_count, self._txn,
                                  self.map)
            _atomic_write(self.path, header)
            self._file.close()
            try:
                self._file = open(self.path, "r+b")
                self._file.seek(len(header))
            except OSError as exc:
                self._file = None
                raise PersistenceError(
                    f"cannot reopen meta-WAL {self.path}: {exc}") from exc
            self.decisions.clear()
            self.finished.clear()

    def close(self) -> None:
        """Flush and close (idempotent)."""
        with self._lock:
            file, self._file = self._file, None
        if file is not None:
            try:
                file.flush()
            finally:
                file.close()

    def __del__(self) -> None:
        try:
            self.close()
        except BaseException:
            pass

    def _append(self, payload: bytes, durable: bool) -> None:
        with self._lock:
            if self._file is None:
                raise PersistenceError(f"meta-WAL {self.path} is closed")
            try:
                self._file.write(_frame(payload))
                self._file.flush()
                if durable and self._fsync:
                    os.fsync(self._file.fileno())
                    self.sync_count += 1
            except OSError as exc:
                raise PersistenceError(
                    f"cannot append to meta-WAL {self.path}: {exc}") from exc


# -- recovery -----------------------------------------------------------------

def _repair_shard_wal(path: str, decisions: Dict[int, bool],
                      epoch: int) -> bool:
    """Resolve a prepared-but-unfenced tail group in one shard WAL.

    When the coordinator decided *commit* for the prepared transaction
    (and the prepare's epoch matches the live incarnation), the fence is
    finished here: the boundary record is appended so ordinary recovery
    replays the group.  Every other case — no decision, abort decision,
    stale epoch — is left alone; plain recovery discards unfenced tails,
    which *is* the rollback.  Returns whether a fence was written.
    Idempotent: a repaired WAL has no prepared tail on the next scan.
    """
    scan = scan_wal(path)
    prepared = scan.prepared
    if prepared is None:
        return False
    info = prepared.info
    if info.epoch != epoch or not decisions.get(info.txn, False):
        return False
    group = scan.last_group + 1
    try:
        with open(path, "r+b") as handle:
            handle.truncate(prepared.end_offset)
            handle.seek(prepared.end_offset)
            handle.write(_frame(encode_commit(group)))
            handle.flush()
            os.fsync(handle.fileno())
    except OSError as exc:
        raise PersistenceError(f"cannot repair WAL {path}: {exc}") from exc
    return True


def _recover_shards(store: ShardedTripleStore, dirs: List[str],
                    registry: NamespaceRegistry) -> List[RecoveryResult]:
    """Recover each shard directory into its shard, in parallel.

    Shards never share files or stores, so per-shard recovery is
    embarrassingly parallel; on a multi-shard store the work fans out
    over the store's shard pool (snapshot decode overlaps another
    shard's disk reads).  The registry is the one shared structure —
    :meth:`NamespaceRegistry.register` is thread-safe.  Results come
    back in shard order; the first failure propagates after the
    remaining workers finish, so no thread outlives this call.
    """
    pairs = list(zip(store.shards, dirs))
    pool = store._get_pool() if len(pairs) > 1 else None
    if pool is None:
        return [recover(shard_dir, store=shard, namespaces=registry)
                for shard, shard_dir in pairs]
    futures = [pool.submit(recover, shard_dir, store=shard,
                           namespaces=registry)
               for shard, shard_dir in pairs]
    results: List[RecoveryResult] = []
    error: Optional[BaseException] = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if error is None:
                error = exc
    if error is not None:
        raise error
    return results


class ShardedRecoveryResult(NamedTuple):
    """What :func:`recover_sharded` reconstructed and how."""

    store: ShardedTripleStore        #: the recovered sharded store
    shards: List[RecoveryResult]     #: per-shard recovery detail
    repaired: int                    #: prepared groups fenced from meta-WAL
    epoch: int                       #: coordinator epoch found (0 if none)
    namespaces: NamespaceRegistry    #: registry with every declaration
    map_version: int = 1             #: shard-map version in force
    migration_open: bool = False     #: a reshard was mid-flight at crash
    #: Wall-clock seconds per recovery stage: ``repair_s`` (meta-WAL
    #: decision fences, always serial), ``shards_s`` (per-shard snapshot
    #: + delta + WAL recovery, fanned out over the shard pool) and
    #: ``routing_s`` (migration routing rebuild).  ``None`` on results
    #: built before timing existed.
    stage_seconds: Optional[Dict[str, float]] = None


def shard_directories(directory: str) -> List[str]:
    """The ``shard-NNN`` subdirectories under a sharded durable root,
    in shard-index order.  Empty when *directory* is not sharded."""
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return []
    matches = sorted(e for e in entries if _SHARD_DIR_RE.match(e))
    return [os.path.join(directory, e) for e in matches]


def is_sharded_directory(directory: str) -> bool:
    """Whether *directory* holds a sharded durable layout."""
    return bool(shard_directories(directory)) or \
        os.path.exists(os.path.join(directory, META_FILE))


def recover_sharded(directory: str,
                    namespaces: Optional[NamespaceRegistry] = None,
                    concurrent: bool = False,
                    store_factory: Callable[..., TripleStore] = TripleStore
                    ) -> ShardedRecoveryResult:
    """Rebuild the sharded durable state under *directory*.

    Reads the coordinator meta-WAL, finishes the fence of every prepared
    group whose transaction was decided *commit* (and leaves every other
    in-doubt group for ordinary recovery to discard — the rollback),
    then recovers each shard directory into a fresh
    :class:`ShardedTripleStore`.  The resulting store is consistent:
    every in-flight multi-shard transaction is either fully applied or
    fully absent, on all shards alike.

    Decision repair is single-threaded and strictly ordered (it mutates
    shard WAL tails based on the one coordinator log); the per-shard
    snapshot/delta/WAL recovery that follows touches only its own shard
    and directory, so it fans out over the store's shard pool.  Results
    are collected in shard order regardless of completion order.
    """
    dirs = shard_directories(directory)
    if not dirs:
        raise PersistenceError(
            f"{directory!r} holds no shard directories (not a sharded "
            f"durable root)")
    meta = _scan_meta(os.path.join(directory, META_FILE))
    shard_map = meta.map if meta.map is not None \
        else ShardMap.initial(len(dirs))
    # A crash between the 'G' record and the recipient-directory
    # creation leaves fewer dirs than the migration target; size the
    # store for whichever is larger and recover the dirs that exist.
    count = max(len(dirs), meta.live_shard_count())
    store = ShardedTripleStore(count, concurrent=concurrent,
                               store_factory=store_factory)
    registry = namespaces if namespaces is not None else NamespaceRegistry()
    repaired = 0
    started = time.perf_counter()
    if meta.epoch:
        for shard_dir in dirs:
            if _repair_shard_wal(os.path.join(shard_dir, WAL_FILE),
                                 meta.decisions, meta.epoch):
                repaired += 1
    repaired_at = time.perf_counter()
    results = _recover_shards(store, dirs, registry)
    store._resync_sequence()
    shards_at = time.perf_counter()
    migration = None
    if meta.migration is not None:
        # Rebuild the in-flight routing state: a subject already on a
        # recipient shard (for its migrating slot) committed its move
        # before the crash, so it routes there; everything else still
        # routes to its donor.  Recovery already made each batch
        # all-or-nothing, so membership is unambiguous.
        target = meta.migration.target_map(shard_map)
        migration = _ActiveMigration(target, meta.migration.moves)
        for slot, (_, to) in meta.migration.moves.items():
            recipient = store.shards[to]
            for subject in recipient._by_subject:
                uri = subject.uri
                if shard_map.slot_of(uri) == slot:
                    migration.moved.add(uri)
    store._install_map(shard_map, migration)
    stage_seconds = {
        "repair_s": round(repaired_at - started, 6),
        "shards_s": round(shards_at - repaired_at, 6),
        "routing_s": round(time.perf_counter() - shards_at, 6),
    }
    return ShardedRecoveryResult(store, results, repaired, meta.epoch,
                                 registry, shard_map.version,
                                 meta.migration is not None,
                                 stage_seconds)


# -- the sharded durability orchestrator --------------------------------------

class ShardedDurability:
    """Crash-safe persistence for a :class:`ShardedTripleStore`.

    Layout under *directory*::

        meta.wal        coordinator epoch + 2PC decision records
        shard-000/      snapshot.slim + wal.log   (one Durability each)
        shard-001/      ...

    Attaching recovers existing state (finishing or rolling back any
    in-doubt transaction first), then logs every mutation through the
    owning shard's WAL.  :meth:`commit` closes a durable group: one
    ordinary WAL group commit when a single shard is dirty, two-phase
    commit across the participants otherwise.  :meth:`commit_for` is the
    partitioned fast path — it durably commits only the shard owning one
    subject, so independent writers on different shards overlap their
    fsyncs instead of serializing on one log.

    *commit_every* carries the :class:`~repro.triples.wal.Durability`
    semantics to the coordinator: it auto-commits outside atomic
    scopes.  Compaction is per shard, at each shard's own cadence.
    """

    def __init__(self, store: ShardedTripleStore, directory: str,
                 namespaces: Optional[NamespaceRegistry] = None,
                 compact_every: int = 64, fsync: bool = True,
                 commit_every: Optional[int] = None,
                 delta_ratio: float = 0.5) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        if commit_every is not None and commit_every < 1:
            raise ValueError("commit_every must be >= 1 or None")
        if delta_ratio < 0:
            raise ValueError("delta_ratio must be >= 0")
        self.directory = directory
        self.namespaces = namespaces
        self.compact_every = compact_every
        self.commit_every = commit_every
        self.delta_ratio = delta_ratio
        self._fsync = fsync
        self._store = store
        count = store.shard_count
        existing = shard_directories(directory)
        if existing and len(existing) != count:
            scan = _scan_meta(os.path.join(directory, META_FILE))
            resumable = (scan.migration is not None
                         and scan.live_shard_count() == count
                         and len(existing) < count)
            if not resumable:
                live = scan.live_shard_count() or len(existing)
                raise PersistenceError(
                    f"{directory!r} is laid out for {live} shard(s) but the "
                    f"store was opened with shard_count={count}.  Reopen "
                    f"with shards={live}, grow it live with "
                    f"TrimManager.reshard({count}) / "
                    f"ShardedDurability.reshard({count}), or rewrite it "
                    f"offline with `python -m repro shards split "
                    f"{directory} --shards {count}`")
        os.makedirs(directory, exist_ok=True)
        shard_dirs = [os.path.join(directory, SHARD_DIR_FMT % i)
                      for i in range(count)]
        # A fresh meta-WAL must pick an epoch above any stale prepare
        # record a discarded incarnation left in the shard WALs.
        epoch_floor = 0
        for shard_dir in shard_dirs:
            scan = scan_wal(os.path.join(shard_dir, WAL_FILE))
            if scan.prepared is not None:
                epoch_floor = max(epoch_floor, scan.prepared.info.epoch)
        self._meta = _MetaLog(os.path.join(directory, META_FILE),
                              shard_count=count, fsync=fsync,
                              epoch_floor=epoch_floor,
                              initial_map=store.shard_map
                              if store.map_version > 1 else None)
        #: How many in-doubt groups recovery fenced to completion.
        self.repaired = 0
        for shard_dir in shard_dirs:
            os.makedirs(shard_dir, exist_ok=True)
            if _repair_shard_wal(os.path.join(shard_dir, WAL_FILE),
                                 self._meta.decisions, self._meta.epoch):
                self.repaired += 1
        self._durs: List[Durability] = []
        try:
            self._durs = self._attach_shards(store, shard_dirs)
        except BaseException:
            for dur in self._durs:
                dur.close()
            self._meta.close()
            raise
        store._resync_sequence()
        # Adopt the persisted map (a reopened directory may be several
        # reshards past the implicit version-1 layout the store was
        # constructed with) and, when a crash left a migration open,
        # rebuild its routing state for the resume below.
        migration = None
        if self._meta.migration is not None:
            plan = self._meta.migration
            target = plan.target_map(self._meta.map)
            migration = _ActiveMigration(target, plan.moves)
            for slot, (_, to) in plan.moves.items():
                recipient = store.shards[to]
                for subject in recipient._by_subject:
                    if self._meta.map.slot_of(subject.uri) == slot:
                        migration.moved.add(subject.uri)
        store._install_map(self._meta.map, migration)
        store._durability_attached = True
        self._meta_lock = threading.Lock()
        self._shard_locks = [threading.Lock() for _ in range(count)]
        self._commits = 0
        self._closed = False
        self._2pc_pool: Optional[ThreadPoolExecutor] = None
        self._2pc_pool_lock = threading.Lock()
        #: Whether attaching found (and completed) an interrupted reshard.
        self.resumed_migration = False
        #: Test instrumentation: called as ``hook(stage, txn, index)`` at
        #: each 2PC protocol step; raising :class:`SimulatedCrash` kills
        #: the coordinator mid-protocol with no cleanup, like a real
        #: crash.  ``None`` outside the crash-injection suite.
        self.crash_hook: Optional[Callable[[str, int, Optional[int]], None]] = None
        self._unsubscribe = store.add_listener(self._on_change)
        self._unsubscribe_atomic = store.add_atomic_listener(
            self._on_atomic_end)
        try:
            if migration is not None:
                # Finish what the crashed incarnation started: drain the
                # remaining subjects batch by batch (each batch is its
                # own 2PC transaction) and write the closing map record.
                self._drain_migration(batch_subjects=256)
                self.resumed_migration = True
            self._meta.maybe_compact()
        except BaseException:
            self._unsubscribe()
            self._unsubscribe_atomic()
            for dur in self._durs:
                dur.close()
            self._meta.close()
            raise

    def _attach_shards(self, store: ShardedTripleStore,
                       shard_dirs: List[str]) -> List[Durability]:
        """Build one per-shard :class:`Durability`, fanned out over the
        shard pool.

        Each orchestrator recovers its own shard directory and logs that
        shard's changes; the coordinator owns all commit decisions, so
        auto-grouping stays disabled per shard.
        Construction order does not matter (every shard touches only its
        own files), but the returned list is in shard-index order.  On
        any failure the orchestrators that did come up are closed before
        the first error propagates — no WAL handle leaks.
        """
        def build(shard: TripleStore, shard_dir: str) -> Durability:
            return Durability(shard, shard_dir,
                              namespaces=self.namespaces,
                              compact_every=self.compact_every,
                              fsync=self._fsync, commit_every=None,
                              delta_ratio=self.delta_ratio)

        pairs = list(zip(store.shards, shard_dirs))
        pool = store._get_pool() if len(pairs) > 1 else None
        if pool is None:
            durs: List[Durability] = []
            try:
                for shard, shard_dir in pairs:
                    durs.append(build(shard, shard_dir))
            except BaseException:
                for dur in durs:
                    dur.close()
                raise
            return durs
        futures = [pool.submit(build, shard, shard_dir)
                   for shard, shard_dir in pairs]
        built: List[Optional[Durability]] = []
        error: Optional[BaseException] = None
        for future in futures:
            try:
                built.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None:
                    error = exc
                built.append(None)
        if error is not None:
            for dur in built:
                if dur is not None:
                    dur.close()
            raise error
        return [dur for dur in built if dur is not None]

    # -- observability --------------------------------------------------------

    @property
    def shard_durabilities(self) -> Tuple[Durability, ...]:
        """The per-shard orchestrators, in shard-index order."""
        return tuple(self._durs)

    @property
    def recovered(self) -> List[Optional[RecoveryResult]]:
        """Per-shard recovery results (``None`` for fresh shards)."""
        return [dur.recovered for dur in self._durs]

    @property
    def epoch(self) -> int:
        """The coordinator epoch (store incarnation)."""
        return self._meta.epoch

    @property
    def group(self) -> int:
        """Total committed WAL groups across every shard."""
        return sum(dur.group for dur in self._durs)

    @property
    def pending_changes(self) -> int:
        """Changes logged since the last commit, across every shard."""
        return sum(dur.pending_changes for dur in self._durs)

    @property
    def commits_requested(self) -> int:
        """Commit calls that reached a WAL (coordinator plus shards)."""
        return self._commits + sum(dur.commits_requested
                                   for dur in self._durs)

    @property
    def fsync_count(self) -> int:
        """Group-commit fsyncs across every shard WAL plus the meta-WAL."""
        return (sum(dur.fsync_count for dur in self._durs)
                + self._meta.sync_count)

    # -- committing -----------------------------------------------------------

    def commit(self) -> bool:
        """Close the current group; ``False`` when nothing changed.

        Groups whose changes live on one shard commit as that shard's
        ordinary WAL group.  Multi-shard groups run two-phase commit:
        prepare every participant, fsync the decision into the meta-WAL,
        fence every participant.
        """
        if self._closed:
            raise PersistenceError("sharded durability handle is closed")
        changed = self._flush_group()
        if changed:
            with self._meta_lock:
                self._commits += 1
            self._maybe_compact()
        return changed

    def commit_for(self, subject: Resource) -> bool:
        """Durably commit only the shard owning *subject*.

        The partitioned fast path: a writer whose batch touched one
        subject's shard pays one WAL group commit there, concurrently
        with other writers committing other shards — no coordinator
        serialization, which is where the multi-writer ingest speedup
        comes from (``benchmarks/test_trim_sharding.py``).  Changes other
        writers put on the *same* shard since its last commit join the
        group, exactly like racing committers on a single WAL.
        """
        if self._closed:
            raise PersistenceError("sharded durability handle is closed")
        index = self._store.shard_index(subject)
        with self._shard_locks[index]:
            return self._durs[index].commit()

    def compact(self) -> None:
        """Fold every shard's log into a fresh snapshot."""
        if self._closed:
            raise PersistenceError("sharded durability handle is closed")
        for lock, dur in zip(list(self._shard_locks), list(self._durs)):
            with lock:
                dur.compact()
        with self._meta._lock:
            self._meta.maybe_compact()

    # -- resharding -----------------------------------------------------------

    @property
    def map_version(self) -> int:
        """The persisted shard-map version."""
        return self._meta.map.version

    @property
    def shard_map(self) -> ShardMap:
        """The persisted shard map."""
        return self._meta.map

    def reshard(self, new_count: int, batch_subjects: int = 256,
                wait: bool = True) -> "ReshardJob":
        """Grow the shard count live, migrating subjects under 2PC.

        The rebalanced next-version map is computed, the recipient
        directories and durability handles are created, and the
        migration intent lands durably in the meta-WAL (the ``'G'``
        record) *before* any subject moves — a crash at any later point
        reopens into an automatic resume.  Subjects then drain from
        donors to recipients in bounded batches; each batch buffers the
        moves into both WALs and commits them as one two-phase
        transaction (prepare both, decision in the meta-WAL, fence),
        with both shards' store locks and WAL locks held across the
        window so racing writers and per-shard commits can never split
        a half-moved subject.  Readers and writers never block for the
        whole migration — only for the batch touching their shard.
        Finalizing writes the new map record, the migration's durable
        completion.

        ``wait=False`` runs the drain on a background thread; the
        returned :class:`ReshardJob` exposes progress and ``join()``.
        Live resharding only grows; use ``python -m repro shards
        split`` offline to shrink.
        """
        if self._closed:
            raise PersistenceError("sharded durability handle is closed")
        store = self._store
        current = self._meta.map.shard_count
        if new_count == current:
            return ReshardJob(self, batch_subjects, done=True)
        if new_count < current:
            raise PersistenceError(
                f"live resharding only grows ({current} -> {new_count} "
                f"shrinks); rewrite the directory offline with `python -m "
                f"repro shards split {self.directory} --shards {new_count}`")
        if self._meta.migration is not None \
                or store.migration_active:
            raise TransactionError("a shard migration is already in progress")
        if store.in_bulk:
            raise TransactionError("cannot reshard during a bulk load")
        target = self._meta.map.rebalanced(new_count)
        plan = MigrationPlan(target.version, new_count,
                             self._meta.map.diff(target))
        # Durable intent first: once the 'G' record is down, any crash
        # resumes the migration on reopen (with shards=new_count) —
        # recipient directories are recreated there if missing.
        self._meta.begin_migration(plan)
        self._crash("reshard-begin", 0)
        self._grow(new_count)
        self._crash("reshard-grown", 0)
        store._begin_migration(target, plan.moves)
        job = ReshardJob(self, batch_subjects)
        if wait:
            job.run()
        else:
            thread = threading.Thread(target=job.run, daemon=True,
                                      name="slim-reshard")
            job._thread = thread
            thread.start()
        return job

    def _grow(self, new_count: int) -> None:
        """Create recipient shards, directories, and durability handles."""
        store = self._store
        store._grow_shards(new_count)
        with self._meta_lock:
            for i in range(len(self._durs), new_count):
                shard_dir = os.path.join(self.directory, SHARD_DIR_FMT % i)
                os.makedirs(shard_dir, exist_ok=True)
                self._durs.append(Durability(
                    store.shards[i], shard_dir, namespaces=self.namespaces,
                    compact_every=self.compact_every, fsync=self._fsync,
                    commit_every=None, delta_ratio=self.delta_ratio))
                self._shard_locks.append(threading.Lock())
        # Retire the 2PC pool so the next one sizes to the new count.
        with self._2pc_pool_lock:
            pool, self._2pc_pool = self._2pc_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _drain_migration(self, batch_subjects: int) -> Tuple[int, int]:
        """Move every pending subject, then finalize.  Returns
        (batches, subjects_moved)."""
        store = self._store
        batches = moved = 0
        while True:
            batch = store._migration_pending(batch_subjects)
            if not batch:
                if self._finalize_migration():
                    return batches, moved
                time.sleep(0.001)
                continue
            for (frm, to), uris in batch.items():
                moved += self._migrate_batch(frm, to, uris)
                batches += 1

    def _migrate_batch(self, frm: int, to: int, uris: List[str]) -> int:
        """Move one bounded batch of subjects and 2PC-commit it.

        Lock order is the store tier first (both shards, ascending),
        then the durability tier (both shard WAL locks, ascending) —
        the same order every writer and committer uses, so there is no
        cycle.  The WAL locks are held from *before* the first move
        event is buffered until the fence completes: a racing
        ``commit_for`` on the donor can therefore never durably commit
        the removals without the recipient's inserts.
        """
        store = self._store
        first, second = sorted((frm, to))
        store.begin_atomic()   # defers commit_every auto-commits
        try:
            with store.shards[first]._lock, store.shards[second]._lock:
                with self._shard_locks[first], self._shard_locks[second]:
                    moved = store._move_subjects_locked(frm, to, uris)
                    participants = [dur for dur in
                                    (self._durs[frm], self._durs[to])
                                    if dur.pending_changes > 0]
                    if len(participants) == 2:
                        self._two_phase_commit(participants, use_pool=False)
                    elif participants:
                        participants[0]._flush_group()
            return moved
        finally:
            store.end_atomic()

    def _finalize_migration(self) -> bool:
        """Write the closing map record and swap routing, if drained.

        Holds every shard's store lock: the emptiness re-check, the
        durable map record, and the in-memory cutover happen in one
        critical section no writer can interleave.
        """
        store = self._store
        with store._lock:
            locks = [shard._lock for shard in store._shards]
        for lock in locks:
            lock.acquire()
        try:
            migration = store._migration
            if migration is None:
                return True
            if not store._migration_drained_locked():
                return False
            self._crash("reshard-final", 0)
            self._meta.write_map(migration.target)
            self._crash("reshard-installed", 0)
            store._map = migration.target
            store._migration = None
            return True
        finally:
            for lock in reversed(locks):
                lock.release()

    def close(self) -> None:
        """Detach from the store and close every log (idempotent).

        The first error any log raised while closing is re-raised after
        every resource is released.
        """
        self._close(join=True)

    def _close(self, join: bool) -> None:
        if self._closed:
            return
        self._closed = True
        self._unsubscribe()
        self._unsubscribe_atomic()
        errors: List[BaseException] = []
        with self._2pc_pool_lock:
            pool, self._2pc_pool = self._2pc_pool, None
        if pool is not None:
            pool.shutdown(wait=join)
        for dur in self._durs:
            try:
                dur.close()
            except BaseException as exc:
                errors.append(exc)
        try:
            self._meta.close()
        except BaseException as exc:
            errors.append(exc)
        if errors:
            raise errors[0]

    def __del__(self) -> None:
        # Never join threads from a finalizer (see the TripleStore pool
        # docstring for the GC deadlock).
        try:
            self._close(join=False)
        except BaseException:
            pass

    def abandon(self) -> None:
        """Make a "crashed" coordinator inert, as if its process died.

        A dead process writes nothing more, so neither may this object
        or its finalizers: every shard :class:`~repro.triples.wal.Durability`
        is abandoned (buffers dropped, file handles released where the
        last durable write left them) and the meta-WAL handle closed
        without flushing.  The directory then looks like a hard kill mid
        2PC and must go through :func:`recover_sharded`.  This is the
        crash-simulation primitive behind the crash matrix in
        ``tests/test_sharding.py`` and the replay harness
        (:mod:`repro.replay`).
        """
        self._closed = True
        self._unsubscribe()
        self._unsubscribe_atomic()
        for shard_durability in self._durs:
            shard_durability.abandon()
        meta_file, self._meta._file = self._meta._file, None
        if meta_file is not None:
            try:
                meta_file.close()
            except OSError:
                pass

    # -- internals ------------------------------------------------------------

    def _crash(self, stage: str, txn: int, index: Optional[int] = None) -> None:
        hook = self.crash_hook
        if hook is not None:
            hook(stage, txn, index)

    def _flush_group(self) -> bool:
        """One coordinated group commit; ``True`` if anything was dirty.

        Takes the coordinator lock, then every shard lock in index order
        (excluding concurrent :meth:`commit_for` calls), then runs either
        the single-shard fast path or the 2PC protocol.
        """
        with self._meta_lock:
            for lock in self._shard_locks:
                lock.acquire()
            try:
                participants = [dur for dur in self._durs
                                if dur.pending_changes > 0]
                if not participants:
                    return False
                if len(participants) == 1:
                    return participants[0]._flush_group()
                self._two_phase_commit(participants)
                return True
            finally:
                for lock in reversed(self._shard_locks):
                    lock.release()

    def _get_2pc_pool(self) -> ThreadPoolExecutor:
        """The dedicated prepare/fence fan-out pool.

        2PC must never borrow the store's ingest pool: during a
        migration every ingest worker can be parked on a store lock the
        migrating batch holds, and a group commit queued behind them
        (while holding every WAL lock the batch needs) would deadlock
        the triangle.  This pool only ever runs WAL calls, which take
        no store locks.
        """
        with self._2pc_pool_lock:
            if self._2pc_pool is None:
                self._2pc_pool = ThreadPoolExecutor(
                    max_workers=len(self._durs),
                    thread_name_prefix="slim-2pc")
            return self._2pc_pool

    def _two_phase_commit(self, participants: List[Durability],
                          use_pool: bool = True) -> None:
        txn = self._meta.next_txn()
        info = PrepareInfo(txn, len(participants), self._meta.epoch)
        prepared: List[Durability] = []
        try:
            if use_pool and self.crash_hook is None and len(participants) > 1:
                pool = self._get_2pc_pool()
            else:
                # Crash-injection runs serially so every inter-step
                # window is a deterministic kill point.
                pool = None
            if pool is None:
                for i, dur in enumerate(participants):
                    dur._wal.prepare(info)
                    prepared.append(dur)
                    self._crash("prepare", txn, i)
            else:
                futures = [pool.submit(dur._wal.prepare, info)
                           for dur in participants]
                prepared = list(participants)
                for future in futures:
                    future.result()
        except SimulatedCrash:
            raise
        except BaseException:
            # Phase-1 failure: record the abort (so a concurrent crash
            # still resolves to rollback), then roll every prepared WAL
            # back; their buffers stay intact for a retry.
            try:
                self._meta.decide(txn, commit=False)
            finally:
                for dur in prepared:
                    try:
                        dur._wal.abort_prepared()
                    except PersistenceError:
                        pass  # that WAL failed closed; recovery discards
            raise
        self._crash("decide", txn)
        self._meta.decide(txn, commit=True)   # <- the commit point
        self._crash("decided", txn)
        pool = (self._get_2pc_pool()
                if use_pool and self.crash_hook is None
                and len(participants) > 1 else None)
        if pool is None:
            for i, dur in enumerate(participants):
                dur._wal.fence()
                with dur._meta_lock:
                    dur._groups_since_snapshot += 1
                self._crash("fence", txn, i)
        else:
            futures = [pool.submit(dur._wal.fence) for dur in participants]
            for future in futures:
                future.result()
            for dur in participants:
                with dur._meta_lock:
                    dur._groups_since_snapshot += 1
        self._meta.finish(txn)
        self._crash("finish", txn)
        self._meta.maybe_compact()

    def _maybe_compact(self) -> None:
        """Per-shard compaction at each shard's own cadence; never blocks
        on a busy shard.

        A shard's lock is held by a concurrent :meth:`commit_for` through
        its fsync, or by a migration batch; a commit must not stall behind
        another thread's work on that shard, so its compaction is simply
        deferred to the next commit."""
        for lock, dur in zip(list(self._shard_locks), list(self._durs)):
            if not lock.acquire(blocking=False):
                continue
            try:
                dur._maybe_compact()
            finally:
                lock.release()

    def _on_change(self, action: str, triple: Triple, sequence: int) -> None:
        if self.commit_every is not None \
                and not self._store.in_atomic \
                and self.pending_changes >= self.commit_every:
            self.commit()

    def _on_atomic_end(self) -> None:
        if self._closed or self.commit_every is None:
            return
        if self.pending_changes >= self.commit_every \
                and not self._store.in_atomic:
            self.commit()


class ReshardJob:
    """Handle on a live migration started by :meth:`ShardedDurability.reshard`.

    With ``wait=True`` (the default) the job has already run by the time
    the caller sees it; with ``wait=False`` it drains on a background
    thread and :meth:`join` blocks until the closing map record is
    durable.  ``subjects_moved``/``batches`` are progress counters, and
    ``error`` carries a background failure (also re-raised by ``join``).
    """

    def __init__(self, durability: "ShardedDurability", batch_subjects: int,
                 done: bool = False) -> None:
        self._durability = durability
        self._batch_subjects = batch_subjects
        self._thread: Optional[threading.Thread] = None
        self.done = done
        self.batches = 0
        self.subjects_moved = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        """Drain the migration to completion (idempotent once done)."""
        if self.done:
            return
        try:
            self.batches, self.subjects_moved = \
                self._durability._drain_migration(self._batch_subjects)
            self.done = True
        except BaseException as exc:
            self.error = exc
            if self._thread is None:
                raise

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for a background drain to finish; re-raise its error."""
        if self._thread is not None:
            self._thread.join(timeout)
        if self.error is not None:
            raise self.error


def split_offline(directory: str, new_count: int,
                  namespaces: Optional[NamespaceRegistry] = None,
                  out: Optional[str] = None) -> ShardMap:
    """Rewrite a cold sharded directory for *new_count* shards.

    The offline fallback for what :meth:`ShardedDurability.reshard` does
    live — and the only path that *shrinks*.  The directory is recovered
    in full, rebuilt shard by shard under a fresh version-bumped map
    with the even initial layout (slot table sized to the new count, so
    a later live grow is not capped by the old table), committed,
    compacted, and either written to *out* or swapped into place.  The
    in-place swap keeps the original under ``<directory>.split-old``
    until the rebuilt tree is durable, then removes it; a crash mid-swap
    leaves one intact directory at one of the two names.  Returns the
    new map.
    """
    if new_count < 1:
        raise ValueError("new_count must be >= 1")
    result = recover_sharded(directory, namespaces=namespaces)
    try:
        if result.migration_open:
            raise PersistenceError(
                f"{directory!r} has a live migration in progress; reopen it "
                f"with shards={result.store.shard_count} to let the "
                f"migration resume and finish before splitting offline")
        old_map = result.store.shard_map
        target = ShardMap(old_map.version + 1,
                          ShardMap.initial(new_count).slots, new_count)
        in_place = out is None
        dest = directory + ".split-tmp" if in_place else out
        if os.path.exists(dest) and os.listdir(dest):
            raise PersistenceError(f"split destination {dest!r} is not empty")
        os.makedirs(dest, exist_ok=True)
        new_store = ShardedTripleStore(new_count, shard_map=target)
        dur = ShardedDurability(new_store, dest, namespaces=result.namespaces,
                                commit_every=None)
        try:
            with new_store.bulk():
                for sequence, triple in result.store._merged_items():
                    new_store.restore(triple, sequence)
            dur.commit()
            dur.compact()
        finally:
            dur.close()
            new_store.close()
    finally:
        result.store.close()
    if in_place:
        old = directory + ".split-old"
        if os.path.exists(old):
            shutil.rmtree(old)
        os.rename(directory, old)
        os.rename(dest, directory)
        shutil.rmtree(old)
    return target
