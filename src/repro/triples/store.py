"""The indexed triple store at the core of TRIM.

Section 4.4: *"Through TRIM, the DMI can create, remove, persist (through
XML files), query, and create simple views over the underlying triples.
Query is specified by selection, where one or more of the triple fields is
fixed, and the result is a set of triples."*

:class:`TripleStore` implements exactly that surface plus the plumbing a
real store needs: two single-field hash indexes (subject / property) and
two compound indexes — ``(subject, property)`` and ``(property, value)``
— covering the two-field selections that dominate DMI traffic
(``value_of``/``values_of`` and type-extent scans), change listeners
(which feed the undo log, the write-ahead log, the read cache and replay
capture), an exact :meth:`count` that the query planner reads, and a
size estimator used by the space-overhead benchmark (claim C-1).  A
selection fixing only the value probes its ``(property, value)`` bucket
under each property; real pads have a dozen properties or fewer.

Concurrency model (DESIGN.md §10): every mutation runs under one
re-entrant store lock; reads take no lock at all.  During a :meth:`bulk`
load only the *owner thread* (the one that entered the bulk) flushes
pending inserts before its reads — read-your-writes.  Every other thread
reads the snapshot as of the last flush: the membership map and the
indexes describe the same consistent state because pending inserts touch
neither until the flush publishes everything together.  Constructing the
store with ``concurrent=True`` makes reads iterate a one-``tuple()``
snapshot of the bucket they pick, so writers update buckets in place at
O(1) per triple; DESIGN.md §10 gives the GIL argument that a reader sees
each bucket before or after a write, never in between.
"""

from __future__ import annotations

import threading
from typing import (Callable, Dict, ItemsView, Iterable, Iterator, List,
                    Optional, Set, Tuple)

from repro.errors import TransactionError, TripleNotFoundError
from repro.triples.triple import Literal, Node, Resource, Triple

#: Change listeners receive ('add' | 'remove', triple, sequence), where
#: *sequence* is the insertion-sequence number the triple holds (for adds)
#: or held (for removes).  The sequence lets undo logs and the write-ahead
#: log restore a triple to its exact original position later.
ChangeListener = Callable[[str, Triple, int], None]

#: Shared immutable empty bucket — ``_candidates`` must never allocate a
#: fresh container just to say "no hits".
_EMPTY: "frozenset[Triple]" = frozenset()


class BulkLoad:
    """Context manager for a deferred-indexing ingest (``store.bulk()``).

    While active, inserts (``add``/``add_all``/``restore``) append to a
    pending buffer only; membership, index maintenance and listener
    fan-out (which feeds the undo log, the write-ahead log, the read
    cache and replay capture) are all deferred and performed in one
    bound-locals pass when the batch *flushes*.  A flush happens on
    normal exit, and early whenever an operation needs consistent indexes
    or ordered events: any selection or membership read *from the thread
    that entered the bulk* (``match``/``select``/``count``, iteration),
    any removal, and ``add_listener``.  Threads other than the owner
    never trigger a flush — they read the snapshot as of the last flush
    instead (see the module docstring).  Owner-thread membership reads
    (``in``, ``len``, ``sequence_of``) consult the pending buffer
    directly and stay exact without flushing.

    Exiting on an exception *aborts* instead: every insert still pending
    (that is, since the last flush) is rolled back silently — listeners
    never hear about it, so a failed ingest leaves no half-announced
    state.  Used by :class:`~repro.triples.transactions.Batch`,
    :meth:`~repro.triples.trim.TrimManager.bulk_ingest`, the streaming
    snapshot loader, and WAL recovery replay.  Bulk loads do not nest.
    """

    __slots__ = ("_store",)

    def __init__(self, store) -> None:
        self._store = store

    def __enter__(self):
        self._store._begin_bulk()
        return self._store

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._store._end_bulk()
        else:
            self._store._abort_bulk()
        return False


class TripleStore:
    """A set of triples with hash indexes on subject, property and the
    ``(subject, property)`` and ``(property, value)`` pairs.

    The store has *set semantics*: adding a triple twice is a no-op and
    :meth:`add` reports whether the triple was new.  Iteration order is the
    insertion order of currently present triples, which keeps persisted
    files and test output deterministic.

    Mutations are serialized by an internal re-entrant lock (exposed as
    :attr:`lock` for callers that need a consistent multi-step read, e.g.
    snapshot writers).  Plain reads take no lock.  Pass
    ``concurrent=True`` when reader threads will overlap with writers:
    reads then iterate a snapshot of the bucket they picked, so a writer
    updating it in place never disturbs them (see the module docstring).
    """

    def __init__(self, concurrent: bool = False) -> None:
        # Membership map: triple -> insertion sequence number.  The dict
        # keeps insertion order for iteration; the sequence numbers let
        # selection results be order-restored in O(k log k) instead of
        # re-scanning the whole store.
        self._triples: Dict[Triple, int] = {}
        self._sequence = 0
        self._by_subject: Dict[Resource, Set[Triple]] = {}
        self._by_property: Dict[Resource, Set[Triple]] = {}
        # Compound indexes: the two pairs that real traffic fixes together.
        # A value-only read probes (property, value) once per property; a
        # (subject, value) read filters the subject bucket.
        self._by_subject_property: Dict[Tuple[Resource, Resource], Set[Triple]] = {}
        self._by_property_value: Dict[Tuple[Resource, Node], Set[Triple]] = {}
        self._listeners: List[ChangeListener] = []
        self.concurrent = concurrent
        self._lock = threading.RLock()
        # Bulk-load state: None = normal mode; a list = deferred inserts
        # awaiting their index/listener flush (see BulkLoad).  The map
        # mirrors the list for O(1) owner-thread membership and dedup.
        self._pending: Optional[List[Tuple[Triple, int]]] = None
        self._pending_map: Dict[Triple, int] = {}
        self._bulk_owner: Optional[int] = None
        self._bulk_seq_mark = 0

    # -- locking -------------------------------------------------------------

    @property
    def lock(self) -> "threading.RLock":
        """The store's mutation lock (re-entrant).

        Mutators take it internally; hold it explicitly only for
        multi-step reads that must not interleave with writers (the
        snapshot writer does).  Lock order across the stack is
        store lock -> Durability meta lock -> WAL lock, never reversed.
        """
        return self._lock

    # -- bulk loading --------------------------------------------------------

    def bulk(self) -> BulkLoad:
        """A deferred-indexing ingest context (see :class:`BulkLoad`)."""
        return BulkLoad(self)

    @property
    def in_bulk(self) -> bool:
        """Whether a :meth:`bulk` load is currently active."""
        return self._pending is not None

    def _begin_bulk(self) -> None:
        with self._lock:
            if self._pending is not None:
                raise TransactionError("bulk load already active on this store")
            self._pending = []
            self._pending_map = {}
            self._bulk_owner = threading.get_ident()
            self._bulk_seq_mark = self._sequence

    def _end_bulk(self) -> None:
        with self._lock:
            self._flush_bulk()
            self._pending = None
            self._bulk_owner = None

    def _abort_bulk(self) -> None:
        with self._lock:
            # Pending inserts never reached the membership map or the
            # indexes, so aborting is pure bookkeeping.
            self._pending = None
            self._pending_map = {}
            self._bulk_owner = None
            # Sequences handed out since the last flush all belong to the
            # aborted inserts, so the counter rolls straight back.
            self._sequence = self._bulk_seq_mark

    def _is_bulk_owner(self) -> bool:
        return self._bulk_owner == threading.get_ident()

    def _read_barrier(self) -> None:
        """Owner-thread reads flush pending inserts first (read-your-
        writes); reads from any other thread return the last-flush
        snapshot untouched and never force a flush."""
        if self._pending and self._is_bulk_owner():
            with self._lock:
                self._flush_bulk()

    def _flush_bulk(self) -> None:
        """Publish every pending insert: membership first, then indexes,
        then listener fan-out — in insertion order.  Callers hold the
        store lock.

        The ordering matters for concurrent snapshot readers: a triple
        becomes a member before it appears in any bucket, so a reader that
        picked it out of a bucket can always resolve its sequence number.
        """
        pending = self._pending
        if not pending:
            self._bulk_seq_mark = self._sequence
            return
        self._pending = []
        self._pending_map = {}
        members = self._triples
        tail = next(reversed(members.values())) if members else -1
        need_sort = False
        for t, sequence in pending:
            members[t] = sequence
            if sequence < tail:
                need_sort = True
            else:
                tail = sequence
        if need_sort:
            # Out-of-order restore(s) in the batch: rebuild the ordered
            # membership map once and publish it with an atomic rebind.
            self._triples = dict(
                sorted(members.items(), key=lambda item: item[1]))
        if self.concurrent:
            self._publish_indexed(pending)
        else:
            by_s, by_p = self._by_subject, self._by_property
            by_sp, by_pv = self._by_subject_property, self._by_property_value
            for t, _ in pending:
                by_s.setdefault(t.subject, set()).add(t)
                by_p.setdefault(t.property, set()).add(t)
                by_sp.setdefault((t.subject, t.property), set()).add(t)
                by_pv.setdefault((t.property, t.value), set()).add(t)
        self._bulk_seq_mark = self._sequence
        if self._listeners:
            for t, sequence in pending:
                self._notify("add", t, sequence)

    def _publish_indexed(self, pending: List[Tuple[Triple, int]]) -> None:
        """Multi-triple index publish (bulk flush, :meth:`add_all`) for
        ``concurrent=True``.

        Additions are grouped per bucket key.  A bucket gaining one triple
        is updated in place; one gaining more is rebuilt once and published
        with a single dict assignment, so readers see all or none of the
        batch's additions to it, and the copy is amortized over the batch.
        """
        for index, key_of in (
                (self._by_subject, lambda t: t.subject),
                (self._by_property, lambda t: t.property),
                (self._by_subject_property,
                 lambda t: (t.subject, t.property)),
                (self._by_property_value,
                 lambda t: (t.property, t.value))):
            additions: Dict = {}
            for t, _ in pending:
                additions.setdefault(key_of(t), []).append(t)
            for key, ts in additions.items():
                old = index.get(key)
                if old is not None and len(ts) == 1:
                    old.add(ts[0])
                else:
                    index[key] = set(ts) if old is None else old.union(ts)

    # -- mutation -----------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert *triple*; return ``True`` if it was not already present."""
        with self._lock:
            if triple in self._triples:
                return False
            if self._pending is not None:
                if triple in self._pending_map:
                    return False
                sequence = self._sequence
                self._sequence += 1
                self._pending_map[triple] = sequence
                self._pending.append((triple, sequence))
                return True
            sequence = self._sequence
            self._triples[triple] = sequence
            self._sequence += 1
            self._index_insert(triple)
            self._notify("add", triple, sequence)
            return True

    def restore(self, triple: Triple, sequence: int) -> bool:
        """Insert *triple* at a specific insertion-sequence position.

        The inverse of :meth:`remove` for undo/redo and WAL replay: the
        triple re-enters the store with the *original* sequence number, so
        :meth:`select` order, iteration order, and persisted files match
        the pre-removal state exactly.  A no-op (returning ``False``) when
        the triple is already present.  Restoring below the current tail
        rebuilds the ordered membership map — O(n log n), acceptable on
        the undo/recovery paths this exists for.
        """
        with self._lock:
            if triple in self._triples:
                return False
            if self._pending is not None:
                if triple in self._pending_map:
                    return False
                self._pending_map[triple] = sequence
                self._pending.append((triple, sequence))
                self._sequence = max(self._sequence, sequence + 1)
                return True
            out_of_order = bool(self._triples) and \
                sequence < next(reversed(self._triples.values()))
            self._triples[triple] = sequence
            if out_of_order:
                self._triples = dict(
                    sorted(self._triples.items(), key=lambda item: item[1]))
            self._sequence = max(self._sequence, sequence + 1)
            self._index_insert(triple)
            self._notify("add", triple, sequence)
            return True

    def sequence_of(self, triple: Triple) -> int:
        """The insertion-sequence number of a present triple.

        Raises :class:`TripleNotFoundError` when absent.  Snapshots use
        this to persist exact ordering (see
        :func:`repro.triples.persistence.dumps` with sequences).  On the
        bulk-owner thread, pending (unflushed) inserts resolve too.
        """
        try:
            return self._triples[triple]
        except KeyError:
            pass
        if self._pending is not None and self._is_bulk_owner():
            sequence = self._pending_map.get(triple)
            if sequence is not None:
                return sequence
        raise TripleNotFoundError(f"triple not in store: {triple}")

    def sequenced(self) -> ItemsView[Triple, int]:
        """Every ``(triple, sequence)`` pair, in iteration order.

        A live view of the membership map, not a copy: iterate it while
        holding :attr:`lock`, which every writer takes, and the pairs
        form one consistent state.  On the bulk-owner thread, pending
        inserts are flushed first.  The snapshot writer reads it instead
        of probing :meth:`sequence_of` once per triple.
        """
        self._read_barrier()
        return self._triples.items()

    def restore_rows(self, nodes: List[Node],
                     rows: Iterable[Tuple[int, int, int, int]]) -> int:
        """Bulk-restore dictionary-encoded rows (binary snapshot fast path).

        The v3 snapshot loader hands over its decoded string dictionary
        and integer ``(subject-id, property-id, value-id, sequence)``
        rows wholesale, so the whole membership map and all four indexes
        are built in one tight pass over local containers — no per-row
        lock round trip, no pending buffer, no listener bookkeeping.
        All-or-nothing: a bad row (id out of bounds, literal where a
        resource belongs) raises ``IndexError``/``ValueError`` before
        anything is installed, leaving the store untouched.

        Only valid on an empty store with no active bulk load and no
        change listeners (recovery runs before any attach); returns the
        number of statements restored.
        """
        with self._lock:
            if self._triples or self._pending is not None:
                raise TransactionError(
                    "restore_rows requires an empty, idle store")
            if self._listeners:
                raise TransactionError(
                    "restore_rows cannot notify change listeners")
            for node in nodes:
                if not isinstance(node, (Resource, Literal)):
                    raise ValueError(
                        f"snapshot dictionary entry is not a node: {node!r}")
            resource = [isinstance(node, Resource) for node in nodes]
            members: Dict[Triple, int] = {}
            by_s: Dict[Resource, Set[Triple]] = {}
            by_p: Dict[Resource, Set[Triple]] = {}
            by_sp: Dict[Tuple[Resource, Resource], Set[Triple]] = {}
            by_pv: Dict[Tuple[Resource, Node], Set[Triple]] = {}
            tail = -1
            top = -1
            need_sort = False
            # Every node was type-checked above, so each row's triple is
            # built directly (``__new__`` + field binds) instead of
            # through the frozen-dataclass constructor — same instances,
            # identical eq/hash (the cached ``_hash`` is combined exactly as
            # ``Triple.__post_init__`` does), but without re-running its
            # validation 100k times on the cold-start path.
            new_triple = Triple.__new__
            bind = object.__setattr__
            for sid, pid, vid, sequence in rows:
                if not (resource[sid] and resource[pid]):
                    raise ValueError(
                        "triple subject/property must be resources")
                subject, prop, value = nodes[sid], nodes[pid], nodes[vid]
                t = new_triple(Triple)
                bind(t, "subject", subject)
                bind(t, "property", prop)
                bind(t, "value", value)
                bind(t, "_hash", hash((subject._hash, prop._hash, value._hash)))
                members[t] = sequence
                if sequence < tail:
                    need_sort = True
                else:
                    tail = sequence
                if sequence > top:
                    top = sequence
                bucket = by_s.get(subject)
                if bucket is None:
                    by_s[subject] = bucket = set()
                bucket.add(t)
                bucket = by_p.get(prop)
                if bucket is None:
                    by_p[prop] = bucket = set()
                bucket.add(t)
                pair = (subject, prop)
                bucket = by_sp.get(pair)
                if bucket is None:
                    by_sp[pair] = bucket = set()
                bucket.add(t)
                pair = (prop, value)
                bucket = by_pv.get(pair)
                if bucket is None:
                    by_pv[pair] = bucket = set()
                bucket.add(t)
            if need_sort:
                members = dict(
                    sorted(members.items(), key=lambda item: item[1]))
            self._triples = members
            self._by_subject = by_s
            self._by_property = by_p
            self._by_subject_property = by_sp
            self._by_property_value = by_pv
            self._sequence = max(self._sequence, top + 1)
            return len(members)

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; return how many were new.

        Batch fast path: indexes and locals are bound once, each new triple
        costs one membership probe plus four bucket inserts, and the
        listener fan-out is skipped entirely when nobody is subscribed.
        Listeners (when present) still see every insertion individually, so
        undo logs and batches observe the same events as N ``add`` calls.
        """
        with self._lock:
            members = self._triples
            if self._pending is not None:
                # Bulk mode: pending-buffer append only; membership,
                # indexes, and listener fan-out land in one flush pass.
                pending = self._pending
                pending_map = self._pending_map
                added = 0
                for t in triples:
                    if t in members or t in pending_map:
                        continue
                    sequence = self._sequence
                    pending_map[t] = sequence
                    pending.append((t, sequence))
                    self._sequence += 1
                    added += 1
                return added
            if self.concurrent:
                accepted: List[Tuple[Triple, int]] = []
                for t in triples:
                    if t in members:
                        continue
                    sequence = self._sequence
                    members[t] = sequence
                    self._sequence += 1
                    accepted.append((t, sequence))
                if not accepted:
                    return 0
                self._publish_indexed(accepted)
                if self._listeners:
                    for t, sequence in accepted:
                        self._notify("add", t, sequence)
                return len(accepted)
            by_s, by_p = self._by_subject, self._by_property
            by_sp, by_pv = self._by_subject_property, self._by_property_value
            notify = self._notify if self._listeners else None
            added = 0
            for t in triples:
                if t in members:
                    continue
                sequence = self._sequence
                members[t] = sequence
                self._sequence += 1
                by_s.setdefault(t.subject, set()).add(t)
                by_p.setdefault(t.property, set()).add(t)
                by_sp.setdefault((t.subject, t.property), set()).add(t)
                by_pv.setdefault((t.property, t.value), set()).add(t)
                added += 1
                if notify is not None:
                    notify("add", t, sequence)
            return added

    def remove(self, triple: Triple) -> None:
        """Delete *triple*; raise :class:`TripleNotFoundError` if absent."""
        with self._lock:
            if self._pending:
                self._flush_bulk()
            if triple not in self._triples:
                raise TripleNotFoundError(f"triple not in store: {triple}")
            sequence = self._triples.pop(triple)
            discard = self._index_discard
            discard(self._by_subject, triple.subject, triple)
            discard(self._by_property, triple.property, triple)
            discard(self._by_subject_property,
                    (triple.subject, triple.property), triple)
            discard(self._by_property_value,
                    (triple.property, triple.value), triple)
            self._notify("remove", triple, sequence)

    def discard(self, triple: Triple) -> bool:
        """Delete *triple* if present; return whether it was."""
        with self._lock:
            if triple not in self._triples and not (
                    self._pending and triple in self._pending_map):
                return False
            self.remove(triple)
            return True

    def remove_matching(self, subject: Optional[Resource] = None,
                        property: Optional[Resource] = None,
                        value: Optional[Node] = None) -> int:
        """Delete every triple matching the selection; return the count.

        Batched removal fast path: the victims are materialized once
        (single-threaded match() iterates live index buckets, so this must
        happen before the first removal mutates them), then dropped with
        bound locals — one membership pop plus four bucket discards each,
        instead of a full :meth:`remove` call per triple.  A value-only
        selection collects its victims from the ``(property, value)``
        buckets.  Listeners still see every removal individually, in match
        order.
        """
        with self._lock:
            if self._pending:
                self._flush_bulk()
            victims = list(self.match(subject, property, value))
            if not victims:
                return 0
            members = self._triples
            by_s, by_p = self._by_subject, self._by_property
            by_sp, by_pv = self._by_subject_property, self._by_property_value
            discard = self._index_discard
            notify = self._notify if self._listeners else None
            for t in victims:
                sequence = members.pop(t)
                discard(by_s, t.subject, t)
                discard(by_p, t.property, t)
                discard(by_sp, (t.subject, t.property), t)
                discard(by_pv, (t.property, t.value), t)
                if notify is not None:
                    notify("remove", t, sequence)
            return len(victims)

    def clear(self) -> None:
        """Delete every triple (listeners see each removal).

        One-pass reset: the membership map and all four indexes are dropped
        wholesale instead of N ``remove`` calls doing per-bucket cleanup.
        Listeners are still notified once per removed triple (in insertion
        order), so undo logs can restore the contents.
        """
        with self._lock:
            if self._pending:
                self._flush_bulk()
            victims = list(self._triples.items())
            if not victims:
                return
            self._triples = {}
            self._by_subject = {}
            self._by_property = {}
            self._by_subject_property = {}
            self._by_property_value = {}
            for triple, sequence in victims:
                self._notify("remove", triple, sequence)

    # -- selection query (the TRIM query operation) --------------------------

    def match(self, subject: Optional[Resource] = None,
              property: Optional[Resource] = None,
              value: Optional[Node] = None) -> Iterator[Triple]:
        """Yield triples matching the fixed fields (``None`` = wildcard).

        One index source drives the iteration — an exact compound bucket
        when ``(subject, property)`` or ``(property, value)`` are fixed
        together, a membership probe when all three are fixed, else the
        source :meth:`_candidates` picks — and any remaining fixed field
        is checked per candidate.  With no field fixed this iterates the
        whole store.

        During a :meth:`bulk` load the owner thread flushes pending
        inserts first, so its selections never observe stale indexes;
        other threads read the last-flush snapshot without flushing.  When
        a writer may race, the bucket is snapshotted (:meth:`_stable`)
        before the first yield.
        """
        self._read_barrier()
        if subject is not None and property is not None and value is not None:
            probe = Triple(subject, property, value)
            if probe in self._triples:
                yield probe
            return
        if subject is not None and property is not None:
            # Exact bucket: no residual checks needed.
            yield from self._stable(self._by_subject_property.get(
                (subject, property), _EMPTY))
            return
        if property is not None and value is not None:
            yield from self._stable(self._by_property_value.get(
                (property, value), _EMPTY))
            return
        candidates = self._candidates(subject, property, value)
        for triple in candidates:
            if subject is not None and triple.subject != subject:
                continue
            if property is not None and triple.property != property:
                continue
            if value is not None and triple.value != value:
                continue
            yield triple

    def select(self, subject: Optional[Resource] = None,
               property: Optional[Resource] = None,
               value: Optional[Node] = None) -> List[Triple]:
        """Like :meth:`match` but materialized, in insertion order."""
        hits = list(self.match(subject, property, value))
        members = self._triples
        if self.concurrent:
            # A racing removal may have dropped a hit's sequence between
            # the match and the sort; order it first rather than raise.
            hits.sort(key=lambda t: members.get(t, -1))
        else:
            hits.sort(key=members.__getitem__)
        return hits

    def one(self, subject: Optional[Resource] = None,
            property: Optional[Resource] = None,
            value: Optional[Node] = None) -> Optional[Triple]:
        """Return the single matching triple, ``None`` if there is none.

        Raises :class:`LookupError` when more than one triple matches —
        use this for functional (single-valued) properties only.
        """
        found: Optional[Triple] = None
        for triple in self.match(subject, property, value):
            if found is not None:
                raise LookupError(
                    f"expected at most one triple for ({subject}, {property}, {value})")
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
            raise LookupError(f"{subject} {property} holds a resource, not a literal")
        return node.value

    def values_of(self, subject: Resource, property: Resource) -> List[Node]:
        """All values of a property on *subject*, in insertion order."""
        return [t.value for t in self.select(subject=subject, property=property)]

    # -- statistics (read by the query planner) -------------------------------

    def count(self, subject: Optional[Resource] = None,
              property: Optional[Resource] = None,
              value: Optional[Node] = None) -> int:
        """How many triples match the selection, without materializing it.

        Exact for every combination.  O(1) where an index covers it: no
        fields (store size), subject, property, ``(subject, property)``,
        ``(property, value)``, and all three (membership probe).  A value
        alone sums its ``(property, value)`` buckets, one probe per
        property; ``(subject, value)`` counts the subject bucket's triples
        holding the value.
        """
        self._read_barrier()
        if subject is not None and property is not None and value is not None:
            return 1 if Triple(subject, property, value) in self._triples else 0
        if subject is not None and property is not None:
            return len(self._by_subject_property.get((subject, property), _EMPTY))
        if property is not None and value is not None:
            return len(self._by_property_value.get((property, value), _EMPTY))
        if subject is not None and value is not None:
            return sum(t.value == value for t in self._stable(
                self._by_subject.get(subject, _EMPTY)))
        if subject is not None:
            return len(self._by_subject.get(subject, _EMPTY))
        if property is not None:
            return len(self._by_property.get(property, _EMPTY))
        if value is not None:
            by_pv = self._by_property_value
            return sum(len(by_pv.get((prop, value), _EMPTY))
                       for prop in self._stable(self._by_property.keys()))
        return len(self._triples)

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        n = len(self._triples)
        if self._pending is not None and self._is_bulk_owner():
            n += len(self._pending_map)
        return n

    def __contains__(self, triple: Triple) -> bool:
        if triple in self._triples:
            return True
        return (self._pending is not None and self._is_bulk_owner()
                and triple in self._pending_map)

    def __iter__(self) -> Iterator[Triple]:
        self._read_barrier()
        if self.concurrent or self._pending is not None:
            # list(dict) is a single C-level operation, so the snapshot is
            # consistent even while a writer races.
            return iter(list(self._triples))
        return iter(self._triples)

    def _scan_source(self) -> Iterable[Triple]:
        """The membership map, snapshotted when a writer may race."""
        self._read_barrier()
        if self.concurrent or self._pending is not None:
            return list(self._triples)
        return self._triples

    def subjects(self) -> List[Resource]:
        """Distinct subjects, in first-appearance order."""
        seen: Dict[Resource, None] = {}
        for triple in self._scan_source():
            seen.setdefault(triple.subject, None)
        return list(seen)

    def properties(self) -> List[Resource]:
        """Distinct properties, in first-appearance order."""
        seen: Dict[Resource, None] = {}
        for triple in self._scan_source():
            seen.setdefault(triple.property, None)
        return list(seen)

    def resources(self) -> List[Resource]:
        """Every resource mentioned in any position, first-appearance order."""
        seen: Dict[Resource, None] = {}
        for triple in self._scan_source():
            seen.setdefault(triple.subject, None)
            seen.setdefault(triple.property, None)
            if isinstance(triple.value, Resource):
                seen.setdefault(triple.value, None)
        return list(seen)

    def estimated_bytes(self) -> int:
        """Rough in-memory footprint of the stored statements.

        Counts the string payload of every field of every triple (URIs and
        literal reprs) plus a fixed per-triple and per-index-entry overhead
        — four index entries per triple (two single-field, two compound).
        Used by the space-overhead benchmark (claim C-1); the absolute
        number is indicative, the *ratio* against a native representation
        is what the paper's trade-off discussion is about.
        """
        per_triple_overhead = 3 * 8 + 48   # three refs + container slots
        count = 0
        total = 0
        for triple in self._scan_source():
            total += len(triple.subject.uri)
            total += len(triple.property.uri)
            if isinstance(triple.value, Resource):
                total += len(triple.value.uri)
            else:
                total += len(str(triple.value.value))
            total += per_triple_overhead
            count += 1
        # Each triple appears in four index sets (2 single + 2 compound).
        total += 4 * count * 8
        return total

    # -- listeners -----------------------------------------------------------

    def add_listener(self, listener: ChangeListener) -> Callable[[], None]:
        """Register a change listener; returns an unsubscribe callable.

        Listeners are called *after* each mutation as
        ``listener(action, triple, sequence)`` with ``action`` one of
        ``'add'``/``'remove'`` and ``sequence`` the triple's insertion
        number (see :data:`ChangeListener`).  Both store implementations
        honour the same contract — pinned by the parity suite.

        Subscribing during a :meth:`bulk` load flushes pending inserts
        first, so a new listener never receives events for mutations that
        happened before it attached.
        """
        with self._lock:
            if self._pending:
                self._flush_bulk()
            self._listeners.append(listener)

        def unsubscribe() -> None:
            with self._lock:
                if listener in self._listeners:
                    self._listeners.remove(listener)

        return unsubscribe

    # -- internals -----------------------------------------------------------

    def _candidates(self, subject: Optional[Resource],
                    property: Optional[Resource],
                    value: Optional[Node]) -> Iterable[Triple]:
        """The one source for a selection no compound index answers,
        via :meth:`_stable`: the subject bucket when the subject is fixed,
        else the property bucket, else — a value alone — the value's
        ``(property, value)`` buckets under a snapshot of the property
        keys, collected up front; the whole membership map when nothing
        is fixed.

        Callers that mutate while consuming must snapshot first, as
        :meth:`remove_matching` does.
        """
        if subject is not None:
            return self._stable(self._by_subject.get(subject, _EMPTY))
        if property is not None:
            return self._stable(self._by_property.get(property, _EMPTY))
        if value is not None:
            by_pv = self._by_property_value
            hits: List[Triple] = []
            for prop in self._stable(self._by_property.keys()):
                hits.extend(self._stable(by_pv.get((prop, value), _EMPTY)))
            return hits
        return self._stable(self._triples.keys())

    def _stable(self, source: Iterable[Triple]) -> Iterable[Triple]:
        """*source* itself, or a ``tuple()`` snapshot of it when a writer
        may race (``concurrent`` mode or an open bulk load).  The retry
        covers a collection, run by the tuple's allocation, whose
        finalizers let a writer resize *source* (DESIGN.md §10)."""
        if not (self.concurrent or self._pending is not None):
            return source
        while True:
            try:
                return tuple(source)
            except RuntimeError:
                continue

    def _index_insert(self, triple: Triple) -> None:
        self._by_subject.setdefault(triple.subject, set()).add(triple)
        self._by_property.setdefault(triple.property, set()).add(triple)
        self._by_subject_property.setdefault(
            (triple.subject, triple.property), set()).add(triple)
        self._by_property_value.setdefault(
            (triple.property, triple.value), set()).add(triple)

    @staticmethod
    def _index_discard(index: Dict, key, triple: Triple) -> None:
        bucket = index.get(key)
        if bucket is not None:
            bucket.discard(triple)
            if not bucket:
                del index[key]

    def _notify(self, action: str, triple: Triple, sequence: int) -> None:
        for listener in list(self._listeners):
            listener(action, triple, sequence)
