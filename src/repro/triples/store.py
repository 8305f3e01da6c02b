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
size estimator that claim C-3's superimposed-bytes figure reads.  A
selection fixing only the value probes its ``(property, value)`` bucket
under each property; real pads have a dozen properties or fewer.

Bucket shapes (DESIGN.md §7): a single-field bucket is always a ``set``.
A compound bucket holding one triple is that bare :class:`Triple`, and a
``set`` of two or more otherwise — on real pads nearly every compound
key holds one triple, and a one-element set costs 216 bytes.
:meth:`_bucket_insert`, :meth:`_bucket_discard` and :meth:`_bucket_view`
handle the two shapes for every other method (:meth:`restore_rows` only
stores a key's first triple bare itself): a second triple promotes a
bare bucket to a set, a removal leaving one triple demotes it, each
with one dict assignment.

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
each bucket before or after a write, never in between — a promotion or
demotion included, since it builds the new bucket before one dict
assignment publishes it and never mutates the old one.
"""

from __future__ import annotations

import threading
from typing import (Callable, Collection, Dict, ItemsView, Iterable,
                    Iterator, List, Optional, Set, Tuple, Union)

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

#: A compound-index bucket: the bare triple when its key holds one, else
#: a set of two or more.
Bucket = Union[Triple, Set[Triple]]


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

    A single-field index maps each key to a ``set``; a compound index
    maps it to the bare triple when the key holds one, else to a ``set``
    of two or more (see the module docstring).

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
        # (subject, value) read filters the subject bucket.  A key holding
        # one triple maps to the bare triple (see _bucket_insert).
        self._by_subject_property: Dict[Tuple[Resource, Resource], Bucket] = {}
        self._by_property_value: Dict[Tuple[Resource, Node], Bucket] = {}
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
            index_insert = self._index_insert
            for t, _ in pending:
                index_insert(t)
        self._bulk_seq_mark = self._sequence
        if self._listeners:
            for t, sequence in pending:
                self._notify("add", t, sequence)

    def _publish_indexed(self, pending: List[Tuple[Triple, int]]) -> None:
        """Multi-triple index publish (bulk flush, :meth:`add_all`) for
        ``concurrent=True``.

        Additions are grouped per bucket key, and each bucket takes its
        group in one step.  A set gaining one triple is updated in place.
        Any other change is built aside and published with a single dict
        assignment: a set gaining more is rebuilt once, a new compound key
        gaining one triple gets it bare, and a bare bucket gaining any is
        promoted to a set.  Readers see all or none of the batch's
        additions to a bucket, and the copy is amortized over the batch.
        """
        for index, key_of, insert in (
                (self._by_subject, lambda t: t.subject, self._set_insert),
                (self._by_property, lambda t: t.property, self._set_insert),
                (self._by_subject_property,
                 lambda t: (t.subject, t.property), self._bucket_insert),
                (self._by_property_value,
                 lambda t: (t.property, t.value), self._bucket_insert)):
            additions: Dict = {}
            for t, _ in pending:
                additions.setdefault(key_of(t), []).append(t)
            for key, ts in additions.items():
                insert(index, key, *ts)

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
        lock round trip, no pending buffer, no listener bookkeeping.  A
        compound key's first row stores its triple bare with one
        ``setdefault``; a later row for the key goes through
        :meth:`_bucket_insert`, which promotes the bucket to a set.
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
            by_sp: Dict[Tuple[Resource, Resource], Bucket] = {}
            by_pv: Dict[Tuple[Resource, Node], Bucket] = {}
            insert = self._bucket_insert
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
                if by_sp.setdefault(pair, t) is not t:
                    insert(by_sp, pair, t)
                pair = (prop, value)
                if by_pv.setdefault(pair, t) is not t:
                    insert(by_pv, pair, t)
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

        Batch fast path: locals are bound once, each new triple costs one
        membership probe plus four bucket inserts (:meth:`_publish_indexed`
        groups them per bucket in ``concurrent`` mode), and the listener
        fan-out is skipped entirely when nobody is subscribed.
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
            index_insert = self._index_insert
            notify = self._notify if self._listeners else None
            added = 0
            for t in triples:
                if t in members:
                    continue
                sequence = self._sequence
                members[t] = sequence
                self._sequence += 1
                index_insert(t)
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
            self._index_discard(triple)
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
        happen before the first removal mutates or demotes them), then
        dropped with bound locals — one membership pop plus four bucket
        discards each, instead of a full :meth:`remove` call per triple.
        A compound bucket that one discard leaves holding a single triple
        is demoted to that bare triple; one emptied is deleted.  A
        value-only selection collects its victims from the
        ``(property, value)`` buckets.  Listeners still see every removal
        individually, in match order.
        """
        with self._lock:
            if self._pending:
                self._flush_bulk()
            victims = list(self.match(subject, property, value))
            if not victims:
                return 0
            members = self._triples
            index_discard = self._index_discard
            notify = self._notify if self._listeners else None
            for t in victims:
                sequence = members.pop(t)
                index_discard(t)
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
            yield from self._stable(self._bucket_view(
                self._by_subject_property, (subject, property)))
            return
        if property is not None and value is not None:
            yield from self._stable(self._bucket_view(
                self._by_property_value, (property, value)))
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
        ``(property, value)``, and all three (membership probe).  A
        compound bucket counts 1 when it is a bare triple and its set's
        size otherwise (:meth:`_bucket_view`), never copying the set.  A
        value alone sums its ``(property, value)`` buckets, one probe per
        property; ``(subject, value)`` counts the subject bucket's triples
        holding the value.
        """
        self._read_barrier()
        if subject is not None and property is not None and value is not None:
            return 1 if Triple(subject, property, value) in self._triples else 0
        if subject is not None and property is not None:
            return len(self._bucket_view(
                self._by_subject_property, (subject, property)))
        if property is not None and value is not None:
            return len(self._bucket_view(
                self._by_property_value, (property, value)))
        if subject is not None and value is not None:
            return sum(t.value == value for t in self._stable(
                self._by_subject.get(subject, _EMPTY)))
        if subject is not None:
            return len(self._by_subject.get(subject, _EMPTY))
        if property is not None:
            return len(self._by_property.get(property, _EMPTY))
        if value is not None:
            view, by_pv = self._bucket_view, self._by_property_value
            return sum(len(view(by_pv, (prop, value)))
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
        Claim C-3's superimposed-bytes figure reads it beside the base
        documents' estimators of the same kind; it does not see container
        sizes, so claim C-1 measures allocations instead.
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
            view, by_pv = self._bucket_view, self._by_property_value
            hits: List[Triple] = []
            for prop in self._stable(self._by_property.keys()):
                hits.extend(self._stable(view(by_pv, (prop, value))))
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
        """Add a triple new to the store to all four indexes."""
        self._by_subject.setdefault(triple.subject, set()).add(triple)
        self._by_property.setdefault(triple.property, set()).add(triple)
        self._bucket_insert(self._by_subject_property,
                            (triple.subject, triple.property), triple)
        self._bucket_insert(self._by_property_value,
                            (triple.property, triple.value), triple)

    def _index_discard(self, triple: Triple) -> None:
        """Drop a present triple from all four indexes."""
        for index, key in ((self._by_subject, triple.subject),
                           (self._by_property, triple.property)):
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(triple)
                if not bucket:
                    del index[key]
        self._bucket_discard(self._by_subject_property,
                             (triple.subject, triple.property), triple)
        self._bucket_discard(self._by_property_value,
                             (triple.property, triple.value), triple)

    @staticmethod
    def _set_insert(index: Dict, key, triple: Triple, *more: Triple) -> None:
        """Add triples new to the store to a single-field (set) bucket:
        in place for one, a rebuilt set published with one dict
        assignment for more."""
        bucket = index.get(key)
        if bucket is None:
            index[key] = {triple, *more}
        elif more:
            index[key] = bucket.union((triple, *more))
        else:
            bucket.add(triple)

    @staticmethod
    def _bucket_insert(index: Dict, key, triple: Triple,
                       *more: Triple) -> None:
        """Add triples new to the store to a compound bucket, with at most
        one dict assignment: a new key gets one triple bare (or a set of
        several); a bare bucket is promoted to a set built aside; a set
        takes one triple in place, or is rebuilt once for more.  A bare
        bucket handed its own triple again stays bare."""
        bucket = index.get(key)
        if bucket is None:
            index[key] = {triple, *more} if more else triple
        elif type(bucket) is Triple:
            if more or bucket != triple:
                index[key] = {bucket, triple, *more}
        elif more:
            index[key] = bucket.union((triple, *more))
        else:
            bucket.add(triple)

    @staticmethod
    def _bucket_discard(index: Dict, key, triple: Triple) -> None:
        """Drop *triple* from a compound bucket.  A bare bucket holding it
        is deleted; a pair is demoted to its other triple with one dict
        assignment, leaving the old set untouched for any reader still
        iterating it; a larger set shrinks in place (it keeps two or
        more)."""
        bucket = index.get(key)
        if bucket is None:
            return
        if type(bucket) is Triple:
            if bucket == triple:
                del index[key]
        elif len(bucket) == 2:
            if triple in bucket:
                first, second = bucket
                index[key] = second if first == triple else first
        else:
            bucket.discard(triple)

    @staticmethod
    def _bucket_view(index: Dict, key) -> Collection[Triple]:
        """A compound bucket as a collection: ``(t,)`` for a bare triple,
        else the set itself (``_EMPTY`` for a missing key).  Callers that
        iterate it go through :meth:`_stable`, which snapshots a set when
        a writer may race and returns a tuple as it is; :meth:`count`
        takes its ``len`` without copying."""
        bucket = index.get(key, _EMPTY)
        if type(bucket) is Triple:
            return (bucket,)
        return bucket

    def _notify(self, action: str, triple: Triple, sequence: int) -> None:
        for listener in list(self._listeners):
            listener(action, triple, sequence)
