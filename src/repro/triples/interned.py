"""An interned (dictionary-encoded) triple store.

Section 6: *"In applications of our SLIM Store technology beyond SLIMPad,
some data sets are quite large and we are developing alternative
implementation mechanisms."*  This is that alternative: node payloads are
interned once into integer ids, statements are stored as id-triples, and
the field indexes map ids to statement sets.  Repeated URIs (the common
case — every triple repeats property names, every instance repeats its
subject) are stored once.

:class:`InternedTripleStore` implements the same core surface as
:class:`~repro.triples.store.TripleStore` (add/restore/remove/match/select/
one/value_of/values_of/count/clear/len/contains/iter/estimated_bytes, the
:attr:`generation` counter, and per-mutation change listeners with
sequence numbers), so TRIM-level code, the query planner, cached views,
the undo log, the write-ahead log, and the ablation bench can swap it in.
The shared contract is pinned by ``tests/test_triples_store_parity.py``
— including the concurrency contract: lock-guarded mutations, lock-free
snapshot reads during bulk loads, and the opt-in ``concurrent=True``
mode's snapshotting readers (see the ``store`` module docstring and
DESIGN.md §10).  One invariant specific to this implementation: reader
threads never touch the intern table's write path — ``_intern`` runs
only under the store lock, readers use ``_lookup``.
"""

from __future__ import annotations

import threading
from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Set,
                    Tuple)

from repro.errors import TransactionError, TripleNotFoundError
from repro.triples.store import (AtomicListener, BulkLoad, ChangeListener,
                                 TripleStore)

from repro.triples.triple import Literal, Node, Resource, Triple

_Key = Tuple[int, int, int]

_EMPTY: "frozenset[_Key]" = frozenset()


class InternedTripleStore:
    """Set of triples over an interning node table."""

    def __init__(self, concurrent: bool = False) -> None:
        self._node_ids: Dict[Node, int] = {}
        self._nodes: List[Node] = []
        self._statements: Dict[_Key, int] = {}    # key -> insertion seq
        self._sequence = 0
        self._generation = 0
        self._by_subject: Dict[int, Set[_Key]] = {}
        self._by_property: Dict[int, Set[_Key]] = {}
        self._by_value: Dict[int, Set[_Key]] = {}
        # Compound indexes over id pairs, mirroring TripleStore's.
        self._by_subject_property: Dict[Tuple[int, int], Set[_Key]] = {}
        self._by_property_value: Dict[Tuple[int, int], Set[_Key]] = {}
        self._listeners: List[ChangeListener] = []
        self.concurrent = concurrent
        self._lock = threading.RLock()
        # Bulk-load state, mirroring TripleStore's (see BulkLoad): pending
        # entries carry the original Triple so flush-time listener fan-out
        # never re-materializes nodes.  The map mirrors the list for O(1)
        # owner-thread membership and dedup.
        self._pending: Optional[List[Tuple[_Key, Triple, int]]] = None
        self._pending_map: Dict[_Key, int] = {}
        self._bulk_owner: Optional[int] = None
        self._bulk_seq_mark = 0
        self._atomic_depth = 0
        self._atomic_listeners: List[AtomicListener] = []

    # -- locking / atomic scopes ---------------------------------------------

    @property
    def lock(self) -> "threading.RLock":
        """The store's mutation lock (same contract as
        :attr:`TripleStore.lock`)."""
        return self._lock

    @property
    def in_atomic(self) -> bool:
        """Whether an atomic scope (bulk load or Batch) is open."""
        return self._atomic_depth > 0

    def begin_atomic(self) -> None:
        """Open an atomic scope (same contract as
        :meth:`TripleStore.begin_atomic`)."""
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
            self._fire_atomic_end()

    def add_atomic_listener(self, listener: AtomicListener) -> Callable[[], None]:
        """Register a callback for outermost atomic-scope exit (same
        contract as :meth:`TripleStore.add_atomic_listener`)."""
        with self._lock:
            self._atomic_listeners.append(listener)

        def unsubscribe() -> None:
            with self._lock:
                if listener in self._atomic_listeners:
                    self._atomic_listeners.remove(listener)

        return unsubscribe

    def _fire_atomic_end(self) -> None:
        for listener in list(self._atomic_listeners):
            listener()

    # -- bulk loading ------------------------------------------------------------

    def bulk(self) -> BulkLoad:
        """A deferred-indexing ingest context (see
        :class:`~repro.triples.store.BulkLoad`); same contract as
        :meth:`TripleStore.bulk`, pinned by the parity suite."""
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
            self._atomic_depth += 1

    def _end_bulk(self) -> None:
        with self._lock:
            self._flush_bulk()
            self._pending = None
            self._bulk_owner = None
            self._atomic_depth -= 1
            fire = self._atomic_depth == 0
        if fire:
            self._fire_atomic_end()

    def _abort_bulk(self) -> None:
        with self._lock:
            # Pending inserts never reached the statement map or indexes.
            # Aborted inserts keep their interned nodes — same tombstone-
            # free policy as remove(); the sequence counter rolls back.
            self._pending = None
            self._pending_map = {}
            self._bulk_owner = None
            self._sequence = self._bulk_seq_mark
            self._atomic_depth -= 1
            fire = self._atomic_depth == 0
        if fire:
            self._fire_atomic_end()

    def _is_bulk_owner(self) -> bool:
        return self._bulk_owner == threading.get_ident()

    def _read_barrier(self) -> None:
        """Owner-thread reads flush pending inserts first; other threads
        read the last-flush snapshot (see ``store._read_barrier``)."""
        if self._pending and self._is_bulk_owner():
            with self._lock:
                self._flush_bulk()

    def _flush_bulk(self) -> None:
        """Publish every pending insert: statement map first, then the
        indexes, then generation and listener fan-out — in insertion
        order.  Callers hold the store lock.  (Same publication ordering
        rationale as ``TripleStore._flush_bulk``.)"""
        pending = self._pending
        if not pending:
            self._bulk_seq_mark = self._sequence
            return
        self._pending = []
        self._pending_map = {}
        statements = self._statements
        tail = next(reversed(statements.values())) if statements else -1
        need_sort = False
        for key, _, sequence in pending:
            statements[key] = sequence
            if sequence < tail:
                need_sort = True
            else:
                tail = sequence
        if need_sort:
            self._statements = dict(
                sorted(statements.items(), key=lambda item: item[1]))
        if self.concurrent:
            self._publish_indexed(pending)
        else:
            by_s, by_p, by_v = (self._by_subject, self._by_property,
                                self._by_value)
            by_sp, by_pv = self._by_subject_property, self._by_property_value
            for key, _, _ in pending:
                by_s.setdefault(key[0], set()).add(key)
                by_p.setdefault(key[1], set()).add(key)
                by_v.setdefault(key[2], set()).add(key)
                by_sp.setdefault((key[0], key[1]), set()).add(key)
                by_pv.setdefault((key[1], key[2]), set()).add(key)
        self._generation += len(pending)
        self._bulk_seq_mark = self._sequence
        if self._listeners:
            for _, t, sequence in pending:
                self._notify("add", t, sequence)

    def _publish_indexed(self, pending: List[Tuple[_Key, Triple, int]]) -> None:
        """Multi-key publish for ``concurrent=True`` (same bucket rule as
        ``TripleStore._publish_indexed``)."""
        for index, key_of in (
                (self._by_subject, lambda k: k[0]),
                (self._by_property, lambda k: k[1]),
                (self._by_value, lambda k: k[2]),
                (self._by_subject_property, lambda k: (k[0], k[1])),
                (self._by_property_value, lambda k: (k[1], k[2]))):
            additions: Dict = {}
            for key, _, _ in pending:
                additions.setdefault(key_of(key), []).append(key)
            for index_key, keys in additions.items():
                old = index.get(index_key)
                if old is not None and len(keys) == 1:
                    old.add(keys[0])
                else:
                    index[index_key] = (set(keys) if old is None
                                        else old.union(keys))

    # -- interning ---------------------------------------------------------------

    def _intern(self, node: Node) -> int:
        # Mutators only, under the store lock: the id allocation is a
        # check-then-act and the _nodes append must pair with it.
        node_id = self._node_ids.get(node)
        if node_id is None:
            node_id = len(self._nodes)
            self._nodes.append(node)
            self._node_ids[node] = node_id
        return node_id

    def _lookup(self, node: Node) -> Optional[int]:
        return self._node_ids.get(node)

    def _key_of(self, triple: Triple) -> _Key:
        return (self._intern(triple.subject), self._intern(triple.property),
                self._intern(triple.value))

    def _triple_of(self, key: _Key) -> Triple:
        subject = self._nodes[key[0]]
        prop = self._nodes[key[1]]
        value = self._nodes[key[2]]
        assert isinstance(subject, Resource) and isinstance(prop, Resource)
        return Triple(subject, prop, value)

    # -- mutation ------------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert; returns whether the triple was new."""
        with self._lock:
            key = self._key_of(triple)
            if key in self._statements:
                return False
            if self._pending is not None:
                if key in self._pending_map:
                    return False
                sequence = self._sequence
                self._sequence += 1
                self._pending_map[key] = sequence
                self._pending.append((key, triple, sequence))
                return True
            sequence = self._insert_key(key)
            self._notify("add", triple, sequence)
            return True

    def restore(self, triple: Triple, sequence: int) -> bool:
        """Insert at a specific insertion-sequence position.

        Same contract as :meth:`TripleStore.restore`: re-adds the triple
        with its original sequence number so ordering survives undo/redo
        and WAL replay; a no-op when already present.
        """
        with self._lock:
            key = self._key_of(triple)
            if key in self._statements:
                return False
            if self._pending is not None:
                if key in self._pending_map:
                    return False
                self._pending_map[key] = sequence
                self._pending.append((key, triple, sequence))
                self._sequence = max(self._sequence, sequence + 1)
                return True
            out_of_order = bool(self._statements) and \
                sequence < next(reversed(self._statements.values()))
            self._insert_key(key, sequence)
            if out_of_order:
                self._statements = dict(
                    sorted(self._statements.items(), key=lambda item: item[1]))
            self._notify("add", triple, sequence)
            return True

    def restore_rows(self, nodes: List[Node],
                     rows: Iterable[Tuple[int, int, int, int]]) -> int:
        """Bulk-restore dictionary-encoded rows (binary snapshot fast path).

        The v3 snapshot loader hands over its decoded string dictionary
        and integer ``(subject-id, property-id, value-id, sequence)``
        rows wholesale; the dictionary maps straight into the intern
        table (on a fresh store snapshot ids and intern ids coincide, so
        no per-triple node hashing happens at all).  All-or-nothing: the
        statement map and all five indexes are built in local containers
        and installed only after every row has decoded — a bad row (id
        out of bounds, literal where a resource belongs) raises
        ``IndexError``/``ValueError`` and leaves the store untouched.

        Only valid on an empty store with no active bulk load and no
        change listeners (recovery runs before any attach); returns the
        number of statements restored.
        """
        with self._lock:
            if self._statements or self._pending is not None:
                raise TransactionError(
                    "restore_rows requires an empty, idle store")
            if self._listeners:
                raise TransactionError(
                    "restore_rows cannot notify change listeners")
            ids = [self._intern(node) for node in nodes]
            resource = [isinstance(node, Resource) for node in nodes]
            statements: Dict[_Key, int] = {}
            by_s: Dict[int, Set[_Key]] = {}
            by_p: Dict[int, Set[_Key]] = {}
            by_v: Dict[int, Set[_Key]] = {}
            by_sp: Dict[Tuple[int, int], Set[_Key]] = {}
            by_pv: Dict[Tuple[int, int], Set[_Key]] = {}
            tail = -1
            top = -1
            need_sort = False
            for sid, pid, vid, sequence in rows:
                if not (resource[sid] and resource[pid]):
                    raise ValueError(
                        "triple subject/property must be resources")
                key = (ids[sid], ids[pid], ids[vid])
                statements[key] = sequence
                if sequence < tail:
                    need_sort = True
                else:
                    tail = sequence
                if sequence > top:
                    top = sequence
                by_s.setdefault(key[0], set()).add(key)
                by_p.setdefault(key[1], set()).add(key)
                by_v.setdefault(key[2], set()).add(key)
                by_sp.setdefault((key[0], key[1]), set()).add(key)
                by_pv.setdefault((key[1], key[2]), set()).add(key)
            if need_sort:
                statements = dict(
                    sorted(statements.items(), key=lambda item: item[1]))
            self._statements = statements
            self._by_subject = by_s
            self._by_property = by_p
            self._by_value = by_v
            self._by_subject_property = by_sp
            self._by_property_value = by_pv
            self._sequence = max(self._sequence, top + 1)
            self._generation += len(statements)
            return len(statements)

    def sequence_of(self, triple: Triple) -> int:
        """The insertion-sequence number of a present triple (else raises).

        On the bulk-owner thread, pending (unflushed) inserts resolve too.
        """
        key = (self._lookup(triple.subject), self._lookup(triple.property),
               self._lookup(triple.value))
        if None not in key:
            sequence = self._statements.get(key)  # type: ignore[arg-type]
            if sequence is not None:
                return sequence
            if self._pending is not None and self._is_bulk_owner():
                sequence = self._pending_map.get(key)  # type: ignore[arg-type]
                if sequence is not None:
                    return sequence
        raise TripleNotFoundError(f"triple not in store: {triple}")

    def _insert_key(self, key: _Key, sequence: Optional[int] = None) -> int:
        if sequence is None:
            sequence = self._sequence
        self._statements[key] = sequence
        self._sequence = max(self._sequence, sequence + 1)
        self._generation += 1
        self._by_subject.setdefault(key[0], set()).add(key)
        self._by_property.setdefault(key[1], set()).add(key)
        self._by_value.setdefault(key[2], set()).add(key)
        self._by_subject_property.setdefault((key[0], key[1]), set()).add(key)
        self._by_property_value.setdefault((key[1], key[2]), set()).add(key)
        return sequence

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many; returns how many were new (batch fast path).

        Listeners (when present) see every insertion individually and in
        order, exactly as N :meth:`add` calls would notify them.
        """
        with self._lock:
            statements = self._statements
            key_of = self._key_of
            if self._pending is not None:
                pending = self._pending
                pending_map = self._pending_map
                added = 0
                for t in triples:
                    key = key_of(t)
                    if key in statements or key in pending_map:
                        continue
                    sequence = self._sequence
                    pending_map[key] = sequence
                    pending.append((key, t, sequence))
                    self._sequence += 1
                    added += 1
                return added
            notify = self._notify if self._listeners else None
            added = 0
            for t in triples:
                key = key_of(t)
                if key in statements:
                    continue
                sequence = self._insert_key(key)
                added += 1
                if notify is not None:
                    notify("add", t, sequence)
            return added

    def remove(self, triple: Triple) -> None:
        """Delete; raises :class:`TripleNotFoundError` when absent.

        Interned nodes are retained (tombstone-free removal of statements;
        node-table compaction is a rebuild, as in real dictionary-encoded
        stores).
        """
        with self._lock:
            if self._pending:
                self._flush_bulk()
            key = (self._lookup(triple.subject), self._lookup(triple.property),
                   self._lookup(triple.value))
            if None in key or key not in self._statements:  # type: ignore[comparison-overlap]
                raise TripleNotFoundError(f"triple not in store: {triple}")
            sequence = self._statements.pop(key)  # type: ignore[arg-type]
            self._generation += 1
            for index, index_key in ((self._by_subject, key[0]),
                                     (self._by_property, key[1]),
                                     (self._by_value, key[2]),
                                     (self._by_subject_property, (key[0], key[1])),
                                     (self._by_property_value, (key[1], key[2]))):
                self._bucket_discard(index, index_key, key)
            self._notify("remove", triple, sequence)

    @staticmethod
    def _bucket_discard(index: Dict, index_key, key) -> None:
        bucket = index.get(index_key)
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del index[index_key]

    def discard(self, triple: Triple) -> bool:
        """Delete if present; returns whether it was."""
        with self._lock:
            try:
                self.remove(triple)
                return True
            except TripleNotFoundError:
                return False

    def remove_matching(self, subject: Optional[Resource] = None,
                        property: Optional[Resource] = None,
                        value: Optional[Node] = None) -> int:
        """Delete every triple matching the selection; return the count.

        Batched removal fast path, mirroring
        :meth:`TripleStore.remove_matching`: victim keys are snapshotted
        once (match iterates live buckets), then dropped with bound
        locals.  Listeners still see every removal individually.
        """
        with self._lock:
            if self._pending:
                self._flush_bulk()
            victims = list(self._match_keys(subject, property, value))
            if not victims:
                return 0
            statements = self._statements
            notify = self._notify if self._listeners else None
            for key in victims:
                sequence = statements.pop(key)
                for index, index_key in ((self._by_subject, key[0]),
                                         (self._by_property, key[1]),
                                         (self._by_value, key[2]),
                                         (self._by_subject_property,
                                          (key[0], key[1])),
                                         (self._by_property_value,
                                          (key[1], key[2]))):
                    self._bucket_discard(index, index_key, key)
                self._generation += 1
                if notify is not None:
                    notify("remove", self._triple_of(key), sequence)
            return len(victims)

    def clear(self) -> None:
        """Delete every statement in one pass (intern table retained).

        Listeners are notified once per removed triple in insertion order,
        matching :meth:`TripleStore.clear`.
        """
        with self._lock:
            if self._pending:
                self._flush_bulk()
            count = len(self._statements)
            if not count:
                return
            victims = ([(self._triple_of(key), seq)
                        for key, seq in self._statements.items()]
                       if self._listeners else None)
            self._statements = {}
            self._by_subject = {}
            self._by_property = {}
            self._by_value = {}
            self._by_subject_property = {}
            self._by_property_value = {}
            self._generation += count
            if victims is not None:
                for triple, sequence in victims:
                    self._notify("remove", triple, sequence)

    # -- selection -------------------------------------------------------------------

    def match(self, subject: Optional[Resource] = None,
              property: Optional[Resource] = None,
              value: Optional[Node] = None) -> Iterator[Triple]:
        """Yield triples matching the fixed fields (``None`` = wildcard).

        During a :meth:`bulk` load the owner thread flushes pending
        inserts first; other threads read the last-flush snapshot.  The
        read path interns nothing — unknown nodes simply match nothing.
        """
        self._read_barrier()
        for key in self._match_keys(subject, property, value):
            yield self._triple_of(key)

    def _match_keys(self, subject: Optional[Resource],
                    property: Optional[Resource],
                    value: Optional[Node]) -> Iterator[_Key]:
        """Yield the statement keys matching the fixed fields."""
        ids = []
        for node in (subject, property, value):
            if node is None:
                ids.append(None)
                continue
            node_id = self._lookup(node)
            if node_id is None:
                return
            ids.append(node_id)
        sid, pid, vid = ids
        if sid is not None and pid is not None and vid is not None:
            key = (sid, pid, vid)
            if key in self._statements:
                yield key
            return
        if sid is not None and pid is not None:
            candidates: Iterable[_Key] = \
                self._by_subject_property.get((sid, pid), _EMPTY)
        elif pid is not None and vid is not None:
            candidates = self._by_property_value.get((pid, vid), _EMPTY)
        elif sid is not None and vid is not None:
            subj_bucket = self._by_subject.get(sid, _EMPTY)
            val_bucket = self._by_value.get(vid, _EMPTY)
            small, big = ((subj_bucket, val_bucket)
                          if len(subj_bucket) <= len(val_bucket)
                          else (val_bucket, subj_bucket))
            # Probing the live *big* set is one C step, atomic under races.
            yield from (k for k in self._stable(small) if k in big)
            return
        elif sid is not None:
            candidates = self._by_subject.get(sid, _EMPTY)
        elif pid is not None:
            candidates = self._by_property.get(pid, _EMPTY)
        elif vid is not None:
            candidates = self._by_value.get(vid, _EMPTY)
        else:
            candidates = self._statements.keys()
        yield from self._stable(candidates)

    # Same snapshot rule as TripleStore: a copy only when a writer may race.
    _stable = TripleStore._stable

    def select(self, subject: Optional[Resource] = None,
               property: Optional[Resource] = None,
               value: Optional[Node] = None) -> List[Triple]:
        """Materialized :meth:`match`, in insertion order.

        Works on statement keys directly (no re-interning of results, and
        nothing on this path writes the intern table).
        """
        self._read_barrier()
        keys = list(self._match_keys(subject, property, value))
        statements = self._statements
        if self.concurrent:
            keys.sort(key=lambda k: statements.get(k, -1))
        else:
            keys.sort(key=statements.__getitem__)
        return [self._triple_of(key) for key in keys]

    def one(self, subject: Optional[Resource] = None,
            property: Optional[Resource] = None,
            value: Optional[Node] = None) -> Optional[Triple]:
        """The single matching triple, ``None`` if none, LookupError if many."""
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

    # -- statistics (read by the query planner) ----------------------------------

    @property
    def generation(self) -> int:
        """Monotonic mutation counter: bumps on every add and remove."""
        return self._generation

    def count(self, subject: Optional[Resource] = None,
              property: Optional[Resource] = None,
              value: Optional[Node] = None) -> int:
        """Matching-triple count from index bucket sizes, without scanning.

        Same contract as :meth:`TripleStore.count`: exact for every indexed
        combination, an upper-bound estimate (smaller single-field bucket)
        for the uncovered ``(subject, value)`` pair.
        """
        self._read_barrier()
        ids = []
        for node in (subject, property, value):
            if node is None:
                ids.append(None)
                continue
            node_id = self._lookup(node)
            if node_id is None:
                return 0
            ids.append(node_id)
        sid, pid, vid = ids
        if sid is not None and pid is not None and vid is not None:
            return 1 if (sid, pid, vid) in self._statements else 0
        if sid is not None and pid is not None:
            return len(self._by_subject_property.get((sid, pid), _EMPTY))
        if pid is not None and vid is not None:
            return len(self._by_property_value.get((pid, vid), _EMPTY))
        if sid is not None and vid is not None:
            return min(len(self._by_subject.get(sid, _EMPTY)),
                       len(self._by_value.get(vid, _EMPTY)))
        if sid is not None:
            return len(self._by_subject.get(sid, _EMPTY))
        if pid is not None:
            return len(self._by_property.get(pid, _EMPTY))
        if vid is not None:
            return len(self._by_value.get(vid, _EMPTY))
        return len(self._statements)

    # -- inspection ----------------------------------------------------------------------

    def __len__(self) -> int:
        n = len(self._statements)
        if self._pending is not None and self._is_bulk_owner():
            n += len(self._pending_map)
        return n

    def __contains__(self, triple: Triple) -> bool:
        key = (self._lookup(triple.subject), self._lookup(triple.property),
               self._lookup(triple.value))
        if None in key:
            return False
        if key in self._statements:  # type: ignore[comparison-overlap]
            return True
        return (self._pending is not None and self._is_bulk_owner()
                and key in self._pending_map)

    def __iter__(self) -> Iterator[Triple]:
        self._read_barrier()
        if self.concurrent or self._pending is not None:
            return (self._triple_of(key) for key in list(self._statements))
        return (self._triple_of(key) for key in self._statements)

    def _scan_keys(self) -> Iterable[_Key]:
        """The statement map's keys, snapshotted when a writer may race."""
        self._read_barrier()
        if self.concurrent or self._pending is not None:
            return list(self._statements)
        return self._statements

    def subjects(self) -> List[Resource]:
        """Distinct subjects, in first-appearance order."""
        seen: Dict[int, None] = {}
        for key in self._scan_keys():
            seen.setdefault(key[0], None)
        return [self._nodes[node_id] for node_id in seen]  # type: ignore[misc]

    def properties(self) -> List[Resource]:
        """Distinct properties, in first-appearance order."""
        seen: Dict[int, None] = {}
        for key in self._scan_keys():
            seen.setdefault(key[1], None)
        return [self._nodes[node_id] for node_id in seen]  # type: ignore[misc]

    def node_count(self) -> int:
        """How many distinct nodes the intern table holds."""
        return len(self._nodes)

    def estimated_bytes(self) -> int:
        """Footprint: each node's payload once + fixed per-statement cost.

        Comparable with ``TripleStore.estimated_bytes`` (same payload
        accounting, same per-entry overhead constants, same five index
        entries per statement) so the ablation bench can report the savings
        of interning.
        """
        total = 0
        for node in list(self._nodes):
            if isinstance(node, Resource):
                total += len(node.uri)
            else:
                total += len(str(node.value))
            total += 16  # intern-table slot
        statement_count = len(self._statements)
        per_statement = 3 * 8 + 48   # three int ids + container slots
        total += statement_count * per_statement
        total += 5 * statement_count * 8  # index entries (3 single + 2 compound)
        return total

    # -- listeners ----------------------------------------------------------------

    def add_listener(self, listener: ChangeListener) -> Callable[[], None]:
        """Register a change listener; returns an unsubscribe callable.

        Same contract as :meth:`TripleStore.add_listener`: called after
        each mutation as ``listener(action, triple, sequence)``; pending
        bulk inserts are flushed before the listener attaches.
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

    def _notify(self, action: str, triple: Triple, sequence: int) -> None:
        for listener in list(self._listeners):
            listener(action, triple, sequence)
