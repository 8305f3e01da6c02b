"""TRIM — the Triple Manager (Section 4.4, Fig. 9).

The paper: *"To manage triples, we use the TRIM (Triple Manager)
sub-component, which handles basic operations over the triple
representation. Through TRIM, the DMI can create, remove, persist (through
XML files), query, and create simple views over the underlying triples."*

:class:`TrimManager` is the façade the DMIs program against.  It owns a
:class:`~repro.triples.store.TripleStore`, a namespace registry, an id
generator for minting resources, and an undo log; and it exposes exactly
the five operation families the paper lists: create, remove, persist,
query (selection), and views.

Persistence comes in two strengths.  :meth:`save`/:meth:`load` are the
paper's explicit whole-store XML dump (now written atomically).  The
opt-in ``durable=`` mode attaches a write-ahead log plus snapshot
compaction (:mod:`repro.triples.wal`), so every mutation is logged and a
crash at any point recovers to the last :meth:`commit` boundary.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Hashable, Iterable, List, Optional,
                    Union)

from repro.triples import persistence
from repro.triples.cache import ReadCache
from repro.triples.namespaces import NamespaceRegistry
from repro.triples.query import Query
from repro.triples.store import TripleStore
from repro.triples.transactions import Batch, UndoLog
from repro.triples.triple import (Literal, LiteralValue, Node, Resource,
                                  Triple, triple)
from repro.triples.views import reachable_triples, view_key
from repro.triples.wal import Durability
from repro.util.identifiers import IdGenerator


def _recovery_stats_dict(result) -> Dict[str, Any]:
    """Flatten one :class:`~repro.triples.wal.RecoveryResult` for
    :meth:`TrimManager.recovery_stats`; empty when nothing recovered."""
    if result is None:
        return {}
    return {
        "snapshot_group": result.snapshot_group,
        "snapshot_triples": result.snapshot_triples,
        "groups_replayed": result.groups_replayed,
        "changes_replayed": result.changes_replayed,
        "last_group": result.last_group,
        "stage_seconds": dict(result.stage_seconds or {}),
    }


class IngestSession:
    """Context manager for a high-throughput ingest through a TRIM.

    Entering opens the store's bulk load (deferred index maintenance and
    listener fan-out); a clean exit flushes it and, under durable mode,
    commits everything as *one* WAL group — one fsync for the whole
    session.  An exception aborts still-pending inserts and commits
    nothing.  Obtained from :meth:`TrimManager.bulk_ingest`.
    """

    def __init__(self, trim: "TrimManager") -> None:
        self._trim = trim
        self._bulk = None

    def __enter__(self) -> "TrimManager":
        self._bulk = self._trim.store.bulk()
        self._bulk.__enter__()
        return self._trim

    def __exit__(self, exc_type, exc, tb) -> bool:
        bulk, self._bulk = self._bulk, None
        # The inner bulk's __exit__ return is deliberately discarded: even
        # if a future Batch/BulkLoad returned truthy, an exception raised
        # inside a ``with trim.bulk_ingest()`` block must propagate — a
        # swallowed ingest error would leave the WAL uncommitted while the
        # caller believes the session succeeded.
        bulk.__exit__(exc_type, exc, tb)
        if exc_type is None:
            self._trim.commit()
        return False


class TrimManager:
    """Façade bundling store + namespaces + ids + persistence + views.

    Pass ``durable=<directory>`` (or call :meth:`enable_durability`) for
    crash-safe persistence: existing state under the directory is
    recovered into the store, every subsequent mutation is logged, and
    :meth:`commit` marks atomic group boundaries.

    Pass ``concurrent=True`` when reader threads query while another
    thread ingests: reads (:meth:`select`, :meth:`count`, :meth:`query`,
    :meth:`reachable`) then run lock-free against the last-flushed
    snapshot and never force a mid-ingest index flush; each read iterates
    a snapshot of the index bucket it picks, so writers update buckets in
    place.
    """

    def __init__(self, namespaces: Optional[NamespaceRegistry] = None,
                 durable: Optional[str] = None,
                 compact_every: int = 64,
                 concurrent: bool = False,
                 cache: bool = True) -> None:
        self.store = TripleStore(concurrent=concurrent)
        self.namespaces = namespaces or NamespaceRegistry.with_defaults()
        self.ids = IdGenerator()
        self._undo: Optional[UndoLog] = None
        self._durability: Optional[Durability] = None
        self._cache: Optional[ReadCache] = \
            ReadCache(self.store) if cache else None
        if durable is not None:
            # Attaches the cache once recovery is done.
            self.enable_durability(durable, compact_every=compact_every)
        elif self._cache is not None:
            self._cache.attach()

    # -- create / remove ------------------------------------------------------

    def new_resource(self, prefix: str) -> Resource:
        """Mint a fresh resource id like ``bundle-000004``."""
        return Resource(self.ids.next(prefix))

    def create(self, subject: Union[str, Resource], prop: Union[str, Resource],
               value: Union[str, Resource, Literal, LiteralValue]) -> Triple:
        """Create and store one triple (see :func:`repro.triples.triple.triple`)."""
        statement = triple(subject, prop, value)
        self.store.add(statement)
        return statement

    def remove(self, statement: Triple) -> None:
        """Remove one triple; raises if absent."""
        self.store.remove(statement)

    def remove_about(self, subject: Resource) -> int:
        """Remove every triple whose subject is *subject*; return count."""
        return self.store.remove_matching(subject=subject)

    def batch(self) -> Batch:
        """A rollback-on-error batch over the store.

        Batches ride the store's bulk-ingest path: adds inside the batch
        defer index maintenance until the batch's first query, removal,
        or exit (see :class:`~repro.triples.transactions.Batch`).
        """
        return Batch(self.store)

    def bulk_ingest(self, triples: Optional[Iterable[Triple]] = None
                    ) -> Union[int, IngestSession]:
        """High-throughput ingest: deferred indexing + one commit group.

        With *triples*, adds them all through the store's bulk path,
        commits once (one fsync under durable mode), and returns how
        many were new::

            trim.bulk_ingest(statements)

        Without arguments, returns a session context manager for ingests
        that go through richer APIs (DMI creates, :meth:`create`)::

            with trim.bulk_ingest():
                for spec in specs:
                    trim.create(spec.subject, spec.prop, spec.value)

        Either way the whole ingest lands as a single WAL group, and an
        exception mid-ingest rolls back everything still pending without
        committing.
        """
        if triples is None:
            return IngestSession(self)
        with self.store.bulk():
            added = self.store.add_all(triples)
        self.commit()
        return added

    # -- query ----------------------------------------------------------------

    def read(self, key: Hashable, compute: Callable[[Any], list],
             copy: Callable[[list], list] = list) -> list:
        """Memoize one read: ``compute(store)`` under *key*.

        *compute* must read the store only through the object it is
        handed (``match``/``select``/``count``), which records the
        patterns it reads; the entry is dropped by the first write that
        matches one of them (see :mod:`repro.triples.cache`).  *copy*
        makes the caller-safe copy of a cached result.  With the cache
        off this is just ``compute(self.store)``.
        """
        cache = self._cache
        if cache is None:
            return compute(self.store)
        return cache.get(key, compute, copy)

    def select(self, subject: Optional[Resource] = None,
               prop: Optional[Resource] = None,
               value: Optional[Node] = None) -> List[Triple]:
        """TRIM's selection query: fix any subset of fields.

        Memoized until a write matching the selection, so repeated
        selections cost a dict probe plus a list copy (see
        :mod:`repro.triples.cache`).
        """
        return self.read(
            ("select", subject, prop, value),
            lambda store: store.select(subject=subject, property=prop,
                                       value=value))

    def value_of(self, subject: Resource, prop: Resource) -> Optional[Node]:
        """The single value of *prop* on *subject* (None when absent),
        through the select cache.  Raises ``LookupError`` on multiple."""
        hits = self.select(subject=subject, prop=prop)
        if not hits:
            return None
        if len(hits) > 1:
            raise LookupError(
                f"expected at most one match, found {len(hits)}")
        return hits[0].value

    def literal_of(self, subject: Resource, prop: Resource):
        """The single literal value of *prop* on *subject* (unwrapped),
        through the select cache; mirrors ``store.literal_of``."""
        node = self.value_of(subject, prop)
        if node is None:
            return None
        if not isinstance(node, Literal):
            raise LookupError(
                f"{subject} {prop} holds a resource, not a literal")
        return node.value

    def values_of(self, subject: Resource, prop: Resource) -> List[Node]:
        """All values of *prop* on *subject*, in insertion order, through
        the select cache."""
        return [t.value for t in self.select(subject=subject, prop=prop)]

    def count(self, subject: Optional[Resource] = None,
              prop: Optional[Resource] = None,
              value: Optional[Node] = None) -> int:
        """How many triples a selection would return, from index statistics
        alone — the counted fast path for existence and cardinality checks."""
        return self.store.count(subject=subject, property=prop, value=value)

    def query(self, query: Query) -> List[dict]:
        """Run a conjunctive :class:`~repro.triples.query.Query` (extension).

        Results are memoized on :meth:`Query.cache_key` —
        structurally equal queries share entries — until a write matches
        a pattern the evaluation or its planner read.  Returned binding
        dicts are caller-safe copies.
        """
        return self.read(query.cache_key(), query.run_all,
                         copy=lambda rows: [dict(row) for row in rows])

    def explain(self, query: Query):
        """The plan :meth:`query` would evaluate, as
        :class:`~repro.triples.query.PlanStep` s."""
        return query.explain(self.store)

    # -- views ----------------------------------------------------------------

    def reachable(self, root: Resource, follow_properties=None,
                  max_depth: Optional[int] = None) -> List[Triple]:
        """Section 4.4's "simple view": the triples reachable from *root*
        (:func:`~repro.triples.views.reachable_triples`), memoized until
        a write touches a visited resource's triples.  Returns a copy."""
        return self.read(
            view_key(root, follow_properties, max_depth),
            lambda store: reachable_triples(store, root, follow_properties,
                                            max_depth))

    # -- cache metrics ---------------------------------------------------------

    @property
    def cache(self) -> Optional[ReadCache]:
        """The select/query/view result cache (None when disabled)."""
        return self._cache

    def cache_stats(self) -> Dict[str, Any]:
        """Read-path cache metrics: the select/query/view cache counters,
        ``None`` when the cache is off.

        ::

            {"select_cache": {"hits": ..., "misses": ..., ...}}
        """
        return {"select_cache": (self._cache.stats()
                                 if self._cache is not None else None)}

    # -- persistence ----------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the store to an XML file (atomic temp+fsync+rename)."""
        persistence.save(self.store, path, self.namespaces)

    def load(self, path: str) -> None:
        """Replace the store contents from an XML file.

        Observed resource ids advance the id generator so subsequently
        minted ids never collide with loaded ones.  Under durable mode
        the clear and reload are logged like any other mutations.  The
        reload runs through the store's bulk path, so indexes are
        rebuilt in one pass rather than per triple.
        """
        loaded = persistence.load(path, self.namespaces)
        self.store.clear()
        with self.store.bulk():
            self.store.add_all(loaded)
        for resource in self.store.resources():
            self.ids.observe(resource.uri)

    def dumps(self) -> str:
        """The store as an XML string."""
        return persistence.dumps(self.store, self.namespaces)

    # -- durability (WAL + snapshots) ------------------------------------------

    def enable_durability(self, directory: str, compact_every: int = 64,
                          fsync: bool = True) -> Durability:
        """Attach crash-safe persistence rooted at *directory*.

        Recovers any existing snapshot + WAL state into the store (which
        must then be empty), then logs every mutation.  Recovered resource
        ids advance the id generator, like :meth:`load`.  Groups close
        only on :meth:`commit`.  Idempotent: returns the existing handle when already enabled.

        The read cache stops listening during recovery, so a snapshot
        loads through the store's listener-free ``restore_rows`` path,
        and resubscribes empty afterwards.
        """
        if self._durability is not None:
            return self._durability
        cache = self._cache
        if cache is not None:
            cache.detach()
        try:
            self._durability = Durability(self.store, directory,
                                          namespaces=self.namespaces,
                                          compact_every=compact_every,
                                          fsync=fsync)
        finally:
            if cache is not None:
                cache.attach()
        for resource in self.store.resources():
            self.ids.observe(resource.uri)
        return self._durability

    @property
    def durability(self) -> Optional[Durability]:
        """The attached durability handle, if durable mode is on."""
        return self._durability

    def recovery_stats(self) -> Dict[str, Any]:
        """What the last durable open recovered, and how long each stage
        took: volumes (snapshot triples, WAL replay counts) plus
        ``stage_seconds`` with ``snapshot_s``/``wal_s``.
        Empty when not durable or when the directory was fresh (nothing
        recovered).
        """
        dur = self._durability
        if dur is None:
            return {}
        return _recovery_stats_dict(dur.recovered)

    def commit(self) -> bool:
        """Close a durable group (fsync boundary); no-op when not durable.

        Call at user-level operation boundaries — everything since the
        previous commit becomes one atomic, crash-recoverable group.
        Returns whether anything was committed.
        """
        if self._durability is None:
            return False
        return self._durability.commit()

    def close(self) -> None:
        """Detach durability, if enabled (uncommitted changes are dropped),
        and the read cache.

        Both listen on the store, so both are unsubscribed: a closed
        manager holds no reference cycle and is freed by reference
        counting alone.  Reads still work and stay correct, computed
        fresh on every call until :meth:`enable_durability` reattaches
        the cache.  Idempotent and safe from ``__del__``-time teardown:
        repeated calls, and calls racing interpreter shutdown, are
        no-ops.
        """
        durability, self._durability = self._durability, None
        if durability is not None:
            durability.close()
        if self._cache is not None:
            self._cache.detach()

    def __enter__(self) -> "TrimManager":
        """Context-manager entry: the manager itself.

        ``with TrimManager(durable=dir) as trim:`` commits and closes on
        a clean exit, so short-lived tools (the CLI, tests) cannot leak a
        WAL handle.
        """
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Commit (clean exit only) and close; **never** suppresses.

        An exception inside the ``with`` block skips the commit — the
        WAL stays at the last explicit boundary, exactly what crash
        recovery replays — and always propagates: this method returns
        ``False`` unconditionally, regardless of what any inner context
        manager returned.
        """
        try:
            if exc_type is None:
                self.commit()
        finally:
            self.close()
        return False

    def __del__(self) -> None:
        try:
            self.close()
        except BaseException:
            pass

    # -- undo -----------------------------------------------------------------

    def enable_undo(self) -> UndoLog:
        """Attach (or return the existing) undo log."""
        if self._undo is None:
            self._undo = UndoLog(self.store)
        return self._undo

    @property
    def undo_log(self) -> Optional[UndoLog]:
        """The attached undo log, if enable_undo was called."""
        return self._undo
