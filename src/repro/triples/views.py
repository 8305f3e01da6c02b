"""Reachability views over the triple store.

Section 4.4: *"A view is specified by selecting a resource (such as a
Bundle id), where all triples that can be reached from this resource are
returned (e.g., all triples representing nested Bundles within the given
Bundle along with their Scraps)."*

:func:`reachable_triples` computes that closure.  :class:`View` wraps a
root resource and keeps the closure current as the underlying store
changes (the paper calls these "simple views").  Since PR-6 a view is
maintained *incrementally* from the store's 3-arg change-listener stream:

* an insert whose subject is already reachable is appended to the
  materialized closure directly, and its resource value (when the
  traversal rules allow following it) is expanded with a bounded BFS that
  only walks the *new* frontier — a depth-relaxation pass when
  ``max_depth`` is set, since a new edge can shorten the path to an
  already-visited resource and pull previously-out-of-range nodes in;
* an insert whose subject is unreachable is an O(1) set-probe no-op;
* a removal of a triple *in* the closure marks the view dirty and the
  next read recomputes from scratch (a cut edge can strand an arbitrary
  subgraph, so there is no cheap incremental answer);
* a removal of a triple outside the closure is a no-op.

Event plumbing and lock order.  Store mutators fan events out *while
holding the store lock*, and a bulk-owner read inside a view refresh
takes the store lock through the read barrier — so the listener tap must
never take the view lock or the two orders would deadlock (store→view vs
view→store).  The tap therefore only appends to a ``collections.deque``
(atomic under the GIL) and the view's own lock guards nothing but
read-side materialization.  The tap holds only a weak reference to its
view and unsubscribes itself once the view is collected, so transient
views never accumulate in the store's listener list.  If the queue grows
past :data:`EVENT_QUEUE_LIMIT` between reads, events are dropped, an
overflow flag is set, and the next read falls back to a full recompute.

Stores without a listener stream (duck-typed stand-ins) recompute every
call; ``incremental=False`` selects the legacy behaviour — a full BFS
memoized against the store :attr:`~repro.triples.store.TripleStore.generation`
counter and re-run on any bump — kept as the benchmark baseline.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from typing import (Any, Dict, Iterable, List, Optional, Set, Tuple)

from repro.triples.store import TripleStore
from repro.triples.triple import Resource, Triple

#: Queued-but-unapplied change events per view before the view stops
#: buffering and schedules a full recompute instead.
EVENT_QUEUE_LIMIT = 4096


def reachable_triples(store: TripleStore, root: Resource,
                      follow_properties: Optional[Iterable[Resource]] = None,
                      max_depth: Optional[int] = None) -> List[Triple]:
    """All triples reachable from *root* by following resource-valued triples.

    Traversal is breadth-first from *root*: every triple whose subject is a
    visited resource is in the view, and resource values of those triples
    are visited in turn.  Cycles are handled (each resource expands once).

    ``follow_properties`` restricts which properties are traversed *through*
    (their triples are still included when the subject is reachable);
    ``max_depth`` bounds how many hops from the root are expanded.
    Results are in BFS discovery order, deterministic for a given store.
    """
    allowed = set(follow_properties) if follow_properties is not None else None
    visited: Set[Resource] = {root}
    queue = deque([(root, 0)])
    result: List[Triple] = []
    emitted: Set[Triple] = set()
    while queue:
        resource, depth = queue.popleft()
        for triple in store.select(subject=resource):
            if triple not in emitted:
                emitted.add(triple)
                result.append(triple)
            value = triple.value
            if not isinstance(value, Resource):
                continue
            if allowed is not None and triple.property not in allowed:
                continue
            if max_depth is not None and depth >= max_depth:
                continue
            if value not in visited:
                visited.add(value)
                queue.append((value, depth + 1))
    return result


def view_key(root: Resource,
             follow_properties: Optional[Iterable[Resource]] = None,
             max_depth: Optional[int] = None) -> Tuple:
    """The read-cache key of one :func:`reachable_triples` call: equal
    keys name the same closure (the followed properties are a set)."""
    follow = (frozenset(follow_properties)
              if follow_properties is not None else None)
    return ("view", root, follow, max_depth)


def reachable_resources(store: TripleStore, root: Resource,
                        follow_properties: Optional[Iterable[Resource]] = None,
                        max_depth: Optional[int] = None) -> List[Resource]:
    """The resources visited by :func:`reachable_triples`, root first."""
    allowed = set(follow_properties) if follow_properties is not None else None
    visited: Set[Resource] = {root}
    order: List[Resource] = [root]
    queue = deque([(root, 0)])
    while queue:
        resource, depth = queue.popleft()
        if max_depth is not None and depth >= max_depth:
            continue
        for triple in store.select(subject=resource):
            value = triple.value
            if not isinstance(value, Resource):
                continue
            if allowed is not None and triple.property not in allowed:
                continue
            if value not in visited:
                visited.add(value)
                order.append(value)
                queue.append((value, depth + 1))
    return order


class View:
    """A named, self-maintaining reachability view rooted at one resource.

    ::

        view = View(store, bundle_resource)
        view.triples()    # the closure vs the current contents
        view.snapshot()   # a detached TripleStore holding the closure

    The root and traversal options are fixed per instance.  On stores
    with a change-listener stream the closure is maintained
    incrementally (see the module docstring); pass ``incremental=False``
    for the legacy generation-memoized full recompute.  Returned lists
    are copies — mutating a result never corrupts later reads.

    Thread-safety: reads serialize on a per-view lock; the change tap
    runs lockless (see module docstring for the lock order) and event
    application is idempotent, so a tap racing a refresh at worst
    re-applies an event the refresh already observed.  During a bulk
    load no events fire until the flush, and reader threads materialize
    from the pinned last-flush snapshot — the queued flush events then
    catch the view up, so mid-ingest reads are consistent snapshots.

    Create views outside another thread's bulk window: subscribing the
    change tap attaches a store listener, which flushes pending inserts
    (the store's ``add_listener`` contract).
    """

    def __init__(self, store: TripleStore, root: Resource,
                 follow_properties: Optional[Iterable[Resource]] = None,
                 max_depth: Optional[int] = None,
                 incremental: bool = True) -> None:
        self._store = store
        self.root = root
        self._follow = list(follow_properties) if follow_properties is not None else None
        self._follow_set = set(self._follow) if self._follow is not None else None
        self._max_depth = max_depth
        self._lock = threading.RLock()
        # Published materialization (legacy modes key slot 0 on the store
        # generation; incremental mode keys it on a local epoch).
        self._cached_triples: Optional[Tuple[int, List[Triple]]] = None
        self._cached_resources: Optional[Tuple[int, List[Resource]]] = None
        # Incremental state, guarded by self._lock.
        self._depths: Dict[Resource, int] = {}
        self._order: List[Resource] = []
        self._emitted: Set[Triple] = set()
        self._list: List[Triple] = []
        self._materialized = False
        self._dirty = False
        self._epoch = 0
        # The tap appends here without any lock (GIL-atomic); overflow is
        # a latched flag, reset by the recompute it forces.
        self._events: "deque[Tuple[str, Triple]]" = deque()
        self._overflow = False
        self._unsubscribe = None
        # Metrics, read by TrimManager.cache_stats().
        self._reads = 0
        self._recomputes = 0
        self._events_applied = 0
        self._events_seen = 0
        self._overflows = 0
        self._incremental = bool(incremental) \
            and hasattr(store, "add_listener")
        if self._incremental:
            self._subscribe()

    # -- change-stream plumbing ----------------------------------------------

    def _subscribe(self) -> None:
        """Attach a weakly-bound tap to the store's listener stream."""
        view_ref = weakref.ref(self)
        cell: List[Any] = []

        def _tap(action: str, triple: Triple, sequence: int) -> None:
            view = view_ref()
            if view is None:
                # The view was collected; remove the tap so dead views
                # never accumulate in the store's listener list.
                if cell:
                    cell.pop()()
                return
            view._on_event(action, triple)

        cell.append(self._store.add_listener(_tap))
        self._unsubscribe = cell[0]

    def _on_event(self, action: str, triple: Triple) -> None:
        """Buffer one change event.  Runs under the *store* lock — must
        never take the view lock (lock order: store → tap, view → store)."""
        events = self._events
        if len(events) >= EVENT_QUEUE_LIMIT:
            self._overflow = True
            return
        events.append((action, triple))

    def close(self) -> None:
        """Detach from the store's listener stream (idempotent)."""
        unsubscribe, self._unsubscribe = self._unsubscribe, None
        if unsubscribe is not None:
            unsubscribe()

    def __del__(self) -> None:
        try:
            self.close()
        except BaseException:
            pass

    # -- incremental maintenance ---------------------------------------------

    def _recompute(self) -> None:
        """Full BFS re-materialization.  Caller holds the view lock."""
        self._overflow = False
        self._events.clear()
        depths: Dict[Resource, int] = {self.root: 0}
        order: List[Resource] = [self.root]
        emitted: Set[Triple] = set()
        result: List[Triple] = []
        follow = self._follow_set
        max_depth = self._max_depth
        queue = deque([(self.root, 0)])
        try:
            while queue:
                resource, depth = queue.popleft()
                for triple in self._store.select(subject=resource):
                    if triple not in emitted:
                        emitted.add(triple)
                        result.append(triple)
                    value = triple.value
                    if not isinstance(value, Resource):
                        continue
                    if follow is not None and triple.property not in follow:
                        continue
                    if max_depth is not None and depth >= max_depth:
                        continue
                    if value not in depths:
                        depths[value] = depth + 1
                        order.append(value)
                        queue.append((value, depth + 1))
        except BaseException:
            # Events were already drained for this recompute; re-latch the
            # overflow flag so the next read recomputes instead of trusting
            # a materialization we never finished.
            self._overflow = True
            raise
        self._depths = depths
        self._order = order
        self._emitted = emitted
        self._list = result
        self._materialized = True
        self._dirty = False
        self._recomputes += 1
        self._publish()

    def _publish(self) -> None:
        self._epoch += 1
        self._cached_triples = (self._epoch, self._list)
        self._cached_resources = (self._epoch, self._order)

    def _apply_add(self, triple: Triple) -> None:
        """Fold one inserted triple into the closure.

        Unreachable subject → O(1) no-op.  Reachable subject → emit the
        triple, and when its value is traversable, grow the frontier.
        """
        depth = self._depths.get(triple.subject)
        if depth is None:
            return
        if triple not in self._emitted:
            self._emitted.add(triple)
            self._list.append(triple)
        value = triple.value
        if not isinstance(value, Resource):
            return
        if self._follow_set is not None \
                and triple.property not in self._follow_set:
            return
        if self._max_depth is not None and depth >= self._max_depth:
            return
        self._grow(value, depth + 1)

    def _grow(self, start: Resource, depth: int) -> None:
        """BFS from a newly-reachable frontier, with depth relaxation.

        With ``max_depth`` set, a new edge can *shorten* the path to an
        already-visited resource; re-relaxing its depth may pull nodes
        that were previously one hop out of range into the closure, so
        visited nodes are re-expanded (but never re-emitted) whenever
        their depth improves.
        """
        store = self._store
        depths = self._depths
        emitted = self._emitted
        follow = self._follow_set
        max_depth = self._max_depth
        queue = deque([(start, depth)])
        while queue:
            node, d = queue.popleft()
            current = depths.get(node)
            if current is not None and (max_depth is None or current <= d):
                continue
            is_new = current is None
            depths[node] = d
            if is_new:
                self._order.append(node)
            expand = max_depth is None or d < max_depth
            if not is_new and not expand:
                continue
            for triple in store.select(subject=node):
                if is_new and triple not in emitted:
                    emitted.add(triple)
                    self._list.append(triple)
                if not expand:
                    continue
                value = triple.value
                if not isinstance(value, Resource):
                    continue
                if follow is not None and triple.property not in follow:
                    continue
                queue.append((value, d + 1))

    def _refresh(self) -> None:
        """Bring the materialization current.  Caller holds the view lock."""
        if not self._materialized or self._dirty or self._overflow:
            if self._overflow:
                self._overflows += 1
            self._recompute()
            return
        events = self._events
        applied = 0
        try:
            while events:
                try:
                    action, triple = events.popleft()
                except IndexError:       # pragma: no cover - tap races drain
                    break
                self._events_seen += 1
                if action == "add":
                    self._apply_add(triple)
                    applied += 1
                    continue
                # A removal: only a cut *inside* the closure recomputes.
                if triple in self._emitted:
                    self._dirty = True
                    self._recompute()
                    return
        except BaseException:
            self._dirty = True           # half-applied event: don't trust it
            raise
        if applied:
            self._events_applied += applied
            self._publish()

    # -- reads ----------------------------------------------------------------

    def triples(self) -> List[Triple]:
        """Evaluate the view against the current store contents."""
        if not self._incremental:
            return self._legacy_triples()
        with self._lock:
            self._reads += 1
            self._refresh()
            return list(self._list)

    def resources(self) -> List[Resource]:
        """Resources in the view, root first (BFS discovery order)."""
        if not self._incremental:
            return self._legacy_resources()
        with self._lock:
            self._reads += 1
            self._refresh()
            return list(self._order)

    def snapshot(self) -> TripleStore:
        """Materialize the view into an independent store."""
        snap = TripleStore()
        snap.add_all(self.triples())
        return snap

    def __len__(self) -> int:
        """Size of the closure (no copy)."""
        if not self._incremental:
            generation = getattr(self._store, "generation", None)
            cached = self._cached_triples
            if generation is not None and cached is not None \
                    and cached[0] == generation:
                return len(cached[1])
            return len(self._legacy_triples())
        with self._lock:
            self._reads += 1
            self._refresh()
            return len(self._list)

    # -- metrics --------------------------------------------------------------

    def cache_stats(self) -> Dict[str, Any]:
        """Maintenance counters for the metrics surface."""
        with self._lock:
            return {
                "root": self.root.uri,
                "incremental": self._incremental,
                "size": len(self._list) if self._materialized else None,
                "reads": self._reads,
                "recomputes": self._recomputes,
                "events_applied": self._events_applied,
                "events_seen": self._events_seen,
                "events_queued": len(self._events),
                "overflows": self._overflows,
            }

    # -- legacy (generation-memoized full recompute) ---------------------------

    def _legacy_triples(self) -> List[Triple]:
        generation = getattr(self._store, "generation", None)
        if generation is None:
            return reachable_triples(self._store, self.root,
                                     self._follow, self._max_depth)
        cached = self._cached_triples
        if cached is not None and cached[0] == generation:
            return list(cached[1])
        self._recomputes += 1
        result = reachable_triples(self._store, self.root,
                                   self._follow, self._max_depth)
        if getattr(self._store, "generation", None) == generation:
            self._cached_triples = (generation, result)
        return list(result)

    def _legacy_resources(self) -> List[Resource]:
        generation = getattr(self._store, "generation", None)
        if generation is None:
            return reachable_resources(self._store, self.root,
                                       self._follow, self._max_depth)
        cached = self._cached_resources
        if cached is not None and cached[0] == generation:
            return list(cached[1])
        result = reachable_resources(self._store, self.root,
                                     self._follow, self._max_depth)
        if getattr(self._store, "generation", None) == generation:
            self._cached_resources = (generation, result)
        return list(result)
