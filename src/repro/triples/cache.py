"""Memoization for repeated triple-store reads, invalidated per pattern.

The dominant SLIMPad traffic shape is repeated reads — the same
``select()`` patterns, the same conjunctive queries and the same bundle
views, over a store that mutates one scrap at a time (PAPER.md sections
4-5).  This module turns those reads into a bounded result cache whose
entries survive every write that cannot change them.

Keying.  An entry is keyed on the canonical read — ``('select', s, p, v)``,
a :meth:`~repro.triples.query.Query.cache_key` or a
:func:`~repro.triples.views.view_key` — and remembers the ``(s, p, v)``
read patterns its fill issued against the store, ``None`` standing for a
wildcard: a select records its own pattern, a query every ``match`` it
runs and every ``count`` its planner runs, a view every
``select(subject=...)`` of its BFS.  Each read's result and count depend
only on the triples matching its own pattern, so that pattern is all it
records.

Invalidation.  The cache listens to the store's change stream.  A changed
triple ``(s, p, v)`` matches exactly eight patterns — each field either
fixed or a wildcard — so the listener drops just the entries that depend
on one of those eight.  Renaming a scrap leaves every join, every other
scrap's values and every view of a bundle without that scrap cached.

Snapshot safety.  The cache keeps its own epoch, bumped by the listener
under the cache lock.  A fill notes the epoch before it computes and is
stored only if the epoch has not moved by the time it inserts; otherwise
it is returned to its caller but not pinned (``racy_fills_skipped``).  This
relies on the store notifying only after the change is visible in its
indexes, which every mutation path does.  Lookups go through the store's
read barrier, so a bulk owner's pending inserts are flushed (and
notified) before its lookup — read-your-writes survives memoization —
while reader threads during a concurrent ingest see, fill and hit the
last-flush snapshot.  Lock order is store lock, then cache lock; fills
run outside the cache lock.

Recovery.  :meth:`ReadCache.detach` stops listening so a durable open can
take the store's listener-free ``restore_rows`` fast path;
:meth:`ReadCache.attach` resubscribes and drops every entry, since that
path notifies nobody.

Bounds.  LRU over entries with three caps: entry count, total size, and a
per-entry ceiling, where an entry's size is its result rows plus its
recorded patterns (oversize results are returned but never stored, so one
huge scan cannot sweep the cache).  Results are stored privately and
copied out on every hit — callers may mutate what they get back.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter
from typing import Any, Callable, Dict, Hashable, Optional, Set, Tuple

from repro.triples.store import TripleStore

__all__ = ["ReadCache"]

#: A read pattern: (subject, property, value), ``None`` = wildcard.
ReadPattern = Tuple[Any, Any, Any]


class _RecordingStore:
    """The store as a fill sees it: every read passes through and leaves
    its pattern behind in :attr:`patterns`."""

    __slots__ = ("_store", "patterns")

    def __init__(self, store: TripleStore) -> None:
        self._store = store
        self.patterns: Set[ReadPattern] = set()

    def _note(self, subject, prop, value) -> None:
        self.patterns.add((subject, prop, value))

    def match(self, subject=None, property=None, value=None):
        self._note(subject, property, value)
        return self._store.match(subject, property, value)

    def select(self, subject=None, property=None, value=None):
        self._note(subject, property, value)
        return self._store.select(subject, property, value)

    def count(self, subject=None, property=None, value=None):
        self._note(subject, property, value)
        return self._store.count(subject, property, value)


class ReadCache:
    """A bounded LRU of read results, invalidated by the patterns they read.

    ::

        cache = ReadCache(store)
        result = cache.get(('select', s, p, v),
                           lambda reads: reads.select(subject=s, property=p,
                                                      value=v))
        cache.stats()   # hits / misses / evictions / invalidations / ...

    *compute* receives a recording view of the store (``match``,
    ``select`` and ``count``) and must read only through it.  The cache
    never serves an entry after a change that matches one of its
    patterns, so stale reads are impossible; the worst a race can cause is
    a skipped fill (counted under ``racy_fills_skipped``).

    Lock order: the cache lock is leaf-level — fills (which may take the
    store lock via the read barrier) always run *outside* it.
    """

    #: Entry-count cap.
    MAX_ENTRIES = 1024
    #: Cap on the total size of all entries (result rows plus patterns).
    MAX_ITEMS = 200_000
    #: Largest single entry stored; a bigger result is returned unpinned.
    MAX_RESULT_ITEMS = 25_000

    def __init__(self, store: TripleStore) -> None:
        self._store = store
        self._lock = threading.Lock()
        # key -> (result, size, patterns); insertion order == LRU order.
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        # pattern -> keys of the entries that read it.
        self._deps: Dict[ReadPattern, Set[Hashable]] = {}
        self._epoch = 0
        self._unsubscribe: Optional[Callable[[], None]] = None
        self._items = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._fills = 0
        self._racy_fills_skipped = 0
        self._oversize_skipped = 0
        self._uncacheable = 0
        self._fill_seconds = 0.0

    # -- subscription ---------------------------------------------------------

    def attach(self) -> None:
        """Subscribe to the store's change stream and start caching.

        Drops every entry, so nothing filled while detached (or before a
        listener-free recovery) is served.  Idempotent.
        """
        if self._unsubscribe is not None:
            return
        unsubscribe = self._store.add_listener(self._on_change)
        with self._lock:
            self._unsubscribe = unsubscribe
            self._reset()

    def detach(self) -> None:
        """Unsubscribe and drop every entry; reads compute fresh (counted
        under ``uncacheable``) until the next :meth:`attach`.
        Idempotent."""
        with self._lock:
            unsubscribe, self._unsubscribe = self._unsubscribe, None
            self._reset()
        if unsubscribe is not None:
            unsubscribe()

    def _on_change(self, action: str, triple: Any, sequence: int) -> None:
        s, p, v = triple.subject, triple.property, triple.value
        with self._lock:
            self._epoch += 1
            deps = self._deps
            if not deps:
                return
            for pattern in ((s, p, v), (s, p, None), (s, None, v),
                            (s, None, None), (None, p, v), (None, p, None),
                            (None, None, v), (None, None, None)):
                keys = deps.pop(pattern, None)
                if keys:
                    for key in keys:
                        self._drop(key)
                    self._invalidations += len(keys)

    # -- the one entry point --------------------------------------------------

    def get(self, key: Hashable, compute: Callable[[Any], list],
            copy: Callable[[list], list] = list) -> list:
        """Return the cached result for *key*, filling via *compute*.

        *compute* is called with a recording view of the store; *copy*
        produces the caller-safe copy (``list`` for triple lists, a
        row-copying callable for query bindings).
        """
        store = self._store
        store._read_barrier()
        with self._lock:
            if self._unsubscribe is None:
                self._uncacheable += 1
                epoch = None
            else:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return copy(entry[0])
                self._misses += 1
                epoch = self._epoch
        if epoch is None:
            return compute(store)
        reads = _RecordingStore(store)
        started = perf_counter()
        result = compute(reads)
        elapsed = perf_counter() - started
        patterns = tuple(reads.patterns)
        size = len(result) + len(patterns)
        with self._lock:
            self._fill_seconds += elapsed
            if self._epoch != epoch:
                # A change landed while the fill ran; the result may
                # predate it, so hand it back but never pin it.
                self._racy_fills_skipped += 1
                return result
            if size > self.MAX_RESULT_ITEMS:
                self._oversize_skipped += 1
                return result
            if key in self._entries:
                self._drop(key)
            self._entries[key] = (result, size, patterns)
            self._items += size
            deps = self._deps
            for pattern in patterns:
                keys = deps.get(pattern)
                if keys is None:
                    deps[pattern] = {key}
                else:
                    keys.add(key)
            self._fills += 1
            while self._entries and (len(self._entries) > self.MAX_ENTRIES
                                     or self._items > self.MAX_ITEMS):
                self._drop(next(iter(self._entries)))
                self._evictions += 1
        return copy(result)

    # -- maintenance ----------------------------------------------------------

    def _drop(self, key: Hashable) -> None:
        """Remove one entry and its dependency links.  Caller holds the
        lock."""
        _, size, patterns = self._entries.pop(key)
        self._items -= size
        deps = self._deps
        for pattern in patterns:
            keys = deps.get(pattern)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del deps[pattern]

    def _reset(self) -> None:
        """Drop every entry and move the epoch, so no fill in flight is
        pinned.  Caller holds the lock."""
        self._entries.clear()
        self._deps.clear()
        self._items = 0
        self._epoch += 1

    def __len__(self) -> int:
        return len(self._entries)

    # -- metrics --------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Counters for the metrics surface (``TrimManager.cache_stats``).

        ``invalidations`` counts entries dropped by a matching change;
        ``hit_rate`` is hits over lookups (hits plus misses).
        """
        with self._lock:
            lookups = self._hits + self._misses
            fills = self._fills + self._racy_fills_skipped \
                + self._oversize_skipped
            return {
                "entries": len(self._entries),
                "items": self._items,
                "max_entries": self.MAX_ENTRIES,
                "max_items": self.MAX_ITEMS,
                "hits": self._hits,
                "misses": self._misses,
                "invalidations": self._invalidations,
                "evictions": self._evictions,
                "fills": self._fills,
                "racy_fills_skipped": self._racy_fills_skipped,
                "oversize_skipped": self._oversize_skipped,
                "uncacheable": self._uncacheable,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
                "fill_seconds": self._fill_seconds,
                "avg_fill_us": (self._fill_seconds / fills * 1e6)
                               if fills else 0.0,
            }
