"""Generation-keyed memoization for repeated triple-store reads.

The dominant SLIMPad traffic shape is repeated reads — the same
``select()`` patterns and the same conjunctive queries, over a store that
mutates in bursts (PAPER.md section 4-5).  PR-1 gave every store a
monotonic :attr:`~repro.triples.store.TripleStore.generation` counter
whose contract is *equal generations guarantee identical contents*; that
makes the counter a ready-made invalidation token, and this module turns
it into a bounded result cache.

Keying.  An entry is keyed on the canonical read — ``('select', s, p, v)``
or a :meth:`~repro.triples.query.Query.cache_key` — and stamped with the
store's :attr:`~repro.triples.store.TripleStore.generation` as its
*token*, so any write invalidates every entry.

Snapshot safety.  The token is read *before* the fill computes and again
*after*; the entry is stored only when the two agree.  A bulk-load owner's
first read flushes pending inserts (bumping the generation between the
two reads), so a result computed from a half-pending view is returned to
its caller but never pinned.  Reader threads during a concurrent ingest
see a pinned last-flush generation and pinned last-flush contents, so
their fills are consistent snapshots and cache normally.  Token reads go
through the store's read barrier, so a bulk owner's *hit* path also
flushes first — read-your-writes survives memoization.

Bounds.  LRU over entries with three caps: entry count, total cached
items, and a per-result item ceiling (oversize results are returned but
never stored, so one huge scan cannot sweep the cache).  Results are
stored privately and copied out on every hit — callers may mutate what
they get back.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter
from typing import Any, Callable, Dict, Hashable, List, Optional

__all__ = ["GenerationCache"]


def _copy_rows(rows: List[dict]) -> List[dict]:
    return [dict(row) for row in rows]


class GenerationCache:
    """A bounded LRU of read results, invalidated by generation tokens.

    ::

        cache = GenerationCache(store)
        result = cache.get(('select', s, p, v),
                           lambda: store.select(subject=s, property=p, value=v))
        cache.stats()   # hits / misses / evictions / invalidations / ...

    The cache never serves a result whose token disagrees with the
    store's current one, so stale reads are impossible; the worst a race
    can cause is a skipped fill (counted under ``racy_fills_skipped``).

    Lock order: the cache lock is leaf-level — fills (which may take the
    store lock via the read barrier or the computation) always run
    *outside* it.
    """

    def __init__(self, store: Any, max_entries: int = 1024,
                 max_items: int = 200_000,
                 max_result_items: int = 25_000) -> None:
        self._store = store
        self._lock = threading.Lock()
        # key -> (token, result, item_count); insertion order == LRU order.
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._items = 0
        self.max_entries = max_entries
        self.max_items = max_items
        self.max_result_items = max_result_items
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._fills = 0
        self._racy_fills_skipped = 0
        self._oversize_skipped = 0
        self._uncacheable = 0
        self._fill_seconds = 0.0

    # -- tokens ---------------------------------------------------------------

    def _token(self) -> Optional[Hashable]:
        """The invalidation stamp: the store's generation.

        Read through the store's read barrier, so a bulk owner asking
        for a token flushes its pending inserts first and a memoized read
        keeps read-your-writes semantics.  A store without a generation
        (a duck-typed stand-in) yields ``None`` and the read is computed
        fresh every time.
        """
        store = self._store
        barrier = getattr(store, "_read_barrier", None)
        if barrier is not None:
            barrier()
        return getattr(store, "generation", None)

    # -- the one entry point --------------------------------------------------

    def get(self, key: Hashable, compute: Callable[[], list],
            copy: Callable[[list], list] = list) -> list:
        """Return the cached result for *key*, filling via *compute*.

        *copy* produces the caller-safe copy (``list`` for triple lists,
        a row-copying callable for query bindings).
        """
        token = self._token()
        if token is None:
            with self._lock:
                self._uncacheable += 1
            return compute()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry[0] == token:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return copy(entry[1])
                # Stale: the store moved on since this entry was filled.
                self._invalidations += 1
                self._items -= entry[2]
                del self._entries[key]
            else:
                self._misses += 1
        started = perf_counter()
        result = compute()
        elapsed = perf_counter() - started
        token_after = self._token()
        with self._lock:
            self._fill_seconds += elapsed
            if token_after != token:
                # A writer (or our own bulk flush) raced the fill; the
                # result may mix states across the flush, so hand it back
                # but never pin it to a token it does not represent.
                self._racy_fills_skipped += 1
                return result
            item_count = len(result)
            if item_count > self.max_result_items:
                self._oversize_skipped += 1
                return result
            stale = self._entries.pop(key, None)
            if stale is not None:
                self._items -= stale[2]
            self._entries[key] = (token, result, item_count)
            self._items += item_count
            self._fills += 1
            while self._entries and (len(self._entries) > self.max_entries
                                     or self._items > self.max_items):
                _, (_, _, evicted_items) = self._entries.popitem(last=False)
                self._items -= evicted_items
                self._evictions += 1
        return copy(result)

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._items = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- metrics --------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Counters for the metrics surface (``TrimManager.cache_stats``)."""
        with self._lock:
            lookups = self._hits + self._misses + self._invalidations
            fills = self._fills + self._racy_fills_skipped \
                + self._oversize_skipped
            return {
                "entries": len(self._entries),
                "items": self._items,
                "max_entries": self.max_entries,
                "max_items": self.max_items,
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
