"""Batches and undo/redo over a triple store.

The paper's DMI exposes create/update/delete operations that each expand to
several triple-level changes (an ``Update_bundlePos`` removes one triple
and adds another).  A :class:`Batch` groups those changes so a failed DMI
operation can roll back to a consistent state, and :class:`UndoLog` gives
the superimposed application user-level undo — the digital counterpart of
scribbling out an entry on a paper bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import TransactionError
from repro.triples.store import TripleStore
from repro.triples.triple import Triple


@dataclass(frozen=True)
class Change:
    """One recorded store mutation: ``action`` is ``'add'`` or ``'remove'``.

    ``sequence`` is the insertion-sequence number the triple held when the
    change was recorded, so inverting a removal puts the triple back at
    its *original* position — ``select()`` order and persisted files match
    the pre-change state exactly after an undo/rollback/redo cycle.
    """

    action: str
    triple: Triple
    sequence: int = -1

    def inverted(self) -> "Change":
        """The change that undoes this one."""
        return Change("remove" if self.action == "add" else "add",
                      self.triple, self.sequence)


def _apply(store: TripleStore, change: Change) -> None:
    if change.action == "add":
        if change.sequence >= 0:
            store.restore(change.triple, change.sequence)
        else:
            store.add(change.triple)
    else:
        store.discard(change.triple)


class Batch:
    """Context manager grouping store changes with rollback on error.

    ::

        with Batch(store) as batch:
            store.add(t1)
            store.remove(t2)
            # raising here rolls both back

    On normal exit the batch commits (changes stay) and its change list is
    available via :attr:`changes`.  Batches do not nest on one store.

    The batch rides the store's bulk-ingest fast path (``store.bulk()``)
    unless built with ``bulk=False``: adds made inside the batch defer
    index maintenance and listener fan-out until the batch's first
    selection, removal, or exit.  The rollback contract is unchanged — on
    a normal exit the deferred inserts flush (and are recorded as
    changes) before ``__exit__`` returns; on an exception, still-pending
    inserts are rolled back by the bulk abort and everything already
    flushed is inverted by :meth:`rollback`.  A batch cannot open while a
    bulk load someone else owns is active on the store.

    A batch never commits to the write-ahead log by itself: WAL groups
    close only on an explicit ``commit()``, so a caller that commits
    after the batch exits gets the batch's changes — and, on rollback,
    the inversions that revert them — in one group.
    """

    def __init__(self, store: TripleStore, bulk: bool = True) -> None:
        self._store = store
        self._changes: List[Change] = []
        self._unsubscribe = None
        self._use_bulk = bulk
        self._bulk = None

    def __enter__(self) -> "Batch":
        if self._unsubscribe is not None:
            raise TransactionError("batch already active")
        if self._store.in_bulk:
            raise TransactionError(
                "batch cannot open inside an active bulk load")
        self._unsubscribe = self._store.add_listener(self._record)
        if self._use_bulk:
            self._bulk = self._store.bulk()
            self._bulk.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._unsubscribe is None:
            raise TransactionError("batch exited without entering")
        if self._bulk is not None:
            # Flushes deferred inserts (success) — recording them via the
            # listener — or silently rolls them back (error).
            self._bulk.__exit__(exc_type, exc, tb)
            self._bulk = None
        self._unsubscribe()
        self._unsubscribe = None
        if exc_type is not None:
            self.rollback()
        return False  # never swallow exceptions

    def _record(self, action: str, triple: Triple, sequence: int) -> None:
        self._changes.append(Change(action, triple, sequence))

    @property
    def changes(self) -> List[Change]:
        """The mutations recorded so far, oldest first."""
        return list(self._changes)

    def rollback(self) -> None:
        """Undo every recorded change (newest first), then forget them."""
        for change in reversed(self._changes):
            _apply(self._store, change.inverted())
        self._changes.clear()


class UndoLog:
    """Linear undo/redo of grouped mutations on one store.

    Attach the log, mutate the store (directly or through a DMI), and call
    :meth:`checkpoint` after each user-level operation.  :meth:`undo`
    reverts the most recent group; :meth:`redo` re-applies it.  A new
    mutation after an undo discards the redo tail, as editors do.
    """

    def __init__(self, store: TripleStore) -> None:
        self._store = store
        self._pending: List[Change] = []
        self._undo_stack: List[List[Change]] = []
        self._redo_stack: List[List[Change]] = []
        self._replaying = False
        self._unsubscribe = store.add_listener(self._record)

    def detach(self) -> None:
        """Stop observing the store (pending changes are discarded)."""
        self._unsubscribe()
        self._pending.clear()

    def _record(self, action: str, triple: Triple, sequence: int) -> None:
        if self._replaying:
            return
        self._pending.append(Change(action, triple, sequence))
        self._redo_stack.clear()

    def checkpoint(self) -> bool:
        """Close the current group; return False if nothing changed."""
        if not self._pending:
            return False
        self._undo_stack.append(self._pending)
        self._pending = []
        return True

    @property
    def can_undo(self) -> bool:
        """Whether a checkpointed group is available to undo."""
        return bool(self._undo_stack)

    @property
    def can_redo(self) -> bool:
        """Whether an undone group is available to redo."""
        return bool(self._redo_stack)

    def undo(self) -> None:
        """Revert the latest checkpointed group."""
        if self._pending:
            raise TransactionError("checkpoint before undoing")
        if not self._undo_stack:
            raise TransactionError("nothing to undo")
        group = self._undo_stack.pop()
        self._replaying = True
        try:
            for change in reversed(group):
                _apply(self._store, change.inverted())
        finally:
            self._replaying = False
        self._redo_stack.append(group)

    def redo(self) -> None:
        """Re-apply the most recently undone group."""
        if not self._redo_stack:
            raise TransactionError("nothing to redo")
        group = self._redo_stack.pop()
        self._replaying = True
        try:
            for change in group:
                _apply(self._store, change)
        finally:
            self._replaying = False
        self._undo_stack.append(group)
