"""The capture tap: record a live durable TRIM session as a replay bundle.

:class:`CaptureTap` attaches to a durable :class:`~repro.triples.trim.TrimManager`
and records the complete externally-visible operation stream:

- every store mutation, through the 3-argument change-listener contract
  (``action, triple, sequence``) — so adds made via DMI calls, bulk
  ingests, undo restores, and plain :meth:`TrimManager.create` all land
  in the bundle with their *global insertion sequences*, which is what
  lets the replayer rebuild byte-identical state;
- every durable commit boundary, by wrapping :meth:`TrimManager.commit`
  on the instance (detached cleanly by :meth:`detach`);
- the injected crash: a WAL byte-offset truncation recorded with
  :meth:`record_kill`.

The tap deliberately records at the change-stream level rather than the
API-call level: the stream is the store's linearization of whatever
concurrency produced it, so a race observed once is captured as the
exact interleaving that exposed it (free-form :meth:`note` hints can
annotate which thread did what).

Typical capture::

    trim = TrimManager(durable=directory)
    tap = CaptureTap(trim, seeds={"workload": 2001})
    ...drive the workload...
    tap.detach()
    trim.close()
    tap.record_kill(offset)             # then truncate wal.log at offset
    bundle = tap.finish(recover(directory).store)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ReplayError
from repro.replay import bundle as bundle_format
from repro.replay.digest import state_digest
from repro.triples.triple import Triple
from repro.triples.trim import TrimManager


class CaptureTap:
    """Records one durable TRIM session's ops, commits, and crash point.

    The session must already be durable (the replayer's contract is
    *recovered* state).
    """

    def __init__(self, trim: TrimManager,
                 seeds: Optional[Dict[str, int]] = None,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        durability = trim.durability
        if durability is None:
            raise ReplayError("capture requires a durable TrimManager "
                              "(the replay contract is recovered state)")
        self._trim = trim
        self._seeds = dict(seeds or {})
        self._meta = dict(meta or {})
        self._ops: List[Dict[str, Any]] = []
        self._interleave: List[str] = []
        self._terminal = False
        self._detached = False
        self.config: Dict[str, Any] = {
            "compact_every": durability.compact_every,
            "fsync": durability._wal._fsync,
        }
        self._unsubscribe = trim.store.add_listener(self._on_change)
        # Shadow the bound method with an instance attribute so every
        # commit path — direct calls, SLIMPad, DMI batches — is seen.
        self._wrapped_commit = trim.commit
        trim.commit = self._commit  # type: ignore[method-assign]

    @property
    def ops(self) -> List[Dict[str, Any]]:
        """The operation stream recorded so far (live list)."""
        return self._ops

    # -- recording ------------------------------------------------------------

    def _on_change(self, action: str, statement: Triple,
                   sequence: int) -> None:
        if self._terminal:
            return
        self._ops.append(bundle_format.encode_change(action, statement,
                                                     sequence))

    def _commit(self) -> bool:
        changed = self._wrapped_commit()
        if changed:
            self._ops.append({"op": "commit"})
        return changed

    def note(self, hint: str) -> None:
        """Append one free-form interleaving hint (e.g. which thread ran)."""
        self._interleave.append(hint)

    def record_kill(self, offset: int) -> None:
        """Record a WAL truncation at byte *offset* as the terminal op.

        The capturing harness performs the truncation itself (on the real
        WAL file or a copy); this just fixes the kill point in the
        bundle so the replayer cuts the regenerated log at the same byte.
        """
        if self._terminal:
            raise ReplayError("the session already has a terminal op")
        self._ops.append({"op": "kill", "offset": int(offset)})
        self._terminal = True

    # -- teardown -------------------------------------------------------------

    def detach(self) -> None:
        """Stop recording: unsubscribe the listener, unwrap commit."""
        if self._detached:
            return
        self._detached = True
        self._unsubscribe()
        # `==`, not `is`: accessing self._commit builds a fresh bound-
        # method object each time, so identity would never match.
        if self._trim.__dict__.get("commit") == self._commit:
            del self._trim.__dict__["commit"]

    def finish(self, recovered_store=None,
               captured_at: Optional[str] = None) -> Dict[str, Any]:
        """Detach and assemble the validated bundle document.

        *recovered_store* — the store the original session recovered to
        (via :func:`~repro.triples.wal.recover`) — stamps the
        bundle's ``outcome`` digest, the ground truth replays are
        checked against.  ``None`` leaves the outcome open (the first
        replay then defines it).
        """
        self.detach()
        outcome = None
        if recovered_store is not None:
            outcome = {"digest": state_digest(recovered_store),
                       "triples": len(recovered_store)}
        return bundle_format.make_bundle(
            self.config, self._ops, seeds=self._seeds,
            interleave=self._interleave, outcome=outcome,
            meta=self._meta, captured_at=captured_at)
