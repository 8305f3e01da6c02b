"""Re-execute a replay bundle against a fresh store and check the state.

:func:`replay` builds a fresh durable :class:`~repro.triples.trim.TrimManager`
with the bundle's recorded configuration, re-applies the operation
stream — every add at its captured global insertion sequence (via
``store.restore``, so ordering is reproduced exactly, not merely
membership), every remove, every commit boundary — injects the recorded
crash (a WAL byte truncation), runs recovery, and
returns the recovered store with its canonical digest.

Against the bundle's recorded ``outcome``, and between any two runs,
the digest must match byte for byte; :func:`replay_check` packages the
two-independent-runs assertion the acceptance criteria name.  A
mismatch raises :class:`~repro.errors.ReplayDivergenceError` carrying
both digests — the one-line signal that determinism broke somewhere
between the capture and this machine.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, NamedTuple, Optional

from repro.errors import ReplayDivergenceError, ReplayError
from repro.replay import bundle as bundle_format
from repro.replay.digest import state_digest
from repro.triples.trim import TrimManager
from repro.triples.wal import WAL_FILE, recover
from repro.util.stats import percentiles_us


class ReplayResult(NamedTuple):
    """What one replay run produced."""

    digest: str           #: sha256 of the recovered store's canonical form
    triples: int          #: recovered triple count
    ops_applied: int      #: operations re-executed from the bundle
    killed_at: Optional[int]  #: WAL truncation offset, when one was replayed
    store: Any            #: the recovered store itself
    #: Per-op re-execution latency percentiles (``p50_us``/``p95_us``/
    #: ``p99_us``) over every op in the bundle — the perf-regression
    #: gate reads these so a slow op class shows up as a tail shift,
    #: not just a total-seconds drift.  Empty dict on zero-op bundles.
    op_latency_us: Dict[str, float] = {}


def replay(bundle: Dict[str, Any], directory: str,
           verify_outcome: bool = True) -> ReplayResult:
    """Execute *bundle* under *directory* (which must be fresh/empty).

    With *verify_outcome* (the default), a bundle carrying a recorded
    ``outcome`` digest raises :class:`ReplayDivergenceError` unless the
    recovered state reproduces it exactly.
    """
    bundle = bundle_format.validate_bundle(bundle)
    config = bundle["config"]
    if os.path.isdir(directory) and os.listdir(directory):
        raise ReplayError(f"replay target {directory!r} is not empty — "
                          f"a replay must start from nothing")
    trim = TrimManager(cache=False)
    trim.enable_durability(directory,
                           compact_every=config.get("compact_every", 64),
                           fsync=config.get("fsync", False))
    killed_at: Optional[int] = None
    ops_applied = 0
    op_latencies: "list[float]" = []
    try:
        for op in bundle["ops"]:
            kind = op["op"]
            op_started = time.perf_counter()
            if kind == "add":
                _, statement, sequence = bundle_format.decode_change(op)
                trim.store.restore(statement, sequence)
            elif kind == "remove":
                _, statement, _ = bundle_format.decode_change(op)
                trim.store.discard(statement)
            elif kind == "commit":
                trim.commit()
            elif kind == "kill":
                killed_at = op["offset"]
            op_latencies.append(time.perf_counter() - op_started)
            ops_applied += 1
    finally:
        trim.close()
    if killed_at is not None:
        _truncate_wal(directory, killed_at)
    recovered = recover(directory).store
    result = ReplayResult(state_digest(recovered), len(recovered),
                          ops_applied, killed_at, recovered,
                          percentiles_us(op_latencies)
                          if op_latencies else {})
    outcome = bundle.get("outcome")
    if verify_outcome and outcome is not None \
            and result.digest != outcome["digest"]:
        raise ReplayDivergenceError(
            f"replay diverged from the captured outcome: recovered "
            f"{result.triples} triple(s) with digest {result.digest}, "
            f"bundle recorded {outcome['triples']} with "
            f"{outcome['digest']}")
    return result


def _truncate_wal(directory: str, offset: int) -> None:
    """Cut the regenerated WAL at the recorded kill offset."""
    path = os.path.join(directory, WAL_FILE)
    size = os.path.getsize(path) if os.path.exists(path) else 0
    if offset > size:
        raise ReplayDivergenceError(
            f"recorded kill offset {offset} lies past the regenerated "
            f"WAL ({size} bytes) — the replayed log diverged from the "
            f"captured one")
    with open(path, "r+b") as handle:
        handle.truncate(offset)


def replay_check(bundle: Dict[str, Any], directory: str,
                 runs: int = 2) -> "list[ReplayResult]":
    """The determinism gate: *runs* independent replays must agree.

    Each run executes in its own fresh subdirectory of *directory*; all
    resulting digests (and the bundle's recorded outcome, when present)
    must be identical, else :class:`ReplayDivergenceError`.
    """
    if runs < 1:
        raise ReplayError("runs must be >= 1")
    results = []
    for run in range(runs):
        target = os.path.join(directory, f"run-{run:02d}")
        os.makedirs(target, exist_ok=True)
        results.append(replay(bundle, target))
    digests = {result.digest for result in results}
    if len(digests) != 1:
        raise ReplayDivergenceError(
            f"{runs} replays of the same bundle produced "
            f"{len(digests)} distinct states: {sorted(digests)}")
    return results
