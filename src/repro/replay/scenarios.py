"""Built-in capture scenario: the WAL-kill crash family, bundled on demand.

It drives the failure shape the crash-injection suite sweeps — a WAL
kill at a byte offset (``tests/test_triples_wal.py``) — through a
:class:`~repro.replay.capture.CaptureTap`, producing a validated bundle
whose recorded outcome is the state the original run actually recovered
to.  The ``python -m repro replay record`` command fronts it; the test
suite captures its own scenarios directly.

The scenario is seed-deterministic: the same seed yields the same
workload, the same kill point, and therefore the same bundle outcome.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, Optional

from repro.replay.capture import CaptureTap
from repro.triples.trim import TrimManager
from repro.triples.wal import MAGIC, WAL_FILE, recover


def _workload(trim: TrimManager, tap: CaptureTap, rng: random.Random,
              commits: int) -> None:
    """A small mixed mutation script: adds, removes, commit boundaries."""
    for group in range(commits):
        tap.note(f"writer-0: group {group}")
        for j in range(rng.randrange(3, 8)):
            trim.create(f"slim:s{rng.randrange(16)}", f"slim:p{j % 3}",
                        rng.randrange(1000))
        if rng.random() < 0.5:
            hits = trim.store.select()
            if hits:
                trim.store.discard(hits[rng.randrange(len(hits))])
        trim.commit()


def capture_wal_kill(directory: str, seed: int = 2001,
                     offset: Optional[int] = None) -> Dict[str, Any]:
    """Capture a session killed at a WAL byte offset.

    Runs a seeded workload under *directory*, leaves an uncommitted
    tail (the classic never-recover case), truncates the WAL at
    *offset* (seed-chosen when ``None``), recovers, and returns the
    bundle with the recovered state as its outcome.
    """
    rng = random.Random(seed)
    trim = TrimManager(durable=directory, compact_every=10_000)
    tap = CaptureTap(trim, seeds={"workload": seed},
                     meta={"scenario": "wal-kill"})
    _workload(trim, tap, rng, commits=4)
    trim.create("ghost", "slim:p0", "uncommitted tail")
    tap.detach()
    trim.close()
    wal_path = os.path.join(directory, WAL_FILE)
    size = os.path.getsize(wal_path)
    if offset is None:
        offset = rng.randrange(len(MAGIC), size + 1)
    tap.record_kill(offset)
    with open(wal_path, "r+b") as handle:
        handle.truncate(offset)
    recovered = recover(directory).store
    return tap.finish(recovered)

