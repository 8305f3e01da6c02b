"""Durability cost and recovery speed — WAL logging vs snapshots.

Two questions the crash-safe persistence layer (ISSUE 2) raises:

1. **Logged-write overhead** — what does attaching the write-ahead log
   cost a mutation-heavy session, with and without per-commit fsync,
   against the plain in-memory store?
2. **Recovery shape** — rebuilding the same N-triple state from a
   snapshot (one checksummed XML parse) versus replaying the whole WAL
   tail (N framed records through ``restore``).  This is the trade the
   compaction policy (``compact_every``) tunes.

Results print via ``print_table`` (run with ``-s``) and aggregate into
``BENCH_trim_durability.json`` at the repo root.  ``BENCH_SMOKE=1``
shrinks the workload and redirects the JSON to a temp path.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.triples.store import TripleStore
from repro.triples.trim import TrimManager
from repro.triples.triple import Resource, triple
from repro.triples.wal import (WAL_FILE, Durability, encode_change,
                               encode_commit, recover, scan_wal)
from repro.workloads.generator import random_triples

from benchmarks.conftest import print_table, run_once

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))
NUM_TRIPLES = 600 if _SMOKE else 6000
COMMIT_EVERY = 50        # user-operation sized groups
_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_trim_durability.json"

#: Sections accumulated by the tests below; the last test writes the file.
_RESULTS = {}


@pytest.fixture(scope="module")
def workload():
    """One deterministic mutation stream shared by every measurement."""
    return random_triples(NUM_TRIPLES, num_subjects=NUM_TRIPLES // 10,
                          num_properties=8)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _durable_session(directory, items, fsync, compact_every=10**9):
    """Write *items* through a durable TrimManager, committing in groups."""
    trim = TrimManager()
    trim.enable_durability(directory, compact_every=compact_every,
                           fsync=fsync)
    for i, t in enumerate(items):
        trim.store.add(t)
        if (i + 1) % COMMIT_EVERY == 0:
            trim.commit()
    trim.commit()
    return trim


def test_logged_write_overhead(benchmark, workload, tmp_path):
    """The WAL tax on a mutation-heavy session, fsync on and off."""
    def plain():
        store = TripleStore()
        for t in workload:
            store.add(t)
        return store

    plain_s, plain_store = _timed(plain)
    nosync_s, trim_nosync = _timed(lambda: _durable_session(
        str(tmp_path / "nosync"), workload, fsync=False))
    fsync_s, trim_fsync = run_once(benchmark, lambda: _timed(
        lambda: _durable_session(str(tmp_path / "fsync"), workload,
                                 fsync=True)))
    assert len(trim_nosync.store) == len(plain_store)
    assert len(trim_fsync.store) == len(plain_store)
    trim_nosync.close()
    trim_fsync.close()

    _RESULTS["logged_writes"] = {
        "triples": len(plain_store),
        "commit_every": COMMIT_EVERY,
        "plain_s": round(plain_s, 6),
        "wal_no_fsync_s": round(nosync_s, 6),
        "wal_fsync_s": round(fsync_s, 6),
        "overhead_no_fsync_x": round(nosync_s / plain_s, 2),
        "overhead_fsync_x": round(fsync_s / plain_s, 2),
    }
    print_table(
        f"Logged writes: {len(plain_store)} adds, commit every {COMMIT_EVERY}",
        ["path", "seconds", "vs plain"],
        [("in-memory store only", f"{plain_s:.6f}", "1.00x"),
         ("WAL, no fsync", f"{nosync_s:.6f}", f"{nosync_s / plain_s:.1f}x"),
         ("WAL, fsync per commit", f"{fsync_s:.6f}",
          f"{fsync_s / plain_s:.1f}x")])


def test_recovery_snapshot_vs_wal_replay(benchmark, workload, tmp_path):
    """Same final state, two recovery shapes: snapshot parse vs log replay."""
    wal_dir = str(tmp_path / "wal-only")
    trim = _durable_session(wal_dir, workload, fsync=False)
    trim.close()

    snap_dir = str(tmp_path / "snapshotted")
    trim = _durable_session(snap_dir, workload, fsync=False)
    trim.durability.compact()   # fold the whole log into a snapshot
    trim.close()

    replay_s, replayed = _timed(lambda: recover(wal_dir))
    snapshot_s, snapshotted = run_once(
        benchmark, lambda: _timed(lambda: recover(snap_dir)))
    assert list(replayed.store) == list(snapshotted.store)
    assert replayed.snapshot_triples == 0
    assert snapshotted.groups_replayed == 0
    assert len(replayed.store) == len(set(workload))

    _RESULTS["recovery"] = {
        "triples": len(replayed.store),
        "wal_groups_replayed": replayed.groups_replayed,
        "wal_replay_s": round(replay_s, 6),
        "snapshot_load_s": round(snapshot_s, 6),
        "snapshot_vs_replay_x": round(replay_s / snapshot_s, 2),
    }
    print_table(
        f"Recovery of {len(replayed.store)} triples",
        ["shape", "seconds", "vs snapshot"],
        [("snapshot only", f"{snapshot_s:.6f}", "1.00x"),
         (f"WAL replay ({replayed.groups_replayed} groups)",
          f"{replay_s:.6f}", f"{replay_s / snapshot_s:.1f}x")])


def _group_bytes(group, changes):
    """The bytes one committed group occupies in the WAL, frames included."""
    frame = 8   # u32 length + u32 crc32
    return (sum(frame + len(encode_change(change)) for change in changes)
            + frame + len(encode_commit(group)))


def test_compaction_bounds_recovery_time(benchmark, workload, tmp_path):
    """With compact_every set, the WAL recovery replays stays bounded.

    The routine step weighs the WAL every ``compact_every`` groups and
    rewrites the snapshot once the WAL is over the trigger, so the WAL a
    crash leaves holds at most the trigger plus one window's groups.
    After the workload the session commits tail groups until the WAL is
    over the trigger between two checks, and ends there: the next check
    is still some groups away, so recovery replays nearly the most WAL
    the bound allows.
    """
    directory = str(tmp_path / "compacting")
    trim = _durable_session(directory, workload, fsync=False,
                            compact_every=8)
    wal_path = os.path.join(directory, WAL_FILE)
    durability = trim.durability
    tail_groups = 0
    while True:
        trigger = max(Durability._DELTA_FLOOR_BYTES,
                      Durability._DELTA_RATIO * durability._snapshot_bytes)
        if os.path.getsize(wal_path) > trigger:
            break
        for i in range(COMMIT_EVERY):
            trim.store.add(triple(f"subject-tail{tail_groups}", "slim:p0", i))
        trim.commit()
        tail_groups += 1
    groups_to_check = 8 - durability._groups_since_check
    trim.close()
    wal_bytes = os.path.getsize(wal_path)
    recover_s, result = run_once(
        benchmark, lambda: _timed(lambda: recover(directory)))
    assert len(result.store) == \
        len(set(workload)) + tail_groups * COMMIT_EVERY
    assert 0 < groups_to_check < 8
    threshold = max(Durability._DELTA_FLOOR_BYTES,
                    Durability._DELTA_RATIO * result.snapshot_bytes)
    assert threshold == trigger
    window = 8 * max((_group_bytes(group, changes)
                      for group, changes in scan_wal(wal_path).groups),
                     default=0)
    assert threshold < wal_bytes <= threshold + window
    _RESULTS["compacted_recovery"] = {
        "compact_every": 8,
        "tail_groups": tail_groups,
        "groups_to_next_check": groups_to_check,
        "groups_replayed": result.groups_replayed,
        "snapshot_triples": result.snapshot_triples,
        "wal_bytes": wal_bytes,
        "wal_trigger_bytes": int(threshold),
        "wal_bound_bytes": int(threshold + window),
        "recover_s": round(recover_s, 6),
    }
    print_table(
        "Recovery under compaction (compact_every=8)",
        ["metric", "value"],
        [("snapshot triples", result.snapshot_triples),
         ("WAL groups replayed", result.groups_replayed),
         ("groups to the next check", groups_to_check),
         ("WAL bytes (trigger, bound)",
          f"{wal_bytes} ({int(threshold)}, {int(threshold + window)})"),
         ("recover seconds", f"{recover_s:.6f}")])


def test_writes_trajectory_json(benchmark, workload, tmp_path):
    """Aggregate the sections above into BENCH_trim_durability.json.

    Smoke runs write to a temp path instead, so the checked-in trajectory
    file always holds full-scale numbers.
    """
    assert set(_RESULTS) == {"logged_writes", "recovery",
                             "compacted_recovery"}, \
        "earlier bench tests must run first"
    json_path = ((tmp_path / "BENCH_trim_durability.json")
                 if _SMOKE else _JSON_PATH)
    payload = {
        "bench": "trim_durability",
        "smoke": _SMOKE,
        "workload": {
            "generator": "repro.workloads.generator.random_triples",
            "num_triples": NUM_TRIPLES,
            "commit_every": COMMIT_EVERY,
        },
        **_RESULTS,
    }

    def write():
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        return json_path

    path = run_once(benchmark, write)
    assert path.exists()
    assert json.loads(path.read_text())["bench"] == "trim_durability"
