"""Cold-start recovery: binary snapshots and cold opens.

Two questions the recovery overhaul raises:

1. **Snapshot vs replay, at scale** — rebuilding an N-triple state from
   a v3 binary columnar snapshot versus replaying the WAL, at 100k and
   1M triples.  The v2 XML snapshot *lost* to replay (0.66x in the old
   trajectory); the binary format with the ``restore_rows`` fast path
   must reverse that.  Both recovery shapes are timed into the store
   ``repro serve`` opens for a tenant, ``TripleStore(concurrent=True)``,
   so the ratio isolates the on-disk format.  Each point is timed
   ``SPEEDUP_TRIALS`` times: the headline is the median speedup, and
   every trial is recorded beside the minimum and the IQR.
2. **Cold tenant open latency** — the full service path: evicted
   (compacted-on-close) tenants reopened through ``PadRegistry``,
   p50/p99 from the registry's own open-latency window.

Results print via ``print_table`` (run with ``-s``) and aggregate into
``BENCH_trim_recovery.json`` at the repo root.  ``BENCH_SMOKE=1``
shrinks the workload and redirects the JSON to a temp path.
"""

import json
import os
import shutil
import statistics
import time
from pathlib import Path

import pytest

from repro.service.registry import PadRegistry
from repro.triples.store import TripleStore
from repro.triples.trim import TrimManager
from repro.triples.triple import Resource, triple
from repro.triples.wal import recover
from repro.workloads.generator import random_triples

from benchmarks.conftest import print_table, run_once

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))
#: snapshot-vs-replay sizes: (label, triples).
SCALE_POINTS = (
    ("100k", 5_000 if _SMOKE else 100_000),
    ("1m", 20_000 if _SMOKE else 1_000_000),
)
#: cold-open shape: tenants x triples each.
COLD_TENANTS = 3 if _SMOKE else 8
COLD_TRIPLES = 300 if _SMOKE else 5_000
#: Timed (replay, snapshot) pairs per scale point; the headline is the
#: median speedup.  Single runs of the 1M point read 1.71x-2.45x on one
#: tree, a spread wider than the regression gate's 15% band.
SPEEDUP_TRIALS = 5
_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_trim_recovery.json"

#: Sections accumulated by the tests below; the last test writes the file.
_RESULTS = {}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _build_dirs(base, items):
    """One WAL-only directory and one fully-compacted (v3 snapshot)
    directory holding the same final state."""
    wal_dir, snap_dir = str(base / "wal-only"), str(base / "snapshotted")
    for directory, compact in ((wal_dir, False), (snap_dir, True)):
        trim = TrimManager()
        trim.enable_durability(directory, fsync=False)
        trim.bulk_ingest(items)
        if compact:
            trim.durability.compact()
        trim.close()
    return wal_dir, snap_dir


def _speedup_trial(wal_dir, snap_dir):
    """One timed full WAL replay and one timed snapshot load of the same
    final state: ``(replay_s, snapshot_s)``."""
    # One recovered store alive at a time: the snapshot load must not be
    # timed under the replayed store's memory.
    replay_s, replayed = _timed(lambda: recover(
        wal_dir, store=TripleStore(concurrent=True)))
    assert replayed.snapshot_triples == 0
    replayed_triples = len(replayed.store)
    del replayed
    snapshot_s, snapshotted = _timed(lambda: recover(
        snap_dir, store=TripleStore(concurrent=True)))
    assert snapshotted.groups_replayed == 0
    assert len(snapshotted.store) == replayed_triples
    del snapshotted
    return replay_s, snapshot_s


def test_snapshot_vs_replay_at_scale(benchmark, tmp_path):
    """The headline reversal: v3 snapshot load vs full WAL replay."""
    sections = {}
    table_rows = []

    def measure_all():
        for label, count in SCALE_POINTS:
            items = random_triples(count, num_subjects=max(count // 10, 10),
                                   num_properties=8)
            base = tmp_path / label
            base.mkdir()
            wal_dir, snap_dir = _build_dirs(base, items)
            del items
            trials = []
            for _ in range(SPEEDUP_TRIALS):
                replay_s, snapshot_s = _speedup_trial(wal_dir, snap_dir)
                trials.append({"replay_s": round(replay_s, 6),
                               "snapshot_s": round(snapshot_s, 6),
                               "speedup_x": round(replay_s / snapshot_s, 2)})
            speedups = [t["speedup_x"] for t in trials]
            q1, _, q3 = statistics.quantiles(speedups, n=4)
            point = {
                "triples": count,
                "wal_bytes": os.path.getsize(
                    os.path.join(wal_dir, "wal.log")),
                "snapshot_bytes": os.path.getsize(
                    os.path.join(snap_dir, "snapshot.slim")),
                "replay_s": statistics.median(t["replay_s"] for t in trials),
                "snapshot_s": statistics.median(
                    t["snapshot_s"] for t in trials),
                "speedup_x": round(statistics.median(speedups), 2),
                "speedup_min": min(speedups),
                "speedup_iqr": round(q3 - q1, 2),
                "trials": trials,
            }
            table_rows.append((label, f"{point['replay_s']:.3f}",
                               f"{point['snapshot_s']:.3f}",
                               f"{point['speedup_x']:.2f}x",
                               f"{point['speedup_min']:.2f}x",
                               f"{point['speedup_iqr']:.2f}"))
            sections[label] = point
            # Drop the directories between points: the 1M point must not
            # be timed under the 100k point's files.
            shutil.rmtree(base)
        return sections

    run_once(benchmark, measure_all)
    _RESULTS["snapshot_vs_replay"] = {
        "speedup_100k": sections["100k"]["speedup_x"],
        "speedup_1m": sections["1m"]["speedup_x"],
        "trials_per_point": SPEEDUP_TRIALS,
        **sections,
    }
    print_table(
        f"Snapshot load vs WAL replay (same final state, "
        f"median of {SPEEDUP_TRIALS} trials)",
        ["scale", "replay s", "snapshot s", "speedup", "min", "IQR"],
        table_rows)


def test_cold_tenant_open_latency(benchmark, tmp_path):
    """Evicted tenants reopened through the registry: p50/p99 open."""
    root = str(tmp_path / "registry")
    registry = PadRegistry(root, idle_ttl=0.0)
    names = [f"tenant-{i:02d}" for i in range(COLD_TENANTS)]
    for name in names:
        handle = registry.acquire(name)
        try:
            for i in range(COLD_TRIPLES):
                handle.trim.store.add(triple(
                    Resource(f"t:{name}-s{i % (COLD_TRIPLES // 10)}"),
                    Resource(f"t:p{i % 8}"), f"v{i}"))
            handle.trim.commit()
        finally:
            registry.release(handle)
    # Eviction compacts each tenant on the way out, so the reopen below
    # is the optimized path: one v3 snapshot load, empty WAL tail.
    evicted = registry.evict_idle()
    assert sorted(evicted) == names
    registry.close_all()

    def reopen_all():
        fresh = PadRegistry(root, idle_ttl=0.0)
        for name in names:
            handle = fresh.acquire(name)
            assert len(handle.trim.store) > 0
            assert handle.trim.recovery_stats().get("groups_replayed", 1) == 0
            fresh.release(handle)
        stats = fresh.stats()
        fresh.close_all()
        return stats

    stats = run_once(benchmark, reopen_all)
    latency = stats["open_latency_us"]
    _RESULTS["cold_open"] = {
        "tenants": COLD_TENANTS,
        "triples_per_tenant": COLD_TRIPLES,
        "open_p50_us": latency["p50_us"],
        "open_p99_us": latency["p99_us"],
    }
    print_table(
        f"Cold tenant open through PadRegistry "
        f"({COLD_TENANTS} tenants x {COLD_TRIPLES} triples, "
        f"compacted on eviction)",
        ["percentile", "microseconds"],
        [("p50", latency["p50_us"]), ("p99", latency["p99_us"])])


def test_writes_trajectory_json(benchmark, tmp_path):
    """Aggregate the sections above into BENCH_trim_recovery.json."""
    assert set(_RESULTS) == {"snapshot_vs_replay", "cold_open"}, \
        "earlier bench tests must run first"
    json_path = ((tmp_path / "BENCH_trim_recovery.json")
                 if _SMOKE else _JSON_PATH)
    payload = {
        "bench": "trim_recovery",
        "smoke": _SMOKE,
        "workload": {
            "generator": "repro.workloads.generator.random_triples",
            "scale_points": dict(SCALE_POINTS),
            "cold_tenants": COLD_TENANTS,
        },
        **_RESULTS,
    }

    def write():
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        return json_path

    path = run_once(benchmark, write)
    assert path.exists()
    assert json.loads(path.read_text())["bench"] == "trim_recovery"
