"""Cold-start recovery: binary snapshots, cold opens, delta stalls.

Three questions the recovery overhaul raises:

1. **Snapshot vs replay, at scale** — rebuilding an N-triple state from
   a v3 binary columnar snapshot versus replaying the WAL, at 100k and
   1M triples.  The v2 XML snapshot *lost* to replay (0.66x in the old
   trajectory); the binary format with the ``restore_rows`` fast path
   must reverse that.  Both recovery shapes are timed into the store
   ``repro serve`` opens for a tenant, ``TripleStore(concurrent=True)``,
   so the ratio isolates the on-disk format.
2. **Cold tenant open latency** — the full service path: evicted
   (compacted-on-close) tenants reopened through ``PadRegistry``,
   p50/p99 from the registry's own open-latency window.
3. **Compaction stall** — delta compaction folds the committed WAL tail
   into an fsynced delta segment without rewriting the snapshot, so the
   stall must track changes-since-last-compact, staying flat as the
   store grows 10x.  One stall is a few milliseconds, so the headline
   ratio is the median of ``STALL_TRIALS`` paired trials, each of which
   is recorded.

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
#: compaction-stall shape: base store size (and 10x it), changes per
#: measured compact.
STALL_BASE = 1_000 if _SMOKE else 20_000
STALL_CHANGES = 500
#: Paired (base, 10x) stall measurements; the headline is their median.
#: Single trials of one tree spread 0.3x-1.9x, and a 5-trial median moved
#: more than the regression gate's 15% band between runs of the same code.
STALL_TRIALS = 15
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
            point = {
                "triples": count,
                "wal_bytes": os.path.getsize(
                    os.path.join(wal_dir, "wal.log")),
                "snapshot_bytes": os.path.getsize(
                    os.path.join(snap_dir, "snapshot.slim")),
            }
            # One recovered store alive at a time: the snapshot load must
            # not be timed under the replayed store's memory.
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
            point.update({
                "replay_s": round(replay_s, 6),
                "snapshot_s": round(snapshot_s, 6),
                "speedup_x": round(replay_s / snapshot_s, 2),
            })
            table_rows.append((label, f"{replay_s:.3f}", f"{snapshot_s:.3f}",
                               f"{replay_s / snapshot_s:.2f}x"))
            sections[label] = point
            # Drop the triples and stores between points: the 1M point
            # must not be timed under the 100k point's garbage.
            del items
            shutil.rmtree(base)
        return sections

    run_once(benchmark, measure_all)
    _RESULTS["snapshot_vs_replay"] = {
        "speedup_100k": sections["100k"]["speedup_x"],
        "speedup_1m": sections["1m"]["speedup_x"],
        **sections,
    }
    print_table(
        "Snapshot load vs WAL replay (same final state)",
        ["scale", "replay s", "snapshot s", "speedup"],
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


def _stall_for(directory, size):
    """Seconds one delta compaction takes over STALL_CHANGES fresh
    changes, on a store holding *size* triples."""
    trim = TrimManager()
    trim.enable_durability(directory, fsync=False)
    trim.bulk_ingest(random_triples(size, num_subjects=max(size // 10, 10),
                                    num_properties=8))
    trim.durability.compact()    # baseline: snapshot covers everything
    for i in range(STALL_CHANGES):
        trim.store.add(triple(Resource(f"fresh:s{i}"), Resource("fresh:p"),
                              f"v{i}"))
        if (i + 1) % 50 == 0:
            trim.commit()
    trim.commit()
    stall_s, did = _timed(trim.durability.delta_compact)
    assert did, "delta compaction must have fresh groups to fold"
    trim.close()
    return stall_s


def test_compaction_stall_stays_flat(benchmark, tmp_path):
    """Delta compaction cost tracks fresh changes, not store size."""

    def measure_trials():
        trials = []
        for trial in range(STALL_TRIALS):
            base_s = _stall_for(str(tmp_path / f"base-{trial}"), STALL_BASE)
            big_s = _stall_for(str(tmp_path / f"big-{trial}"),
                               STALL_BASE * 10)
            trials.append({"stall_base_s": round(base_s, 6),
                           "stall_10x_s": round(big_s, 6),
                           "ratio_10x": round(big_s / base_s, 2)})
        return trials

    trials = run_once(benchmark, measure_trials)
    base_s = statistics.median(t["stall_base_s"] for t in trials)
    big_s = statistics.median(t["stall_10x_s"] for t in trials)
    ratio = statistics.median(t["ratio_10x"] for t in trials)
    _RESULTS["compaction_stall"] = {
        "base_triples": STALL_BASE,
        "big_triples": STALL_BASE * 10,
        "changes_per_compact": STALL_CHANGES,
        "stall_base_s": round(base_s, 6),
        "stall_10x_s": round(big_s, 6),
        "stall_ratio_10x": round(ratio, 2),
        "trials": trials,
    }
    print_table(
        f"Delta-compaction stall, {STALL_CHANGES} fresh changes "
        f"(median of {STALL_TRIALS} trials)",
        ["store size", "stall seconds"],
        [(STALL_BASE, f"{base_s:.6f}"),
         (STALL_BASE * 10, f"{big_s:.6f}"),
         ("ratio", f"{ratio:.2f}x")])


def test_writes_trajectory_json(benchmark, tmp_path):
    """Aggregate the sections above into BENCH_trim_recovery.json."""
    assert set(_RESULTS) == {"snapshot_vs_replay", "cold_open",
                             "compaction_stall"}, \
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
