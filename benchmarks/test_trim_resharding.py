"""Resharding benchmarks: the scale-out curve + reshard under load (ISSUE 8).

Two questions the versioned shard map answers:

1. **The scale-out curve** — the same durable-ingest workload
   (``NUM_WRITERS`` threads durably committing subject-routed batches
   under a live snapshot-isolation reader) run at 1, 2, 4, and 8
   shards.  With routing now *data* instead of code, "add hardware, get
   throughput" has to show up as a curve, not a single pinned ratio:
   durable ingest must increase monotonically across 1 -> 2 -> 4.  Each
   point also records per-commit latency percentiles (p50/p95/p99) next
   to the fsync/commit counters the regression gate already watches.
2. **Reshard under load** — a live zipfian writer keeps durably
   committing while ``reshard(1 -> 4)`` migrates every subject under
   2PC.  The numbers that matter operationally: how deep the throughput
   dip is while batches drain, how fast the store recovers after the
   map flips, how long the migration holds, and that *every* acked op
   survives recovery (zero lost, zero duplicated).

Results print via ``print_table`` (run with ``-s``) and aggregate into
``BENCH_trim_resharding.json`` at the repo root.  ``BENCH_SMOKE=1``
shrinks the workload and redirects the JSON to a temp path.
"""

import bisect
import json
import os
import random
import threading
import time
from pathlib import Path

from repro.triples.sharded import (ShardedDurability, ShardedTripleStore,
                                   recover_sharded, shard_of)
from repro.triples.trim import TrimManager
from repro.triples.triple import Resource, triple
from repro.triples.wal import recover
from repro.util.stats import percentiles_us as _percentiles

from benchmarks.conftest import print_table, run_once

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))
#: Curve shape: writers x durably-acked batches of triples, per point.
SHARD_CURVE = (1, 2, 4, 8)
NUM_WRITERS = 8
BATCHES_EACH = 10 if _SMOKE else 150
BATCH_TRIPLES = 6
#: Reshard-under-load shape.
LOAD_SUBJECTS = 60 if _SMOKE else 240
LOAD_SEED_TRIPLES = 300 if _SMOKE else 2400
LOAD_PHASE_SECONDS = 0.25 if _SMOKE else 1.0
LOAD_RESHARD_TO = 4
ZIPF_S = 1.1
_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_trim_resharding.json"

#: Sections accumulated by the tests below; the last test writes the file.
_RESULTS = {}


def _writer_plan(writer, shards):
    """One writer's batches, each on a subject owned by shard
    ``writer % shards`` so the pool spreads evenly (see the sharding
    bench for the full rationale).  Built outside the timed region."""
    batches, probe = [], 0
    while len(batches) < BATCHES_EACH:
        uri = f"slim:w{writer}-b{probe}"
        probe += 1
        if shard_of(uri, shards) != writer % shards:
            continue
        subject = Resource(uri)
        batches.append((subject,
                        [triple(subject, f"slim:p{i}", f"v{i}")
                         for i in range(BATCH_TRIPLES)]))
    return batches


def _curve_point(tmp_path, shards):
    """The partitioned durable-ingest workload at one shard count,
    with per-commit latency percentiles."""
    directory = str(tmp_path / f"curve-{shards}")
    trim = TrimManager(shards=shards, durable=directory,
                       compact_every=10 ** 6, concurrent=True)
    plan = [_writer_plan(writer, shards) for writer in range(NUM_WRITERS)]
    errors = []
    barrier = threading.Barrier(NUM_WRITERS + 1)
    stop_reading = threading.Event()
    reads = [0]
    latencies = [[] for _ in range(NUM_WRITERS)]

    def reader_run():
        probes = [plan[w][0][0] for w in range(NUM_WRITERS)]
        while not stop_reading.is_set():
            trim.store.select(subject=probes[reads[0] % NUM_WRITERS])
            reads[0] += 1
            time.sleep(0.002)

    def writer_run(writer):
        try:
            barrier.wait()
            for subject, batch in plan[writer]:
                begun = time.perf_counter()
                for statement in batch:
                    trim.store.add(statement)
                trim.commit(subject=subject)
                latencies[writer].append(time.perf_counter() - begun)
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=writer_run, args=(w,))
               for w in range(NUM_WRITERS)]
    reader = threading.Thread(target=reader_run)
    reader.start()
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    stop_reading.set()
    reader.join()
    assert not errors, errors[0]
    total_batches = NUM_WRITERS * BATCHES_EACH
    flat = [sample for per_writer in latencies for sample in per_writer]
    stats = {
        "shards": shards,
        "map_version": trim.map_version,
        "batches": total_batches,
        "triples": total_batches * BATCH_TRIPLES,
        "fsyncs": trim.durability.fsync_count,
        "commits": trim.durability.commits_requested,
        "live_reads": reads[0],
        "seconds": round(wall, 6),
        "batches_per_s": int(total_batches / wall),
        "triples_per_s": int(total_batches * BATCH_TRIPLES / wall),
        "commit_latency": _percentiles(flat),
    }
    trim.close()
    if shards > 1:
        recovered = len(recover_sharded(directory).store)
    else:
        recovered = len(recover(directory).store)
    assert recovered == stats["triples"], \
        f"{shards} shards: {recovered}/{stats['triples']} triples recovered"
    return stats


def test_scaling_curve(benchmark, tmp_path):
    """Durable ingest must rise monotonically across 1 -> 2 -> 4 shards."""
    def run_curve():
        return [_curve_point(tmp_path, shards) for shards in SHARD_CURVE]

    points = run_once(benchmark, run_curve)
    rates = {p["shards"]: p["batches_per_s"] for p in points}
    if not _SMOKE:  # smoke workloads are too small for stable ordering
        assert rates[1] < rates[2] < rates[4], \
            f"scale-out curve is not monotonic 1->2->4: {rates}"

    _RESULTS["scaling_curve"] = {
        "points": points,
        "speedup_2_vs_1": round(rates[2] / rates[1], 2),
        "speedup_4_vs_1": round(rates[4] / rates[1], 2),
        "speedup_8_vs_1": round(rates[8] / rates[1], 2),
    }
    print_table(
        f"Durable-ingest scale-out curve ({NUM_WRITERS} writers x "
        f"{BATCHES_EACH} batches x {BATCH_TRIPLES} triples)",
        ["shards", "batches/s", "p50 µs", "p95 µs", "p99 µs", "fsyncs"],
        [(p["shards"], p["batches_per_s"], p["commit_latency"]["p50_us"],
          p["commit_latency"]["p95_us"], p["commit_latency"]["p99_us"],
          p["fsyncs"]) for p in points])


def _zipf_picker(rng, n, s=ZIPF_S):
    """A zipfian subject sampler over ``n`` ranks (no numpy: inverse-CDF
    over the precomputed harmonic weights)."""
    cumulative, total = [], 0.0
    for rank in range(1, n + 1):
        total += 1.0 / rank ** s
        cumulative.append(total)

    def pick():
        return bisect.bisect_left(cumulative, rng.random() * total)

    return pick


def test_reshard_under_load(benchmark, tmp_path):
    """Throughput dip and recovery while reshard(1 -> 4) drains live."""
    directory = str(tmp_path / "reshard-load")
    store = ShardedTripleStore(1, concurrent=True)
    durability = ShardedDurability(store, directory,
                                   compact_every=10 ** 6)
    subjects = [Resource(f"slim:z{i}") for i in range(LOAD_SUBJECTS)]
    for i in range(LOAD_SEED_TRIPLES):
        store.add(triple(subjects[i % LOAD_SUBJECTS], "slim:seed", i))
    durability.commit()

    stop = threading.Event()
    ops = []          # (completion time, latency seconds)
    errors = []

    def writer_run():
        rng = random.Random(8)
        pick = _zipf_picker(rng, LOAD_SUBJECTS)
        n = 0
        try:
            while not stop.is_set():
                subject = subjects[pick()]
                begun = time.perf_counter()
                store.add(triple(subject, "slim:live", n))
                durability.commit_for(subject)
                ops.append((time.perf_counter(), time.perf_counter() - begun))
                n += 1
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    writer = threading.Thread(target=writer_run)
    writer.start()
    time.sleep(LOAD_PHASE_SECONDS)

    def timed_reshard():
        begun = time.perf_counter()
        job = durability.reshard(LOAD_RESHARD_TO, batch_subjects=16)
        return job, time.perf_counter() - begun

    job, reshard_seconds = run_once(benchmark, timed_reshard)
    reshard_done = time.perf_counter()
    time.sleep(LOAD_PHASE_SECONDS)
    stop.set()
    writer.join()
    assert not errors, errors[0]
    assert job.done and durability.map_version == 2

    reshard_begun = reshard_done - reshard_seconds
    phases = {"before": [], "during": [], "after": []}
    for finished, latency in ops:
        if finished < reshard_begun:
            phases["before"].append(latency)
        elif finished < reshard_done:
            phases["during"].append(latency)
        else:
            phases["after"].append(latency)
    spans = {"before": reshard_begun - (ops[0][0] if ops else reshard_begun),
             "during": reshard_seconds,
             "after": (ops[-1][0] - reshard_done) if ops else 0.0}
    rates = {phase: (len(phases[phase]) / spans[phase]
                     if spans[phase] > 0 else 0.0)
             for phase in phases}

    total = LOAD_SEED_TRIPLES + len(ops)
    assert len(store) == total, "lost or duplicated triples under reshard"
    durability.commit()
    durability.close()
    store.close()
    recovered = recover_sharded(directory)
    assert len(recovered.store) == total, \
        f"recovered {len(recovered.store)} of {total} acked triples"
    assert recovered.map_version == 2 and not recovered.migration_open
    recovered.store.close()

    dip = rates["during"] / rates["before"] if rates["before"] else 0.0
    recovery = rates["after"] / rates["before"] if rates["before"] else 0.0
    _RESULTS["reshard_under_load"] = {
        "subjects": LOAD_SUBJECTS,
        "seed_triples": LOAD_SEED_TRIPLES,
        "live_ops": len(ops),
        "subjects_moved": job.subjects_moved,
        "migration_batches": job.batches,
        "reshard_seconds": round(reshard_seconds, 4),
        "ops_per_s_before": int(rates["before"]),
        "ops_per_s_during": int(rates["during"]),
        "ops_per_s_after": int(rates["after"]),
        "throughput_dip_ratio": round(dip, 3),
        "throughput_recovery_ratio": round(recovery, 3),
        "latency_before": _percentiles(phases["before"]),
        "latency_during": _percentiles(phases["during"]),
        "latency_after": _percentiles(phases["after"]),
    }
    print_table(
        f"reshard(1 -> {LOAD_RESHARD_TO}) under a live zipfian writer "
        f"({LOAD_SUBJECTS} subjects, {reshard_seconds:.3f}s migration)",
        ["phase", "ops/s", "p50 µs", "p95 µs", "p99 µs"],
        [(phase, int(rates[phase]), _percentiles(phases[phase])["p50_us"],
          _percentiles(phases[phase])["p95_us"],
          _percentiles(phases[phase])["p99_us"])
         for phase in ("before", "during", "after")])


def test_writes_trajectory_json(benchmark, tmp_path):
    """Aggregate the sections above into BENCH_trim_resharding.json.

    Smoke runs write to a temp path instead, so the checked-in trajectory
    file always holds full-scale numbers.
    """
    assert set(_RESULTS) == {"scaling_curve", "reshard_under_load"}, \
        "earlier bench tests must run first"
    json_path = ((tmp_path / "BENCH_trim_resharding.json")
                 if _SMOKE else _JSON_PATH)
    payload = {
        "bench": "trim_resharding",
        "smoke": _SMOKE,
        "workload": {
            "shard_curve": list(SHARD_CURVE),
            "writers": NUM_WRITERS,
            "batches_each": BATCHES_EACH,
            "batch_triples": BATCH_TRIPLES,
            "load_subjects": LOAD_SUBJECTS,
            "load_seed_triples": LOAD_SEED_TRIPLES,
            "zipf_s": ZIPF_S,
        },
        **_RESULTS,
    }

    def write():
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        return json_path

    path = run_once(benchmark, write)
    assert path.exists()
    assert json.loads(path.read_text())["bench"] == "trim_resharding"
