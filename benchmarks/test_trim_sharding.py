"""Sharded-store benchmarks: partitioned durable ingest + routed queries (ISSUE 5).

Two questions the sharding work answers:

1. **Durable ingest fan-out** — concurrent writers durably committing
   subject-routed batches through ``TrimManager(shards=4)`` in the
   snapshot-isolation ingest mode (``concurrent=True``, a reader thread
   probing live throughout — PR 4's read-during-ingest path) must
   sustain >= 2x the throughput of the identical workload on
   ``shards=1``.  Two physical effects compound, neither of which is
   GIL-parallelism:

   - *Partitioned copy-on-write indexes.*  Concurrent mode used to
     republish every index bucket an insert touched as a fresh copy, so
     per-insert cost grew with the shared property/value buckets, and
     hash-partitioning cut every bucket to ~1/N of the unsharded size.
     Writes now update buckets in place at O(1) per triple (DESIGN.md
     §10), so this effect is gone: re-measured on a 2-vCPU VM, the
     1-shard rate rose ~5x and the 4-shard rate ~2x, leaving ~1.3x
     between them, under the 2x bar below.  The committed
     ``BENCH_trim_sharding.json`` predates that change.
   - *Overlapped WAL fsyncs.*  One WAL serializes every durable ack
     behind one fsync stream; with a WAL per shard, fsyncs on different
     log files overlap in the device's journal (measured ~2.4x effective
     on this host's virtio disk at 4 streams).

   Every acked batch must also be there after recovery — both
   configurations are checked.
2. **Routed query latency** — subject-bound probes on a sharded store
   route to exactly one shard (a crc32 + one index probe), so their
   latency must stay flat versus the unsharded store no matter how many
   shards exist.  Scatter-gather (property-bound) queries are reported
   for context.

Results print via ``print_table`` (run with ``-s``) and aggregate into
``BENCH_trim_sharding.json`` at the repo root.  ``BENCH_SMOKE=1``
shrinks the workload and redirects the JSON to a temp path.
"""

import json
import os
import threading
import time
from pathlib import Path

from repro.triples.sharded import recover_sharded, shard_of
from repro.triples.store import TripleStore
from repro.triples.sharded import ShardedTripleStore
from repro.triples.trim import TrimManager
from repro.triples.triple import Resource, triple
from repro.triples.wal import recover

from benchmarks.conftest import print_table, run_once

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))
#: Partitioned-ingest shape: writers x durably-acked batches of triples.
NUM_WRITERS = 8
BATCHES_EACH = 15 if _SMOKE else 300
BATCH_TRIPLES = 6
SHARDS = 4
#: Query-routing shape: seeded subjects x triples each, probe count.
QUERY_SUBJECTS = 50 if _SMOKE else 200
TRIPLES_PER_SUBJECT = 10
QUERY_OPS = 1000 if _SMOKE else 6000
_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_trim_sharding.json"

#: Sections accumulated by the tests below; the last test writes the file.
_RESULTS = {}


def _writer_plan(writer):
    """One writer's pre-built batches: each batch is BATCH_TRIPLES triples
    on one subject owned by shard ``writer % SHARDS``, so the writer pool
    spreads evenly over the shards and every batch routes to one WAL.
    Properties and values come from small shared pools, so the COW
    property/value buckets grow with the whole ingest — the realistic
    worst case partitioning is supposed to help with.  Triples are built
    outside the timed region — the benchmark measures the durable ingest
    path, not ``Triple`` construction."""
    batches, probe = [], 0
    while len(batches) < BATCHES_EACH:
        uri = f"slim:w{writer}-b{probe}"
        probe += 1
        if shard_of(uri, SHARDS) != writer % SHARDS:
            continue
        subject = Resource(uri)
        batches.append((subject,
                        [triple(subject, f"slim:p{i}", f"v{i}")
                         for i in range(BATCH_TRIPLES)]))
    return batches


def _partitioned_ingest(tmp_path, label, shards):
    """NUM_WRITERS threads, each durably committing BATCHES_EACH
    subject-routed batches into a concurrent-mode (snapshot-isolation)
    durable store while a reader probes live; returns throughput +
    recovery-checked stats."""
    directory = str(tmp_path / label)
    trim = TrimManager(shards=shards, durable=directory,
                       compact_every=10 ** 6, concurrent=True)
    plan = [_writer_plan(writer) for writer in range(NUM_WRITERS)]
    errors = []
    barrier = threading.Barrier(NUM_WRITERS + 1)
    stop_reading = threading.Event()
    reads = [0]

    def reader_run():
        # The live audience that concurrent mode exists for: routed
        # subject probes against the ingest in flight.  Reads must never
        # error (snapshot isolation) — throughput is the writers' story.
        probes = [plan[w][0][0] for w in range(NUM_WRITERS)]
        while not stop_reading.is_set():
            subject = probes[reads[0] % NUM_WRITERS]
            trim.store.select(subject=subject)
            reads[0] += 1
            time.sleep(0.002)

    def writer_run(writer):
        try:
            barrier.wait()
            for subject, batch in plan[writer]:
                for statement in batch:
                    trim.store.add(statement)
                # The durable ack: one WAL group on the subject's shard.
                trim.commit(subject=subject)
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
    stats = {
        "shards": shards,
        "writers": NUM_WRITERS,
        "batches": total_batches,
        "triples": total_batches * BATCH_TRIPLES,
        "fsyncs": trim.durability.fsync_count,
        "live_reads": reads[0],
        "seconds": round(wall, 6),
        "batches_per_s": int(total_batches / wall),
        "triples_per_s": int(total_batches * BATCH_TRIPLES / wall),
    }
    trim.close()
    # Every acked batch must survive a crash here: recover and count.
    if shards > 1:
        recovered = len(recover_sharded(directory).store)
    else:
        recovered = len(recover(directory).store)
    assert recovered == stats["triples"], \
        f"{label}: {recovered} of {stats['triples']} acked triples recovered"
    return stats


def test_partitioned_durable_ingest(benchmark, tmp_path):
    """The tentpole acceptance: >= 2x durable ingest at 4 shards vs 1."""
    single = _partitioned_ingest(tmp_path, "single", shards=1)
    sharded = run_once(
        benchmark,
        lambda: _partitioned_ingest(tmp_path, "sharded", shards=SHARDS))

    speedup = sharded["batches_per_s"] / single["batches_per_s"]
    if not _SMOKE:  # smoke workloads are too small for a stable ratio
        assert speedup >= 2.0, \
            f"4-shard durable ingest only {speedup:.2f}x the 1-shard rate"

    _RESULTS["durable_ingest"] = {
        "single": single,
        "sharded": sharded,
        "speedup_x": round(speedup, 2),
    }
    print_table(
        f"Durable ingest under snapshot-isolation reads "
        f"({NUM_WRITERS} writers x {BATCHES_EACH} batches "
        f"x {BATCH_TRIPLES} triples)",
        ["config", "batches/s", "triples/s", "fsyncs", "seconds"],
        [("1 shard", single["batches_per_s"], single["triples_per_s"],
          single["fsyncs"], f"{single['seconds']:.4f}"),
         (f"{SHARDS} shards", sharded["batches_per_s"],
          sharded["triples_per_s"], sharded["fsyncs"],
          f"{sharded['seconds']:.4f}")])


def _seed_query_store(store):
    for s in range(QUERY_SUBJECTS):
        for i in range(TRIPLES_PER_SUBJECT):
            store.add(triple(f"slim:q{s}", f"slim:p{i % 6}", i))
    return store


def _routed_probe_pass(store, ops):
    """Subject-bound select + count pairs; returns mean latency in µs."""
    subjects = [Resource(f"slim:q{s}") for s in range(QUERY_SUBJECTS)]
    start = time.perf_counter()
    for i in range(ops):
        subject = subjects[i % QUERY_SUBJECTS]
        hits = store.select(subject=subject)
        assert len(hits) == store.count(subject=subject)
    return (time.perf_counter() - start) / ops * 1e6


def _scatter_pass(store, ops):
    """Property-bound (cross-shard) selects; mean latency in µs."""
    start = time.perf_counter()
    for i in range(ops):
        store.select(property=Resource(f"slim:p{i % 6}"))
    return (time.perf_counter() - start) / ops * 1e6


def test_routed_query_latency_flat(benchmark):
    """Subject-bound probes must not regress as the store gains shards."""
    plain = _seed_query_store(TripleStore())
    sharded = _seed_query_store(ShardedTripleStore(SHARDS))

    _routed_probe_pass(plain, QUERY_OPS // 10)    # warm both paths
    _routed_probe_pass(sharded, QUERY_OPS // 10)
    plain_us = _routed_probe_pass(plain, QUERY_OPS)
    sharded_us = run_once(benchmark,
                          lambda: _routed_probe_pass(sharded, QUERY_OPS))
    ratio = sharded_us / plain_us
    if not _SMOKE:
        # Flat = one crc32 + one dict hop of routing overhead, far under
        # any scatter cost; 1.5x headroom absorbs scheduler noise.
        assert ratio <= 1.5, \
            f"routed probes {ratio:.2f}x slower on the sharded store"

    scatter_ops = max(QUERY_OPS // 20, 50)
    plain_scatter_us = _scatter_pass(plain, scatter_ops)
    sharded_scatter_us = _scatter_pass(sharded, scatter_ops)

    _RESULTS["query_routing"] = {
        "subjects": QUERY_SUBJECTS,
        "triples_per_subject": TRIPLES_PER_SUBJECT,
        "probe_ops": QUERY_OPS,
        "routed_unsharded_us": round(plain_us, 2),
        "routed_sharded_us": round(sharded_us, 2),
        "routed_ratio": round(ratio, 3),
        "scatter_unsharded_us": round(plain_scatter_us, 2),
        "scatter_sharded_us": round(sharded_scatter_us, 2),
    }
    sharded.close()
    print_table(
        f"Query latency ({QUERY_OPS} subject-bound probes)",
        ["workload", "unsharded µs", f"{SHARDS}-shard µs", "ratio"],
        [("routed (subject-bound)", f"{plain_us:.1f}", f"{sharded_us:.1f}",
          f"{ratio:.2f}x"),
         ("scatter (property-bound)", f"{plain_scatter_us:.1f}",
          f"{sharded_scatter_us:.1f}",
          f"{sharded_scatter_us / plain_scatter_us:.2f}x")])


def test_writes_trajectory_json(benchmark, tmp_path):
    """Aggregate the sections above into BENCH_trim_sharding.json.

    Smoke runs write to a temp path instead, so the checked-in trajectory
    file always holds full-scale numbers.
    """
    assert set(_RESULTS) == {"durable_ingest", "query_routing"}, \
        "earlier bench tests must run first"
    json_path = ((tmp_path / "BENCH_trim_sharding.json")
                 if _SMOKE else _JSON_PATH)
    payload = {
        "bench": "trim_sharding",
        "smoke": _SMOKE,
        "workload": {
            "writers": NUM_WRITERS,
            "batches_each": BATCHES_EACH,
            "batch_triples": BATCH_TRIPLES,
            "shards": SHARDS,
            "query_subjects": QUERY_SUBJECTS,
            "query_ops": QUERY_OPS,
        },
        **_RESULTS,
    }

    def write():
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        return json_path

    path = run_once(benchmark, write)
    assert path.exists()
    assert json.loads(path.read_text())["bench"] == "trim_sharding"
