"""Concurrent-access benchmarks: snapshot reads and in-place index writes.

Two questions the concurrency work answers:

1. **Reader throughput during ingest** — reader threads running
   selection + count workloads while another thread bulk-ingests must
   sustain >= 50% of their idle-store throughput, and must trigger zero
   deferred-index flushes (the ingest's ``_flush_bulk`` stays on the
   writer thread).  Before this change any reader query forced the
   flush, serializing readers behind the ingest.
2. **Write cost vs store size** — a rename (the DMI's remove-then-add of
   one ``scrapName`` triple) on a ``concurrent=True`` ``TrimManager``,
   the store every served tenant runs on, must cost about the same at
   10k scraps as at 1k: index writes are O(1) per triple, so
   ``rename_10k_vs_1k`` stays near 1.0 (it was ~7x while concurrent
   mode copied every touched index bucket on each write).

Results print via ``print_table`` (run with ``-s``) and aggregate into
``BENCH_trim_concurrency.json`` at the repo root.  ``BENCH_SMOKE=1``
shrinks the workload and redirects the JSON to a temp path.
"""

import json
import os
import statistics
import threading
import time
from pathlib import Path

from repro.triples.store import TripleStore
from repro.triples.triple import Literal, Resource, triple
from repro.triples.trim import TrimManager

from benchmarks.conftest import print_table, run_once

_SMOKE = bool(os.environ.get("BENCH_SMOKE"))
#: Idle-store seed size and per-reader operation count.
BASE_TRIPLES = 500 if _SMOKE else 2000
READER_OPS = 500 if _SMOKE else 3000
NUM_READERS = 2
#: Write-cost scaling: pad sizes (scraps) and renames timed on each.
SMALL_PAD, LARGE_PAD = 1_000, 10_000
RENAMES = 200 if _SMOKE else 2000
_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_trim_concurrency.json"

#: Sections accumulated by the tests below; the last test writes the file.
_RESULTS = {}


def _seeded_store():
    store = TripleStore(concurrent=True)
    for i in range(BASE_TRIPLES):
        store.add(triple(f"s{i % 100}", f"p{i % 8}", i))
    return store


def _reader_pass(store, ops):
    """One reader's workload: indexed selects + counted existence checks,
    each pair cross-checked for consistency."""
    subjects = [Resource(f"s{i}") for i in range(100)]
    start = time.perf_counter()
    for i in range(ops):
        subject = subjects[i % 100]
        selected = store.select(subject=subject)
        counted = store.count(subject=subject)
        assert len(selected) == counted, "reader saw a torn bucket"
    return time.perf_counter() - start


def _run_readers(store):
    """NUM_READERS concurrent reader passes; aggregate ops/second."""
    threads = [threading.Thread(target=_reader_pass,
                                args=(store, READER_OPS))
               for _ in range(NUM_READERS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return NUM_READERS * READER_OPS / wall


def test_reader_throughput_during_ingest(benchmark):
    """Readers mid-bulk_ingest: zero flushes, >= 50% of idle throughput."""
    store = _seeded_store()
    flush_threads = []
    original_flush = store._flush_bulk

    def spy_flush(*args, **kwargs):
        flush_threads.append(threading.get_ident())
        return original_flush(*args, **kwargs)

    store._flush_bulk = spy_flush

    idle_tps = _run_readers(store)

    done = threading.Event()
    chunks = [0]

    def writer():
        while not done.is_set():
            subject = f"chunk{chunks[0]}"
            with store.bulk():
                for i in range(200):
                    store.add(triple(subject, "p", i))
            chunks[0] += 1

    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    try:
        busy_tps = run_once(benchmark, lambda: _run_readers(store))
    finally:
        done.set()
        writer_thread.join()

    # Tentpole acceptance: reader queries never forced the ingest flush.
    reader_flushes = [t for t in flush_threads
                      if t != writer_thread.ident]
    assert reader_flushes == [], \
        f"{len(reader_flushes)} flushes ran on reader threads"
    assert chunks[0] > 0, "the writer never got a chunk in"

    ratio = busy_tps / idle_tps
    if not _SMOKE:   # smoke workloads are too small for a stable ratio
        assert ratio >= 0.5, \
            f"readers sank to {ratio:.0%} of idle throughput (need >= 50%)"

    _RESULTS["reader_throughput"] = {
        "base_triples": BASE_TRIPLES,
        "reader_threads": NUM_READERS,
        "reader_ops_each": READER_OPS,
        "ingested_chunks": chunks[0],
        "idle_ops_per_s": int(idle_tps),
        "during_ingest_ops_per_s": int(busy_tps),
        "throughput_ratio": round(ratio, 3),
        "reader_thread_flushes": len(reader_flushes),
    }
    print_table(
        f"Reader throughput ({NUM_READERS} threads x {READER_OPS} ops)",
        ["condition", "ops/s", "vs idle"],
        [("idle store", int(idle_tps), "1.00x"),
         ("during bulk ingest", int(busy_tps), f"{ratio:.2f}x")])


def _scrap_pad(scraps):
    """A concurrent TrimManager holding *scraps* DMI-shaped scraps."""
    trim = TrimManager(concurrent=True)
    trim.bulk_ingest(
        t for i in range(scraps) for t in (
            triple(f"scrap-{i}", "rdf:type", Resource("slim:Scrap")),
            triple(f"scrap-{i}", "slim:scrapName", f"scrap {i}"),
            triple(f"scrap-{i}", "slim:scrapMark", Resource(f"mh-{i}"))))
    return trim


def _rename_us(trim, scraps, r):
    """Time one DMI-style rename (remove the old name, add the new)."""
    subject = Resource(f"scrap-{(r * 7919) % scraps}")
    name = Resource("slim:scrapName")
    start = time.perf_counter()
    trim.store.remove_matching(subject=subject, property=name)
    trim.create(subject, name, Literal(f"renamed {r}"))
    return (time.perf_counter() - start) * 1e6


def test_write_cost_scaling(benchmark):
    """Rename cost on a concurrent store is flat from 1k to 10k scraps."""
    small, large = _scrap_pad(SMALL_PAD), _scrap_pad(LARGE_PAD)

    def measure():
        # Interleaved so host drift hits both pads alike.
        small_us, large_us = [], []
        for r in range(RENAMES):
            small_us.append(_rename_us(small, SMALL_PAD, r))
            large_us.append(_rename_us(large, LARGE_PAD, r))
        return statistics.median(small_us), statistics.median(large_us)

    small_us, large_us = run_once(benchmark, measure)
    ratio = large_us / small_us
    assert small.store.count(property=Resource("slim:scrapName")) == SMALL_PAD
    assert large.store.count(property=Resource("slim:scrapName")) == LARGE_PAD
    if not _SMOKE:
        assert ratio <= 2.0, \
            f"a rename at {LARGE_PAD} scraps costs {ratio:.1f}x one at " \
            f"{SMALL_PAD} (need <= 2x)"

    _RESULTS["write_cost_scaling"] = {
        "scraps_small": SMALL_PAD,
        "scraps_large": LARGE_PAD,
        "renames_each": RENAMES,
        "rename_us_1k": round(small_us, 1),
        "rename_us_10k": round(large_us, 1),
        "rename_10k_vs_1k": round(ratio, 2),
    }
    print_table(
        f"Rename on a concurrent TrimManager (median of {RENAMES})",
        ["scraps", "rename us"],
        [(SMALL_PAD, f"{small_us:.1f}"), (LARGE_PAD, f"{large_us:.1f}"),
         ("10k / 1k", f"{ratio:.2f}x")])


def test_writes_trajectory_json(benchmark, tmp_path):
    """Aggregate the sections above into BENCH_trim_concurrency.json.

    Smoke runs write to a temp path instead, so the checked-in trajectory
    file always holds full-scale numbers.
    """
    assert set(_RESULTS) == {"reader_throughput", "write_cost_scaling"}, \
        "earlier bench tests must run first"
    json_path = ((tmp_path / "BENCH_trim_concurrency.json")
                 if _SMOKE else _JSON_PATH)
    payload = {
        "bench": "trim_concurrency",
        "smoke": _SMOKE,
        "workload": {
            "base_triples": BASE_TRIPLES,
            "reader_threads": NUM_READERS,
            "reader_ops_each": READER_OPS,
            "scraps_small": SMALL_PAD,
            "scraps_large": LARGE_PAD,
            "renames_each": RENAMES,
        },
        **_RESULTS,
    }

    def write():
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        return json_path

    path = run_once(benchmark, write)
    assert path.exists()
    assert json.loads(path.read_text())["bench"] == "trim_concurrency"
