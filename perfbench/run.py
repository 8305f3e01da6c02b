"""End-to-end SLIMPad benchmark through ``python -m repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload author --seed 1 --seconds 10 --trace 0

One run sets up the workload (generates the ICU library, builds tenant
directories through the library's bulk path, starts ``repro serve`` and
opens every tenant) three times and reports the median set-up time,
then drives the workload's fixed-length op script as one closed-loop
session from one client thread, on the same CPU as the server, checks
every reply against the client's model, stops the server with SIGTERM
(it must exit 0) and reopens every tenant directory to check that every
acked write is there.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once through ``perfbench/traced_serve.py``
and reports per-layer self times, counters from ``trim.stats`` /
``admin.stats``, and the tracing overhead.  ``--size tiny`` shrinks
every preload for the self-check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
WORKLOADS = ("author", "review", "reopen")
#: Set-ups per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The flush policy both sides run with (the server's production one).
FLUSH_POLICY = ("writer thread commits once per drained batch, inline "
                "fsync, compact_every=64 (delta compaction), shards=1, "
                "high_water=64")

now = time.perf_counter


def percentile(samples, fraction, surrogate):
    """Nearest-rank percentile; failed ops (``inf``) read as *surrogate*."""
    if not samples:
        return surrogate
    ordered = sorted(samples)
    value = ordered[min(len(ordered) - 1,
                        max(0, math.ceil(fraction * len(ordered)) - 1))]
    return surrogate if value == float("inf") else value


def dir_bytes(path: Path) -> int:
    """Bytes in the regular files under *path*."""
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


class Pass:
    """One set-up plus timed phase plus oracle, untraced or traced."""

    def __init__(self, workload: str, seed: int, seconds: int, tiny: bool,
                 work: Path, traced: bool, setup_repeats: int,
                 cpu: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.work = work
        self.traced = traced
        self.setup_repeats = setup_repeats
        #: The one CPU client and server run on (see ``main``).
        self.cpu = cpu

    def run(self) -> dict:
        import loadgen
        import pad

        setup_times = []
        for attempt in range(self.setup_repeats):
            root = self.work / f"root-{attempt}"
            recorder = loadgen.Recorder(tracing=self.traced)
            started = now()
            workload = pad.make(self.workload, self.seconds, self.tiny)
            ctx = pad.Ctx(self.seed, recorder, workload.patients)
            workload.build(ctx, str(root))
            spans_path = self.work / "spans.json" if self.traced else None
            server = loadgen.Server(
                str(CHECKOUT), str(root), str(self.work / "server.log"),
                trace_path=str(spans_path) if spans_path else None)
            client = loadgen.Client(server.port, recorder)
            try:
                workload.first_open(ctx, client)
            except BaseException:
                client.close()
                server.kill()
                raise
            setup_times.append(now() - started)
            if attempt + 1 < self.setup_repeats:
                client.close()
                server.terminate()
                shutil.rmtree(root)
        try:
            return self._timed(workload, ctx, recorder, server, client, root,
                               spans_path, setup_times)
        finally:
            server.kill()

    def _stats(self, workload, client) -> dict:
        from loadgen import Req
        tenants = {tenant: client.call(Req(workload.conn_for(tenant),
                                           "trim.stats", None, tenant))
                   ["result"] for tenant in workload.tenants()}
        admin = client.call(Req("ctl", "admin.stats"))["result"]
        return {"tenants": tenants, "admin": admin}

    def _timed(self, workload, ctx, recorder, server, client, root,
               spans_path, setup_times) -> dict:
        from loadgen import cpu_ticks, ticks_to_seconds
        before = self._stats(workload, client)
        base_triples = sum(s["tenant"]["triples"]
                           for s in before["tenants"].values())
        dirs = [root / tenant for tenant in workload.tenants()]
        # Disk use rises and falls with compaction, so it is sampled
        # through the timed phase and averaged, not read once at the end.
        disk_samples = []
        recorder.on_sample = lambda: disk_samples.append(
            (sum(dir_bytes(d) for d in dirs),
             base_triples + recorder.triples_added))
        # The client's own collector must not pause it mid-request: its
        # set-up objects are frozen and collection waits for the end.
        gc.collect()
        gc.freeze()
        gc.disable()
        cpu0, wchar0 = server.cpu_seconds(), server.wchar()
        steal0 = cpu_ticks(self.cpu)
        started = now()
        try:
            client.drive(workload.sessions(ctx))
        finally:
            ended = now()
            gc.enable()
            gc.unfreeze()
        steal1 = cpu_ticks(self.cpu)
        recorder.on_sample = None
        cpu1, wchar1 = server.cpu_seconds(), server.wchar()
        peak_rss = server.peak_rss_mb()
        after = self._stats(workload, client)
        client.close()
        exit_code = server.terminate()
        if exit_code != 0:
            recorder.mismatch(f"server exited {exit_code} after SIGTERM")
        disk = sum(dir_bytes(d) for d in dirs)
        triples = 0
        for directory in dirs:
            problems, stored = ctx.model.check_durable(str(directory))
            triples += stored
            for problem in problems:
                recorder.mismatch(f"lost acked write: {problem}")
        if triples != base_triples + recorder.triples_added:
            recorder.mismatch(
                f"{triples} triples stored, but the acked ops account for "
                f"{base_triples + recorder.triples_added}")
        disk_samples.append((disk, triples))
        wall = ended - started
        stolen = ticks_to_seconds(steal1[0] - steal0[0])
        counts = self._counts(workload, ctx, before, after)
        lat = recorder.latencies

        def ms(cls, fraction):
            return percentile(lat[cls], fraction, wall) * 1000.0

        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            # Time the host held the benchmark's CPU is not the program's:
            # it swings with the neighbours' load.  Six author runs at
            # 8-18% steal read 652-860 ops/s with it and 983-1037 without.
            "ops_per_s": (recorder.attempted / (wall - stolen), "1/s"),
            "write_p50_ms": (ms("write", 0.50), "ms"),
            "read_p50_ms": (ms("read", 0.50), "ms"),
            "read_p90_ms": (ms("read", 0.90), "ms"),
            "resolve_p50_ms": (ms("resolve", 0.50), "ms"),
            "resolve_p90_ms": (ms("resolve", 0.90), "ms"),
            "server_cpu_ms_per_op": (
                (cpu1 - cpu0) * 1000.0 / max(1, recorder.attempted), "ms"),
            "server_peak_rss_mb": (peak_rss, "MB"),
            "fsyncs_per_write": (
                counts["fsyncs"] / max(1, counts["writes"]), "count"),
            # wchar counts write(2)-family calls; replies go out through
            # send(2), which it does not count, so this is file bytes.
            "write_bytes_per_write": (
                (wchar1 - wchar0) / max(1, recorder.acked_writes), "B"),
            "disk_bytes_per_triple": (statistics.mean(
                size / count for size, count in disk_samples), "B"),
        }
        return {"metrics": metrics, "counts": counts, "recorder": recorder,
                "ctx": ctx, "window": (started, ended), "wall": wall,
                "spans_path": spans_path, "exit_code": exit_code,
                "triples": triples, "disk": disk,
                "stolen": stolen,
                "steal_pct": 100.0 * (steal1[0] - steal0[0])
                / max(1, steal1[1] - steal0[1]),
                # Tails are reported, not gated: on a shared host they
                # follow the host's CPU steal and disk more than the program.
                "tails_ms": {f"{c}_p99": ms(c, 0.99) for c in lat},
                "samples": {c: len(v) for c, v in lat.items()}}

    def _counts(self, workload, ctx, before, after) -> dict:
        fields = {"writes": "writes", "write_batches": "write_batches",
                  "fsyncs": "fsync_count", "rejected": "rejected"}
        cache = {"cache_hits": "hits", "cache_misses": "misses",
                 "cache_invalidations": "invalidations",
                 "cache_evictions": "evictions"}
        if ctx.cycle_stats:
            # Each reopen cycle's tenant handle is new; sum their counters.
            blocks = [(s["tenant"], s["cache"]["select_cache"])
                      for s in ctx.cycle_stats]
            counts = {k: sum(t[v] for t, _ in blocks)
                      for k, v in fields.items()}
            counts.update({k: sum(c[v] for _, c in blocks)
                           for k, v in cache.items()})
        else:
            counts = {k: 0 for k in list(fields) + list(cache)}
            for tenant, end in after["tenants"].items():
                start = before["tenants"][tenant]
                for k, v in fields.items():
                    counts[k] += end["tenant"][v] - start["tenant"][v]
                for k, v in cache.items():
                    counts[k] += (end["cache"]["select_cache"][v]
                                  - start["cache"]["select_cache"][v])
        counts["opens"] = after["admin"]["opens"] - before["admin"]["opens"]
        counts["evictions"] = (after["admin"]["evictions"]
                               - before["admin"]["evictions"])
        return counts


# -- per-layer metrics from the traced pass -----------------------------------

LAYERS = ("service", "registry", "dmi", "triples", "wal", "marks")
#: Spans that are waiting or envelopes, not busy time of a layer.
_NOT_SELF = ("service.request", "service.queue_wait")


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of the traced pass (self times in µs)."""
    from pad import KINDS
    with open(traced["spans_path"], encoding="utf-8") as handle:
        dump = json.load(handle)
    start, end = traced["window"]
    recorder = traced["recorder"]
    ops = max(1, recorder.attempted)
    by_name = {}
    for _id, _parent, name, s, e, self_s, rid, n in dump["spans"]:
        if s >= start and e <= end:
            by_name.setdefault(name, []).append((self_s, n, rid, e - s))

    def mean_us(name):
        rows = by_name.get(name, ())
        return (sum(r[0] for r in rows) / len(rows) * 1e6) if rows else 0.0

    server_spans = {rid: dur for _s, _n, rid, dur in
                    by_name.get("service.request", ())}
    wire = [(reply - sent) - server_spans[rid]
            for rid, (sent, reply) in recorder.requests.items()
            if rid in server_spans and sent >= start and reply <= end]
    applies = by_name.get("service.apply", ())
    evicts = [r for r in by_name.get("registry.evict", ()) if r[1]]
    compacts = [r for r in by_name.get("wal.delta_compact", ()) if r[1]]
    counts = traced["counts"]

    def stage_us(stage):
        opened = [stages for _t, stages in dump["opens"] if stages]
        return (sum(s.get(stage, 0.0) for s in opened) / len(opened) * 1e6
                if opened else 0.0)

    marks = recorder.layer

    def marks_us(name):
        rows = marks.get(name, ())
        return sum(d for _s, d in rows) / len(rows) * 1e6 if rows else 0.0

    lookups = counts["cache_hits"] + counts["cache_misses"]
    metrics = {
        "service.decode_us": (mean_us("service.decode"), "us"),
        "service.encode_us": (mean_us("service.encode"), "us"),
        "service.queue_wait_us": (mean_us("service.queue_wait"), "us"),
        "service.apply_us": (mean_us("service.apply"), "us"),
        "service.batch_size": (
            counts["writes"] / max(1, counts["write_batches"]), "count"),
        "service.read_exec_us": (mean_us("service.read_exec"), "us"),
        "service.wire_us": (
            sum(wire) / len(wire) * 1e6 if wire else 0.0, "us"),
        "registry.open_us": (mean_us("registry.open"), "us"),
        "registry.evict_us": (
            sum(r[0] for r in evicts) / max(1, sum(r[1] for r in evicts))
            * 1e6, "us"),
        "dmi.create_us": (mean_us("dmi.create"), "us"),
        "dmi.add_ref_us": (mean_us("dmi.add_ref"), "us"),
        "dmi.update_us": (mean_us("dmi.update"), "us"),
        "dmi.value_us": (mean_us("dmi.value"), "us"),
        "dmi.triples_per_write": (
            sum(r[1] for r in applies) / max(1, len(applies)), "count"),
        "triples.select_us": (mean_us("triples.select"), "us"),
        "triples.query_us": (mean_us("triples.query"), "us"),
        "triples.view_us": (mean_us("triples.view"), "us"),
        "triples.create_us": (mean_us("triples.create"), "us"),
        "triples.cache_hit_rate": (
            counts["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "triples.cache_evictions": (counts["cache_evictions"], "count"),
        "wal.append_us": (mean_us("wal.append"), "us"),
        "wal.commit_us": (mean_us("wal.commit"), "us"),
        "wal.delta_compact_us": (
            sum(r[0] for r in compacts) / len(compacts) * 1e6
            if compacts else 0.0, "us"),
        "wal.delta_compacts": (len(compacts), "count"),
        "wal.compact_us": (mean_us("wal.compact"), "us"),
        "wal.recover_snapshot_us": (stage_us("snapshot_s"), "us"),
        "wal.recover_deltas_us": (stage_us("deltas_s"), "us"),
        "wal.recover_wal_us": (stage_us("wal_s"), "us"),
        "marks.create_us": (marks_us("marks.create"), "us"),
    }
    for kind in KINDS:
        metrics[f"marks.resolve_us.{kind}"] = (
            marks_us(f"marks.resolve.{kind}"), "us")
    for layer in LAYERS:
        if layer == "marks":
            total = sum(d for name, rows in marks.items()
                        for s, d in rows if s >= start and s <= end)
        else:
            total = sum(r[0] for name, rows in by_name.items()
                        if name.startswith(layer + ".")
                        and name not in _NOT_SELF for r in rows)
        metrics[f"{layer}.self_us_per_op"] = (total / ops * 1e6, "us")
    for key in ("writes", "write_batches", "fsyncs", "rejected", "opens",
                "evictions", "cache_hits", "cache_misses",
                "cache_invalidations"):
        metrics[f"count.{key}"] = (counts[key], "count")
    traced_rate = traced["metrics"]["ops_per_s"][0]
    untraced_rate = untraced["metrics"]["ops_per_s"][0]
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.overhead_pct"] = (
        (untraced_rate / traced_rate - 1.0) * 100.0, "%")
    return metrics


# -- reporting ----------------------------------------------------------------

def report(label: str, result: dict) -> None:
    """Human-readable lines (standard output, before the JSON line)."""
    recorder, counts = result["recorder"], result["counts"]
    print(f"[{label}] ops attempted {recorder.attempted}, succeeded "
          f"{recorder.attempted - recorder.failed}, failed {recorder.failed}; "
          f"samples {result['samples']}; timed phase {result['wall']:.3f}s; "
          f"server exit {result['exit_code']}; {result['triples']} triples "
          f"in {result['disk']} bytes on disk; the host took "
          f"{result['steal_pct']:.1f}% ({result['stolen']:.2f}s) of the "
          f"benchmark's CPU during the timed phase (steal); wall-clock rate "
          f"{recorder.attempted / result['wall']:.1f} ops/s")
    print(f"[{label}] tails (not gated): " + ", ".join(
        f"{name} {value:.3f} ms" for name, value in result["tails_ms"].items()))
    print(f"[{label}] counts {json.dumps(counts, sort_keys=True)}; "
          f"admin.evict retries {result['ctx'].evict_retries}")
    for message in result["ctx"].errors:
        print(f"[{label}] error reply: {message}")
    for message in recorder.mismatches:
        print(f"[{label}] ORACLE MISMATCH: {message}")


def measure(args, work: Path, cpu: int) -> dict:
    from pad import OPS_PER_SECOND
    tiny = args.size == "tiny"
    print(f"workload {args.workload}, seed {args.seed}, seconds "
          f"{args.seconds}, size {args.size}; one client thread, one "
          f"closed-loop session; client and server on CPU {cpu}; script rate "
          f"{OPS_PER_SECOND[args.workload]}/s; flush policy: {FLUSH_POLICY}; "
          f"tenant directories under the checkout (sandbox disk, latencies "
          f"are the sandbox's)")
    repeats = 1 if (tiny or args.trace) else SETUP_REPEATS
    plain = Pass(args.workload, args.seed, args.seconds, tiny,
                 work / "plain", False, repeats, cpu).run()
    report("untraced", plain)
    passes = [plain]
    if args.trace:
        traced = Pass(args.workload, args.seed, args.seconds, tiny,
                      work / "traced", True, 1, cpu).run()
        report("traced", traced)
        passes.append(traced)
        metrics = layer_metrics(traced, plain)
    else:
        metrics = plain["metrics"]
    attempted = sum(p["recorder"].attempted for p in passes)
    failed = sum(p["recorder"].failed for p in passes)
    correct = failed == 0 and not any(p["recorder"].mismatches
                                      for p in passes)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "repro" / "service" / "server.py").is_file():
        print(f"perfbench: no repro sources under {CHECKOUT / 'src'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    # Client, server and every child share one CPU: each op then hands
    # off between processes on a vCPU that is already running, instead
    # of waking the other vCPU through the host's scheduler, whose delay
    # swings with the host's load.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(CHECKOUT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    work = CHECKOUT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "plain").mkdir(parents=True)
    (work / "traced").mkdir(parents=True)
    try:
        result = measure(args, work, cpu)
    except Exception:
        traceback.print_exc()
        for log in work.glob("*/server.log"):
            print(f"--- {log}:\n{log.read_text(errors='replace')[-4000:]}",
                  file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (CHECKOUT / ".perfbench_work").rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
