"""Gate CI on the committed benchmark headlines: floors and regressions.

``BENCH_summary.json`` at the repo root is the committed record of the
full-scale benchmark runs (regenerated by ``make bench-all``).  This
script guards it three ways:

**Floors** (the default mode) assert that every headline number still
clears the minimum the corresponding acceptance criteria promised, so a
change that degrades the planner or the read cache cannot land without
the floor documenting the broken promise.

**Staleness** is checked in every mode: the summary must be exactly what
``benchmarks/aggregate.py`` would distil from the ``BENCH_trim_*.json``
trajectory files sitting next to it.  A PR that re-runs one benchmark
but forgets ``aggregate.py`` — or edits the summary by hand — fails
here; previously the docstring merely *documented* this hole.  (The
check is content-based, not mtime-based: git checkouts do not preserve
modification times, so comparing timestamps would be CI noise.)

**Regressions** (``--baseline PATH``) compare the summary headline-by-
headline against a recorded baseline summary and fail on any metric
that slid more than ``--tolerance`` (default 15%) below it.  All
guarded headlines are higher-is-better ratios, so the test is
``current < baseline * (1 - tolerance)``.  ``make check-regression``
runs this against ``benchmarks/BENCH_baseline.json``, the baseline
captured when the gate was introduced; re-baseline deliberately (copy
the new summary over it in the same PR that justifies the slowdown).

Run directly::

    PYTHONPATH=src python benchmarks/check_floors.py
    PYTHONPATH=src python benchmarks/check_floors.py \
        --baseline benchmarks/BENCH_baseline.json --tolerance 0.15

Exit status is non-zero when any floor is broken, any baselined metric
regressed, the summary is stale, or a guarded metric is missing.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUMMARY = ROOT / "BENCH_summary.json"

#: (bench, headline) -> minimum committed value.  Floors trace to the
#: acceptance criteria that introduced each metric: the planner speedup
#: and the cached-read ratio.  Floors are set well under the measured
#: numbers so host noise never trips them, but far above "the
#: optimization stopped working".
FLOORS = {
    ("trim_query", "planned_query_speedup_x"): 100.0,
    ("trim_caching", "cached_query_speedup_x"): 10.0,
    ("trim_caching", "cached_read_hit_rate"): 0.9,
    # A write drops only the cached reads it can change, so bundle
    # selects between scrap renames keep hitting (measured 0.98).
    ("trim_caching", "between_writes_hit_rate"): 0.9,
    # ISSUE 9: N connections must coalesce into far fewer commit groups
    # than requests (measured 4.1x with the high-water mark engaged).
    ("trim_service", "coalesce_ratio"): 1.5,
    # ISSUE 10: the binary v3 snapshot must beat WAL replay, reversing
    # the 0.66x the XML format recorded.  The durability bench times the
    # default recovery at 6k triples.  The recovery bench times, at 100k,
    # the store ``repro serve`` opens; its floor says "a snapshot loads
    # no slower than replaying the log".
    ("trim_durability", "snapshot_vs_replay_x"): 1.2,
    ("trim_recovery", "snapshot_recovery_speedup_100k"): 1.0,
}

#: (bench, headline) -> maximum committed value — floors for metrics
#: where smaller is better.  ISSUE 9's drain contract: zero lost
#: acknowledged writes across a SIGTERM, and a request p99 that stays
#: bounded (under a second) even while admission control is rejecting.
CEILINGS = {
    ("trim_service", "lost_acked_writes"): 0.0,
    ("trim_service", "write_p99_us"): 1_000_000.0,
    # ISSUE 10: a cold tenant open through the service (eviction
    # compacts, so the reopen is one snapshot load) stays under a
    # second.
    ("trim_recovery", "cold_open_p99_us"): 1_000_000.0,
    # ISSUE 14: index writes on a concurrent store are O(1) per triple,
    # so a rename at 10k scraps costs about what it does at 1k (measured
    # 1.13x; ~7x while every touched bucket was copied on each write).
    ("trim_concurrency", "rename_10k_vs_1k"): 2.0,
}

#: Headlines where *smaller* numbers are the good direction (overhead
#: multipliers and time ratios).  The regression gate inverts its
#: comparison for these: growing past ``baseline * (1 + tolerance)``
#: fails, shrinking is an improvement.
LOWER_IS_BETTER = {
    ("trim_durability", "wal_fsync_overhead_x"),
    # snapshot_vs_replay_x used to live here: under the XML format the
    # snapshot *lost* to replay, so the metric was framed as overhead.
    # ISSUE 10's binary format flipped it to a genuine speedup —
    # higher is better now, and it carries a floor above.
    ("trim_service", "write_p99_us"),
    ("trim_service", "drain_seconds"),
    ("trim_service", "lost_acked_writes"),
    ("trim_recovery", "cold_open_p99_us"),
    ("trim_concurrency", "rename_10k_vs_1k"),
}


def check(summary):
    """Yield '(bench.metric, value, bound, ok)' rows for every floor
    and ceiling."""
    benches = summary.get("benches", {})
    for (bench, metric), floor in sorted(FLOORS.items()):
        value = benches.get(bench, {}).get(metric)
        ok = value is not None and value >= floor
        yield f"{bench}.{metric}", value, f"floor {floor}", ok
    for (bench, metric), ceiling in sorted(CEILINGS.items()):
        value = benches.get(bench, {}).get(metric)
        ok = value is not None and value <= ceiling
        yield f"{bench}.{metric}", value, f"ceiling {ceiling}", ok


def _metric_rows(summary):
    """Flatten a summary into {(bench, metric): value} over numeric scalars."""
    rows = {}
    for bench, block in summary.get("benches", {}).items():
        if not isinstance(block, dict):
            continue
        for metric, value in block.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                rows[(bench, metric)] = value
    return rows


def check_regressions(summary, baseline, tolerance):
    """Yield '(bench.metric, value, bound, ok)' rows vs *baseline*.

    Every numeric headline in the baseline must still be present and no
    more than *tolerance* (fractional) worse than its baseline value —
    below it for speedups/ratios, above it for the
    :data:`LOWER_IS_BETTER` overhead metrics.  Extra metrics only the
    current summary has are ignored (new benchmarks are not
    regressions).
    """
    current = _metric_rows(summary)
    for (bench, metric), base_value in sorted(_metric_rows(baseline).items()):
        value = current.get((bench, metric))
        if (bench, metric) in LOWER_IS_BETTER:
            bound = base_value * (1.0 + tolerance)
            ok = value is not None and value <= bound
            yield f"{bench}.{metric}", value, f"maximum {bound:.4g}", ok
        else:
            bound = base_value * (1.0 - tolerance)
            ok = value is not None and value >= bound
            yield f"{bench}.{metric}", value, f"minimum {bound:.4g}", ok


def check_stale(root=ROOT, summary_path=SUMMARY):
    """Return an error string when the summary is stale, else ``None``.

    Stale means: re-aggregating the ``BENCH_trim_*.json`` files present
    under *root* does not reproduce the committed summary — some
    trajectory file changed after the summary was last generated.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        from aggregate import build_summary
    finally:
        sys.path.pop(0)
    expected = build_summary(root)
    try:
        committed = json.loads(summary_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return f"cannot read {summary_path.name}: {exc}"
    if committed != expected:
        changed = sorted(
            name for name in (set(expected.get("benches", {}))
                              | set(committed.get("benches", {})))
            if expected.get("benches", {}).get(name)
            != committed.get("benches", {}).get(name))
        return (f"{summary_path.name} is stale: re-aggregating the "
                f"BENCH_trim_*.json files gives a different summary "
                f"(benches that differ: {', '.join(changed) or 'metadata'}) "
                f"— run `PYTHONPATH=src python benchmarks/aggregate.py`")
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="gate committed benchmark headlines "
                    "(floors, staleness, regressions)")
    parser.add_argument("--summary", type=Path, default=SUMMARY,
                        help="summary file to check (default: committed "
                             "BENCH_summary.json)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="compare headlines against this baseline "
                             "summary instead of the static floors")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional slowdown vs the baseline "
                             "(default 0.15 = 15%%)")
    parser.add_argument("--skip-stale-check", action="store_true",
                        help="do not require the summary to match a fresh "
                             "re-aggregation of the trajectory files")
    args = parser.parse_args(argv)

    if not args.summary.exists():
        print(f"{args.summary.name} not found — run `make bench-all` first",
              file=sys.stderr)
        return 1
    if not (0.0 <= args.tolerance < 1.0):
        print("--tolerance must be in [0, 1)", file=sys.stderr)
        return 1
    summary = json.loads(args.summary.read_text())

    failures = 0
    if not args.skip_stale_check and args.summary == SUMMARY:
        stale = check_stale()
        if stale:
            print(f"  FAIL {stale}", file=sys.stderr)
            failures += 1

    if args.baseline is not None:
        if not args.baseline.exists():
            print(f"baseline {args.baseline} not found", file=sys.stderr)
            return 1
        baseline = json.loads(args.baseline.read_text())
        rows = list(check_regressions(summary, baseline, args.tolerance))
        label = (f"within {args.tolerance:.0%} of "
                 f"{args.baseline.name}")
    else:
        rows = list(check(summary))
        label = f"benchmark floors hold in {args.summary.name}"

    for name, value, bound, ok in rows:
        shown = "missing" if value is None else value
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {shown} ({bound})")
        if not ok:
            failures += 1
    if failures:
        print(f"{failures} benchmark gate check(s) failed for "
              f"{args.summary.name}", file=sys.stderr)
        return 1
    print(f"all {len(rows)} headline(s) pass: {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
