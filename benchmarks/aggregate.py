"""Combine the BENCH_trim_*.json trajectory files into BENCH_summary.json.

Each TRIM benchmark module writes one ``BENCH_trim_<name>.json`` at the
repo root (see ``make bench-all``, which re-runs them at full scale
first).  This script distils every file present into one headline block
per benchmark — the two or three numbers a reader checks before digging
into the full trajectory file — and writes the combined map to
``BENCH_summary.json``:

    {"generated_from": [...], "benches": {"trim_query": {...}, ...}}

Run directly (no arguments)::

    PYTHONPATH=src python benchmarks/aggregate.py

Unknown or new benchmark files still appear in the summary: any numeric
scalar found at the top level of each section is carried over, so a new
benchmark gets a useful (if unopinionated) headline block without
editing this script.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUMMARY = ROOT / "BENCH_summary.json"

#: bench name -> {headline key: (section, field)} — the curated picks.
HEADLINES = {
    "trim_ingest": {
        "bulk_durable_speedup_x": ("ingest_throughput",
                                   "bulk_durable_speedup_x"),
        "bulk_durable_triples_per_s": ("ingest_throughput",
                                       "bulk_durable_tps"),
    },
    "trim_durability": {
        "wal_fsync_overhead_x": ("logged_writes", "overhead_fsync_x"),
        "snapshot_vs_replay_x": ("recovery", "snapshot_vs_replay_x"),
    },
    "trim_concurrency": {
        "reader_throughput_ratio": ("reader_throughput",
                                    "throughput_ratio"),
        "rename_10k_vs_1k": ("write_cost_scaling", "rename_10k_vs_1k"),
    },
    "trim_query": {
        "compound_index_speedup_x": ("two_field_selection", "speedup"),
        "planned_query_speedup_x": ("conjunctive_query", "speedup"),
    },
    "trim_caching": {
        "cached_query_speedup_x": ("cached_reads", "query_speedup_x"),
        "cached_read_hit_rate": ("cached_reads", "hit_rate"),
        "between_writes_hit_rate": ("reads_between_writes", "hit_rate"),
    },
    "trim_service": {
        "coalesce_ratio": ("write_coalescing", "coalesce_ratio"),
        "requests_per_s": ("write_coalescing", "requests_per_s"),
        "write_p99_us": ("write_coalescing", "p99_us"),
        "lost_acked_writes": ("drain_on_sigterm", "lost_acked_writes"),
        "drain_seconds": ("drain_on_sigterm", "drain_seconds"),
    },
    "trim_recovery": {
        "snapshot_recovery_speedup_100k": ("snapshot_vs_replay",
                                           "speedup_100k"),
        "snapshot_recovery_speedup_1m": ("snapshot_vs_replay",
                                         "speedup_1m"),
        "cold_open_p99_us": ("cold_open", "open_p99_us"),
    },
}

_META_KEYS = {"bench", "smoke", "workload"}


def _numeric_scalars(section):
    """The numeric top-level fields of one result section."""
    if not isinstance(section, dict):
        return {}
    return {key: value for key, value in section.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


def headline_for(payload):
    """The headline metrics block for one trajectory payload."""
    name = payload.get("bench", "unknown")
    picks = HEADLINES.get(name)
    if picks:
        block = {}
        for label, (section, field) in picks.items():
            value = payload.get(section, {}).get(field)
            if value is not None:
                block[label] = value
        if block:
            return block
    # Fallback for benches this script doesn't know: every numeric
    # scalar of every result section, namespaced by section.
    block = {}
    for section_name, section in payload.items():
        if section_name in _META_KEYS:
            continue
        for key, value in _numeric_scalars(section).items():
            block[f"{section_name}.{key}"] = value
    return block


def build_summary(root=ROOT):
    files = sorted(root.glob("BENCH_trim_*.json"))
    benches = {}
    smoke = []
    for path in files:
        payload = json.loads(path.read_text())
        name = payload.get("bench", path.stem)
        benches[name] = headline_for(payload)
        if payload.get("smoke"):
            smoke.append(name)
    return {
        "generated_from": [path.name for path in files],
        "smoke_benches": smoke,
        "benches": benches,
    }


def main():
    summary = build_summary()
    if not summary["benches"]:
        print("no BENCH_trim_*.json files found — run `make bench-all` first",
              file=sys.stderr)
        return 1
    SUMMARY.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {SUMMARY.relative_to(ROOT)} "
          f"({len(summary['benches'])} benches: "
          f"{', '.join(sorted(summary['benches']))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
