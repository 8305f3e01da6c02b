"""Small latency-statistics helpers shared by the replay harness, the
service registry, and the benchmark suite.

One canonical p50/p95/p99 implementation: the service benches used to
carry private copies, and the recovery work (cold-open
latency, per-op replay histograms) would have added two more.  The
benches run with ``PYTHONPATH=src``, so hoisting the helper here gives
every consumer — library code and harness code alike — the same
nearest-rank percentile with no duplication.
"""

from __future__ import annotations

from typing import Dict, Sequence

__all__ = ["percentiles_us"]


def percentiles_us(latencies_s: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 of a latency sample in seconds, reported in µs.

    Nearest-rank on the sorted sample; an empty sample reports zeros so
    callers can emit the block unconditionally.
    """
    if not latencies_s:
        return {"p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0}
    ordered = sorted(latencies_s)
    last = len(ordered) - 1

    def pct(p: float) -> float:
        return round(ordered[min(last, round(p / 100 * last))] * 1e6, 1)

    return {"p50_us": pct(50), "p95_us": pct(95), "p99_us": pct(99)}
