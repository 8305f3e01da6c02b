"""Claim C-1 (Section 6) — the space cost of the generic representation.

*"The trade-off for this flexibility was space efficiency of the data."*

Measures the triple representation's footprint against the schema-first
native store for identical pads at growing sizes, printing the overhead
factor.  Both footprints are allocations counted by ``tracemalloc``
(:func:`repro.workloads.generator.pad_bytes`): every object and
container each store holds, index buckets included.  Expectation
(shape): a significant constant factor (a few ×), roughly flat in pad
size — flexibility costs a multiplier, not a blow-up.
"""

import pytest

from repro.workloads.generator import (build_pad_native, build_pad_via_dmi,
                                       pad_bytes)

from benchmarks.conftest import print_table, run_once

SIZES = [(5, 5), (10, 10), (20, 20)]


def test_c1_space_overhead_factor(benchmark):
    def measure():
        rows = []
        factors = []
        for bundles, scraps in SIZES:
            triples, triple_bytes, native_bytes = pad_bytes(bundles, scraps)
            factor = triple_bytes / native_bytes
            factors.append(factor)
            rows.append((f"{bundles}x{scraps}", triples, triple_bytes,
                         native_bytes, f"{factor:.1f}x"))
        return rows, factors

    rows, factors = run_once(benchmark, measure)
    print_table("C-1 — triples vs native allocated bytes (same pad)",
                ["pad size", "triples", "triple bytes", "native bytes",
                 "overhead"], rows)

    # Shape assertions: a real constant factor, roughly flat in size.
    assert all(factor > 2 for factor in factors)
    assert max(factors) / min(factors) < 1.5


@pytest.mark.parametrize("bundles,scraps", SIZES)
def test_c1_triple_build_cost(benchmark, bundles, scraps):
    """Build cost of the flexible representation at each size."""
    dmi = benchmark(lambda: build_pad_via_dmi(bundles, scraps))
    assert len(dmi.runtime.all("Scrap")) == bundles * scraps


@pytest.mark.parametrize("bundles,scraps", SIZES)
def test_c1_native_build_cost(benchmark, bundles, scraps):
    """Build cost of the native representation at each size."""
    store = benchmark(lambda: build_pad_native(bundles, scraps))
    assert store.counts()["scraps"] == bundles * scraps
