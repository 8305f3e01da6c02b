"""Parameterized scale generators for the benchmarks.

Benches need pads and stores of controlled size; these helpers build them
deterministically from simple scale parameters.
"""

from __future__ import annotations

import gc
import os
import random
import tempfile
import tracemalloc
from typing import Callable, List, Optional, Tuple

from repro.baselines.schema_first import SchemaFirstStore
from repro.slimpad.dmi import SlimPadDMI
from repro.triples.persistence import load_snapshot, save_snapshot
from repro.triples.store import TripleStore
from repro.triples.triple import Resource, triple
from repro.util.coordinates import Coordinate


def build_pad_via_dmi(num_bundles: int, scraps_per_bundle: int,
                      dmi: Optional[SlimPadDMI] = None) -> SlimPadDMI:
    """A pad of *num_bundles* bundles × *scraps_per_bundle* marked scraps,
    built through the triple-backed DMI (the flexible representation).

    The build runs as one ingest session (``trim.bulk_ingest()``): the
    whole pad lands through the store's bulk path and, when the DMI's
    TRIM is durable, commits as a single WAL group."""
    dmi = dmi or SlimPadDMI()
    with dmi.runtime.trim.bulk_ingest():
        root = dmi.Create_Bundle(bundleName="root")
        dmi.Create_SlimPad(padName="bench", rootBundle=root)
        mark_seq = 0
        for b in range(num_bundles):
            bundle = dmi.Create_Bundle(bundleName=f"bundle {b}",
                                       bundlePos=Coordinate(10.0 * b, 20.0),
                                       bundleWidth=200.0, bundleHeight=120.0)
            dmi.Add_nestedBundle(root, bundle)
            for s in range(scraps_per_bundle):
                mark_seq += 1
                scrap = dmi.Create_Scrap(scrapName=f"scrap {b}.{s}",
                                         scrapPos=Coordinate(5.0 * s, 8.0 * s))
                handle = dmi.Create_MarkHandle(markId=f"mark-{mark_seq:06d}")
                dmi.Add_scrapMark(scrap, handle)
                dmi.Add_bundleContent(bundle, scrap)
    return dmi


def build_pad_native(num_bundles: int, scraps_per_bundle: int
                     ) -> SchemaFirstStore:
    """The same pad shape in the schema-first native store (the ablation
    counterpart of :func:`build_pad_via_dmi`)."""
    store = SchemaFirstStore()
    pad = store.create_pad("bench")
    root = store.create_bundle("root")
    store.update(pad, "root", root)
    mark_seq = 0
    for b in range(num_bundles):
        bundle = store.create_bundle(f"bundle {b}", Coordinate(10.0 * b, 20.0),
                                     200.0, 120.0)
        store.nest_bundle(root, bundle)
        for s in range(scraps_per_bundle):
            mark_seq += 1
            scrap = store.create_scrap(f"scrap {b}.{s}",
                                       Coordinate(5.0 * s, 8.0 * s))
            handle = store.create_handle(f"mark-{mark_seq:06d}")
            store.add_mark(scrap, handle)
            store.add_scrap(bundle, scrap)
    return store


def retained_bytes(build: Callable[[], object]) -> int:
    """Bytes that *build*'s result keeps allocated, by :mod:`tracemalloc`:
    the traced total once the build's garbage is collected, with the
    result still alive.  Counts every object and container the result
    holds, which a per-field size estimate cannot see."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()  # held: the traced total must include it
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def pad_bytes(num_bundles: int, scraps_per_bundle: int
              ) -> Tuple[int, int, int]:
    """Claim C-1's two footprints for one pad shape, measured the same
    way (:func:`retained_bytes`): ``(triples, triple-store bytes, native
    bytes)``.

    The triple store is measured as a cold open builds it — the
    :func:`build_pad_via_dmi` pad's v3 snapshot loaded into an empty
    store — so its nodes, triples and indexes are the only things held;
    the schema-first store is measured as :func:`build_pad_native`
    builds it."""
    store = build_pad_via_dmi(num_bundles, scraps_per_bundle).runtime.trim.store
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "pad.slim")
        save_snapshot(store, path)
        triple_bytes = retained_bytes(
            lambda: load_snapshot(path).document.store)
    native_bytes = retained_bytes(
        lambda: build_pad_native(num_bundles, scraps_per_bundle))
    return len(store), triple_bytes, native_bytes


def random_triples(count: int, num_subjects: int = 100,
                   num_properties: int = 12, seed: int = 7
                   ) -> List:
    """Deterministic random triples for store micro-benchmarks."""
    rng = random.Random(seed)
    items = []
    for i in range(count):
        subject = f"subject-{rng.randrange(num_subjects):04d}"
        prop = f"slim:p{rng.randrange(num_properties)}"
        if rng.random() < 0.5:
            items.append(triple(subject, prop, f"value {i}"))
        else:
            items.append(triple(subject, prop,
                                Resource(f"subject-{rng.randrange(num_subjects):04d}")))
    return items


def populate_store(count: int, **kwargs) -> TripleStore:
    """A TripleStore holding :func:`random_triples`."""
    store = TripleStore()
    store.add_all(random_triples(count, **kwargs))
    return store


#: The rare scrap name planted once by :func:`build_planner_store` — the
#: selective end of the adversarially-ordered conjunctive query.
PLANNER_NEEDLE = "needle K+ 3.9"


def build_planner_store(num_bundles: int = 1500, scraps_per_bundle: int = 8,
                        store: Optional[TripleStore] = None) -> TripleStore:
    """A pad-shaped store sized for the query-planning benchmark.

    One root bundle (``wl-root``) nests *num_bundles* bundles, each holding
    *scraps_per_bundle* named scraps; exactly one scrap (the last) is named
    :data:`PLANNER_NEEDLE`.  The shape deliberately exhibits both planner
    pain points: a hub subject (the root's bucket holds every nesting edge,
    so two-field reads on it degrade without a compound index) and a
    high-cardinality ``slim:bundleContent`` property against a
    one-hit ``slim:scrapName`` value, so pattern order decides whether the
    conjunctive query touches every scrap or just one.  Everything is
    reachable from the root, which makes the same store the repeated-view-
    read workload.
    """
    store = store if store is not None else TripleStore()
    items = [triple("wl-root", "slim:bundleName", "workload root")]
    for b in range(num_bundles):
        bundle = f"wl-bundle-{b:05d}"
        items.append(triple("wl-root", "slim:nestedBundle", Resource(bundle)))
        items.append(triple(bundle, "slim:bundleName", f"bundle {b}"))
        for s in range(scraps_per_bundle):
            scrap = f"wl-scrap-{b:05d}-{s:03d}"
            items.append(triple(bundle, "slim:bundleContent", Resource(scrap)))
            if b == num_bundles - 1 and s == scraps_per_bundle - 1:
                items.append(triple(scrap, "slim:scrapName", PLANNER_NEEDLE))
            else:
                items.append(triple(scrap, "slim:scrapName", f"scrap {b}.{s}"))
    with store.bulk():
        store.add_all(items)
    return store
