"""Fig. 9 — the SLIM architecture: application ↔ DMI ↔ TRIM ↔ triples.

Regenerates the figure as measured behaviour: every DMI operation is
shown to pass through TRIM into triples (the triple count moves in lock
step with DMI calls), and the figure's layering is benchmarked — DMI
operations vs the raw TRIM operations they expand into, plus TRIM's
query and view services.
"""

from repro.slimpad.dmi import SlimPadDMI
from repro.triples.query import Pattern, Query, Var
from repro.triples.triple import Resource
from repro.triples.trim import TrimManager
from repro.util.coordinates import Coordinate
from repro.workloads.generator import build_pad_via_dmi, populate_store

from benchmarks.conftest import print_table, run_once


def test_fig9_dmi_maintains_triples(benchmark):
    """The DMI writes triples without application intervention."""
    def lock_step():
        dmi = SlimPadDMI()
        store = dmi.runtime.trim.store
        assert len(store) == 0
        bundle = dmi.Create_Bundle(bundleName="b",
                                   bundlePos=Coordinate(1, 2))
        created = len(store)
        assert created >= 5  # type + 4 attributes
        dmi.Update_bundleName(bundle, "renamed")
        assert len(store) == created  # replaced, not grown
        dmi.Delete_Bundle(bundle)
        assert len(store) == 0
        return created

    after_create = run_once(benchmark, lock_step)

    print_table("Fig. 9 — DMI ops expand to triples",
                ["operation", "store size after"],
                [("Create_Bundle", after_create),
                 ("Update_bundleName", after_create),
                 ("Delete_Bundle", 0)])


def test_fig9_dmi_create_vs_raw_trim(benchmark):
    """The DMI's typed create (the upper path of the figure)."""
    dmi = SlimPadDMI()

    def typed_create():
        return dmi.Create_Bundle(bundleName="b", bundlePos=Coordinate(1, 2))

    bundle = benchmark(typed_create)
    assert bundle.bundleName == "b"


def test_fig9_raw_trim_create(benchmark):
    """The raw TRIM writes the DMI expands into (the lower path)."""
    trim = TrimManager()

    def raw_create():
        resource = trim.new_resource("bundle")
        trim.create(resource, "rdf:type", Resource("slim:BundleScrap.Bundle"))
        trim.create(resource, "slim:BundleScrap.Bundle.bundleName", "b")
        trim.create(resource, "slim:BundleScrap.Bundle.bundlePos", "1.0,2.0")
        trim.create(resource, "slim:BundleScrap.Bundle.bundleWidth", 200.0)
        trim.create(resource, "slim:BundleScrap.Bundle.bundleHeight", 120.0)
        return resource

    assert benchmark(raw_create).uri.startswith("bundle-")


def test_fig9_trim_selection_query(benchmark):
    """TRIM's selection query over a populated store."""
    store = populate_store(5000)
    prop = Resource("slim:p3")

    hits = benchmark(lambda: store.select(property=prop))
    assert hits


def test_fig9_trim_conjunctive_query(benchmark):
    """The query extension (Section 6 current work) over pad data."""
    dmi = build_pad_via_dmi(20, 10)
    store = dmi.runtime.trim.store
    contents = dmi.runtime.property_resource("Bundle", "bundleContent")
    scrap_name = dmi.runtime.property_resource("Scrap", "scrapName")
    query = Query([
        Pattern(Var("b"), contents, Var("s")),
        Pattern(Var("s"), scrap_name, Var("n")),
    ])

    results = benchmark(lambda: query.run_all(store))
    assert len(results) == 200


def test_fig9_trim_view(benchmark):
    """TRIM's reachability views (one bundle's closure)."""
    dmi = build_pad_via_dmi(20, 10)
    trim = dmi.runtime.trim
    bundle = dmi.runtime.all("Bundle")[1]
    root = Resource(bundle.id)

    triples = benchmark(lambda: trim.reachable(root))
    # The bundle + 10 scraps + 10 handles, with their attributes.
    assert len({t.subject for t in triples}) == 21


def test_fig9_persistence_round_trip(benchmark, tmp_path):
    """TRIM persists through XML files (the figure's storage arrow)."""
    dmi = build_pad_via_dmi(10, 10)
    path = str(tmp_path / "pad.xml")

    def save_and_load():
        dmi.runtime.trim.save(path)
        fresh = TrimManager()
        fresh.load(path)
        return fresh

    fresh = benchmark(save_and_load)
    assert len(fresh.store) == len(dmi.runtime.trim.store)
