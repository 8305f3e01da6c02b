"""Edge-case sweep across subsystems: the paths no happy flow touches."""

import pytest

from repro.errors import (MarkError, QueryError, SlimPadError,
                          UnknownMarkTypeError)
from repro.base import standard_mark_manager
from repro.base.spreadsheet.marks import ExcelMark, ExcelMarkModule
from repro.marks.manager import MarkManager
from repro.marks.modules import ROLE_EXTRACTOR
from repro.slimpad.app import SlimPadApplication
from repro.triples.query import Pattern, Query, Var
from repro.triples.store import TripleStore
from repro.triples.triple import Resource, triple
from repro.triples.trim import TrimManager
from repro.triples.views import reachable_triples
from repro.util.coordinates import Coordinate

from tests.conftest import make_library


class TestMarkManagerEdges:
    def test_unknown_role_rejected(self):
        manager = MarkManager()
        manager.register_module(ExcelMarkModule())
        with pytest.raises(UnknownMarkTypeError):
            manager.module_for("excel", role="hologram")

    def test_duplicate_module_rejected(self):
        manager = MarkManager()
        manager.register_module(ExcelMarkModule())
        with pytest.raises(MarkError):
            manager.register_module(ExcelMarkModule())

    def test_adopt_unregistered_type_rejected(self):
        manager = MarkManager()
        mark = ExcelMark("mark-000001", file_name="f", sheet_name="S",
                         range="A1")
        with pytest.raises(UnknownMarkTypeError):
            manager.adopt(mark)

    def test_resolve_mark_object_of_unregistered_type(self):
        manager = MarkManager()
        mark = ExcelMark("mark-000001", file_name="f", sheet_name="S",
                         range="A1")
        with pytest.raises(UnknownMarkTypeError):
            manager.resolve(mark)

    def test_wrong_mark_class_to_module(self):
        from repro.base.xmldoc.marks import XMLMark
        library = make_library()
        manager = standard_mark_manager(library)
        module = manager.module_for("excel")
        xml_mark = XMLMark("mark-000009", file_name="labs.xml",
                           xml_path="/labReport[1]")
        from repro.errors import MarkResolutionError
        with pytest.raises(MarkResolutionError):
            module.resolve(xml_mark, manager.application("spreadsheet"))

    def test_extractor_role_also_creates(self):
        """Extractor modules can create marks too (same address logic)."""
        library = make_library()
        manager = standard_mark_manager(library)
        app = manager.application("spreadsheet")
        app.open_workbook("medications.xls")
        app.select_range("A2")
        extractor = manager.module_for("excel", role=ROLE_EXTRACTOR)
        mark = extractor.create_from_selection(app, "mark-000777")
        assert mark.range == "A2"


class TestTripleEdges:
    def test_view_max_depth_zero(self):
        store = TripleStore()
        store.add(triple("a", "p", Resource("b")))
        store.add(triple("b", "q", 1))
        view = reachable_triples(store, Resource("a"), max_depth=0)
        assert view == [triple("a", "p", Resource("b"))]  # a's own only

    def test_query_with_no_variables(self):
        store = TripleStore()
        t = triple("a", "p", 1)
        store.add(t)
        q = Query([Pattern(Resource("a"), Resource("p"), None)])
        assert q.run_all(store) == [{}]  # one empty binding = "it holds"
        q_missing = Query([Pattern(Resource("ghost"), Resource("p"), None)])
        assert q_missing.run_all(store) == []

    def test_query_variable_repeated_within_pattern(self):
        store = TripleStore()
        store.add(triple("x", "p", Resource("x")))   # self-loop
        store.add(triple("x", "p", Resource("y")))
        q = Query([Pattern(Var("n"), Resource("p"), Var("n"))])
        hits = q.run_all(store)
        assert len(hits) == 1
        assert hits[0]["n"] == Resource("x")

    def test_trim_remove_about_empty(self):
        trim = TrimManager()
        assert trim.remove_about(Resource("ghost")) == 0


class TestSlimPadEdges:
    @pytest.fixture
    def slimpad(self):
        manager = standard_mark_manager(make_library())
        app = SlimPadApplication(manager)
        app.new_pad("Edge")
        return app

    def test_pad_with_cleared_root(self, slimpad):
        slimpad.dmi.Update_rootBundle(slimpad.pad, None)
        with pytest.raises(SlimPadError):
            slimpad.root_bundle

    def test_multi_mark_scrap_resolutions(self, slimpad):
        excel = slimpad.marks.application("spreadsheet")
        excel.open_workbook("medications.xls")
        excel.select_range("A2")
        scrap = slimpad.create_scrap_from_selection(excel, label="both",
                                                    pos=Coordinate(0, 0))
        excel.select_range("A3")
        second = slimpad.marks.create_mark(excel)
        handle = slimpad.dmi.Create_MarkHandle(markId=second.mark_id)
        slimpad.dmi.Add_scrapMark(scrap, handle)

        resolutions = slimpad.resolutions(scrap)
        assert [r.content for r in resolutions] == [[["Lasix"]],
                                                    [["Captopril"]]]

    def test_delete_scrap_keep_marks(self, slimpad):
        excel = slimpad.marks.application("spreadsheet")
        excel.open_workbook("medications.xls")
        excel.select_range("A2")
        scrap = slimpad.create_scrap_from_selection(excel, label="x",
                                                    pos=Coordinate(0, 0))
        mark_id = scrap.scrapMark[0].markId
        slimpad.delete_scrap(scrap, drop_marks=False)
        assert mark_id in slimpad.marks  # mark survives for reuse

    def test_empty_bundle_queries(self, slimpad):
        bundle = slimpad.create_bundle("empty", Coordinate(5, 5))
        assert slimpad.scraps_in(bundle) == []
        assert slimpad.bundles_in(bundle, recursive=True) == []
        from repro.slimpad.layout import content_bounds, infer_rows
        assert content_bounds(bundle) is None
        assert infer_rows(bundle) == []

    def test_show_in_place_clips_width(self, slimpad):
        excel = slimpad.marks.application("spreadsheet")
        excel.open_workbook("medications.xls")
        excel.select_range("A2:D2")
        scrap = slimpad.create_scrap_from_selection(excel, label="meds",
                                                    pos=Coordinate(0, 0))
        block = slimpad.show_in_place(scrap, width=14)
        assert all(len(line) <= 14 for line in block.split("\n"))


class TestQueryErrors:
    def test_var_in_pattern_position_validation(self):
        from repro.triples.triple import Literal
        with pytest.raises(QueryError):
            Pattern(Literal("x"), None, None)
