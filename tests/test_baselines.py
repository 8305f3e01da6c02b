"""Tests for the related-work baselines and their documented contrasts."""

import pytest

from repro.errors import BaseLayerError, DmiError, MarkResolutionError
from repro.base.html.app import BrowserApp
from repro.base.worddoc.app import WordApp
from repro.base.xmldoc.xpath import path_of
from repro.baselines.commentor import ComMentorSystem
from repro.baselines.insitu import InSituAnnotationSystem
from repro.baselines.monikers import MonikerFactory
from repro.baselines.mvd import MvdMarker, tree_view
from repro.baselines.schema_first import SchemaFirstStore
from repro.baselines.vdoc import VirtualDocument
from repro.util.coordinates import Coordinate


class TestInSitu:
    @pytest.fixture
    def system(self, library):
        app = WordApp(library)
        app.open_document("note.doc")
        return InSituAnnotationSystem(app)

    def test_annotate_selection(self, system):
        system.app.select_span(2, 26, 38)
        comment = system.annotate_selection("confirmed", author="pg")
        assert comment.paragraph == 2
        assert system.comments() == [comment]

    def test_next_previous_navigation(self, system):
        system.app.select_span(1, 0, 9)
        first = system.annotate_selection("first")
        system.app.select_span(3, 0, 4)
        second = system.annotate_selection("second")
        assert system.next_comment() == first
        assert system.next_comment() == second
        assert system.next_comment() == first   # wraps
        assert system.previous_comment() == second

    def test_navigation_moves_selection(self, system):
        system.app.select_span(1, 0, 9)
        system.annotate_selection("x")
        system.next_comment()
        assert system.app.current_selection_address().paragraph == 1

    def test_empty_document_navigation(self, system):
        with pytest.raises(BaseLayerError):
            system.next_comment()

    def test_annotations_unreachable_after_close(self, system):
        """The in-situ limitation: close the window, lose access."""
        system.app.select_span(1, 0, 9)
        system.annotate_selection("x")
        system.close_document()
        with pytest.raises(BaseLayerError):
            system.comments()


class TestComMentor:
    @pytest.fixture
    def system(self, library):
        browser = BrowserApp(library)
        return ComMentorSystem(browser)

    def annotate(self, system, element_index, annotation_type, text,
                 author=""):
        page = system.browser.load("http://icu.example/protocol")
        system.browser.select_element(page.root.find_all("p")[element_index])
        return system.annotate_selection(annotation_type, text, author)

    def test_typed_time_range_query(self, system):
        self.annotate(system, 0, "comment", "a", author="pg")
        checkpoint = system.now
        self.annotate(system, 1, "question", "b", author="ja")
        self.annotate(system, 0, "comment", "c", author="pg")

        comments = system.query(annotation_type="comment")
        assert [a.text for a in comments] == ["a", "c"]
        recent = system.query(since=checkpoint + 1)
        assert [a.text for a in recent] == ["b", "c"]
        ja_only = system.query(author="ja", until=system.now)
        assert [a.text for a in ja_only] == ["b"]

    def test_navigation_from_annotation(self, system):
        annotation = self.annotate(system, 0, "comment", "dosing")
        content = system.navigate(annotation)
        assert "20 mEq KCl" in content
        assert system.browser.highlight == annotation.address

    def test_web_only_restriction(self, system, library):
        """ComMentor marks only HTML — SLIMPad marks six base kinds."""
        word = WordApp(library)
        word.open_document("note.doc")
        word.select_span(1, 0, 5)
        system.browser._set_selection(word.current_selection_address())
        with pytest.raises(BaseLayerError):
            system.annotate_selection("comment", "nope")


class TestVirtualDocuments:
    def test_render_resolves_spans(self, manager):
        pdf = manager.application("pdf")
        pdf.open_pdf("guideline.pdf")
        pdf.goto_page(2)
        pdf.select_span(2, 5, 2, 18)
        first = manager.create_mark(pdf)
        word = manager.application("word")
        word.open_document("note.doc")
        word.select_span(3, 0, 4)
        second = manager.create_mark(word)

        vdoc = VirtualDocument("summary", manager)
        vdoc.append_link(first)
        vdoc.append_link(second)
        assert len(vdoc) == 2
        assert vdoc.render() == "20 mEq KCl IV\nPlan"
        report = vdoc.render_report()
        assert report[0][1] == "20 mEq KCl IV"

    def test_cannot_hold_original_content(self, manager):
        """The paper's contrast: VDOCs are links only."""
        vdoc = VirtualDocument("v", manager)
        with pytest.raises(BaseLayerError):
            vdoc.append_text("my own words")

    def test_broken_links_reported(self, manager, library):
        pdf = manager.application("pdf")
        pdf.open_pdf("guideline.pdf")
        pdf.goto_page(1)
        pdf.select_span(1, 0, 1, 5)
        mark = manager.create_mark(pdf)
        vdoc = VirtualDocument("v", manager)
        link = vdoc.append_link(mark)
        assert vdoc.broken_links() == []
        library.remove("guideline.pdf")
        assert vdoc.broken_links() == [link]


class TestMvd:
    def test_tree_marks_on_structured_documents(self, library):
        marker = MvdMarker(library)
        mark = marker.mark("labs.xml", [0, 1])  # panel[1] -> result[2] (K)
        node = marker.resolve(mark)
        assert node.label == "result"
        assert node.content == "3.9"

    def test_word_granularity_stops_at_paragraphs(self, library):
        marker = MvdMarker(library)
        assert marker.finest_granularity("note.doc") == "paragraph"
        mark = marker.mark("note.doc", [1])
        assert "exacerbation" in marker.resolve(mark).content

    def test_pdf_granularity_stops_at_lines(self, library):
        marker = MvdMarker(library)
        assert marker.finest_granularity("guideline.pdf") == "line"
        mark = marker.mark("guideline.pdf", [1, 1])
        assert marker.resolve(mark).content == \
            "Give 20 mEq KCl IV per hour of infusion."

    def test_spreadsheets_not_addressable(self, library):
        """The documented blind spot of document-centric marks."""
        marker = MvdMarker(library)
        with pytest.raises(BaseLayerError):
            tree_view(library.get("medications.xls"))
        with pytest.raises(BaseLayerError):
            marker.mark("medications.xls", [0])

    def test_bad_path_rejected(self, library):
        from repro.errors import AddressError
        marker = MvdMarker(library)
        with pytest.raises(AddressError):
            marker.mark("labs.xml", [0, 99])


class TestMonikers:
    def test_moniker_binds_itself(self, library):
        factory = MonikerFactory()
        moniker = factory.excel_range_viewer("medications.xls", "Current",
                                             "A2:D2")
        assert moniker.bind(library) == [["Lasix", "40mg", "IV", "BID"]]

    def test_new_behaviour_needs_new_moniker(self, library):
        """The architectural contrast: changing how an element is shown
        means minting a new address object."""
        factory = MonikerFactory()
        viewer = factory.excel_range_viewer("medications.xls", "Current", "A2:D2")
        text = factory.excel_range_as_text("medications.xls", "Current", "A2:D2")
        assert viewer.moniker_id != text.moniker_id
        assert text.bind(library) == "Lasix 40mg IV BID"

    def test_composite_moniker(self, library):
        factory = MonikerFactory()
        left = factory.xml_element_text("labs.xml",
                                        "/labReport[1]/panel[1]/result[2]")
        right = factory.excel_range_as_text("medications.xls", "Current", "A4")
        both = factory.composite(left, right)
        assert both.bind(library) == ("3.9", "KCl")

    def test_bind_failure_reported(self, library):
        factory = MonikerFactory()
        moniker = factory.xml_element_text("labs.xml", "/wrong[1]/path[1]")
        with pytest.raises(MarkResolutionError):
            moniker.bind(library)


class TestSchemaFirstStore:
    def test_basic_shape(self):
        store = SchemaFirstStore()
        pad = store.create_pad("Rounds")
        bundle = store.create_bundle("John Smith", Coordinate(1, 2))
        scrap = store.create_scrap("K+ 3.9")
        handle = store.create_handle("mark-000001")
        store.update(pad, "root", bundle)
        store.add_scrap(bundle, scrap)
        store.add_mark(scrap, handle)
        assert pad.root is bundle
        assert bundle.scraps[0].marks[0].mark_id == "mark-000001"

    def test_schema_is_fixed(self):
        """No schema-later: undeclared attributes are rejected."""
        store = SchemaFirstStore()
        bundle = store.create_bundle("b")
        with pytest.raises(DmiError):
            store.update(bundle, "color", "yellow")

    def test_cascade_delete_counts(self):
        store = SchemaFirstStore()
        bundle = store.create_bundle("b")
        nested = store.create_bundle("n")
        scrap = store.create_scrap("s")
        handle = store.create_handle("m")
        store.nest_bundle(bundle, nested)
        store.add_scrap(nested, scrap)
        store.add_mark(scrap, handle)
        assert store.delete_bundle(bundle) == 4
        assert store.counts()["bundles"] == 0

    def test_native_bytes_below_triples(self):
        """Claim C-1's direction: the native store is smaller than the
        triple store for the same pad."""
        from repro.workloads.generator import pad_bytes
        _, triples_bytes, native_bytes = pad_bytes(10, 10)
        assert native_bytes < triples_bytes
        assert triples_bytes / native_bytes > 2  # a real constant factor
