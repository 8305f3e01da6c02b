"""Tests for XML persistence, batches/undo, and the TrimManager façade."""

import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PersistenceError, TransactionError
from repro.triples import persistence
from repro.triples.namespaces import NamespaceRegistry
from repro.triples.query import Pattern, Query, Var
from repro.triples.store import TripleStore
from repro.triples.transactions import Batch, UndoLog
from repro.triples.trim import TrimManager
from repro.triples.triple import Literal, Resource, Triple, triple

from tests.snapshot_files import (framed, raw_segments, stored_segments,
                                  v2_text_snapshot)

uris = st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
               min_size=1, max_size=12)
resources = st.builds(Resource, uris)
literals = st.builds(Literal, st.one_of(
    st.text(max_size=12,
            alphabet=st.characters(blacklist_categories=("Cs", "Cc"))),
    st.integers(-10**9, 10**9),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False)))
triples_st = st.builds(Triple, resources, resources,
                       st.one_of(resources, literals))

# Hostile text for the escaping round trip (format v2): control characters,
# carriage returns, backslashes, whitespace-only strings, lone surrogates,
# and the U+FFFE/U+FFFF noncharacters — everything XML itself cannot carry.
hostile_text = st.text(
    alphabet=st.one_of(st.characters(),
                       st.sampled_from("\ud800\udfff\ufffe\uffff")),
    max_size=12)
hostile_uris = hostile_text.filter(bool)
hostile_triples_st = st.builds(
    Triple, st.builds(Resource, hostile_uris), st.builds(Resource, hostile_uris),
    st.one_of(st.builds(Resource, hostile_uris),
              st.builds(Literal, hostile_text)))


class TestPersistence:
    def test_round_trip_simple(self, tmp_path):
        s = TripleStore()
        s.add(triple("b1", "slim:bundleName", "Electrolyte"))
        s.add(triple("b1", "slim:bundleContent", Resource("s1")))
        path = str(tmp_path / "pad.xml")
        persistence.save(s, path)
        loaded = persistence.load(path)
        assert set(loaded) == set(s)

    def test_round_trip_preserves_literal_types(self):
        s = TripleStore()
        s.add(triple("a", "p", "3"))
        s.add(triple("a", "q", 3))
        s.add(triple("a", "r", 3.0))
        s.add(triple("a", "s", True))
        loaded = persistence.loads(persistence.dumps(s))
        assert set(loaded) == set(s)

    def test_namespaces_serialized_and_restored(self):
        s = TripleStore()
        s.add(triple("a", "slim:p", 1))
        registry = NamespaceRegistry.with_defaults()
        text = persistence.dumps(s, registry)
        fresh = NamespaceRegistry()
        persistence.loads(text, fresh)
        assert "slim" in fresh

    def test_malformed_xml_rejected(self):
        with pytest.raises(PersistenceError):
            persistence.loads("<not closed")

    def test_wrong_root_rejected(self):
        with pytest.raises(PersistenceError):
            persistence.loads("<other/>")

    def test_triple_missing_fields_rejected(self):
        with pytest.raises(PersistenceError):
            persistence.loads(
                "<slim-store><triple><subject>s</subject></triple></slim-store>")

    def test_triple_with_both_value_kinds_rejected(self):
        text = ("<slim-store><triple><subject>s</subject>"
                "<property>p</property><resource>r</resource>"
                "<literal type='string'>x</literal></triple></slim-store>")
        with pytest.raises(PersistenceError):
            persistence.loads(text)

    def test_bad_literal_payloads_rejected(self):
        for fragment in ("<literal type='integer'>x</literal>",
                         "<literal type='boolean'>maybe</literal>",
                         "<literal type='float'>x</literal>",
                         "<literal type='mystery'>x</literal>"):
            text = ("<slim-store><triple><subject>s</subject>"
                    f"<property>p</property>{fragment}</triple></slim-store>")
            with pytest.raises(PersistenceError):
                persistence.loads(text)

    def test_unreadable_path_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            persistence.load(str(tmp_path / "missing.xml"))

    def test_empty_string_literal_round_trips(self):
        s = TripleStore()
        s.add(triple("a", "p", ""))
        loaded = persistence.loads(persistence.dumps(s))
        assert triple("a", "p", "") in loaded

    @given(st.lists(triples_st, max_size=25))
    def test_round_trip_is_identity(self, items):
        s = TripleStore()
        s.add_all(items)
        loaded = persistence.loads(persistence.dumps(s))
        assert set(loaded) == set(s)


class TestEscapingRoundTrip:
    """Format v2 rejects nothing and loses nothing: characters XML cannot
    carry (C0 controls, ``\\r``, lone surrogates, U+FFFE/U+FFFF) are
    escaped on dump, unescaped on load."""

    @pytest.mark.parametrize("text", [
        "line\rreturn", "crlf\r\nmix", "\r", "\x00", "\x1b[0m", "\x07bell",
        "tab\tand\nnewline", "   ", "\n", " leading and trailing ",
        "back\\slash", "looks\\u0041escaped", "\\", "\x7f",
        "\ufffe", "\uffff", "non\uffffchar", "\ud800", "\udfff",
        "lone\ud800surrogate",
    ])
    def test_string_literal_round_trips_exactly(self, text):
        s = TripleStore()
        s.add(triple("a", "p", text))
        loaded = persistence.loads(persistence.dumps(s))
        assert [t.value for t in loaded] == [Literal(text)]

    def test_control_chars_in_uris_round_trip(self):
        s = TripleStore()
        s.add(Triple(Resource("subject\rwith cr"), Resource("prop\x01"),
                     Resource("value\x1funit sep")))
        loaded = persistence.loads(persistence.dumps(s))
        assert set(loaded) == set(s)

    def test_dumped_xml_contains_no_raw_control_chars(self):
        s = TripleStore()
        s.add(triple("a", "p", "cr\rnul\x00"))
        text = persistence.dumps(s)
        assert "\r" not in text
        assert "\x00" not in text
        assert "\\u000d" in text and "\\u0000" in text

    def test_dumped_xml_contains_no_raw_noncharacters(self):
        # expat rejects these outright on load, so they must never reach
        # the XML layer raw — and a durable snapshot containing one must
        # stay recoverable.
        s = TripleStore()
        s.add(triple("a", "p", "non\uffffchar\ufffe\ud800"))
        text = persistence.dumps(s)
        assert "\uffff" not in text and "\ufffe" not in text
        assert "\\uffff" in text and "\\ufffe" in text and "\\ud800" in text
        loaded = persistence.loads(text)
        assert [t.value for t in loaded] == [Literal("non\uffffchar\ufffe\ud800")]

    def test_version_1_documents_load_unescaped(self):
        # Pre-escaping files carry backslashes verbatim; loading must not
        # misinterpret them as v2 escape sequences.
        text = ("<slim-store version='1'><triple><subject>s</subject>"
                "<property>p</property>"
                "<literal type='string'>raw\\u0041backslash\\\\</literal>"
                "</triple></slim-store>")
        loaded = persistence.loads(text)
        assert [t.value for t in loaded] == [Literal("raw\\u0041backslash\\\\")]

    def test_versionless_documents_default_to_v1(self):
        text = ("<slim-store><triple><subject>s</subject>"
                "<property>p</property>"
                "<literal type='string'>a\\u0042c</literal>"
                "</triple></slim-store>")
        loaded = persistence.loads(text)
        assert [t.value for t in loaded] == [Literal("a\\u0042c")]

    @given(st.lists(hostile_triples_st, max_size=20))
    def test_hostile_round_trip_is_identity(self, items):
        s = TripleStore()
        s.add_all(items)
        loaded = persistence.loads(persistence.dumps(s))
        assert set(loaded) == set(s)

    @given(hostile_text)
    def test_escape_unescape_is_identity(self, text):
        escaped = persistence._escape_text(text)
        assert persistence._unescape_text(escaped) == text


class TestNamespaceRoundTrip:
    def test_loads_attaches_namespaces_by_default(self):
        s = TripleStore()
        s.add(triple("a", "slim:p", 1))
        registry = NamespaceRegistry.with_defaults()
        registry.register("pad", "http://example.org/pad#")
        loaded = persistence.loads(persistence.dumps(s, registry))
        assert "pad" in loaded.namespaces
        assert loaded.namespaces.expand("pad:x") == "http://example.org/pad#x"

    def test_loads_document_reports_version_and_registry(self):
        s = TripleStore()
        s.add(triple("a", "p", 1))
        registry = NamespaceRegistry.with_defaults()
        document = persistence.loads_document(persistence.dumps(s, registry))
        assert document.version == 2
        assert "slim" in document.namespaces
        assert set(document.store) == set(s)


class TestSnapshots:
    def test_snapshot_round_trips_contents_and_order(self, tmp_path):
        s = TripleStore()
        items = [triple(f"s{i}", "p", i) for i in range(5)]
        for t in items:
            s.add(t)
        s.remove(items[2])
        s.restore(items[2], 2)   # non-trivial sequence state
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(s, path, group=9)
        snapshot = persistence.load_snapshot(path)
        assert snapshot.group == 9
        assert list(snapshot.document.store) == items
        assert [snapshot.document.store.sequence_of(t) for t in items] == \
            [s.sequence_of(t) for t in items]

    def test_v2_snapshot_is_refused(self, tmp_path):
        s = TripleStore()
        s.add(triple("a", "p", 1))
        path = str(tmp_path / "snap.slim")
        open(path, "wb").write(v2_text_snapshot(s, group=3))
        before = open(path, "rb").read()
        target = TripleStore()
        with pytest.raises(PersistenceError, match="earlier release"):
            persistence.load_snapshot(path, store=target)
        assert len(target) == 0
        assert open(path, "rb").read() == before

    def test_v3_snapshot_starts_with_binary_magic(self, tmp_path):
        s = TripleStore()
        s.add(triple("a", "p", 1))
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(s, path, group=3)
        assert open(path, "rb").read(8) == persistence.SNAPSHOT_MAGIC_V3

    def test_truncated_snapshot_rejected(self, tmp_path):
        s = TripleStore()
        s.add(triple("a", "p", 1))
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(s, path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-10])
        with pytest.raises(PersistenceError):
            persistence.load_snapshot(path)

    def test_non_snapshot_file_rejected(self, tmp_path):
        path = str(tmp_path / "plain.xml")
        open(path, "w").write("<slim-store version='2'/>")
        with pytest.raises(PersistenceError):
            persistence.load_snapshot(path)


class TestV3SnapshotFormat:
    """Edge cases of the binary columnar snapshot: hostile text, literal
    typing, sparse sequences, dictionary dedup, and corruption checks.

    The v3 writer has no escaping layer (strings travel as raw
    length-prefixed UTF-8 with ``surrogatepass``), so the hostile-text
    cases the XML escapers needed special handling for must round trip
    byte-exactly here with no transformation at all.
    """

    def test_hostile_text_round_trips_exactly(self, tmp_path):
        s = TripleStore()
        hostile = ["\x00", "CR\rLF\nTAB\t", "\ud800 lone surrogate",
                   "￾￿", "]]>&<'\"", "café \U0001f40d", " "]
        for i, text in enumerate(hostile):
            s.add(Triple(Resource(text), Resource(f"p{i}"), Literal(text)))
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(s, path, group=1)
        loaded = persistence.load_snapshot(path).document.store
        assert list(loaded) == list(s)
        assert [t.subject.uri for t in loaded] == hostile

    def test_literal_types_survive_distinctly(self, tmp_path):
        s = TripleStore()
        for value in ("3", 3, 3.0, True, False, "", -2**40, 0.5):
            s.add(triple("a", "p", value))
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(s, path)
        loaded = persistence.load_snapshot(path).document.store
        assert [t.value for t in loaded] == [t.value for t in s]
        assert [type(t.value.value) for t in loaded] == \
            [type(t.value.value) for t in s]

    def test_empty_store_round_trips_with_group(self, tmp_path):
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(TripleStore(), path, group=41)
        snapshot = persistence.load_snapshot(path)
        assert snapshot.group == 41
        assert len(snapshot.document.store) == 0

    def test_sparse_sequences_preserved(self, tmp_path):
        s = TripleStore()
        for seq in (3, 100, 7, 2**40):
            s.restore(triple(f"s{seq}", "p", seq), seq)
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(s, path)
        loaded = persistence.load_snapshot(path).document.store
        assert [loaded.sequence_of(t) for t in loaded] == [3, 7, 100, 2**40]

    def test_dictionary_stores_repeated_nodes_once(self, tmp_path):
        s = TripleStore()
        for i in range(50):
            s.add(triple("the-shared-subject", "the-shared-property", i))
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(s, path)
        nodes = _dictionary_nodes(open(path, "rb").read())
        assert len(nodes) == 52
        assert nodes.count(Resource("the-shared-subject")) == 1
        assert nodes.count(Resource("the-shared-property")) == 1

    def test_namespaces_restored(self, tmp_path):
        registry = NamespaceRegistry()
        registry.register("slim", "http://example.org/slim#")
        s = TripleStore()
        s.add(triple("a", "slim:p", 1))
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(s, path, registry, group=2)
        loaded = persistence.load_snapshot(path)
        assert [(n.prefix, n.uri) for n in loaded.document.namespaces] == \
            [("slim", "http://example.org/slim#")]

    def test_bit_flips_never_load_silently(self, tmp_path):
        s = TripleStore()
        for i in range(20):
            s.add(triple(f"s{i}", "p", f"value-{i}"))
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(s, path)
        data = open(path, "rb").read()
        expected = list(s)
        for offset in range(0, len(data), 7):
            damaged = bytearray(data)
            damaged[offset] ^= 0xFF
            open(path, "wb").write(bytes(damaged))
            # Either the loader rejects the file outright, or the flip
            # landed in a frame-length field that still framed a
            # CRC-valid prefix — never a silently different store.
            try:
                loaded = persistence.load_snapshot(path).document.store
            except PersistenceError:
                continue
            assert list(loaded) == expected, f"flip@{offset}"

    @given(items=st.lists(hostile_triples_st, max_size=8, unique=True))
    def test_hostile_round_trip_is_identity(self, items, tmp_path_factory):
        path = str(tmp_path_factory.getbasetemp() / "v3-hostile.slim")
        s = TripleStore()
        s.add_all(items)
        persistence.save_snapshot(s, path)
        loaded = persistence.load_snapshot(path).document.store
        assert list(loaded) == list(s)


def _dictionary_nodes(data):
    nodes = []
    for kind, payload in raw_segments(data):
        if kind == ord("D"):
            persistence._decode_dictionary(payload, "test", nodes)
    return nodes


def _canonical(store):
    """Order, sequences and exact literal values (types, signed zeros
    and NaNs included), comparable across a round trip."""
    def node(n):
        if isinstance(n, Resource):
            return ("r", n.uri)
        return (type(n.value).__name__, repr(n.value))
    return [(node(t.subject), node(t.property), node(t.value),
             store.sequence_of(t)) for t in store]


def _pad_store(count=600):
    s = TripleStore()
    for i in range(count):
        s.add(triple(f"scrap-{i:06d}", "slim:scrapName", f"K+ {i % 40}.0"))
        s.add(triple(f"bundle-{i % 17:06d}", "slim:bundleContent",
                     Resource(f"scrap-{i:06d}")))
    return s


class TestCompressedV3Segments:
    """Dictionary and row segments are stored zlib-compressed as ``d``/
    ``t`` kinds; files holding raw ``D``/``T`` segments, which releases
    before compression wrote, are refused."""

    def test_writer_compresses_dictionary_and_rows(self, tmp_path):
        path = str(tmp_path / "snap.slim")
        raw_size = persistence.save_snapshot(_pad_store(), path, group=4)
        data = open(path, "rb").read()
        kinds = {chr(kind) for kind, _ in stored_segments(data)}
        assert kinds == {"H", "d", "t", "E"}
        legacy = framed(raw_segments(data))
        # save_snapshot reports the uncompressed size: exactly the size
        # of the same snapshot with raw D/T segments.
        assert raw_size == len(legacy)
        assert len(data) * 2 < len(legacy)

    @pytest.mark.parametrize("raw_kinds", ["DT", "D", "T"])
    def test_raw_segments_are_refused(self, raw_kinds, tmp_path):
        store = _pad_store()
        store.restore(triple("late", "p", -0.0), 10**6)
        path = str(tmp_path / "snap.slim")
        raw_size = persistence.save_snapshot(store, path, group=7)
        data = open(path, "rb").read()
        legacy = framed(raw_segments(data, raw_kinds))
        legacy_path = str(tmp_path / "legacy.slim")
        open(legacy_path, "wb").write(legacy)
        target = TripleStore()
        with pytest.raises(PersistenceError, match="earlier release"):
            persistence.load_snapshot(legacy_path, store=target)
        assert len(target) == 0
        assert open(legacy_path, "rb").read() == legacy
        # The compressed original still loads, and reports the size
        # its chunks take uncompressed.
        snapshot = persistence.load_snapshot(path)
        assert snapshot.group == 7
        assert snapshot.raw_bytes == raw_size == len(
            framed(raw_segments(data)))
        assert _canonical(snapshot.document.store) == _canonical(store)

    @given(values=st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, float("nan"), -float("nan"),
                         float("inf"), -float("inf")]),
        st.floats(), st.integers(-2**62, 2**62), st.booleans(),
        st.text(max_size=8)), max_size=12))
    def test_round_trip_keeps_signed_zeros_and_nans(self, values,
                                                    tmp_path_factory):
        path = str(tmp_path_factory.getbasetemp() / "v3-floats.slim")
        s = TripleStore()
        for i, value in enumerate(values):
            s.add(triple(f"s{i}", "p", value))
            s.add(triple("shared", f"q{i}", value))
        persistence.save_snapshot(s, path)
        loaded = persistence.load_snapshot(path).document.store
        assert _canonical(loaded) == _canonical(s)

    def _with_dictionary_payload(self, tmp_path, rewrite):
        """Save a snapshot, replace its first ``d`` payload with
        ``rewrite(raw, stored)`` re-framed under a valid CRC, and return
        the path of the damaged file."""
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(_pad_store(50), path)
        data = open(path, "rb").read()
        segments = stored_segments(data)
        index = next(i for i, (kind, _) in enumerate(segments)
                     if kind == ord("d"))
        stored = segments[index][1]
        raw = persistence._inflate(stored, "test")
        segments[index] = (ord("d"), rewrite(raw, stored))
        open(path, "wb").write(framed(segments))
        return path

    @pytest.mark.parametrize("case", [
        "prefix-short", "prefix-long", "prefix-tiny", "truncated-stream",
        "trailing-bytes", "not-zlib", "no-prefix"])
    def test_damaged_compressed_segment_is_refused(self, case, tmp_path):
        def prefix(length, body):
            return struct.pack(">I", length) + body

        rewrites = {
            "prefix-short": lambda raw, stored: prefix(
                len(raw) - 1, stored[4:]),
            "prefix-long": lambda raw, stored: prefix(
                len(raw) + 1, stored[4:]),
            "prefix-tiny": lambda raw, stored: prefix(0, stored[4:]),
            "truncated-stream": lambda raw, stored: stored[:-3],
            "trailing-bytes": lambda raw, stored: stored + b"\x00",
            "not-zlib": lambda raw, stored: prefix(len(raw), raw),
            "no-prefix": lambda raw, stored: b"\x00\x01",
        }
        path = self._with_dictionary_payload(tmp_path, rewrites[case])
        with pytest.raises(PersistenceError):
            persistence.load_snapshot(path)
        # Sanity: the undamaged rewrite loads, so the refusal above is
        # the damage, not the re-framing.
        intact = self._with_dictionary_payload(
            tmp_path, lambda raw, stored: prefix(
                len(raw), zlib.compress(raw)))
        assert len(persistence.load_snapshot(intact).document.store) == 100


class TestAtomicSave:
    def test_save_replaces_existing_file_atomically(self, tmp_path):
        path = str(tmp_path / "pad.xml")
        first = TripleStore()
        first.add(triple("a", "p", 1))
        persistence.save(first, path)
        second = TripleStore()
        second.add(triple("b", "p", 2))
        persistence.save(second, path)
        assert set(persistence.load(path)) == set(second)
        assert not (tmp_path / "pad.xml.tmp").exists()

    def test_failed_save_leaves_no_temp_file(self, tmp_path):
        store = TripleStore()
        store.add(triple("a", "p", 1))
        with pytest.raises(PersistenceError):
            persistence.save(store, str(tmp_path / "no-such-dir" / "pad.xml"))


class TestBatch:
    def test_commit_keeps_changes(self):
        s = TripleStore()
        with Batch(s) as batch:
            s.add(triple("a", "p", 1))
        assert len(s) == 1
        assert len(batch.changes) == 1

    def test_exception_rolls_back(self):
        s = TripleStore()
        s.add(triple("keep", "p", 1))
        with pytest.raises(RuntimeError):
            with Batch(s):
                s.add(triple("a", "p", 1))
                s.remove(triple("keep", "p", 1))
                raise RuntimeError("boom")
        assert triple("keep", "p", 1) in s
        assert triple("a", "p", 1) not in s
        assert len(s) == 1

    def test_reentering_active_batch_rejected(self):
        s = TripleStore()
        batch = Batch(s)
        with batch:
            with pytest.raises(TransactionError):
                batch.__enter__()

    def test_exit_without_enter_rejected(self):
        with pytest.raises(TransactionError):
            Batch(TripleStore()).__exit__(None, None, None)


class TestUndoLog:
    def test_undo_redo_round_trip(self):
        s = TripleStore()
        log = UndoLog(s)
        s.add(triple("a", "p", 1))
        log.checkpoint()
        s.add(triple("b", "p", 2))
        s.remove(triple("a", "p", 1))
        log.checkpoint()
        log.undo()
        assert triple("a", "p", 1) in s and triple("b", "p", 2) not in s
        log.redo()
        assert triple("a", "p", 1) not in s and triple("b", "p", 2) in s

    def test_checkpoint_empty_returns_false(self):
        log = UndoLog(TripleStore())
        assert log.checkpoint() is False

    def test_new_edit_clears_redo(self):
        s = TripleStore()
        log = UndoLog(s)
        s.add(triple("a", "p", 1))
        log.checkpoint()
        log.undo()
        assert log.can_redo
        s.add(triple("c", "p", 3))
        assert not log.can_redo
        log.checkpoint()

    def test_undo_without_checkpoint_rejected(self):
        s = TripleStore()
        log = UndoLog(s)
        s.add(triple("a", "p", 1))
        with pytest.raises(TransactionError):
            log.undo()

    def test_undo_empty_rejected(self):
        with pytest.raises(TransactionError):
            UndoLog(TripleStore()).undo()

    def test_redo_empty_rejected(self):
        with pytest.raises(TransactionError):
            UndoLog(TripleStore()).redo()

    def test_detach_stops_recording(self):
        s = TripleStore()
        log = UndoLog(s)
        log.detach()
        s.add(triple("a", "p", 1))
        assert log.checkpoint() is False

    @given(st.lists(triples_st, min_size=1, max_size=15, unique=True))
    def test_undo_restores_exact_prior_state(self, items):
        s = TripleStore()
        log = UndoLog(s)
        s.add_all(items[: len(items) // 2])
        log.checkpoint()
        before = set(s)
        s.add_all(items[len(items) // 2:])
        for t in list(s)[:2]:
            s.remove(t)
        if log.checkpoint():
            log.undo()
        assert set(s) == before


class TestSequenceRestoration:
    """Undoing a removal puts the triple back at its *original* position —
    ``select()`` order and persisted files match the pre-change state
    exactly, not just as a set."""

    def test_undo_reinserts_removed_triple_in_place(self):
        s = TripleStore()
        log = UndoLog(s)
        items = [triple(f"s{i}", "p", i) for i in range(4)]
        for t in items:
            s.add(t)
        log.checkpoint()
        s.remove(items[1])
        log.checkpoint()
        log.undo()
        assert list(s) == items
        assert s.select() == items

    def test_undo_redo_cycle_preserves_persisted_bytes(self):
        s = TripleStore()
        log = UndoLog(s)
        items = [triple(f"s{i}", "p", i) for i in range(5)]
        for t in items:
            s.add(t)
        log.checkpoint()
        before = persistence.dumps(s)
        s.remove(items[0])
        s.remove(items[3])
        log.checkpoint()
        log.undo()
        assert persistence.dumps(s) == before
        log.redo()
        log.undo()
        assert persistence.dumps(s) == before

    def test_rollback_reinserts_removed_triples_in_place(self):
        s = TripleStore()
        items = [triple(f"s{i}", "p", i) for i in range(4)]
        for t in items:
            s.add(t)
        with pytest.raises(RuntimeError):
            with Batch(s):
                s.remove(items[0])
                s.remove(items[2])
                s.add(triple("new", "p", 99))
                raise RuntimeError("boom")
        assert list(s) == items
        assert s.select() == items

    @given(st.lists(triples_st, min_size=2, max_size=15, unique=True),
           st.data())
    def test_undo_restores_exact_prior_order(self, items, data):
        s = TripleStore()
        log = UndoLog(s)
        for t in items:
            s.add(t)
        log.checkpoint()
        before = list(s)
        victims = data.draw(st.lists(st.sampled_from(items), min_size=1,
                                     unique=True))
        for t in victims:
            s.remove(t)
        log.checkpoint()
        log.undo()
        assert list(s) == before
        assert s.select() == before


class TestStreamingLoad:
    """The pull-parser loaders: provided-store targets, chunked feeding,
    and transactional rollback on any parse or verification error."""

    def _sample_store(self):
        s = TripleStore()
        s.add(triple("b1", "slim:bundleName", "Electrolyte"))
        s.add(triple("b1", "slim:bundleContent", Resource("s1")))
        s.add(triple("s1", "slim:scrapName", "K+ \r 3.9 \\ done"))
        s.add(triple("s2", "slim:size", -12))
        s.add(triple("s2", "slim:ratio", 2.5))
        s.add(triple("s2", "slim:flag", True))
        return s

    def test_loads_document_into_provided_store(self):
        original = self._sample_store()
        target = TripleStore()
        document = persistence.loads_document(persistence.dumps(original),
                                              store=target)
        assert document.store is target
        assert list(target) == list(original)

    def test_load_target_must_be_empty(self):
        occupied = TripleStore()
        occupied.add(triple("a", "p", 1))
        with pytest.raises(PersistenceError):
            persistence.loads_document("<slim-store version='2'/>",
                                       store=occupied)

    def test_parse_error_rolls_back_target_store(self):
        text = persistence.dumps(self._sample_store())
        torn = text[: len(text) * 2 // 3]
        target = TripleStore()
        with pytest.raises(PersistenceError):
            persistence.loads_document(torn, store=target)
        # Transactional: the triples parsed before the tear are gone.
        assert len(target) == 0
        target.add(triple("fresh", "p", 1))
        assert target.sequence_of(triple("fresh", "p", 1)) == 0

    def test_load_streams_in_small_chunks(self, tmp_path, monkeypatch):
        # Force pathological chunking (7-byte reads) so chunk boundaries
        # fall inside tags, escapes, and multi-byte UTF-8 sequences.
        original = self._sample_store()
        original.add(triple("s3", "slim:unicode", "héllo — 測試"))
        path = str(tmp_path / "pad.xml")
        persistence.save(original, path)
        monkeypatch.setattr(persistence, "_CHUNK", 7)
        loaded = persistence.load(path)
        assert list(loaded) == list(original)

    def test_load_snapshot_into_provided_store(self, tmp_path):
        original = self._sample_store()
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(original, path, group=4)
        target = TripleStore()
        snapshot = persistence.load_snapshot(path, store=target)
        assert snapshot.group == 4
        assert snapshot.document.store is target
        assert list(target) == list(original)
        assert [target.sequence_of(t) for t in target] == \
            [original.sequence_of(t) for t in original]

    def test_snapshot_checksum_error_rolls_back_target(self, tmp_path):
        original = self._sample_store()
        path = str(tmp_path / "snap.slim")
        persistence.save_snapshot(original, path)
        data = bytearray(open(path, "rb").read())
        # Flip a byte inside the dictionary segment's payload, located
        # from the segment framing: the frame stays intact, so only the
        # CRC check can catch this.
        offset = len(persistence.SNAPSHOT_MAGIC_V3)
        frame = persistence._SEG
        while True:
            kind, length, _crc = frame.unpack_from(data, offset)
            offset += frame.size
            if kind == ord("d"):
                break
            offset += length
        assert length > 8
        data[offset + length // 2] ^= 0x01
        open(path, "wb").write(bytes(data))
        target = TripleStore()
        with pytest.raises(PersistenceError):
            persistence.load_snapshot(path, store=target)
        assert len(target) == 0


class TestTrimManager:
    def test_create_select_remove(self):
        trim = TrimManager()
        bundle = trim.new_resource("bundle")
        assert bundle.uri == "bundle-000001"
        t = trim.create(bundle, "slim:bundleName", "Rounds")
        assert trim.select(subject=bundle) == [t]
        trim.remove(t)
        assert trim.select(subject=bundle) == []

    def test_remove_about_wipes_subject(self):
        trim = TrimManager()
        r = trim.new_resource("x")
        trim.create(r, "p", 1)
        trim.create(r, "q", 2)
        assert trim.remove_about(r) == 2

    def test_save_load_round_trip_and_id_safety(self, tmp_path):
        trim = TrimManager()
        bundle = trim.new_resource("bundle")
        trim.create(bundle, "slim:bundleName", "Rounds")
        path = str(tmp_path / "store.xml")
        trim.save(path)

        fresh = TrimManager()
        fresh.load(path)
        assert len(fresh.store) == 1
        # Loaded ids are observed: next minted id does not collide.
        assert fresh.new_resource("bundle").uri == "bundle-000002"

    def test_query_facade(self):
        trim = TrimManager()
        b = trim.new_resource("bundle")
        trim.create(b, "slim:bundleName", "Rounds")
        results = trim.query(Query([
            Pattern(Var("b"), Resource("slim:bundleName"), Var("n"))]))
        assert results[0]["n"] == Literal("Rounds")

    def test_view_facade(self):
        trim = TrimManager()
        b, s = trim.new_resource("bundle"), trim.new_resource("scrap")
        trim.create(b, "slim:bundleContent", s)
        trim.create(s, "slim:scrapName", "K+")
        assert len(trim.reachable(b)) == 2

    def test_batch_facade_rolls_back(self):
        trim = TrimManager()
        with pytest.raises(ValueError):
            with trim.batch():
                trim.create("a", "p", 1)
                raise ValueError("abort")
        assert len(trim.store) == 0

    def test_enable_undo_idempotent(self):
        trim = TrimManager()
        log = trim.enable_undo()
        assert trim.enable_undo() is log
        assert trim.undo_log is log

    def test_dumps_produces_xml(self):
        trim = TrimManager()
        trim.create("a", "p", 1)
        assert trim.dumps().startswith("<?xml")
