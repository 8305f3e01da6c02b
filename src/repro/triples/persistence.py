"""XML persistence for triple stores, and the binary recovery snapshot.

Section 4.4: TRIM can *"persist (through XML files)"* the triple
representation.  The format is a flat statement list — close in spirit to
RDF/XML's striped form but simpler and loss-free for our typed literals::

    <?xml version='1.0' encoding='utf-8'?>
    <slim-store version="2">
      <namespace prefix="slim" uri="http://repro.example/slim#" />
      <triple>
        <subject>bundle-000001</subject>
        <property>slim:bundleName</property>
        <literal type="string">Electrolyte</literal>
      </triple>
      <triple>
        <subject>bundle-000001</subject>
        <property>slim:bundleContent</property>
        <resource>scrap-000004</resource>
      </triple>
    </slim-store>

Literal types (string/integer/float/boolean) are tagged so a save/load
round trip preserves node identity exactly — a property-tested invariant.

Format version 2 additionally escapes characters XML cannot carry
losslessly: C0 control characters, unpaired surrogates, and the
U+FFFE/U+FFFF noncharacters are rejected by parsers outright, and a
compliant parser normalizes ``\\r`` / ``\\r\\n`` to ``\\n`` on load.  All
would silently break the loss-free round trip, so every text field is
escaped on dump (``\\`` → ``\\\\``, unsafe characters → ``\\uXXXX``) and
unescaped on load.  Version-1 files (no escaping) still load unchanged.

:func:`save` is crash-safe: the document is written to a temporary file,
fsynced, and atomically renamed over the target, so a crash mid-save
leaves either the old file or the new one — never a torn mix.  Loading
is *streaming*: :func:`load` feeds the file through a pull parser
(:class:`xml.etree.ElementTree.XMLPullParser`) and clears each completed
``<triple>`` element immediately, so parse memory stays O(1) in document
size.  Triples are ingested through the store's bulk path
(:meth:`~repro.triples.store.TripleStore.bulk`), which makes every
loader transactional: a parse error rolls the target store back instead
of leaving it half-populated.

The durability subsystem (:mod:`repro.triples.wal`) does not use XML.
:func:`save_snapshot` / :func:`load_snapshot` write and read the one
recovery snapshot format, **v3**: a binary columnar layout of
length-prefixed CRC-checked segments — one header segment (WAL group,
triple count, namespace declarations), a string *dictionary* of nodes
(each URI/literal stored once), then fixed-width triple rows of
``(subject-id, property-id, value-id, sequence)`` integers, every
dictionary and row chunk zlib-compressed (level 1).  The loader verifies
each segment's checksum, inflates and decodes the dictionary once, and
hands the dictionary and integer rows to
:meth:`~repro.triples.store.TripleStore.restore_rows`, which builds the
membership map and all four indexes in one pass.  :func:`save_snapshot`
returns, and :func:`load_snapshot` reports, the snapshot's
*uncompressed* size — the durability layer's full-rewrite trigger is
defined on it.  A snapshot an earlier release wrote (the XML text form,
or v3 with uncompressed chunks) is refused with a
:class:`~repro.errors.PersistenceError` that says how to migrate it.
"""

from __future__ import annotations

import io
import os
import re
import struct
import tempfile
import xml.etree.ElementTree as ET
import zlib
from typing import (IO, Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Tuple, Union)

from repro.errors import PersistenceError
from repro.triples.namespaces import NamespaceRegistry
from repro.triples.store import TripleStore
from repro.triples.triple import Literal, LiteralValue, Node, Resource, Triple

FORMAT_VERSION = "2"

#: Leading bytes of a (v3) snapshot, the only format recovery reads.
SNAPSHOT_MAGIC_V3 = b"SLIMSNP3"

# v3 wire structs.  Segment framing is (kind, payload-length, CRC-32 of
# payload); triple rows are fixed-width columns of dictionary ids plus
# the insertion-sequence number.
_SEG = struct.Struct(">BII")
_ROW = struct.Struct(">IIIQ")
_VU32 = struct.Struct(">I")
_VU64 = struct.Struct(">Q")

_SEG_HEADER = ord("H")
_SEG_END = ord("E")
# Dictionary / row segments: u32 uncompressed length, then the zlib
# stream of the raw dictionary / row chunk.
_SEG_DICT_Z = ord("d")
_SEG_ROWS_Z = ord("t")
#: Uncompressed dictionary / row segments, which only releases before
#: compression wrote.
_SEG_RAW = (ord("D"), ord("T"))
#: zlib level for d/t segments.  On a 71k-triple pad, level 1 stores
#: the snapshot in 30% of its raw size; the default level 6 saves
#: another 14% but takes ~5.6x as long, on the eviction path.
_ZLIB_LEVEL = 1

#: Dictionary entries / triple rows per segment — bounds both writer
#: buffering and the blast radius of a single checksum.
_DICT_CHUNK = 4096
_ROWS_CHUNK = 8192

_RESOURCE_TAG = ord("r")
_LITERAL_TAG = {"string": ord("s"), "integer": ord("i"),
                "float": ord("f"), "boolean": ord("b")}
_TAG_TYPE = {tag: name for name, tag in _LITERAL_TAG.items()}
_RESOURCE_ENTRY = bytes((_RESOURCE_TAG,))
_STRING_TAG = _LITERAL_TAG["string"]

# Characters XML 1.0 cannot round-trip in element content: the C0 controls
# (minus tab and newline, which survive verbatim), carriage return (parsers
# normalize CR and CRLF to LF), unpaired surrogates and the U+FFFE/U+FFFF
# noncharacters (not XML Chars at all — expat rejects them on load), and
# our own escape character.
_UNSAFE_RE = re.compile(
    r"[\\\x00-\x08\x0b\x0c\x0e-\x1f\r\ud800-\udfff\ufffe\uffff]")
_ESCAPED_RE = re.compile(r"\\\\|\\u([0-9a-fA-F]{4})")


def _escape_text(text: str) -> str:
    """Escape backslashes and non-XML-safe characters (format v2)."""
    return _UNSAFE_RE.sub(
        lambda m: "\\\\" if m.group() == "\\" else "\\u%04x" % ord(m.group()),
        text)


def _unescape_text(text: str) -> str:
    """Invert :func:`_escape_text`."""
    def replace(match: "re.Match[str]") -> str:
        if match.group() == "\\\\":
            return "\\"
        return chr(int(match.group(1), 16))
    return _ESCAPED_RE.sub(replace, text)


class Document(NamedTuple):
    """A parsed persistence document: the store plus its metadata."""

    store: TripleStore
    namespaces: NamespaceRegistry
    version: int


def dumps(store: TripleStore,
          namespaces: Optional[NamespaceRegistry] = None) -> str:
    """Serialize *store* to an XML string (UTF-8 text, one doc)."""
    root = ET.Element("slim-store", {"version": FORMAT_VERSION})
    if namespaces is not None:
        for namespace in namespaces:
            ET.SubElement(root, "namespace",
                          {"prefix": namespace.prefix, "uri": namespace.uri})
    for triple in store:
        element = ET.SubElement(root, "triple")
        ET.SubElement(element, "subject").text = _escape_text(triple.subject.uri)
        ET.SubElement(element, "property").text = \
            _escape_text(triple.property.uri)
        if isinstance(triple.value, Resource):
            ET.SubElement(element, "resource").text = \
                _escape_text(triple.value.uri)
        else:
            literal = ET.SubElement(element, "literal",
                                    {"type": triple.value.type_name})
            literal.text = _escape_text(_encode_literal(triple.value.value))
    ET.indent(root)
    buffer = io.BytesIO()
    ET.ElementTree(root).write(buffer, encoding="utf-8", xml_declaration=True)
    return buffer.getvalue().decode("utf-8")


def loads_document(text: str,
                   namespaces: Optional[NamespaceRegistry] = None,
                   store: Optional[TripleStore] = None) -> Document:
    """Parse an XML string produced by :func:`dumps`.

    Namespace declarations always round-trip: they are registered into
    *namespaces* when given, else into a fresh registry; either way the
    populated registry is returned alongside the store.  *store* (which
    must be empty) receives the triples when given — through its bulk
    path, so a parse error rolls it back — else a fresh
    :class:`TripleStore` is built.
    """
    registry = namespaces if namespaces is not None else NamespaceRegistry()
    target = _load_target(store)
    with target.bulk():
        version = _parse_stream([text], registry, target)
    return Document(target, registry, version)


def loads(text: str,
          namespaces: Optional[NamespaceRegistry] = None) -> TripleStore:
    """Parse an XML string produced by :func:`dumps` into a fresh store.

    The document's namespace declarations are registered into *namespaces*
    when given; otherwise they are collected into a fresh registry that is
    re-attached to the returned store as ``store.namespaces`` — either
    way, nothing is dropped.  Use :func:`loads_document` for the explicit
    ``(store, namespaces, version)`` result.
    """
    document = loads_document(text, namespaces)
    if namespaces is None:
        document.store.namespaces = document.namespaces  # type: ignore[attr-defined]
    return document.store


def save(store: TripleStore, path: str,
         namespaces: Optional[NamespaceRegistry] = None) -> None:
    """Write *store* to *path* as XML, atomically (temp + fsync + rename)."""
    text = dumps(store, namespaces)
    _atomic_write(path, text.encode("utf-8"))


def load(path: str,
         namespaces: Optional[NamespaceRegistry] = None,
         store: Optional[TripleStore] = None) -> TripleStore:
    """Read a store previously written by :func:`save`.

    Streams the file in fixed-size chunks — peak memory is independent
    of file size.  *store* and *namespaces* behave as in
    :func:`loads_document`.
    """
    document = load_document(path, namespaces, store)
    if namespaces is None:
        document.store.namespaces = document.namespaces  # type: ignore[attr-defined]
    return document.store


def load_document(path: str,
                  namespaces: Optional[NamespaceRegistry] = None,
                  store: Optional[TripleStore] = None) -> Document:
    """Read a :class:`Document` previously written by :func:`save`."""
    registry = namespaces if namespaces is not None else NamespaceRegistry()
    target = _load_target(store)
    with _open_read(path) as handle:
        with target.bulk():
            version = _parse_stream(_file_chunks(handle, path),
                                    registry, target)
    return Document(target, registry, version)


# -- checksummed snapshots (durability subsystem) ----------------------------

def save_snapshot(store: TripleStore, path: str,
                  namespaces: Optional[NamespaceRegistry] = None,
                  group: int = 0) -> int:
    """Atomically write a checksummed v3 snapshot of *store* to *path*
    (the layout is described in :func:`_encode_snapshot_v3`), recording
    the WAL group it covers.

    Returns the snapshot's *uncompressed* size in bytes: what the file
    would take with every compressed segment stored raw.
    """
    data, raw_size = _encode_snapshot_v3(store, namespaces, group)
    _atomic_write(path, data)
    return raw_size


def _encode_snapshot_v3(store: TripleStore,
                        namespaces: Optional[NamespaceRegistry],
                        group: int) -> Tuple[bytes, int]:
    """Serialize *store* as a binary columnar (format v3) snapshot;
    returns the bytes and the snapshot's uncompressed size.

    Layout: the 8-byte magic, then CRC-framed segments — ``H`` (group,
    triple count, namespace declarations), ``d`` dictionary chunks (every
    distinct node stored once as a type tag plus UTF-8 text), ``t`` row
    chunks (fixed-width ``(subject-id, property-id, value-id, sequence)``
    integers), and a zero-length ``E`` end marker.  Every string field is
    length-prefixed and encoded with ``surrogatepass``, so the format is
    loss-free for exactly the node texts the store accepts — no escaping
    layer, unlike the XML interchange.

    Each ``d``/``t`` payload is the raw dictionary or row chunk
    compressed with zlib at level 1, prefixed with its uncompressed
    length; the CRC covers the stored (compressed) bytes.  The
    uncompressed size is the length the same snapshot would have with
    every ``d``/``t`` payload stored raw — the basis the durability
    layer's full-rewrite trigger compares the WAL against, so
    compression does not change when a rewrite fires.
    """
    # Resources intern by uri, a str whose hash is cached.  Literals
    # keep their (tag, text) key, so 0.0 and -0.0 stay distinct entries.
    resource_ids: Dict[str, int] = {}
    literal_ids: Dict[Tuple[int, str], int] = {}
    entries: List[bytes] = []

    def intern_resource(uri: str) -> int:
        node_id = resource_ids.get(uri)
        if node_id is None:
            node_id = resource_ids[uri] = len(entries)
            entries.append(_RESOURCE_ENTRY + _pack_vstr(uri))
        return node_id

    def intern_value(node: Node) -> int:
        if isinstance(node, Resource):
            return intern_resource(node.uri)
        tag = _LITERAL_TAG.get(node.type_name)
        if tag is None:
            raise PersistenceError(f"unknown literal type: {node.type_name!r}")
        key = (tag, _encode_literal(node.value))
        node_id = literal_ids.get(key)
        if node_id is None:
            node_id = literal_ids[key] = len(entries)
            entries.append(bytes((tag,)) + _pack_vstr(key[1]))
        return node_id

    rows = bytearray()
    # Rows come straight from the membership map, iterated under the
    # store lock so they are one consistent state, instead of a
    # sequence_of() probe per triple.
    with store.lock:
        members = store.sequenced()
        count = len(members)
        for triple, sequence in members:
            rows += _ROW.pack(intern_resource(triple.subject.uri),
                              intern_resource(triple.property.uri),
                              intern_value(triple.value), sequence)

    header = bytearray(_VU64.pack(group))
    header += _VU32.pack(count)
    declarations = list(namespaces) if namespaces is not None else []
    header += _VU32.pack(len(declarations))
    for namespace in declarations:
        header += _pack_vstr(namespace.prefix)
        header += _pack_vstr(namespace.uri)

    out = bytearray(SNAPSHOT_MAGIC_V3)
    raw_size = len(out)
    raw_size += _append_segment(out, _SEG_HEADER, bytes(header))
    for start in range(0, len(entries), _DICT_CHUNK):
        chunk = entries[start:start + _DICT_CHUNK]
        raw_size += _append_deflated(
            out, _SEG_DICT_Z, _VU32.pack(len(chunk)) + b"".join(chunk))
    stride = _ROW.size * _ROWS_CHUNK
    for start in range(0, len(rows), stride):
        chunk = bytes(rows[start:start + stride])
        raw_size += _append_deflated(
            out, _SEG_ROWS_Z, _VU32.pack(len(chunk) // _ROW.size) + chunk)
    raw_size += _append_segment(out, _SEG_END, b"")
    return bytes(out), raw_size


def _append_segment(out: bytearray, kind: int, payload: bytes) -> int:
    """Frame *payload* onto *out*; returns the bytes appended."""
    out += _SEG.pack(kind, len(payload), zlib.crc32(payload))
    out += payload
    return _SEG.size + len(payload)


def _append_deflated(out: bytearray, kind: int, raw: bytes) -> int:
    """Frame *raw* compressed onto *out* as a *kind* segment; returns
    the size the raw segment would have taken."""
    _append_segment(out, kind,
                    _VU32.pack(len(raw)) + zlib.compress(raw, _ZLIB_LEVEL))
    return _SEG.size + len(raw)


def _inflate(payload: bytes, path: str) -> bytes:
    """The raw payload of a compressed ``d``/``t`` segment.

    The output is capped at the stored uncompressed length, and must
    match it exactly with the zlib stream ending at the segment's end:
    a short or long stream, a corrupt one, or trailing bytes all raise.
    """
    if len(payload) < _VU32.size:
        raise PersistenceError(f"{path}: truncated compressed segment")
    (length,) = _VU32.unpack_from(payload, 0)
    if length < _VU32.size:
        # Every raw chunk opens with a u32 count; this also keeps
        # max_length non-zero (zero would mean "unbounded" to zlib).
        raise PersistenceError(f"{path}: bad compressed segment length")
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(memoryview(payload)[_VU32.size:], length)
    except zlib.error as exc:
        raise PersistenceError(
            f"{path}: corrupt compressed segment: {exc}") from exc
    if (len(raw) != length or not inflater.eof or inflater.unconsumed_tail
            or inflater.unused_data):
        raise PersistenceError(
            f"{path}: compressed segment does not match its length "
            f"({len(raw)} of {length} bytes)")
    return raw


def _pack_vstr(text: str) -> bytes:
    data = text.encode("utf-8", "surrogatepass")
    return _VU32.pack(len(data)) + data


def _unpack_vstr(payload: bytes, offset: int, path: str) -> Tuple[str, int]:
    end = offset + _VU32.size
    if end > len(payload):
        raise PersistenceError(f"{path}: truncated string in snapshot segment")
    (length,) = _VU32.unpack_from(payload, offset)
    offset, end = end, end + length
    if end > len(payload):
        raise PersistenceError(f"{path}: truncated string in snapshot segment")
    return payload[offset:end].decode("utf-8", "surrogatepass"), end


class Snapshot(NamedTuple):
    """A verified snapshot: the document plus the WAL group it covers."""

    document: Document
    group: int
    #: Uncompressed size in bytes, as :func:`save_snapshot` returns it.
    raw_bytes: int = 0


def load_snapshot(path: str,
                  namespaces: Optional[NamespaceRegistry] = None,
                  store: Optional[TripleStore] = None) -> Snapshot:
    """Read and verify a snapshot written by :func:`save_snapshot`.

    Segments are verified as they are read (framing, CRC-32, internal
    lengths), and each ``d``/``t`` segment is inflated to exactly its
    recorded length.  The header's triple count must match the rows
    decoded, an ``E`` end marker must close the file, and every row id
    must resolve to a dictionary node of the right kind.  Any violation
    raises :class:`PersistenceError` — snapshots are written atomically,
    so a damaged one is refused outright rather than loaded partially.
    So is a file without the v3 magic or with uncompressed ``D``/``T``
    segments: an earlier release wrote it, and the error says how to
    migrate it.  The result reports the snapshot's uncompressed size
    (``raw_bytes``).

    After full validation the dictionary nodes and integer rows are
    handed to :meth:`~repro.triples.store.TripleStore.restore_rows`
    wholesale.  It is all-or-nothing and needs an empty target with no
    change listeners — recovery loads the snapshot before anything
    subscribes.  *store* behaves as in :func:`loads_document`.
    """
    registry = namespaces if namespaces is not None else NamespaceRegistry()
    target = _load_target(store)
    with _open_read(path) as handle:
        if handle.read(len(SNAPSHOT_MAGIC_V3)) != SNAPSHOT_MAGIC_V3:
            raise _earlier_release(path)
        kind, payload = _read_segment(handle, path)
        if kind != _SEG_HEADER:
            raise PersistenceError(
                f"{path}: v3 snapshot must start with a header segment")
        group, triple_count, declarations = _decode_v3_header(payload, path)
        for prefix, uri in declarations:
            registry.register(prefix, uri)

        nodes: List[Node] = []
        row_chunks: List[bytes] = []
        raw_bytes = len(SNAPSHOT_MAGIC_V3) + _SEG.size + len(payload)
        while True:
            kind, payload = _read_segment(handle, path)
            if kind == _SEG_END:
                if payload:
                    raise PersistenceError(f"{path}: non-empty end segment")
                raw_bytes += _SEG.size
                break
            if kind in _SEG_RAW:
                raise _earlier_release(path)
            if kind != _SEG_DICT_Z and kind != _SEG_ROWS_Z:
                raise PersistenceError(
                    f"{path}: unknown snapshot segment kind {kind:#x}")
            payload = _inflate(payload, path)
            raw_bytes += _SEG.size + len(payload)
            if kind == _SEG_DICT_Z:
                if row_chunks:
                    raise PersistenceError(
                        f"{path}: dictionary segment after triple rows")
                _decode_dictionary(payload, path, nodes)
            else:
                row_chunks.append(_checked_rows(payload, path))
        if handle.read(1):
            raise PersistenceError(
                f"{path}: trailing bytes after end segment")
    rows_seen = sum(len(chunk) // _ROW.size for chunk in row_chunks)
    if rows_seen != triple_count:
        raise PersistenceError(
            f"{path}: snapshot row count mismatch "
            f"({rows_seen} of {triple_count})")

    # Materialize the rows once, chunk by chunk: ``iter_unpack`` runs at
    # C speed into a plain list, so the million-row install loop below
    # pays list iteration instead of a Python generator resumption per
    # row.  The list is transient — it dies when this frame returns.
    rows: List[Tuple[int, int, int, int]] = []
    for chunk in row_chunks:
        rows.extend(_ROW.iter_unpack(chunk))
    row_chunks.clear()

    try:
        target.restore_rows(nodes, rows)
    except (IndexError, ValueError) as exc:
        raise PersistenceError(f"{path}: bad snapshot row: {exc}") from exc
    return Snapshot(Document(target, registry, 3), group, raw_bytes)


def _earlier_release(path: str) -> PersistenceError:
    """The refusal of a snapshot this release cannot read: one written
    before v3 compression (XML text or raw ``D``/``T`` segments)."""
    directory = os.path.dirname(os.path.abspath(path))
    return PersistenceError(
        f"{path}: not a compressed v3 snapshot, so an earlier release "
        f"wrote it (or it is damaged); this release reads no other "
        f"snapshot format. To migrate, open {directory} once with the "
        f"previous release and compact it "
        f"(TrimManager(durable=...).durability.compact(), then close()), "
        f"then open it with this release")


def _read_segment(handle: IO[bytes], path: str) -> Tuple[int, bytes]:
    """Read one CRC-framed segment; raise on truncation or corruption."""
    head = handle.read(_SEG.size)
    if len(head) != _SEG.size:
        raise PersistenceError(f"{path}: truncated snapshot segment header")
    kind, length, crc = _SEG.unpack(head)
    payload = handle.read(length)
    if len(payload) != length:
        raise PersistenceError(
            f"{path}: truncated snapshot segment "
            f"({len(payload)} of {length} bytes)")
    if zlib.crc32(payload) != crc:
        raise PersistenceError(f"{path}: snapshot segment checksum mismatch")
    return kind, payload


def _decode_v3_header(payload: bytes,
                      path: str) -> Tuple[int, int, List[Tuple[str, str]]]:
    fixed = _VU64.size + 2 * _VU32.size
    if len(payload) < fixed:
        raise PersistenceError(f"{path}: truncated v3 snapshot header")
    (group,) = _VU64.unpack_from(payload, 0)
    (triple_count,) = _VU32.unpack_from(payload, _VU64.size)
    (ns_count,) = _VU32.unpack_from(payload, _VU64.size + _VU32.size)
    offset = fixed
    declarations: List[Tuple[str, str]] = []
    for _ in range(ns_count):
        prefix, offset = _unpack_vstr(payload, offset, path)
        uri, offset = _unpack_vstr(payload, offset, path)
        declarations.append((prefix, uri))
    if offset != len(payload):
        raise PersistenceError(f"{path}: v3 snapshot header length mismatch")
    return group, triple_count, declarations


def _decode_dictionary(payload: bytes, path: str,
                       nodes: List[Node]) -> None:
    """Append the nodes of one raw dictionary payload to *nodes*.

    Nodes are built with ``Resource._trusted``/``Literal._trusted``,
    which skip the dataclass constructors: a resource's text is checked
    non-empty here, and a literal's value comes from
    :func:`_decode_literal`, so the constructors' checks already hold.
    """
    size = len(payload)
    if size < _VU32.size:
        raise PersistenceError(f"{path}: truncated dictionary segment")
    (count,) = _VU32.unpack_from(payload, 0)
    offset = _VU32.size
    entry_head = 1 + _VU32.size   # tag byte + text length
    text_length = _VU32.unpack_from
    resource, literal = Resource._trusted, Literal._trusted
    append = nodes.append
    for _ in range(count):
        start = offset + entry_head
        if start > size:
            raise PersistenceError(f"{path}: truncated dictionary segment")
        tag = payload[offset]
        offset = start + text_length(payload, offset + 1)[0]
        if offset > size:
            raise PersistenceError(
                f"{path}: truncated string in snapshot segment")
        text = payload[start:offset].decode("utf-8", "surrogatepass")
        if tag == _RESOURCE_TAG:
            if not text:
                raise PersistenceError(f"{path}: empty resource in dictionary")
            append(resource(text))
        elif tag == _STRING_TAG:
            append(literal(text))
        else:
            type_name = _TAG_TYPE.get(tag)
            if type_name is None:
                raise PersistenceError(
                    f"{path}: unknown dictionary node tag {tag:#x}")
            append(literal(_decode_literal(type_name, text)))
    if offset != size:
        raise PersistenceError(f"{path}: dictionary segment length mismatch")


def _checked_rows(payload: bytes, path: str) -> bytes:
    if len(payload) < _VU32.size:
        raise PersistenceError(f"{path}: truncated triple segment")
    (count,) = _VU32.unpack_from(payload, 0)
    rows = payload[_VU32.size:]
    if len(rows) != count * _ROW.size:
        raise PersistenceError(f"{path}: triple segment length mismatch")
    return rows


# -- internals ---------------------------------------------------------------

#: Streaming read granularity; also bounds parse memory for the loaders.
_CHUNK = 64 * 1024


def _load_target(store: Optional[TripleStore]) -> TripleStore:
    if store is None:
        return TripleStore()
    if len(store):
        raise PersistenceError("load target store must be empty")
    return store


def _open_read(path: str) -> IO[bytes]:
    try:
        return open(path, "rb")
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc


def _file_chunks(handle: IO[bytes], path: str) -> Iterator[bytes]:
    while True:
        try:
            chunk = handle.read(_CHUNK)
        except OSError as exc:
            raise PersistenceError(f"cannot read {path}: {exc}") from exc
        if not chunk:
            return
        yield chunk


def _parse_stream(chunks: Iterable[Union[str, bytes]],
                  registry: NamespaceRegistry, store: TripleStore) -> int:
    """Pull-parse a slim-store document into *store*; returns its version.

    Each completed direct child of the root is handled (namespace
    registered, triple added) and then cleared from the
    in-progress tree, so memory stays bounded by one element plus one
    chunk no matter how large the document is.
    """
    parser = ET.XMLPullParser(events=("start", "end"))
    root: Optional[ET.Element] = None
    version = 1
    escaped = False
    depth = 0

    def drain() -> None:
        nonlocal root, version, escaped, depth
        for event, element in parser.read_events():
            if event == "start":
                if depth == 0:
                    if element.tag != "slim-store":
                        raise PersistenceError(
                            f"expected <slim-store> root, got <{element.tag}>")
                    try:
                        version = int(element.get("version", "1"))
                    except ValueError as exc:
                        raise PersistenceError(
                            "bad slim-store version: "
                            f"{element.get('version')!r}") from exc
                    escaped = version >= 2
                    root = element
                depth += 1
                continue
            depth -= 1
            if depth != 1:
                continue
            if element.tag == "namespace":
                prefix = element.get("prefix")
                uri = element.get("uri")
                if not prefix or not uri:
                    raise PersistenceError(
                        "namespace element missing prefix/uri")
                registry.register(prefix, uri)
            elif element.tag == "triple":
                store.add(_parse_triple(element, escaped))
            else:
                raise PersistenceError(
                    f"unexpected element <{element.tag}>")
            assert root is not None
            root.clear()  # drop the processed child: O(1) parse memory
    try:
        for chunk in chunks:
            parser.feed(chunk)
            drain()
        parser.close()
    except ET.ParseError as exc:
        raise PersistenceError(f"malformed slim-store XML: {exc}") from exc
    drain()
    if root is None:
        raise PersistenceError("malformed slim-store XML: empty document")
    return version


def _atomic_write(path: str, data: bytes) -> None:
    """Write *data* to *path* via a unique temp file + fsync + atomic rename.

    The temp name comes from :func:`tempfile.mkstemp` (in the target's
    directory, so the rename stays atomic), not a fixed ``path + '.tmp'``
    — concurrent savers must never clobber each other's partial data or
    rename someone else's torn file into place.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    except OSError as exc:
        raise PersistenceError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError as exc:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise PersistenceError(f"cannot write {path}: {exc}") from exc
    _fsync_directory(directory)


def _fsync_directory(directory: str) -> None:
    """Flush a directory entry (rename durability); best-effort."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _parse_triple(element: ET.Element, escaped: bool) -> Triple:
    unescape = _unescape_text if escaped else (lambda text: text)
    subject = unescape(_required_text(element, "subject"))
    prop = unescape(_required_text(element, "property"))
    resource = element.find("resource")
    literal = element.find("literal")
    if (resource is None) == (literal is None):
        raise PersistenceError(
            "triple must have exactly one of <resource> or <literal>")
    value: Union[Resource, Literal]
    if resource is not None:
        if not resource.text:
            raise PersistenceError("empty <resource> value")
        value = Resource(unescape(resource.text))
    else:
        value = Literal(_decode_literal(literal.get("type", "string"),
                                        unescape(literal.text or "")))
    return Triple(Resource(subject), Resource(prop), value)


def _required_text(element: ET.Element, tag: str) -> str:
    child = element.find(tag)
    if child is None or not child.text:
        raise PersistenceError(f"triple missing <{tag}>")
    return child.text


def _encode_literal(value: LiteralValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _decode_literal(type_name: str, text: str) -> LiteralValue:
    if type_name == "string":
        return text
    if type_name == "integer":
        try:
            return int(text)
        except ValueError as exc:
            raise PersistenceError(f"bad integer literal: {text!r}") from exc
    if type_name == "float":
        try:
            return float(text)
        except ValueError as exc:
            raise PersistenceError(f"bad float literal: {text!r}") from exc
    if type_name == "boolean":
        if text == "true":
            return True
        if text == "false":
            return False
        raise PersistenceError(f"bad boolean literal: {text!r}")
    raise PersistenceError(f"unknown literal type: {type_name!r}")
