"""Snapshot and log files in the shapes tests need to build by hand.

No writer for the formats earlier releases used is left in ``src/``:
the XML text snapshot, v3 with uncompressed ``D``/``T`` segments, and
the delta log that sat between snapshot and WAL.  These helpers rebuild
them from a store, from a current snapshot or from WAL changes, and take
a current snapshot apart segment by segment.
"""

import struct
import zlib

from repro.triples import persistence, wal

#: The delta log's file name and magic, as earlier releases wrote them.
DELTAS_FILE = "deltas.slim"
DELTA_MAGIC = b"SLIMDLT1"


def stored_segments(data):
    """The ``(kind, stored payload)`` segments of a v3 snapshot."""
    assert data[:8] == persistence.SNAPSHOT_MAGIC_V3
    segments = []
    offset = 8
    frame = persistence._SEG
    while offset < len(data):
        kind, length, _crc = frame.unpack_from(data, offset)
        offset += frame.size
        segments.append((kind, data[offset:offset + length]))
        offset += length
    return segments


def raw_segments(data, kinds="DT"):
    """The segments with every ``d``/``t`` payload whose upper-case kind
    is in *kinds* inflated and relabelled ``D``/``T``: the uncompressed
    form of the snapshot, as releases before compression wrote it."""
    raw = []
    for kind, payload in stored_segments(data):
        if chr(kind) in kinds.lower():
            raw.append((ord(chr(kind).upper()),
                        persistence._inflate(payload, "test")))
        else:
            raw.append((kind, payload))
    return raw


def framed(segments):
    """A v3 file from ``(kind, payload)`` segments, each CRC-framed."""
    out = bytearray(persistence.SNAPSHOT_MAGIC_V3)
    for kind, payload in segments:
        persistence._append_segment(out, kind, payload)
    return bytes(out)


def v2_text_snapshot(store, group=0, namespaces=None):
    """A snapshot in the XML text form (format v2): a checksummed header
    line, then the :func:`~repro.triples.persistence.dumps` document
    (without the per-triple ``seq`` attributes the old writer added)."""
    payload = persistence.dumps(store, namespaces).encode("utf-8")
    header = (f"#slim-snapshot v2 group={group} bytes={len(payload)} "
              f"crc32={zlib.crc32(payload):08x}\n")
    return header.encode("ascii") + payload


def delta_log(segments=()):
    """A delta log as earlier releases wrote it: the magic, then one
    CRC-framed segment per ``(from_group, to_group, changes)`` — each a
    ``'S'`` header and the changes as length-prefixed WAL records."""
    out = bytearray(DELTA_MAGIC)
    for from_group, to_group, changes in segments:
        parts = [b"S", struct.pack(">QQI", from_group, to_group, len(changes))]
        for change in changes:
            record = wal.encode_change(change)
            parts += [struct.pack(">I", len(record)), record]
        payload = b"".join(parts)
        out += struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
    return bytes(out)
