"""Snapshot files in the shapes tests need to build by hand.

No writer for the formats earlier releases used is left in ``src/``:
the XML text snapshot and v3 with uncompressed ``D``/``T`` segments.
These helpers rebuild both from a store or from a current snapshot, and
take a current snapshot apart segment by segment.
"""

import zlib

from repro.triples import persistence


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
