"""Canonical state digests: one sha256 per store state, bytes-for-bytes.

Replay's acceptance contract is *byte-identical recovered state*: two
independent replays of the same bundle must land on stores no observer
can tell apart.  The digest canonicalizes everything observable — each
triple with its type-tagged value **and its global insertion sequence**,
in iteration order — so a store that differs in ordering, in sequence
numbering, or in literal typing (``Literal(3)`` vs ``Literal(3.0)`` vs
``Literal(True)``) hashes differently even where the triple *sets*
match.  Strings are encoded with ``surrogatepass`` to match the lossless
v2 persistence escapes (lone surrogates round-trip through the WAL).
"""

from __future__ import annotations

import hashlib

from repro.triples.triple import Resource


def canonical_lines(store) -> "list[bytes]":
    """The store's canonical byte serialization, one line per triple."""
    lines = []
    for statement in store:
        sequence = store.sequence_of(statement)
        value = statement.value
        if isinstance(value, Resource):
            tail = "r\t" + value.uri
        else:
            tail = f"l\t{value.type_name}\t{value.value!r}"
        line = (f"{sequence}\t{statement.subject.uri}\t"
                f"{statement.property.uri}\t{tail}\n")
        lines.append(line.encode("utf-8", "surrogatepass"))
    return lines


def state_digest(store) -> str:
    """The sha256 hex digest of the store's canonical serialization.

    Works on any store iterable in global insertion order with a
    ``sequence_of``.
    """
    digest = hashlib.sha256()
    for line in canonical_lines(store):
        digest.update(line)
    return digest.hexdigest()
