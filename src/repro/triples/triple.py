"""The triple data model used by TRIM (the Triple Manager).

Section 4.3 of the paper: *"Superimposed model, schema, and instance data is
represented using RDF triples (a triple is composed of a property, a
resource, and a value)."*  We follow RDF terminology — a triple is
``(subject, property, value)`` where the subject is always a
:class:`Resource`, the property is a :class:`Resource`, and the value is
either a :class:`Resource` or a :class:`Literal`.

All three node types are immutable and hashable so triples can live in set-
and dict-based indexes.  Each caches its hash in a ``_hash`` slot when it
is built: the store probes four index buckets and a membership map per
triple, and a Python-level hash recomputed on every probe (a triple's
hash re-hashing its three nodes) dominated cold-open time.  Pickling and
copying go through the constructor (``__reduce__``), so the cached value
is always recomputed in the process that uses it — string hashes are
salted per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import InvalidTripleError

#: Python types a Literal may wrap.
LiteralValue = Union[str, int, float, bool]


@dataclass(frozen=True, order=True)
class Resource:
    """A named node — anything that can be the subject of statements.

    ``uri`` is an opaque identifier; by convention this library uses
    qualified names like ``slim:Bundle`` or plain generated ids like
    ``bundle-000003`` (see :mod:`repro.triples.namespaces`).
    """

    __slots__ = ("uri", "_hash")

    uri: str

    def __post_init__(self) -> None:
        if not self.uri:
            raise InvalidTripleError("Resource uri must be non-empty")
        object.__setattr__(self, "_hash", hash(self.uri))

    @classmethod
    def _trusted(cls, uri: str) -> "Resource":
        """Build a resource from a *uri* the caller has already checked
        to be non-empty, skipping the dataclass constructor (the v3
        snapshot decoder builds every dictionary node this way)."""
        node = cls.__new__(cls)
        object.__setattr__(node, "uri", uri)
        object.__setattr__(node, "_hash", hash(uri))
        return node

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Resource, (self.uri,))

    def __str__(self) -> str:
        return self.uri

    @property
    def local_name(self) -> str:
        """The part after the last ``#``, ``/`` or ``:`` — e.g. ``Bundle``."""
        for sep in ("#", "/", ":"):
            head, found, tail = self.uri.rpartition(sep)
            if found and tail:
                return tail
        return self.uri


@dataclass(frozen=True, eq=False)
class Literal:
    """A constant value node: string, int, float, or bool.

    ``Literal(3)``, ``Literal(3.0)``, ``Literal(True)`` and ``Literal("3")``
    are pairwise distinct — the wrapped *type* is part of identity (Python's
    own ``3 == 3.0 == True`` coercion does not apply), so a round trip
    through persistence preserves node identity exactly (see
    :mod:`repro.triples.persistence`).
    """

    __slots__ = ("value", "_hash")

    value: LiteralValue

    def __post_init__(self) -> None:
        # bool is a subclass of int; accept it explicitly first.
        if not isinstance(self.value, (bool, int, float, str)):
            raise InvalidTripleError(
                f"Literal must wrap str/int/float/bool, got {type(self.value).__name__}")
        object.__setattr__(self, "_hash", hash(self._key()))

    @classmethod
    def _trusted(cls, value: LiteralValue) -> "Literal":
        """Build a literal from a *value* the caller has already checked
        to be a str/int/float/bool, skipping the dataclass constructor
        (the v3 snapshot decoder builds every dictionary node this way)."""
        node = cls.__new__(cls)
        object.__setattr__(node, "value", value)
        object.__setattr__(node, "_hash", hash(node._key()))
        return node

    def _key(self) -> "tuple[type, LiteralValue]":
        return (type(self.value), self.value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Literal, (self.value,))

    def __lt__(self, other: "Literal") -> bool:
        """Deterministic total order: by type tag, then textual form."""
        if not isinstance(other, Literal):
            return NotImplemented
        return ((self.type_name, str(self.value))
                < (other.type_name, str(other.value)))

    def __str__(self) -> str:
        return repr(self.value)

    @property
    def type_name(self) -> str:
        """The literal's type tag: ``string``/``integer``/``float``/``boolean``."""
        if isinstance(self.value, bool):
            return "boolean"
        if isinstance(self.value, int):
            return "integer"
        if isinstance(self.value, float):
            return "float"
        return "string"


#: A triple's value slot holds either kind of node.
Node = Union[Resource, Literal]


@dataclass(frozen=True)
class Triple:
    """One statement: *subject* has *property* with *value*.

    Examples (SLIMPad's Bundle-Scrap data in triple form)::

        Triple(Resource('bundle-01'), Resource('slim:bundleName'), Literal('Electrolyte'))
        Triple(Resource('bundle-01'), Resource('slim:bundleContent'), Resource('scrap-07'))
    """

    __slots__ = ("subject", "property", "value", "_hash")

    subject: Resource
    property: Resource
    value: Node

    def __post_init__(self) -> None:
        if not isinstance(self.subject, Resource):
            raise InvalidTripleError(
                f"triple subject must be a Resource, got {type(self.subject).__name__}")
        if not isinstance(self.property, Resource):
            raise InvalidTripleError(
                f"triple property must be a Resource, got {type(self.property).__name__}")
        if not isinstance(self.value, (Resource, Literal)):
            raise InvalidTripleError(
                f"triple value must be Resource or Literal, got {type(self.value).__name__}")
        # Combines the nodes' cached hashes; TripleStore.restore_rows,
        # which builds triples without this constructor, must match it.
        object.__setattr__(self, "_hash", hash(
            (self.subject._hash, self.property._hash, self.value._hash)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Triple, (self.subject, self.property, self.value))

    def __str__(self) -> str:
        return f"({self.subject} {self.property} {self.value})"

    def as_tuple(self) -> "tuple[Resource, Resource, Node]":
        """Return ``(subject, property, value)``."""
        return (self.subject, self.property, self.value)


def triple(subject: Union[str, Resource], prop: Union[str, Resource],
           value: Union[str, Resource, Literal, int, float, bool]) -> Triple:
    """Convenience constructor coercing plain Python values.

    Strings in subject/property positions become :class:`Resource`; a plain
    value in the value position becomes a :class:`Literal` **unless** it is
    already a node.  To state a resource-valued triple from strings, pass a
    :class:`Resource` explicitly::

        triple('scrap-01', 'slim:scrapName', 'K+ 3.9')          # literal value
        triple('scrap-01', 'slim:scrapMark', Resource('mh-02')) # resource value
    """
    subj = Resource(subject) if isinstance(subject, str) else subject
    pred = Resource(prop) if isinstance(prop, str) else prop
    if isinstance(value, (Resource, Literal)):
        val: Node = value
    else:
        val = Literal(value)
    return Triple(subj, pred, val)
