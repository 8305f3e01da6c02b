"""Namespace management for qualified resource names.

Resources in the SLIM Store use qualified names (``slim:Bundle``,
``rdf:type``).  A :class:`NamespaceRegistry` maps prefixes to base URIs so
stores can be serialized with full URIs and read back with compact names.

Three registries' worth of well-known names ship with the library:

- ``rdf``  — the RDF core vocabulary (``rdf:type``)
- ``rdfs`` — RDF Schema (``rdfs:Class``, ``rdfs:subClassOf``, …), used to
  render the metamodel per Section 4.3
- ``slim`` — this library's vocabulary for the metamodel and for SLIMPad
"""

from __future__ import annotations

import re
import threading
from typing import Dict, Iterator, Tuple

from repro.errors import NamespaceError
from repro.triples.triple import Resource

_PREFIX_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

#: Well-known base URIs.
RDF_URI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_URI = "http://www.w3.org/2000/01/rdf-schema#"
SLIM_URI = "http://repro.example/slim#"


class Namespace:
    """A prefix bound to a base URI; indexing yields qualified Resources.

    ::

        slim = Namespace('slim', SLIM_URI)
        slim['Bundle']       # Resource('slim:Bundle')
        slim.expand('Bundle')  # 'http://repro.example/slim#Bundle'
    """

    def __init__(self, prefix: str, uri: str) -> None:
        if not _PREFIX_RE.match(prefix):
            raise NamespaceError(f"invalid namespace prefix: {prefix!r}")
        if not uri:
            raise NamespaceError("namespace uri must be non-empty")
        self.prefix = prefix
        self.uri = uri

    def __getitem__(self, local: str) -> Resource:
        if not local:
            raise NamespaceError("local name must be non-empty")
        return Resource(f"{self.prefix}:{local}")

    def expand(self, local: str) -> str:
        """Return the full URI for *local*."""
        return self.uri + local

    def __repr__(self) -> str:
        return f"Namespace({self.prefix!r}, {self.uri!r})"


class NamespaceRegistry:
    """Bidirectional prefix <-> URI table.

    Registering the same prefix twice with a different URI is an error;
    re-registering identically is a no-op (idempotent loads).

    Thread-safe: recovery and XML loads register declarations into a
    registry other threads may be using at the same time, so the
    check-then-act in :meth:`register` runs under an internal lock.
    Reads stay lock-free (dict reads are atomic; :meth:`__iter__`
    snapshots the value list).
    """

    def __init__(self) -> None:
        self._by_prefix: Dict[str, Namespace] = {}
        self._register_lock = threading.Lock()

    @classmethod
    def with_defaults(cls) -> "NamespaceRegistry":
        """A registry pre-loaded with ``rdf``, ``rdfs`` and ``slim``."""
        registry = cls()
        registry.register("rdf", RDF_URI)
        registry.register("rdfs", RDFS_URI)
        registry.register("slim", SLIM_URI)
        return registry

    def register(self, prefix: str, uri: str) -> Namespace:
        """Bind *prefix* to *uri*, returning the :class:`Namespace`."""
        with self._register_lock:
            existing = self._by_prefix.get(prefix)
            if existing is not None:
                if existing.uri != uri:
                    raise NamespaceError(
                        f"prefix {prefix!r} already bound to {existing.uri!r}")
                return existing
            namespace = Namespace(prefix, uri)
            self._by_prefix[prefix] = namespace
            return namespace

    def get(self, prefix: str) -> Namespace:
        """Return the namespace for *prefix*; raise if unregistered."""
        try:
            return self._by_prefix[prefix]
        except KeyError:
            raise NamespaceError(f"unregistered namespace prefix: {prefix!r}") from None

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._by_prefix

    def __iter__(self) -> Iterator[Namespace]:
        return iter(list(self._by_prefix.values()))

    def expand(self, qname: str) -> str:
        """Expand ``'slim:Bundle'`` to its full URI.

        Names without a registered prefix pass through unchanged — plain
        generated ids (``bundle-000001``) are legal resource names.
        """
        prefix, local = _split_qname(qname)
        if prefix is not None and prefix in self._by_prefix:
            return self._by_prefix[prefix].expand(local)
        return qname

    def compact(self, uri: str) -> str:
        """Compact a full URI back to a qname when a prefix matches."""
        for namespace in list(self._by_prefix.values()):
            if uri.startswith(namespace.uri):
                local = uri[len(namespace.uri):]
                if local:
                    return f"{namespace.prefix}:{local}"
        return uri


def _split_qname(qname: str) -> Tuple["str | None", str]:
    """Split ``'slim:Bundle'`` into ``('slim', 'Bundle')``.

    Names that are not prefix-shaped (no colon, or a colon inside a URI)
    return ``(None, qname)``.
    """
    if ":" not in qname:
        return None, qname
    prefix, local = qname.split(":", 1)
    if _PREFIX_RE.match(prefix) and "/" not in local:
        return prefix, local
    return None, qname


#: Module-level namespaces most code imports directly.
RDF = Namespace("rdf", RDF_URI)
RDFS = Namespace("rdfs", RDFS_URI)
SLIM = Namespace("slim", SLIM_URI)
