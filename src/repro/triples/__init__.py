"""TRIM — the Triple Manager and its triple store (paper Section 4.4).

Public surface:

- :class:`Triple`, :class:`Resource`, :class:`Literal` — the data model
- :class:`TripleStore` — indexed store with selection queries
- :class:`TrimManager` — the façade DMIs program against
- :class:`Query`, :class:`Pattern`, :class:`Var` — conjunctive queries
- :func:`reachable_triples` — reachability views
- :mod:`repro.triples.persistence` — XML save/load, atomic snapshots
- :class:`Batch`, :class:`UndoLog` — grouped changes and undo/redo
- :class:`WriteAheadLog`, :class:`Durability`, :func:`recover` —
  crash-safe persistence (:mod:`repro.triples.wal`)
"""

from repro.triples.namespaces import (
    RDF,
    RDFS,
    SLIM,
    Namespace,
    NamespaceRegistry,
)
from repro.triples.query import Pattern, PlanStep, Query, Var
from repro.triples.store import TripleStore
from repro.triples.transactions import Batch, Change, UndoLog
from repro.triples.trim import TrimManager
from repro.triples.triple import Literal, Node, Resource, Triple, triple
from repro.triples.views import reachable_triples
from repro.triples.wal import (Durability, RecoveryResult, WriteAheadLog,
                               recover)

__all__ = [
    "RDF",
    "RDFS",
    "SLIM",
    "Namespace",
    "NamespaceRegistry",
    "Pattern",
    "PlanStep",
    "Query",
    "Var",
    "TripleStore",
    "Batch",
    "Change",
    "UndoLog",
    "TrimManager",
    "Literal",
    "Node",
    "Resource",
    "Triple",
    "triple",
    "reachable_triples",
    "Durability",
    "RecoveryResult",
    "WriteAheadLog",
    "recover",
]
