"""Reachability views over the triple store.

Section 4.4: *"A view is specified by selecting a resource (such as a
Bundle id), where all triples that can be reached from this resource are
returned (e.g., all triples representing nested Bundles within the given
Bundle along with their Scraps)."*

:func:`reachable_triples` computes that closure on demand, and
:func:`view_key` names it in the read cache.  A repeated view is served
from :class:`~repro.triples.cache.ReadCache` through
:meth:`~repro.triples.trim.TrimManager.reachable` (and the service's
``trim.view``): the fill records the ``select(subject=...)`` of every
resource its BFS visits, so an entry survives every write that does not
touch a visited resource's triples.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Optional, Set, Tuple

from repro.triples.store import TripleStore
from repro.triples.triple import Resource, Triple


def reachable_triples(store: TripleStore, root: Resource,
                      follow_properties: Optional[Iterable[Resource]] = None,
                      max_depth: Optional[int] = None) -> List[Triple]:
    """All triples reachable from *root* by following resource-valued triples.

    Traversal is breadth-first from *root*: every triple whose subject is a
    visited resource is in the view, and resource values of those triples
    are visited in turn.  Cycles are handled (each resource expands once).

    ``follow_properties`` restricts which properties are traversed *through*
    (their triples are still included when the subject is reachable);
    ``max_depth`` bounds how many hops from the root are expanded.
    Results are in BFS discovery order, deterministic for a given store.
    """
    allowed = set(follow_properties) if follow_properties is not None else None
    visited: Set[Resource] = {root}
    queue = deque([(root, 0)])
    result: List[Triple] = []
    emitted: Set[Triple] = set()
    while queue:
        resource, depth = queue.popleft()
        for triple in store.select(subject=resource):
            if triple not in emitted:
                emitted.add(triple)
                result.append(triple)
            value = triple.value
            if not isinstance(value, Resource):
                continue
            if allowed is not None and triple.property not in allowed:
                continue
            if max_depth is not None and depth >= max_depth:
                continue
            if value not in visited:
                visited.add(value)
                queue.append((value, depth + 1))
    return result


def view_key(root: Resource,
             follow_properties: Optional[Iterable[Resource]] = None,
             max_depth: Optional[int] = None) -> Tuple:
    """The read-cache key of one :func:`reachable_triples` call: equal
    keys name the same closure (the followed properties are a set)."""
    follow = (frozenset(follow_properties)
              if follow_properties is not None else None)
    return ("view", root, follow, max_depth)

