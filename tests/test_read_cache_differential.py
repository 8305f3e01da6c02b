"""Differential property test for the read cache.

Random interleavings of writes — ``create``, ``remove``,
``remove_matching``, bulk ingest, a ``Batch`` that rolls back, and
``clear`` — and reads — ``select``, planner ``query`` and ``reachable``
— run against a cached :class:`TrimManager` and a ``cache=False`` twin.
After every step the two must answer every read identically, row order
included: a cached answer is only ever served while no change has
touched a pattern its fill read.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.triples.query import Pattern, Query, Var
from repro.triples.trim import TrimManager
from repro.triples.triple import Literal, Resource, Triple

SUBJECTS = [Resource(f"s{i}") for i in range(4)]
PROPS = [Resource("bc"), Resource("name"), Resource("note")]
VALUES = SUBJECTS + [Literal("a"), Literal("b")]

QUERIES = [
    [Pattern(Var("b"), Resource("bc"), Var("s")),
     Pattern(Var("s"), Resource("name"), Var("n"))],
    [Pattern(Var("b"), Resource("bc"), Var("s")),
     Pattern(Var("s"), Resource("name"), Literal("a"))],
    [Pattern(SUBJECTS[0], Var("p"), Var("x")),
     Pattern(Var("x"), Var("q"), Var("y"))],
    [Pattern(Var("x"), Resource("note"), Var("v"))],
]
FOLLOWS = [None, [Resource("bc")], [Resource("note"), Resource("bc")]]

#: Reads compared after every step, on top of the step's own read.
PROBES = [
    ("select", SUBJECTS[0], None, None),
    ("select", None, Resource("name"), None),
    ("select", SUBJECTS[1], None, SUBJECTS[2]),
    ("query", 0, True),
    ("query", 2, True),
    ("reachable", SUBJECTS[0], 0, None),
]

triples = st.builds(Triple, st.sampled_from(SUBJECTS),
                    st.sampled_from(PROPS), st.sampled_from(VALUES))
maybe = lambda pool: st.one_of(st.none(), st.sampled_from(pool))  # noqa: E731

reads = st.one_of(
    st.tuples(st.just("select"), maybe(SUBJECTS), maybe(PROPS),
              maybe(VALUES)),
    st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1),
              st.booleans()),
    st.tuples(st.just("reachable"), st.sampled_from(SUBJECTS),
              st.integers(0, len(FOLLOWS) - 1),
              st.one_of(st.none(), st.integers(0, 2))),
)

steps = st.one_of(
    st.tuples(st.just("create"), triples),
    st.tuples(st.just("remove"), triples),
    st.tuples(st.just("remove_matching"), maybe(SUBJECTS), maybe(PROPS)),
    st.tuples(st.just("bulk"), st.lists(triples, max_size=4), reads),
    st.tuples(st.just("rolled_back_batch"), st.lists(triples, max_size=3),
              reads),
    st.tuples(st.just("clear")),
    reads,
    reads,
)


def read(trim, op):
    kind = op[0]
    if kind == "select":
        return trim.select(*op[1:])
    if kind == "query":
        _, which, planner = op
        return trim.query(Query(QUERIES[which], planner=planner))
    _, root, follow, max_depth = op
    return trim.reachable(root, FOLLOWS[follow], max_depth)


def step(trim, op):
    """Apply *op*; return what the reads inside it answered."""
    kind = op[0]
    if kind == "create":
        trim.store.add(op[1])
    elif kind == "remove":
        if op[1] in trim.store:
            trim.remove(op[1])
    elif kind == "remove_matching":
        trim.store.remove_matching(subject=op[1], property=op[2])
    elif kind == "bulk":
        # A read inside the session makes the owner flush mid-ingest.
        with trim.bulk_ingest():
            for statement in op[1][:2]:
                trim.store.add(statement)
            inside = read(trim, op[2])
            for statement in op[1][2:]:
                trim.store.add(statement)
        return inside
    elif kind == "rolled_back_batch":
        answers = []
        try:
            with trim.batch():
                for statement in op[1]:
                    trim.store.add(statement)
                answers.append(read(trim, op[2]))
                raise RuntimeError("roll back")
        except RuntimeError:
            pass
        return answers
    elif kind == "clear":
        trim.store.clear()
    else:
        return read(trim, op)
    return None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(steps, max_size=25), concurrent=st.booleans())
def test_cached_trim_answers_like_uncached_twin(ops, concurrent):
    cached = TrimManager(concurrent=concurrent)
    twin = TrimManager(concurrent=concurrent, cache=False)
    for op in ops:
        assert step(cached, op) == step(twin, op), op
        for probe in PROBES:
            assert read(cached, probe) == read(twin, probe), (op, probe)
    assert set(cached.store) == set(twin.store)
