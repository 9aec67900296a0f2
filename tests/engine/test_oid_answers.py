"""Answers that leave the kernels as oids equal the id answers mapped once.

``run_batch(..., as_oids=True)`` maps each kernel's answer groups through
the graph's node id -> oid table (a cached object array for the numpy
kernel, the interner's list for the packed one), and the sessions hand
those sets on as they are.  Three oid shapes guard the mapping:

* tuples — ``np.array`` over equal-length tuples builds a 2-D array, so a
  table built that way would hand out rows instead of oids;
* ints permuted against the node ids — an answer left in id space is
  still a plausible-looking int, so only a real comparison catches it;
* a mix of types.

Every session kind x kernel x method (``query_batch``, the union of what
``query_batch_streaming`` streams, ``query_all``) must equal the node-id
run mapped through ``oids_of`` and the baseline evaluator — on the opened
graph, after an edit that interns a brand-new node (the table grows),
after an out-of-band isolated object (the id space grows without a version
bump), and after an out-of-band edge that makes the session rebuild its
graph object.
"""

import random

import pytest

from test_sharding import MAP_KINDS, shard_map_of
from repro.engine import Engine, ShardedEngine, available_backends, run_batch
from repro.graph import Instance
from repro.query import evaluate_baseline

BACKENDS = available_backends()
QUERIES = ("(a + b)* c", "a b*", "%", "c (a + c)*")
LABELS = ("a", "b", "c")


def _permuted_ints(count):
    # Sorted by repr ("0", "1", "10", "11", "2", ...), so node ids are a
    # non-identity permutation of the very same ints.
    return list(range(count))


def _tuples(count):
    return [("page", index) for index in range(count)]


def _mixed(count):
    kinds = (
        lambda i: f"s{i}",
        lambda i: 1000 + i,
        lambda i: ("t", i),
        lambda i: ("nested", (i, "x")),
        lambda i: frozenset({i, -i - 1}),
        lambda i: i + 0.5,
    )
    return [kinds[index % len(kinds)](index) for index in range(count)]


OID_KINDS = {"tuples": _tuples, "permuted-ints": _permuted_ints, "mixed": _mixed}


def _instance(oids, seed=3):
    rng = random.Random(seed)
    instance = Instance()
    for oid in oids:
        instance.add_object(oid)
    for _ in range(3 * len(oids)):
        instance.add_edge(rng.choice(oids), rng.choice(LABELS), rng.choice(oids))
    return instance


def _sessions(oids, backend):
    """Each session kind over an instance of its own (the test edits it)."""
    yield "engine", Engine.open(_instance(oids), backend=backend)
    for kind in MAP_KINDS:
        instance = _instance(oids)
        yield kind, ShardedEngine.open(
            instance, shard_map=shard_map_of(kind, instance), backend=backend
        )


def _by_node_ids(session, query, sources):
    """The node-id run, mapped to oids afterwards: the reference mapping."""
    compiled = session.compiled(query)  # refreshes first
    graph = session.graph
    ids = [graph.node_id(source) for source in sources]
    run = run_batch(graph, compiled, ids, backend=session.backend)
    return {source: graph.oids_of(answers) for source, answers in zip(sources, run.answers)}


def _streamed(session, query, sources):
    facts = []
    returned = session.query_batch_streaming(
        query, sources, lambda source, answers: facts.extend(
            (source, answer) for answer in answers
        ),
    )
    union = {source: set() for source in sources}
    for source, answer in facts:
        union[source].add(answer)
    assert len(facts) == len(set(facts)), "a fact streamed twice"
    assert {source: union[source] for source in returned} == returned
    return union


def _check(session, instance, context):
    objects = sorted(instance.objects, key=repr)
    for query in QUERIES:
        where = (context, query)
        expected = {
            source: evaluate_baseline(query, source, instance).answers
            for source in objects
        }
        assert _by_node_ids(session, query, objects) == expected, where
        assert session.query_batch(query, objects) == expected, where
        assert _streamed(session, query, objects) == expected, where
        assert session.query_all(query) == expected, where
        # The driver itself, both answer forms and the sink.
        graph = session.graph
        ids = [graph.node_id(source) for source in objects]
        sunk = {bit: set() for bit in range(len(ids))}
        run = run_batch(
            graph, session.compiled(query), ids, backend=session.backend,
            as_oids=True, answer_sink=lambda bit, answers: sunk[bit].update(answers),
        )
        assert dict(zip(objects, run.answers)) == expected, where
        assert {objects[bit]: found for bit, found in sunk.items()} == expected, where
        if session.backend == "numpy":
            table = graph.numpy_oids()
            assert table.shape == (graph.num_nodes,), where
            assert list(table) == list(graph.nodes), where


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("oid_kind", sorted(OID_KINDS))
def test_oid_answers_match_mapped_ids_and_baseline(oid_kind, backend):
    oids = OID_KINDS[oid_kind](14)
    if oid_kind == "permuted-ints":
        graph = Engine.open(_instance(oids)).graph
        assert any(graph.node_id(oid) != oid for oid in oids)
    for name, session in _sessions(oids, backend):
        instance = session.instance
        _check(session, instance, (name, "opened"))

        # An edit to a brand-new node: every table must grow by one.
        fresh = OID_KINDS[oid_kind](15)[-1]
        before = session.graph.num_nodes
        session.add_edge(oids[0], "c", fresh)
        assert session.graph.num_nodes == before + 1
        _check(session, instance, (name, "new node"))

        # An isolated object added behind the session's back: the ids grow
        # without a version bump.
        isolated = OID_KINDS[oid_kind](16)[-1]
        instance.add_object(isolated)
        _check(session, instance, (name, "isolated object"))

        # An out-of-band edge: the session replaces its graph object.
        graph = session.graph
        instance.add_edge(isolated, "a", oids[1])
        _check(session, instance, (name, "refreshed"))
        assert session.graph is not graph, name


def test_equal_length_tuple_oids_stay_one_dimensional():
    """The table holds the tuples themselves, never rows of their fields."""
    pytest.importorskip("numpy")
    instance = _instance(_tuples(6))
    graph = Engine.open(instance).graph
    table = graph.numpy_oids()
    assert table.ndim == 1 and table.dtype == object
    assert table.tolist() == list(graph.nodes)
    assert graph.numpy_oids() is table  # cached while the id space holds
