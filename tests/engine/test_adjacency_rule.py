"""The one live-edge rule, pinned from both sides.

``CompiledGraph.successors(node, label_id)`` is the only place the
pure-Python code reads adjacency: the CSR slice, minus tombstoned positions,
plus overflow edges.  These tests pin it against an ``Instance`` mirror
after each kind of edit the CSR represents differently — tombstones,
overflow, overflow on nodes past the compiled CSR, revived slots, dropped
overflow, compaction — and then check every kernel that reads through it
(the scalar BFS, packed's adjacency memo) or applies the same rule in bulk
(numpy's product lowering) on the same edited graphs: the scalar BFS
against ``evaluate_baseline``, each batch kernel against the scalar BFS in
answers and counts.
"""

import pytest

from repro.engine import (
    CompiledGraph,
    available_backends,
    lower_query,
    run_batch,
    run_single,
)
from repro.graph import random_graph
from repro.query import RegularPathQuery, evaluate_baseline

LABELS = ("a", "b")
QUERIES = ("a (a + b)*", "(a b)* b", "b* a b")


def _edit(graph, instance, op, edge):
    getattr(graph, op)(*edge)
    getattr(instance, op)(*edge)


def _sorted_edges(instance):
    return sorted(instance.edges(), key=repr)


def _objects(instance):
    return sorted(instance.objects, key=repr)


def _clean(graph, instance):
    pass


def _tombstones(graph, instance):
    for edge in _sorted_edges(instance)[::3]:
        _edit(graph, instance, "remove_edge", edge)
    assert graph.tombstone_count() > 0


def _node_emptied(graph, instance):
    # Every out-edge of one node tombstoned: its slices are all dead.
    source = _objects(instance)[0]
    for edge in [e for e in _sorted_edges(instance) if e[0] == source]:
        _edit(graph, instance, "remove_edge", edge)
    assert graph.tombstone_count() > 0
    assert instance.out_degree(source) == 0


def _overflow(graph, instance):
    objects = _objects(instance)
    for i in range(12):
        edge = (objects[i], LABELS[i % 2], objects[(i * 7 + 3) % len(objects)])
        if not instance.has_edge(*edge):
            _edit(graph, instance, "add_edge", edge)
    assert graph.overflow_edge_count() > 0


def _overflow_past_csr(graph, instance):
    # New objects get node ids past the compiled CSR's indptr: their
    # successors come from the overflow alone.
    objects = _objects(instance)
    for edge in [
        (objects[0], "a", "late0"),
        ("late0", "b", objects[1]),
        ("late1", "a", "late0"),
        ("late1", "a", objects[2]),
    ]:
        _edit(graph, instance, "add_edge", edge)
    assert graph.overflow_edge_count() == 4


def _revived(graph, instance):
    # Removing then re-adding a compiled edge revives its CSR slot in place.
    edges = _sorted_edges(instance)[::4]
    for edge in edges:
        _edit(graph, instance, "remove_edge", edge)
    for edge in edges[::2]:
        _edit(graph, instance, "add_edge", edge)
    assert graph.tombstone_count() == len(edges) - len(edges[::2])
    assert graph.overflow_edge_count() == 0


def _overflow_dropped(graph, instance):
    _overflow(graph, instance)
    added = graph.overflow_edge_count()
    objects = _objects(instance)
    for i in range(0, 12, 2):
        edge = (objects[i], LABELS[i % 2], objects[(i * 7 + 3) % len(objects)])
        if instance.has_edge(*edge):
            _edit(graph, instance, "remove_edge", edge)
    assert 0 < graph.overflow_edge_count() < added


def _compacted(graph, instance):
    _tombstones(graph, instance)
    _overflow_past_csr(graph, instance)
    graph.compact()
    assert graph.tombstone_count() == 0
    assert graph.overflow_edge_count() == 0


SCENARIOS = {
    "clean": _clean,
    "tombstones": _tombstones,
    "node-emptied": _node_emptied,
    "overflow": _overflow,
    "overflow-past-csr": _overflow_past_csr,
    "revived": _revived,
    "overflow-dropped": _overflow_dropped,
    "compacted": _compacted,
}


def _edited(scenario, *, warm_queries=None):
    """A 30-node graph and its ``Instance`` mirror after ``scenario``'s
    edits.  ``warm_queries`` lowers queries first and runs every batch kernel
    on them, so kernel caches were filled at the pre-edit version."""
    instance, _ = random_graph(30, 3, LABELS, seed=37)
    graph = CompiledGraph.from_instance(instance)
    graph.auto_compact_ratio = None
    compiled = {}
    for text in warm_queries or ():
        compiled[text] = lower_query(text, graph)
        for backend in available_backends():
            run_batch(graph, compiled[text], range(graph.num_nodes), backend=backend)
    SCENARIOS[scenario](graph, instance)
    assert graph.edge_count() == instance.edge_count()
    return graph, instance, compiled


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_successors_equal_the_instance(scenario):
    graph, instance, _ = _edited(scenario)
    assert graph.num_nodes == len(instance)
    for oid in instance.objects:
        node = graph.node_id(oid)
        for label in LABELS:
            got = graph.successors(node, graph.label_id(label))
            assert len(got) == len(set(got)), (oid, label)  # no duplicate edges
            assert sorted(map(graph.oid_of, got), key=repr) == sorted(
                instance.successors(oid, label), key=repr
            ), (oid, label)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scalar_bfs_matches_the_baseline(scenario):
    graph, instance, _ = _edited(scenario)
    for text in QUERIES:
        compiled = lower_query(text, graph)
        rpq = RegularPathQuery.of(text)
        for oid in instance.objects:
            run = run_single(graph, compiled, graph.node_id(oid))
            assert graph.oids_of(run.answers) == evaluate_baseline(rpq, oid, instance).answers, (
                text,
                oid,
            )


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_batch_kernel_matches_the_scalar_bfs(scenario, backend):
    # The queries were lowered, and every kernel run, before the edits: a
    # cached adjacency of the old version must not answer for the new one.
    graph, _, compiled = _edited(scenario, warm_queries=QUERIES)
    nodes = range(graph.num_nodes)
    for text, query in compiled.items():
        singles = [run_single(graph, query, node) for node in nodes]
        batch = run_batch(graph, query, nodes, backend=backend)
        assert batch.answers == [single.answers for single in singles], text
        for node, single in zip(nodes, singles):
            one = run_batch(graph, query, [node], backend=backend)
            assert one.answers == [single.answers], (text, node)
            assert (one.visited_pairs, one.visited_objects) == (
                single.visited_pairs,
                single.visited_objects,
            ), (text, node)


def test_a_node_past_the_csr_has_successors_only_from_overflow():
    instance, _ = random_graph(10, 2, LABELS, seed=3)
    graph = CompiledGraph.from_instance(instance)
    graph.ensure_nodes(["late"])
    late = graph.node_id("late")
    a = graph.label_id("a")
    assert list(graph.successors(late, a)) == []
    graph.add_edge("late", "a", "v0")
    assert list(graph.successors(late, a)) == [graph.node_id("v0")]


def test_a_kept_result_does_not_change_with_later_edits():
    # ``successors`` hands back a fresh sequence: later removes, adds and a
    # compaction leave a result the caller kept as it was.
    instance, _ = random_graph(10, 3, LABELS, seed=5)
    graph = CompiledGraph.from_instance(instance)
    graph.auto_compact_ratio = None
    source, label, _ = _sorted_edges(instance)[0]
    node, lid = graph.node_id(source), graph.label_id(label)
    kept = graph.successors(node, lid)
    before = list(kept)
    for target in list(instance.successors(source, label)):
        graph.remove_edge(source, label, target)
    graph.add_edge(source, label, "late")
    assert list(graph.successors(node, lid)) == [graph.node_id("late")]
    graph.compact()
    assert list(kept) == before
