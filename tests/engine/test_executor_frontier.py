"""``run_batch`` sources outside the graph, on every kernel.

Product pairs are addressed by flat key ``state * n + node``, so a source
id outside ``0..n-1`` must never be aliased into another state's row: it
keeps its mask bit (the numbering streamed facts map back through does not
shift) and answers empty.
"""

import pytest

from repro.engine import CompiledGraph, available_backends, lower_query, run_batch
from repro.graph import Instance

pytestmark = pytest.mark.parametrize("backend", available_backends())


def chain_graph():
    """x --a--> y --b--> z, compiled; returns (graph, node ids by oid)."""
    instance = Instance([("x", "a", "y"), ("y", "b", "z")])
    graph = CompiledGraph.from_instance(instance)
    ids = {oid: graph.node_id(oid) for oid in ("x", "y", "z")}
    return graph, ids


class TestOutOfRangeIds:
    # Pairs are addressed by the flat key ``state * n + node``, so an
    # unchecked node id lands in some *other* state's row: on the 3-node,
    # 4-state product below, source ``n + 1`` at the initial state used to
    # read as ``(next state, y)`` and answer ``{z}``.
    def product(self):
        graph, ids = chain_graph()
        compiled = lower_query("a b", graph)
        assert (graph.num_nodes, compiled.num_states) == (3, 4)
        return graph, ids, compiled

    @pytest.mark.parametrize("stray", [4, 3, -1, 10**6])
    def test_out_of_range_source_answers_empty(self, backend, stray):
        graph, ids, compiled = self.product()
        streamed = []
        run = run_batch(
            graph,
            compiled,
            [stray, ids["x"]],
            answer_sink=lambda bit, nodes: streamed.append((bit, list(nodes))),
            backend=backend,
        )
        alone = run_batch(graph, compiled, [ids["x"]], backend=backend)
        assert run.answers == [set(), {ids["z"]}]
        assert run.visited_pairs == alone.visited_pairs == 3
        assert run.visited_objects == alone.visited_objects
        # The stray source keeps its bit: the numbering callers map
        # streamed facts back through does not shift.
        assert streamed == [(1, [ids["z"]])]
        witnessed = run_batch(
            graph, compiled, [stray, ids["x"]], witnesses=True, backend=backend
        )
        assert witnessed.witness(stray, ids["z"]) is None
        assert witnessed.witness(ids["x"], ids["z"]) is not None

    def test_only_out_of_range_sources_visit_nothing(self, backend):
        graph, _, compiled = self.product()
        run = run_batch(graph, compiled, [4, -1], backend=backend)
        assert run.answers == [set(), set()]
        assert (run.visited_pairs, run.visited_objects, run.rounds) == (0, 0, 0)
