"""Unit tests for the ``seeds=`` / ``known=`` executor parameters.

``run_batch`` has a superstep-continuation surface — ``seeds`` injects
source bits at arbitrary ``(state, node)`` pairs, ``known`` pre-loads (or,
given a frontier handle, *continues*) previously derived facts without
re-propagating them, and ``BatchRun.frontier`` exports the cumulative
state.  The sharded engine is its main consumer, but the parameters are
public API on :func:`repro.engine.executor.run_batch`; these tests pin
their semantics directly, on every kernel:

* empty / no-op seeds,
* seeds interacting with tombstoned (incrementally removed) edges,
* semi-naive ``known`` (facts never re-propagate),
* frontier-handle continuation across runs,
* stale handles — ``known`` reuse across a graph version bump must raise,
* node ids outside the graph — never aliased into another state's row.
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


class TestSeeds:
    def test_empty_seeds_with_no_sources_is_an_empty_run(self, backend):
        graph, _ = chain_graph()
        compiled = lower_query("a b", graph)
        run = run_batch(graph, compiled, (), seeds={}, backend=backend)
        assert run.answers == []
        assert run.visited_pairs == 0

    def test_empty_seeds_do_not_change_a_sourced_run(self, backend):
        graph, ids = chain_graph()
        compiled = lower_query("a b", graph)
        plain = run_batch(graph, compiled, [ids["x"]], backend=backend)
        seeded = run_batch(graph, compiled, [ids["x"]], seeds={}, backend=backend)
        assert seeded.answers == plain.answers == [{ids["z"]}]
        assert seeded.visited_pairs == plain.visited_pairs

    def test_seed_at_mid_state_propagates_from_there(self, backend):
        # Seeding bit 0 at (state-after-a, y) answers as if 'x' had walked
        # the 'a' edge already: only the 'b' hop remains.
        graph, ids = chain_graph()
        compiled = lower_query("a b", graph)
        reference = run_batch(graph, compiled, [ids["x"]], backend=backend)
        mid_state = next(
            target
            for label_id, target in compiled.moves[compiled.initial]
            if graph.labels.value_of(label_id) == "a"
        )
        run = run_batch(
            graph,
            compiled,
            (),
            seeds={(mid_state, ids["y"]): 1},
            num_bits=1,
            backend=backend,
        )
        assert run.frontier.mask_at(mid_state, ids["y"]) == 1
        accepting_hits = [
            (state, node)
            for state, node, mask in run.frontier.items()
            if compiled.accepting[state] and mask & 1
        ]
        assert [node for _, node in accepting_hits] == [ids["z"]]
        assert reference.answers == [{ids["z"]}]

    def test_seeds_do_not_traverse_tombstoned_edges(self, backend):
        # Remove y --b--> z, then seed past the removed edge's *source*: the
        # dead edge must not be walked, but the seeded fact itself stands.
        graph, ids = chain_graph()
        graph.remove_edge("y", "b", "z")
        compiled = lower_query("a b", graph)
        mid_state = next(
            (
                target
                for label_id, target in compiled.moves[compiled.initial]
                if graph.labels.value_of(label_id) == "a"
            ),
            None,
        )
        if mid_state is None:
            # Liveness pruning may kill the whole query once 'b' has no live
            # edges; that is itself the right behaviour: nothing to seed.
            run = run_batch(graph, compiled, [ids["x"]], backend=backend)
            assert run.answers == [set()]
            return
        run = run_batch(
            graph,
            compiled,
            (),
            seeds={(mid_state, ids["y"]): 1},
            num_bits=1,
            backend=backend,
        )
        assert run.frontier.mask_at(mid_state, ids["y"]) == 1
        assert all(node != ids["z"] for _, node, _ in run.frontier.items())

    def test_seed_on_node_whose_inbound_edge_was_tombstoned(self, backend):
        # x --a--> y is removed; seeding directly at (initial, y) still
        # reaches z through the live b edge (the tombstone only kills the
        # *edge*, not the node).
        graph, ids = chain_graph()
        graph.remove_edge("x", "a", "y")
        compiled = lower_query("a* b", graph)
        from_x = run_batch(graph, compiled, [ids["x"]], backend=backend)
        assert from_x.answers == [set()]
        seeded = run_batch(
            graph,
            compiled,
            (),
            seeds={(compiled.initial, ids["y"]): 1},
            num_bits=1,
            backend=backend,
        )
        answers = {
            node
            for state, node, mask in seeded.frontier.items()
            if compiled.accepting[state] and mask & 1
        }
        assert answers == {ids["z"]}

    def test_seeds_with_high_global_bits(self, backend):
        # Bit 70 exercises the multi-word mask path of the numpy executor
        # (and is a plain big int for the python one).
        graph, ids = chain_graph()
        compiled = lower_query("a b", graph)
        bit = 70
        run = run_batch(
            graph,
            compiled,
            (),
            seeds={(compiled.initial, ids["x"]): 1 << bit},
            num_bits=bit + 1,
            backend=backend,
        )
        reached = {
            (state, node)
            for state, node, mask in run.frontier.items()
            if mask >> bit & 1 and compiled.accepting[state]
        }
        assert {node for _, node in reached} == {ids["z"]}


class TestKnown:
    def test_known_facts_do_not_repropagate(self, backend):
        # 'known' marks (initial, x) as already handled: with no fresh seeds
        # the fixpoint has nothing to expand, so z is never re-derived.
        graph, ids = chain_graph()
        compiled = lower_query("a b", graph)
        run = run_batch(
            graph,
            compiled,
            (),
            known={(compiled.initial, ids["x"]): 1},
            num_bits=1,
            backend=backend,
        )
        assert run.visited_pairs == 0
        assert all(node != ids["z"] for _, node, _ in run.frontier.items())

    def test_frontier_handle_continues_across_runs(self, backend):
        graph, ids = chain_graph()
        compiled = lower_query("a b", graph)
        first = run_batch(graph, compiled, [ids["x"]], backend=backend)
        mid_state = next(
            target
            for label_id, target in compiled.moves[compiled.initial]
            if graph.labels.value_of(label_id) == "a"
        )
        # Continue the handle with a new bit seeded mid-chain; old facts stay.
        second = run_batch(
            graph,
            compiled,
            (),
            seeds={(mid_state, ids["y"]): 1 << 1},
            known=first.frontier,
            num_bits=2,
            backend=backend,
        )
        frontier = second.frontier
        assert frontier.mask_at(compiled.initial, ids["x"]) & 1
        accepting = [
            (node, mask)
            for state, node, mask in frontier.items()
            if compiled.accepting[state]
        ]
        assert accepting == [(ids["z"], 0b11)]

    def test_stale_frontier_after_add_edge_raises(self, backend):
        graph, ids = chain_graph()
        compiled = lower_query("a b", graph)
        run = run_batch(graph, compiled, [ids["x"]], backend=backend)
        graph.add_edge("x", "a", "z")  # version bump
        with pytest.raises(ValueError, match="stale"):
            run_batch(
                graph, compiled, (), known=run.frontier, num_bits=1,
                backend=backend,
            )

    def test_stale_frontier_after_remove_edge_raises(self, backend):
        graph, ids = chain_graph()
        compiled = lower_query("a b", graph)
        run = run_batch(graph, compiled, [ids["x"]], backend=backend)
        graph.remove_edge("y", "b", "z")
        with pytest.raises(ValueError, match="stale"):
            run_batch(
                graph, compiled, (), known=run.frontier, num_bits=1,
                backend=backend,
            )

    def test_mismatched_shape_still_raises(self, backend):
        graph, ids = chain_graph()
        other = CompiledGraph.from_instance(
            Instance([("p", "a", "q"), ("q", "b", "r"), ("r", "a", "p")])
        )
        compiled = lower_query("a b", graph)
        other_compiled = lower_query("a b a b", other)
        run = run_batch(other, other_compiled, [0], backend=backend)
        with pytest.raises(ValueError, match="frontier"):
            run_batch(
                graph, compiled, [ids["x"]], known=run.frontier,
                backend=backend,
            )

    def test_witnesses_reject_frontier_parameters(self, backend):
        graph, ids = chain_graph()
        compiled = lower_query("a b", graph)
        with pytest.raises(ValueError, match="witnesses"):
            run_batch(
                graph,
                compiled,
                [ids["x"]],
                witnesses=True,
                seeds={(compiled.initial, ids["y"]): 1},
                backend=backend,
            )


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

    @pytest.mark.parametrize("parameter", ["seeds", "known"])
    @pytest.mark.parametrize("key", [(0, 3), (0, -1), (4, 0), (-1, 0)])
    def test_out_of_range_fact_key_raises(self, backend, parameter, key):
        graph, _, compiled = self.product()
        with pytest.raises(ValueError, match=parameter) as excinfo:
            run_batch(
                graph, compiled, (), num_bits=1, backend=backend, **{parameter: {key: 1}}
            )
        assert repr(key) in str(excinfo.value)
