"""The numpy batched kernel as a sparse push over the product-graph CSR.

Four things are pinned here, none of which the dense per-round pull it
replaced could satisfy or needed:

* **proportionality** — the kernel's own work counts
  (``BatchRun.rounds`` / ``edges_gathered`` / ``peak_frontier_rows``) show
  the fixpoint reading the frontier's out-edges, not every edge per round;
* **the lowering** — :meth:`CompiledGraph.numpy_product_csr` equals the
  product adjacency derived from the scalar traversal API over CSR −
  tombstones + overflow, in every storage state the graph can be in;
* **the cache** — keyed by the hashable move table and the graph version,
  bounded, dropped by any mutation;
* **the kernel's corner cases** — several states and labels landing on one
  target in one round, multi-word batches, ``known=`` continuation in
  place, a per-word column-view task — each ``numpy == python == packed ==
  baseline``.
"""

import random

import pytest

from repro.engine import (
    CompiledGraph,
    Engine,
    available_backends,
    lower_query,
    numpy_available,
    run_batch,
)
from repro.graph import Instance, web_like_graph
from repro.query.evaluation import evaluate_baseline

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the product-CSR lowering needs numpy"
)


def chain_instance(length: int) -> Instance:
    return Instance([(f"n{i:05d}", "a", f"n{i + 1:05d}") for i in range(length - 1)])


def baseline_answers(instance: Instance, expression: str, source) -> set:
    return set(evaluate_baseline(expression, source, instance).answers)


def all_backends_agree(instance, graph, expression, sources, **kwargs):
    """Run every available executor; assert they agree with each other and
    with the baseline evaluator; return the per-backend runs."""
    compiled = lower_query(expression, graph)
    node_ids = [graph.node_id(source) for source in sources]
    expected = [baseline_answers(instance, expression, source) for source in sources]
    runs = {}
    for backend in available_backends():
        run = run_batch(graph, compiled, node_ids, backend=backend, **kwargs)
        assert [graph.oids_of(nodes) for nodes in run.answers] == expected, backend
        runs[backend] = run
    reference = runs["python"]
    for backend, run in runs.items():
        assert run.visited_pairs == reference.visited_pairs, backend
        assert run.visited_objects == reference.visited_objects, backend
    return runs


# -- (a) proportionality, by count ---------------------------------------------
class TestWorkCounts:
    @pytest.mark.parametrize("backend", available_backends())
    def test_chain_star_gathers_frontier_edges_not_all_edges_per_round(
        self, backend
    ):
        # One source walking a 4 000-node chain under a*: 4 000 rounds of a
        # one-pair frontier.  A per-round pull over the label's edges reads
        # rounds x |E| ~ 16 M slots; the push reads each edge once.
        length = 4000
        graph = CompiledGraph.from_instance(chain_instance(length))
        compiled = lower_query("a*", graph)
        run = run_batch(graph, compiled, [graph.node_id("n00000")], backend=backend)
        assert run.visited_pairs == length
        assert len(run.answers[0]) == length
        assert run.rounds == length
        assert run.peak_frontier_rows == 1
        assert length - 1 <= run.edges_gathered <= 2 * run.visited_pairs

    @needs_numpy
    def test_round_kernels_report_identical_counts(self):
        # The packed and numpy kernels are the same level-synchronous delta
        # fixpoint, so their counts coincide exactly; the queue executor
        # merges growth while a pair waits, so it may gather fewer edges.
        instance, _ = web_like_graph(300, ["a", "b", "c"], seed=3)
        graph = CompiledGraph.from_instance(instance)
        compiled = lower_query("(a + b)* c", graph)
        sources = list(range(0, 300, 7))
        counts = {
            backend: run_batch(graph, compiled, sources, backend=backend).work_counts()
            for backend in ("numpy", "packed", "python")
        }
        assert counts["numpy"] == counts["packed"]
        assert counts["numpy"]["rounds"] > 1
        assert 0 < counts["python"]["edges_gathered"] <= counts["numpy"]["edges_gathered"]

    def test_counts_reach_the_engine_run_span(self):
        instance, source = web_like_graph(120, ["a", "b"], seed=5)
        engine = Engine.open(instance)
        engine.query_batch("(a + b)*", [source])
        trace = engine.metrics.tracer.last()
        [span] = [span for span in trace.spans if span.name == "engine.run"]
        for name in ("rounds", "edges_gathered", "peak_frontier_rows"):
            assert span.attributes[name] > 0, name


# -- (b) the lowering ----------------------------------------------------------
def product_edges_from_scalar_api(graph: CompiledGraph, moves) -> list:
    n = graph.num_nodes
    return [
        (state * n + node, next_state * n + target)
        for state, row in enumerate(moves)
        for label_id, next_state in row
        for node in range(n)
        for target in graph.successors(node, label_id)
    ]


def product_edges_from_lowering(graph: CompiledGraph, moves) -> list:
    product = graph.numpy_product_csr(moves)
    indptr, dst = product.indptr.tolist(), product.dst.tolist()
    assert len(indptr) == len(moves) * graph.num_nodes + 1
    assert indptr[0] == 0 and indptr[-1] == len(dst)
    return [
        (key, target)
        for key in range(len(indptr) - 1)
        for target in dst[indptr[key]:indptr[key + 1]]
    ]


@needs_numpy
class TestProductLowering:
    EXPRESSION = "(a + b)* c a"

    def check(self, graph: CompiledGraph) -> None:
        moves = lower_query(self.EXPRESSION, graph).moves
        # A multiset: parallel edges under two labels that move to the same
        # state are two product edges, exactly as the scalar BFS walks them.
        assert sorted(product_edges_from_lowering(graph, moves)) == sorted(
            product_edges_from_scalar_api(graph, moves)
        )

    def test_csr_minus_tombstones_plus_overflow_then_compacted(self):
        instance, _ = web_like_graph(60, ["a", "b", "c"], seed=11)
        engine = Engine.open(instance, backend="numpy")
        engine.auto_compact_ratio = None  # keep the garbage until asked
        self.check(engine.graph)
        rng = random.Random(4)
        edges = sorted(instance.edges(), key=repr)
        for source, label, destination in rng.sample(edges, 12):
            engine.remove_edge(source, label, destination)
        for _ in range(12):
            engine.add_edge(f"p{rng.randrange(60)}", rng.choice("abc"), f"p{rng.randrange(60)}")
        graph = engine.graph
        assert graph.tombstone_count() and graph.overflow_edge_count()
        self.check(graph)
        assert engine.compact_now()
        assert not graph.tombstone_count() and not graph.overflow_edge_count()
        self.check(graph)

    def test_new_node_grows_the_key_space(self):
        graph = CompiledGraph.from_instance(
            Instance([("u", "a", "v"), ("v", "c", "w"), ("w", "a", "u")])
        )
        moves = lower_query(self.EXPRESSION, graph).moves
        before = graph.numpy_product_csr(moves)
        graph.add_edge("w", "b", "fresh")  # interns a node: n grows
        after = graph.numpy_product_csr(moves)
        assert after.indptr.size == len(moves) * graph.num_nodes + 1
        assert after.indptr.size > before.indptr.size
        self.check(graph)

    def test_isolated_node_growth_without_version_bump(self):
        # ``ensure_nodes`` appends ids and deliberately keeps the version:
        # flat keys are ``state * n + node``, so the lowering must follow n.
        graph = CompiledGraph.from_instance(Instance([("u", "a", "v"), ("v", "c", "u")]))
        moves = lower_query(self.EXPRESSION, graph).moves
        graph.numpy_product_csr(moves)
        version = graph.version
        assert graph.ensure_nodes(["lonely"]) == 1
        assert graph.version == version
        self.check(graph)

    def test_label_without_edges(self):
        graph = CompiledGraph.from_instance(
            Instance([("u", "a", "v"), ("v", "a", "u")]), labels=["a", "b", "c"]
        )
        self.check(graph)
        compiled = lower_query("c*", graph)  # a label no edge carries
        product = graph.numpy_product_csr(compiled.moves)
        assert product.dst.size == 0 and not product.indptr.any()
        run = run_batch(graph, compiled, [0, 1], backend="numpy")
        assert run.answers == [{0}, {1}]
        assert run.edges_gathered == 0


# -- (c) the cache -------------------------------------------------------------
@needs_numpy
class TestProductCache:
    def test_keyed_by_move_table_not_query_identity(self):
        graph = CompiledGraph.from_instance(Instance([("u", "a", "v"), ("v", "b", "u")]))
        first = lower_query("a b", graph)
        twin = lower_query("a b", graph)
        assert first is not twin and first.moves == twin.moves
        assert graph.numpy_product_csr(first.moves) is graph.numpy_product_csr(twin.moves)
        other = lower_query("(a + b)*", graph)
        assert graph.numpy_product_csr(other.moves) is not graph.numpy_product_csr(
            first.moves
        )

    def test_version_bump_drops_the_lowering(self):
        instance = Instance([("u", "a", "v"), ("v", "a", "w")])
        engine = Engine.open(instance, backend="numpy")
        assert engine.query_batch("a*", ["u"]) == {"u": {"u", "v", "w"}}
        graph = engine.graph
        moves = engine.compiled("a*").moves
        cached = graph.numpy_product_csr(moves)
        assert graph.numpy_product_csr(moves) is cached
        engine.add_edge("w", "a", "x")  # edit -> the next query sees it
        assert engine.query_batch("a*", ["u"]) == {"u": {"u", "v", "w", "x"}}
        assert engine.graph.numpy_product_csr(engine.compiled("a*").moves) is not cached
        engine.remove_edge("u", "a", "v")
        assert engine.query_batch("a*", ["u"]) == {"u": {"u"}}

    def test_cache_is_bounded(self):
        from repro.engine import csr

        graph = CompiledGraph.from_instance(Instance([("u", "a", "v"), ("v", "b", "u")]))
        expressions = ["a", "b", "a b", "b a", "a*", "b*", "(a + b)*", "a b a",
                       "b a b", "a a", "b b", "a* b"]
        tables = {lower_query(expression, graph).moves for expression in expressions}
        assert len(tables) > csr._PRODUCT_CACHE_SIZE
        for moves in tables:
            graph.numpy_product_csr(moves)
        assert len(graph._np_products) == csr._PRODUCT_CACHE_SIZE


# -- (d) kernel corner cases, every backend against the baseline ---------------
class TestKernelCornerCases:
    def test_several_states_and_labels_land_on_one_target_in_one_round(self):
        # From s: a->m1, b->m2 (two states after round one), then m1 -c-> t,
        # m2 -c-> t and m1 -d-> t all arrive at t in round two — through
        # two labels and from two DFA states, from two different sources.
        instance = Instance([
            ("s", "a", "m1"), ("s", "b", "m2"), ("r", "a", "m2"),
            ("m1", "c", "t"), ("m2", "c", "t"), ("m1", "d", "t"), ("m2", "d", "t"),
            ("t", "c", "s"),
        ])
        graph = CompiledGraph.from_instance(instance)
        for expression in ("(a c + b d + a d) c?", "(a + b) (c + d)", "((a + b) (c + d))*"):
            all_backends_agree(instance, graph, expression, ["s", "r", "t"])

    def test_streamed_answers_are_at_most_once_with_two_accepting_states(self):
        # "a + a b?"-style queries accept in two states; a node reached in
        # both (same round or later) is still reported once per source bit.
        instance = Instance([
            ("s", "a", "x"), ("s", "a", "y"), ("x", "b", "y"), ("y", "b", "x"),
            ("r", "a", "x"),
        ])
        graph = CompiledGraph.from_instance(instance)
        compiled = lower_query("a b? b?", graph)
        assert sum(compiled.accepting) > 1
        sources = [graph.node_id("s"), graph.node_id("r")]
        streamed = {}
        for backend in available_backends():
            facts = []
            run = run_batch(
                graph, compiled, sources, backend=backend,
                answer_sink=lambda bit, nodes, facts=facts: facts.extend(
                    (bit, node) for node in nodes
                ),
            )
            assert len(facts) == len(set(facts)), backend
            assert {n for b, n in facts if b == 0} == run.answers[0], backend
            assert {n for b, n in facts if b == 1} == run.answers[1], backend
            streamed[backend] = set(facts)
        assert len(set(map(frozenset, streamed.values()))) == 1

    def test_more_than_64_sources(self):
        instance, _ = web_like_graph(200, ["a", "b", "c"], seed=9)
        graph = CompiledGraph.from_instance(instance)
        sources = sorted(instance.objects, key=repr)[:150]
        runs = all_backends_agree(instance, graph, "(a + b)* c", sources)
        if "numpy" in runs:
            assert runs["numpy"].frontier.words == 3

    @needs_numpy
    def test_known_handle_continues_in_place(self):
        import numpy as np

        instance, _ = web_like_graph(150, ["a", "b"], seed=2)
        graph = CompiledGraph.from_instance(instance)
        compiled = lower_query("(a + b)*", graph)
        first = run_batch(graph, compiled, [0, 1], num_bits=4, backend="numpy")
        masks = first.frontier.masks
        seeds = {(compiled.initial, 2): 0b0100, (compiled.initial, 3): 0b1000}
        second = run_batch(
            graph, compiled, (), seeds=seeds, known=first.frontier, backend="numpy"
        )
        assert second.frontier.masks is masks
        assert np.shares_memory(second.frontier.masks, masks)
        # The continued tensor equals a from-scratch run of all four bits...
        whole = run_batch(graph, compiled, [0, 1, 2, 3], backend="numpy")
        assert np.array_equal(masks, whole.frontier.masks)
        # ... and the chain did the same total work, never redoing bit 0/1's.
        assert first.visited_pairs + second.visited_pairs >= whole.visited_pairs
        for backend in ("python", "packed"):
            run = run_batch(graph, compiled, [0, 1, 2, 3], backend=backend)
            assert run.answers == whole.answers

    @needs_numpy
    def test_per_word_column_view_task(self):
        # The work-stealing path hands the kernel ``masks[:, :, w:w+1]`` — a
        # strided view — as the known handle; the kernel must write through
        # it into the shared tensor, touching no other word column.
        import numpy as np

        from repro.engine.executor_np import NpFrontier

        instance, _ = web_like_graph(180, ["a", "b", "c"], seed=6)
        graph = CompiledGraph.from_instance(instance)
        compiled = lower_query("(a + b)* c", graph)
        sources = list(range(130))  # three words
        whole = run_batch(graph, compiled, sources, backend="numpy")
        words = whole.frontier.words
        assert words == 3
        masks = np.zeros_like(whole.frontier.masks)
        for word in range(words):
            view = masks[:, :, word:word + 1]
            untouched = masks.copy()
            chunk_seeds = {
                (compiled.initial, source): 1 << (source - 64 * word)
                for source in sources[64 * word:64 * (word + 1)]
            }
            known = NpFrontier(view, graph.version)
            run = run_batch(graph, compiled, (), seeds=chunk_seeds, known=known,
                            backend="numpy")
            assert np.shares_memory(run.frontier.masks, masks)
            other = [w for w in range(words) if w != word]
            assert np.array_equal(masks[:, :, other], untouched[:, :, other])
        assert np.array_equal(masks, whole.frontier.masks)
        expected = [
            baseline_answers(instance, "(a + b)* c", graph.oid_of(source))
            for source in (0, 70, 129)
        ]
        assert [graph.oids_of(whole.answers[source]) for source in (0, 70, 129)] == expected
        for backend in ("python", "packed"):
            assert run_batch(graph, compiled, sources, backend=backend).answers == whole.answers

    @needs_numpy
    def test_reached_row_gather_equals_the_dense_scan(self):
        # ``NpFrontier.gather`` reads the rows the chain of runs reported;
        # the reference scans the whole tensor.  Fresh, continued, and
        # merged from per-word column chunks the way the steal path merges
        # them — three words wide, with a third of the nodes skipped.
        import numpy as np

        from repro.engine.executor_np import NpFrontier

        instance, _ = web_like_graph(180, ["a", "b", "c"], seed=6)
        graph = CompiledGraph.from_instance(instance)
        compiled = lower_query("(a + b)* c + a", graph)  # two accepting states
        assert sum(compiled.accepting) == 2
        n, num_bits = graph.num_nodes, 130
        skip = np.zeros(n, dtype=bool)
        skip[::3] = True

        def dense(frontier):
            nonzero = frontier.masks.any(axis=2)
            nonzero[:, skip] = False
            per_bit = [set() for _ in range(num_bits)]
            for state in np.flatnonzero(compiled.accepting):
                for node in np.flatnonzero(nonzero[state]).tolist():
                    mask = frontier.mask_at(int(state), node)
                    for bit in range(num_bits):
                        if mask >> bit & 1:
                            per_bit[bit].add(node)
            return int(nonzero.sum()), int(nonzero.any(axis=0).sum()), per_bit

        def seeds_of(sources):
            return {(compiled.initial, source): 1 << source for source in sources}

        fresh = run_batch(
            graph, compiled, (), seeds=seeds_of(range(0, 130, 2)),
            num_bits=num_bits, backend="numpy",
        ).frontier
        assert fresh.gather(compiled.accepting, num_bits, skip) == dense(fresh)

        continued = run_batch(
            graph, compiled, (), seeds=seeds_of(range(1, 130, 2)), known=fresh,
            num_bits=num_bits, backend="numpy",
        ).frontier
        assert continued.gather(compiled.accepting, num_bits, skip) == dense(continued)
        whole = run_batch(graph, compiled, list(range(130)), backend="numpy")
        assert np.array_equal(continued.masks, whole.frontier.masks)
        assert continued.gather(compiled.accepting, num_bits) == (
            whole.visited_pairs, whole.visited_objects, whole.answers
        )

        # Steal-merged: a first superstep's handle, then one chunk per word
        # column writing into its tensor; the merged handle's reached rows
        # are what it came with plus what each chunk grew.
        first = run_batch(
            graph, compiled, (), seeds=seeds_of(range(0, 130, 2)),
            num_bits=num_bits, backend="numpy",
        ).frontier
        grown = []
        for word in range(first.words):
            view = first.masks[:, :, word:word + 1]
            chunk = run_batch(
                graph, compiled, (),
                seeds={
                    (compiled.initial, source): 1 << (source - 64 * word)
                    for source in range(1, 130, 2)
                    if source >> 6 == word
                },
                known=NpFrontier(view, graph.version, ()),
                backend="numpy",
            )
            grown.append(chunk.frontier.reached[-1])
        merged = NpFrontier(first.masks, graph.version, first.reached + tuple(grown))
        assert np.array_equal(merged.masks, whole.frontier.masks)
        assert merged.gather(compiled.accepting, num_bits, skip) == dense(merged)
        # A handle assembled without reached rows finds them by one scan.
        bare = NpFrontier(merged.masks, graph.version)
        assert bare.gather(compiled.accepting, num_bits, skip) == dense(merged)

    @needs_numpy
    def test_seed_wider_than_the_batch_is_refused(self):
        graph = CompiledGraph.from_instance(Instance([("u", "a", "v")]))
        compiled = lower_query("a", graph)
        with pytest.raises(ValueError, match="wider"):
            run_batch(graph, compiled, (), seeds={(compiled.initial, 0): 1 << 64},
                      num_bits=64, backend="numpy")
