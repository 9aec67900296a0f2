"""The numpy batched kernel as a sparse push over the product-graph CSR.

Five things are pinned here, none of which the dense per-round pull it
replaced could satisfy or needed:

* **proportionality** — the kernel's own work counts
  (``BatchRun.rounds`` / ``edges_gathered`` / ``peak_frontier_rows``) show
  the fixpoint reading the frontier's out-edges, not every edge per round;
* **the lowering** — :meth:`CompiledGraph.numpy_product_csr` equals the
  product adjacency derived from the scalar traversal API over CSR −
  tombstones + overflow, in every storage state the graph can be in;
* **the cache** — keyed by the hashable move table, bounded, its lookups
  counted as ``built``/``patched``/``hit``;
* **the patch** — an edit brings a cached lowering forward from the
  journal instead of relowering the graph, and the patched lowering equals
  the scalar API's product as a multiset after any interleaving of adds,
  removes, compactions and node growth; the journal holds only what a
  cached lowering still needs;
* **the kernel's corner cases** — several states and labels landing on one
  target in one round, multi-word batches, ``known=`` continuation in
  place — each ``numpy == python == packed == baseline``.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

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

    def test_an_edit_patches_the_lowering(self):
        instance = Instance([("u", "a", "v"), ("v", "a", "w"), ("w", "a", "x")])
        engine = Engine.open(instance, backend="numpy")
        assert engine.query_batch("a*", ["u"]) == {"u": {"u", "v", "w", "x"}}
        graph = engine.graph
        moves = engine.compiled("a*").moves
        cached = graph.numpy_product_csr(moves)
        assert graph.numpy_product_csr(moves) is cached
        assert graph.lowering_counts() == {"built": 1, "patched": 0, "hit": 2}
        indptr, dst = cached.indptr.copy(), cached.dst.copy()
        engine.add_edge("x", "a", "u")  # edit -> the next query sees it
        assert engine.query_batch("a*", ["w"]) == {"w": {"u", "v", "w", "x"}}
        assert graph.lowering_counts() == {"built": 1, "patched": 1, "hit": 2}
        patched = graph.numpy_product_csr(moves)
        assert patched is not cached
        # Derived out of place: the lowering a kernel may still be reading
        # is exactly what it was.
        assert (cached.indptr == indptr).all() and (cached.dst == dst).all()
        engine.remove_edge("u", "a", "v")
        assert engine.query_batch("a*", ["u"]) == {"u": {"u"}}
        assert graph.lowering_counts() == {"built": 1, "patched": 2, "hit": 3}

    def test_a_compaction_keeps_the_lowering(self):
        instance, _ = web_like_graph(40, ["a", "b"], seed=3)
        engine = Engine.open(instance, backend="numpy")
        graph = engine.graph
        moves = engine.compiled("(a + b)*").moves
        graph.numpy_product_csr(moves)
        engine.add_edge("p1", "a", "p2")
        engine.add_edge("p2", "b", "fresh")  # interns a node
        graph.numpy_product_csr(moves)  # n changed: rebuilt
        engine.add_edge("p3", "b", "p4")
        version = graph.version
        assert engine.compact_now() and graph.version > version
        before = graph.lowering_counts()
        assert Counter(product_edges_from_lowering(graph, moves)) == Counter(
            product_edges_from_scalar_api(graph, moves)
        )
        after = graph.lowering_counts()
        # The edge multiset survived the compaction, so only the one edit
        # since the cached version is applied — nothing is relowered.
        assert after["built"] == before["built"]
        assert after["patched"] == before["patched"] + 1
        # An edit the lowering already holds, then a compaction: a hit,
        # restamped to the compacted version.
        engine.add_edge("p5", "a", "p6")
        cached = graph.numpy_product_csr(moves)
        assert engine.compact_now()
        assert graph.numpy_product_csr(moves) is cached
        assert graph._np_products[moves][0] == graph.version
        assert graph.lowering_counts()["hit"] == after["hit"] + 1

    def test_lookups_are_counted_and_traced(self):
        from repro.engine import ShardedEngine
        from repro.engine.telemetry import NULL_SPAN, set_enabled

        instance, source = web_like_graph(80, ["a", "b"], seed=8)
        engine = Engine.open(instance, backend="numpy")
        engine.query_batch("(a + b)*", [source])
        engine.add_edge(source, "a", "p7")
        engine.query_batch("(a + b)*", [source])
        engine.query_batch("(a + b)*", [source])
        runs = [
            span.attributes["lowering"]
            for trace in engine.metrics.tracer.traces()
            for span in trace.spans
            if span.name == "engine.run"
        ]
        assert runs == ["built", "patched", "hit"]
        exported = engine.telemetry()["engine_product_lowerings_total"]
        assert exported == {"built": 1, "patched": 1, "hit": 1}
        text = engine.metrics.registry.render_prometheus()
        assert 'engine_product_lowerings_total{how="patched"} 1' in text
        # Disabled telemetry: the run has no span to carry the attribute,
        # and the lookup is still counted.
        previous = set_enabled(False)
        try:
            assert engine.metrics.span("engine.run") is NULL_SPAN
            engine.add_edge(source, "b", "p9")
            engine.query_batch("(a + b)*", [source])
        finally:
            set_enabled(previous)
        assert engine.graph.lowering_counts()["patched"] == 2
        sharded = ShardedEngine.open(instance, shards=2, backend="numpy")
        sharded.query_batch("(a + b)*", [source])
        counts = sharded.telemetry()["sharded_product_lowerings_total"]
        for how in ("built", "patched", "hit"):
            assert counts[how] == sum(
                shard.graph.lowering_counts()[how] for shard in sharded.shard_engines
            )
        assert counts["built"] > 0

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


# -- (d) the patch -------------------------------------------------------------
#: Two labels moving to one state ((a + b)* from state 0), a label the seed
#: graph lacks (d), and a table whose accepting state has no moves.
PATCH_EXPRESSIONS = ("(a + b)* c", "a (b + d)*", "c a")

edit_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["add", "revive", "add_node", "add_label", "remove_overflow",
             "remove_csr", "compact", "ensure_nodes"]
        ),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    ),
    min_size=1,
    max_size=14,
)


def patch_seed_instance(seed: int) -> Instance:
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(10)]
    edges = {(rng.choice(nodes), rng.choice("abc"), rng.choice(nodes)) for _ in range(28)}
    # Parallel edges under the two labels (a + b)* moves to one state on.
    edges |= {("n0", "a", "n1"), ("n0", "b", "n1"), ("n1", "a", "n2"), ("n1", "b", "n2")}
    return Instance(sorted(edges))


@needs_numpy
class TestPatchedLowering:
    @given(seed=st.integers(0, 2**16), steps=edit_steps)
    def test_patched_lowering_equals_the_scalar_product_after_every_step(
        self, seed, steps
    ):
        instance = patch_seed_instance(seed)
        engine = Engine.open(instance, backend="numpy")
        engine.auto_compact_ratio = None  # compactions are steps of their own
        graph = engine.graph
        sources = ["n0", "n3", "n7"]
        revivable: "list[tuple]" = []  # removed edges whose CSR slot is dead
        fresh = 0

        def check() -> None:
            for expression in PATCH_EXPRESSIONS:
                moves = engine.compiled(expression).moves
                assert Counter(product_edges_from_lowering(graph, moves)) == Counter(
                    product_edges_from_scalar_api(graph, moves)
                ), expression
                answers = engine.query_batch(expression, sources)
                for source in sources:
                    assert answers[source] == baseline_answers(
                        engine.instance, expression, source
                    ), (expression, source)

        def edges_where(in_overflow: bool) -> "list[tuple]":
            picked = []
            for sid, lid, did in sorted(graph.iter_edges()):
                extra = graph.overflow_successors(sid, lid) or ()
                if (did in extra) == in_overflow:
                    picked.append(
                        (graph.oid_of(sid), graph.labels.value_of(lid), graph.oid_of(did))
                    )
            return picked

        check()
        for kind, first, second in steps:
            nodes = sorted(engine.instance.objects, key=repr)
            if kind in ("add", "add_label"):
                label = "d" if kind == "add_label" else "abc"[second % 3]
                engine.add_edge(nodes[first % len(nodes)], label, nodes[second % len(nodes)])
            elif kind == "add_node":
                fresh += 1
                engine.add_edge(nodes[first % len(nodes)], "abc"[second % 3], f"x{fresh}")
            elif kind == "revive" and revivable:
                edge = revivable.pop(first % len(revivable))
                tombstones = graph.tombstone_count()
                engine.add_edge(*edge)
                assert graph.tombstone_count() == tombstones - 1
            elif kind in ("remove_overflow", "remove_csr"):
                candidates = edges_where(kind == "remove_overflow")
                if candidates:
                    edge = candidates[first % len(candidates)]
                    engine.remove_edge(*edge)
                    if kind == "remove_csr":
                        revivable.append(edge)
            elif kind == "compact":
                engine.compact_now()
                revivable.clear()
            elif kind == "ensure_nodes":
                fresh += 1
                engine.instance.add_object(f"x{fresh}")
                engine.refresh()  # grows the interner, keeps the version
            check()
        counts = graph.lowering_counts()
        assert counts["built"] + counts["patched"] + counts["hit"] > 0

    def test_an_edit_transaction_is_one_patch(self):
        instance, source = web_like_graph(200, ["a", "b", "c"], seed=4)
        engine = Engine.open(instance, backend="numpy")
        engine.query_batch("(a + b)* c", [source])
        before = engine.graph.lowering_counts()
        rng = random.Random(5)
        for _ in range(20):
            engine.add_edge(f"p{rng.randrange(200)}", "abc"[rng.randrange(3)],
                            f"p{rng.randrange(200)}")
            engine.query_batch("(a + b)* c", [source])
        after = engine.graph.lowering_counts()
        assert after["built"] == before["built"]
        assert after["patched"] - before["patched"] == 20

    def test_the_journal_is_empty_when_nothing_is_cached(self):
        instance, _ = web_like_graph(60, ["a", "b"], seed=1)
        engine = Engine.open(instance, backend="numpy")
        graph = engine.graph
        for index in range(5):
            engine.add_edge("p1", "a", f"p{index + 10}")
        assert graph._np_journal == []
        moves = engine.compiled("(a + b)*").moves
        graph.numpy_product_csr(moves)
        engine.add_edge("p2", "b", "p3")
        assert [entry[1:] for entry in graph._np_journal] == [
            (1, graph.node_id("p2"), graph.label_id("b"), graph.node_id("p3"))
        ]
        engine.remove_edge("p2", "b", "p3")
        assert graph._np_journal[-1][1] == -1
        engine.add_edge("p2", "b", "p3")
        engine.add_edge("p2", "b", "p3")  # already present: nothing journaled
        assert len(graph._np_journal) == 3

    def test_the_journal_holds_only_entries_newer_than_the_oldest_lowering(self):
        instance, _ = web_like_graph(80, ["a", "b", "c"], seed=2)
        engine = Engine.open(instance, backend="numpy")
        graph = engine.graph
        hot = engine.compiled("(a + b)* c").moves
        cold = engine.compiled("(a + b + c)*").moves
        rng = random.Random(3)
        graph.numpy_product_csr(cold)
        for step in range(30):
            engine.add_edge(f"p{rng.randrange(80)}", "abc"[step % 3], f"p{rng.randrange(80)}")
            graph.numpy_product_csr(hot)
            if step == 10:
                graph.numpy_product_csr(cold)
            oldest = min(version for version, _n, _p in graph._np_products.values())
            assert all(entry[0] > oldest for entry in graph._np_journal)
            assert len(graph._np_journal) == graph.version - oldest
        # Only the hot lowering is read: the journal is what the cold one
        # still needs, and it empties once that one catches up.
        graph.numpy_product_csr(cold)
        assert graph._np_journal == []

    def test_more_pending_edits_than_edges_rebuilds(self):
        instance = Instance(
            [("u", "a", "v"), ("v", "a", "w"), ("w", "a", "u"), ("w", "c", "u")]
        )
        engine = Engine.open(instance, backend="numpy")
        graph = engine.graph
        big = engine.compiled("(a + c)*").moves
        small = engine.compiled("c").moves
        graph.numpy_product_csr(big)
        graph.numpy_product_csr(small)
        assert graph.numpy_product_csr(small).dst.size == 1
        engine.add_edge("u", "a", "w")
        engine.add_edge("v", "a", "u")  # two pending edits, one product edge
        before = graph.lowering_counts()
        assert Counter(product_edges_from_lowering(graph, small)) == Counter(
            product_edges_from_scalar_api(graph, small)
        )
        after = graph.lowering_counts()
        assert after["built"] == before["built"] + 1
        assert after["patched"] == before["patched"]
        assert graph.numpy_product_csr(big).dst.size == 6
        assert graph.lowering_counts()["patched"] == before["patched"] + 1
        # A lowering outgrown by its journal is dropped at edit time, the
        # oldest first, so the journal never outgrows what it serves.
        for index in range(7):
            engine.add_edge("u", "c", f"t{index}")
            sizes = [product.dst.size for _v, _n, product in graph._np_products.values()]
            assert len(graph._np_journal) <= max(sizes, default=0)
        assert not graph._np_products and graph._np_journal == []

    def test_a_patched_lowering_has_the_fresh_builds_offsets_and_rows(self):
        # Only the order inside a row may differ from a fresh build: the
        # offsets are identical and every row holds the same targets.
        instance, _ = web_like_graph(120, ["a", "b", "c"], seed=6)
        engine = Engine.open(instance, backend="numpy")
        engine.auto_compact_ratio = None
        graph = engine.graph
        moves = engine.compiled("(a + b)* c").moves
        graph.numpy_product_csr(moves)
        rng = random.Random(7)
        for edge in rng.sample(sorted(instance.edges(), key=repr), 6):
            engine.remove_edge(*edge)
        for _ in range(6):
            engine.add_edge(f"p{rng.randrange(120)}", rng.choice("abc"), f"p{rng.randrange(120)}")
        before = graph.lowering_counts()
        patched = graph.numpy_product_csr(moves)
        after = graph.lowering_counts()
        assert after["patched"] == before["patched"] + 1
        assert after["built"] == before["built"]
        fresh = graph._lower_product(moves, graph.num_nodes)
        assert patched.indptr.tolist() == fresh.indptr.tolist()
        indptr = fresh.indptr.tolist()
        for key in range(len(indptr) - 1):
            start, stop = indptr[key], indptr[key + 1]
            assert sorted(patched.dst[start:stop].tolist()) == sorted(
                fresh.dst[start:stop].tolist()
            ), key

    def test_a_removal_cuts_one_of_two_parallel_slots(self):
        # (a + b)* moves on a and on b to one state, so n0 -a-> n1 and
        # n0 -b-> n1 are two slots of one row with one target.
        engine = Engine.open(
            Instance([("n0", "a", "n1"), ("n0", "b", "n1"), ("n1", "c", "n0")]),
            backend="numpy",
        )
        graph = engine.graph
        moves = engine.compiled("(a + b)* c").moves
        lowered = Counter(product_edges_from_lowering(graph, moves))
        assert sorted(lowered.values()) == [1, 2]
        steps = [
            (engine.remove_edge, ("n0", "a", "n1")),
            (engine.remove_edge, ("n0", "b", "n1")),
            (engine.add_edge, ("n0", "a", "n1")),
        ]
        for patched, (edit, edge) in enumerate(steps, start=1):
            edit(*edge)
            assert Counter(product_edges_from_lowering(graph, moves)) == Counter(
                product_edges_from_scalar_api(graph, moves)
            ), edge
            assert graph.lowering_counts()["patched"] == patched
        assert graph.lowering_counts()["built"] == 1
        assert engine.query_batch("(a + b)* c", ["n0"]) == {"n0": {"n0"}}

    def test_an_add_and_its_removal_net_to_the_cached_lowering(self):
        engine = Engine.open(Instance([("u", "a", "v"), ("v", "a", "w")]), backend="numpy")
        graph = engine.graph
        moves = engine.compiled("a*").moves
        cached = graph.numpy_product_csr(moves)
        engine.add_edge("w", "a", "u")
        engine.remove_edge("w", "a", "u")
        assert graph.numpy_product_csr(moves) is cached
        assert graph.lowering_counts() == {"built": 1, "patched": 1, "hit": 0}
        # Restamped current, so the journal no lowering needs is gone.
        assert graph._np_products[moves][0] == graph.version
        assert graph._np_journal == []

    def test_an_edit_under_a_label_the_query_never_reads_keeps_the_lowering(self):
        engine = Engine.open(Instance([("u", "a", "v"), ("v", "b", "u")]), backend="numpy")
        graph = engine.graph
        moves = engine.compiled("a*").moves
        cached = graph.numpy_product_csr(moves)
        engine.add_edge("u", "b", "u")
        assert graph.numpy_product_csr(moves) is cached
        assert engine.query_batch("a*", ["u"]) == {"u": {"u", "v"}}
        assert graph.lowering_counts()["built"] == 1

    def test_a_failed_removal_journals_nothing(self):
        from repro.exceptions import InstanceError

        graph = CompiledGraph.from_instance(Instance([("u", "a", "v"), ("v", "a", "w")]))
        moves = lower_query("a*", graph).moves
        cached = graph.numpy_product_csr(moves)
        version = graph.version
        with pytest.raises(InstanceError):
            graph.remove_edge("u", "a", "w")
        assert graph.version == version and graph._np_journal == []
        assert graph.numpy_product_csr(moves) is cached
        assert graph.lowering_counts() == {"built": 1, "patched": 0, "hit": 1}

    def test_the_dtype_rule_is_structural(self):
        import numpy as np

        from repro.engine.csr import _product_dtype

        assert _product_dtype(2**31 - 1, 2**31 - 1) is np.int32
        assert _product_dtype(2**31, 0) is np.int64
        assert _product_dtype(0, 2**31) is np.int64
        engine = Engine.open(Instance([("u", "a", "v"), ("v", "b", "u")]), backend="numpy")
        graph = engine.graph
        moves = engine.compiled("(a + b)*").moves
        graph.numpy_product_csr(moves)
        engine.add_edge("u", "b", "v")
        patched = graph.numpy_product_csr(moves)
        assert graph.lowering_counts()["patched"] == 1
        assert patched.indptr.dtype == patched.dst.dtype == np.int32

    def test_a_sharded_edit_patches_the_shards_lowerings(self):
        from repro.engine import ShardedEngine

        # Removing an edge, then putting it back, interns no node in any
        # shard, so each shard's cached lowering is patched, not rebuilt.
        instance, source = web_like_graph(80, ["a", "b"], seed=9)
        reference, _ = web_like_graph(80, ["a", "b"], seed=9)
        sharded = ShardedEngine.open(instance, shards=2, backend="numpy")
        engine = Engine.open(reference, backend="numpy")
        expression = "(a + b)* a"
        assert sharded.query_batch(expression, [source]) == engine.query_batch(
            expression, [source]
        )
        before = sharded.telemetry()["sharded_product_lowerings_total"]
        edge = sorted(instance.edges(), key=repr)[0]
        for edit in ("remove_edge", "add_edge"):
            getattr(sharded, edit)(*edge)
            getattr(engine, edit)(*edge)
            assert sharded.query_batch(expression, [source]) == engine.query_batch(
                expression, [source]
            ), edit
        after = sharded.telemetry()["sharded_product_lowerings_total"]
        assert after["built"] == before["built"]
        assert after["patched"] > before["patched"]


# -- (e) kernel corner cases, every backend against the baseline ---------------
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
    def test_reached_row_gather_equals_the_dense_scan(self):
        # ``NpFrontier.gather`` reads the rows the chain of runs reported;
        # the reference scans the whole tensor.  Fresh and continued — three
        # words wide, with a third of the nodes skipped.
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

        # A handle assembled without reached rows finds them by one scan.
        bare = NpFrontier(continued.masks, graph.version)
        assert bare.gather(compiled.accepting, num_bits, skip) == dense(continued)

    @needs_numpy
    def test_seed_wider_than_the_batch_is_refused(self):
        graph = CompiledGraph.from_instance(Instance([("u", "a", "v")]))
        compiled = lower_query("a", graph)
        with pytest.raises(ValueError, match="wider"):
            run_batch(graph, compiled, (), seeds={(compiled.initial, 0): 1 << 64},
                      num_bits=64, backend="numpy")
