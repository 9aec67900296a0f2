"""Unit tests for the compiled engine's building blocks."""

import pytest

from repro.engine import (
    BACKENDS,
    CompiledGraph,
    Engine,
    Interner,
    QueryCompiler,
    available_backends,
    lower_query,
    resolve_backend,
    run_all_pairs,
    run_batch,
    run_single,
)
from repro.exceptions import InstanceError, ReproError
from repro.graph import Instance, figure2_graph, random_graph, web_like_graph
from repro.query import evaluate_baseline


class TestInterner:
    def test_ids_are_dense_and_stable(self):
        interner = Interner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0
        assert interner.value_of(1) == "b"
        assert interner.id_of("c") is None
        assert "a" in interner and "c" not in interner
        assert list(interner) == ["a", "b"]
        assert len(interner) == 2


class TestCompiledGraph:
    def test_compiles_instance_shape(self):
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        assert graph.num_nodes == len(instance)
        assert graph.edge_count() == instance.edge_count()
        assert set(graph.labels) == set(instance.labels())

    def test_successors_match_instance(self):
        instance, _ = random_graph(25, 3, ["a", "b"], seed=5)
        graph = CompiledGraph.from_instance(instance)
        for oid in instance.objects:
            node = graph.node_id(oid)
            for label in ("a", "b"):
                lid = graph.label_id(label)
                expected = sorted(instance.successors(oid, label), key=repr)
                got = sorted(
                    (graph.oid_of(t) for t in graph.successors(node, lid)), key=repr
                )
                assert got == expected

    def test_build_defers_the_edge_set_until_something_needs_it(self):
        # One boxed triple per edge is the largest structure a compiled
        # graph can hold, and a session that only serves reads never looks
        # at it: like a snapshot restore, a build leaves it underived.
        instance, _ = random_graph(25, 3, ["a", "b"], seed=5)
        graph = CompiledGraph.from_instance(instance)
        assert graph._edge_set is None
        graph.successors(0, 0), graph.label_edge_counts()  # reads leave it so
        assert graph._edge_set is None
        edges = {
            (graph.oid_of(s), graph.labels.value_of(l), graph.oid_of(d))
            for s, l, d in graph.iter_edges()
        }
        assert edges == set(instance.edges())
        source, label, destination = next(iter(edges))
        graph.add_edge(source, label, destination)  # duplicate: still a no-op
        assert graph.edge_count() == instance.edge_count()
        assert graph.overflow_edge_count() == 0

    def test_deterministic_rebuild(self):
        instance, _ = random_graph(15, 2, ["a", "b"], seed=9)
        first = CompiledGraph.from_instance(instance)
        second = CompiledGraph.from_instance(instance)
        assert first.nodes.values() == second.nodes.values()
        assert first.labels.values() == second.labels.values()

    def test_incremental_add_edge_lands_in_overflow(self):
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        before = graph.version
        graph.add_edge("o1", "a", "o3")
        assert graph.version > before
        assert graph.overflow_edge_count() == 1
        lid = graph.label_id("a")
        assert graph.node_id("o3") in set(graph.successors(graph.node_id("o1"), lid))
        # Duplicate adds are idempotent.
        graph.add_edge("o1", "a", "o3")
        assert graph.overflow_edge_count() == 1

    def test_incremental_add_new_label_and_node(self):
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        graph.add_edge("o3", "zz", "fresh")
        lid = graph.label_id("zz")
        assert lid is not None
        assert graph.oid_of(next(iter(graph.successors(graph.node_id("o3"), lid)))) == "fresh"

    def test_compact_folds_overflow(self):
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        graph.add_edge("o1", "a", "o3")
        graph.add_edge("o3", "zz", "fresh")
        graph.compact()
        assert graph.overflow_edge_count() == 0
        lid = graph.label_id("zz")
        assert graph.oid_of(next(iter(graph.successors(graph.node_id("o3"), lid)))) == "fresh"

    def test_rejects_bad_labels(self):
        graph = CompiledGraph.from_instance(Instance())
        with pytest.raises(InstanceError):
            graph.add_edge("x", "", "y")


class TestLowering:
    def test_table_shape_and_acceptance(self):
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        compiled = lower_query("a b*", graph)
        assert compiled.label_count == graph.num_labels
        assert not compiled.accepts_empty_word()
        # From the initial state, 'a' must be live and 'b' dead.
        a, b = graph.label_id("a"), graph.label_id("b")
        assert compiled.table[compiled.initial][a] >= 0
        assert compiled.table[compiled.initial][b] == -1

    def test_graph_only_labels_are_dead_everywhere(self):
        instance = Instance([("x", "a", "y"), ("y", "unrelated", "z")])
        graph = CompiledGraph.from_instance(instance)
        compiled = lower_query("a*", graph)
        unrelated = graph.label_id("unrelated")
        assert all(row[unrelated] == -1 for row in compiled.table)

    def test_empty_language_has_no_live_moves(self):
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        compiled = lower_query("~", graph)
        assert not compiled.accepts_empty_word()
        assert all(not moves for moves in compiled.moves)

    def test_dead_states_cut_hopeless_exploration(self):
        # 'a c' can never complete on a graph without 'c' edges: after the
        # liveness pruning the initial state has no live moves at all.
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        compiled = lower_query("a c", graph)
        run = run_single(graph, compiled, graph.node_id("o1"))
        assert run.answers == set()
        assert run.visited_pairs == 1  # only the start pair

    def test_compiler_lru_hits_and_label_invalidation(self):
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        compiler = QueryCompiler(capacity=4)
        first = compiler.compile("a b*", graph)
        second = compiler.compile("a b*", graph)
        assert first is second
        assert (compiler.hits, compiler.misses) == (1, 1)
        # A genuinely new label must invalidate (different key => recompile).
        graph.add_edge("o1", "zz", "o2")
        third = compiler.compile("a b*", graph)
        assert third is not first
        assert compiler.misses == 2

    def test_compiler_evicts_least_recently_used(self):
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        compiler = QueryCompiler(capacity=2)
        compiler.compile("a", graph)
        compiler.compile("b", graph)
        compiler.compile("a b", graph)  # evicts "a"
        assert len(compiler) == 2
        compiler.compile("a", graph)
        assert compiler.misses == 4


class TestEngineSession:
    def test_matches_baseline_on_figure2(self):
        instance, source = figure2_graph()
        engine = Engine.open(instance)
        for query in ("a b*", "a", "%", "(a + b)*", "b"):
            assert engine.query(query, source).answers == (
                evaluate_baseline(query, source, instance).answers
            )

    def test_refresh_detects_out_of_band_mutation(self):
        instance, source = figure2_graph()
        engine = Engine.open(instance)
        assert engine.query("c", source).answers == set()
        instance.add_edge(source, "c", "o3")  # bypasses the engine
        assert engine.query("c", source).answers == {"o3"}
        assert engine.stats.graph_builds == 2

    def test_rebuild_invalidates_cached_tables(self):
        # A rebuild can reassign label ids (interning follows edge order), so
        # cached transition tables keyed by label *count* alone would go
        # stale: here removing the only 'a' edge that sorts first makes 'b'
        # intern as label 0 on rebuild, with the label count unchanged.
        instance = Instance([(0, "a", 9), (1, "b", 2), (2, "a", 3)])
        engine = Engine.open(instance)
        assert engine.query("b", 1).answers == {2}
        instance.remove_edge(0, "a", 9)  # bypasses the engine
        assert engine.query("b", 1).answers == {2}
        assert engine.stats.graph_builds == 2

    def test_query_all_sees_objects_added_out_of_band(self):
        instance, _ = figure2_graph()
        engine = Engine.open(instance)
        engine.query_all("a")
        instance.add_edge("new1", "a", "new2")  # bypasses the engine
        results = engine.query_all("a")
        assert results["new1"] == {"new2"}
        assert set(results) == set(instance.objects)

    def test_add_edge_is_incremental(self):
        instance, source = figure2_graph()
        engine = Engine.open(instance)
        engine.add_edge(source, "c", "o3")
        assert engine.query("c", source).answers == {"o3"}
        assert engine.stats.graph_builds == 1  # no rebuild
        assert instance.has_edge(source, "c", "o3")

    def test_unknown_source(self):
        instance, _ = figure2_graph()
        engine = Engine.open(instance)
        assert engine.query("a*", "ghost").answers == {"ghost"}
        assert engine.query("a", "ghost").answers == set()

    def test_batch_shares_one_compile(self):
        instance, _ = random_graph(30, 2, ["a", "b"], seed=2)
        engine = Engine.open(instance)
        results = engine.query_batch("a b*", sorted(instance.objects, key=repr))
        assert set(results) == set(instance.objects)
        assert engine.compiler.misses == 1

    def test_query_all_covers_every_object(self):
        instance, _ = random_graph(20, 2, ["a", "b"], seed=3)
        engine = Engine.open(instance)
        results = engine.query_all("a*")
        assert set(results) == set(instance.objects)
        for oid, answers in results.items():
            assert oid in answers  # 'a*' accepts epsilon

    def test_constraint_prerewrite_keeps_answers(self):
        from repro.constraints import ConstraintSet
        from repro.optimize import materialize_cache

        instance, source = figure2_graph()
        cached_instance, record = materialize_cache(instance, source, "a b*", "hot")
        constraints = ConstraintSet([record.constraint()])
        engine = Engine.open(cached_instance, constraints=constraints)
        plain = Engine.open(cached_instance)
        result = engine.query("a b*", source)
        assert result.answers == plain.query("a b*", source).answers
        assert engine.stats.rewrites_applied == 1

    def test_describe_mentions_cache_activity(self):
        instance, source = figure2_graph()
        engine = Engine.open(instance)
        engine.query("a", source)
        engine.query("a", source)
        text = engine.describe()
        assert "cache hits: 1" in text


class TestKernelDispatch:
    """One kernel per job: which loop serves which call, under which name."""

    def web(self):
        instance, _ = web_like_graph(90, ["a", "b", "c"], seed=4)
        graph = CompiledGraph.from_instance(instance)
        return graph, lower_query("(a + b)* c", graph)

    def test_auto_without_numpy_is_the_packed_kernel_at_every_width(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        graph, compiled = self.web()
        assert resolve_backend("auto") == "packed"
        assert run_batch(graph, compiled, [3]).backend == "packed"
        assert run_batch(graph, compiled, list(range(64))).backend == "packed"
        seeds = {(compiled.initial, 3): 1}
        assert run_batch(graph, compiled, (), seeds=seeds).backend == "packed"
        assert run_batch(graph, compiled, (), seeds=seeds, num_bits=64).backend == (
            "packed"
        )
        assert run_all_pairs(graph, compiled).backend == "packed"
        # The queue kernel stays reachable, by name only.
        assert run_batch(graph, compiled, [3], backend="python").backend == "python"
        with pytest.raises(ReproError, match="numpy"):
            run_batch(graph, compiled, [3], backend="numpy")

    def test_single_source_runs_are_one_kernel_under_every_backend_name(self):
        graph, compiled = self.web()
        names = [name for name in BACKENDS if name in ("auto", *available_backends())]
        for node in (0, 17, 89, graph.num_nodes + 5):
            runs = [run_single(graph, compiled, node, backend=name) for name in names]
            for run in runs:
                assert run.answers == runs[0].answers
                assert run.visited_pairs == runs[0].visited_pairs
                assert run.visited_objects == runs[0].visited_objects
                assert run.witness_paths == runs[0].witness_paths
                assert run.backend == "python"  # stamped with what ran
        with pytest.raises(ReproError, match="unknown engine backend"):
            run_single(graph, compiled, 0, backend="rust")

    def test_the_numpy_module_has_no_single_source_kernel(self):
        executor_np = pytest.importorskip("repro.engine.executor_np")
        assert not hasattr(executor_np, "run_single")

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("expression", ["a b*", "(a b)*", "(a + b + c)* c"])
    def test_a_wide_batch_answers_as_query_all(self, backend, expression):
        # A batch over >= 90 % of the nodes is one run_batch over the
        # requested sources, answered exactly as the all-pairs run
        # restricted to them, with no strategy decision on the run span.
        instance, _ = web_like_graph(120, ["a", "b", "c"], seed=12)
        engine = Engine.open(instance, backend=backend)
        objects = sorted(instance.objects, key=repr)
        sources = objects[: -len(objects) // 10]
        assert len(sources) >= 0.9 * len(objects)
        everything = engine.query_all(expression)
        assert engine.query_batch(expression, sources) == {
            source: everything[source] for source in sources
        }
        [run] = [
            span for span in engine.metrics.tracer.last().spans
            if span.name == "engine.run"
        ]
        assert run.attributes["mode"] == "batch"
        assert "strategy" not in run.attributes and "shape" not in run.attributes


class TestPlannerBackend:
    def test_engine_backend_agrees_with_baseline(self):
        from repro.constraints import ConstraintSet
        from repro.optimize import plan_and_evaluate

        instance, source = figure2_graph()
        baseline = plan_and_evaluate("a b*", source, instance, ConstraintSet())
        compiled = plan_and_evaluate(
            "a b*", source, instance, ConstraintSet(), backend="engine"
        )
        assert compiled.answers == baseline.answers
        assert compiled.backend == "engine"
        assert "backend: engine" in compiled.summary()

    def test_unknown_backend_rejected(self):
        from repro.constraints import ConstraintSet
        from repro.optimize import plan_and_evaluate

        instance, source = figure2_graph()
        with pytest.raises(ValueError):
            plan_and_evaluate("a", source, instance, ConstraintSet(), backend="turbo")


class TestEvaluateDelegation:
    def test_large_instances_route_through_shared_engine(self):
        from repro.engine.session import _SHARED_ENGINE_ATTR
        from repro.query import evaluate

        instance, source = random_graph(80, 2, ["a", "b"], seed=4)
        result = evaluate("a b*", source, instance)
        engine = getattr(instance, _SHARED_ENGINE_ATTR)
        assert engine is not None
        assert engine.stats.single_evaluations == 1
        assert result.answers == evaluate_baseline("a b*", source, instance).answers
        # Second call reuses both the engine and the compiled query.
        evaluate("a b*", source, instance)
        assert engine.compiler.hits == 1

    def test_small_instances_stay_on_baseline(self):
        from repro.engine.session import _SHARED_ENGINE_ATTR
        from repro.query import evaluate

        instance, source = figure2_graph()
        evaluate("a b*", source, instance)
        assert getattr(instance, _SHARED_ENGINE_ATTR, None) is None

    def test_budgeted_calls_stay_on_baseline(self):
        from repro.engine.session import _SHARED_ENGINE_ATTR
        from repro.query import evaluate

        instance, source = random_graph(80, 2, ["a", "b"], seed=4)
        evaluate("a", source, instance, max_objects=1000)
        assert getattr(instance, _SHARED_ENGINE_ATTR, None) is None

    def test_delegated_mutation_is_picked_up(self):
        from repro.query import evaluate

        instance, source = random_graph(80, 2, ["a", "b"], seed=4)
        assert evaluate("zz", source, instance).answers == set()
        instance.add_edge(source, "zz", "fresh")
        assert evaluate("zz", source, instance).answers == {"fresh"}

    def test_all_sources_delegates_and_agrees(self):
        from repro.query import evaluate_all_sources

        instance, _ = random_graph(70, 2, ["a", "b"], seed=6)
        results = evaluate_all_sources("a b*", instance)
        for oid in sorted(instance.objects, key=repr)[:10]:
            assert results[oid] == evaluate_baseline("a b*", oid, instance).answers


class TestCompiledGraphDeletes:
    def test_remove_csr_edge_tombstones_it(self):
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        source, label, destination = next(instance.edges())
        before = graph.edge_count()
        graph.remove_edge(source, label, destination)
        assert graph.edge_count() == before - 1
        assert graph.tombstone_count() == 1
        lid = graph.label_id(label)
        assert graph.node_id(destination) not in set(
            graph.successors(graph.node_id(source), lid)
        )

    def test_remove_overflow_edge_drops_it_directly(self):
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        graph.add_edge("o1", "a", "o3")
        assert graph.overflow_edge_count() == 1
        graph.remove_edge("o1", "a", "o3")
        assert graph.overflow_edge_count() == 0
        assert graph.tombstone_count() == 0
        assert graph.edge_count() == instance.edge_count()

    def test_remove_unknown_edge_raises(self):
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        with pytest.raises(InstanceError):
            graph.remove_edge("o1", "zz", "o2")
        with pytest.raises(InstanceError):
            graph.remove_edge("o1", "a", "o1")

    def test_readd_revives_tombstoned_slot(self):
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        edge = next(instance.edges())
        graph.remove_edge(*edge)
        graph.add_edge(*edge)
        assert graph.tombstone_count() == 0
        assert graph.overflow_edge_count() == 0
        assert graph.edge_count() == instance.edge_count()
        lid = graph.label_id(edge[1])
        assert graph.node_id(edge[2]) in set(
            graph.successors(graph.node_id(edge[0]), lid)
        )

    def test_compact_after_deletes_drops_tombstones(self):
        # Regression: compaction must fold overflow in AND tombstones out,
        # with edge_count/overflow_edge_count/tombstone_count all consistent.
        instance, _ = figure2_graph()
        graph = CompiledGraph.from_instance(instance)
        removed = next(instance.edges())
        graph.remove_edge(*removed)
        graph.add_edge("o1", "zz", "fresh")
        expected_edges = instance.edge_count()  # -1 removed, +1 added
        assert graph.edge_count() == expected_edges
        graph.compact()
        assert graph.tombstone_count() == 0
        assert graph.overflow_edge_count() == 0
        assert graph.edge_count() == expected_edges
        source, label, destination = removed
        lid = graph.label_id(label)
        assert graph.node_id(destination) not in set(
            graph.successors(graph.node_id(source), lid)
        )
        assert graph.oid_of(
            next(iter(graph.successors(graph.node_id("o1"), graph.label_id("zz"))))
        ) == "fresh"

    def test_many_removals_trigger_auto_compaction(self):
        instance, _ = random_graph(60, 4, ["a", "b"], seed=12)
        graph = CompiledGraph.from_instance(instance)
        edges = list(instance.edges())
        for edge in edges[: len(edges) // 2]:
            graph.remove_edge(*edge)
        # The tombstone threshold mirrors the overflow one; after deleting
        # half the graph the structure must have compacted at least once.
        assert graph.tombstone_count() <= max(64, graph.edge_count() // 4)
        remaining = set(edges[len(edges) // 2 :])
        assert {
            (graph.oid_of(s), graph.labels.value_of(l), graph.oid_of(d))
            for s, l, d in graph.iter_edges()
        } == remaining


class TestEngineIncrementalRemove:
    def test_remove_edge_is_incremental(self):
        instance, source = figure2_graph()
        engine = Engine.open(instance)
        engine.add_edge(source, "c", "o3")
        assert engine.query("c", source).answers == {"o3"}
        engine.remove_edge(source, "c", "o3")
        assert engine.query("c", source).answers == set()
        assert engine.stats.graph_builds == 1
        assert engine.stats.incremental_removals == 1

    def test_remove_edge_keeps_compiled_tables_valid(self):
        instance, source = figure2_graph()
        engine = Engine.open(instance)
        assert engine.query("a b*", source).answers == {"o2", "o3"}
        compiles_before = engine.compiler.misses
        engine.remove_edge("o2", "b", "o3")
        assert engine.query("a b*", source).answers == {"o2"}
        # No new label ids => the cached transition table was reused.
        assert engine.compiler.misses == compiles_before

    def test_stats_report_backend_runs(self):
        instance, source = figure2_graph()
        engine = Engine.open(instance, backend="python")
        engine.query("a", source)
        engine.query_all("a")
        assert engine.stats.backend_runs == {"python": 2}
        assert "backend runs: python=2" in engine.describe()


class TestIsolatedObjectFastPath:
    """Regression: ``Instance.add_object`` of an isolated node must not force
    a full rebuild (``graph_builds`` jumping to 2) nor wipe the query cache —
    the node interner grows in place instead."""

    def test_add_object_keeps_graph_and_cache(self):
        instance, source = figure2_graph()
        engine = Engine.open(instance)
        engine.query("a b*", source)
        compiles = engine.compiler.misses
        graph_before = engine.graph
        instance.add_object("lonely")  # bypasses the engine
        result = engine.query("a b*", source)
        assert result.answers == {"o2", "o3"}
        assert engine.stats.graph_builds == 1  # no rebuild
        assert engine.graph is graph_before  # same compiled graph object
        assert engine.compiler.misses == compiles  # cache stayed warm
        assert engine.compiler.hits >= 1
        assert engine.stats.interner_growths == 1

    def test_added_object_is_queryable(self):
        instance, _ = figure2_graph()
        engine = Engine.open(instance)
        engine.query_all("a")
        instance.add_object("lonely")
        assert engine.query("a*", "lonely").answers == {"lonely"}
        assert engine.query("a", "lonely").answers == set()
        results = engine.query_all("a*")
        assert "lonely" in results
        assert engine.stats.graph_builds == 1

    def test_edge_mutation_still_rebuilds(self):
        instance, source = figure2_graph()
        engine = Engine.open(instance)
        instance.add_object("lonely")
        instance.add_edge(source, "c", "lonely")  # edge change => rebuild
        assert engine.query("c", source).answers == {"lonely"}
        assert engine.stats.graph_builds == 2


class TestFingerprintCacheKey:
    """Regression: the compile cache is keyed by the label interner
    fingerprint, so correctness does not depend on a manual ``clear()``
    around rebuilds that preserve the label *count* but permute ids."""

    def test_permuted_label_order_cannot_share_tables(self):
        # Two graphs over the same two labels, interned in opposite orders
        # (interning follows the repr-sorted edge iteration order).
        first = CompiledGraph.from_instance(Instance([(0, "a", 1), (1, "b", 2)]))
        second = CompiledGraph.from_instance(Instance([(0, "b", 1), (1, "a", 2)]))
        assert first.num_labels == second.num_labels
        assert first.labels_fingerprint() != second.labels_fingerprint()
        compiler = QueryCompiler()
        table_first = compiler.compile("a", first)
        table_second = compiler.compile("a", second)
        assert compiler.misses == 2  # no stale sharing
        assert table_first is not table_second
        run_first = run_single(first, table_first, first.node_id(0))
        run_second = run_single(second, table_second, second.node_id(1))
        assert {first.oid_of(node) for node in run_first.answers} == {1}
        assert {second.oid_of(node) for node in run_second.answers} == {2}

    def test_rebuild_with_permuted_interning_answers_correctly(self):
        # Removing the repr-first 'a' edge makes 'b' intern as label 0 on
        # rebuild while the label count stays 2; answers must stay right
        # even though refresh() no longer clears the cache manually.
        instance = Instance([(0, "a", 9), (1, "b", 2), (2, "a", 3)])
        engine = Engine.open(instance)
        assert engine.query("b", 1).answers == {2}
        instance.remove_edge(0, "a", 9)  # bypasses the engine
        assert engine.query("b", 1).answers == {2}
        assert engine.query("a", 2).answers == {3}
        assert engine.stats.graph_builds == 2

    def test_order_preserving_rebuild_keeps_cache_warm(self):
        instance = Instance([(0, "a", 1), (1, "b", 2)])
        engine = Engine.open(instance)
        engine.query("a b", 0)
        compiles = engine.compiler.misses
        instance.add_edge(2, "b", 0)  # bypasses the engine; same label order
        assert engine.query("a b", 0).answers == {2}
        assert engine.stats.graph_builds == 2
        assert engine.compiler.misses == compiles  # fingerprint unchanged


class TestSharedEngineLifetime:
    """Regression: ``shared_engine`` must not create an
    ``Instance -> Engine -> Instance`` reference cycle."""

    def test_dropped_instance_frees_engine_without_gc(self):
        import weakref

        from repro.engine.session import shared_engine

        instance, _ = random_graph(40, 2, ["a", "b"], seed=11)
        engine = shared_engine(instance)
        assert shared_engine(instance) is engine  # memoized
        engine_ref = weakref.ref(engine)
        graph_ref = weakref.ref(engine.graph)
        del engine
        del instance
        # Plain refcounting must suffice: no gc.collect() heroics.
        assert engine_ref() is None
        assert graph_ref() is None

    def test_shared_engine_still_serves_and_refreshes(self):
        from repro.engine.session import shared_engine

        instance, source = random_graph(40, 2, ["a", "b"], seed=11)
        engine = shared_engine(instance)
        baseline = evaluate_baseline("a b*", source, instance).answers
        assert engine.query("a b*", source).answers == baseline
        instance.add_edge(source, "zz", "fresh")
        assert engine.query("zz", source).answers == {"fresh"}

    def test_engine_outliving_instance_keeps_serving_reads(self):
        from repro.engine.session import shared_engine
        from repro.exceptions import ReproError

        instance, source = random_graph(40, 2, ["a", "b"], seed=11)
        expected = evaluate_baseline("a b*", source, instance).answers
        engine = shared_engine(instance)
        del instance  # caller kept only the engine
        # A dead instance can never mutate, so the frozen compiled graph
        # keeps answering queries; only mutation and save must raise.
        assert engine.query("a b*", source).answers == expected
        assert engine.query_batch("a", [source])
        with pytest.raises(ReproError, match="garbage-collected"):
            engine.add_edge(source, "zz", "fresh")
