"""Differential fuzz harness: python executor ≡ numpy executor ≡ baseline.

Hypothesis generates random instances, regexes, and interleaved
``add_edge``/``remove_edge`` scripts; every example is evaluated through all
three paths — the pure-Python executor, the numpy-vectorized executor (when
available), and ``evaluate_baseline`` — and the reached sets must agree
exactly, in every mode (single-source, batched, all-pairs), including the
``visited_pairs``/``visited_objects`` statistics between the two compiled
executors.  The sharded engine joins the same equivalence class: for shard
counts {1, 2, 7} its scatter-gather answers are pinned to the monolithic
engine (and through it the baseline), including after interleaved edits
routed to the owning shard.  The serving layer joins it too: answers fanned
out by the admission queue under concurrent submission are pinned to the
direct sharded calls and the baseline.  Together the tests run well over
200 examples.
"""

import pytest
from hypothesis import given, settings

from _strategies import edit_scripts, regexes, small_instances
from repro.engine import (
    CompiledGraph,
    Engine,
    QueryRequest,
    ShardedEngine,
    lower_query,
    numpy_available,
    run_all_pairs,
    run_single,
)
from repro.query import RegularPathQuery, evaluate_baseline

EXECUTOR_BACKENDS = (
    ("python", "packed", "numpy") if numpy_available() else ("python", "packed")
)
SHARD_COUNTS = (1, 2, 7)


def _runs_by_backend(run_fn, *args, **kwargs):
    return {
        backend: run_fn(*args, backend=backend, **kwargs)
        for backend in EXECUTOR_BACKENDS
    }


def _assert_runs_agree(runs, context):
    reference = runs["python"]
    for backend, run in runs.items():
        assert run.answers == reference.answers, (context, backend)
        assert run.visited_pairs == reference.visited_pairs, (context, backend)
        assert run.visited_objects == reference.visited_objects, (context, backend)


@given(small_instances(max_nodes=6, max_edges=12), regexes(max_leaves=5))
@settings(max_examples=120, deadline=None)
def test_executors_and_baseline_agree_on_all_modes(graph_and_source, expression):
    instance, _ = graph_and_source
    rpq = RegularPathQuery.of(expression)
    graph = CompiledGraph.from_instance(instance)
    compiled = lower_query(rpq, graph)

    # All-pairs: one batched traversal per backend, checked per source
    # against both the other backend and the baseline evaluator.
    batch_runs = _runs_by_backend(run_all_pairs, graph, compiled)
    for backend, run in batch_runs.items():
        assert run.answers == batch_runs["python"].answers, backend
        assert run.visited_pairs == batch_runs["python"].visited_pairs, backend
        assert run.visited_objects == batch_runs["python"].visited_objects, backend
    for node in range(graph.num_nodes):
        oid = graph.oid_of(node)
        expected = evaluate_baseline(rpq, oid, instance).answers

        single_runs = _runs_by_backend(run_single, graph, compiled, node)
        _assert_runs_agree(single_runs, oid)
        assert graph.oids_of(single_runs["python"].answers) == expected, oid
        assert graph.oids_of(batch_runs["python"].answers[node]) == expected, oid


@given(
    small_instances(max_nodes=5, max_edges=8),
    regexes(max_leaves=4),
    edit_scripts(max_nodes=5, max_ops=10),
)
@settings(max_examples=120, deadline=None)
def test_executors_agree_after_interleaved_edits(graph_and_source, expression, script):
    """Incremental adds AND tombstone deletes keep all three paths aligned."""
    instance, _ = graph_and_source
    rpq = RegularPathQuery.of(expression)
    engines = {
        backend: Engine.open(instance.copy(), backend=backend)
        for backend in EXECUTOR_BACKENDS
    }
    mirror = instance.copy()  # evolves alongside, evaluated by the baseline

    for kind, source, label, destination in script:
        if kind == "add":
            if not mirror.has_edge(source, label, destination):
                mirror.add_edge(source, label, destination)
                for engine in engines.values():
                    engine.add_edge(source, label, destination)
        else:
            if mirror.has_edge(source, label, destination):
                mirror.remove_edge(source, label, destination)
                for engine in engines.values():
                    engine.remove_edge(source, label, destination)

    results = {
        backend: engine.query_all(rpq) for backend, engine in engines.items()
    }
    for backend, per_source in results.items():
        assert per_source == results["python"], backend
    for oid in mirror.objects:
        expected = evaluate_baseline(rpq, oid, mirror).answers
        assert results["python"][oid] == expected, oid

    # The whole point of the incremental paths: no engine ever rebuilt.
    for backend, engine in engines.items():
        assert engine.stats.graph_builds == 1, backend


@given(
    small_instances(max_nodes=5, max_edges=8),
    regexes(max_leaves=4),
    edit_scripts(max_nodes=5, max_ops=14),
)
@settings(max_examples=60, deadline=None)
def test_compiled_graph_tracks_instance_through_edits(graph_and_source, expression, script):
    """CompiledGraph edits + compaction stay consistent with a fresh compile."""
    instance, _ = graph_and_source
    graph = CompiledGraph.from_instance(instance)
    for kind, source, label, destination in script:
        if kind == "add":
            if not instance.has_edge(source, label, destination):
                instance.add_edge(source, label, destination)
                graph.add_edge(source, label, destination)
        else:
            if instance.has_edge(source, label, destination):
                instance.remove_edge(source, label, destination)
                graph.remove_edge(source, label, destination)
    assert graph.edge_count() == instance.edge_count()

    rpq = RegularPathQuery.of(expression)
    compiled = lower_query(rpq, graph)
    before = {
        node: run_single(graph, compiled, node, backend="python").answers
        for node in range(graph.num_nodes)
    }
    graph.compact()
    assert graph.overflow_edge_count() == 0
    assert graph.tombstone_count() == 0
    assert graph.edge_count() == instance.edge_count()
    compiled = lower_query(rpq, graph)  # label ids are stable across compact
    for node, answers in before.items():
        for backend in EXECUTOR_BACKENDS:
            run = run_single(graph, compiled, node, backend=backend)
            assert run.answers == answers, (node, backend)


@given(small_instances(max_nodes=6, max_edges=12), regexes(max_leaves=5))
@settings(max_examples=60, deadline=None)
def test_sharded_engine_matches_monolithic_and_baseline(graph_and_source, expression):
    """``ShardedEngine`` ≡ monolithic ``Engine`` ≡ ``evaluate_baseline``.

    Every example is partitioned 1 / 2 / 7 ways (hash shard map) and served
    through every executor, sequentially and on a two-worker superstep
    scheduler; the gathered all-pairs answers must agree with the
    monolithic engine, and the monolithic engine with the baseline.  The
    exchange itself is pinned too: per shard count, every arm takes the
    same supersteps and local runs, ships the same facts and visits the
    same pairs and objects.
    """
    instance, _ = graph_and_source
    rpq = RegularPathQuery.of(expression)
    mono = Engine.open(instance)
    expected = mono.query_all(rpq)
    for oid in instance.objects:
        assert expected[oid] == evaluate_baseline(rpq, oid, instance).answers, oid
    for shards in SHARD_COUNTS:
        counters = {}
        for backend in EXECUTOR_BACKENDS:
            for concurrency in (None, 2):
                arm = (shards, backend, concurrency)
                sharded = ShardedEngine.open(
                    instance, shards=shards, backend=backend, concurrency=concurrency
                )
                try:
                    assert sharded.query_all(rpq) == expected, arm
                finally:
                    sharded.close()
                counters[arm] = exchange_counters(sharded)
        assert len(set(counters.values())) == 1, counters


def exchange_counters(sharded):
    """What one evaluation's superstep exchange did, arm-independently."""
    last, stats = sharded.stats.last_run, sharded.stats
    return (
        last.supersteps,
        last.local_runs,
        last.exchanged_facts,
        stats.visited_pairs,
        stats.visited_objects,
    )


@given(
    small_instances(max_nodes=5, max_edges=8),
    regexes(max_leaves=4),
    edit_scripts(max_nodes=5, max_ops=10),
)
@settings(max_examples=40, deadline=None)
def test_sharded_engine_tracks_interleaved_edits(graph_and_source, expression, script):
    """Edits routed to the owning shard keep sharded ≡ monolithic ≡ baseline.

    The same add/remove script is applied to a baseline mirror and to one
    sharded engine per (shard count, backend); every engine must stay
    incremental (no shard graph ever rebuilds) and agree on all-pairs
    answers afterwards.
    """
    instance, _ = graph_and_source
    rpq = RegularPathQuery.of(expression)
    engines = {
        (shards, backend): ShardedEngine.open(
            instance.copy(), shards=shards, backend=backend
        )
        for shards in SHARD_COUNTS
        for backend in EXECUTOR_BACKENDS
    }
    mirror = instance.copy()

    for kind, source, label, destination in script:
        if kind == "add":
            if not mirror.has_edge(source, label, destination):
                mirror.add_edge(source, label, destination)
                for engine in engines.values():
                    engine.add_edge(source, label, destination)
        else:
            if mirror.has_edge(source, label, destination):
                mirror.remove_edge(source, label, destination)
                for engine in engines.values():
                    engine.remove_edge(source, label, destination)

    expected = {
        oid: evaluate_baseline(rpq, oid, mirror).answers for oid in mirror.objects
    }
    for key, engine in engines.items():
        assert engine.query_all(rpq) == expected, key
        # The whole point of the routed mutations: no shard ever rebuilt.
        assert all(
            shard.stats.graph_builds == 1 for shard in engine.shard_engines
        ), key


@given(
    small_instances(max_nodes=6, max_edges=12),
    regexes(max_leaves=4),
    regexes(max_leaves=4),
)
@settings(max_examples=25, deadline=None)
def test_served_answers_match_direct_and_baseline(
    graph_and_source, expr_one, expr_two
):
    """Served ≡ direct ``ShardedEngine`` ≡ baseline under concurrent admission.

    Every example submits two queries from every source *concurrently*
    through the admission queue (small max_batch, so coalescing, size
    flushes and delay flushes all occur) and pins the fanned-out answers to
    the direct sharded calls — and, per source, to ``evaluate_baseline``.
    """
    import asyncio

    instance, _ = graph_and_source
    sources = sorted(instance.objects, key=repr)
    sharded = ShardedEngine.open(instance, shards=2)
    queries = (expr_one, expr_two)
    direct = {
        query_index: sharded.query_batch(query, sources)
        for query_index, query in enumerate(queries)
    }

    async def scenario():
        async with sharded.as_server(max_batch=3, max_delay=0.001) as server:
            futures = {
                (query_index, source): server.submit_nowait(QueryRequest(query=query, sources=(source,)))
                for query_index, query in enumerate(queries)
                for source in sources
            }
            return {key: await future for key, future in futures.items()}

    served = asyncio.run(scenario())
    # Admission arithmetic, read back from the telemetry registry itself:
    # every admitted request resolved exactly once, one way or the other.
    snapshot = sharded.metrics.snapshot()
    assert snapshot["serving_submitted"] == len(queries) * len(sources)
    assert (
        snapshot["serving_submitted"]
        == snapshot["serving_served"] + snapshot["serving_failed"]
    )
    assert snapshot["serving_failed"] == 0
    for query_index in range(len(queries)):
        for source in sources:
            assert served[(query_index, source)] == direct[query_index][source], (
                query_index,
                source,
            )
    rpq = RegularPathQuery.of(expr_one)
    for source in sources:
        assert direct[0][source] == evaluate_baseline(rpq, source, instance).answers


@given(
    small_instances(max_nodes=6, max_edges=12),
    regexes(max_leaves=4),
)
@settings(max_examples=25, deadline=None)
def test_streamed_answers_match_batch_submit_and_baseline(
    graph_and_source, expression
):
    """Streamed ≡ batch ``submit`` ≡ direct ≡ baseline, per source.

    Every example submits the query from every source twice — once through
    ``submit_stream`` (collecting the incremental feed *and* the resolved
    set) and once through ``submit_nowait`` — coalescing into the same
    shared batches, and pins all four views of the answer set to each
    other: no duplicate streamed facts, no missing ones, exact accounting.
    """
    import asyncio

    instance, _ = graph_and_source
    sources = sorted(instance.objects, key=repr)
    sharded = ShardedEngine.open(instance, shards=2)
    direct = sharded.query_batch(expression, sources)

    async def scenario():
        async with sharded.as_server(max_batch=3, max_delay=0.001) as server:
            streams = {
                source: server.submit_stream(QueryRequest(query=expression, sources=(source,)))
                for source in sources
            }
            plain = {
                source: server.submit_nowait(QueryRequest(query=expression, sources=(source,)))
                for source in sources
            }
            collected = {}
            for source, stream in streams.items():
                incremental = [answer async for answer in stream]
                collected[source] = (incremental, await stream.result())
            resolved = {source: await f for source, f in plain.items()}
            return collected, resolved, server.stats

    collected, resolved, stats = asyncio.run(scenario())
    assert stats.submitted == stats.served + stats.failed
    assert stats.failed == 0
    assert stats.streamed == len(sources)
    rpq = RegularPathQuery.of(expression)
    for source in sources:
        incremental, full = collected[source]
        # Exactly-once in wire space: no duplicate even across oid types.
        assert len(incremental) == len({str(a) for a in incremental}), source
        assert set(map(str, incremental)) == {
            str(oid) for oid in direct[source]
        }, source
        assert full == direct[source], source
        assert resolved[source] == direct[source], source
        assert direct[source] == evaluate_baseline(rpq, source, instance).answers


@given(
    small_instances(max_nodes=5, max_edges=8),
    regexes(max_leaves=4),
    edit_scripts(max_nodes=5, max_ops=6),
)
@settings(max_examples=25, deadline=None)
def test_page_concatenation_matches_full_set_across_cursors(
    graph_and_source, expression, script
):
    """Cursor pages concatenate to the full set, even with interleaved edits.

    Quiescent pagination must concatenate to *exactly* the full sorted
    answer set (before the edit script and again after it).  With one edit
    applied between every two pages, each page evaluates a different graph;
    the pinned invariants are the ones resumption guarantees: pages stay
    strictly sorted (no duplicate, no regression), every answer present in
    *every* snapshot is delivered, and nothing is delivered that no
    snapshot contained.
    """
    import asyncio

    from repro.engine.serving import respond_line

    instance, _ = graph_and_source
    engine = Engine.open(instance)
    mirror = instance.copy()
    source = sorted(instance.objects, key=repr)[0]

    async def snapshot(server):
        # The full-set reference *through the protocol itself*, so pages and
        # reference agree on the wire form of sources and answers.
        response = await respond_line(server, f"f\t{source}\t{expression}")
        fields = response.split("\t")
        assert not fields[1].startswith("error:"), response
        return set(fields[1].split())

    edits = list(script)

    def apply_one_edit():
        while edits:
            kind, edit_source, label, destination = edits.pop(0)
            if kind == "add" and not mirror.has_edge(
                edit_source, label, destination
            ):
                mirror.add_edge(edit_source, label, destination)
                engine.add_edge(edit_source, label, destination)
                return
            if kind != "add" and mirror.has_edge(edit_source, label, destination):
                mirror.remove_edge(edit_source, label, destination)
                engine.remove_edge(edit_source, label, destination)
                return

    async def paginate(server, between_pages=None):
        pages, snapshots, cursor = [], [], None
        while True:
            snapshots.append(await snapshot(server))
            suffix = f" CURSOR {cursor}" if cursor else ""
            response = await respond_line(
                server, f"p\t{source}\t{expression}\tLIMIT 2{suffix}"
            )
            fields = response.split("\t")
            assert not fields[1].startswith("error:"), response
            pages.extend(fields[1].split())
            if len(fields) != 3:
                return pages, snapshots
            cursor = fields[2][len("CURSOR "):]
            if between_pages is not None:
                between_pages()

    async def scenario():
        async with engine.as_server(max_batch=4, max_delay=0.001) as server:
            quiescent, _ = await paginate(server)
            assert quiescent == sorted(await snapshot(server))
            edited, snapshots = await paginate(server, apply_one_edit)
            while edits:  # flush whatever the pagination didn't consume
                apply_one_edit()
            final, _ = await paginate(server)
            assert final == sorted(await snapshot(server))
            return edited, snapshots

    edited, snapshots = asyncio.run(scenario())
    # Strictly ascending: resume-after-cursor can neither duplicate an
    # answer nor step backwards, whatever the edits did.
    assert all(a < b for a, b in zip(edited, edited[1:]))
    always = set.intersection(*snapshots)
    ever = set.union(*snapshots)
    assert always <= set(edited) <= ever


@pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")
def test_fuzz_covers_numpy_backend():
    """Guard: the harness above really is differential, not python-only."""
    assert "numpy" in EXECUTOR_BACKENDS
