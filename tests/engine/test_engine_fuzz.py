"""Differential fuzz harness: scalar BFS ≡ batch kernels ≡ baseline.

Hypothesis generates random instances, regexes, and interleaved
``add_edge``/``remove_edge`` scripts; every example is evaluated through
every path — the scalar single-source BFS, each batch kernel (packed, and
numpy when available), and ``evaluate_baseline`` — and the reached sets
must agree exactly, in every mode (single-source, batched, all-pairs),
and the batch kernels' oid-returning path (``as_oids=True``: answers and
streamed groups) equals their node-id answers mapped through ``oids_of``.  The
``visited_pairs``/``visited_objects`` statistics agree too: batch kernels
with the packed one, and every batch kernel's one-source run with the
scalar BFS, so the counts stay pinned to an independent kernel even
without numpy.  The sharded session joins the same equivalence class: on 1,
2 and 7 hash shards and one shard per site, through every query method and
both kernels, it equals the monolithic session in answers, visited counts
and witness lengths, while edits that intern new nodes and labels,
compactions and a save/reopen with a stale shard interleave.  The serving layer joins it too: answers fanned
out by the admission queue under concurrent submission are pinned to the
direct sharded calls and the baseline.  Together the tests run well over
200 examples.
"""

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from _strategies import edit_scripts, regexes, small_instances
from test_sharding import MAP_KINDS, shard_map_of
from repro.engine import (
    CompiledGraph,
    Engine,
    QueryRequest,
    ShardedEngine,
    available_backends,
    lower_query,
    numpy_available,
    run_all_pairs,
    run_batch,
    run_single,
)
from repro.query import RegularPathQuery, evaluate_baseline

EXECUTOR_BACKENDS = available_backends()
SHARD_COUNTS = (1, 2, 7)


def _runs_by_backend(run_fn, *args, **kwargs):
    return {
        backend: run_fn(*args, backend=backend, **kwargs)
        for backend in EXECUTOR_BACKENDS
    }


def _counts(run):
    return run.visited_pairs, run.visited_objects


def _assert_one_source_runs_match(graph, compiled, node, single, context):
    """Every batch kernel's one-source run equals the scalar BFS's run in
    answers and counts."""
    for backend, run in _runs_by_backend(run_batch, graph, compiled, [node]).items():
        assert run.answers == [single.answers], (context, backend)
        assert _counts(run) == _counts(single), (context, backend)
    # The oid-returning path, answers and streamed groups alike: the same
    # answers, mapped once on their way out of the run.
    expected = graph.oids_of(single.answers)
    for backend in EXECUTOR_BACKENDS:
        streamed = []
        run = run_batch(
            graph, compiled, [node], backend=backend, as_oids=True,
            answer_sink=lambda _bit, answers: streamed.extend(answers),
        )
        assert run.answers == [expected], (context, backend)
        assert sorted(streamed, key=repr) == sorted(expected, key=repr), (context, backend)


@given(small_instances(max_nodes=6, max_edges=12), regexes(max_leaves=5))
@settings(max_examples=120, deadline=None)
def test_executors_and_baseline_agree_on_all_modes(graph_and_source, expression):
    instance, _ = graph_and_source
    rpq = RegularPathQuery.of(expression)
    graph = CompiledGraph.from_instance(instance)
    compiled = lower_query(rpq, graph)

    # All-pairs: one batched traversal per backend, checked per source
    # against the packed kernel and the baseline evaluator.
    batch_runs = _runs_by_backend(run_all_pairs, graph, compiled)
    reference = batch_runs["packed"]
    for backend, run in batch_runs.items():
        assert run.answers == reference.answers, backend
        assert _counts(run) == _counts(reference), backend
    mapped = [graph.oids_of(answers) for answers in reference.answers]
    for backend, run in _runs_by_backend(
        run_batch, graph, compiled, range(graph.num_nodes), as_oids=True
    ).items():
        assert run.answers == mapped, backend
        assert _counts(run) == _counts(reference), backend
    for node in range(graph.num_nodes):
        oid = graph.oid_of(node)
        expected = evaluate_baseline(rpq, oid, instance).answers

        single = run_single(graph, compiled, node)
        assert graph.oids_of(single.answers) == expected, oid
        assert graph.oids_of(reference.answers[node]) == expected, oid
        _assert_one_source_runs_match(graph, compiled, node, single, oid)


@given(
    small_instances(max_nodes=5, max_edges=8),
    regexes(max_leaves=4),
    edit_scripts(max_nodes=5, max_ops=10),
)
@settings(max_examples=120, deadline=None)
def test_executors_agree_after_interleaved_edits(graph_and_source, expression, script):
    """Incremental adds AND tombstone deletes keep every kernel and the
    baseline aligned."""
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
        assert per_source == results["packed"], backend
    for oid in mirror.objects:
        expected = evaluate_baseline(rpq, oid, mirror).answers
        assert results["packed"][oid] == expected, oid

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
    before = {}
    for node in range(graph.num_nodes):
        # Tombstones and overflow in play: the batch kernels' one-source
        # counts still match the scalar BFS.
        before[node] = run_single(graph, compiled, node)
        _assert_one_source_runs_match(graph, compiled, node, before[node], node)
    graph.compact()
    assert graph.overflow_edge_count() == 0
    assert graph.tombstone_count() == 0
    assert graph.edge_count() == instance.edge_count()
    compiled = lower_query(rpq, graph)  # label ids are stable across compact
    for node, run in before.items():
        assert run_single(graph, compiled, node).answers == run.answers, node


# -- the sharded session against the monolithic one --------------------------
SESSION_METHODS = (
    "query", "query_batch", "query_batch_results", "query_batch_streaming",
    "query_all",
)
# Labels ``d`` and ``e`` and nodes past the drawn instance's are new to it:
# adding them interns a new label or node on some shard.
DIFF_LABELS = ("a", "b", "c", "d", "e")
DIFF_NODES = 8
_endpoint = st.integers(min_value=0, max_value=DIFF_NODES - 1)
_edge = st.tuples(_endpoint, st.sampled_from(DIFF_LABELS), _endpoint)
# ``reopen`` saves, adds its edge behind the session's back (so the shards
# it touches are stale) and reopens the directory with ``instance=``.
session_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _edge),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("compact"), st.none()),
        st.tuples(st.just("reopen"), _edge),
    ),
    max_size=5,
)


def observe(session, method, rpq, sources):
    """What ``method`` answers, in comparable form, with the pairs it
    visited; witness words are compared by length (both are shortest)."""
    before = session.stats.visited_pairs

    def digest(result):
        return (
            result.answers,
            result.visited_pairs,
            result.visited_objects,
            {answer: len(word) for answer, word in result.witness_paths.items()},
        )

    if method == "query":
        value = {source: digest(session.query(rpq, source)) for source in sources}
    elif method == "query_batch_results":
        value = {
            source: digest(result)
            for source, result in session.query_batch_results(rpq, sources).items()
        }
    elif method == "query_batch_streaming":
        streamed = []
        value = session.query_batch_streaming(
            rpq, sources, lambda source, answers: streamed.extend(
                (source, answer) for answer in answers
            ),
        )
        assert len(streamed) == len(set(streamed)), "a pair streamed twice"
        assert set(streamed) == {
            (source, answer) for source, answers in value.items() for answer in answers
        }
    else:
        value = getattr(session, method)(rpq, *(() if method == "query_all" else (sources,)))
    return value, session.stats.visited_pairs - before


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
@pytest.mark.parametrize("shard_map", MAP_KINDS)
@pytest.mark.parametrize("method", SESSION_METHODS)
@given(
    small_instances(alphabet=("a", "b", "c"), max_nodes=6, max_edges=10),
    regexes(alphabet=DIFF_LABELS, max_leaves=5),
    session_steps,
)
def test_sharded_session_equals_monolithic(
    method, shard_map, backend, graph_and_source, expression, steps
):
    """The sharded session ≡ the monolithic one, step by step.

    Answers, ``visited_pairs``, ``visited_objects`` and witness-word
    lengths, through one query method, after every interleaved edit,
    compaction and stale-shard reopen.
    """
    instance, _ = graph_and_source
    rpq = RegularPathQuery.of(expression)
    mono = Engine.open(instance.copy(), backend=backend)
    live = instance.copy()
    shards = shard_map_of(shard_map, live)
    sharded = ShardedEngine.open(live, shard_map=shards, backend=backend)

    def check(step):
        sources = [*sorted(mono.instance.objects, key=repr), "nowhere"]
        assert observe(sharded, method, rpq, sources) == observe(
            mono, method, rpq, sources
        ), step
        assert sharded.graph.num_nodes == len(live), step

    check("opened")
    with tempfile.TemporaryDirectory() as directory:
        for step, argument in steps:
            if step == "add":
                mono.add_edge(*argument)
                sharded.add_edge(*argument)
            elif step == "remove":
                edges = sorted(live.edges(), key=repr)
                if edges:
                    edge = edges[argument % len(edges)]
                    mono.remove_edge(*edge)
                    sharded.remove_edge(*edge)
            elif step == "compact":
                mono.compact_now()
                sharded.compact_now()
            else:
                sharded.save(directory)
                if not live.has_edge(*argument):
                    live.add_edge(*argument)
                    mono.add_edge(*argument)
                sharded = ShardedEngine.open(
                    directory, instance=live, shard_map=shards, backend=backend
                )
            check((step, argument))


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
    flushes and idle flushes all occur) and pins the fanned-out answers to
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
        async with sharded.as_server(max_batch=3) as server:
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
        async with sharded.as_server(max_batch=3) as server:
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
        async with engine.as_server(max_batch=4) as server:
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
