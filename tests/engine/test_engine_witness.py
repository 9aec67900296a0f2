"""Witness-path validation for both executors, single and batched mode.

Every witness any mode returns is checked two ways against ground truth:
its label word is replayed edge-by-edge on the ``Instance`` (the path must
actually exist from the source and land on the answer), and the word itself
must be accepted by the query's DFA (via ``RegularPathQuery.accepts_word``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _strategies import regexes, small_instances
from repro.engine import (
    CompiledGraph,
    Engine,
    lower_query,
    numpy_available,
    run_batch,
)
from repro.graph import figure2_graph, random_graph
from repro.query import RegularPathQuery

EXECUTOR_BACKENDS = ("python", "numpy") if numpy_available() else ("python",)


def assert_word_spells_path(instance, source, target, word):
    frontier = {source}
    for label in word:
        frontier = {
            successor
            for node in frontier
            for successor in instance.successors(node, label)
        }
    assert target in frontier, (source, target, word)


def assert_result_witnesses_real(result, rpq, source, instance):
    assert set(result.witness_paths) == result.answers
    for answer, word in result.witness_paths.items():
        assert rpq.accepts_word(word), (answer, word)
        assert_word_spells_path(instance, source, answer, word)


# ---------------------------------------------------------------------------
# Single-source mode, per backend.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_single_source_witnesses_replay(backend):
    instance, source = random_graph(30, 2, ["a", "b", "c"], seed=11)
    engine = Engine.open(instance, backend=backend)
    for text in ("a b*", "(a + b)* c", "%", "a? b? c?", "(a b)* c?"):
        rpq = RegularPathQuery.of(text)
        result = engine.query(rpq, source)
        assert_result_witnesses_real(result, rpq, source, instance)
    # One single-source kernel under every backend name, stamped as itself.
    assert set(engine.stats.backend_runs) == {"python"}


@given(small_instances(max_nodes=6, max_edges=12), regexes(max_leaves=5))
@settings(max_examples=40, deadline=None)
def test_single_source_witnesses_replay_fuzzed(graph_and_source, expression):
    instance, source = graph_and_source
    rpq = RegularPathQuery.of(expression)
    for backend in EXECUTOR_BACKENDS:
        engine = Engine.open(instance, backend=backend)
        result = engine.query(rpq, source)
        assert_result_witnesses_real(result, rpq, source, instance)


# ---------------------------------------------------------------------------
# Batched mode: witnesses reconstructed on demand from the shared traversal.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_batched_witnesses_replay(backend):
    instance, _ = random_graph(25, 2, ["a", "b"], seed=4)
    engine = Engine.open(instance, backend=backend)
    sources = sorted(instance.objects, key=repr)
    for text in ("a b*", "(a + b)*", "b a? b?"):
        rpq = RegularPathQuery.of(text)
        results = engine.query_batch_results(rpq, sources)
        assert set(results) == set(sources)
        total = 0
        for source, result in results.items():
            assert result.answers == engine.answer_set(rpq, source)
            assert_result_witnesses_real(result, rpq, source, instance)
            total += len(result.witness_paths)
        assert total > 0, text


@given(
    small_instances(max_nodes=6, max_edges=12),
    regexes(max_leaves=5),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_batched_witnesses_replay_fuzzed(graph_and_source, expression, picks):
    instance, _ = graph_and_source
    objects = sorted(instance.objects, key=repr)
    sources = [objects[pick % len(objects)] for pick in picks]
    rpq = RegularPathQuery.of(expression)
    for backend in EXECUTOR_BACKENDS:
        engine = Engine.open(instance, backend=backend)
        results = engine.query_batch_results(rpq, sources)
        for source in sources:
            assert_result_witnesses_real(results[source], rpq, source, instance)


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_batched_witnesses_at_executor_level(backend):
    """run_batch(witnesses=True) resolves label-id words for every answer."""
    instance, _ = figure2_graph()
    graph = CompiledGraph.from_instance(instance)
    rpq = RegularPathQuery.of("a b*")
    compiled = lower_query(rpq, graph)
    sources = list(range(graph.num_nodes))
    run = run_batch(graph, compiled, sources, witnesses=True, backend=backend)
    label_of = graph.labels.value_of
    resolved = 0
    for position, source in enumerate(run.sources):
        for target in run.answers[position]:
            word_ids = run.witness(source, target)
            assert word_ids is not None
            word = tuple(label_of(label_id) for label_id in word_ids)
            assert rpq.accepts_word(word)
            assert_word_spells_path(
                instance, graph.oid_of(source), graph.oid_of(target), word
            )
            resolved += 1
    assert resolved > 0
    # Non-answers (and unknown sources) resolve to None.
    for position, source in enumerate(run.sources):
        non_answers = set(range(graph.num_nodes)) - run.answers[position]
        for target in sorted(non_answers)[:2]:
            assert run.witness(source, target) is None


def test_witness_requires_opt_in():
    instance, _ = figure2_graph()
    graph = CompiledGraph.from_instance(instance)
    compiled = lower_query("a", graph)
    run = run_batch(graph, compiled, [0], backend="python")
    with pytest.raises(ValueError):
        run.witness(0, 1)


@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_witness_rejects_stale_graph(backend):
    """Mutating the graph between the run and witness() raises, not mis-resolves."""
    instance, _ = figure2_graph()
    graph = CompiledGraph.from_instance(instance)
    compiled = lower_query("a b*", graph)
    run = run_batch(
        graph, compiled, list(range(graph.num_nodes)), witnesses=True, backend=backend
    )
    source, label, destination = next(instance.edges())
    graph.remove_edge(source, label, destination)
    with pytest.raises(ValueError, match="mutated"):
        run.witness(0, 1)


# ---------------------------------------------------------------------------
# Witnesses survive incremental deletes: tombstoned edges must never appear.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
def test_witnesses_avoid_tombstoned_edges(backend):
    instance, _ = random_graph(20, 3, ["a", "b"], seed=8)
    engine = Engine.open(instance, backend=backend)
    rpq = RegularPathQuery.of("(a + b)* a")
    engine.query_all(rpq)  # warm the traversal once before mutating
    removed = list(instance.edges())[::3]
    for edge in removed:
        engine.remove_edge(*edge)
    assert engine.stats.graph_builds == 1
    sources = sorted(instance.objects, key=repr)
    results = engine.query_batch_results(rpq, sources)
    for source, result in results.items():
        # Replay against the *mutated* instance: a witness that used a
        # deleted edge would fail the path replay.
        assert_result_witnesses_real(result, rpq, source, instance)
        single = engine.query(rpq, source)
        assert single.answers == result.answers
        assert_result_witnesses_real(single, rpq, source, instance)
