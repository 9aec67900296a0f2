"""Differential tests: the compiled engine vs the reference evaluator.

Every mode of the engine (single-source, multi-source batched, all-pairs)
must return exactly the answer sets of ``query.evaluation.evaluate_baseline``
on randomized graphs and queries, and single-source witnesses must be real:
each witness word must spell an actual path in the graph and belong to the
query language.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _strategies import regexes, small_instances, word_constraint_sets
from repro.constraints import ConstraintSet, satisfies_all
from repro.engine import Engine, available_backends
from repro.graph import layered_dag, random_graph, web_like_graph
from repro.query import RegularPathQuery, evaluate_baseline
from repro.regex import to_string
from repro.regex.ast import concat, star, union


def assert_witnesses_real(result, rpq, source, instance):
    for answer, word in result.witness_paths.items():
        assert answer in result.answers
        assert rpq.accepts_word(word)
        # The word must spell a path source -> answer in the graph.
        frontier = {source}
        for label in word:
            frontier = {
                target for node in frontier for target in instance.successors(node, label)
            }
        assert answer in frontier


# ---------------------------------------------------------------------------
# Hypothesis: random graphs x random regexes, all three modes.
# ---------------------------------------------------------------------------
@given(small_instances(max_nodes=6, max_edges=12), regexes(max_leaves=5))
@settings(max_examples=60)
def test_single_source_matches_baseline(graph_and_source, expression):
    instance, source = graph_and_source
    engine = Engine.open(instance)
    rpq = RegularPathQuery.of(expression)
    expected = evaluate_baseline(rpq, source, instance)
    got = engine.query(rpq, source)
    assert got.answers == expected.answers
    assert set(got.witness_paths) == got.answers
    assert_witnesses_real(got, rpq, source, instance)


@given(small_instances(max_nodes=6, max_edges=12), regexes(max_leaves=5))
@settings(max_examples=40)
def test_all_sources_matches_baseline(graph_and_source, expression):
    instance, _ = graph_and_source
    engine = Engine.open(instance)
    rpq = RegularPathQuery.of(expression)
    results = engine.query_all(rpq)
    assert set(results) == set(instance.objects)
    for oid in instance.objects:
        assert results[oid] == evaluate_baseline(rpq, oid, instance).answers, to_string(
            expression
        )


@given(
    small_instances(max_nodes=6, max_edges=12),
    regexes(max_leaves=5),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
)
@settings(max_examples=40)
def test_multi_source_batch_matches_baseline(graph_and_source, expression, picks):
    instance, _ = graph_and_source
    objects = sorted(instance.objects, key=repr)
    sources = [objects[p % len(objects)] for p in picks]
    engine = Engine.open(instance)
    rpq = RegularPathQuery.of(expression)
    results = engine.query_batch(rpq, sources)
    for source in sources:
        assert results[source] == evaluate_baseline(rpq, source, instance).answers


# ---------------------------------------------------------------------------
# ε-heavy queries: expressions dominated by % / nullable subexpressions.
# ---------------------------------------------------------------------------
EPSILON_HEAVY = [
    "%",
    "% %",
    "% + a",
    "(% + a) (% + b)",
    "(%)* a (% + b)*",
    "a? b? c?",
    "(a?)* b?",
    "% (a + %) %",
]


def test_epsilon_heavy_queries_match_baseline():
    instance, source = random_graph(30, 2, ["a", "b", "c"], seed=17)
    engine = Engine.open(instance)
    for text in EPSILON_HEAVY:
        rpq = RegularPathQuery.of(text)
        expected = evaluate_baseline(rpq, source, instance)
        got = engine.query(rpq, source)
        assert got.answers == expected.answers, text
        # ε-accepting queries must answer the source with the empty witness.
        if rpq.accepts_word(()):
            assert got.witness_paths[source] == ()


def test_empty_answer_sets_match_baseline():
    instance, source = layered_dag(3, 3, ["a", "b"], seed=2)
    engine = Engine.open(instance)
    for text in ("~", "c", "a c", "b b b b b b b b b b"):
        expected = evaluate_baseline(text, source, instance)
        got = engine.query(text, source)
        assert got.answers == expected.answers == set(), text
        assert got.witness_paths == {}


# ---------------------------------------------------------------------------
# Larger deterministic graphs (beyond what hypothesis explores).
# ---------------------------------------------------------------------------
def test_web_like_graph_all_modes_agree():
    instance, source = web_like_graph(120, ["a", "b", "c"], seed=23)
    engine = Engine.open(instance)
    queries = ["a (b + c)* a", "c* b", "(a b)* c?", "% + a", "(a + b + c)*"]
    objects = sorted(instance.objects, key=repr)
    probe = objects[::7]
    for text in queries:
        rpq = RegularPathQuery.of(text)
        batch = engine.query_batch(rpq, probe)
        for oid in probe:
            expected = evaluate_baseline(rpq, oid, instance).answers
            assert engine.query(rpq, oid).answers == expected, text
            assert batch[oid] == expected, text


def test_incremental_edges_visible_to_all_modes():
    instance, source = random_graph(40, 2, ["a", "b"], seed=31)
    engine = Engine.open(instance)
    engine.add_edge(source, "z", "island")
    engine.add_edge("island", "z", "island2")
    rpq = RegularPathQuery.of("z z?")
    expected = evaluate_baseline(rpq, source, instance)
    assert engine.query(rpq, source).answers == expected.answers == {"island", "island2"}
    assert engine.query_batch(rpq, [source, "island"])["island"] == {"island2"}


def test_randomized_construction_stress():
    # Random regexes built programmatically (not via the parser) to cover
    # printer/parser-independent paths, compared on a fixed graph.
    import random

    rng = random.Random(99)
    instance, source = random_graph(25, 3, ["a", "b", "c"], seed=41)
    engine = Engine.open(instance)
    from repro.regex.ast import Epsilon, Symbol

    def rand_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([Symbol("a"), Symbol("b"), Symbol("c"), Epsilon()])
        pick = rng.random()
        if pick < 0.4:
            return concat(rand_expr(depth - 1), rand_expr(depth - 1))
        if pick < 0.8:
            return union(rand_expr(depth - 1), rand_expr(depth - 1))
        return star(rand_expr(depth - 1))

    for _ in range(25):
        expression = rand_expr(3)
        rpq = RegularPathQuery.of(expression)
        expected = evaluate_baseline(rpq, source, instance)
        got = engine.query(rpq, source)
        assert got.answers == expected.answers, to_string(expression)
        assert_witnesses_real(got, rpq, source, instance)


# ---------------------------------------------------------------------------
# A constrained session answers like the baseline where its constraints hold.
# ---------------------------------------------------------------------------
@st.composite
def instances_with_equalities_and_queries(draw):
    """A small graph, a word-equality set and a query; half the queries start
    with a constraint side, so that a rewrite applies."""
    instance, _ = draw(small_instances(alphabet=("a", "b"), max_nodes=5, max_edges=10))
    constraints = draw(
        word_constraint_sets(
            equalities=True, allow_epsilon_rhs=False, max_constraints=2, max_word_length=2
        )
    )
    query = draw(regexes(alphabet=("a", "b"), max_leaves=4))
    if draw(st.booleans()):
        sides = [side for equality in constraints for side in (equality.lhs, equality.rhs)]
        query = concat(draw(st.sampled_from(sides)), query)
    return instance, constraints, query


# No explicit max_examples: CI's deep profile runs this one with 400.
@given(instances_with_equalities_and_queries())
def test_constrained_session_matches_baseline_where_the_constraints_hold(drawn):
    instance, constraints, query = drawn
    sources = sorted(instance.objects)
    holding = [source for source in sources if satisfies_all(instance, source, constraints)]
    for backend in available_backends():
        engine = Engine.open(instance, constraints=constraints, backend=backend)
        answers = engine.query_batch(query, sources)
        for source in holding:
            assert answers[source] == evaluate_baseline(query, source, instance).answers, (
                backend,
                to_string(query),
                str(constraints),
                source,
            )


@pytest.mark.parametrize("backend", available_backends())
def test_constrained_session_rewrites_where_its_constraint_holds(backend):
    from repro.graph.instance import Instance
    from repro.optimize.cache import materialize_cache

    # Section 3.2's payoff site: ``a b = l`` holds at o once the cache links
    # are installed there.
    site = Instance(
        [
            ("o", "a", "x"), ("x", "b", "o"), ("x", "c", "y"),
            ("o", "d", "z"), ("z", "c", "w"),
        ]
    )
    cached_site, cached = materialize_cache(site, "o", "a b", "l")
    constraints = ConstraintSet([cached.constraint()])
    assert satisfies_all(cached_site, "o", constraints)
    engine = Engine.open(cached_site, constraints=constraints, backend=backend)
    expected = evaluate_baseline("a b a c", "o", cached_site).answers
    assert engine.query_batch("a b a c", ["o"]) == {"o": expected} == {"o": {"y"}}
    assert engine.stats.rewrites_applied == 1


# ---------------------------------------------------------------------------
# Constraints hold at some sources only.
# ---------------------------------------------------------------------------
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a session applies one rewrite per query text at every source, "
    "including sources where the constraint it used does not hold",
)
def test_rewrite_is_applied_only_where_its_constraint_holds():
    from repro.constraints import ConstraintSet
    from repro.graph.instance import Instance
    from repro.optimize.cache import materialize_cache

    # Section 3.2's payoff site, plus an a-b cycle at s that reaches u.
    site = Instance(
        [
            ("o", "a", "x"), ("x", "b", "o"), ("x", "c", "y"), ("o", "d", "z"),
            ("z", "c", "w"), ("s", "a", "t"), ("t", "b", "s"), ("t", "c", "u"),
        ]
    )
    # ``a b = l`` holds at o, where the cache links were installed, not at s.
    cached_site, cached = materialize_cache(site, "o", "a b", "l")
    engine = Engine.open(cached_site, constraints=ConstraintSet([cached.constraint()]))
    expected = {
        source: evaluate_baseline("a b a c", source, cached_site).answers
        for source in ("o", "s")
    }
    assert expected == {"o": {"y"}, "s": {"u"}}
    assert engine.query_batch("a b a c", ["o", "s"]) == expected
