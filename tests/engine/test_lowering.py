"""The engine's lowering against the paper's automata.

``lower_query`` builds its table straight from the query's Glushkov
positions: subset construction over the graph's labels, dead states pruned,
Hopcroft on the partial DFA, breadth-first numbering.  The reference here is
the paper's pipeline as the engine used it before: ``minimize_dfa(
nfa_to_dfa(Thompson NFA))``, a dense table over the graph's labels, moves
into dead states cut but dead rows (the completed DFA's sink among them)
kept.  On every drawn expression and every text of the five benchmark
workloads the two must accept the same words over the graph's labels, and
the engine's table must be minimal: no more states, no dead row, no two
equivalent states.  Old snapshots carry reference-style tables in their warm
cache, so those must still answer alike through ``CompiledQuery.from_table``.
"""

from __future__ import annotations

import asyncio
import re
import time
from array import array
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.automata import minimize_dfa, nfa_to_dfa
from repro.engine import (
    CompiledGraph,
    CompiledQuery,
    Engine,
    available_backends,
    lower_query,
    run_batch,
    run_single,
    serve_stream,
)
from repro.engine.compiled_query import DEAD, MAX_DFA_STATES
from repro.exceptions import DeterminizationBudgetError
from repro.graph import Instance
from repro.optimize.cost import DEFAULT_COST_MODEL
from repro.optimize.rewriter import rewrite_query
from repro.query.path_query import RegularPathQuery
from repro.regex import to_string
from repro.regex.ast import Concat, EmptySet, Epsilon, Star, Symbol, Union

# ---------------------------------------------------------------------------
# The reference lowering and table predicates.
# ---------------------------------------------------------------------------
def paper_table(query, graph: CompiledGraph) -> CompiledQuery:
    """The paper's minimal DFA as a dense table over ``graph``'s labels.

    Moves into states that cannot accept over the graph's labels are cut;
    the rows of those states stay (the shape of a pre-pruning snapshot's
    warm cache).
    """
    rpq = query if isinstance(query, RegularPathQuery) else RegularPathQuery.of(query)
    dfa = minimize_dfa(nfa_to_dfa(rpq.nfa))
    states = sorted(dfa.states)
    index = {state: position for position, state in enumerate(states)}
    raw = [[DEAD] * graph.num_labels for _ in states]
    for state in states:
        for label, target in dfa.transitions.get(state, {}).items():
            lid = graph.label_id(label)
            if lid is not None:
                raw[index[state]][lid] = index[target]
    accepting = tuple(state in dfa.accepting for state in states)
    live = _live(raw, accepting)
    table = tuple(
        array("q", [t if t != DEAD and live[t] else DEAD for t in row]) for row in raw
    )
    return CompiledQuery.from_table(
        expression=to_string(rpq.expression),
        initial=index[dfa.initial],
        accepting=accepting,
        table=table,
        label_count=graph.num_labels,
        dfa_size=len(states),
    )


def _live(rows, accepting) -> "list[bool]":
    live = list(accepting)
    changed = True
    while changed:
        changed = False
        for state, row in enumerate(rows):
            if not live[state] and any(t != DEAD and live[t] for t in row):
                live[state] = changed = True
    return live


def same_language(left: CompiledQuery, right: CompiledQuery) -> bool:
    """Both tables accept the same words (a search of the pair product)."""
    width = left.label_count
    assert right.label_count == width

    def accepts(compiled, state):
        return state != DEAD and compiled.accepting[state]

    start = (left.initial, right.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        one, two = queue.popleft()
        if accepts(left, one) != accepts(right, two):
            return False
        for lid in range(width):
            pair = (
                left.table[one][lid] if one != DEAD else DEAD,
                right.table[two][lid] if two != DEAD else DEAD,
            )
            if pair != (DEAD, DEAD) and pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def equivalence_classes(compiled: CompiledQuery) -> "list[int]":
    """Moore refinement over the table, sink included: a class per state."""
    rows = compiled.table
    classes = [int(flag) for flag in compiled.accepting]
    while True:
        signatures = [
            (classes[state], tuple(classes[t] if t != DEAD else -1 for t in row))
            for state, row in enumerate(rows)
        ]
        numbering: dict = {}
        refined = [numbering.setdefault(sig, len(numbering)) for sig in signatures]
        if len(numbering) == len(set(classes)):
            return refined
        classes = refined


def assert_minimal(compiled: CompiledQuery) -> None:
    live = _live(compiled.table, compiled.accepting)
    assert compiled.initial == 0
    assert compiled.dfa_size == compiled.num_states <= compiled.determinized
    assert compiled.moves == tuple(
        tuple((lid, t) for lid, t in enumerate(row) if t != DEAD) for row in compiled.table
    )
    if not live[0]:  # empty language: the lone initial state
        assert compiled.num_states == 1 and not compiled.moves[0]
        return
    assert all(live), "a dead row survived"
    reached = {0}
    queue = deque([0])
    while queue:
        for _, target in compiled.moves[queue.popleft()]:
            if target not in reached:
                reached.add(target)
                queue.append(target)
    assert reached == set(range(compiled.num_states))
    classes = equivalence_classes(compiled)
    assert len(set(classes)) == compiled.num_states, "two states are equivalent"


def assert_lowers_like_the_paper(query, graph: CompiledGraph) -> None:
    new = lower_query(query, graph)
    old = paper_table(query, graph)
    assert new.label_count == old.label_count == graph.num_labels
    assert same_language(new, old)
    assert new.num_states <= old.num_states
    assert_minimal(new)
    expression = RegularPathQuery.of(query).expression
    known = all(graph.label_id(label) is not None for label in expression.alphabet())
    if known and all(_live(old.table, old.accepting)):
        # Already minimal after pruning: the very same table.
        assert new.table == old.table and new.accepting == old.accepting


def assert_answers_alike(query, graph: CompiledGraph, sources, *, same_work: bool) -> None:
    """Both tables give the same answers; the engine's visits no more
    product pairs (exactly as many where ``same_work``).  Merging states
    that are equivalent only over the graph's labels (``b + a*`` on a graph
    without ``b``) is where it visits fewer."""
    new = lower_query(query, graph)
    old = paper_table(query, graph)
    runs = [(run_single(graph, new, node), run_single(graph, old, node)) for node in sources]
    for backend in available_backends():
        runs.append((
            run_batch(graph, new, list(sources), backend=backend),
            run_batch(graph, old, list(sources), backend=backend),
        ))
    for fresh, legacy in runs:
        assert fresh.answers == legacy.answers
        assert fresh.visited_pairs <= legacy.visited_pairs
        if same_work:
            assert fresh.visited_pairs == legacy.visited_pairs


# ---------------------------------------------------------------------------
# Drawn expressions over a drawn label universe.
# ---------------------------------------------------------------------------
UNIVERSE = ("a", "b", "c", "d", "e")


def raw_regexes(alphabet) -> st.SearchStrategy:
    """Expressions built with the bare constructors, so that ε and ∅ stay in
    the tree wherever they are drawn (the simplifying helpers drop them)."""
    leaves = st.one_of(
        st.sampled_from([Symbol(label) for label in alphabet]),
        st.just(Epsilon()),
        st.just(EmptySet()),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda pair: Concat(*pair)),
            st.tuples(children, children).map(lambda pair: Union(*pair)),
            children.map(Star),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def lowering_cases(draw):
    """``(expression, graph)``: the graph has some of the universe's labels,
    in a drawn interning order, and possibly labels the query never names."""
    query_labels = draw(
        st.lists(st.sampled_from(UNIVERSE), min_size=1, max_size=4, unique=True)
    )
    graph_labels = draw(
        st.lists(st.sampled_from(UNIVERSE + ("x", "y")), min_size=1, max_size=6, unique=True)
    )
    expression = draw(raw_regexes(tuple(query_labels)))
    # Object names sort in drawn order, so the labels are interned in it.
    instance = Instance(
        [(f"n{index}", label, f"n{index + 1}") for index, label in enumerate(graph_labels)]
    )
    return expression, CompiledGraph.from_instance(instance)


@given(lowering_cases())
def test_drawn_expressions_lower_like_the_paper(case):
    expression, graph = case
    assert_lowers_like_the_paper(expression, graph)


@given(lowering_cases(), st.data())
def test_reference_tables_answer_alike(case, data):
    expression, graph = case
    extra = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, 4), st.sampled_from(graph.labels_fingerprint()), st.integers(0, 4)
            ),
            max_size=10,
        )
    )
    for source, label, target in extra:
        graph.add_edge(f"n{source}", label, f"n{target}")
    assert_answers_alike(expression, graph, range(graph.num_nodes), same_work=False)


@pytest.mark.parametrize(
    "text, states",
    [
        ("~", 1),
        ("%", 1),
        ("a c", 3),
        ("a q", 1),  # no q edge: empty over this graph
        ("(a + b)* c", 2),
        ("a (b + q)*", 2),
        ("(a + %)(a + %) ~ + b*", 1),
    ],
)
def test_edge_cases(text, states):
    graph = CompiledGraph.from_instance(
        Instance([("x", "a", "y"), ("y", "b", "z"), ("z", "c", "x")])
    )
    assert lower_query(text, graph).num_states == states
    assert_lowers_like_the_paper(text, graph)


# ---------------------------------------------------------------------------
# Every text of the five benchmark workloads.
# ---------------------------------------------------------------------------
def workload_cases(classes, tmp_path):
    """``(graph, sources, texts)`` per workload, at the smoke size: the
    label universes are the full runs' ones."""
    from workloads.clustered_sharded_crpq import TEMPLATES
    from workloads.web_served_point import EXPRESSIONS

    cases = []
    for name, cls in classes.items():
        workload = cls(seed=1, smoke=True)
        workload.generate(tmp_path)
        graph = CompiledGraph.from_instance(workload.instance)
        if name == "site-rewrite-cold":
            texts = workload.texts()
            constraints = workload.site.constraints
            texts += [
                to_string(rewrite_query(text, constraints, DEFAULT_COST_MODEL).best)
                for text in texts
            ]
            sources = [graph.node_id(workload.root)]
        else:
            texts = {
                "web-served-point": list(EXPRESSIONS),
                "clustered-sharded-crpq": sorted(
                    {atom for t in TEMPLATES for atom in re.findall(r"-\[(.*?)\]->", t)}
                ),
            }.get(name) or [cls.EXPRESSION]
            sources = list(range(0, graph.num_nodes, max(1, graph.num_nodes // 16)))
        cases.append((name, graph, sources, texts))
    return cases


def test_every_workload_text_lowers_like_the_paper(e2e_workloads, tmp_path):
    cases = workload_cases(e2e_workloads, tmp_path)
    assert [name for name, *_ in cases] == list(e2e_workloads)
    for _name, graph, sources, texts in cases:
        assert texts
        for text in texts:
            assert_lowers_like_the_paper(text, graph)
            assert_answers_alike(text, graph, sources, same_work=True)


def test_site_texts_lose_exactly_the_sink(e2e_workloads, tmp_path):
    # The adopted forms of the paper's workload: each old table carried one
    # dead row (the completed DFA's sink), and nothing else goes.
    [(_, graph, _, texts)] = [
        case for case in workload_cases(e2e_workloads, tmp_path) if case[0] == "site-rewrite-cold"
    ]
    for text in texts:
        assert lower_query(text, graph).num_states == paper_table(text, graph).num_states - 1


# ---------------------------------------------------------------------------
# The determinization budget.
# ---------------------------------------------------------------------------
def blow_up(k: int) -> str:
    """``(a + b)* a (a + b)^k``: its minimal DFA has ``2^(k+1)`` states."""
    return "(a + b)* a" + " (a + b)" * k


def ab_graph() -> Instance:
    return Instance([("u", "a", "v"), ("v", "b", "u"), ("u", "b", "u")])


def test_the_budget_is_the_boundary():
    # The subset construction of blow_up(k) builds 2^(k+1) + 1 states: the
    # initial position set, then one per window of the last k + 1 letters.
    graph = CompiledGraph.from_instance(ab_graph())
    largest = MAX_DFA_STATES.bit_length() - 3
    compiled = lower_query(blow_up(largest), graph)
    assert compiled.determinized == MAX_DFA_STATES // 2 + 1
    assert compiled.num_states == MAX_DFA_STATES // 2
    with pytest.raises(DeterminizationBudgetError, match=str(MAX_DFA_STATES)):
        lower_query(blow_up(largest + 1), graph)


def test_engine_refuses_a_blow_up_quickly_and_keeps_serving():
    engine = Engine.open(ab_graph())
    started = time.perf_counter()
    with pytest.raises(DeterminizationBudgetError):
        engine.query(blow_up(16), "u")
    assert time.perf_counter() - started < 5.0
    assert engine.query("a b", "u").answers == {"u"}


def test_serve_stream_answers_a_blow_up_with_an_error():
    engine = Engine.open(ab_graph())
    lines = ["q1\tu\ta b", f"q2\tu\t{blow_up(16)}", "q3\tv\tb a"]
    pending = iter(lines)
    emitted: "list[str]" = []

    async def readline() -> str:
        line = next(pending, None)
        return "" if line is None else line + "\n"

    async def scenario():
        async with engine.as_server() as server:
            await serve_stream(server, readline, emitted.append)
            return server.stats

    stats = asyncio.run(scenario())
    replies = {line.split("\t", 1)[0]: line for line in emitted}
    assert replies["q2"].startswith("q2\terror: ") and "DFA states" in replies["q2"]
    assert "error" not in replies["q1"] and "error" not in replies["q3"]
    assert stats.submitted == stats.served + stats.failed
    assert stats.failed == 1
