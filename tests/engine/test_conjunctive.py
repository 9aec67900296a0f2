"""Tests for conjunctive RPQs (``repro.engine.conjunctive``).

Parser surface (grammar, canonicalization, error reporting), cardinality
estimation over degree stats, join planning (greedy order, strategies,
acyclicity), the sans-io ``PlanExecution`` stepper, telemetry emitted by
``query_conjunctive``, and the differential arm: every backend's
``query_conjunctive`` — monolithic python/numpy and the sharded engine —
must return exactly the rows of the naive nested-loop reference, on
randomized graphs/queries and after interleaved edit scripts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _strategies import edit_scripts, regexes, small_instances
from repro.engine import Engine, ShardedEngine, numpy_available
from repro.engine.conjunctive import (
    Atom,
    ConjunctiveQuery,
    PlanExecution,
    is_crpq_text,
    nested_loop_rows,
    parse_crpq,
    plan_join,
)
from repro.engine.request import CRPQRequest, QueryRequest
from repro.exceptions import ReproError
from repro.graph import web_like_graph
from repro.optimize import DegreeStats, estimate_cardinality
from repro.regex import parse
from repro.regex.ast import Symbol

EXECUTOR_BACKENDS = ("python", "numpy") if numpy_available() else ("python",)


def web(nodes=30, seed=7, labels=("a", "b", "c")):
    instance, root = web_like_graph(nodes, list(labels), seed=seed)
    return instance, root


# ---------------------------------------------------------------------------
# Surface syntax.
# ---------------------------------------------------------------------------
class TestIsCrpqText:
    def test_detects_match_keyword(self):
        assert is_crpq_text("MATCH x -[a]-> y")
        assert is_crpq_text("  MATCH\n x -[a]-> y RETURN x")
        assert not is_crpq_text("a (b + c)*")
        assert not is_crpq_text("MATCHBOX b")  # a label, not the keyword


class TestParser:
    def test_single_atom_defaults(self):
        query = parse_crpq("MATCH x -[a b*]-> y")
        assert query.atoms == (Atom("x", parse("a b*"), "y"),)
        assert query.bindings == ()
        assert query.returns == ("x", "y")  # RETURN defaults to all vars

    def test_full_form(self):
        query = parse_crpq(
            "MATCH x -[a]-> y, y -[b + c]-> z WHERE x = n0 AND z = n4 RETURN y"
        )
        assert [atom.text() for atom in query.atoms] == [
            "x -[a]-> y",
            "y -[b + c]-> z",
        ]
        assert query.bindings == (("x", "n0"), ("z", "n4"))
        assert query.returns == ("y",)

    def test_where_accepts_comma_separators(self):
        query = parse_crpq("MATCH x -[a]-> y WHERE x = s, y = t RETURN x")
        assert query.bindings == (("x", "s"), ("y", "t"))

    def test_keywords_inside_expression_slot_are_labels(self):
        # WHERE/RETURN inside -[...]-> are ordinary regex labels, not clauses.
        query = parse_crpq("MATCH x -[WHERE RETURN]-> y")
        assert query.atoms[0].expression == parse("WHERE RETURN")
        assert query.returns == ("x", "y")

    def test_to_text_roundtrip(self):
        text = "MATCH x -[a (b + c)*]-> y, y -[b]-> z WHERE z = n2 RETURN x, z"
        query = parse_crpq(text)
        assert parse_crpq(query.to_text()) == query

    def test_queries_are_hashable_and_canonical(self):
        one = parse_crpq("MATCH x -[a]-> y WHERE x = s AND y = t")
        # Same bindings in the other order, plus a harmless duplicate.
        two = ConjunctiveQuery(
            atoms=one.atoms, bindings=(("y", "t"), ("x", "s"), ("x", "s"))
        )
        assert one == two
        assert hash(one) == hash(two)

    def test_with_source_binds_first_variable(self):
        query = parse_crpq("MATCH x -[a]-> y, y -[b]-> z RETURN z")
        assert query.with_source("root").bindings == (("x", "root"),)

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("a b", "MATCH keyword"),
            ("MATCH x -[a-> y", "unterminated atom expression"),
            ("MATCH x a y", "malformed atom"),
            ("MATCH x -[a +]-> y", "bad expression in atom"),
            ("MATCH x -[a]-> y,", "empty atom"),
            ("MATCH x -[a]-> y RETURN x WHERE y = t", "misplaced RETURN"),
            ("MATCH x -[a]-> y WHERE q = t", "unknown variable 'q'"),
            ("MATCH x -[a]-> y RETURN q", "unknown variable 'q'"),
            ("MATCH x -[a]-> y WHERE x = s AND x = t", "bound to both"),
            ("MATCH x -[a]-> y WHERE x == s", "malformed WHERE condition"),
            ("MATCH x -[a]-> y RETURN x,", "malformed RETURN variable"),
        ],
    )
    def test_errors(self, text, message):
        with pytest.raises(ReproError, match=message):
            parse_crpq(text)

    def test_query_needs_an_atom(self):
        with pytest.raises(ReproError, match="at least one atom"):
            ConjunctiveQuery(atoms=())


# ---------------------------------------------------------------------------
# Cardinality estimation + degree stats.
# ---------------------------------------------------------------------------
class TestCardinality:
    STATS = DegreeStats(num_nodes=10, label_counts={"a": 20, "b": 4, "rare": 1})

    def test_symbol_is_label_count(self):
        assert estimate_cardinality(Symbol("a"), self.STATS) == 20.0
        assert estimate_cardinality(Symbol("rare"), self.STATS) == 1.0
        assert estimate_cardinality(Symbol("unknown"), self.STATS) == 0.0

    def test_union_adds_and_concat_composes(self):
        union = estimate_cardinality(parse("a + b"), self.STATS)
        assert union == 24.0
        concat = estimate_cardinality(parse("a b"), self.STATS)
        assert concat == pytest.approx(20 * 4 / 10)

    def test_star_grows_but_is_capped(self):
        star = estimate_cardinality(parse("a*"), self.STATS)
        assert star > estimate_cardinality(Symbol("a"), self.STATS)
        assert star <= self.STATS.num_nodes**2
        assert estimate_cardinality(parse("(a + b)* a*"), self.STATS) <= 100.0

    def test_degree_stats_track_live_edges(self):
        instance, _ = web(20)
        engine = Engine.open(instance)
        stats = engine.degree_stats()
        source, label, destination = next(iter(instance.edges()))
        engine.remove_edge(source, label, destination)
        after = engine.degree_stats()
        assert after.count(label) == stats.count(label) - 1
        assert after.num_edges == stats.num_edges - 1

    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_degree_stats_match_monolithic(self, shards):
        instance, _ = web(24)
        mono = Engine.open(instance).degree_stats()
        engine = ShardedEngine.open(instance, shards=shards)
        try:
            sharded = engine.degree_stats()
        finally:
            engine.close()
        assert sharded.num_nodes == mono.num_nodes
        assert dict(sharded.label_counts) == dict(mono.label_counts)


# ---------------------------------------------------------------------------
# Join planning.
# ---------------------------------------------------------------------------
class TestPlanner:
    STATS = DegreeStats(
        num_nodes=100, label_counts={"rare": 2, "common": 900}
    )

    def chain(self):
        # The selective atom comes first syntactically AND is the right
        # greedy seed: starting from rare's two pairs lets the common atom
        # run source-bound instead of from the whole domain.
        return parse_crpq("MATCH x -[rare]-> y, y -[common]-> z RETURN x, z")

    def test_optimized_starts_with_the_selective_atom(self):
        plan = plan_join(self.chain(), self.STATS)
        assert plan.order[0].atom.text() == "x -[rare]-> y"
        assert plan.strategy == "optimized"

    def test_declared_keeps_syntactic_order(self):
        query = parse_crpq("MATCH x -[common]-> y, y -[rare]-> z RETURN x, z")
        plan = plan_join(query, self.STATS, strategy="declared")
        assert [p.atom.text() for p in plan.order] == [
            "x -[common]-> y",
            "y -[rare]-> z",
        ]

    def test_worst_costs_more_than_optimized(self):
        best = plan_join(self.chain(), self.STATS)
        worst = plan_join(self.chain(), self.STATS, strategy="worst")
        assert worst.order[0].atom.text() == "y -[common]-> z"
        # Running the common atom first pays its full domain scan before
        # any selection; the greedy order is an order of magnitude cheaper.
        assert worst.estimated_cost > 10 * best.estimated_cost

    def test_bound_source_prefers_seeded_atom(self):
        query = parse_crpq(
            "MATCH x -[common]-> y, y -[common]-> z WHERE x = n0 RETURN z"
        )
        plan = plan_join(query, self.STATS)
        # With x bound, evaluating x's atom first costs pairs/n per row;
        # the unbound spelling would pay the full domain.
        assert plan.order[0].atom.source == "x"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ReproError, match="unknown plan strategy"):
            plan_join(self.chain(), self.STATS, strategy="fastest")

    def test_prepared_must_align(self):
        with pytest.raises(ReproError, match="align"):
            plan_join(self.chain(), self.STATS, prepared=[Symbol("a")])

    @pytest.mark.parametrize(
        ("text", "acyclic"),
        [
            ("MATCH x -[a]-> y, y -[b]-> z", True),
            ("MATCH x -[a]-> y, y -[b]-> z, z -[c]-> x", False),
            ("MATCH x -[a]-> y, x -[b]-> y", True),  # parallel pair
            ("MATCH x -[a]-> x, x -[b]-> y", True),  # self-loop atom
        ],
    )
    def test_acyclicity(self, text, acyclic):
        plan = plan_join(parse_crpq(text), self.STATS)
        assert plan.acyclic is acyclic

    def test_describe_is_json_ready(self):
        plan = plan_join(self.chain(), self.STATS)
        for step in plan.describe():
            assert set(step) == {
                "atom", "prepared", "estimated_pairs", "estimated_cost"
            }


# ---------------------------------------------------------------------------
# The sans-io stepper.
# ---------------------------------------------------------------------------
def execute_by_hand(query_text, pair_maps, domain=("s", "t", "u")):
    """Drive a PlanExecution feeding canned pair maps (declared order)."""
    query = parse_crpq(query_text)
    stats = DegreeStats(num_nodes=len(domain), label_counts={})
    plan = plan_join(query, stats, strategy="declared", domain=tuple(domain))
    execution = PlanExecution(plan)
    fed = 0
    while (request := execution.pending()) is not None:
        execution.feed(pair_maps[fed])
        fed += 1
    return execution


class TestPlanExecution:
    def test_chain_join(self):
        execution = execute_by_hand(
            "MATCH x -[a]-> y, y -[b]-> z RETURN x, z",
            [{"s": {"t"}, "u": {"t"}}, {"t": {"u"}}],
        )
        assert execution.result_rows() == (("s", "u"), ("u", "u"))

    def test_empty_intermediate_short_circuits(self):
        execution = execute_by_hand(
            "MATCH x -[a]-> y, y -[b]-> z RETURN z",
            [{}],  # first atom yields nothing; second never requested
        )
        assert execution.done
        assert execution.result_rows() == ()
        assert len(execution.steps) == 1

    def test_bound_target_filters(self):
        execution = execute_by_hand(
            "MATCH x -[a]-> y WHERE y = t RETURN x",
            [{"s": {"t"}, "u": {"v"}}],
        )
        assert execution.result_rows() == (("s",),)

    def test_self_loop_atom(self):
        execution = execute_by_hand(
            "MATCH x -[a]-> x RETURN x",
            [{"s": {"s", "t"}, "t": {"s"}, "u": {"u"}}],
        )
        assert execution.result_rows() == (("s",), ("u",))

    def test_reverse_binding_uses_target_index(self):
        # Second atom's *target* is bound but its source is new: the join
        # must build the reverse index rather than re-seed the domain.
        execution = execute_by_hand(
            "MATCH x -[a]-> y, w -[b]-> x RETURN w",
            [{"s": {"t"}}, {"u": {"s"}, "t": {"v"}}],
        )
        assert execution.result_rows() == (("u",),)

    def test_pending_sources_come_from_bound_column(self):
        query = parse_crpq("MATCH x -[a]-> y, y -[b]-> z RETURN z")
        stats = DegreeStats(num_nodes=3, label_counts={})
        plan = plan_join(query, stats, strategy="declared", domain=("s",))
        execution = PlanExecution(plan)
        execution.feed({"s": {"t2", "t1"}})
        request = execution.pending()
        assert request.sources == ("t1", "t2")  # sorted, deduplicated

    def test_unbound_atom_without_domain_raises(self):
        query = parse_crpq("MATCH x -[a]-> y RETURN y")
        plan = plan_join(query, DegreeStats(num_nodes=1, label_counts={}))
        with pytest.raises(ReproError, match="no domain"):
            PlanExecution(plan).pending()

    def test_feed_after_done_raises(self):
        execution = execute_by_hand("MATCH x -[a]-> y RETURN y", [{"s": {"t"}}])
        with pytest.raises(ReproError, match="finished"):
            execution.feed({})

    def test_result_rows_before_done_raises(self):
        query = parse_crpq("MATCH x -[a]-> y RETURN y")
        plan = plan_join(
            query, DegreeStats(num_nodes=1, label_counts={}), domain=("s",)
        )
        with pytest.raises(ReproError, match="pending"):
            PlanExecution(plan).result_rows()

    def test_domain_override_seeds_and_filters(self):
        # ``PlanExecution(plan, domain=...)`` replaces the plan's domain for
        # both of its jobs: seeding an unbound atom and the WHERE filter.
        query = parse_crpq("MATCH x -[a]-> y RETURN y")
        plan = plan_join(query, DegreeStats(num_nodes=2, label_counts={}))
        assert PlanExecution(plan, domain=("t", "s")).pending().sources == ("t", "s")
        bound = parse_crpq("MATCH x -[a]-> y WHERE x = nobody RETURN y")
        plan = plan_join(bound, DegreeStats(num_nodes=2, label_counts={}))
        assert PlanExecution(plan, domain=("s", "t")).done  # filtered to no rows
        assert not PlanExecution(plan).done  # no domain: nothing to filter by

    def test_step_reports_estimate_scaled_to_the_sources_it_ran_from(self):
        # 40 a-edges over 10 nodes: 40 estimated pairs from the whole
        # domain, so 8 from the two sources this step evaluated.
        query = parse_crpq("MATCH x -[a]-> y RETURN y")
        stats = DegreeStats(num_nodes=10, label_counts={"a": 40})
        plan = plan_join(query, stats, domain=("s", "t"))
        step = PlanExecution(plan).feed({"s": {"t"}, "t": {"s", "t", "u"}})
        assert (step.pairs, step.estimated_pairs) == (4, 8.0)
        assert step.q_error == 2.0
        assert step.span_attributes()["q_error"] == 2.0

    def test_q_error_floors_both_sides_at_one(self):
        query = parse_crpq("MATCH x -[a]-> y RETURN y")
        plan = plan_join(
            query, DegreeStats(num_nodes=10, label_counts={}), domain=("s",)
        )
        step = PlanExecution(plan).feed({"s": set()})
        assert (step.pairs, step.estimated_pairs, step.q_error) == (0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Engine integration: equivalence, request forms, telemetry.
# ---------------------------------------------------------------------------
class TestQueryConjunctive:
    CHAIN = "MATCH x -[a]-> y, y -[(b + c)*]-> z RETURN x, z"

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_matches_nested_loop_reference(self, backend):
        instance, _ = web(40)
        engine = Engine.open(instance, backend=backend)
        result = engine.query_conjunctive(self.CHAIN)
        assert result.rows == nested_loop_rows(parse_crpq(self.CHAIN), instance)
        assert result.variables == ("x", "z")

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_sharded_matches_monolithic(self, backend):
        instance, _ = web(40)
        expected = Engine.open(instance).query_conjunctive(self.CHAIN).rows
        engine = ShardedEngine.open(instance, shards=3, backend=backend)
        try:
            assert engine.query_conjunctive(self.CHAIN).rows == expected
        finally:
            engine.close()

    def test_strategies_agree_on_rows(self):
        instance, _ = web(30)
        engine = Engine.open(instance)
        rows = {
            strategy: engine.query_conjunctive(self.CHAIN, strategy=strategy).rows
            for strategy in ("optimized", "declared", "worst")
        }
        assert rows["optimized"] == rows["declared"] == rows["worst"]

    def test_accepts_every_request_form(self):
        instance, root = web(30)
        engine = Engine.open(instance)
        text = "MATCH x -[a]-> y RETURN x, y"
        parsed = parse_crpq(text)
        by_text = engine.query_conjunctive(text)
        assert engine.query_conjunctive(parsed).rows == by_text.rows
        assert engine.query_conjunctive(QueryRequest(query=text)).rows == by_text.rows
        bound = engine.query_conjunctive(CRPQRequest(query=text, source=root))
        assert bound.rows == engine.query_conjunctive(parsed.with_source(root)).rows

    def test_where_binding_restricts_rows(self):
        instance, root = web(30)
        engine = Engine.open(instance)
        everyone = engine.query_conjunctive("MATCH x -[a b]-> y RETURN x, y")
        rooted = engine.query_conjunctive(
            parse_crpq("MATCH x -[a b]-> y RETURN x, y").with_source(root)
        )
        assert set(rooted.rows) == {
            row for row in everyone.rows if row[0] == root
        }

    def test_scalar_query_rejected(self):
        instance, _ = web(20)
        engine = Engine.open(instance)
        with pytest.raises(ReproError, match="MATCH"):
            engine.query_conjunctive("a (b + c)*")

    def test_emits_spans_and_counters(self):
        instance, _ = web(30)
        engine = Engine.open(instance)
        result = engine.query_conjunctive(self.CHAIN)
        trace = engine.metrics.tracer.last()
        names = [span.name for span in trace.spans]
        assert names[0] == "crpq.query"
        assert "crpq.plan" in names
        assert names.count("crpq.atom") == len(result.steps)
        assert names.count("crpq.join") == len(result.steps)
        snapshot = engine.telemetry()
        assert snapshot["crpq_queries"] == 1
        assert snapshot["crpq_atom_batches"] == len(result.steps)
        assert snapshot["crpq_join_rows"] == sum(
            step.rows_out for step in result.steps
        )

    def test_join_spans_and_histogram_carry_the_estimate_error(self):
        instance, _ = web(30)
        engine = Engine.open(instance)
        result = engine.query_conjunctive(self.CHAIN)
        joins = [
            span
            for span in engine.metrics.tracer.last().spans
            if span.name == "crpq.join"
        ]
        for span, step in zip(joins, result.steps):
            assert span.attributes["pairs"] == step.pairs
            assert span.attributes["estimated_pairs"] == round(step.estimated_pairs, 1)
            assert span.attributes["q_error"] == round(step.q_error, 2) >= 1.0
        histogram = engine.telemetry()["crpq_q_error"]
        assert histogram["count"] == len(result.steps)
        assert histogram["sum"] == pytest.approx(
            sum(step.q_error for step in result.steps)
        )

    def test_plan_reflects_constraint_rewrite(self):
        # Under a b = c the prepared atom is the rewritten expression; the
        # plan must estimate and report what will actually run.
        from repro.constraints import ConstraintSet, parse_constraint

        instance, _ = web(30)
        constraints = ConstraintSet([parse_constraint("a b = c")])
        engine = Engine.open(instance, constraints=constraints)
        plan = engine.plan_conjunctive("MATCH x -[a b]-> y RETURN x, y")
        assert plan.describe()[0]["prepared"] == "c"

    def test_result_as_dicts(self):
        instance, _ = web(20)
        engine = Engine.open(instance)
        result = engine.query_conjunctive("MATCH x -[a]-> y RETURN x, y")
        assert result.as_dicts() == [
            {"x": row[0], "y": row[1]} for row in result.rows
        ]
        assert len(result) == len(result.rows)


# ---------------------------------------------------------------------------
# The lazy active domain and the per-version planner inputs.
# ---------------------------------------------------------------------------
def open_sessions(instance):
    """``(name, session)`` for every kind of session a CRPQ can run on: the
    monolithic engine and the sharded one at ``concurrency`` 1 and 2, each
    per available batch kernel, each over its own copy of ``instance``."""
    from repro.engine import available_backends

    for backend in available_backends():
        yield f"engine/{backend}", Engine.open(instance.copy(), backend=backend)
        for concurrency in (1, 2):
            yield f"sharded/{backend}/c{concurrency}", ShardedEngine.open(
                instance.copy(), shards=3, backend=backend, concurrency=concurrency
            )


def close(session):
    if isinstance(session, ShardedEngine):
        session.close()


def materializations(session) -> int:
    return session.telemetry().get("crpq_domain_materializations", 0)


class TestLazyActiveDomain:
    #: bound, unbound-source, self-loop, disconnected (cartesian), and a
    #: WHERE constant naming no object (``b*`` accepts ε: a phantom
    #: self-answer is exactly what the membership filter must prevent).
    QUERIES = (
        "MATCH x -[a (b + c)*]-> y, y -[c]-> z WHERE x = p0 RETURN y, z",
        "MATCH x -[a]-> y, y -[b]-> z RETURN x, z",
        "MATCH x -[(a + b)^+]-> x RETURN x",
        "MATCH x -[a]-> y, u -[c c]-> v WHERE x = p1 RETURN y, v",
        "MATCH x -[b*]-> y WHERE x = nobody RETURN y",
    )

    def check_all(self, session, mirror, name):
        for text in self.QUERIES:
            expected = nested_loop_rows(parse_crpq(text), mirror)
            assert session.query_conjunctive(text).rows == expected, (name, text)

    def test_engines_match_nested_loop_before_and_after_edits(self):
        instance, _ = web(24, seed=3)
        for name, session in open_sessions(instance):
            mirror = session.instance
            try:
                self.check_all(session, mirror, name)
                # Out of band: the domain and the planner's node count must
                # follow ``instance.version`` (``p1 -[a]-> newcomer`` below
                # makes the newcomer an answer of the unbound queries).
                mirror.add_object("newcomer")
                self.check_all(session, mirror, name)
                assert session.degree_stats().num_nodes == len(mirror)
                session.add_edge("p1", "a", "newcomer")
                session.add_edge("newcomer", "b", "p0")
                self.check_all(session, mirror, name)
                session.remove_edge("newcomer", "b", "p0")
                self.check_all(session, mirror, name)
                stats = session.degree_stats()
                assert stats.num_edges == mirror.edge_count(), name
                assert stats == DegreeStats.from_instance(mirror), name
            finally:
                close(session)

    def test_bound_query_never_enumerates_the_domain(self, monkeypatch):
        from repro.graph import Instance

        instance, _ = web(24, seed=3)
        sessions = list(open_sessions(instance))
        enumerations = []
        objects = Instance.objects
        monkeypatch.setattr(
            Instance,
            "objects",
            property(lambda self: enumerations.append(1) or objects.fget(self)),
        )
        for name, session in sessions:
            try:
                for _ in range(3):
                    session.query_conjunctive(self.QUERIES[0])
                    session.query_conjunctive(self.QUERIES[4])
                assert materializations(session) == 0, name
                assert not enumerations, name  # ``Instance.objects`` copies
            finally:
                close(session)

    def test_unbound_query_sorts_the_domain_once_per_version(self):
        instance, _ = web(24, seed=3)
        for name, session in open_sessions(instance):
            try:
                for _ in range(3):
                    session.query_conjunctive(self.QUERIES[1])
                    session.query_conjunctive(self.QUERIES[2])
                assert materializations(session) == 1, name
                session.add_edge("p0", "c", "p5000")  # a new object, too
                request = PlanExecution(
                    session.plan_conjunctive(self.QUERIES[1])
                ).pending()
                assert "p5000" in request.sources
                assert request.sources == tuple(
                    sorted(session.instance.objects, key=repr)
                )
                session.query_conjunctive(self.QUERIES[1])
                assert materializations(session) == 2, name
            finally:
                close(session)

    def test_plan_domain_is_a_view_not_a_copy(self):
        instance, _ = web(24, seed=3)
        engine = Engine.open(instance)
        plan = engine.plan_conjunctive(self.QUERIES[0])
        assert "p0" in plan.domain and "nobody" not in plan.domain
        assert len(plan.domain) == len(instance)
        assert materializations(engine) == 0
        instance.add_object("late")  # the view reads the live instance
        assert "late" in plan.domain
        assert list(plan.domain) == sorted(instance.objects, key=repr)
        assert materializations(engine) == 1

    def test_degree_stats_are_counted_once_per_version(self):
        instance, _ = web(24, seed=3)
        for name, session in open_sessions(instance):
            try:
                first = session.degree_stats()
                assert session.degree_stats() is first, name
                session.add_edge("p0", "a", "p5000")
                assert session.degree_stats().count("a") == first.count("a") + 1, name
            finally:
                close(session)


# ---------------------------------------------------------------------------
# Hypothesis differential arm: engines == nested-loop reference.
# ---------------------------------------------------------------------------
VARIABLES = ("x", "y", "z")


@st.composite
def conjunctive_queries(draw, max_atoms=3, max_leaves=3):
    """Random small CRPQs over the shared test alphabet.

    Variables come from a three-name pool so atoms share endpoints often
    (that is where join bugs live); bindings pick node ids that may or may
    not exist, and RETURN is a random non-empty subset of the variables.
    """
    atom_count = draw(st.integers(min_value=1, max_value=max_atoms))
    atoms = tuple(
        Atom(
            source=draw(st.sampled_from(VARIABLES)),
            expression=draw(regexes(max_leaves=max_leaves)),
            target=draw(st.sampled_from(VARIABLES)),
        )
        for _ in range(atom_count)
    )
    variables = ConjunctiveQuery(atoms=atoms).variables
    bindings = tuple(
        (var, draw(st.integers(min_value=0, max_value=5)))
        for var in draw(
            st.lists(st.sampled_from(variables), unique=True, max_size=2)
        )
    )
    returns = tuple(
        draw(
            st.lists(
                st.sampled_from(variables),
                unique=True,
                min_size=1,
                max_size=len(variables),
            )
        )
    )
    return ConjunctiveQuery(atoms=atoms, bindings=bindings, returns=returns)


@given(small_instances(max_nodes=5, max_edges=10), conjunctive_queries())
@settings(max_examples=50, deadline=None)
def test_query_conjunctive_matches_nested_loop(graph_and_source, query):
    instance, _ = graph_and_source
    expected = nested_loop_rows(query, instance)
    for backend in EXECUTOR_BACKENDS:
        engine = Engine.open(instance.copy(), backend=backend)
        for strategy in ("optimized", "worst"):
            result = engine.query_conjunctive(query, strategy=strategy)
            assert result.rows == expected, (backend, strategy)


@given(small_instances(max_nodes=5, max_edges=8), conjunctive_queries(max_atoms=2))
@settings(max_examples=25, deadline=None)
def test_sharded_query_conjunctive_matches_nested_loop(graph_and_source, query):
    instance, _ = graph_and_source
    expected = nested_loop_rows(query, instance)
    engine = ShardedEngine.open(instance.copy(), shards=2)
    try:
        assert engine.query_conjunctive(query).rows == expected
    finally:
        engine.close()


@given(
    small_instances(max_nodes=5, max_edges=6),
    conjunctive_queries(max_atoms=2, max_leaves=2),
    edit_scripts(max_nodes=5, max_ops=8),
)
@settings(max_examples=30, deadline=None)
def test_query_conjunctive_tracks_interleaved_edits(
    graph_and_source, query, script
):
    """Incremental adds/deletes keep the join aligned with the reference."""
    instance, _ = graph_and_source
    engines = {
        backend: Engine.open(instance.copy(), backend=backend)
        for backend in EXECUTOR_BACKENDS
    }
    mirror = instance.copy()
    for kind, source, label, destination in script:
        if kind == "add":
            if not mirror.has_edge(source, label, destination):
                mirror.add_edge(source, label, destination)
                for engine in engines.values():
                    engine.add_edge(source, label, destination)
        elif mirror.has_edge(source, label, destination):
            mirror.remove_edge(source, label, destination)
            for engine in engines.values():
                engine.remove_edge(source, label, destination)

    expected = nested_loop_rows(query, mirror)
    for backend, engine in engines.items():
        assert engine.query_conjunctive(query).rows == expected, backend
        # The planner's degree stats must also have tracked the edits.
        stats = engine.degree_stats()
        assert stats.num_edges == mirror.edge_count(), backend
