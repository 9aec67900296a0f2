"""Tests for the cost model, caches, the rewriter and the planner (Section 3.2)."""


from repro.automata import equivalent, regex_to_nfa
from repro.constraints import (
    ConstraintSet,
    path_equality,
    satisfies,
    satisfies_all,
    word_equality,
)
from repro.graph import Instance, mirror_site_graph
from repro.optimize import (
    CostModel,
    QueryCache,
    install_mirror,
    materialize_cache,
    plan_and_evaluate,
    rewrite_query,
)
from repro.query import answer_set
from repro.regex import parse, to_string


class TestCostModel:
    def test_recursion_is_penalized(self):
        model = CostModel()
        assert model.estimate("a b*") > model.estimate("a b b b")
        assert model.compare("a + b", "(a + b)*") == -1

    def test_cached_labels_are_cheap(self):
        model = CostModel().with_cached({"l"})
        assert model.estimate("l a") < model.estimate("m a")

    def test_longer_queries_cost_more(self):
        model = CostModel()
        assert model.estimate("a b c") > model.estimate("a b")

    def test_trivial_expressions_are_free(self):
        model = CostModel()
        assert model.estimate("%") == 0.0
        assert model.estimate("~") == 0.0

    def test_compare_equal(self):
        model = CostModel()
        assert model.compare("a b", "b a") == 0


class TestCaches:
    def cached_ab_star_instance(self):
        instance = Instance([("o", "a", "x"), ("x", "b", "o"), ("x", "c", "z")])
        return materialize_cache(instance, "o", "(a b)*", "l")

    def test_materialize_cache_establishes_the_equality(self):
        cached_instance, record = self.cached_ab_star_instance()
        assert satisfies(cached_instance, "o", record.constraint())
        assert record.answer_count == len(answer_set("(a b)*", "o", cached_instance))

    def test_cache_does_not_modify_original(self):
        instance = Instance([("o", "a", "x"), ("x", "b", "o")])
        materialize_cache(instance, "o", "(a b)*", "l")
        assert "l" not in instance.labels()

    def test_query_cache_collects_constraints(self):
        instance = Instance([("o", "a", "x"), ("x", "b", "o"), ("o", "c", "y")])
        cache = QueryCache("o")
        instance, _ = cache.install(instance, "(a b)*", "l1")
        instance, _ = cache.install(instance, "c", "l2")
        constraints = cache.constraints()
        assert len(constraints) == 2
        assert satisfies_all(instance, "o", constraints)
        assert cache.labels() == frozenset({"l1", "l2"})
        assert "l1" in cache.describe()

    def test_install_mirror(self):
        instance = Instance([("root", "main", "home"), ("home", "page", "p")])
        mirrored, constraints = install_mirror(instance, "root", "main", "mirror")
        assert satisfies_all(mirrored, "root", constraints)
        assert answer_set("mirror page", "root", mirrored) == answer_set(
            "main page", "root", mirrored
        )


class TestRewriter:
    def test_example2_star_collapse_via_boundedness(self):
        constraints = ConstraintSet([word_equality("l l", "l")])
        outcome = rewrite_query("l*", constraints)
        assert outcome.improved
        assert equivalent(regex_to_nfa(outcome.best), regex_to_nfa(parse("% + l")))

    def test_example3_cached_query(self):
        constraints = ConstraintSet([path_equality("l", "(a b)*")])
        outcome = rewrite_query(
            "a (b a)* c", constraints, CostModel().with_cached({"l"})
        )
        assert outcome.improved
        assert to_string(outcome.best) == "l a c"
        # The adopted rewrite names its origin and the equality it used.
        assert outcome.adopted.query == outcome.best
        assert outcome.adopted.origin == "cached-decomposition via l = (a b)*"
        assert outcome.adopted.premises == constraints.constraints

    def test_prefix_substitution_with_word_equality(self):
        constraints = ConstraintSet([word_equality("a b", "s")])
        outcome = rewrite_query("a b c d", constraints)
        assert to_string(outcome.best) == "s c d"

    def test_no_rewrite_without_helpful_constraints(self):
        constraints = ConstraintSet([word_equality("x", "y")])
        outcome = rewrite_query("a b*", constraints)
        assert not outcome.improved
        assert outcome.best == outcome.original

    def test_unsound_candidates_are_rejected(self):
        # An inclusion (not equality) must not be used as an equivalence rewrite.
        from repro.constraints import word_inclusion

        constraints = ConstraintSet([word_inclusion("a", "b")])
        outcome = rewrite_query("a c", constraints)
        assert outcome.best == outcome.original

    def test_candidates_listed_with_costs(self):
        constraints = ConstraintSet([word_equality("l l", "l")])
        outcome = rewrite_query("l*", constraints)
        assert any("original" == c.origin for c in outcome.candidates)
        assert all(c.cost >= 0 for c in outcome.candidates)
        assert "=>" in outcome.summary()


class TestPlanner:
    def test_plan_reports_savings_on_cached_site(self):
        instance = Instance(
            [("o", "a", "x"), ("x", "b", "o"), ("x", "c", "z"), ("o", "c", "w")]
        )
        cached_instance, record = materialize_cache(instance, "o", "(a b)*", "l")
        constraints = ConstraintSet([record.constraint()])
        report = plan_and_evaluate(
            "a (b a)* c",
            "o",
            cached_instance,
            constraints,
            CostModel().with_cached({"l"}),
            measure_distributed=True,
        )
        assert report.rewrite.improved
        assert report.answers == answer_set("a (b a)* c", "o", cached_instance)
        assert report.optimized_visited_pairs <= report.original_visited_pairs
        assert report.message_savings is not None
        assert "messages" in report.summary()

    def test_plan_on_mirror_site(self):
        instance, root = mirror_site_graph(2, 2)
        constraints = ConstraintSet([path_equality("main", "mirror")])
        report = plan_and_evaluate("main section0 page0", root, instance, constraints)
        assert report.answers == {"page_0_0"}

    def test_unchanged_plan_still_evaluates(self):
        instance = Instance([("o", "a", "x")])
        constraints = ConstraintSet([word_equality("z", "z")])
        report = plan_and_evaluate("a", "o", instance, constraints)
        assert report.answers == {"x"}
        assert not report.rewrite.improved
