"""The ranking rewriter against a prove-everything reference.

``rewrite_query`` ranks the generated candidates and adopts the cheapest one
when it is strictly cheaper than the query, without proving anything.  The
reference below is the search it replaced — generate every candidate by
automaton equivalence with nothing prepared, prove every distinct one, take
the minimum by cost — kept here as the oracle: both must generate the same
raw candidates and pick the same rewrite.
"""

import pytest
from _strategies import regexes, word_constraint_sets
from hypothesis import given, strategies as st

import repro.automata
from repro.automata import (
    concat_nfa,
    difference_nfa,
    equivalent,
    is_empty,
    left_quotient_by_language_nfa,
    nfa_to_regex,
    regex_to_nfa,
    star_nfa,
)
from repro.constraints import (
    ConstraintSet,
    PathEquality,
    decide_implication,
    path_equality,
    word_equality,
)
from repro.optimize import CostModel, rewrite_query, rewriter
from repro.optimize.cost import DEFAULT_COST_MODEL
from repro.regex import Concat, EmptySet, Star, Symbol, Union, parse, simplify, to_string
from repro.regex.ast import concat, union_all
from repro.workloads import cs_department_site


# ---------------------------------------------------------------------------
# The reference: every side re-compiled per split, every candidate proved.
# ---------------------------------------------------------------------------
def reference_raw_candidates(expression, constraints):
    equalities = [c for c in constraints if isinstance(c, PathEquality)]
    directions = [
        (equality, one, other)
        for equality in equalities
        for one, other in ((equality.lhs, equality.rhs), (equality.rhs, equality.lhs))
    ]
    raw = []

    factors = rewriter._factors(expression)
    for split in range(1, len(factors) + 1):
        prefix = simplify(rewriter.concat_all(factors[:split]))
        suffix = simplify(rewriter.concat_all(factors[split:]))
        for equality, one, other in directions:
            if equivalent(regex_to_nfa(prefix), regex_to_nfa(one)):
                raw.append(
                    (simplify(concat(other, suffix)), f"prefix-substitution via {equality}")
                )

    alphabet = sorted(expression.alphabet() | constraints.alphabet())
    if alphabet:
        expression_nfa = regex_to_nfa(expression)
        sigma_star = star_nfa(regex_to_nfa(union_all([Symbol(a) for a in alphabet])))
        for equality, cached, replacement in directions:
            cached_nfa = regex_to_nfa(cached)
            quotient = left_quotient_by_language_nfa(expression_nfa, cached_nfa)
            if is_empty(quotient):
                continue
            remainders = [quotient]
            if isinstance(simplify(cached), Star):
                stripped = difference_nfa(
                    quotient, concat_nfa(regex_to_nfa(simplify(cached).inner), sigma_star)
                )
                if not is_empty(stripped):
                    remainders.insert(0, stripped)
            for remainder in remainders:
                if equivalent(concat_nfa(cached_nfa, remainder), expression_nfa):
                    rest = simplify(nfa_to_regex(remainder))
                    raw.append(
                        (
                            simplify(concat(replacement, rest)),
                            f"cached-decomposition via {equality}",
                        )
                    )
                    break

    raw.extend(
        (candidate, origin)
        for candidate, origin, _premises in rewriter._boundedness_candidate(
            expression, constraints
        )
    )
    return raw


def reference_rewrite(query, constraints, cost_model=DEFAULT_COST_MODEL):
    """``(best, best_cost, improved)`` by proving every distinct candidate."""
    expression = simplify(query if not isinstance(query, str) else parse(query))
    original_cost = cost_model.estimate(expression)
    proved = [(original_cost, expression)]
    seen = {to_string(expression)}
    for candidate, _origin in reference_raw_candidates(expression, constraints):
        key = to_string(candidate)
        if key in seen:
            continue
        seen.add(key)
        if decide_implication(constraints, PathEquality(expression, candidate)).implied:
            proved.append((cost_model.estimate(candidate), candidate))
    best_cost, best = min(proved, key=lambda entry: entry[0])
    return best, best_cost, best_cost < original_cost


def new_raw_candidates(expression, constraints):
    return [
        *rewriter._prefix_substitution_candidates(expression, constraints),
        *rewriter._cached_decomposition_candidates(expression, constraints),
        *rewriter._boundedness_candidate(expression, constraints),
    ]


def printed(raw):
    return [(to_string(query), origin) for query, origin, *_premises in raw]


def assert_same_rewrite(query, constraints, cost_model=DEFAULT_COST_MODEL):
    expression = simplify(query if not isinstance(query, str) else parse(query))
    assert printed(new_raw_candidates(expression, constraints)) == printed(
        reference_raw_candidates(expression, constraints)
    )
    outcome = rewrite_query(query, constraints, cost_model)
    best, best_cost, improved = reference_rewrite(query, constraints, cost_model)
    assert (outcome.best, outcome.best_cost, outcome.improved) == (best, best_cost, improved)
    assert [c.origin for c in outcome.candidates][:1] == ["original"]
    assert outcome.candidates[1:] == ([outcome.adopted] if improved else [])
    if improved:
        assert outcome.adopted.premises
        assert set(outcome.adopted.premises) <= set(constraints)
    return outcome


# ---------------------------------------------------------------------------
# (a) the workload's 114 texts, and drawn word-equality sets.
# ---------------------------------------------------------------------------
SITE = (2, 3, 3)


def site_rewrite_cold_texts(site):
    """The text shapes of the ``site-rewrite-cold`` benchmark workload."""
    _groups, per_group, per_faculty = SITE
    courses = site.course_ids
    texts = []
    for number, name in enumerate(site.faculty_names):
        group = "DB-group" if number < per_group else f"group-{number // per_group}"
        first = number * per_faculty
        own = courses[first:first + per_faculty]
        through = f"CS-Department {group} {name}"
        texts.append(f"CS-Department ({group} + Faculty) {name} (Classes + Publications)")
        texts.append(f"CS-Department ({group} + Faculty) {name} Publications")
        texts.append(f"{through} (Classes + Publications)")
        texts.extend(f"{through} Classes {course}" for course in own)
        texts.append(f"{through} Classes ({' + '.join(own)})")
        for left in range(per_faculty):
            for right in range(left + 1, per_faculty):
                texts.append(f"{through} Classes ({own[left]} + {own[right]})")
        for offset in range(per_faculty, per_faculty + 9):
            other = courses[(first + offset) % len(courses)]
            texts.append(f"{through} Classes {other}")
    return texts


def test_agrees_with_prove_everything_on_the_site_workload():
    site = cs_department_site(*SITE, seed=0)
    texts = site_rewrite_cold_texts(site)
    assert len(texts) == 114
    improved = sum(assert_same_rewrite(text, site.constraints).improved for text in texts)
    # The workload's shape: 18 texts have a cheaper equivalent.
    assert improved == 18


@st.composite
def equalities_with_queries(draw):
    """A small word-equality set and a query; half the queries start with a
    constraint side, so that a substitution applies.  Words stay short: the
    boundedness candidate of a starred query builds a sphere exponential in
    their length."""
    constraints = draw(
        word_constraint_sets(
            equalities=True, allow_epsilon_rhs=False, max_constraints=2, max_word_length=2
        )
    )
    query = draw(regexes(alphabet=("a", "b"), max_leaves=4))
    if draw(st.booleans()):
        sides = [side for equality in constraints for side in (equality.lhs, equality.rhs)]
        query = concat(draw(st.sampled_from(sides)), query)
    return constraints, query


@given(equalities_with_queries())
def test_agrees_with_prove_everything_on_drawn_word_equalities(drawn):
    constraints, query = drawn
    assert_same_rewrite(query, constraints)


# ---------------------------------------------------------------------------
# (b) ranking: which candidate is adopted, with no prover in the loop.
# ---------------------------------------------------------------------------
def scripted_search(monkeypatch, candidates):
    """Run ``rewrite_query("a b c d")`` (cost 4) over a fixed candidate list."""
    premise = word_equality("x", "y")
    monkeypatch.setattr(
        rewriter,
        "_prefix_substitution_candidates",
        lambda expression, constraints: [
            (parse(text), f"scripted {number}", (premise,))
            for number, text in enumerate(candidates)
        ],
    )
    monkeypatch.setattr(rewriter, "_cached_decomposition_candidates", lambda e, c: [])
    monkeypatch.setattr(rewriter, "_boundedness_candidate", lambda e, c: [])
    return rewrite_query("a b c d", ConstraintSet([premise]))


def test_a_candidate_no_cheaper_than_the_query_is_never_adopted(monkeypatch):
    # a c d e costs as much as the query, a b c d e more; the duplicate and
    # the query itself are not counted.
    outcome = scripted_search(monkeypatch, ["a c d e", "a b c d e", "a c d e", "a b c d"])
    assert not outcome.improved and outcome.best == outcome.original
    assert outcome.adopted is None
    assert [c.origin for c in outcome.candidates] == ["original"]
    assert outcome.generated == 2


def test_the_cheapest_candidate_wins_and_ties_go_to_generation_order(monkeypatch):
    # Costs: a b c 3, c d 2, a b 2, b c 2, a c d e 4.
    outcome = scripted_search(monkeypatch, ["a b c", "c d", "a b", "b c", "a c d e"])
    assert outcome.improved
    assert to_string(outcome.best) == "c d" and outcome.best_cost == 2.0
    assert [to_string(c.query) for c in outcome.candidates] == ["a b c d", "c d"]
    assert outcome.adopted.origin == "scripted 1"
    assert outcome.adopted.premises == (word_equality("x", "y"),)
    assert outcome.generated == 5


# ---------------------------------------------------------------------------
# (c) the prepared view follows the constraint set.
# ---------------------------------------------------------------------------
def test_add_after_a_rewrite_is_seen_by_the_next_rewrite():
    constraints = ConstraintSet([word_equality("x", "y")])
    assert not rewrite_query("a b c", constraints).improved
    constraints.add(word_equality("a b", "d"))
    outcome = rewrite_query("a b c", constraints)
    assert outcome.improved and to_string(outcome.best) == "d c"


# ---------------------------------------------------------------------------
# (d) constraints and prefixes that are not plain words.
# ---------------------------------------------------------------------------
def count_equivalence_tests(monkeypatch):
    calls = []

    def counting(first, second, alphabet=None):
        calls.append(1)
        return equivalent(first, second, alphabet)

    monkeypatch.setattr(repro.automata, "equivalent", counting)
    return calls


def test_example3_goes_through_the_automaton_path(monkeypatch):
    calls = count_equivalence_tests(monkeypatch)
    constraints = ConstraintSet([path_equality("l", "(a b)*")])
    outcome = assert_same_rewrite("a (b a)* c", constraints, CostModel().with_cached({"l"}))
    assert to_string(outcome.best) == "l a c"
    assert calls


def test_non_word_prefix_denoting_one_word_matches_a_word_side(monkeypatch):
    calls = count_equivalence_tests(monkeypatch)
    constraints = ConstraintSet([word_equality("a b", "s"), word_equality("a c", "t")])
    # (a + ∅) b denotes the single word a b, but not syntactically.
    prefix = Concat(Union(Symbol("a"), EmptySet()), Symbol("b"))
    assert prefix.as_word() is None
    sides = rewriter._sides_denoting(prefix, constraints)
    assert [side.word for side in sides] == [("a", "b")]
    # Word sides are decided by one walk of the prefix automaton, never by an
    # equivalence test.
    assert calls == []


def test_word_prefix_matches_a_non_word_side_denoting_it():
    odd_side = Concat(Union(Symbol("a"), EmptySet()), Symbol("b"))
    constraints = ConstraintSet([PathEquality(odd_side, Symbol("l"))])
    assert not constraints.is_word_constraint_set()
    outcome = assert_same_rewrite("a b c", constraints)
    assert to_string(outcome.best) == "l c"


@pytest.mark.parametrize("query", ["a b c", "(a + b) c", "a b (c + d)*"])
def test_mixed_word_and_path_sides_keep_constraint_order(query):
    constraints = ConstraintSet(
        [
            path_equality("(a + b)", "u"),
            word_equality("a b", "s"),
            path_equality("a b", "(s + s s*)"),
            word_equality("a", "v"),
        ]
    )
    assert_same_rewrite(query, constraints)
