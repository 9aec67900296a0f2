"""Generator soundness: every candidate is equivalent to the query under its
premises.

``rewrite_query`` adopts the cheapest generated candidate with no proof
search, so each generator must emit only candidates it has shown equivalent
to the query, and name the constraints that showing used: a prefix
substitution replaces a prefix whose language is exactly one side of an
equality (right-congruence), a cached decomposition ``r·t`` for ``s = r``
needs ``L(query) = L(s)·L(t)`` (Example 3), and the boundedness candidate is
Theorem 4.10's ``E ⊨ p = q``.  The implication procedure is the oracle here.
Asked whether a candidate's premises imply ``query = candidate``, it never
answers ``NOT_IMPLIED``, and it answers ``IMPLIED`` on word-equality sets,
where it is complete.  The premises are a subset of the set, so this is the
stronger form of ``E ⊨ query = candidate``.  Two mutants of the generators
must fail the oracle: a prefix substitution on a side that only *includes*
the prefix's language, and a cached decomposition without the exact
``L(s)·L(t)`` check.
"""

import inspect

import pytest
from _strategies import regexes, word_constraint_sets
from hypothesis import given, strategies as st
from test_rewriter_differential import SITE, equalities_with_queries, site_rewrite_cold_texts

from repro.constraints import (
    ConstraintSet,
    PathEquality,
    Verdict,
    decide_implication,
    path_equality,
    word_equality,
    word_inclusion,
)
from repro.optimize import rewrite_query, rewriter
from repro.regex import Concat, EmptySet, Symbol, Union, parse, simplify, to_string
from repro.regex.ast import concat, star, word
from repro.workloads import cs_department_site


def generated(query, constraints):
    """Every ``(candidate, origin, premises)`` the three generators emit."""
    expression = simplify(parse(query) if isinstance(query, str) else query)
    return expression, [
        *rewriter._prefix_substitution_candidates(expression, constraints),
        *rewriter._cached_decomposition_candidates(expression, constraints),
        *rewriter._boundedness_candidate(expression, constraints),
    ]


def unsound(query, constraints):
    """The generated candidates the oracle does not accept, with its verdict."""
    expression, candidates = generated(query, constraints)
    complete = constraints.is_word_equality_set()
    refused = []
    for candidate, origin, premises in candidates:
        assert premises and set(premises) <= set(constraints), origin
        verdict = decide_implication(
            ConstraintSet(premises), PathEquality(expression, candidate)
        ).verdict
        if verdict is Verdict.NOT_IMPLIED or (complete and verdict is not Verdict.IMPLIED):
            refused.append((to_string(candidate), origin, verdict))
    return refused


def assert_sound(query, constraints):
    assert unsound(query, constraints) == []
    adopted = rewrite_query(query, constraints).adopted
    if adopted is not None:
        assert adopted.premises and set(adopted.premises) <= set(constraints)


@given(equalities_with_queries())
def test_drawn_candidates_are_sound(drawn):
    constraints, query = drawn
    assert_sound(query, constraints)


@st.composite
def equalities_with_word_prefixed_queries(draw):
    """A word-equality set and a query ``side · v · r*``: a constraint side,
    a possibly empty word and a starred tail, so the query is never a word
    and the generators walk a leading run of its factors."""
    constraints = draw(
        word_constraint_sets(
            equalities=True, allow_epsilon_rhs=False, max_constraints=2, max_word_length=2
        )
    )
    sides = [side for equality in constraints for side in (equality.lhs, equality.rhs)]
    middle = draw(st.lists(st.sampled_from(["a", "b"]), max_size=2))
    tail = star(draw(regexes(alphabet=("a", "b"), max_leaves=3)))
    return constraints, concat(concat(draw(st.sampled_from(sides)), word(middle)), tail)


@given(equalities_with_word_prefixed_queries())
def test_word_prefixed_candidates_are_sound(drawn):
    constraints, query = drawn
    assert query.as_word() is None
    assert_sound(query, constraints)


def test_site_candidates_are_sound():
    site = cs_department_site(*SITE, seed=0)
    for text in site_rewrite_cold_texts(site):
        assert_sound(text, site.constraints)


EXAMPLE3 = ConstraintSet([path_equality("l", "(a b)*")])


@pytest.mark.parametrize(
    "query", ["a (b a)* c", "(a b)* c", "a b (a b)* c", "a (b a)* c + d", "a b c + d"]
)
def test_example3_starred_side_candidates_are_sound(query):
    assert_sound(query, EXAMPLE3)


def test_example3_is_a_cached_decomposition_of_its_one_equality():
    _expression, candidates = generated("a (b a)* c", EXAMPLE3)
    assert ("l a c", "cached-decomposition via l = (a b)*", EXAMPLE3.constraints) in [
        (to_string(candidate), origin, premises) for candidate, origin, premises in candidates
    ]


# ---------------------------------------------------------------------------
# Mutants the oracle must catch.
# ---------------------------------------------------------------------------
def mutant(monkeypatch, name, old):
    """Replace ``rewriter.<name>`` by its source with ``old`` cut out."""
    source = inspect.getsource(getattr(rewriter, name))
    assert source.count(old) == 1, "the mutated condition moved"
    namespace = dict(vars(rewriter))
    exec(source.replace(old, ""), namespace)  # noqa: S102 - a test mutant
    monkeypatch.setattr(rewriter, name, namespace[name])


def test_the_oracle_catches_a_substitution_on_an_including_side(monkeypatch):
    # L(a b?) = {a, a b} includes the side a = c but is not its language.
    constraints, query = ConstraintSet([word_equality("a", "c")]), "a b? d"
    assert_sound(query, constraints)
    mutant(
        monkeypatch,
        "_sides_denoting",
        "\n                    and not prefix_nfa.live_labels(final, live)",
    )
    assert unsound(query, constraints) == [
        ("c d", "prefix-substitution via a = c", Verdict.NOT_IMPLIED)
    ]


def test_the_oracle_catches_a_decomposition_without_the_exact_check(monkeypatch):
    # (a b)*⁻¹ L(a b c + d) = {a b c, c, d}, yet L(a b c + d) is not
    # (a b)* · t for any t.
    query = "a b c + d"
    assert_sound(query, EXAMPLE3)
    mutant(
        monkeypatch,
        "_cached_decomposition_candidates",
        "\n                    if nfa_equivalent(concat_nfa(side.nfa, option), expression_nfa)",
    )
    assert unsound(query, EXAMPLE3) == [
        ("l (c + d)", "cached-decomposition via l = (a b)*", Verdict.NOT_IMPLIED)
    ]


# ---------------------------------------------------------------------------
# Candidates that must not be generated at all.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "query, mutant_text",
    [
        ("a b c", "d"),  # suffix dropped
        ("a b c", "d c c"),  # suffix lengthened
        ("a b c", "d b c"),  # the replaced prefix kept in the suffix
        ("a b c", "c d"),  # replacement moved behind the suffix
        ("a b a b", "a b d"),  # substituted off the prefix (left congruence)
        ("a b (a + c)*", "d a*"),  # starred suffix changed
    ],
)
def test_a_wrong_suffix_is_not_generated(query, mutant_text):
    constraints = ConstraintSet([word_equality("a b", "d")])
    _expression, candidates = generated(query, constraints)
    assert mutant_text not in {to_string(candidate) for candidate, _, _ in candidates}
    # The mutants are really wrong: the oracle refuses them.
    assert not decide_implication(
        constraints, PathEquality(parse(query), parse(mutant_text))
    ).implied


def test_the_right_suffix_is_substituted():
    constraints = ConstraintSet([word_equality("a b", "d")])
    for query, expected in [
        ("a b c", "d c"),
        ("a b a b", "d a b"),
        ("a b (a + c)*", "d (a + c)*"),
    ]:
        expression = simplify(parse(query))
        assert [
            (to_string(candidate), premises)
            for candidate, _origin, premises in rewriter._prefix_substitution_candidates(
                expression, constraints
            )
        ] == [(expected, constraints.constraints)]


def test_an_inclusion_premise_generates_nothing():
    one_way = ConstraintSet([word_inclusion("a b", "d")])
    assert generated("a b c", one_way)[1] == []
    assert not decide_implication(one_way, PathEquality(parse("a b c"), parse("d c"))).implied
    # Both inclusions together mean the equality, yet neither is an equality
    # of the set: no candidate names them, though the prover would accept.
    both_ways = ConstraintSet([word_inclusion("a b", "d"), word_inclusion("d", "a b")])
    assert generated("a b c", both_ways)[1] == []
    assert decide_implication(both_ways, PathEquality(parse("a b c"), parse("d c"))).implied


def test_a_non_word_side_matched_by_language_names_its_equality():
    # (a + ∅) b denotes the word a b, but is not one: prefix substitution
    # matches it by language.
    odd = PathEquality(Concat(Union(Symbol("a"), EmptySet()), Symbol("b")), Symbol("l"))
    constraints = ConstraintSet([odd])
    outcome = rewrite_query("a b c", constraints)
    assert to_string(outcome.best) == "l c"
    assert outcome.adopted.origin.startswith("prefix-substitution")
    assert outcome.adopted.premises == (odd,)
    assert_sound("a b c", constraints)


def test_a_word_side_not_aligned_with_factors_is_a_cached_decomposition():
    # Every word of a (b c + b d) starts with a b, but no leading run of
    # factors spells a b: only a cached decomposition substitutes it.
    constraints = ConstraintSet([word_equality("a b", "e")])
    query = "a (b c + b d)"
    outcome = rewrite_query(query, constraints)
    assert outcome.improved and to_string(outcome.best) == "e (c + d)"
    assert outcome.adopted.origin == "cached-decomposition via a b = e"
    assert outcome.adopted.premises == constraints.constraints
    assert_sound(query, constraints)


# ---------------------------------------------------------------------------
# The workload: every adoption names one equality of the set.
# ---------------------------------------------------------------------------
def test_the_site_workload_adopts_one_equality_per_improved_text():
    site = cs_department_site(*SITE, seed=0)
    equalities = set(site.constraints)
    outcomes = [
        rewrite_query(text, site.constraints) for text in site_rewrite_cold_texts(site)
    ]
    adopted = [outcome.adopted for outcome in outcomes if outcome.improved]
    assert (len(outcomes), len(adopted)) == (114, 18)
    for candidate in adopted:
        assert len(candidate.premises) == 1 and candidate.premises[0] in equalities
    assert not hasattr(rewriter, "decide_implication")
