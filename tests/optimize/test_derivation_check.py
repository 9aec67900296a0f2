"""The rewriter's derivation check against the implication procedure.

``rewrite_query`` adopts a candidate without calling ``decide_implication``
when one prefix step ``w·S → w'·S`` of →E reaches it from the query
(``rewriter._prefix_derivations``): ``w`` is spelled by leading factors of
the query and ``w = w'`` is an equality of the set, so the step is the proof
by right-congruence.  The prover stays the oracle here: every derivation the
check accepts must be ``IMPLIED``, and candidates that break one of the
check's side conditions — a wrong suffix, a premise that is only an
inclusion, a side that matches only by language — must not be accepted.
"""

import pytest
from _strategies import regexes, word_constraint_sets
from hypothesis import given, strategies as st
from test_rewriter_differential import SITE, equalities_with_queries, site_rewrite_cold_texts

from repro.constraints import (
    ConstraintSet,
    PathEquality,
    decide_implication,
    word_equality,
    word_inclusion,
)
from repro.optimize import rewrite_query, rewriter
from repro.regex import Concat, EmptySet, Symbol, Union, parse, simplify, to_string
from repro.regex.ast import concat, star, word
from repro.workloads import cs_department_site


def accepted(query, constraints):
    """The printed candidates the check accepts for ``query``."""
    expression = simplify(parse(query) if isinstance(query, str) else query)
    return rewriter._prefix_derivations(expression, constraints)


def assert_accepted_are_implied(query, constraints):
    expression = simplify(query)
    derived = rewriter._prefix_derivations(expression, constraints)
    generated = {
        to_string(candidate)
        for candidate, _origin in rewriter._prefix_substitution_candidates(
            expression, constraints
        )
    }
    for printed, evidence in derived.items():
        assert evidence.method == "prefix-rewrite" and evidence.implied
        assert evidence.notes in {str(equality) for equality in constraints}
        # The check re-derives a candidate prefix substitution emits ...
        assert printed in generated
        # ... and the prover agrees with it.
        verdict = decide_implication(constraints, PathEquality(expression, parse(printed)))
        assert verdict.implied, (to_string(expression), printed, evidence.notes)
    return derived


@given(equalities_with_queries())
def test_accepted_derivations_are_implied(drawn):
    constraints, query = drawn
    assert_accepted_are_implied(query, constraints)


@st.composite
def equalities_with_word_prefixed_queries(draw):
    """A word-equality set and a query ``side · v · r*``: a constraint side,
    a possibly empty word and a starred tail, so the query is never a word
    and the check has a leading run of factors to read."""
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
def test_accepted_derivations_of_word_prefixed_queries_are_implied(drawn):
    constraints, query = drawn
    assert query.as_word() is None
    assert_accepted_are_implied(query, constraints)


# ---------------------------------------------------------------------------
# Mutations the check must refuse.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "query, mutant",
    [
        ("a b c", "d"),  # suffix dropped
        ("a b c", "d c c"),  # suffix lengthened
        ("a b c", "d b c"),  # the replaced prefix kept in the suffix
        ("a b c", "c d"),  # replacement moved behind the suffix
        ("a b a b", "a b d"),  # substituted off the prefix (left congruence)
        ("a b (a + c)*", "d a*"),  # starred suffix changed
    ],
)
def test_a_wrong_suffix_is_not_accepted(query, mutant):
    constraints = ConstraintSet([word_equality("a b", "d")])
    assert mutant not in accepted(query, constraints)
    # The mutants are really wrong, so the prover refuses them too.
    assert not decide_implication(constraints, PathEquality(parse(query), parse(mutant))).implied


def test_the_right_suffix_is_accepted():
    constraints = ConstraintSet([word_equality("a b", "d")])
    assert set(accepted("a b c", constraints)) == {"d c"}
    assert set(accepted("a b a b", constraints)) == {"d a b"}
    assert set(accepted("a b (a + c)*", constraints)) == {"d (a + c)*"}
    assert accepted("a b c", constraints)["d c"].notes == "a b = d"


def test_an_inclusion_premise_is_not_accepted():
    one_way = ConstraintSet([word_inclusion("a b", "d")])
    assert accepted("a b c", one_way) == {}
    assert not decide_implication(one_way, PathEquality(parse("a b c"), parse("d c"))).implied
    # Both inclusions together mean the equality, yet neither is an equality
    # of the set: the check still refuses, and only the prover may accept.
    both_ways = ConstraintSet([word_inclusion("a b", "d"), word_inclusion("d", "a b")])
    assert accepted("a b c", both_ways) == {}
    assert decide_implication(both_ways, PathEquality(parse("a b c"), parse("d c"))).implied


def count_prover_calls(monkeypatch):
    calls = []

    def counting(constraints, conclusion, budget=None):
        calls.append(to_string(conclusion.rhs))
        return decide_implication(constraints, conclusion, budget)

    monkeypatch.setattr(rewriter, "decide_implication", counting)
    return calls


def test_a_non_word_side_matched_by_language_goes_to_the_prover(monkeypatch):
    calls = count_prover_calls(monkeypatch)
    # (a + ∅) b denotes the word a b, but is not one: prefix substitution
    # matches it by language, the check does not.
    odd_side = Concat(Union(Symbol("a"), EmptySet()), Symbol("b"))
    constraints = ConstraintSet([PathEquality(odd_side, Symbol("l"))])
    assert accepted("a b c", constraints) == {}
    outcome = rewrite_query("a b c", constraints)
    assert to_string(outcome.best) == "l c"
    assert calls == ["l c"]
    assert outcome.proved_by not in ("", "prefix-rewrite")


def test_a_word_side_not_aligned_with_factors_goes_to_the_prover(monkeypatch):
    calls = count_prover_calls(monkeypatch)
    # Every word of a (b c + b d) starts with a b, so a cached decomposition
    # substitutes it, but no leading run of factors spells a b.
    constraints = ConstraintSet([word_equality("a b", "e")])
    query = "a (b c + b d)"
    assert accepted(query, constraints) == {}
    outcome = rewrite_query(query, constraints)
    assert outcome.improved and to_string(outcome.best) == "e (c + d)"
    assert calls == ["e (c + d)"]
    assert outcome.proved_by not in ("", "prefix-rewrite")


# ---------------------------------------------------------------------------
# The workload: every adoption is a checked derivation.
# ---------------------------------------------------------------------------
def test_the_site_workload_never_calls_the_prover(monkeypatch):
    calls = count_prover_calls(monkeypatch)
    site = cs_department_site(*SITE, seed=0)
    outcomes = [
        rewrite_query(text, site.constraints) for text in site_rewrite_cold_texts(site)
    ]
    assert calls == []
    improved = [outcome for outcome in outcomes if outcome.improved]
    proofs = sum(outcome.proofs_attempted for outcome in outcomes)
    assert (len(improved), proofs) == (18, 18)
    assert {outcome.proved_by for outcome in improved} == {"prefix-rewrite"}
    assert {outcome.proved_by for outcome in outcomes if not outcome.improved} == {""}
