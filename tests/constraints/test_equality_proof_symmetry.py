"""A word-for-word equality under word equalities is proved in one direction.

When every premise is a word equality, the prefix rewrite system →E holds
each rule in both directions, so ``u →E* v`` iff ``v →E* u`` and
``decide_implication`` stops once the forward inclusion of a word pair is
implied.  The reference below is the two-direction procedure it replaced;
the verdicts, and the refuting word of a refutation, must not change.
"""

from _strategies import word_constraint_sets, words
from hypothesis import given, strategies as st

from repro.constraints import (
    ConstraintSet,
    PathEquality,
    PathInclusion,
    Verdict,
    decide_implication,
    rewrite_to,
    word_equality,
    word_inclusion,
)
from repro.regex import word

ALPHABET = ("a", "b")


def two_direction_reference(constraints, lhs, rhs):
    forward = decide_implication(constraints, PathInclusion(lhs, rhs))
    if forward.verdict is not Verdict.IMPLIED:
        return forward
    return decide_implication(constraints, PathInclusion(rhs, lhs))


@st.composite
def equality_sets_and_word_pairs(draw):
    """A word-equality set and two words; half the pairs are a constraint's
    two sides under a common suffix, so many equalities are implied."""
    constraints = draw(
        word_constraint_sets(
            alphabet=ALPHABET, equalities=True, max_constraints=3, max_word_length=3
        )
    )
    suffix = draw(words(ALPHABET, max_size=2))
    if draw(st.booleans()):
        equality = draw(st.sampled_from(constraints.constraints))
        lhs, rhs = equality.word_sides()
    else:
        lhs, rhs = draw(words(ALPHABET, max_size=3)), draw(words(ALPHABET, max_size=3))
    return constraints, lhs + suffix, rhs + suffix


@given(equality_sets_and_word_pairs())
def test_one_direction_agrees_with_two(drawn):
    constraints, lhs, rhs = drawn
    result = decide_implication(constraints, PathEquality(word(lhs), word(rhs)))
    reference = two_direction_reference(constraints, word(lhs), word(rhs))
    assert result.verdict is reference.verdict
    if result.verdict is Verdict.NOT_IMPLIED:
        assert result.notes == reference.notes  # the same refuting word


def count_saturations(monkeypatch):
    calls = []
    original = rewrite_to.saturate_pre_star

    def spy(system, target):
        calls.append(target)
        return original(system, target)

    monkeypatch.setattr(rewrite_to, "saturate_pre_star", spy)
    return calls


def test_an_implied_word_pair_under_equalities_saturates_once(monkeypatch):
    calls = count_saturations(monkeypatch)
    constraints = ConstraintSet([word_equality("a b", "c"), word_equality("d", "e f")])
    result = decide_implication(constraints, "a b d = c d")
    assert result.verdict is Verdict.IMPLIED
    assert result.method == "word-constraints-pspace+symmetry"
    assert len(calls) == 1


def test_a_bare_word_inclusion_still_takes_both_directions(monkeypatch):
    calls = count_saturations(monkeypatch)
    constraints = ConstraintSet([word_equality("a b", "c"), word_inclusion("x", "y")])
    result = decide_implication(constraints, "a b d = c d")
    assert result.verdict is Verdict.IMPLIED
    assert result.method == "word-constraints-pspace+word-constraints-pspace"
    assert len(calls) == 2


def test_inclusions_are_not_symmetric():
    # x ⊆ y does not give y ⊆ x, and the equality is refuted by the backward
    # direction's word.
    constraints = ConstraintSet([word_inclusion("x", "y")])
    result = decide_implication(constraints, "x = y")
    assert result.verdict is Verdict.NOT_IMPLIED
    assert result.notes == "refuting word: y"


def test_a_path_conclusion_still_takes_both_directions(monkeypatch):
    calls = count_saturations(monkeypatch)
    constraints = ConstraintSet([word_equality("a", "b")])
    result = decide_implication(constraints, "a c* = b c*")
    assert result.verdict is Verdict.IMPLIED
    assert len(calls) == 2
