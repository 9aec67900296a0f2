"""Tests for constraint syntax, normalization and satisfaction checking."""

import pytest

from repro.constraints import (
    ConstraintSet,
    PathEquality,
    PathInclusion,
    is_counterexample,
    parse_constraint,
    path_equality,
    path_inclusion,
    satisfies,
    satisfies_all,
    violated_constraints,
    word_equality,
    word_inclusion,
)
from repro.exceptions import ConstraintError
from repro.graph import Instance
from repro.regex import parse


class TestConstraintSyntax:
    def test_word_inclusion_construction(self):
        constraint = word_inclusion("a b", "c")
        assert constraint.is_word_constraint()
        assert constraint.word_sides() == (("a", "b"), ("c",))

    def test_word_equality_construction(self):
        constraint = word_equality(["a"], [])
        assert constraint.is_word_constraint()
        assert constraint.word_sides() == (("a",), ())

    def test_path_constraint_is_not_word(self):
        constraint = path_inclusion("a b*", "c")
        assert not constraint.is_word_constraint()
        with pytest.raises(ConstraintError):
            constraint.word_sides()

    def test_parse_constraint_inclusion_and_equality(self):
        inclusion = parse_constraint("a b <= c d")
        assert isinstance(inclusion, PathInclusion)
        equality = parse_constraint("a (b + c)* = d e")
        assert isinstance(equality, PathEquality)
        with pytest.raises(ConstraintError):
            parse_constraint("a b c")

    def test_str_representations(self):
        assert "<=" in str(word_inclusion("a", "b"))
        assert "=" in str(word_equality("a", "b"))

    def test_alphabet(self):
        constraint = path_equality("a b*", "c")
        assert constraint.alphabet() == frozenset({"a", "b", "c"})


class TestConstraintSet:
    def test_equalities_split_into_two_inclusions(self):
        constraints = ConstraintSet([word_equality("a", "b")])
        sides = {(inc.lhs.as_word(), inc.rhs.as_word()) for inc in constraints.inclusions}
        assert (("a",), ("b",)) in sides
        assert (("b",), ("a",)) in sides

    def test_epsilon_convention(self):
        # u <= ε automatically brings ε <= u along (Section 4.2 convention).
        constraints = ConstraintSet([word_inclusion("a b", "")])
        sides = {(inc.lhs.as_word(), inc.rhs.as_word()) for inc in constraints.inclusions}
        assert ((), ("a", "b")) in sides

    def test_classification(self):
        words_only = ConstraintSet([word_inclusion("a", "b"), word_equality("c", "d")])
        assert words_only.is_word_constraint_set()
        assert not words_only.is_word_equality_set()
        equalities_only = ConstraintSet([word_equality("a", "b")])
        assert equalities_only.is_word_equality_set()
        mixed = ConstraintSet([word_inclusion("a", "b"), path_inclusion("a*", "b")])
        assert not mixed.is_word_constraint_set()

    def test_parse_strings_directly(self):
        constraints = ConstraintSet(["a b <= c", "d = e"])
        assert len(constraints) == 2

    def test_max_word_length_and_alphabet(self):
        constraints = ConstraintSet([word_inclusion("a b c", "d"), word_equality("e", "f")])
        assert constraints.max_word_length() == 3
        assert constraints.alphabet() == frozenset("abcdef")

    def test_duplicate_inclusions_deduplicated(self):
        constraints = ConstraintSet([word_inclusion("a", "b"), word_inclusion("a", "b")])
        assert len(constraints.inclusions) == 1

    def test_invalid_member_rejected(self):
        with pytest.raises(ConstraintError):
            ConstraintSet([42])  # type: ignore[list-item]


class TestPreparedView:
    def test_built_once_and_dropped_by_add(self):
        constraints = ConstraintSet([word_equality("a b", "c")])
        prepared = constraints.prepared
        assert constraints.prepared is prepared
        assert prepared.system is constraints.prepared.system
        assert prepared.is_word_equality_set and prepared.alphabet == frozenset("abc")

        constraints.add(word_inclusion("d", "a"))
        assert constraints.prepared is not prepared
        assert constraints.is_word_constraint_set()
        assert not constraints.is_word_equality_set()
        assert constraints.alphabet() == frozenset("abcd")
        assert len(constraints.prepared.system) == 3

        constraints.add(path_inclusion("a*", "b"))
        assert not constraints.is_word_constraint_set()
        with pytest.raises(ConstraintError):
            constraints.prepared.system

    def test_implication_sees_a_constraint_added_later(self):
        from repro.constraints import decide_implication, implies_word_inclusion

        constraints = ConstraintSet([word_inclusion("a", "b")])
        assert not implies_word_inclusion(constraints, ("a",), ("c",))
        assert not decide_implication(constraints, "a d <= c d").implied
        constraints.add(word_inclusion("b", "c"))
        assert implies_word_inclusion(constraints, ("a",), ("c",))
        assert decide_implication(constraints, "a d <= c d").implied

    def test_equality_sides_in_constraint_order(self):
        constraints = ConstraintSet(
            [word_equality("a b", "c"), word_inclusion("x", "y"), path_equality("l", "(a b)*")]
        )
        sides = constraints.prepared.equality_sides
        assert [side.index for side in sides] == [0, 1, 2, 3]
        assert [side.word for side in sides] == [("a", "b"), ("c",), ("l",), None]
        assert [side.other.as_word() for side in sides] == [("c",), ("a", "b"), None, ("l",)]
        assert [side.star_body_nfa is not None for side in sides] == [False, False, False, True]
        assert all(side.nfa.accepts(side.word) for side in sides if side.word is not None)
        assert constraints.prepared.sides_by_word[("c",)] == (sides[1],)
        assert constraints.prepared.non_word_sides == (sides[3],)


class TestSatisfaction:
    def test_inclusion_satisfaction(self, figure2):
        instance, source = figure2
        # a b* reaches {o2, o3}; a (b)* b reaches {o2, o3} as well.
        assert satisfies(instance, source, path_inclusion("a b", "a b*"))
        assert not satisfies(instance, source, path_inclusion("a b*", "a b"))

    def test_equality_satisfaction(self, figure2):
        instance, source = figure2
        assert satisfies(instance, source, path_equality("a b b", "a"))
        assert not satisfies(instance, source, path_equality("a b", "a"))

    def test_satisfies_all_and_violations(self, figure2):
        instance, source = figure2
        constraints = ConstraintSet(
            [path_inclusion("a b", "a b*"), path_equality("a b b", "a")]
        )
        assert satisfies_all(instance, source, constraints)
        bad = ConstraintSet([path_equality("a", "a b")])
        assert violated_constraints(instance, source, bad) == list(bad)

    def test_counterexample_check(self):
        # Instance: a single a-edge.  It satisfies {a <= a} trivially but
        # violates a <= b, so it is a counterexample to {a <= a} |= a <= b.
        instance = Instance([("o", "a", "x")])
        premises = ConstraintSet([word_inclusion("a", "a")])
        assert is_counterexample(instance, "o", premises, word_inclusion("a", "b"))
        assert not is_counterexample(instance, "o", premises, word_inclusion("a", "a"))

    def test_cache_constraint_satisfaction(self):
        # Materialized cache edges make the equality hold by construction.
        instance = Instance([("o", "a", "x"), ("x", "b", "o")])
        for target in ("o",):
            instance.add_edge("o", "l", target)
        constraint = path_equality(parse("(a b)*"), parse("l + %"))
        assert satisfies(instance, "o", constraint)
