"""PSPACE implication of path constraints by word constraints (Theorem 4.3(ii)).

Lemma 4.6 shows that when ``E`` consists of word constraints, ``E ⊨ p ⊆ q``
holds iff every word of ``L(p)`` rewrites (via →E) into some word of ``L(q)``,
i.e. iff ``L(p) ⊆ RewriteTo(q)``.  Lemma 4.7 provides a polynomial NFA for
``RewriteTo(q)``; the remaining inclusion test between two NFAs is the
PSPACE-complete part (the paper notes that regular-expression equivalence is
already PSPACE-complete without any constraints, so this is optimal).

Two equivalent routes are implemented and cross-checked in tests:

* the direct on-the-fly inclusion test ``L(p) ⊆ L(RewriteTo(q))``;
* the paper's formulation via equivalence: build ``F_{p+q}`` for
  ``L(p) ∪ RewriteTo(q)`` and test ``L(F_q) = L(F_{p+q})``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata import (
    NFA,
    equivalent,
    inclusion_counterexample,
    regex_to_nfa,
    union_nfa,
)
from ..regex import Regex, parse
from .constraint import ConstraintSet, PathConstraint, PathEquality, PathInclusion
from .rewrite_to import rewrite_to_language_nfa


@dataclass(frozen=True)
class PathByWordResult:
    """Outcome of a path-by-word implication test.

    ``counterexample_word`` is a word of ``L(p)`` that does not rewrite into
    ``L(q)`` — by Lemma 4.6 its existence refutes the implication, and the
    witness construction of Lemma 4.4 can turn it into a concrete instance.
    """

    implied: bool
    counterexample_word: tuple[str, ...] | None = None


def _coerce(expression: "Regex | str") -> Regex:
    return expression if isinstance(expression, Regex) else parse(expression)


def rewrite_target_nfa(constraints: ConstraintSet, rhs: "Regex | str") -> NFA:
    """The ``RewriteTo(q)`` automaton used by the inclusion test (Lemma 4.7).

    Raises :class:`~repro.exceptions.ConstraintError` unless ``constraints``
    is a set of word constraints.
    """
    return rewrite_to_language_nfa(constraints.prepared.system, _coerce(rhs))


def implies_path_inclusion(
    constraints: ConstraintSet, lhs: "Regex | str", rhs: "Regex | str"
) -> PathByWordResult:
    """Decide ``E ⊨ lhs ⊆ rhs`` for word-constraint ``E`` (PSPACE)."""
    lhs_expr = _coerce(lhs)
    container = rewrite_target_nfa(constraints, rhs)
    contained = regex_to_nfa(lhs_expr)
    alphabet = set(container.alphabet) | set(contained.alphabet) | set(
        constraints.alphabet()
    )
    witness = inclusion_counterexample(container, contained, alphabet)
    if witness is None:
        return PathByWordResult(implied=True)
    return PathByWordResult(implied=False, counterexample_word=witness)


def implies_path_equality(
    constraints: ConstraintSet, lhs: "Regex | str", rhs: "Regex | str"
) -> PathByWordResult:
    """Decide ``E ⊨ lhs = rhs`` for word-constraint ``E``."""
    forward = implies_path_inclusion(constraints, lhs, rhs)
    if not forward.implied:
        return forward
    backward = implies_path_inclusion(constraints, rhs, lhs)
    if not backward.implied:
        return backward
    return PathByWordResult(implied=True)


def implies_path_constraint(
    constraints: ConstraintSet, conclusion: PathConstraint
) -> PathByWordResult:
    """Dispatch on the conclusion's kind (inclusion vs equality)."""
    if isinstance(conclusion, PathEquality):
        return implies_path_equality(constraints, conclusion.lhs, conclusion.rhs)
    if isinstance(conclusion, PathInclusion):
        return implies_path_inclusion(constraints, conclusion.lhs, conclusion.rhs)
    raise TypeError(f"unknown constraint type: {conclusion!r}")


def implies_path_inclusion_via_union(
    constraints: ConstraintSet, lhs: "Regex | str", rhs: "Regex | str"
) -> bool:
    """The paper's alternative formulation of the same test.

    ``E ⊨ p ⊆ q`` iff ``L(p) ⊆ RewriteTo(q)`` iff
    ``L(RewriteTo(q)) = L(p) ∪ RewriteTo(q)``.  Exists mainly so tests can
    cross-check the primary on-the-fly inclusion implementation.
    """
    lhs_nfa = regex_to_nfa(_coerce(lhs))
    rewrite_nfa = rewrite_target_nfa(constraints, rhs)
    combined = union_nfa(lhs_nfa, rewrite_nfa)
    return equivalent(rewrite_nfa, combined)
