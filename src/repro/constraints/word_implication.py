"""PTIME implication of word constraints (Theorem 4.3(i)).

By Lemma 4.4 the prefix rewrite system →E is sound and complete for
implication of word constraints: ``E ⊨ u ⊆ v`` iff ``u →E* v``.  By Lemma 4.5
membership in ``RewriteTo(v)`` is decidable in polynomial time via the
saturated automaton.  Put together, this module decides

* ``E ⊨ u ⊆ v``      (:func:`implies_word_inclusion`)
* ``E ⊨ u = v``      (:func:`implies_word_equality`)

and can additionally return an explicit rewriting derivation as a
human-readable explanation (:func:`explain_word_inclusion`).
"""

from __future__ import annotations

from functools import lru_cache

from .constraint import ConstraintSet, Word
from .rewrite_system import PrefixRewriteSystem, RewriteStep
from .rewrite_to import rewrite_to_word_nfa


def implies_word_inclusion(
    constraints: ConstraintSet, lhs: Word, rhs: Word
) -> bool:
    """Decide ``E ⊨ lhs ⊆ rhs`` in polynomial time."""
    automaton = rewrite_to_word_nfa(constraints.prepared.system, tuple(rhs))
    return automaton.accepts(tuple(lhs))


def implies_word_equality(constraints: ConstraintSet, lhs: Word, rhs: Word) -> bool:
    """Decide ``E ⊨ lhs = rhs`` (both inclusions)."""
    return implies_word_inclusion(constraints, lhs, rhs) and implies_word_inclusion(
        constraints, rhs, lhs
    )


def explain_word_inclusion(
    constraints: ConstraintSet,
    lhs: Word,
    rhs: Word,
    max_steps: int = 50_000,
    max_word_length: int | None = None,
) -> list[RewriteStep] | None:
    """Return an explicit derivation ``lhs →E ... →E rhs`` when implied.

    The derivation search is breadth-first over the rewrite relation and is
    therefore not polynomial in the worst case, but the *decision* is made by
    the polynomial automaton test first: if the inclusion is not implied the
    function returns ``None`` immediately without searching.  When the
    inclusion is implied, a derivation is guaranteed to exist; the bounds are
    a practical safety valve and, when hit, the function returns an empty
    list to signal "implied, derivation too long to materialize".
    """
    if not implies_word_inclusion(constraints, lhs, rhs):
        return None
    system = constraints.prepared.system
    if max_word_length is None:
        # A generous default: derivations never need words much longer than
        # the start/goal plus the largest right-hand side.
        max_word_length = max(len(lhs), len(rhs)) + system.max_side_length() * 4 + 4
    derivation = system.find_derivation(
        tuple(lhs), tuple(rhs), max_steps=max_steps, max_word_length=max_word_length
    )
    if derivation is None:
        return []
    return derivation


class WordImplicationOracle:
    """Amortized interface: one constraint set, many word-implication queries.

    The saturated ``RewriteTo(v)`` automaton depends only on ``E`` and ``v``,
    so the oracle keeps one per right-hand side it has been asked about, on
    top of the rewrite system ``E`` has already prepared
    (:attr:`ConstraintSet.prepared`).  It is a library convenience for callers
    that probe many *word* pairs against one ``E``.  The query rewriter does
    not use it: it accepts a candidate one prefix step of →E away from the
    query by checking that step, and proves any other candidate, a *path*
    equality, with :func:`repro.constraints.decide_implication`.  The oracle reads
    ``constraints`` as they were when it was built.
    """

    def __init__(self, constraints: ConstraintSet) -> None:
        self._system = constraints.prepared.system
        self._automaton_for = lru_cache(maxsize=None)(self._build_automaton)

    def _build_automaton(self, rhs: Word):
        return rewrite_to_word_nfa(self._system, rhs)

    def implies_inclusion(self, lhs: Word, rhs: Word) -> bool:
        return self._automaton_for(tuple(rhs)).accepts(tuple(lhs))

    def implies_equality(self, lhs: Word, rhs: Word) -> bool:
        return self.implies_inclusion(lhs, rhs) and self.implies_inclusion(rhs, lhs)

    @property
    def system(self) -> PrefixRewriteSystem:
        return self._system
