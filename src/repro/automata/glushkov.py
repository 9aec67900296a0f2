"""Glushkov (position-automaton) construction: regular expression → ε-free NFA.

The Glushkov automaton has exactly ``n + 1`` states for an expression with
``n`` symbol occurrences and no ε-transitions, which makes it convenient for
the distributed evaluator (Section 3.1): the per-site agents ship sets of
position states in their ``subquery`` messages, and the absence of
ε-transitions keeps the per-message bookkeeping simple.

The construction computes the classical ``first``, ``last``, ``follow`` and
``nullable`` functions over *linearized* positions of the expression.  The
engine's lowering (:mod:`repro.engine.compiled_query`) determinizes those
positions directly, as int bitsets, without building the NFA.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..regex.ast import Concat, EmptySet, Epsilon, Regex, Star, Symbol, Union
from .nfa import NFA


@dataclass(frozen=True, slots=True)
class _Positions:
    nullable: bool
    first: frozenset[int]
    last: frozenset[int]


def _analyze(
    expression: Regex,
    labels: dict[int, str],
    follow: dict[int, set[int]],
    counter: list[int],
) -> _Positions:
    if isinstance(expression, EmptySet):
        return _Positions(False, frozenset(), frozenset())
    if isinstance(expression, Epsilon):
        return _Positions(True, frozenset(), frozenset())
    if isinstance(expression, Symbol):
        position = counter[0]
        counter[0] += 1
        labels[position] = expression.label
        follow.setdefault(position, set())
        return _Positions(False, frozenset({position}), frozenset({position}))
    if isinstance(expression, Union):
        left = _analyze(expression.left, labels, follow, counter)
        right = _analyze(expression.right, labels, follow, counter)
        return _Positions(
            left.nullable or right.nullable,
            left.first | right.first,
            left.last | right.last,
        )
    if isinstance(expression, Concat):
        left = _analyze(expression.left, labels, follow, counter)
        right = _analyze(expression.right, labels, follow, counter)
        for position in left.last:
            follow[position] |= right.first
        first = left.first | right.first if left.nullable else left.first
        last = left.last | right.last if right.nullable else right.last
        return _Positions(left.nullable and right.nullable, first, last)
    if isinstance(expression, Star):
        inner = _analyze(expression.inner, labels, follow, counter)
        for position in inner.last:
            follow[position] |= inner.first
        return _Positions(True, inner.first, inner.last)
    raise TypeError(f"unknown regex node: {expression!r}")


def glushkov_positions(
    expression: Regex,
) -> "tuple[dict[int, str], dict[int, set[int]], _Positions]":
    """The position analysis of ``expression``: ``(labels, follow, root)``.

    Positions are numbered from ``1`` in left-to-right order; ``labels`` maps
    each to its symbol, ``follow`` to the positions that may come next, and
    ``root`` holds the whole expression's ``nullable``, ``first`` and
    ``last``.  Position ``0`` is left free for the initial state.
    """
    labels: dict[int, str] = {}
    follow: dict[int, set[int]] = {}
    root = _analyze(expression, labels, follow, [1])
    return labels, follow, root


def regex_to_glushkov_nfa(expression: Regex) -> NFA:
    """Compile an expression into its ε-free Glushkov position automaton.

    State ``0`` is the initial state; state ``i`` (``i ≥ 1``) corresponds to
    the ``i``-th symbol occurrence of the expression (in left-to-right order).
    """
    labels, follow, info = glushkov_positions(expression)

    nfa = NFA(initial=0)
    nfa.add_state(0)
    for position in labels:
        nfa.add_state(position)
    for position in info.first:
        nfa.add_transition(0, labels[position], position)
    for source, successors in follow.items():
        for target in successors:
            nfa.add_transition(source, labels[target], target)
    nfa.accepting = set(info.last)
    if info.nullable:
        nfa.accepting.add(0)
    return nfa
