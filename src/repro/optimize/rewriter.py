"""Constraint-aware rewriting of path queries (Section 3.2).

"The query processor at each site may use the path constraints holding at the
site to replace the query to be executed by a simpler query."  The rewriter
below implements that loop:

1. generate candidate rewritings of the input query — prefix substitutions
   using the constraints (sound by right-congruence), recursion elimination
   via the boundedness procedure when the constraints are word equalities,
   and the candidates contributed by cached-query labels — reading the
   constraint sides from the set's prepared view
   (:attr:`repro.constraints.ConstraintSet.prepared`) instead of rebuilding
   their automata per query;
2. rank the distinct candidates with the cost model, ties in generation
   order;
3. adopt the first ranked candidate if it is strictly cheaper than the
   original (the original wins ties).  No proof search runs: each generator
   emits only candidates it has shown equivalent to the query, and each
   candidate names the constraints that showing used, its *premises*.  A
   prefix substitution ``w·S → w'·S`` replaces a prefix whose language is
   exactly one side of an equality ``w = w'`` (right-congruence, Lemma
   4.4's soundness of →E); a cached decomposition ``r·t`` for an equality
   ``s = r`` is emitted only when ``L(query) = L(s)·L(t)`` (Example 3); both
   name that one equality.  The boundedness candidate is Theorem 4.10's
   ``E ⊨ p = q`` and names the whole set.

Most constraint sides are plain words (Section 4's word constraints), and a
word side ``u`` needs no automaton construction: one walk of ``u`` through the
query's Thompson automaton, restricted to its co-reachable states, decides
whether every word of the query starts with ``u`` (a cached decomposition
exists) or the query denotes exactly ``u`` (a prefix substitution applies),
and the state set it ends in is the remainder's start.  The walks of all sides
share their prefixes' steps, and a query that is itself a word needs no walk
for its decompositions, only a comparison of words.  Sides that are not words
(the starred cached expressions of Example 3) are decided by quotient and
automaton equivalence.

The implication procedure of :mod:`repro.constraints` (Theorem 4.2) is not
on this path; the tests hold every generated candidate to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..automata import EPSILON, NFA
from ..constraints.boundedness import decide_boundedness
from ..constraints.constraint import ConstraintSet, EqualitySide, PathConstraint
from ..regex import Regex, parse, simplify, to_string
from ..regex.ast import Concat, concat
from .cost import DEFAULT_COST_MODEL, CostModel

# A generated rewrite: the candidate, its origin and the constraints it used.
_Generated = tuple[Regex, str, tuple[PathConstraint, ...]]


@dataclass
class RewriteCandidate:
    """A candidate rewriting with its provenance, premises and estimated cost.

    ``premises`` are the constraints under which the candidate is equivalent
    to the query: the one equality a prefix substitution or a cached
    decomposition used, the whole set for boundedness.
    """

    query: Regex
    origin: str
    cost: float
    premises: tuple[PathConstraint, ...] = ()

    def __str__(self) -> str:
        return f"{to_string(self.query)}  [{self.origin}, cost={self.cost:.2f}]"


@dataclass
class RewriteOutcome:
    """Result of optimizing one query under one constraint set.

    ``candidates`` is the original plus the adopted rewrite, if any
    (:attr:`adopted`).  ``generated`` counts the distinct candidates, the
    original excluded.
    """

    original: Regex
    best: Regex
    original_cost: float
    best_cost: float
    improved: bool
    candidates: list[RewriteCandidate] = field(default_factory=list)
    generated: int = 0

    @property
    def adopted(self) -> RewriteCandidate | None:
        """The candidate that replaced the query, ``None`` when none did."""
        return self.candidates[-1] if self.improved else None

    def summary(self) -> str:
        arrow = "=>" if self.improved else "(unchanged)"
        return (
            f"{to_string(self.original)} {arrow} {to_string(self.best)} "
            f"[{self.original_cost:.2f} -> {self.best_cost:.2f}]"
        )


def _factors(expression: Regex) -> list[Regex]:
    if isinstance(expression, Concat):
        return _factors(expression.left) + _factors(expression.right)
    return [expression]


def _prefix_substitution_candidates(
    expression: Regex, constraints: ConstraintSet
) -> list[_Generated]:
    """Rewrites obtained by replacing a prefix that denotes one constraint side.

    Only *equality* constraints generate candidates here: substituting via a
    bare inclusion would change the answer set in one direction, which is not
    an equivalence-preserving rewrite.
    """
    candidates: list[_Generated] = []
    factors = _factors(expression)
    for split in range(1, len(factors) + 1):
        prefix = simplify(concat_all(factors[:split]))
        suffix = simplify(concat_all(factors[split:]))
        for side in _sides_denoting(prefix, constraints):
            rewritten = simplify(concat(side.other, suffix))
            candidates.append(
                (rewritten, f"prefix-substitution via {side.equality}", (side.equality,))
            )
    return candidates


def _sides_denoting(prefix: Regex, constraints: ConstraintSet) -> list[EqualitySide]:
    """The equality sides whose language is ``L(prefix)``, in constraint order.

    Two plain words denote the same language iff they are the same word, which
    is a dictionary lookup.  A word side ``w`` denotes the language of a
    prefix that is not a word iff every word of ``L(prefix)`` starts with
    ``w`` (:meth:`~repro.automata.NFA.run_forced`), ``w`` itself is accepted,
    and nothing live leads further.  A side that is not a word is compared by
    automaton equivalence, after a word prefix has been checked to be one of
    its words.
    """
    from ..automata import equivalent as nfa_equivalent, regex_to_nfa

    prepared = constraints.prepared
    prefix_word = prefix.as_word()
    if prefix_word is None:
        matched: list[EqualitySide] = []
        undecided = prepared.equality_sides
    else:
        matched = list(prepared.sides_by_word.get(prefix_word, ()))
        undecided = prepared.non_word_sides
    if undecided:
        prefix_nfa = regex_to_nfa(prefix)
        live = prefix_nfa.coreachable_states()
        after: dict = {}
        for side in undecided:
            if side.word is not None:
                final = prefix_nfa.run_forced(side.word, after, live)
                if (
                    final is not None
                    and not prefix_nfa.accepting.isdisjoint(final)
                    and not prefix_nfa.live_labels(final, live)
                ):
                    matched.append(side)
            elif (
                prefix_word is None or side.nfa.accepts(prefix_word)
            ) and nfa_equivalent(prefix_nfa, side.nfa):
                matched.append(side)
        matched.sort(key=lambda side: side.index)
    return matched


def concat_all(factors: list[Regex]) -> Regex:
    from ..regex.ast import Epsilon

    result: Regex = Epsilon()
    for factor in factors:
        result = concat(result, factor)
    return result


def _cached_decomposition_candidates(
    expression: Regex, constraints: ConstraintSet
) -> list[_Generated]:
    """Rewrites that route a query through a cached/mirrored prefix.

    For an equality ``s = r`` (typically ``s`` a recursive expression and
    ``r`` the cache label, Section 3.2 Example 3), the query can be rewritten
    to ``r · t`` whenever ``L(expression) = L(s) · L(t)``.  Two choices of
    ``t`` are proposed:

    * the full left quotient of the query language by ``L(s)``;
    * when ``s`` is a starred expression ``u*``, the quotient with its leading
      ``u``-repetitions stripped (the minimal remainder), which is what turns
      ``a (b a)* c`` into ``l a c`` in the paper's example.

    When ``s`` is a word there is one choice and no construction to test:
    ``L(expression) = s · t`` for a non-empty ``t`` iff the language is
    non-empty and each of its words starts with ``s``, which one walk of ``s``
    through the query automaton decides (:func:`_word_side_quotient`).  When
    the query is a word ``u`` as well, no automaton is built: ``u`` factors
    through ``s`` iff it starts with ``s``, and ``t`` is the rest of ``u``.
    """
    from ..automata import (
        concat_nfa,
        difference_nfa,
        equivalent as nfa_equivalent,
        is_empty,
        left_quotient_by_language_nfa,
        nfa_to_regex,
        regex_to_nfa,
        star_nfa,
    )
    from ..regex.ast import Symbol, union_all, word

    candidates: list[_Generated] = []
    prepared = constraints.prepared
    alphabet = sorted(expression.alphabet() | prepared.alphabet)
    if not alphabet:
        return candidates
    query_word = expression.as_word()
    if query_word is None or prepared.non_word_sides:
        expression_nfa = regex_to_nfa(expression)
        live = expression_nfa.coreachable_states()
    sigma_star = None  # built when the first starred side needs it
    after: dict = {}

    for side in prepared.equality_sides:
        if side.word is not None and query_word is not None:
            # A word query factors through a word side iff it starts with it,
            # and the remainder is the rest of the word.
            if query_word[: len(side.word)] == side.word:
                rewritten = simplify(concat(side.other, word(query_word[len(side.word):])))
                candidates.append(
                    (rewritten, f"cached-decomposition via {side.equality}", (side.equality,))
                )
            continue
        if side.word is not None:
            remainder = _word_side_quotient(expression_nfa, side.word, after, live)
        else:
            quotient = left_quotient_by_language_nfa(expression_nfa, side.nfa)
            if is_empty(quotient):
                continue
            remainders = [quotient]
            if side.star_body_nfa is not None:
                if sigma_star is None:
                    sigma_star = star_nfa(
                        regex_to_nfa(union_all([Symbol(label) for label in alphabet]))
                    )
                stripped = difference_nfa(
                    quotient, concat_nfa(side.star_body_nfa, sigma_star)
                )
                if not is_empty(stripped):
                    remainders.insert(0, stripped)
            remainder = next(
                (
                    option
                    for option in remainders
                    if nfa_equivalent(concat_nfa(side.nfa, option), expression_nfa)
                ),
                None,
            )
        if remainder is None:
            continue
        remainder_expression = simplify(nfa_to_regex(remainder))
        rewritten = simplify(concat(side.other, remainder_expression))
        candidates.append(
            (rewritten, f"cached-decomposition via {side.equality}", (side.equality,))
        )
    return candidates


def _word_side_quotient(
    expression_nfa: NFA, word: tuple[str, ...], after: dict, live: set
) -> NFA | None:
    """``word⁻¹ L`` when ``L = L(expression_nfa)`` is non-empty and every one of
    its words starts with ``word``, else ``None``.

    ``after`` and ``live`` are :meth:`~repro.automata.NFA.run_forced`'s
    table and co-reachable states.  The automaton is the one
    :func:`~repro.automata.left_quotient_by_language_nfa` builds for the
    one-word language ``{word}``: a copy whose fresh start ε-moves to the
    states ``word`` leads to, so the remainder prints the same.
    """
    start = expression_nfa.run_forced(word, after, live)
    if start is None:
        return None
    quotient = expression_nfa.copy()
    fresh = ("lquot", "start")
    quotient.add_state(fresh)
    quotient.initial = fresh
    for state in start:
        quotient.add_transition(fresh, EPSILON, state)
    return quotient


def _boundedness_candidate(
    expression: Regex, constraints: ConstraintSet
) -> list[_Generated]:
    """Recursion elimination via Theorem 4.10 (word equalities only).

    The boundedness procedure materializes a K-sphere that is exponential in
    the constraint alphabet, so the speculative call made here is capped: if
    the query has no recursion there is nothing to eliminate, and if the
    sphere exceeds the cap the candidate is simply skipped (the rewrite is an
    optimization, not a completeness obligation).
    """
    from ..exceptions import BoundednessError
    from ..regex import is_recursion_free

    if not constraints.is_word_equality_set() or len(constraints) == 0:
        return []
    if is_recursion_free(expression):
        return []
    try:
        result = decide_boundedness(constraints, expression, max_sphere_classes=20_000)
    except BoundednessError:
        return []
    if result.bounded and result.equivalent_query is not None:
        return [
            (
                simplify(result.equivalent_query),
                "boundedness (Theorem 4.10)",
                constraints.constraints,
            )
        ]
    return []


def rewrite_query(
    query: "Regex | str",
    constraints: ConstraintSet,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> RewriteOutcome:
    """Optimize ``query`` under ``constraints``; return the cheapest rewrite.

    Every generated candidate is equivalent to the query under its premises
    (see the module docstring), so the cheapest distinct candidate — ties in
    generation order — is adopted when it is strictly cheaper than the query.
    """
    expression = simplify(query if isinstance(query, Regex) else parse(query))
    original_cost = cost_model.estimate(expression)
    original_key = to_string(expression)
    distinct: dict[str, RewriteCandidate] = {}
    for generate in (
        _prefix_substitution_candidates,
        _cached_decomposition_candidates,
        _boundedness_candidate,
    ):
        for candidate_expression, origin, premises in generate(expression, constraints):
            key = to_string(candidate_expression)
            if key != original_key and key not in distinct:
                distinct[key] = RewriteCandidate(
                    candidate_expression,
                    origin,
                    cost_model.estimate(candidate_expression),
                    premises,
                )

    outcome = RewriteOutcome(
        original=expression,
        best=expression,
        original_cost=original_cost,
        best_cost=original_cost,
        improved=False,
        candidates=[RewriteCandidate(expression, "original", original_cost)],
        generated=len(distinct),
    )
    # min() keeps the first of equal costs: ties go to generation order.
    cheapest = min(distinct.values(), key=lambda candidate: candidate.cost, default=None)
    if cheapest is not None and cheapest.cost < original_cost:
        outcome.candidates.append(cheapest)
        outcome.best, outcome.best_cost, outcome.improved = (
            cheapest.query, cheapest.cost, True
        )
    return outcome
