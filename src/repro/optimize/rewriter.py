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
2. rank the distinct candidates with the cost model and drop every one that
   is not strictly cheaper than the original (the original wins ties, so
   such a candidate could never be returned);
3. *prove* the remaining candidates equivalent to the original under the
   constraints, cheapest first, and stop at the first proof: every candidate
   after it costs at least as much.  A candidate that one prefix step
   ``w·S → w'·S`` of →E reaches — ``w`` spelled by leading factors of the
   query, ``w = w'`` an equality of the set — is *checked*: that step is its
   proof (right-congruence; Lemma 4.4's soundness of →E), re-derived from the
   constraints rather than taken from the generator.  Every other candidate
   is *proved* by the tiered general procedure, or the complete
   word-constraint procedures when applicable.

Most constraint sides are plain words (Section 4's word constraints), and a
word side ``u`` needs no automaton construction: one walk of ``u`` through the
query's Thompson automaton, restricted to its co-reachable states, decides
whether every word of the query starts with ``u`` (a cached decomposition
exists) or the query denotes exactly ``u`` (a prefix substitution applies),
and the state set it ends in is the remainder's start.  The walks of all sides
share their prefixes' steps, and a query that is itself a word needs no walk
for its decompositions, only a comparison of words.  Sides that are not words
(the starred cached expressions of Example 3) are decided by quotient and
automaton equivalence.  When every constraint is a word equality and the query
and a candidate that is not one checked step are both words, the proof is one
inclusion: →E then holds each rule in both directions, so ``u →E* v`` gives
``v →E* u`` (Lemma 4.4) and the converse saturation is not run.

Every returned rewrite therefore comes with the evidence used to justify it,
and a candidate that cannot win is never proved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..automata import EPSILON, NFA
from ..constraints.boundedness import decide_boundedness
from ..constraints.constraint import ConstraintSet, EqualitySide, PathEquality
from ..constraints.general_implication import (
    ImplicationResult,
    SearchBudget,
    Verdict,
    decide_implication,
)
from ..regex import Regex, parse, simplify, to_string
from ..regex.ast import Concat, concat
from .cost import DEFAULT_COST_MODEL, CostModel


@dataclass
class RewriteCandidate:
    """A candidate rewriting with its provenance and estimated cost."""

    query: Regex
    origin: str
    cost: float
    evidence: ImplicationResult | None = None

    def __str__(self) -> str:
        return f"{to_string(self.query)}  [{self.origin}, cost={self.cost:.2f}]"


@dataclass
class RewriteOutcome:
    """Result of optimizing one query under one constraint set.

    ``candidates`` is the original plus every candidate that was *proved*
    equivalent to it — at most one, the adopted rewrite, since proving stops
    at the first success and candidates that cannot win are not proved.  Its
    evidence is either a checked one-step derivation (method
    ``"prefix-rewrite"``, the equality used in ``notes``) or the implication
    procedure's ``IMPLIED`` verdict; :attr:`proved_by` names which.  The three
    counters say what the search cost: ``generated`` distinct candidates (the
    original excluded), of which ``skipped_by_cost`` were no cheaper than the
    original and ``proofs_attempted`` were checked or proved.
    ``generate_ms`` is the wall time spent generating and ranking candidates,
    ``prove_ms`` the time spent checking and proving them.
    """

    original: Regex
    best: Regex
    original_cost: float
    best_cost: float
    improved: bool
    candidates: list[RewriteCandidate] = field(default_factory=list)
    generated: int = 0
    proofs_attempted: int = 0
    skipped_by_cost: int = 0
    generate_ms: float = 0.0
    prove_ms: float = 0.0

    @property
    def proved_by(self) -> str:
        """The adopted rewrite's evidence method, ``""`` when none was adopted."""
        return self.candidates[-1].evidence.method if self.improved else ""

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
) -> list[tuple[Regex, str]]:
    """Rewrites obtained by replacing a prefix that matches one constraint side.

    Only *equality* constraints generate candidates here: substituting via a
    bare inclusion would change the answer set in one direction, which is not
    an equivalence-preserving rewrite (the implication check would reject it
    anyway; skipping it avoids wasted work).
    """
    candidates: list[tuple[Regex, str]] = []
    factors = _factors(expression)
    for split in range(1, len(factors) + 1):
        prefix = simplify(concat_all(factors[:split]))
        suffix = simplify(concat_all(factors[split:]))
        for side in _sides_denoting(prefix, constraints):
            rewritten = simplify(concat(side.other, suffix))
            candidates.append(
                (rewritten, f"prefix-substitution via {side.equality}")
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
) -> list[tuple[Regex, str]]:
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

    candidates: list[tuple[Regex, str]] = []
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
                candidates.append((rewritten, f"cached-decomposition via {side.equality}"))
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
        candidates.append((rewritten, f"cached-decomposition via {side.equality}"))
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


def _prefix_derivations(
    expression: Regex, constraints: ConstraintSet
) -> dict[str, ImplicationResult]:
    """The queries one prefix step ``w·S → w'·S`` of →E reaches from
    ``expression``, printed, each with its evidence.

    ``w`` is spelled by a leading run of the query's factors and ``w = w'``
    is an equality of the set, so ``E ⊨ w·S = w'·S`` by right-congruence
    (Lemma 4.4's soundness of →E): the step is itself the proof.  Read off
    the constraints, not off the generators, so a candidate is only ever
    accepted for a derivation that exists.
    """
    sides_by_word = constraints.prepared.sides_by_word
    factors = _factors(expression)
    derived: dict[str, ImplicationResult] = {}
    prefix: tuple[str, ...] = ()
    for split, factor in enumerate(factors, start=1):
        factor_word = factor.as_word()
        if factor_word is None:
            break
        prefix += factor_word
        sides = sides_by_word.get(prefix, ())
        if not sides:
            continue
        suffix = simplify(concat_all(factors[split:]))
        for side in sides:
            derived.setdefault(
                to_string(simplify(concat(side.other, suffix))),
                ImplicationResult(
                    Verdict.IMPLIED, method="prefix-rewrite", notes=str(side.equality)
                ),
            )
    return derived


def _boundedness_candidate(
    expression: Regex, constraints: ConstraintSet
) -> list[tuple[Regex, str]]:
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
        return [(simplify(result.equivalent_query), "boundedness (Theorem 4.10)")]
    return []


def rewrite_query(
    query: "Regex | str",
    constraints: ConstraintSet,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    budget: SearchBudget | None = None,
) -> RewriteOutcome:
    """Optimize ``query`` under ``constraints``; return the best justified rewrite.

    A candidate is adopted only when it is one prefix step of →E from the
    query (:func:`_prefix_derivations`) or the implication machinery *proves*
    it equivalent to the query under the constraints; ``NOT_IMPLIED`` and
    ``UNKNOWN`` both drop it and the next-cheapest candidate is tried.
    Candidates are proved in order of estimated cost (ties in generation
    order) and only while strictly cheaper than the query itself, so the
    result is the cheapest provable candidate — the same ``best`` a
    prove-everything search would pick — at the price of the proofs up to and
    including the first that succeeds.
    """
    started = time.perf_counter()
    expression = simplify(query if isinstance(query, Regex) else parse(query))
    original_cost = cost_model.estimate(expression)

    raw_candidates: list[tuple[Regex, str]] = []
    raw_candidates.extend(_prefix_substitution_candidates(expression, constraints))
    raw_candidates.extend(_cached_decomposition_candidates(expression, constraints))
    raw_candidates.extend(_boundedness_candidate(expression, constraints))

    original_key = to_string(expression)
    distinct: dict[str, RewriteCandidate] = {}
    for candidate_expression, origin in raw_candidates:
        key = to_string(candidate_expression)
        if key != original_key and key not in distinct:
            distinct[key] = RewriteCandidate(
                candidate_expression, origin, cost_model.estimate(candidate_expression)
            )
    # sorted() is stable: equal costs stay in generation order.
    contenders = sorted(
        (c for c in distinct.values() if c.cost < original_cost),
        key=lambda candidate: candidate.cost,
    )

    outcome = RewriteOutcome(
        original=expression,
        best=expression,
        original_cost=original_cost,
        best_cost=original_cost,
        improved=False,
        candidates=[RewriteCandidate(expression, "original", original_cost)],
        generated=len(distinct),
        skipped_by_cost=len(distinct) - len(contenders),
    )
    proving_started = time.perf_counter()
    outcome.generate_ms = (proving_started - started) * 1e3
    derived = _prefix_derivations(expression, constraints) if contenders else {}
    for candidate in contenders:
        outcome.proofs_attempted += 1
        candidate.evidence = derived.get(to_string(candidate.query)) or decide_implication(
            constraints, PathEquality(expression, candidate.query), budget
        )
        if candidate.evidence.verdict is Verdict.IMPLIED:
            outcome.candidates.append(candidate)
            outcome.best, outcome.best_cost, outcome.improved = (
                candidate.query, candidate.cost, True
            )
            break
    outcome.prove_ms = (time.perf_counter() - proving_started) * 1e3
    return outcome
