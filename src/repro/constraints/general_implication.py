"""Implication of general path constraints (Theorem 4.2).

The paper proves that implication of arbitrary regular path constraints is
decidable: if ``E ⊭ p ⊆ q`` then a counterexample instance exists whose size
is doubly exponential in the input, so exhaustive search over instances up to
that size decides the problem in 2-EXPSPACE.  That search is far beyond any
practical budget, so this module exposes a *three-tier* procedure that is
sound in both directions and complete on the important special cases:

1. **Language reasoning** (no constraints needed): ``L(p) ⊆ L(q)`` already
   implies the constraint.
2. **Word-constraint case** (complete): when every premise is a word
   constraint, the PTIME/PSPACE procedures of Section 4.2 decide the
   question exactly; refutations come with a concrete counterexample
   instance built by the Lemma 4.4 construction.
3. **General case** (sound but incomplete within bounds):
   a. a *prefix-substitution prover* — the sound inference "if ``p' ⊆ q'`` is
      a premise then ``p'·s ⊆ q'·s`` for every suffix expression ``s``",
      closed under transitivity and language inclusion, searched
      bidirectionally from both sides of the goal;
   b. a *counterexample search* over small instances (word-path candidates,
      their foldings, and random graphs), each candidate being verified with
      the brute-force semantics before being reported.

Every result records which tier settled it; when no tier does, the verdict is
``UNKNOWN`` — the honest outcome for a 2-EXPSPACE-complete problem attacked
with bounded resources.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum

from ..automata import includes, regex_to_nfa
from ..graph.instance import Instance, Oid
from ..regex import Concat, Epsilon, Regex, concat, parse, simplify
from ..regex.language import enumerate_words
from .constraint import (
    ConstraintSet,
    PathConstraint,
    PathEquality,
    PathInclusion,
)
from .path_by_word import implies_path_inclusion
from .satisfaction import is_counterexample
from .witness import counterexample_instance_for_word_refutation


class Verdict(Enum):
    """Outcome of the general implication procedure."""

    IMPLIED = "implied"
    NOT_IMPLIED = "not-implied"
    UNKNOWN = "unknown"


@dataclass
class ImplicationResult:
    """Verdict plus provenance and (for refutations) a checked counterexample."""

    verdict: Verdict
    method: str
    counterexample: tuple[Instance, Oid] | None = None
    notes: str = ""

    @property
    def implied(self) -> bool:
        return self.verdict is Verdict.IMPLIED


@dataclass
class SearchBudget:
    """Resource bounds for the tier-3 procedures."""

    substitution_depth: int = 3
    substitution_width: int = 200
    word_enumeration_length: int = 6
    random_instances: int = 300
    max_random_vertices: int = 5
    seed: int = 0


def _coerce(expression: "Regex | str") -> Regex:
    return simplify(expression if isinstance(expression, Regex) else parse(expression))


def decide_implication(
    constraints: ConstraintSet,
    conclusion: "PathConstraint | str",
    budget: SearchBudget | None = None,
) -> ImplicationResult:
    """Decide (or bound) ``E ⊨ conclusion`` for general path constraints."""
    if isinstance(conclusion, str):
        from .constraint import parse_constraint

        conclusion = parse_constraint(conclusion)
    budget = budget or SearchBudget()

    if isinstance(conclusion, PathEquality):
        forward = decide_implication(
            constraints, PathInclusion(conclusion.lhs, conclusion.rhs), budget
        )
        if forward.verdict is not Verdict.IMPLIED:
            return forward
        if (
            constraints.is_word_equality_set()
            and _coerce(conclusion.lhs).as_word() is not None
            and _coerce(conclusion.rhs).as_word() is not None
        ):
            # Every premise is an equality, so →E holds each rule in both
            # directions and is symmetric: u →E* v gives v →E* u (Lemma 4.4).
            return ImplicationResult(
                Verdict.IMPLIED, method=f"{forward.method}+symmetry"
            )
        backward = decide_implication(
            constraints, PathInclusion(conclusion.rhs, conclusion.lhs), budget
        )
        if backward.verdict is Verdict.IMPLIED:
            return ImplicationResult(
                Verdict.IMPLIED, method=f"{forward.method}+{backward.method}"
            )
        return backward

    if not isinstance(conclusion, PathInclusion):
        raise TypeError(f"unknown constraint type: {conclusion!r}")

    lhs = _coerce(conclusion.lhs)
    rhs = _coerce(conclusion.rhs)

    # Tier 1: plain language inclusion (constraint-free reasoning).
    if includes(regex_to_nfa(rhs), regex_to_nfa(lhs)):
        return ImplicationResult(Verdict.IMPLIED, method="language-inclusion")

    # Tier 2: the complete word-constraint procedures of Section 4.2.
    if constraints.is_word_constraint_set():
        outcome = implies_path_inclusion(constraints, lhs, rhs)
        if outcome.implied:
            return ImplicationResult(Verdict.IMPLIED, method="word-constraints-pspace")
        witness_word = outcome.counterexample_word or ()
        instance, source = counterexample_instance_for_word_refutation(
            constraints, witness_word, rhs.alphabet() | lhs.alphabet()
        )
        conclusion_constraint = PathInclusion(lhs, rhs)
        if is_counterexample(instance, source, constraints, conclusion_constraint):
            return ImplicationResult(
                Verdict.NOT_IMPLIED,
                method="word-constraints-pspace",
                counterexample=(instance, source),
                notes=f"refuting word: {' '.join(witness_word) or 'ε'}",
            )
        # The decision itself is complete even if the constructed witness
        # failed re-validation (which would indicate a bound chosen too small);
        # report the refutation without a counterexample rather than lie.
        return ImplicationResult(
            Verdict.NOT_IMPLIED,
            method="word-constraints-pspace",
            notes=f"refuting word: {' '.join(witness_word) or 'ε'}",
        )

    # Tier 3a: sound prefix-substitution prover.
    if _substitution_prover(constraints, lhs, rhs, budget):
        return ImplicationResult(Verdict.IMPLIED, method="prefix-substitution")

    # Tier 3b: bounded counterexample search.
    counterexample = _search_counterexample(
        constraints, PathInclusion(lhs, rhs), budget
    )
    if counterexample is not None:
        return ImplicationResult(
            Verdict.NOT_IMPLIED,
            method="counterexample-search",
            counterexample=counterexample,
        )

    return ImplicationResult(
        Verdict.UNKNOWN,
        method="bounded-search-exhausted",
        notes=(
            "neither a proof nor a counterexample was found within the budget; "
            "the general problem is decidable only in 2-EXPSPACE (Theorem 4.2)"
        ),
    )


# ---------------------------------------------------------------------------
# Tier 3a: prefix-substitution prover.
# ---------------------------------------------------------------------------

def _factors(expression: Regex) -> list[Regex]:
    """Flatten a concatenation into its factor list."""
    if isinstance(expression, Concat):
        return _factors(expression.left) + _factors(expression.right)
    return [expression]


def _prefix_splits(expression: Regex) -> list[tuple[Regex, Regex]]:
    """All splits ``expression = prefix · suffix`` along concatenation factors."""
    factors = _factors(expression)
    splits: list[tuple[Regex, Regex]] = []
    for index in range(len(factors) + 1):
        prefix: Regex = Epsilon()
        for factor in factors[:index]:
            prefix = concat(prefix, factor)
        suffix: Regex = Epsilon()
        for factor in factors[index:]:
            suffix = concat(suffix, factor)
        splits.append((simplify(prefix), simplify(suffix)))
    return splits


def _language_equal(first: Regex, second: Regex) -> bool:
    first_nfa = regex_to_nfa(first)
    second_nfa = regex_to_nfa(second)
    return includes(first_nfa, second_nfa) and includes(second_nfa, first_nfa)


def _substitution_successors(
    expression: Regex, rules: list[tuple[Regex, Regex]]
) -> set[Regex]:
    """One sound rewriting step: replace a prefix matching a premise's lhs."""
    successors: set[Regex] = set()
    for prefix, suffix in _prefix_splits(expression):
        for rule_lhs, rule_rhs in rules:
            if _language_equal(prefix, rule_lhs):
                successors.add(simplify(concat(rule_rhs, suffix)))
    return successors


def _substitution_prover(
    constraints: ConstraintSet, lhs: Regex, rhs: Regex, budget: SearchBudget
) -> bool:
    """Bidirectional search: ``lhs ⊆ ... ⊆ rhs`` via prefix substitutions.

    Forward steps use premises ``a ⊆ b`` as ``a·s → b·s`` (sound because path
    inclusions are closed under right concatenation); backward steps from the
    goal use them in the opposite direction.  Success when some forward
    expression is language-included in some backward expression.
    """
    forward_rules = [(inc.lhs, inc.rhs) for inc in constraints.inclusions]
    backward_rules = [(inc.rhs, inc.lhs) for inc in constraints.inclusions]

    forward: set[Regex] = {simplify(lhs)}
    backward: set[Regex] = {simplify(rhs)}

    def closes() -> bool:
        for candidate in forward:
            candidate_nfa = regex_to_nfa(candidate)
            for target in backward:
                if includes(regex_to_nfa(target), candidate_nfa):
                    return True
        return False

    if closes():
        return True

    forward_frontier = deque(forward)
    backward_frontier = deque(backward)
    for _ in range(budget.substitution_depth):
        next_forward: deque[Regex] = deque()
        while forward_frontier and len(forward) < budget.substitution_width:
            expression = forward_frontier.popleft()
            for successor in _substitution_successors(expression, forward_rules):
                if successor not in forward:
                    forward.add(successor)
                    next_forward.append(successor)
        next_backward: deque[Regex] = deque()
        while backward_frontier and len(backward) < budget.substitution_width:
            expression = backward_frontier.popleft()
            for successor in _substitution_successors(expression, backward_rules):
                if successor not in backward:
                    backward.add(successor)
                    next_backward.append(successor)
        if closes():
            return True
        if not next_forward and not next_backward:
            break
        forward_frontier = next_forward
        backward_frontier = next_backward
    return False


# ---------------------------------------------------------------------------
# Tier 3b: bounded counterexample search.
# ---------------------------------------------------------------------------

def _path_instance(word: tuple[str, ...]) -> tuple[Instance, Oid]:
    instance = Instance()
    instance.add_object(0)
    for index, label in enumerate(word):
        instance.add_edge(index, label, index + 1)
    return instance, 0


def _folded_path_instances(word: tuple[str, ...]) -> list[tuple[Instance, Oid]]:
    """Path instances with the last vertex folded onto an earlier one.

    Folding creates cycles and vertex sharing, which is how instances satisfy
    non-trivial premises (e.g. cached-query equalities) while still violating
    a conclusion.
    """
    candidates: list[tuple[Instance, Oid]] = []
    length = len(word)
    for target in range(length):
        instance = Instance()
        instance.add_object(0)
        for index, label in enumerate(word):
            destination = target if index == length - 1 else index + 1
            instance.add_edge(index, label, destination)
        candidates.append((instance, 0))
    return candidates


def _random_instance(
    rng: random.Random, alphabet: list[str], max_vertices: int
) -> tuple[Instance, Oid]:
    vertex_count = rng.randint(1, max_vertices)
    instance = Instance()
    for vertex in range(vertex_count):
        instance.add_object(vertex)
    edge_count = rng.randint(vertex_count - 1, max(vertex_count * 2, vertex_count))
    for _ in range(edge_count):
        instance.add_edge(
            rng.randrange(vertex_count),
            rng.choice(alphabet),
            rng.randrange(vertex_count),
        )
    return instance, 0


def _search_counterexample(
    constraints: ConstraintSet,
    conclusion: PathInclusion,
    budget: SearchBudget,
) -> tuple[Instance, Oid] | None:
    alphabet = sorted(
        set(constraints.alphabet())
        | set(conclusion.lhs.alphabet())
        | set(conclusion.rhs.alphabet())
    )
    if not alphabet:
        return None

    candidates: list[tuple[Instance, Oid]] = []
    for word in enumerate_words(conclusion.lhs, budget.word_enumeration_length):
        candidates.append(_path_instance(word))
        candidates.extend(_folded_path_instances(word))

    rng = random.Random(budget.seed)
    for _ in range(budget.random_instances):
        candidates.append(_random_instance(rng, alphabet, budget.max_random_vertices))

    for instance, source in candidates:
        if is_counterexample(instance, source, constraints, conclusion):
            return instance, source
    return None
