"""The prefix rewrite system →E of Section 4.2.

Every word inclusion ``u ⊆ v`` in a constraint set ``E`` contributes the
rewrite rule ``u → v``.  The rewrite relation ``z →E t`` holds when there is a
finite sequence ``z = w1, ..., wn = t`` such that each step replaces a
*prefix*: ``wi = x·w`` and ``wi+1 = y·w`` for some rule ``x → y``.  The paper
proves (Lemma 4.4) that →E is sound and complete for implication of word
constraints: ``E ⊨ u ⊆ v`` iff ``u →E* v``.

The class below holds the rules and offers a *brute-force* breadth-first
exploration of the rewrite relation, used as the ground-truth oracle in tests
and to extract explicit derivations (step-by-step rewriting sequences) for
explanation purposes.  The efficient decision procedure lives in
:mod:`repro.constraints.rewrite_to` (the pre*-saturation automaton).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..exceptions import ConstraintError
from .constraint import ConstraintSet, Word


@dataclass(frozen=True, slots=True)
class RewriteRule:
    """A single prefix rewrite rule ``lhs → rhs``."""

    lhs: Word
    rhs: Word

    def __str__(self) -> str:
        left = " ".join(self.lhs) if self.lhs else "%"
        right = " ".join(self.rhs) if self.rhs else "%"
        return f"{left} -> {right}"


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """One step of a derivation: which rule fired and what it produced."""

    before: Word
    rule: RewriteRule
    after: Word


class PrefixRewriteSystem:
    """A finite set of prefix rewrite rules with exploration utilities."""

    def __init__(self, rules: Iterable[RewriteRule] = ()) -> None:
        self._rules: list[RewriteRule] = list(dict.fromkeys(rules))

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_constraints(cls, constraints: ConstraintSet) -> "PrefixRewriteSystem":
        """Build the system from a set of *word* constraints.

        Each word inclusion ``u ⊆ v`` becomes the rule ``u → v``; equalities
        contribute rules in both directions (they normalize to two inclusions).
        """
        if not constraints.is_word_constraint_set():
            raise ConstraintError(
                "the prefix rewrite system is defined only for word constraints; "
                "use repro.constraints.general_implication for general path constraints"
            )
        rules = [RewriteRule(lhs, rhs) for lhs, rhs in constraints.word_inclusion_pairs()]
        return cls(rules)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Word, Word]]) -> "PrefixRewriteSystem":
        return cls(RewriteRule(tuple(lhs), tuple(rhs)) for lhs, rhs in pairs)

    # -- basic accessors --------------------------------------------------------
    @property
    def rules(self) -> tuple[RewriteRule, ...]:
        return tuple(self._rules)

    def symmetric_closure(self) -> "PrefixRewriteSystem":
        """Rules plus their inverses: the relation ↔E used for word equalities."""
        extended = list(self._rules)
        for rule in self._rules:
            extended.append(RewriteRule(rule.rhs, rule.lhs))
        return PrefixRewriteSystem(extended)

    def alphabet(self) -> frozenset[str]:
        labels: set[str] = set()
        for rule in self._rules:
            labels.update(rule.lhs)
            labels.update(rule.rhs)
        return frozenset(labels)

    def max_side_length(self) -> int:
        """The paper's ``M``: the maximum length of a word occurring in a rule."""
        return max(
            (max(len(rule.lhs), len(rule.rhs)) for rule in self._rules), default=0
        )

    def __len__(self) -> int:
        return len(self._rules)

    def __str__(self) -> str:
        return "{" + ", ".join(str(rule) for rule in self._rules) + "}"

    # -- one-step rewriting ------------------------------------------------------
    def successors(self, word: Word) -> Iterator[tuple[RewriteRule, Word]]:
        """Yield all one-step prefix rewrites of ``word``."""
        for rule in self._rules:
            k = len(rule.lhs)
            if word[:k] == rule.lhs:
                yield rule, rule.rhs + word[k:]

    # -- brute-force exploration (test oracle) ------------------------------------
    def rewrites_to(
        self,
        start: Word,
        goal: Word,
        max_steps: int = 10_000,
        max_word_length: int | None = None,
    ) -> bool:
        """Breadth-first search: does ``start →E* goal``?

        ``max_steps`` bounds the number of *distinct words expanded* and
        ``max_word_length`` optionally prunes words longer than the bound;
        the search is therefore only a semi-decision in general, but it is
        exact whenever it terminates within the bounds without pruning — the
        tests use it on small inputs where the reachable set is tiny.
        """
        return self.find_derivation(start, goal, max_steps, max_word_length) is not None

    def find_derivation(
        self,
        start: Word,
        goal: Word,
        max_steps: int = 10_000,
        max_word_length: int | None = None,
    ) -> list[RewriteStep] | None:
        """Return an explicit derivation ``start →E ... →E goal`` or ``None``."""
        start = tuple(start)
        goal = tuple(goal)
        if start == goal:
            return []
        parents: dict[Word, tuple[Word, RewriteRule]] = {}
        queue: deque[Word] = deque([start])
        seen = {start}
        expanded = 0
        while queue and expanded < max_steps:
            current = queue.popleft()
            expanded += 1
            for rule, successor in self.successors(current):
                if max_word_length is not None and len(successor) > max_word_length:
                    continue
                if successor in seen:
                    continue
                seen.add(successor)
                parents[successor] = (current, rule)
                if successor == goal:
                    return _reconstruct(parents, start, goal)
                queue.append(successor)
        return None

    def reachable_words(
        self, start: Word, max_words: int = 10_000, max_word_length: int | None = None
    ) -> set[Word]:
        """The set of words reachable from ``start`` (bounded exploration)."""
        start = tuple(start)
        seen = {start}
        queue: deque[Word] = deque([start])
        while queue and len(seen) < max_words:
            current = queue.popleft()
            for _, successor in self.successors(current):
                if max_word_length is not None and len(successor) > max_word_length:
                    continue
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
        return seen


def _reconstruct(
    parents: dict[Word, tuple[Word, RewriteRule]], start: Word, goal: Word
) -> list[RewriteStep]:
    steps: list[RewriteStep] = []
    current = goal
    while current != start:
        previous, rule = parents[current]
        steps.append(RewriteStep(previous, rule, current))
        current = previous
    steps.reverse()
    return steps
