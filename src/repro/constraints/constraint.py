"""Path constraints (Definition 4.1).

A *path inclusion* ``p ⊆ q`` holds at ``(o, I)`` when ``p(o, I) ⊆ q(o, I)``;
a *path equality* ``p = q`` when the two answer sets coincide.  When both
sides are plain words the constraint is a *word* inclusion/equality — the
special cases for which the paper obtains PTIME/PSPACE procedures.

This module provides the constraint classes, a small textual syntax
(``"p <= q"`` / ``"p = q"``), and :class:`ConstraintSet`, which normalizes a
collection of constraints into inclusions, classifies them (word vs path),
and applies the paper's convention that whenever ``u ⊆ ε`` is present the
converse ``ε ⊆ u`` is added as well (Section 4.2, to avoid "emptiness
constraints").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

from ..exceptions import ConstraintError
from ..regex import Regex, Star, parse, simplify, to_string, word as word_expr

if TYPE_CHECKING:
    from ..automata import NFA
    from .rewrite_system import PrefixRewriteSystem

Word = tuple[str, ...]


@dataclass(frozen=True)
class PathConstraint:
    """Base class for path constraints; ``lhs`` and ``rhs`` are regular expressions."""

    lhs: Regex
    rhs: Regex

    def is_word_constraint(self) -> bool:
        """True iff both sides denote single words (word inclusion/equality)."""
        return self.lhs.as_word() is not None and self.rhs.as_word() is not None

    def word_sides(self) -> tuple[Word, Word]:
        """Return both sides as words; raises if not a word constraint."""
        lhs = self.lhs.as_word()
        rhs = self.rhs.as_word()
        if lhs is None or rhs is None:
            raise ConstraintError(f"{self} is not a word constraint")
        return lhs, rhs

    def alphabet(self) -> frozenset[str]:
        return self.lhs.alphabet() | self.rhs.alphabet()


@dataclass(frozen=True)
class PathInclusion(PathConstraint):
    """The constraint ``lhs ⊆ rhs``."""

    def __str__(self) -> str:
        return f"{to_string(self.lhs)} <= {to_string(self.rhs)}"

    def inclusions(self) -> tuple["PathInclusion", ...]:
        return (self,)


@dataclass(frozen=True)
class PathEquality(PathConstraint):
    """The constraint ``lhs = rhs`` (equivalent to the two inclusions)."""

    def __str__(self) -> str:
        return f"{to_string(self.lhs)} = {to_string(self.rhs)}"

    def inclusions(self) -> tuple[PathInclusion, ...]:
        return (
            PathInclusion(self.lhs, self.rhs),
            PathInclusion(self.rhs, self.lhs),
        )


def word_inclusion(lhs: "str | Word | list[str]", rhs: "str | Word | list[str]") -> PathInclusion:
    """Build a word inclusion from label sequences or space-separated strings."""
    return PathInclusion(word_expr(lhs), word_expr(rhs))


def word_equality(lhs: "str | Word | list[str]", rhs: "str | Word | list[str]") -> PathEquality:
    """Build a word equality from label sequences or space-separated strings."""
    return PathEquality(word_expr(lhs), word_expr(rhs))


def path_inclusion(lhs: "Regex | str", rhs: "Regex | str") -> PathInclusion:
    """Build a path inclusion; string arguments are parsed as path expressions."""
    return PathInclusion(_coerce(lhs), _coerce(rhs))


def path_equality(lhs: "Regex | str", rhs: "Regex | str") -> PathEquality:
    """Build a path equality; string arguments are parsed as path expressions."""
    return PathEquality(_coerce(lhs), _coerce(rhs))


def parse_constraint(text: str) -> PathConstraint:
    """Parse ``"p <= q"`` (inclusion) or ``"p = q"`` (equality).

    The inclusion separator also accepts the Unicode ``⊆``.
    """
    for separator, kind in (("<=", "inclusion"), ("⊆", "inclusion"), ("=", "equality")):
        if separator in text:
            left, _, right = text.partition(separator)
            lhs = parse(left)
            rhs = parse(right)
            if kind == "inclusion":
                return PathInclusion(lhs, rhs)
            return PathEquality(lhs, rhs)
    raise ConstraintError(f"constraint must contain '<=' or '=': {text!r}")


def _coerce(value: "Regex | str") -> Regex:
    return value if isinstance(value, Regex) else parse(value)


class ConstraintSet:
    """A finite set ``E`` of path constraints.

    The class is the entry point for the implication machinery: it normalizes
    equalities into pairs of inclusions, detects the word-constraint special
    case, exposes the alphabet and the maximum word length ``M`` used by the
    K-sphere bound of Lemma 4.9, and applies the ε convention of Section 4.2.
    """

    def __init__(self, constraints: Iterable["PathConstraint | str"] = ()) -> None:
        self._constraints: list[PathConstraint] = []
        for constraint in constraints:
            self.add(constraint)

    def add(self, constraint: "PathConstraint | str") -> None:
        if isinstance(constraint, str):
            constraint = parse_constraint(constraint)
        if not isinstance(constraint, PathConstraint):
            raise ConstraintError(f"not a constraint: {constraint!r}")
        self._constraints.append(constraint)
        for derived in ("inclusions", "prepared"):  # invalidate cached_property
            self.__dict__.pop(derived, None)

    def __iter__(self) -> Iterator[PathConstraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __str__(self) -> str:
        return "{" + ", ".join(str(c) for c in self._constraints) + "}"

    @property
    def constraints(self) -> tuple[PathConstraint, ...]:
        return tuple(self._constraints)

    @cached_property
    def inclusions(self) -> tuple[PathInclusion, ...]:
        """All constraints normalized to inclusions (equalities split in two).

        Following the convention of Section 4.2, whenever a *word* inclusion
        ``u ⊆ ε`` is present, the converse ``ε ⊆ u`` is added, so that the
        theory never implicitly encodes an emptiness constraint.
        """
        result: list[PathInclusion] = []
        seen: set[tuple[Regex, Regex]] = set()

        def push(inclusion: PathInclusion) -> None:
            key = (simplify(inclusion.lhs), simplify(inclusion.rhs))
            if key not in seen:
                seen.add(key)
                result.append(PathInclusion(key[0], key[1]))

        for constraint in self._constraints:
            for inclusion in constraint.inclusions():
                push(inclusion)
        for inclusion in list(result):
            if inclusion.is_word_constraint():
                lhs, rhs = inclusion.word_sides()
                if rhs == () and lhs != ():
                    push(PathInclusion(word_expr(()), word_expr(lhs)))
        return tuple(result)

    @cached_property
    def prepared(self) -> "PreparedConstraints":
        """Everything the decision procedures derive from ``E`` alone.

        Built on first use and dropped by :meth:`add`, like ``inclusions``:
        the paper's procedures are polynomial *because* ``E`` is fixed, so
        what depends only on ``E`` is constructed once, not once per query.
        """
        return PreparedConstraints(self)

    def is_word_constraint_set(self) -> bool:
        """True iff every constraint is a word constraint (Section 4.2 case)."""
        return self.prepared.is_word_constraint_set

    def is_word_equality_set(self) -> bool:
        """True iff every constraint is a word *equality* (Section 4.3 case)."""
        return self.prepared.is_word_equality_set

    def word_inclusion_pairs(self) -> list[tuple[Word, Word]]:
        """All (lhs, rhs) word pairs from the normalized inclusions.

        Raises :class:`ConstraintError` if some constraint is not a word
        constraint — callers decide whether to fall back to the general
        procedure instead.
        """
        pairs: list[tuple[Word, Word]] = []
        for inclusion in self.inclusions:
            pairs.append(inclusion.word_sides())
        return pairs

    def alphabet(self) -> frozenset[str]:
        return self.prepared.alphabet

    def max_word_length(self) -> int:
        """``M``: the maximum length of a word occurring in a word constraint."""
        longest = 0
        for constraint in self._constraints:
            for side in (constraint.lhs, constraint.rhs):
                as_word = side.as_word()
                if as_word is not None:
                    longest = max(longest, len(as_word))
        return longest


@dataclass(frozen=True)
class EqualitySide:
    """One direction of a path equality ``side = other`` as the rewriter reads
    it: a query that factors through ``side`` may use ``other`` instead.

    ``word`` is ``side.as_word()``, ``nfa`` the side's Thompson automaton, and
    ``star_body_nfa`` the automaton of ``u`` when the side simplifies to
    ``u*`` (the cached recursive expressions of Section 3.2, Example 3).
    """

    index: int
    equality: PathEquality
    other: Regex
    word: "Word | None"
    nfa: "NFA"
    star_body_nfa: "NFA | None"


class PreparedConstraints:
    """The view of a fixed :class:`ConstraintSet` that queries are decided against.

    The flags and the alphabet are one scan of the constraints; the prefix
    rewrite system and the equality sides are built the first time a
    procedure asks for them.  Nothing here is mutated after construction, so
    concurrent readers (the engine rewrites outside its memo lock) share it.
    """

    def __init__(self, constraints: ConstraintSet) -> None:
        self._constraints = constraints
        members = constraints.constraints
        self.is_word_constraint_set = all(c.is_word_constraint() for c in members)
        self.is_word_equality_set = self.is_word_constraint_set and all(
            isinstance(c, PathEquality) for c in members
        )
        self.alphabet: frozenset[str] = frozenset().union(
            *(c.alphabet() for c in members)
        )

    @cached_property
    def system(self) -> "PrefixRewriteSystem":
        """The prefix rewrite system →E.

        Raises :class:`~repro.exceptions.ConstraintError` unless every
        constraint is a word constraint.
        """
        from .rewrite_system import PrefixRewriteSystem

        return PrefixRewriteSystem.from_constraints(self._constraints)

    @cached_property
    def equality_sides(self) -> tuple[EqualitySide, ...]:
        """Both directions of every equality, in constraint order."""
        from ..automata import regex_to_nfa

        sides: list[EqualitySide] = []
        for equality in self._constraints:
            if not isinstance(equality, PathEquality):
                continue
            for side, other in (
                (equality.lhs, equality.rhs),
                (equality.rhs, equality.lhs),
            ):
                simplified = simplify(side)
                sides.append(
                    EqualitySide(
                        index=len(sides),
                        equality=equality,
                        other=other,
                        word=side.as_word(),
                        nfa=regex_to_nfa(side),
                        star_body_nfa=(
                            regex_to_nfa(simplified.inner)
                            if isinstance(simplified, Star)
                            else None
                        ),
                    )
                )
        return tuple(sides)

    @cached_property
    def sides_by_word(self) -> dict[Word, tuple[EqualitySide, ...]]:
        """The equality sides that are plain words, keyed by that word."""
        index: dict[Word, list[EqualitySide]] = {}
        for side in self.equality_sides:
            if side.word is not None:
                index.setdefault(side.word, []).append(side)
        return {word: tuple(sides) for word, sides in index.items()}

    @cached_property
    def non_word_sides(self) -> tuple[EqualitySide, ...]:
        """The equality sides only an automaton can compare."""
        return tuple(side for side in self.equality_sides if side.word is None)
