"""Armstrong instances for word equalities (Proposition 4.8, Lemma 4.9, Figure 5).

For a finite set ``E`` of *word equalities* the paper constructs an instance
``(o, I)`` — generally infinite — that satisfies *exactly* the path
equalities implied by ``E``: the vertices are the classes of the smallest
right-congruence containing ``E`` and there is an ``a``-edge from ``û`` to
``ûa``.  Lemma 4.9 then shows that all the interesting structure lives inside
a bounded *K-sphere* around the source: outside the sphere every vertex has
indegree 1 and no edge ever re-enters the sphere (Figure 5).

:class:`WordEqualityTheory` packages the right congruence:

* canonical forms of words (shortest, then lexicographically least class
  member) via the symmetric ``RewriteTo`` automaton;
* the (lazy, infinite) Armstrong instance and its finite K-sphere;
* the safe over-approximation of the paper's ``K = M + N`` radius;
* property checks used by the Figure 5 benchmark (indegree-1 outside the
  sphere, no re-entry).
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from ..automata import shortest_accepted_word
from ..exceptions import ConstraintError
from ..graph.instance import Instance, LazyInstance, Oid
from .constraint import ConstraintSet, Word
from .rewrite_to import rewrite_to_word_nfa


class WordEqualityTheory:
    """The right congruence ≈E generated by a finite set of word equalities."""

    def __init__(
        self,
        constraints: ConstraintSet,
        alphabet: "frozenset[str] | set[str] | None" = None,
    ) -> None:
        if not constraints.is_word_equality_set():
            raise ConstraintError(
                "an Armstrong instance exists (Prop. 4.8) only for word equalities"
            )
        self.constraints = constraints
        # Equalities normalize to inclusions in both directions, so the rewrite
        # system is already symmetric and →* coincides with ↔*.
        self.system = constraints.prepared.system
        self.alphabet: frozenset[str] = frozenset(alphabet) if alphabet else constraints.alphabet()
        self._canonical = lru_cache(maxsize=None)(self._compute_canonical)

    # -- the congruence ---------------------------------------------------------
    def _compute_canonical(self, word: Word) -> Word:
        """Shortest (then lexicographically least) member of the class of ``word``."""
        automaton = rewrite_to_word_nfa(self.system, word)
        shortest = shortest_accepted_word(automaton)
        # The class always contains the word itself, so a shortest member exists.
        return shortest if shortest is not None else tuple(word)

    def canonical_form(self, word: "Word | list[str]") -> Word:
        return self._canonical(tuple(word))

    def equivalent(self, first: "Word | list[str]", second: "Word | list[str]") -> bool:
        """``E ⊨ first = second`` (membership in the same congruence class)."""
        return self.canonical_form(first) == self.canonical_form(second)

    # -- sphere radius (Lemma 4.9) ----------------------------------------------
    def max_constraint_length(self) -> int:
        """``M``: the longest word occurring in ``E``."""
        return self.system.max_side_length()

    def default_sphere_radius(self) -> int:
        """A safe over-approximation of the paper's ``K = M + N`` bound.

        ``N`` bounds the number of states of the ``RewriteTo(v)`` automaton
        for the relevant targets ``v`` (``|v| ≤ M``): the saturated automaton
        has at most ``M + 1`` target-chain states plus one chain state per
        rule symbol beyond the first.  Any ``K' ≥ K`` retains the Lemma 4.9
        properties, so over-approximating is safe (only the sphere grows).
        """
        m = self.max_constraint_length()
        n = (m + 1) + sum(max(0, len(rule.lhs) - 1) for rule in self.system.rules)
        return m + n

    # -- the Armstrong instance ---------------------------------------------------
    def lazy_armstrong_instance(self) -> tuple[LazyInstance, Oid]:
        """The (generally infinite) Armstrong instance, generated on demand.

        Vertices are canonical class representatives; the source is the class
        of ε.  By Proposition 4.8, ``u(o, I) = {û}`` and the instance satisfies
        exactly the equalities implied by ``E``.
        """

        def expander(oid: Oid) -> list[tuple[str, Oid]]:
            representative = tuple(oid)
            return [
                (label, self.canonical_form(representative + (label,)))
                for label in sorted(self.alphabet)
            ]

        return LazyInstance(expander), self.canonical_form(())

    def sphere(
        self, radius: int | None = None, max_classes: int | None = None
    ) -> tuple[Instance, Oid]:
        """The K-sphere of the Armstrong instance as a finite instance.

        The sphere contains every class whose canonical representative has
        length at most ``radius`` (which equals its distance from the source)
        and all edges between such classes.

        ``max_classes`` caps the number of congruence classes materialized;
        exceeding it raises :class:`~repro.exceptions.BoundednessError`.  The
        sphere is exponential in the alphabet in the worst case (the paper's
        automaton ``F`` is exponential in ``E``), so callers that probe
        boundedness speculatively should set a cap and treat the error as
        "too expensive to decide here".
        """
        from ..exceptions import BoundednessError

        if radius is None:
            radius = self.default_sphere_radius()
        source = self.canonical_form(())
        instance = Instance()
        instance.add_object(source)
        queue: deque[Word] = deque([source])
        seen: set[Word] = {source}
        while queue:
            representative = queue.popleft()
            for label in sorted(self.alphabet):
                successor = self.canonical_form(representative + (label,))
                if len(successor) > radius:
                    continue
                instance.add_edge(representative, label, successor)
                if successor not in seen:
                    seen.add(successor)
                    if max_classes is not None and len(seen) > max_classes:
                        raise BoundednessError(
                            "K-sphere construction exceeded max_classes="
                            f"{max_classes}; the sphere is exponential in the "
                            "constraint alphabet"
                        )
                    queue.append(successor)
        return instance, source

    def sphere_classes(self, radius: int | None = None) -> list[Word]:
        """Canonical representatives of all classes inside the sphere."""
        instance, _ = self.sphere(radius)
        return sorted(instance.objects, key=lambda rep: (len(rep), rep))

    # -- Lemma 4.9 property checks ------------------------------------------------
    def check_sphere_properties(
        self, radius: int | None = None, extra_depth: int = 3
    ) -> dict[str, bool]:
        """Empirically verify the Lemma 4.9 structure on a finite expansion.

        The Armstrong instance is expanded to ``radius + extra_depth`` and two
        properties are checked for vertices strictly outside the ``radius``
        sphere: (a) indegree exactly 1, and (b) no edge from outside back into
        the sphere.  (The check is necessarily finite, but any violation of
        the lemma would already show up at bounded depth.)
        """
        if radius is None:
            radius = self.default_sphere_radius()
        expanded, _ = self.sphere(radius + extra_depth)
        inside = {oid for oid in expanded.objects if len(oid) <= radius}

        indegree_ok = True
        no_reentry = True
        for source_vertex, _, destination in expanded.edges():
            if source_vertex not in inside and destination in inside:
                no_reentry = False
        for oid in expanded.objects:
            if oid in inside:
                continue
            # Only count incoming edges whose source is itself within the
            # expanded region (the finite view cannot see deeper sources, but
            # deeper sources would correspond to longer words and cannot map
            # onto a strictly shorter canonical representative anyway).
            if expanded.in_degree(oid) > 1:
                indegree_ok = False
        return {"outside_indegree_one": indegree_ok, "no_reentry": no_reentry}
