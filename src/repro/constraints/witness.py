"""Witness instances for word-constraint implication (Lemma 4.4, Figure 4).

The completeness half of Lemma 4.4 constructs, for a finite set ``E`` of word
constraints and a bound ``k``, a finite instance ``(o, I)`` that satisfies
``E`` and such that for all words ``u, v`` of length at most ``k``,
``(o, I) ⊨ u ⊆ v`` implies ``u →E* v``.  The construction populates each
⇄-equivalence class ``û`` (restricted to words of length ≤ k) with the set of
distinguished vertices of the classes below it in the rewrite order, and wires
``a``-edges from ``o_û`` to every vertex of ``obj(ûa)``.

This instance is what turns a *refuted* implication into a *concrete
counterexample graph*: if ``E ⊭ u ⊆ v`` then the instance built with
``k > max(|u|, |v|, M)`` satisfies ``E`` but violates ``u ⊆ v`` — and
likewise for a path constraint refuted by Lemma 4.6's criterion.

``figure4_instance`` reproduces the worked example of Figure 4
(``E = {a·a ⊆ a}``, ``k = 3``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..graph.instance import Instance, Oid
from .constraint import ConstraintSet, Word, word_inclusion
from .rewrite_to import rewrite_to_word_nfa


@dataclass
class Lemma44Witness:
    """The instance of Lemma 4.4 together with its bookkeeping maps."""

    instance: Instance
    source: Oid
    bound: int
    # Canonical representative of each class (the shortest, then lexicographically
    # least member among words of length ≤ k).
    class_of: dict[Word, Word]
    # obj(σ): the vertices populating class σ, keyed by representative.
    obj: dict[Word, frozenset[Oid]]

    def vertex_of(self, representative: Word) -> Oid:
        """The distinguished vertex ``o_σ`` of a class representative."""
        return ("cls",) + representative

    def classes(self) -> list[Word]:
        return sorted(set(self.class_of.values()))


def _words_up_to(alphabet: frozenset[str], length: int) -> list[Word]:
    words: list[Word] = [()]
    for size in range(1, length + 1):
        for combo in product(sorted(alphabet), repeat=size):
            words.append(tuple(combo))
    return words


def lemma44_witness(
    constraints: ConstraintSet,
    bound: int,
    alphabet: "frozenset[str] | set[str] | None" = None,
) -> Lemma44Witness:
    """Build the Lemma 4.4 instance for word constraints ``E`` and bound ``k``.

    ``alphabet`` defaults to the constraint alphabet; callers refuting a
    constraint ``p ⊆ q`` should pass the union with the constraint's alphabet
    so that the witness can spell the refuting word.

    The construction enumerates all ``|Σ|^k`` words up to the bound, so it is
    intended for the small bounds used in counterexample construction and in
    the figures — exactly the regime the paper uses it in.

    Note on ε constraints: the paper's ε convention (``u ⊆ ε`` implies
    ``ε ⊆ u`` is added) keeps the class of ε minimal when such constraints are
    *directly* present, but a chain like ``b ⊆ a, a ⊆ ε`` still places the
    class of ``b`` strictly below ε, in which case the constructed instance
    cannot both respect ``ε(o, I) = {o}`` and realize ``obj``.  Callers that
    need a guaranteed model of ``E`` (the counterexample builders do)
    re-validate with :func:`repro.constraints.satisfaction.satisfies_all`
    and fall back gracefully when validation fails.
    """
    system = constraints.prepared.system
    labels = frozenset(alphabet) if alphabet is not None else constraints.alphabet()
    if not labels:
        labels = system.alphabet()
    words = _words_up_to(labels, bound)

    # reaches[u][v] == True iff u ->*E v, computed via one RewriteTo automaton
    # per target word (polynomial each).
    automata = {target: rewrite_to_word_nfa(system, target) for target in words}
    reaches: dict[Word, set[Word]] = {
        source: {target for target in words if automata[target].accepts(source)}
        for source in words
    }

    # Equivalence classes and their canonical representatives.
    class_of: dict[Word, Word] = {}
    for word in words:
        members = sorted(
            (other for other in words if other in reaches[word] and word in reaches[other]),
            key=lambda w: (len(w), w),
        )
        class_of[word] = members[0]

    representatives = sorted(set(class_of.values()), key=lambda w: (len(w), w))

    # Partial order on classes: σ ⪯ τ iff rep(σ) ->* rep(τ).
    def below(sigma: Word, tau: Word) -> bool:
        return tau in reaches[sigma]

    witness = Lemma44Witness(
        instance=Instance(),
        source=("cls",),
        bound=bound,
        class_of=class_of,
        obj={},
    )

    # obj(σ) = { o_ψ | ψ ⪯ σ }.
    for sigma in representatives:
        members = frozenset(
            witness.vertex_of(psi) for psi in representatives if below(psi, sigma)
        )
        witness.obj[sigma] = members

    instance = witness.instance
    for sigma in representatives:
        instance.add_object(witness.vertex_of(sigma))
    witness.source = witness.vertex_of(class_of[()])

    # Edges: for each u with |u| < k and each a, an a-edge from o_û to every
    # vertex of obj(ûa) — iterating over representatives is enough because the
    # edge set only depends on the class of u.
    for sigma in representatives:
        if len(sigma) >= bound:
            continue
        for label in sorted(labels):
            extended = sigma + (label,)
            target_class = class_of.get(extended)
            if target_class is None:
                continue
            for target_vertex in witness.obj[target_class]:
                instance.add_edge(witness.vertex_of(sigma), label, target_vertex)

    return witness


def figure4_instance() -> Lemma44Witness:
    """The worked example of Figure 4: ``E = {a·a ⊆ a}``, ``k = 3``.

    The paper reports: classes ``ε, a, a², a³`` with ``a³ ⪯ a² ⪯ a``;
    ``obj(ε) = {o_ε}``, ``obj(a³) = {o_{a³}}``, ``obj(a²) = {o_{a²}, o_{a³}}``,
    ``obj(a) = {o_a, o_{a²}, o_{a³}}``; and answers
    ``a(o, I) = {o_a, o_{a²}, o_{a³}}``, ``a²(o, I) = {o_{a²}, o_{a³}}``,
    ``a³(o, I) = {o_{a³}}`` — the tests and the Figure 4 benchmark check all
    of these facts against this construction.
    """
    constraints = ConstraintSet([word_inclusion("a a", "a")])
    return lemma44_witness(constraints, bound=3, alphabet={"a"})


def counterexample_instance_for_word_refutation(
    constraints: ConstraintSet,
    refuting_word: Word,
    rhs_alphabet: "frozenset[str] | set[str]" = frozenset(),
) -> tuple[Instance, Oid]:
    """Concrete counterexample instance from a refuting word (Lemma 4.6).

    Given word constraints ``E`` and a word ``u ∈ L(p)`` that does *not*
    rewrite into ``L(q)``, the Lemma 4.4 instance with a large enough bound
    satisfies ``E`` while ``u(o, I) ⊄ q(o, I)``, refuting ``p ⊆ q``.
    """
    alphabet = set(constraints.alphabet()) | set(refuting_word) | set(rhs_alphabet)
    bound = max(constraints.max_word_length(), len(refuting_word)) + 1
    witness = lemma44_witness(constraints, bound, alphabet)
    return witness.instance, witness.source
