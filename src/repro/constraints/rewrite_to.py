r"""Regularity of ``RewriteTo``: the pre*-saturation construction.

Lemma 4.5 of the paper shows that for a finite set ``E`` of word constraints
and a word ``v``, the set ``RewriteTo(v) = { u | u →E* v }`` is regular and an
NFA for it is constructible in polynomial time; Lemma 4.7 extends this to a
regular target ``RewriteTo(p) = { u | ∃ v ∈ L(p), u →E* v }``.  The paper's
proof goes through a pushdown automaton that loads the input on its stack and
then simulates prefix rewriting; converting that PDA to an NFA is exactly the
classical *pre\*-saturation* for prefix rewriting systems, which is what we
implement directly:

1. start from an NFA ``A`` for the target language, with initial state ``ι``;
2. for every rule ``x → y`` with ``|x| ≥ 2``, pre-create a fresh chain of
   states that reads ``x[:-1]`` from ``ι`` (created once, shared by all
   saturation steps for that rule);
3. saturate: whenever the current automaton can read ``y`` from ``ι`` ending
   in state ``q``, add the final edge completing an ``x``-path from ``ι`` to
   ``q`` (an ε-edge if ``x = ε``, a direct edge if ``|x| = 1``, the last
   chain edge otherwise);
4. repeat until no edge can be added.  Within one round the right-hand sides
   are read through a shared table of their prefixes' state sets, so rules
   with a common prefix step it once.

The number of candidate edges is ``O(|rules| · |states|)``, so saturation is
polynomial; the resulting automaton accepts exactly
``pre*(L(A)) = RewriteTo(L(A))``.  The property-based tests validate the
construction against the brute-force breadth-first rewriting of
:mod:`repro.constraints.rewrite_system` on small random systems.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata import EPSILON, NFA, regex_to_nfa, single_word_nfa
from ..regex import Regex
from .constraint import Word
from .rewrite_system import PrefixRewriteSystem, RewriteRule


@dataclass
class SaturationStatistics:
    """Bookkeeping about a saturation run (surfaced by benchmarks)."""

    rounds: int = 0
    edges_added: int = 0
    chain_states: int = 0


def saturate_pre_star(
    system: PrefixRewriteSystem, target: NFA
) -> tuple[NFA, SaturationStatistics]:
    """Return an NFA for ``pre*(L(target))`` under ``system``, plus statistics.

    The ``target`` automaton is not modified; its states are wrapped so that
    the chain states added by the saturation can never collide with them.
    """
    stats = SaturationStatistics()

    nfa = NFA(initial=("t", target.initial), alphabet=set(target.alphabet))
    for state in target.states:
        nfa.add_state(("t", state))
    for source, label, destination in target.iter_transitions():
        nfa.add_transition(("t", source), label, ("t", destination))
    nfa.accepting = {("t", state) for state in target.accepting}
    initial = nfa.initial

    # Pre-create the per-rule chains reading lhs[:-1] from the initial state.
    chain_end: dict[int, object] = {}
    for rule_index, rule in enumerate(system.rules):
        if len(rule.lhs) >= 2:
            current = initial
            for position, label in enumerate(rule.lhs[:-1]):
                state = ("chain", rule_index, position)
                nfa.add_transition(current, label, state)
                current = state
                stats.chain_states += 1
            chain_end[rule_index] = current

    def final_edge(rule_index: int, rule: RewriteRule, q: object) -> tuple[object, str, object]:
        if len(rule.lhs) == 0:
            return (initial, EPSILON, q)
        if len(rule.lhs) == 1:
            return (initial, rule.lhs[0], q)
        return (chain_end[rule_index], rule.lhs[-1], q)

    changed = True
    while changed:
        changed = False
        stats.rounds += 1
        # δ(ι, w) for every prefix w of a right-hand side, read once per round:
        # the rules of one site share long prefixes.  An entry may predate an
        # edge added later in the same round; that only defers the edges it
        # would have produced to the next round, and the loop ends on a round
        # that added nothing — one that read no stale entry.
        after: dict[Word, frozenset] = {}
        for rule_index, rule in enumerate(system.rules):
            for q in nfa.run_shared(rule.rhs, after):
                source, label, destination = final_edge(rule_index, rule, q)
                if destination in nfa.transitions.get(source, {}).get(label, set()):
                    continue
                nfa.add_transition(source, label, destination)
                stats.edges_added += 1
                changed = True
    return nfa, stats


def rewrite_to_word_nfa(system: PrefixRewriteSystem, target_word: Word) -> NFA:
    """NFA for ``RewriteTo(v) = { u | u →E* v }`` (Lemma 4.5)."""
    nfa, _ = saturate_pre_star(system, single_word_nfa(tuple(target_word)))
    return nfa


def rewrite_to_language_nfa(system: PrefixRewriteSystem, target: "Regex | NFA") -> NFA:
    """NFA for ``RewriteTo(p) = { u | ∃ v ∈ L(p), u →E* v }`` (Lemma 4.7)."""
    target_nfa = target if isinstance(target, NFA) else regex_to_nfa(target)
    nfa, _ = saturate_pre_star(system, target_nfa)
    return nfa


def rewrite_to_with_statistics(
    system: PrefixRewriteSystem, target: "Regex | NFA | Word"
) -> tuple[NFA, SaturationStatistics]:
    """Like the two helpers above but also returning saturation statistics."""
    if isinstance(target, NFA):
        return saturate_pre_star(system, target)
    if isinstance(target, Regex):
        return saturate_pre_star(system, regex_to_nfa(target))
    return saturate_pre_star(system, single_word_nfa(tuple(target)))
