"""Tests for the prefix rewrite system →E and the RewriteTo automata."""

import pytest
from _strategies import words as drawn_words
from hypothesis import given, strategies as st

from repro.automata import (
    EPSILON,
    NFA,
    accepted_language_up_to,
    enumerate_accepted_words,
    equivalent,
    regex_to_nfa,
    single_word_nfa,
)
from repro.constraints import (
    ConstraintSet,
    PrefixRewriteSystem,
    path_inclusion,
    rewrite_to_language_nfa,
    rewrite_to_with_statistics,
    rewrite_to_word_nfa,
    saturate_pre_star,
    word_equality,
    word_inclusion,
)
from repro.exceptions import ConstraintError
from repro.regex import parse


class TestPrefixRewriteSystem:
    def test_from_constraints_requires_word_constraints(self):
        with pytest.raises(ConstraintError):
            PrefixRewriteSystem.from_constraints(
                ConstraintSet([path_inclusion("a*", "b")])
            )

    def test_rules_from_inclusions_and_equalities(self):
        constraints = ConstraintSet([word_inclusion("a b", "c"), word_equality("d", "e")])
        system = PrefixRewriteSystem.from_constraints(constraints)
        rules = {(rule.lhs, rule.rhs) for rule in system.rules}
        assert (("a", "b"), ("c",)) in rules
        assert (("d",), ("e",)) in rules and (("e",), ("d",)) in rules

    def test_successors_rewrite_prefixes_only(self):
        system = PrefixRewriteSystem.from_pairs([((("a"),) * 2, ("b",))])
        successors = {word for _, word in system.successors(("a", "a", "a"))}
        assert successors == {("b", "a")}
        # No rewriting inside the word: a b a a stays un-rewritten at the front.
        assert list(system.successors(("b", "a", "a"))) == []

    def test_paper_intro_example(self):
        # From u1 <= u2 and u2 u3 <= u4 one infers u1 u3 u5 ->* u4 u5.
        system = PrefixRewriteSystem.from_pairs(
            [(("u1",), ("u2",)), (("u2", "u3"), ("u4",))]
        )
        assert system.rewrites_to(("u1", "u3", "u5"), ("u4", "u5"))

    def test_find_derivation_steps_are_valid(self):
        system = PrefixRewriteSystem.from_pairs(
            [(("a", "a"), ("a",)), (("a", "b"), ("c",))]
        )
        derivation = system.find_derivation(("a", "a", "a", "b"), ("c",))
        assert derivation is not None
        current = ("a", "a", "a", "b")
        for step in derivation:
            assert step.before == current
            assert current[: len(step.rule.lhs)] == step.rule.lhs
            current = step.after
        assert current == ("c",)

    def test_reflexivity(self):
        system = PrefixRewriteSystem.from_pairs([(("a",), ("b",))])
        assert system.rewrites_to(("x",), ("x",))

    def test_symmetric_closure(self):
        system = PrefixRewriteSystem.from_pairs([(("a",), ("b",))])
        assert not system.rewrites_to(("b",), ("a",))
        assert system.symmetric_closure().rewrites_to(("b",), ("a",))

    def test_reachable_words_bounded(self):
        system = PrefixRewriteSystem.from_pairs([(("a",), ("a", "a"))])
        words = system.reachable_words(("a",), max_words=5)
        assert ("a", "a") in words
        assert len(words) <= 5

    def test_max_side_length(self):
        system = PrefixRewriteSystem.from_pairs([(("a", "b", "c"), ("d",))])
        assert system.max_side_length() == 3


class TestRewriteToAutomata:
    def test_rewrite_to_word_simple(self):
        system = PrefixRewriteSystem.from_pairs([(("a", "a"), ("a",))])
        automaton = rewrite_to_word_nfa(system, ("a",))
        # RewriteTo(a) = a+ for the rule aa -> a.
        assert automaton.accepts(("a",))
        assert automaton.accepts(("a", "a", "a"))
        assert not automaton.accepts(())
        assert not automaton.accepts(("b",))

    def test_rewrite_to_includes_target_language(self):
        system = PrefixRewriteSystem.from_pairs([(("a",), ("b",))])
        automaton = rewrite_to_language_nfa(system, parse("b c + d"))
        assert automaton.accepts(("b", "c"))
        assert automaton.accepts(("d",))
        assert automaton.accepts(("a", "c"))  # a c -> b c
        assert not automaton.accepts(("c",))

    def test_epsilon_lhs_rule(self):
        # ε <= b  gives the rule ε -> b: any word w rewrites to b w.
        system = PrefixRewriteSystem.from_pairs([((), ("b",))])
        automaton = rewrite_to_word_nfa(system, ("b", "b", "a"))
        assert automaton.accepts(("b", "a"))
        assert automaton.accepts(("a",))
        assert not automaton.accepts(("b",))

    def test_multi_symbol_lhs(self):
        system = PrefixRewriteSystem.from_pairs([(("a", "b", "c"), ("z",))])
        automaton = rewrite_to_word_nfa(system, ("z", "q"))
        assert automaton.accepts(("a", "b", "c", "q"))
        assert not automaton.accepts(("a", "b", "q"))

    def test_chained_rewrites(self):
        system = PrefixRewriteSystem.from_pairs(
            [(("a",), ("b",)), (("b", "b"), ("c",))]
        )
        automaton = rewrite_to_word_nfa(system, ("c",))
        # a b -> b b -> c ; a a -> b a -> ... (b a cannot reach c).
        assert automaton.accepts(("a", "b"))
        assert automaton.accepts(("b", "b"))
        assert not automaton.accepts(("b", "a"))

    def test_statistics_reported(self):
        system = PrefixRewriteSystem.from_pairs([(("a", "a"), ("a",))])
        _, stats = rewrite_to_with_statistics(system, ("a",))
        assert stats.rounds >= 1
        assert stats.edges_added >= 1

    def test_agrees_with_brute_force_on_small_systems(self):
        """The saturation automaton matches breadth-first rewriting exactly."""
        systems = [
            PrefixRewriteSystem.from_pairs([(("a", "a"), ("a",)), (("b",), ("a", "b"))]),
            PrefixRewriteSystem.from_pairs([(("a", "b"), ("b", "a")), (("b", "b"), ())]),
            PrefixRewriteSystem.from_pairs([(("a",), ()), ((), ("b",))]),
        ]
        targets = [(), ("a",), ("b", "a"), ("a", "b")]
        test_words = list(enumerate_accepted_words(
            __import__("repro.automata", fromlist=["regex_to_nfa"]).regex_to_nfa(
                parse("(a + b) (a + b) (a + b) + (a + b) (a + b) + (a + b) + %")
            ),
            3,
        ))
        for system in systems:
            for target in targets:
                automaton = rewrite_to_word_nfa(system, target)
                for word in test_words:
                    expected = system.rewrites_to(
                        word, target, max_steps=2000, max_word_length=8
                    )
                    assert automaton.accepts(word) == expected, (
                        f"mismatch for {word} ->* {target} under {system}"
                    )

    def test_language_is_regular_and_enumerable(self):
        system = PrefixRewriteSystem.from_pairs([(("a", "a"), ("a",))])
        automaton = rewrite_to_word_nfa(system, ("a", "b"))
        words = accepted_language_up_to(automaton, 4)
        assert ("a", "b") in words
        assert ("a", "a", "b") in words
        assert ("a", "a", "a", "b") in words
        assert ("b",) not in words


def reference_saturate(system, target):
    """The saturation as first written: every right-hand side is run from
    scratch, against the automaton as it stands at that moment.  Returns the
    automaton and the number of edges added."""
    nfa = NFA(initial=("t", target.initial), alphabet=set(target.alphabet))
    for source, label, destination in target.iter_transitions():
        nfa.add_transition(("t", source), label, ("t", destination))
    nfa.accepting = {("t", state) for state in target.accepting}
    final_edge_source = {}
    for index, rule in enumerate(system.rules):
        current = nfa.initial
        for position, label in enumerate(rule.lhs[:-1]):
            nfa.add_transition(current, label, ("chain", index, position))
            current = ("chain", index, position)
        final_edge_source[index] = current
    edges_added = 0
    changed = True
    while changed:
        changed = False
        for index, rule in enumerate(system.rules):
            label = rule.lhs[-1] if rule.lhs else EPSILON
            source = final_edge_source[index]
            for q in nfa.run(rule.rhs):
                if q not in nfa.transitions.get(source, {}).get(label, set()):
                    nfa.add_transition(source, label, q)
                    edges_added += 1
                    changed = True
    return nfa, edges_added


class TestSaturationSharesPrefixes:
    """Right-hand sides are read through a per-round table of their prefixes'
    state sets; the fixpoint must not depend on it."""

    FIXTURES = [
        ([(("a", "a"), ("a",))], ("a",)),
        ([(("a", "a"), ("a",)), (("b",), ("a", "b"))], ("a", "b")),
        ([(("a", "b"), ("b", "a")), (("b", "b"), ())], ("b", "a")),
        ([(("a",), ()), ((), ("b",))], ()),
        ([((), ("b",))], ("b", "b", "a")),
        ([(("a", "b", "c"), ("z",))], ("z", "q")),
        ([(("a",), ("b",)), (("b", "b"), ("c",))], ("c",)),
    ]

    @pytest.mark.parametrize("pairs, target", FIXTURES)
    def test_edges_added_as_before_on_the_existing_fixtures(self, pairs, target):
        system = PrefixRewriteSystem.from_pairs(pairs)
        saturated, stats = saturate_pre_star(system, single_word_nfa(target))
        reference, edges_added = reference_saturate(system, single_word_nfa(target))
        assert stats.edges_added == edges_added
        assert equivalent(saturated, reference)

    def test_edge_added_mid_round_extends_an_earlier_prefix(self):
        # Round 1: z -> a b caches δ(ι, a) and δ(ι, a b); a -> e then adds an
        # a-edge from ι, which enlarges both; y -> a b reads the stale entry.
        # Only a further round gives y its second edge, the one that accepts
        # y c  (y c -> a b c -> e b c).
        system = PrefixRewriteSystem.from_pairs(
            [(("z",), ("a", "b")), (("a",), ("e",)), (("y",), ("a", "b"))]
        )
        target = regex_to_nfa(parse("a b + e b c"))
        saturated, stats = saturate_pre_star(system, target)
        assert saturated.accepts(("y", "c")) and saturated.accepts(("z", "c"))
        assert stats.rounds >= 3
        reference, edges_added = reference_saturate(system, target)
        assert stats.edges_added == edges_added
        goals = [("a", "b"), ("e", "b", "c")]
        for word in enumerate_accepted_words(
            regex_to_nfa(parse("(a + e + y + z) (% + b + c) (% + c)")), 3
        ):
            expected = any(system.rewrites_to(word, goal) for goal in goals)
            assert saturated.accepts(word) == expected, word

    @given(
        rules=st.lists(
            st.tuples(
                drawn_words(("a", "b"), max_size=2),
                drawn_words(("a", "b"), max_size=2).map(lambda rest: ("a", "b") + rest),
            ),
            min_size=1,
            max_size=4,
        ),
        target=drawn_words(("a", "b"), max_size=3),
    )
    def test_shared_prefix_right_hand_sides_match_the_reference(self, rules, target):
        system = PrefixRewriteSystem.from_pairs(rules)
        saturated, stats = saturate_pre_star(system, single_word_nfa(target))
        reference, edges_added = reference_saturate(system, single_word_nfa(target))
        assert stats.edges_added == edges_added
        assert equivalent(saturated, reference)
        for word in [(), ("a",), ("b",), ("a", "b"), ("b", "a"), ("a", "b", "a")]:
            # The bounded search is a semi-decision: what it finds must be accepted.
            if system.rewrites_to(word, target, max_steps=500, max_word_length=8):
                assert saturated.accepts(word)
