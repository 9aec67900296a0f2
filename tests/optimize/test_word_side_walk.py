"""The rewriter's word-side walk against the product-quotient construction.

A word side ``u`` used to be decided like any other side: the left quotient
of the query automaton by ``{u}`` through a product automaton, an emptiness
test, and ``u · quotient ≡ query`` by automaton equivalence.  The rewriter
now walks ``u`` once through the query automaton instead
(``NFA.run_forced``).  That construction is kept below as the reference: on
drawn expressions and words both must reach the same verdict, and a
surviving walk must build the very automaton the product quotient builds, so
the remainder prints the same.  A query that is itself a word skips even
the walk for its decompositions; its candidates must print as the walk's.
"""

import pytest
from _strategies import words
from hypothesis import given, strategies as st

from repro.automata import (
    concat_nfa,
    equivalent,
    is_empty,
    left_quotient_by_language_nfa,
    nfa_to_regex,
    regex_to_nfa,
)
from repro.constraints import ConstraintSet, word_equality
from repro.optimize import rewriter
from repro.regex import (
    Concat,
    EmptySet,
    Epsilon,
    Star,
    Symbol,
    Union,
    parse,
    simplify,
    to_string,
    word,
)
from repro.regex.ast import concat

ALPHABET = ("a", "b", "c")


def reference_quotient(expression, side_word):
    """The product quotient when ``L(expression) = side_word · t`` for a
    non-empty ``t``, else ``None``."""
    expression_nfa = regex_to_nfa(expression)
    side_nfa = regex_to_nfa(word(side_word))
    quotient = left_quotient_by_language_nfa(expression_nfa, side_nfa)
    if is_empty(quotient) or not equivalent(concat_nfa(side_nfa, quotient), expression_nfa):
        return None
    return quotient


def walked_quotient(expression, side_word, after=None):
    expression_nfa = regex_to_nfa(expression)
    return rewriter._word_side_quotient(
        expression_nfa,
        side_word,
        {} if after is None else after,
        expression_nfa.coreachable_states(),
    )


def structure(nfa):
    return (
        set(nfa.states),
        set(nfa.iter_transitions()),
        nfa.initial,
        set(nfa.accepting),
    )


def assert_walk_matches(expression, side_word, after=None):
    expected = reference_quotient(expression, side_word)
    walked = walked_quotient(expression, side_word, after)
    assert (walked is None) == (expected is None), (expression, side_word)
    if expected is not None:
        assert structure(walked) == structure(expected)


def raw_expressions(max_leaves=6):
    """Unsimplified expressions with ε and ∅ leaves: ε-accepting, empty and
    starred languages, and prefixes like ``a (b + b)`` that denote one word
    without being one syntactically."""
    leaves = st.sampled_from([Symbol(label) for label in ALPHABET] + [Epsilon(), EmptySet()])

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda pair: Concat(*pair)),
            st.tuples(children, children).map(lambda pair: Union(*pair)),
            children.map(Star),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@st.composite
def expressions_and_words(draw):
    """An expression and a word.  Most expressions start with part of the
    word, so that the walk has something to survive; some then branch into
    the rest of the word and an alternative, which it must refuse unless the
    alternative also starts with the rest of the word or is empty."""
    expression = draw(raw_expressions())
    side_word = draw(words(ALPHABET, max_size=4))
    shape = draw(st.sampled_from(["free", "prefixed", "branching"]))
    split = draw(st.integers(0, len(side_word)))
    head, rest = word(side_word[:split]), word(side_word[split:])
    if shape == "prefixed":
        expression = Concat(head, expression)
    elif shape == "branching":
        alternative = draw(raw_expressions(max_leaves=3))
        expression = Concat(head, Union(Concat(rest, expression), alternative))
    return expression, side_word


@given(expressions_and_words())
def test_walk_agrees_with_the_product_quotient(drawn):
    expression, side_word = drawn
    assert_walk_matches(expression, side_word)


@given(raw_expressions(), st.lists(words(ALPHABET, max_size=4), min_size=1, max_size=6))
def test_walks_sharing_one_table_agree_with_the_product_quotient(expression, side_words):
    after: dict = {}
    for side_word in side_words:
        assert_walk_matches(expression, side_word, after)


@pytest.mark.parametrize(
    "text, side_word",
    [
        ("a b c", ("a", "b")),  # survives: remainder c
        ("a b", ("a", "b")),  # survives: remainder ε
        ("a b (c + a)*", ("a", "b")),  # starred remainder
        ("a (b + c)", ("a", "b")),  # a c does not start with a b
        ("a + a b c", ("a", "b")),  # a is shorter than the side
        ("a b", ("a", "b", "c")),  # longer than every word of L
        ("b c", ("a",)),  # unreadable
        ("(a b)*", ("a", "b")),  # ε-accepting: ε does not start with a b
        ("%", ()),  # the empty side word against ε
        ("a*", ()),  # the empty side word against an ε-accepting star
        ("~", ()),  # empty language: no decomposition, even by ε
        ("a ~", ("a",)),  # empty language behind a readable prefix
        ("a (b + b)", ("a", "b")),  # one word, not syntactically
    ],
)
def test_walk_on_the_edge_cases(text, side_word):
    assert_walk_matches(parse(text), side_word)


def test_verdicts_of_the_edge_cases():
    def survives(text, side):
        return walked_quotient(parse(text), side) is not None

    assert survives("a b c", ("a", "b"))
    assert survives("a*", ())
    assert not survives("~", ())
    assert not survives("(a b)*", ("a", "b"))
    assert not survives("a b", ("a", "b", "c"))


# ---------------------------------------------------------------------------
# Prefix substitution: a word side denotes a prefix iff L(prefix) is that word.
# ---------------------------------------------------------------------------
@given(raw_expressions(max_leaves=5), words(ALPHABET, max_size=3))
def test_sides_denoting_agrees_with_equivalence(prefix, side_word):
    constraints = ConstraintSet([word_equality(side_word, ("z",))])
    matched = [side.word for side in rewriter._sides_denoting(prefix, constraints)]
    expected = equivalent(regex_to_nfa(prefix), regex_to_nfa(word(side_word)))
    assert (side_word in matched) == expected, (prefix, side_word)


@pytest.mark.parametrize(
    "prefix, side_word, denotes",
    [
        (Concat(Symbol("a"), Union(Symbol("b"), Symbol("b"))), ("a", "b"), True),
        (Concat(Union(Symbol("a"), Symbol("a")), Star(EmptySet())), ("a",), True),
        (Concat(Union(Symbol("a"), EmptySet()), Symbol("b")), ("a", "b"), True),
        (Concat(Symbol("a"), Union(Symbol("b"), Epsilon())), ("a", "b"), False),
        (Concat(Symbol("a"), Union(Symbol("b"), Symbol("c"))), ("a", "b"), False),
        (Concat(Symbol("a"), Star(EmptySet())), ("a",), True),
        (Union(Epsilon(), EmptySet()), (), True),
        (Concat(Symbol("a"), Star(Symbol("b"))), ("a",), False),
    ],
)
def test_sides_denoting_on_prefixes_that_are_not_plain_words(prefix, side_word, denotes):
    constraints = ConstraintSet([word_equality(side_word, ("z",))])
    matched = [side.word for side in rewriter._sides_denoting(prefix, constraints)]
    assert (side_word in matched) is denotes


# ---------------------------------------------------------------------------
# Word queries: decompositions by comparing words, no automaton.
# ---------------------------------------------------------------------------
def automaton_route(expression, constraints):
    """The printed decomposition candidates of ``expression`` through the
    walk, the quotient automaton and state elimination."""
    expression_nfa = regex_to_nfa(expression)
    live = expression_nfa.coreachable_states()
    after: dict = {}
    printed = []
    for side in constraints.prepared.equality_sides:
        remainder = rewriter._word_side_quotient(expression_nfa, side.word, after, live)
        if remainder is not None:
            rest = simplify(nfa_to_regex(remainder))
            printed.append(
                (
                    to_string(simplify(concat(side.other, rest))),
                    f"cached-decomposition via {side.equality}",
                )
            )
    return printed


def shortcut(expression, constraints):
    return [
        (to_string(candidate), origin)
        for candidate, origin, _premises in rewriter._cached_decomposition_candidates(
            expression, constraints
        )
    ]


@st.composite
def word_queries_and_equalities(draw):
    """A word query and a word-equality set that may have ε sides, drawn
    sometimes from the query's own prefixes so that decompositions exist."""
    query_word = draw(words(ALPHABET, max_size=4))
    some_word = st.one_of(
        words(ALPHABET, max_size=3),
        st.integers(0, len(query_word)).map(lambda end: query_word[:end]),
    )
    pairs = draw(st.lists(st.tuples(some_word, some_word), min_size=1, max_size=3))
    if not any(lhs or rhs for lhs, rhs in pairs):
        pairs.append((("a",), ()))
    return query_word, ConstraintSet([word_equality(lhs, rhs) for lhs, rhs in pairs])


@given(word_queries_and_equalities())
def test_word_query_shortcut_agrees_with_the_automaton_route(drawn):
    query_word, constraints = drawn
    expression = word(query_word)
    assert shortcut(expression, constraints) == automaton_route(expression, constraints)


def test_word_query_shortcut_keeps_the_epsilon_side():
    constraints = ConstraintSet([word_equality("a", ())])
    expression = parse("a b")
    # An ε side is no factor prefix: prefix substitution never emits a a b.
    substitutions = [
        to_string(candidate)
        for candidate, *_ in rewriter._prefix_substitution_candidates(expression, constraints)
    ]
    assert substitutions == ["b"]
    expected = [
        ("b", "cached-decomposition via a = %"),
        ("a a b", "cached-decomposition via a = %"),
    ]
    assert shortcut(expression, constraints) == expected
    assert automaton_route(expression, constraints) == expected
