"""Nondeterministic finite automata with ε-transitions.

The NFA is the workhorse of the paper's constructions: path-query evaluation
runs the product of the query NFA with the data graph (Section 2.2), the
implication procedure for general path constraints builds the product of all
constraint automata (Theorem 4.2), and the PTIME/PSPACE procedures of
Section 4.2 construct the ``RewriteTo`` automata by saturation.

States may be arbitrary hashable objects — integers, tuples, frozensets —
which keeps the product and subset constructions readable.  The empty string
``EPSILON`` is reserved as the ε label and may not be used as an edge label.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator

from ..exceptions import AutomatonError

State = Hashable
EPSILON = ""


@dataclass
class NFA:
    """An ε-NFA ``(Q, q0, A, Σ, δ)`` in the notation of Section 2.2.

    Attributes:
        states: the finite set of states ``Q``.
        alphabet: the input alphabet ``Σ`` (edge labels).
        initial: the start state ``s`` (a single state; use an ε-fan-out for
            multiple entry points).
        accepting: the set ``A`` of accepting states.
        transitions: ``δ`` as a nested mapping ``state -> label -> {states}``;
            the ε label is the empty string.
    """

    states: set[State] = field(default_factory=set)
    alphabet: set[str] = field(default_factory=set)
    initial: State = 0
    accepting: set[State] = field(default_factory=set)
    transitions: dict[State, dict[str, set[State]]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(set))
    )

    def __post_init__(self) -> None:
        # Normalize the transition structure into defaultdicts so that callers
        # can mutate freely without key-existence bookkeeping.
        normalized: dict[State, dict[str, set[State]]] = defaultdict(lambda: defaultdict(set))
        for source, by_label in self.transitions.items():
            for label, targets in by_label.items():
                normalized[source][label] |= set(targets)
        self.transitions = normalized
        self.states = set(self.states)
        self.states.add(self.initial)
        self.states |= set(self.accepting)
        for source, by_label in self.transitions.items():
            self.states.add(source)
            for label, targets in by_label.items():
                if label != EPSILON:
                    self.alphabet.add(label)
                self.states |= targets

    # -- construction ---------------------------------------------------------
    def add_state(self, state: State) -> State:
        self.states.add(state)
        return state

    def fresh_state(self, hint: str = "q") -> State:
        """Return a new state guaranteed not to collide with existing ones."""
        index = len(self.states)
        while (hint, index) in self.states:
            index += 1
        state = (hint, index)
        self.states.add(state)
        return state

    def add_transition(self, source: State, label: str, target: State) -> None:
        if label != EPSILON and not label:
            raise AutomatonError("edge labels must be non-empty strings")
        self.states.add(source)
        self.states.add(target)
        if label != EPSILON:
            self.alphabet.add(label)
        self.transitions[source][label].add(target)

    def add_word_path(self, source: State, word: Iterable[str], target: State) -> None:
        """Add a chain of fresh states spelling ``word`` from ``source`` to ``target``.

        An empty word becomes a single ε-transition.  Used by the pre*
        saturation (Lemma 4.5/4.7) and by Thompson-style constructions.
        """
        labels = list(word)
        if not labels:
            self.add_transition(source, EPSILON, target)
            return
        current = source
        for label in labels[:-1]:
            nxt = self.fresh_state("chain")
            self.add_transition(current, label, nxt)
            current = nxt
        self.add_transition(current, labels[-1], target)

    # -- execution ------------------------------------------------------------
    def epsilon_closure(self, states: Iterable[State]) -> frozenset[State]:
        """Return the ε-closure of a set of states."""
        closure = set(states)
        stack = list(closure)
        while stack:
            state = stack.pop()
            for target in self.transitions.get(state, {}).get(EPSILON, ()):
                if target not in closure:
                    closure.add(target)
                    stack.append(target)
        return frozenset(closure)

    def step(self, states: Iterable[State], label: str) -> frozenset[State]:
        """One synchronous move on ``label`` followed by ε-closure."""
        moved: set[State] = set()
        for state in states:
            moved |= self.transitions.get(state, {}).get(label, set())
        return self.epsilon_closure(moved)

    def initial_closure(self) -> frozenset[State]:
        return self.epsilon_closure({self.initial})

    def run(self, word: Iterable[str]) -> frozenset[State]:
        """Return the set of states reachable after reading ``word``."""
        current = self.initial_closure()
        for label in word:
            current = self.step(current, label)
            if not current:
                return frozenset()
        return current

    def run_shared(
        self, word: tuple[str, ...], after: dict[tuple[str, ...], frozenset[State]]
    ) -> frozenset[State]:
        """:meth:`run` for a batch of words that share prefixes.

        ``after`` maps every prefix read so far to its state set; the longest
        known prefix of ``word`` is the starting point and the table is
        extended with the rest.  The caller owns the table (start from ``{}``)
        and must drop it once the automaton gains a transition.
        """
        known = len(word)
        while known and word[:known] not in after:
            known -= 1
        current = after[word[:known]] if known else self.initial_closure()
        for end in range(known + 1, len(word) + 1):
            if current:
                current = self.step(current, word[end - 1])
            after[word[:end]] = current
        return current

    def run_forced(
        self,
        word: tuple[str, ...],
        after: "dict[tuple[str, ...], frozenset[State] | None]",
        live: "set[State]",
    ) -> "frozenset[State] | None":
        """:meth:`run` of ``word`` when every word of the language starts with it.

        ``None`` when the language is empty or has a word that does not begin
        with ``word``.  ``live`` is :meth:`coreachable_states`; reading
        ``word`` fails at a step whose state set accepts (a shorter word is in
        the language), has a live move on another label, or keeps no live
        state.  ``after`` is shared between words like :meth:`run_shared`'s
        table, a failed prefix being recorded as ``None``.
        """
        if () not in after:
            start = self.initial_closure()
            after[()] = None if live.isdisjoint(start) else start
        known = len(word)
        while word[:known] not in after:
            known -= 1
        current = after[word[:known]]
        for end in range(known + 1, len(word) + 1):
            if current is not None:
                label = word[end - 1]
                if not self.accepting.isdisjoint(current) or self.live_labels(
                    current, live
                ) - {label}:
                    current = None
                else:
                    current = self.step(current, label)
                    if live.isdisjoint(current):
                        current = None
            after[word[:end]] = current
        return current

    def live_labels(self, states: Iterable[State], live: "set[State]") -> set[str]:
        """The labels on which some of ``states`` moves into ``live``."""
        labels: set[str] = set()
        for state in states:
            for label, targets in self.transitions.get(state, {}).items():
                if label != EPSILON and label not in labels and not live.isdisjoint(targets):
                    labels.add(label)
        return labels

    def accepts(self, word: Iterable[str]) -> bool:
        """Membership test: does the automaton accept ``word``?"""
        return bool(self.run(word) & self.accepting)

    def states_after(self, word: Iterable[str]) -> frozenset[State]:
        """Alias of :meth:`run`, matching the paper's ``δ(s, w)`` notation."""
        return self.run(word)

    # -- reachability / pruning -----------------------------------------------
    def reachable_states(self) -> set[State]:
        """States reachable from the initial state (over any labels and ε)."""
        seen = {self.initial}
        queue: deque[State] = deque([self.initial])
        while queue:
            state = queue.popleft()
            for targets in self.transitions.get(state, {}).values():
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        queue.append(target)
        return seen

    def coreachable_states(self) -> set[State]:
        """States from which some accepting state is reachable."""
        reverse: dict[State, set[State]] = defaultdict(set)
        for source, by_label in self.transitions.items():
            for targets in by_label.values():
                for target in targets:
                    reverse[target].add(source)
        seen = set(self.accepting)
        queue: deque[State] = deque(self.accepting)
        while queue:
            state = queue.popleft()
            for source in reverse.get(state, ()):
                if source not in seen:
                    seen.add(source)
                    queue.append(source)
        return seen

    def trim(self) -> "NFA":
        """Return an equivalent NFA keeping only useful (reachable & co-reachable) states.

        The initial state is always kept so the result remains well-formed
        even when the language is empty.
        """
        useful = self.reachable_states() & self.coreachable_states()
        useful.add(self.initial)
        trimmed = NFA(initial=self.initial, alphabet=set(self.alphabet))
        trimmed.add_state(self.initial)
        for source, by_label in self.transitions.items():
            if source not in useful:
                continue
            for label, targets in by_label.items():
                for target in targets:
                    if target in useful:
                        trimmed.add_transition(source, label, target)
        trimmed.accepting = {state for state in self.accepting if state in useful}
        trimmed.states |= useful
        return trimmed

    # -- misc -----------------------------------------------------------------
    def transition_count(self) -> int:
        return sum(
            len(targets)
            for by_label in self.transitions.values()
            for targets in by_label.values()
        )

    def iter_transitions(self) -> Iterator[tuple[State, str, State]]:
        for source, by_label in self.transitions.items():
            for label, targets in by_label.items():
                for target in targets:
                    yield (source, label, target)

    def relabel_states(self) -> "NFA":
        """Return an isomorphic NFA whose states are consecutive integers.

        Useful after constructions that produce deeply nested tuple states
        (products of products), both for readability and for speed.
        """
        mapping: dict[State, int] = {}

        def rename(state: State) -> int:
            if state not in mapping:
                mapping[state] = len(mapping)
            return mapping[state]

        renamed = NFA(initial=rename(self.initial), alphabet=set(self.alphabet))
        for state in self.states:
            renamed.add_state(rename(state))
        for source, label, target in self.iter_transitions():
            renamed.add_transition(rename(source), label, rename(target))
        renamed.accepting = {rename(state) for state in self.accepting}
        return renamed

    def copy(self) -> "NFA":
        duplicate = NFA(initial=self.initial, alphabet=set(self.alphabet))
        duplicate.states = set(self.states)
        duplicate.accepting = set(self.accepting)
        for source, label, target in self.iter_transitions():
            duplicate.add_transition(source, label, target)
        return duplicate

    def __len__(self) -> int:
        return len(self.states)


def single_word_nfa(word: Iterable[str]) -> NFA:
    """Return an NFA accepting exactly the given word (possibly ε)."""
    nfa = NFA(initial=0)
    labels = list(word)
    for index, label in enumerate(labels):
        nfa.add_transition(index, label, index + 1)
    nfa.accepting = {len(labels)}
    nfa.states.add(len(labels))
    return nfa
