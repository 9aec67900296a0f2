"""Lowering a regular path query to a minimal integer DFA over a graph's labels.

The baseline evaluator re-derives NFA state *sets* at every edge of the
product search.  The engine instead pays the subset construction once per
query and flattens the result into a dense table

    ``table[state][label_id] -> next_state  (or -1)``

whose columns are the *graph's* interned label ids.  :func:`lower_query`
goes there in one pass from the query's Glushkov positions
(:func:`repro.automata.glushkov.glushkov_positions`):

* **Subset construction on int bitsets**, over only the labels the graph
  has.  A position whose label the graph lacks can never be read, so it is
  dropped before any subset is built; graph labels the query does not name
  are ``-1`` in every row, and the executor never follows those edge
  partitions at all.  Past :data:`MAX_DFA_STATES` subsets the lowering
  raises :class:`~repro.exceptions.DeterminizationBudgetError`.
* **Dead states go**: a subset that cannot reach acceptance over the
  graph's labels is dropped with every move into it, which cuts the product
  search off exactly where the baseline would keep expanding
  non-empty-but-hopeless NFA state sets.  A table therefore has no dead row,
  except the lone initial state of a query whose language is empty here.
* **Hopcroft on the partial DFA**, with the missing moves going to an
  implicit sink that is never built (it is the one block left off the
  initial worklist, so its predecessors are never needed).
* **Breadth-first numbering** from the initial state, labels taken in name
  order, as :meth:`repro.automata.dfa.DFA.relabel_states` numbers the
  paper's minimal DFA.  Where that DFA names only labels the graph has and
  has no dead state on it, the two tables are identical.

The paper's ``nfa_to_dfa`` and ``minimize_dfa`` stay in
:mod:`repro.automata` as the oracle this lowering is tested against
(``tests/engine/test_lowering.py``).

Compiled tables are cached in an LRU keyed by the canonical expression string
and the graph's label-interner *fingerprint* (the id-ordered label tuple).
Label ids are append-only, so within one graph's lifetime a table is
invalidated only when a genuinely new label shows up — and across full
rebuilds the fingerprint also catches *permuted* label interning orders,
which a label-count key would silently conflate (serving a transition table
whose columns point at the wrong labels).  Correctness therefore no longer
depends on anyone remembering to clear the cache around a rebuild.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass

from ..automata.glushkov import glushkov_positions
from ..exceptions import DeterminizationBudgetError
from ..query.path_query import RegularPathQuery
from ..regex import Regex, to_string
from .csr import CompiledGraph
from .telemetry import witnessed_lock

DEAD = -1

#: The most subset states one lowering may build before it gives up.  A
#: deployment-wide bound, not a per-call knob: the site and web workloads'
#: queries need fewer than ten, and ``(a + b)* a (a + b)^k`` needs ``2^(k+1)``.
MAX_DFA_STATES = 4096


@dataclass(frozen=True)
class CompiledQuery:
    """A query lowered against one graph's label universe."""

    expression: str
    initial: int
    accepting: tuple[bool, ...]
    table: tuple[array, ...]
    # Per state: live (label_id, next_state) pairs, precomputed so that the
    # executor's inner loop iterates only over useful labels.
    moves: tuple[tuple[tuple[int, int], ...], ...]
    label_count: int
    dfa_size: int
    # Subset states built before pruning and minimization (observability).
    determinized: int

    @property
    def num_states(self) -> int:
        return len(self.accepting)

    def accepts_empty_word(self) -> bool:
        return self.accepting[self.initial]

    @classmethod
    def from_table(
        cls,
        *,
        expression: str,
        initial: int,
        accepting: tuple[bool, ...],
        table: tuple[array, ...],
        label_count: int,
        dfa_size: int,
        determinized: "int | None" = None,
    ) -> "CompiledQuery":
        """Rebuild a compiled query from its serialized fields.

        ``moves`` is fully determined by ``table`` and is re-derived rather
        than stored, so snapshots carry one copy of the transition relation.
        Any table the executors accept may come back this way, dead rows
        included (snapshots written before dead states were pruned);
        ``determinized`` defaults to ``dfa_size`` where it was not recorded.
        """
        return cls(
            expression=expression,
            initial=initial,
            accepting=accepting,
            table=table,
            moves=_moves_from_table(table),
            label_count=label_count,
            dfa_size=dfa_size,
            determinized=dfa_size if determinized is None else determinized,
        )


def _moves_from_table(table: tuple[array, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per state, the live ``(label_id, next_state)`` pairs of a table."""
    return tuple(
        tuple((lid, target) for lid, target in enumerate(row) if target != DEAD)
        for row in table
    )


def _expression_of(query: "RegularPathQuery | Regex | str") -> Regex:
    if isinstance(query, RegularPathQuery):
        return query.expression
    if isinstance(query, Regex):
        return query
    return RegularPathQuery.from_string(query).expression


def _bits(positions) -> int:
    mask = 0
    for position in positions:
        mask |= 1 << position
    return mask


def _determinize(
    expression: Regex, graph: CompiledGraph
) -> "tuple[list[list[tuple[int, int]]], list[bool]]":
    """Subset construction over the Glushkov positions of ``expression``.

    A state is an int whose bits are positions (bit ``0``: the initial
    state).  Returns, per state in discovery order (state ``0`` initial),
    its moves as ``(label_id, target)`` pairs in label-name order, and
    whether it accepts.
    """
    labels, follow, root = glushkov_positions(expression)
    by_label: dict[str, int] = {}  # graph-known label -> its positions
    for position, label in labels.items():
        if graph.label_id(label) is not None:
            by_label[label] = by_label.get(label, 0) | 1 << position
    readable = 0
    for mask in by_label.values():
        readable |= mask
    follow_of = [0] * (len(labels) + 1)
    follow_of[0] = _bits(root.first) & readable
    for position, successors in follow.items():
        follow_of[position] = _bits(successors) & readable
    accept_mask = _bits(root.last) | (1 if root.nullable else 0)
    columns = [(graph.label_id(label), by_label[label]) for label in sorted(by_label)]

    index = {1: 0}
    subsets = [1]
    rows: list[list[tuple[int, int]]] = []
    for subset in subsets:  # grows while it is walked: breadth-first
        reach = 0
        rest = subset
        while rest:
            low = rest & -rest
            reach |= follow_of[low.bit_length() - 1]
            rest ^= low
        row = []
        if reach:
            for lid, mask in columns:
                target = reach & mask
                if target:
                    state = index.get(target)
                    if state is None:
                        if len(subsets) == MAX_DFA_STATES:
                            raise DeterminizationBudgetError(
                                f"{to_string(expression)!r} needs more than "
                                f"{MAX_DFA_STATES} DFA states"
                            )
                        state = index[target] = len(subsets)
                        subsets.append(target)
                    row.append((lid, state))
        rows.append(row)
    return rows, [bool(subset & accept_mask) for subset in subsets]


def _live_states(rows: "list[list[tuple[int, int]]]", accepting: "list[bool]") -> "list[bool]":
    """Which states can reach an accepting one (reverse search)."""
    predecessors: list[list[int]] = [[] for _ in rows]
    for source, row in enumerate(rows):
        for _, target in row:
            predecessors[target].append(source)
    live = list(accepting)
    stack = [state for state, flag in enumerate(live) if flag]
    while stack:
        for source in predecessors[stack.pop()]:
            if not live[source]:
                live[source] = True
                stack.append(source)
    return live


def _coarsest_blocks(
    rows: "list[list[tuple[int, int]]]", accepting: "list[bool]", live: "list[bool]"
) -> "list[int]":
    """Hopcroft's refinement over the live states: a block id per state.

    Missing moves go to an implicit sink, a block of its own that is never
    split and never a splitter: refining by every other block of the
    initial partition already separates by it.  Dead states get ``-1``.
    """
    inverse: dict[tuple[int, int], list[int]] = {}
    for source, row in enumerate(rows):
        if live[source]:
            for move in row:
                inverse.setdefault(move, []).append(source)
    block_of = [-1] * len(rows)
    blocks: list[set[int]] = []
    for flag in (True, False):
        members = {s for s, ok in enumerate(live) if ok and accepting[s] == flag}
        if members:
            for state in members:
                block_of[state] = len(blocks)
            blocks.append(members)
    lids = sorted({lid for lid, _ in inverse})
    pending = list(range(len(blocks)))
    waiting = set(pending)
    while pending:
        chosen = pending.pop()
        waiting.discard(chosen)
        splitter = tuple(blocks[chosen])
        for lid in lids:
            hit: dict[int, list[int]] = {}
            for target in splitter:
                for source in inverse.get((lid, target), ()):
                    hit.setdefault(block_of[source], []).append(source)
            for block, members in hit.items():
                remaining = blocks[block]
                if len(members) == len(remaining):
                    continue
                moved = set(members)
                remaining -= moved
                split = len(blocks)
                blocks.append(moved)
                for state in moved:
                    block_of[state] = split
                if block in waiting or len(moved) <= len(remaining):
                    added = split
                else:
                    added = block
                pending.append(added)
                waiting.add(added)
    return block_of


def _lower(expression: Regex, text: str, graph: CompiledGraph) -> CompiledQuery:
    """:func:`lower_query` for a parsed ``expression`` printed as ``text``."""
    rows, accepting = _determinize(expression, graph)
    live = _live_states(rows, accepting)
    label_count = graph.num_labels
    if not live[0]:  # the language is empty over the graph's labels
        return CompiledQuery(
            expression=text,
            initial=0,
            accepting=(False,),
            table=(array("q", [DEAD]) * label_count,),
            moves=((),),
            label_count=label_count,
            dfa_size=1,
            determinized=len(rows),
        )
    block_of = _coarsest_blocks(rows, accepting, live)
    # Breadth-first over the quotient, one representative per block; rows
    # already list their moves in label-name order.
    number = {block_of[0]: 0}
    representatives = [0]
    for representative in representatives:
        for _, target in rows[representative]:
            block = block_of[target]
            if block >= 0 and block not in number:
                number[block] = len(representatives)
                representatives.append(target)
    table = []
    moves = []
    for representative in representatives:
        kept = sorted(
            (lid, number[block_of[target]])
            for lid, target in rows[representative]
            if block_of[target] >= 0
        )
        row = array("q", [DEAD]) * label_count
        for lid, target in kept:
            row[lid] = target
        table.append(row)
        moves.append(tuple(kept))
    return CompiledQuery(
        expression=text,
        initial=0,
        accepting=tuple(accepting[state] for state in representatives),
        table=tuple(table),
        moves=tuple(moves),
        label_count=label_count,
        dfa_size=len(representatives),
        determinized=len(rows),
    )


def lower_query(
    query: "RegularPathQuery | Regex | str", graph: CompiledGraph
) -> CompiledQuery:
    """Compile ``query`` into a minimal integer transition table over
    ``graph``'s labels (see the module docstring)."""
    expression = _expression_of(query)
    return _lower(expression, to_string(expression), graph)


def query_key(query: "RegularPathQuery | Regex | str") -> str:
    """Canonical cache key for a query: its printed expression."""
    return to_string(_expression_of(query))


class QueryCompiler:
    """LRU cache of compiled queries, keyed by expression and label universe.

    The label half of the key is the graph's interner fingerprint (the
    id-ordered label tuple), not the label count: two graphs that intern the
    same labels in a *different order* must never share a transition table,
    even though their counts agree.  Keying on the fingerprint makes stale
    hits structurally impossible — a full rebuild that happens to preserve
    the interning order keeps the cache warm, and one that permutes it
    simply misses.

    The cache is thread-safe: the serving layer
    (:mod:`repro.engine.serving`) compiles from admission-queue flushes that
    run on a thread pool, so the LRU bookkeeping (lookup + move-to-end +
    eviction) is guarded by a lock.  The actual subset construction of a
    miss runs *outside* the lock — two threads racing on the same fresh
    query may both lower it, but both results are identical and the second
    insert simply wins.
    """

    # ``hits``/``misses`` are ``:mutate``: incremented under the lock, but
    # the registry gauges do lock-free point reads of one int each.
    GUARDED_BY = {
        "_cache": "_lock",
        "hits": "_lock:mutate",
        "misses": "_lock:mutate",
    }

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("compile cache capacity must be positive")
        self.capacity = capacity
        self._cache: "OrderedDict[tuple[str, tuple[str, ...]], CompiledQuery]" = (
            OrderedDict()
        )
        self._lock = witnessed_lock("QueryCompiler._lock")
        self.hits = 0
        self.misses = 0

    def compile(
        self, query: "RegularPathQuery | Regex | str", graph: CompiledGraph
    ) -> CompiledQuery:
        expression = _expression_of(query)
        text = to_string(expression)
        key = (text, graph.labels_fingerprint())
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
        compiled = _lower(expression, text, graph)
        with self._lock:
            self._cache[key] = compiled
            if len(self._cache) > self.capacity:
                self._cache.popitem(last=False)
        return compiled

    # -- persistence ----------------------------------------------------------
    def warm_entries(self, graph: CompiledGraph) -> list[tuple[str, CompiledQuery]]:
        """The cached ``(query key, compiled query)`` pairs valid on ``graph``.

        Entries keyed to other label fingerprints (LRU leftovers from before
        a rebuild) are skipped — a snapshot should only ship tables that the
        saved graph can actually serve.
        """
        fingerprint = graph.labels_fingerprint()
        with self._lock:
            return [
                (text, compiled)
                for (text, key_fingerprint), compiled in self._cache.items()
                if key_fingerprint == fingerprint
            ]

    def seed(
        self, query_text: str, compiled: CompiledQuery, fingerprint: tuple[str, ...]
    ) -> None:
        """Insert a restored entry under ``(query_text, fingerprint)``.

        Used by snapshot warm-start; counts as neither a hit nor a miss.
        Entries whose fingerprint does not match the live graph are harmless
        — they can never be returned by :meth:`compile` — but seeding still
        respects the LRU capacity.
        """
        with self._lock:
            self._cache[(query_text, fingerprint)] = compiled
            self._cache.move_to_end((query_text, fingerprint))
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)

    def __len__(self) -> int:
        return len(self._cache)  # repro: allow(LockDiscipline) dict len() is atomic under the GIL

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
