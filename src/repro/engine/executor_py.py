"""Pure-Python product-BFS execution over a compiled graph and query.

This module is the fallback (and reference) implementation behind the
backend dispatcher in :mod:`repro.engine.executor`; the numpy-vectorized
twin lives in :mod:`repro.engine.executor_np` and must return identical
results.  Three entry points, all working purely on dense integers:

* :func:`run_single` — BFS over the DFA × graph product for one source,
  recording parent pointers so a shortest witness path can be rebuilt for
  every answer (mirroring the baseline evaluator's witnesses);
* :func:`run_batch` — the batched mode that makes the engine worth having:
  every visited product pair ``(state, node)`` carries a *bitmask* of the
  sources that reach it, so the traversal of shared graph regions is done
  once for the whole batch instead of once per source.  With
  ``witnesses=True`` the returned :class:`BatchRun` can additionally
  reconstruct, on demand, a witness path for any reached ``(source,
  target)`` pair from the per-bit reachability the masks record.  The
  ``seeds``/``known`` parameters open the same traversal to the sharded
  engine's supersteps: ``seeds`` injects source bits at arbitrary ``(state,
  node)`` pairs (imported cross-shard frontiers), ``known`` pre-loads
  already-derived facts *without* re-enqueueing them (the semi-naive
  initialization that stops a superstep from re-flooding earlier rounds'
  work — pass the previous run's :class:`PyFrontier` to continue its state
  in place), and :attr:`BatchRun.frontier` exports the final facts;
* :func:`run_all_pairs` — the batch mode applied to every node, backing
  ``Engine.query_all`` (and through it ``evaluate_all_sources``, which
  constraint-satisfaction checking uses to quantify over sites).

Product pairs are packed as ``state * num_nodes + node`` into flat
``bytearray``/list structures; no per-step hashing or tuple boxing survives
into the hot loops.  Both executors consult the graph's per-label tombstone
sets so incrementally deleted edges are never traversed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .compiled_query import CompiledQuery
from .csr import CompiledGraph

# Streaming ``answer_sink`` facts are buffered and flushed in per-bit
# groups every this many queue expansions: one downstream call then
# covers a whole group of facts, without letting answers sit longer
# than a sliver of the traversal.
_SINK_FLUSH_EVERY = 64


@dataclass
class SingleRun:
    """Result of one single-source execution, in node-id space."""

    answers: set[int] = field(default_factory=set)
    witness_paths: dict[int, tuple[int, ...]] = field(default_factory=dict)
    visited_pairs: int = 0
    visited_objects: int = 0
    backend: str = "python"
    # Wall-clock seconds of the executor call, stamped by the dispatcher
    # (:mod:`repro.engine.executor`); telemetry-only, never compared.
    elapsed: float = field(default=0.0, compare=False)


@dataclass
class BatchRun:
    """Result of one batched execution, in node-id space.

    ``answers[i]`` is the answer set of ``sources[i]``; sources appearing
    more than once share one bitmask bit (and one result set).  When the run
    was executed with ``witnesses=True``, :meth:`witness` rebuilds a label
    word for any ``(source, target)`` answer pair on demand.
    """

    sources: tuple[int, ...] = ()
    answers: list[set[int]] = field(default_factory=list)
    visited_pairs: int = 0
    visited_objects: int = 0
    backend: str = "python"
    # Wall-clock seconds of the executor call, stamped by the dispatcher
    # (:mod:`repro.engine.executor`); telemetry-only, never compared.
    elapsed: float = field(default=0.0, compare=False)
    witness_resolver: "Callable[[int, int], tuple[int, ...] | None] | None" = field(
        default=None, repr=False, compare=False
    )
    # Backend-native cumulative mask state (PyFrontier / NpFrontier): the
    # sharded engine's handle for exporting facts and re-seeding supersteps.
    frontier: "object | None" = field(default=None, repr=False, compare=False)
    # Kernel work counts, set once per run (never per edge) and copied onto
    # the run's telemetry span by the dispatcher: the frontier expansions
    # the fixpoint took (level-synchronous rounds on the numpy and packed
    # kernels, BFS levels of the queue on this one), the product edges
    # those expansions read, and the widest frontier — in product pairs —
    # any of them carried.  Executor-specific, so never compared.
    rounds: int = field(default=0, compare=False)
    edges_gathered: int = field(default=0, compare=False)
    peak_frontier_rows: int = field(default=0, compare=False)

    def work_counts(self) -> "dict[str, int]":
        return {
            "rounds": self.rounds,
            "edges_gathered": self.edges_gathered,
            "peak_frontier_rows": self.peak_frontier_rows,
        }

    def witness(self, source: int, target: int) -> "tuple[int, ...] | None":
        """A witness label-id word for ``target in answers-of(source)``.

        Returns ``None`` when ``target`` is not an answer of ``source`` (or
        ``source`` was not part of the batch).  Only available on runs made
        with ``witnesses=True``, and only while the graph is unchanged since
        the run: reconstruction replays the traversal's reachability against
        the live adjacency, so a mutated graph raises instead of silently
        resolving against a different edge set.
        """
        if self.witness_resolver is None:
            raise ValueError("run_batch was not executed with witnesses=True")
        return self.witness_resolver(source, target)


class PyFrontier:
    """Cumulative mask state of one (or a chain of) batched runs.

    The sharded engine's unit of exchange: ``masks`` holds, per packed
    ``(state, node)`` pair, the arbitrary-precision bitmask of sources that
    reach it; ``changed`` remembers which pairs grew during the *last* run.
    Passing a frontier back into :func:`run_batch` as ``known`` transfers
    ownership of the state — the executor continues the fixpoint in place
    (semi-naive: known bits never re-propagate), so supersteps pay no
    conversion at all.  The numpy twin is
    :class:`repro.engine.executor_np.NpFrontier`; both expose the same four
    methods, always speaking arbitrary-precision int masks.

    ``version`` stamps the graph version the masks were derived against.
    :func:`run_batch` refuses to continue a frontier whose stamp no longer
    matches the live graph — facts derived before an ``add_edge`` /
    ``remove_edge`` may be wrong afterwards, so reuse across a version bump
    raises instead of silently serving a mix of old and new reachability.
    """

    __slots__ = ("masks", "n", "changed", "version", "accept_union")

    def __init__(
        self,
        masks: "list[int]",
        n: int,
        changed: "set[int]",
        version: "int | None" = None,
        accept_union: "list[int] | None" = None,
    ) -> None:
        self.masks = masks
        self.n = n
        self.changed = changed
        self.version = version
        # Streaming chains hand their per-node accepting-bit union along
        # with the masks, so a continued run resumes at-most-once
        # reporting without rescanning every accepting pair (None when
        # the producing run had no ``answer_sink``).
        self.accept_union = accept_union

    def mask_at(self, state: int, node: int) -> int:
        """The current source bitmask of one product pair."""
        return self.masks[state * self.n + node]

    def items(
        self,
        fresh_only: bool = False,
        restrict: "Sequence[int] | None" = None,
    ) -> "Iterable[tuple[int, int, int]]":
        """Nonzero ``(state, node, mask)`` facts; optionally only pairs that
        grew during the last run, and/or only the given nodes (the sharded
        engine restricts exports to its ghost nodes)."""
        n = self.n
        masks = self.masks
        if fresh_only:
            keys: "Iterable[int]" = sorted(self.changed)
        else:
            keys = (key for key, mask in enumerate(masks) if mask)
        if restrict is not None:
            wanted = set(restrict)
            keys = (key for key in keys if key % n in wanted)
        for key in keys:
            mask = masks[key]
            if mask:
                yield key // n, key % n, mask

    def per_bit_answers(
        self,
        accepting: "Sequence[bool]",
        num_bits: int,
        skip_nodes: "frozenset[int] | set[int]" = frozenset(),
    ) -> "list[set[int]]":
        """Per source bit, the nodes reached in an accepting state."""
        per_bit: "list[set[int]]" = [set() for _ in range(num_bits)]
        n = self.n
        masks = self.masks
        for state, accepts in enumerate(accepting):
            if not accepts:
                continue
            base = state * n
            for node in range(n):
                mask = masks[base + node]
                if not mask or node in skip_nodes:
                    continue
                while mask:
                    low = mask & -mask
                    per_bit[low.bit_length() - 1].add(node)
                    mask ^= low
        return per_bit

    def counts(
        self, skip_nodes: "frozenset[int] | set[int]" = frozenset()
    ) -> "tuple[int, int]":
        """``(nonzero pairs, touched nodes)``, skipping the given nodes."""
        pairs = 0
        touched: set[int] = set()
        n = self.n
        for key, mask in enumerate(self.masks):
            if not mask:
                continue
            node = key % n
            if node in skip_nodes:
                continue
            pairs += 1
            touched.add(node)
        return pairs, len(touched)


def _targets_of(graph: CompiledGraph, node: int, label_id: int) -> "Sequence[int]":
    """All live targets of one node under one label (CSR − tombstones + overflow)."""
    buffer, lo, hi = graph.successor_slice(node, label_id)
    dead = graph.dead_positions(label_id)
    if dead:
        targets: "Sequence[int]" = [
            buffer[position] for position in range(lo, hi) if position not in dead
        ]
    else:
        targets = buffer[lo:hi]
    extra = graph.overflow_successors(node, label_id)
    if extra is not None:
        targets = list(targets) + extra
    return targets


def restricted_witness(
    graph: CompiledGraph,
    query: CompiledQuery,
    has_pair: Callable[[int], bool],
    source: int,
    target: int,
) -> "tuple[int, ...] | None":
    """Shortest witness word for ``(source, target)`` within a reached region.

    ``has_pair(packed)`` must answer whether the batched traversal reached the
    product pair for this source's bit.  Every pair on any product path from
    ``(initial, source)`` is reachable from it, so restricting the BFS to the
    bit's region loses no path — the reconstruction explores only pairs the
    batch already proved relevant, and the first accepting pair found at
    ``target`` closes a shortest witness.
    """
    n = graph.num_nodes
    accepting = query.accepting
    moves = query.moves
    start = query.initial * n + source
    if accepting[query.initial] and target == source:
        return ()
    parents: dict[int, "tuple[int, int] | None"] = {start: None}
    queue: deque[int] = deque([start])
    while queue:
        key = queue.popleft()
        state, node = divmod(key, n)
        for label_id, next_state in moves[state]:
            base = next_state * n
            for successor in _targets_of(graph, node, label_id):
                successor_key = base + successor
                if successor_key in parents or not has_pair(successor_key):
                    continue
                parents[successor_key] = (key, label_id)
                if accepting[next_state] and successor == target:
                    labels: list[int] = []
                    walk = successor_key
                    while True:
                        parent = parents[walk]
                        if parent is None:
                            break
                        walk, parent_label = parent
                        labels.append(parent_label)
                    labels.reverse()
                    return tuple(labels)
                queue.append(successor_key)
    return None


def run_single(
    graph: CompiledGraph, query: CompiledQuery, source: int
) -> SingleRun:
    """BFS the product from one source node, with witness parent pointers."""
    n = graph.num_nodes
    run = SingleRun()
    if n == 0 or source < 0 or source >= n:
        return run
    accepting = query.accepting
    moves = query.moves
    dead_of = graph.dead_positions
    start = query.initial * n + source
    visited = bytearray(query.num_states * n)
    visited[start] = 1
    seen_nodes = bytearray(n)
    seen_nodes[source] = 1
    run.visited_objects = 1
    parents: dict[int, tuple[int, int]] = {}
    first_accept: dict[int, int] = {}
    if accepting[query.initial]:
        run.answers.add(source)
        first_accept[source] = start
    queue: deque[int] = deque([start])
    while queue:
        packed = queue.popleft()
        run.visited_pairs += 1
        state, node = divmod(packed, n)
        for label_id, next_state in moves[state]:
            base = next_state * n
            buffer, lo, hi = graph.successor_slice(node, label_id)
            dead = dead_of(label_id)
            if dead:
                targets: Sequence[int] = [
                    buffer[position] for position in range(lo, hi) if position not in dead
                ]
            else:
                targets = buffer[lo:hi]
            extra = graph.overflow_successors(node, label_id)
            if extra is not None:
                targets = list(targets) + extra
            for target in targets:
                key = base + target
                if visited[key]:
                    continue
                visited[key] = 1
                parents[key] = (packed, label_id)
                if not seen_nodes[target]:
                    seen_nodes[target] = 1
                    run.visited_objects += 1
                if accepting[next_state] and target not in run.answers:
                    run.answers.add(target)
                    first_accept[target] = key
                queue.append(key)
    for answer, key in first_accept.items():
        labels: list[int] = []
        while key != start:
            key, label_id = parents[key]
            labels.append(label_id)
        labels.reverse()
        run.witness_paths[answer] = tuple(labels)
    return run


def run_batch(
    graph: CompiledGraph,
    query: CompiledQuery,
    sources: Sequence[int],
    *,
    witnesses: bool = False,
    seeds: "Mapping[tuple[int, int], int] | None" = None,
    known: "Mapping[tuple[int, int], int] | PyFrontier | None" = None,
    num_bits: "int | None" = None,
    answer_sink: "Callable[[int, Sequence[int]], None] | None" = None,
) -> BatchRun:
    """Evaluate one query from many sources in a single shared traversal.

    ``seeds`` maps ``(state, node)`` pairs to source bitmasks injected (and
    enqueued) on top of the sources' initial-state bits — the sharded
    engine's imported cross-shard frontier.  ``known`` pre-loads masks that
    were already derived by earlier supersteps *without* enqueueing them, so
    propagation stops as soon as it re-enters known territory (semi-naive);
    passing the previous run's :attr:`BatchRun.frontier` transfers that
    state wholesale (no conversion, the prior run must not be reused).
    ``num_bits`` widens the mask universe beyond ``len(sources)`` for seeds
    carrying higher global bit positions (the pure-Python masks are
    arbitrary-precision ints, so it is accepted for API symmetry with the
    numpy executor and otherwise ignored).

    ``answer_sink`` streams accepting facts *during* the fixpoint: it is
    called as ``answer_sink(bit, nodes)`` — one source bit, the nodes that
    bit newly reached in an accepting state.  Facts are buffered and
    flushed in per-bit groups every ``_SINK_FLUSH_EVERY`` queue
    expansions (and at the fixpoint's end), so the per-call cost
    downstream is amortized across many facts without holding answers
    back longer than a sliver of the traversal.  Each ``(bit, node)``
    fact is reported at most once per run, and bits that were already
    accepting in a continued ``known`` frontier are never re-reported —
    so across a chain of continued runs the union of everything streamed
    equals the final accepting facts.  The sink runs on the executor's
    thread and must be cheap; exceptions it raises abort the run.
    """
    n = graph.num_nodes
    run = BatchRun(sources=tuple(sources))
    run.answers = [set() for _ in sources]
    # A run given only ``known`` still validates and re-exports the handle
    # (the fixpoint just has nothing new to expand).
    if n == 0 or (not sources and not seeds and known is None):
        return run
    if witnesses and (seeds or known):
        raise ValueError("witnesses=True is not supported with seeds/known frontiers")
    # Distinct sources share one bitmask bit; duplicate entries in the input
    # share the same result set object at collection time.
    bit_of: dict[int, int] = {}
    for source in sources:
        if source not in bit_of:
            bit_of[source] = len(bit_of)

    num_states = query.num_states
    moves = query.moves
    accepting = query.accepting
    dead_of = graph.dead_positions
    if isinstance(known, PyFrontier):
        if known.n != n or len(known.masks) != num_states * n:
            raise ValueError("known frontier does not match this graph/query")
        if known.version is not None and known.version != graph.version:
            raise ValueError(
                "known frontier is stale: the graph mutated since it was "
                "derived (re-run the batch instead of continuing the handle)"
            )
        masks = known.masks  # ownership transfer: continued in place
    else:
        masks = [0] * (num_states * n)
        if known:
            for (state, node), mask in known.items():
                masks[state * n + node] |= mask
    # Streaming: the per-node union of bits already known to be accepting.
    # Seeding it from the pre-run masks is what makes continued frontiers
    # report only genuinely new facts (the semi-naive property, for answers).
    accept_union: "list[int] | None" = None
    # Newly accepting facts gather here between sink flushes, grouped by
    # source bit; a flush hands each group downstream in one call.
    sink_bucket: "dict[int, list[int]]" = {}
    since_flush = 0

    def flush_sink() -> None:
        for bit, group in sink_bucket.items():
            answer_sink(bit, group)
        sink_bucket.clear()

    if answer_sink is not None:
        if isinstance(known, PyFrontier):
            accept_union = known.accept_union
        if accept_union is None:
            accept_union = [0] * n
            # A fresh run's masks are still empty here (sources and seeds
            # inject below); only a continued/known frontier without a
            # carried union needs the full rescan.
            if known is not None:
                for state in range(num_states):
                    if accepting[state]:
                        base = state * n
                        for node, mask in enumerate(masks[base:base + n]):
                            if mask:
                                accept_union[node] |= mask
    changed: set[int] = set()
    pending = bytearray(num_states * n)
    # A pair re-enters the queue whenever its source mask grows, so count a
    # pair as "visited" only on its first expansion to keep the stat
    # comparable with the single-source mode.
    expanded = bytearray(num_states * n)
    queue: deque[int] = deque()
    initial_base = query.initial * n
    for source, bit in bit_of.items():
        key = initial_base + source
        masks[key] |= 1 << bit
        changed.add(key)
        if not pending[key]:
            pending[key] = 1
            queue.append(key)
    if seeds:
        for (state, node), mask in seeds.items():
            key = state * n + node
            if masks[key] | mask != masks[key]:
                masks[key] |= mask
                changed.add(key)
                if not pending[key]:
                    pending[key] = 1
                    queue.append(key)
    if accept_union is not None:
        # Injected bits landing on accepting pairs are answers already
        # (a source whose initial state accepts; an imported seed on an
        # accepting state) — stream them before the fixpoint starts.
        for key in sorted(changed):
            state, node = divmod(key, n)
            if accepting[state]:
                fresh = masks[key] & ~accept_union[node]
                if fresh:
                    accept_union[node] |= fresh
                    while fresh:
                        low = fresh & -fresh
                        sink_bucket.setdefault(
                            low.bit_length() - 1, []
                        ).append(node)
                        fresh ^= low
        if sink_bucket:
            flush_sink()

    # Work counts: a "round" is one generation of the queue (the pairs
    # enqueued while the previous generation was being expanded).
    rounds = edges_gathered = peak_rows = generation_left = 0
    while queue:
        if not generation_left:
            generation_left = len(queue)
            rounds += 1
            if generation_left > peak_rows:
                peak_rows = generation_left
        generation_left -= 1
        key = queue.popleft()
        pending[key] = 0
        if sink_bucket:
            since_flush += 1
            if since_flush >= _SINK_FLUSH_EVERY:
                since_flush = 0
                flush_sink()
        mask = masks[key]
        if not expanded[key]:
            expanded[key] = 1
            run.visited_pairs += 1
        state, node = divmod(key, n)
        for label_id, next_state in moves[state]:
            base = next_state * n
            buffer, lo, hi = graph.successor_slice(node, label_id)
            dead = dead_of(label_id)
            if dead:
                targets: Sequence[int] = [
                    buffer[position] for position in range(lo, hi) if position not in dead
                ]
            else:
                targets = buffer[lo:hi]
            extra = graph.overflow_successors(node, label_id)
            if extra is not None:
                targets = list(targets) + extra
            edges_gathered += len(targets)
            for target in targets:
                successor_key = base + target
                if masks[successor_key] | mask != masks[successor_key]:
                    masks[successor_key] |= mask
                    changed.add(successor_key)
                    if accept_union is not None and accepting[next_state]:
                        fresh = masks[successor_key] & ~accept_union[target]
                        if fresh:
                            accept_union[target] |= fresh
                            while fresh:
                                low = fresh & -fresh
                                sink_bucket.setdefault(
                                    low.bit_length() - 1, []
                                ).append(target)
                                fresh ^= low
                    if not pending[successor_key]:
                        pending[successor_key] = 1
                        queue.append(successor_key)

    if sink_bucket:
        flush_sink()
    run.rounds = rounds
    run.edges_gathered = edges_gathered
    run.peak_frontier_rows = peak_rows

    # Combine accepting states into one answer mask per node, then scatter
    # the bits back into per-source answer sets.  Seeded runs may carry
    # global bits beyond the local sources; only local bits scatter here
    # (the caller reads foreign bits through mask_items instead).
    per_source: dict[int, set[int]] = {bit: set() for bit in bit_of.values()}
    local_bits = (1 << len(bit_of)) - 1
    touched = bytearray(n)
    for state in range(num_states):
        base = state * n
        state_accepts = accepting[state]
        for node in range(n):
            mask = masks[base + node]
            if not mask:
                continue
            touched[node] = 1
            if not state_accepts:
                continue
            mask &= local_bits
            while mask:
                low = mask & -mask
                per_source[low.bit_length() - 1].add(node)
                mask ^= low
    run.visited_objects = sum(touched)
    for position, source in enumerate(sources):
        run.answers[position] = per_source[bit_of[source]]

    run.frontier = PyFrontier(masks, n, changed, graph.version, accept_union)
    if witnesses:
        bits = dict(bit_of)
        snapshot_version = graph.version

        def resolver(source: int, target: int) -> "tuple[int, ...] | None":
            if graph.version != snapshot_version:
                raise ValueError(
                    "graph mutated since the batched run; resolve witnesses "
                    "before add_edge/remove_edge (or re-run the batch)"
                )
            bit = bits.get(source)
            if bit is None:
                return None
            flag = 1 << bit
            return restricted_witness(
                graph, query, lambda key: bool(masks[key] & flag), source, target
            )

        run.witness_resolver = resolver
    return run


def run_all_pairs(
    graph: CompiledGraph, query: CompiledQuery, *, witnesses: bool = False
) -> BatchRun:
    """Evaluate the query from every node of the graph in one batch.

    This is what ``Engine.query_all`` runs; node ids double as bitmask bit
    positions, so ``answers[i]`` is the answer set of node ``i``.
    """
    return run_batch(graph, query, tuple(range(graph.num_nodes)), witnesses=witnesses)
