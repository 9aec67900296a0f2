"""The scalar kernel, and what the pure-Python batch kernel shares.

Everything here works purely on dense integers, with product pairs packed
as ``state * num_nodes + node`` into flat ``bytearray``/list structures and
adjacency read through :meth:`CompiledGraph.successors`, which alone knows
the live-edge rule (CSR slice − tombstones + overflow).  Callers go through
the driver in :mod:`repro.engine.executor`; this module holds

* the result types :class:`SingleRun` / :class:`BatchRun`, and
  :func:`restricted_witness`, the one witness reconstruction every batched
  kernel's reachability feeds;
* :func:`run_single` — *the* single-source kernel: a BFS over the DFA ×
  graph product recording parent pointers, so a shortest witness path can
  be rebuilt for every answer (mirroring the baseline evaluator's
  witnesses).  One source is one mask bit: no batched kernel has anything
  to amortize, and the dense numpy level-pull this replaced lost to it on
  every shape measured;
* :class:`PyFrontier` with :func:`open_frontier` — the arbitrary-precision
  mask state the packed kernel (:mod:`repro.engine.executor_pb`) starts
  from and hands back, including the at-most-once bookkeeping of a
  streaming ``answer_sink`` and the sharded engine's exchange calls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import or_
from typing import Callable, Iterable, Mapping, Sequence

from .compiled_query import CompiledQuery
from .csr import CompiledGraph


@dataclass
class SingleRun:
    """Result of one single-source execution, in node-id space."""

    answers: set[int] = field(default_factory=set)
    witness_paths: dict[int, tuple[int, ...]] = field(default_factory=dict)
    visited_pairs: int = 0
    visited_objects: int = 0
    # Not a backend name: one kernel serves every single-source run.
    backend: str = "scalar"
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
    # The batch kernel that ran, stamped by the driver.
    backend: str = ""
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
    # the fixpoint took (level-synchronous rounds on both kernels), the
    # product edges those expansions read, and the widest frontier — in
    # product pairs — any of them carried.  Executor-specific, so never
    # compared.
    rounds: int = field(default=0, compare=False)
    edges_gathered: int = field(default=0, compare=False)
    peak_frontier_rows: int = field(default=0, compare=False)
    # See :attr:`visited_objects`; ``None`` until counted.
    _visited_objects: "int | None" = field(default=None, repr=False, compare=False)

    @property
    def visited_objects(self) -> int:
        """Objects the run's frontier touched.  The epilogue of a run with
        sources counts them; a sourceless continuation run (a sharded
        superstep) skips that epilogue, and they are read off its handle on
        first use instead."""
        if self._visited_objects is None:
            frontier = self.frontier
            self._visited_objects = 0 if frontier is None else frontier.gather((), 0)[1]
        return self._visited_objects

    @visited_objects.setter
    def visited_objects(self, count: int) -> None:
        self._visited_objects = count

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


def _node_union(masks: "list[int]", n: int, states: "Iterable[int]") -> "list[int]":
    """Per node, the OR of its masks over ``states`` (one C-level ``map``
    per state row, no per-pair bytecode)."""
    union = [0] * n
    for state in states:
        union = list(map(or_, union, masks[state * n:(state + 1) * n]))
    return union


def _accepting_union(masks: "list[int]", n: int, accepting) -> "list[int]":
    """Per node, the bits reached in any accepting state."""
    return _node_union(
        masks, n, (state for state, accepts in enumerate(accepting) if accepts)
    )


class PyFrontier:
    """Cumulative mask state of one (or a chain of) batched runs.

    The sharded engine's unit of exchange: ``masks`` holds, per packed
    ``(state, node)`` pair, the arbitrary-precision bitmask of sources that
    reach it; ``changed`` remembers which pairs grew during the *last* run.
    Passing a frontier back into ``run_batch`` as ``known`` transfers
    ownership of the state — the kernel continues the fixpoint in place
    (semi-naive: known bits never re-propagate), so supersteps pay no
    conversion at all.  The numpy twin is
    :class:`repro.engine.executor_np.NpFrontier`; both answer the same
    calls, including the sharded engine's exchange (``source_seeds``,
    ``exports``, ``route``, ``assemble``) — this one with int masks, the
    twin with uint64 rows.

    ``version`` stamps the graph version the masks were derived against.
    The driver refuses to continue a frontier whose stamp no longer matches
    the live graph — facts derived before an ``add_edge`` / ``remove_edge``
    may be wrong afterwards, so reuse across a version bump raises instead
    of silently serving a mix of old and new reachability.
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

    def fits(self, num_states: int, n: int) -> bool:
        """Whether the masks span exactly this ``num_states x n`` product."""
        return self.n == n and len(self.masks) == num_states * n

    def has_bit(self, bit: int) -> "Callable[[int], bool]":
        """The membership test of one source bit's region, by flat key."""
        masks = self.masks
        flag = 1 << bit
        return lambda key: bool(masks[key] & flag)

    def mask_at(self, state: int, node: int) -> int:
        """The current source bitmask of one product pair."""
        return self.masks[state * self.n + node]

    def items(self) -> "Iterable[tuple[int, int, int]]":
        """Every nonzero ``(state, node, mask)`` fact."""
        n = self.n
        for key, mask in enumerate(self.masks):
            if mask:
                yield key // n, key % n, mask

    def per_bit_answers(
        self,
        accepting: "Sequence[bool]",
        num_bits: int,
        skip_nodes: "frozenset[int] | set[int]" = frozenset(),
    ) -> "list[set[int]]":
        """Per source bit below ``num_bits``, the nodes reached in an
        accepting state.

        Collected word-at-a-time: union the accepting masks per node, group
        nodes by *identical* mask words, and expand each distinct word's
        bits once for its whole node group (a ``set.update`` per bit
        instead of a ``set.add`` per (bit, node) — reachability is
        clustered, so distinct words are few compared to accepting pairs).
        """
        wanted = (1 << num_bits) - 1
        groups: "dict[int, list[int]]" = {}
        for node, mask in enumerate(_accepting_union(self.masks, self.n, accepting)):
            mask &= wanted
            if mask and node not in skip_nodes:
                groups.setdefault(mask, []).append(node)
        per_bit: "list[set[int]]" = [set() for _ in range(num_bits)]
        for mask, nodes in groups.items():
            while mask:
                low = mask & -mask
                per_bit[low.bit_length() - 1].update(nodes)
                mask ^= low
        return per_bit

    def counts(
        self, skip_nodes: "frozenset[int] | set[int]" = frozenset()
    ) -> "tuple[int, int]":
        """``(nonzero pairs, touched nodes)``, skipping the given nodes."""
        n = self.n
        masks = self.masks
        pairs = len(masks) - masks.count(0)
        touched = n - _node_union(masks, n, range(len(masks) // n)).count(0)
        for node in skip_nodes:
            held = sum(1 for key in range(node, len(masks), n) if masks[key])
            pairs -= held
            touched -= bool(held)
        return pairs, touched

    def gather(
        self,
        accepting: "Sequence[bool]",
        num_bits: int,
        skip_nodes: "frozenset[int] | set[int]" = frozenset(),
    ) -> "tuple[int, int, list[set[int]]]":
        """``(nonzero pairs, touched nodes, per-bit accepting node sets)``
        over the nodes outside ``skip_nodes`` — everything a finished
        frontier is read for, behind one call (the numpy handle answers it
        from its reached rows, this one from :meth:`counts` and
        :meth:`per_bit_answers`)."""
        answers = (
            self.per_bit_answers(accepting, num_bits, skip_nodes) if num_bits else []
        )
        return (*self.counts(skip_nodes), answers)

    # -- the sharded superstep exchange (see NpFrontier) ----------------------
    @staticmethod
    def source_seeds(homes: "Sequence[int]", initial: int, sizes: "Sequence[int]"):
        """A batch's first seeds, per owner (see
        :meth:`NpFrontier.source_seeds`)."""
        seeds: "dict[int, tuple[list[int], list[int]]]" = {}
        for bit, home in enumerate(homes):
            owner = home >> 32
            keys, masks = seeds.setdefault(owner, ([], []))
            keys.append(initial * sizes[owner] + (home & 0xFFFFFFFF))
            masks.append(1 << bit)
        return seeds

    def exports(
        self, owner: "Sequence[int]", owner_node: "Sequence[int]", ghost: "set[int]"
    ):
        """The pairs the latest run grew on nodes another graph owns, as
        ``(owners, states, owner-local nodes, masks)`` lists — ``None`` when
        it grew none there (see :meth:`NpFrontier.exports`; ``ghost`` is
        the set of those nodes)."""
        n = self.n
        masks = self.masks
        homes: "list[int]" = []
        states: "list[int]" = []
        nodes: "list[int]" = []
        rows: "list[int]" = []
        for key in sorted(self.changed):
            state, node = divmod(key, n)
            if node in ghost:
                homes.append(owner[node])
                states.append(state)
                nodes.append(owner_node[node])
                rows.append(masks[key])
        return (homes, states, nodes, rows) if homes else None

    @staticmethod
    def route(packets, frontiers, sizes: "Sequence[int]"):
        """Deliver :meth:`exports` packets to their owners as next seeds,
        minus the bits each owner holds already; returns ``({owner:
        kernel-native seeds}, shipped)`` like :meth:`NpFrontier.route`."""
        merged: "dict[int, dict[int, int]]" = {}
        shipped = 0
        for homes, states, nodes, rows in packets:
            for home, state, node, mask in zip(homes, states, nodes, rows):
                key = state * sizes[home] + node
                held = frontiers[home]
                if held is not None:
                    mask &= ~held.masks[key]
                if mask:
                    shipped += 1
                    targets = merged.setdefault(home, {})
                    targets[key] = targets.get(key, 0) | mask
        seeds = {
            home: (sorted(targets), [targets[key] for key in sorted(targets)])
            for home, targets in merged.items()
        }
        return seeds, shipped

    @staticmethod
    def assemble(parts, accepting, num_bits: int):
        """One gather over several handles, each on its own graph:
        ``parts`` holds ``(handle, skip_nodes, labels)``, ``labels`` naming
        each node id's answer; returns ``(nonzero pairs, touched nodes,
        per-bit answer sets)`` over all parts, like
        :meth:`NpFrontier.assemble`."""
        pairs = objects = 0
        per_bit: "list[set]" = [set() for _ in range(num_bits)]
        for frontier, skip, labels in parts:
            counted, touched, answers = frontier.gather(accepting, num_bits, skip)
            pairs += counted
            objects += touched
            for bit, nodes in enumerate(answers):
                if nodes:
                    per_bit[bit].update(map(labels.__getitem__, nodes))
        return pairs, objects, per_bit


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
            for successor in graph.successors(node, label_id):
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
    successors = graph.successors
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
            for target in successors(node, label_id):
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


def stream_fresh(
    bucket: "dict[int, list[int]]", accept_union: "list[int]", node: int, mask: int
) -> None:
    """Queue the accepting bits of ``mask`` that ``node`` has not reported
    yet, grouped by source bit, and record them as reported."""
    fresh = mask & ~accept_union[node]
    if fresh:
        accept_union[node] |= fresh
        while fresh:
            low = fresh & -fresh
            bucket.setdefault(low.bit_length() - 1, []).append(node)
            fresh ^= low


def flush_sink(answer_sink, bucket: "dict[int, list[int]]") -> None:
    """Hand every queued bit group downstream, one call per source bit."""
    for bit, group in bucket.items():
        answer_sink(bit, group)
    bucket.clear()


def open_frontier(
    query: CompiledQuery,
    n: int,
    inject,
    known: "Mapping[int, int] | PyFrontier | None",
    answer_sink,
) -> "tuple[list[int], dict[int, int], list[int] | None]":
    """The state a pure-Python fixpoint starts from: ``(masks, delta,
    accept_union)``.  ``inject`` is a flat-key dict of masks or the
    kernel-native ``(keys, masks)`` pair; a key outside the product raises.

    ``masks`` is the continued handle's list (ownership transfer, grown in
    place) or a fresh one pre-loaded with the ``known`` facts; ``delta``
    maps every injected pair that gained a bit to its full mask — a pair's
    first activation pushes everything it holds, known bits included — and
    is the first frontier; ``accept_union`` (streaming runs only) is the
    per-node union of bits already reported as accepting.  Seeding it from
    the pre-run masks is what makes continued frontiers report only
    genuinely new facts; injected bits landing on accepting pairs are
    answers already (a source whose initial state accepts, an imported
    seed on an accepting state) and stream here, before the fixpoint.
    """
    accepting = query.accepting
    if isinstance(known, PyFrontier):
        masks = known.masks
    else:
        masks = [0] * (query.num_states * n)
        for key, mask in (known or {}).items():
            masks[key] |= mask
    accept_union: "list[int] | None" = None
    if answer_sink is not None:
        if isinstance(known, PyFrontier):
            accept_union = known.accept_union
        if accept_union is None:
            # Only a known frontier without a carried union needs the
            # rescan; a fresh run's masks are still empty here.
            accept_union = _accepting_union(masks, n, accepting) if known else [0] * n
    delta: "dict[int, int]" = {}
    if isinstance(inject, Mapping):
        facts = inject.items()
    elif len(inject[0]) != len(inject[1]):
        raise ValueError("seeds keys and masks differ in length")
    else:
        facts = zip(*inject)
    size = len(masks)
    for key, mask in facts:
        if not 0 <= key < size:
            raise ValueError(f"seeds key {key} is outside the {size}-pair product")
        if mask & ~masks[key]:
            masks[key] |= mask
            delta[key] = masks[key]
    if accept_union is not None:
        bucket: "dict[int, list[int]]" = {}
        for key in sorted(delta):
            state, node = divmod(key, n)
            if accepting[state]:
                stream_fresh(bucket, accept_union, node, masks[key])
        flush_sink(answer_sink, bucket)
    return masks, delta, accept_union

