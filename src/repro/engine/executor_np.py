"""The numpy kernel: a sparse push over the product graph's own CSR.

What ``auto`` runs for batches whenever numpy imports.  The per-pair source
bitmasks are packed into a ``(num_states, num_nodes, num_words)`` ``uint64``
tensor, and :func:`fixpoint` pushes frontiers over
:class:`repro.engine.csr.ProductCSR` (flat key ``state * n + node``,
lowered once per move table and patched across edits): the frontier travels
between rounds as ``(rows, bits)`` arrays, a round gathers the out-edges of
those rows only, sorts the pushed bits by target,
``np.bitwise_or.reduceat``s them per target, masks against what the target
already holds, and the survivors are the next frontier.  The paper's
``p(o, I)`` is reachability in this product, and the push costs what the
sources reach — edges out of the frontier per round, not edges of the graph
per round (:attr:`BatchRun.edges_gathered` counts them).

This module is that loop plus :class:`NpFrontier`, the tensor's handle —
which also carries the flat keys of the rows the run grew, so that reading
a finished frontier (a run's answers and statistics) costs what was
reached, never a scan of the tensor; bit assignment, witnesses, streaming
and work-count stamping are the driver's (:mod:`repro.engine.executor`).
The loop does no emission work: a streamed run hands each round's grown
rows to the driver, which decodes them at its checkpoints (after rounds 1,
2, 4, 8, … and at the end) with :meth:`NpFrontier.fresh_answers` — the
at-most-once rule, a per-node "emitted" mask subtracted vectorized.
There is no
single-source kernel here: one source is one bit, nothing to vectorize
over, and the dense level-pull that used to serve it lost to the scalar
BFS (:func:`repro.engine.executor_py.run_single`) on every shape measured.

Results are bit-for-bit identical to the packed kernel (the
differential fuzz harness in ``tests/engine/test_engine_fuzz.py`` enforces
this), including the ``visited_pairs``/``visited_objects`` statistics: a
pair counts as visited exactly when some source's bit reaches it, which is
the same set the scalar BFS expands.
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping, Sequence

import numpy as np

from .compiled_query import CompiledQuery
from .csr import CompiledGraph
from .executor_py import BatchRun


_WORD = (1 << 64) - 1


def _any_bit(values: "np.ndarray") -> "np.ndarray":
    """Per row, whether any bit is set — rows are scalars in the one-word
    layout (1-D) and word vectors along the last axis otherwise.  A
    length-1 word axis is compared, not reduced: ``any`` over it is a
    per-element reduce."""
    if values.ndim == 1:
        return values != 0
    if values.shape[-1] == 1:
        return values[..., 0] != 0
    return values.any(axis=-1)


def _run_heads(keys: "np.ndarray") -> "np.ndarray":
    """Per entry of the ascending, non-empty ``keys``, whether it opens a
    run of equal keys."""
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _group_or(keys: "np.ndarray", values: "np.ndarray"):
    """OR together the ``values`` rows that share a key.

    Returns ``(unique keys ascending, OR-reduced rows)`` — the scatter step
    of a push round, done as sort + ``bitwise_or.reduceat`` so it never
    touches a row that nothing was pushed to.
    """
    # An OR is order-blind, so stability is not needed for correctness, and
    # the default introsort is faster here with identical answers.  The
    # flip waits on the benchmark harness, which keeps every lap's answer
    # digests: a faster op fits more laps in a run and pushes its peak RSS
    # past the bound — see ROADMAP item 3, "Flip ``_group_or`` to the
    # default sort".
    order = keys.argsort(kind="stable")
    keys, values = keys[order], values[order]
    starts = _run_heads(keys).nonzero()[0]
    return keys[starts], np.bitwise_or.reduceat(values, starts, axis=0)


def _pack_masks(mapping: "Mapping[int, int]", words: int):
    """Arbitrary-precision masks keyed by flat pair key, as kernel arrays:
    ``(keys ascending, one uint64 row per key)`` — rows are scalars when
    ``words == 1`` (see :func:`_any_bit`)."""
    keys = sorted(mapping)
    values = [mapping[key] for key in keys]
    rows = np.array(keys, dtype=np.int64)
    if words == 1:
        return rows, np.array(values, dtype=np.uint64)
    packed = np.empty((len(keys), words), dtype=np.uint64)
    for word in range(words):
        shift = 64 * word
        packed[:, word] = np.array(
            [(value >> shift) & _WORD for value in values], dtype=np.uint64
        )
    return rows, packed


def _scatter_bits(
    nodes: "np.ndarray",
    reached: "np.ndarray",
    num_bits: int,
    oids: "np.ndarray | None",
    collect: type = set,
) -> "list":
    """Unpack the uint64 mask rows ``reached`` (one per entry of ``nodes``)
    into one ``collect`` (a set by default) of nodes per bit — of oids when
    ``oids`` (node id -> oid) is given.

    The caller passes the reached nodes only, and the transposed
    ``nonzero`` walks the bit matrix bit-major, so the coordinates come out
    grouped by bit already — no sort, and no work for the unreached bulk of
    the graph.
    """
    per_bit: list = [collect() for _ in range(num_bits)]
    if not num_bits or not nodes.size:
        return per_bit
    if sys.byteorder != "little":  # pragma: no cover - words become LE in memory
        reached = reached.byteswap()
    # Only the bytes that hold the batch's bits are unpacked.
    octets = reached.view(np.uint8).reshape(nodes.size, -1)[:, : (num_bits + 7) >> 3]
    bits = np.unpackbits(octets, axis=1, bitorder="little")[:, :num_bits]
    positions, members = np.nonzero(bits.T)
    members = nodes[members]
    if oids is not None:
        members = oids[members]
    members = members.tolist()  # one conversion, then list slices
    boundaries = np.searchsorted(positions, np.arange(num_bits + 1)).tolist()
    for bit in range(num_bits):
        lo, hi = boundaries[bit], boundaries[bit + 1]
        if lo != hi:
            per_bit[bit] = collect(members[lo:hi])
    return per_bit


def _on_accepting(
    rows: "np.ndarray",
    values: "np.ndarray",
    n: int,
    accepting_states: "Sequence[int]",
    by_key: bool = False,
):
    """The accepting-state part of ``rows`` (flat pair keys, ascending, one
    ``values`` row each — or, ``by_key``, the flat cells to read them from),
    per node: ``(nodes, OR of the node's rows)`` — ``None`` when no row lies
    in an accepting state."""
    pieces = []
    for state in accepting_states:
        lo, hi = np.searchsorted(rows, (state * n, (state + 1) * n)).tolist()
        if lo != hi:
            keys = rows[lo:hi]
            pieces.append((keys - state * n, values[keys] if by_key else values[lo:hi]))
    if len(pieces) > 1:
        return _group_or(
            np.concatenate([piece[0] for piece in pieces]),
            np.concatenate([piece[1] for piece in pieces]),
        )
    return pieces[0] if pieces else None


def _flat_cells(masks: "np.ndarray") -> "np.ndarray":
    """The mask tensor addressed by flat pair key ``state * n + node``:
    scalar rows in the one-word layout (every op on them runs 1-D), word
    vectors otherwise.  Always a view — a continued handle is updated in
    place."""
    num_states, n, words = masks.shape
    cells = masks.reshape(num_states * n, words)
    assert np.shares_memory(cells, masks), "flat view of the mask tensor copied"
    return cells[:, 0] if words == 1 else cells


class NpFrontier:
    """The finished packed mask state of one batched run.

    The vectorized twin of :class:`repro.engine.executor_py.PyFrontier`:
    ``masks`` is the ``(num_states, num_nodes, num_words)`` uint64 tensor,
    and ``reached`` the ascending flat keys of the rows the run grew (set
    when the run ends) — what makes reading the frontier cost what the run
    reached instead of the size of the tensor.
    """

    __slots__ = ("masks", "words", "reached", "_cells", "_emitted")

    def __init__(self, masks: "np.ndarray", reached: "np.ndarray | None") -> None:
        self.masks = masks
        self.words = masks.shape[2]
        self.reached = reached
        self._cells = None
        self._emitted = None

    def cells(self) -> "np.ndarray":
        """The tensor addressed by flat pair key (:func:`_flat_cells`)."""
        if self._cells is None:
            self._cells = _flat_cells(self.masks)
        return self._cells

    def has_bit(self, bit: int) -> "Callable[[int], bool]":
        """The membership test of one source bit's region, by flat key."""
        column = self.masks[:, :, bit >> 6]
        n = column.shape[1]
        flag = np.uint64(1 << (bit & 63))
        return lambda key: bool(column[key // n, key % n] & flag)

    def mask_at(self, state: int, node: int) -> int:
        """The current source bitmask of one product pair."""
        row = self.masks[state, node]
        value = 0
        for word in range(self.words - 1, -1, -1):
            value = (value << 64) | int(row[word])
        return value

    def fresh_answers(
        self,
        window: "list[np.ndarray]",
        accepting,
        num_bits: int,
        oids: "np.ndarray | None",
    ) -> "list[list]":
        """Per source bit below ``num_bits``, the accepting facts of the
        pairs grown in ``window`` (flat-key arrays, one per round) not
        handed out by an earlier call — node lists (oids when ``oids`` is
        given), each ``(bit, node)`` once per run: the per-node ``_emitted``
        mask is subtracted and then grows by what goes out."""
        n = self.masks.shape[1]
        rows = window[0]
        if len(window) > 1:  # each round's rows are ascending and distinct
            rows = np.concatenate(window)
            rows.sort()
            rows = rows[_run_heads(rows)]
        accepting_states = [state for state, accepts in enumerate(accepting) if accepts]
        found = _on_accepting(rows, self.cells(), n, accepting_states, by_key=True)
        if found is None:
            return [[] for _ in range(num_bits)]
        nodes, reached = found
        if self._emitted is None:
            self._emitted = np.zeros((n,) + reached.shape[1:], dtype=np.uint64)
        fresh = reached & ~self._emitted[nodes]
        keep = _any_bit(fresh).nonzero()[0]
        nodes, fresh = nodes[keep], fresh[keep]
        self._emitted[nodes] |= fresh
        return _scatter_bits(nodes, fresh, num_bits, oids, list)

    def gather(self, accepting, num_bits: int, oids: "np.ndarray | None" = None):
        """``(nonzero pairs, touched nodes, per-bit accepting node sets)`` —
        oid sets when ``oids`` (node id -> oid) is given.

        Read off :attr:`reached`: work per reached pair, none per pair of
        the product that nothing reached.
        """
        n = self.masks.shape[1]
        rows = self.reached
        accepting_states = [state for state, accepts in enumerate(accepting) if accepts]
        found = _on_accepting(rows, self.cells(), n, accepting_states, by_key=True)
        per_bit = (
            [set() for _ in range(num_bits)]
            if found is None
            else _scatter_bits(found[0], found[1], num_bits, oids)
        )
        return (*self.counts(), per_bit)

    def counts(self) -> "tuple[int, int]":
        """``(nonzero pairs, touched nodes)``, read off :attr:`reached`."""
        n = self.masks.shape[1]
        seen = np.zeros(n, dtype=bool)
        seen[self.reached % n] = True
        return int(self.reached.size), int(np.count_nonzero(seen))


def fixpoint(
    run: BatchRun,
    graph: CompiledGraph,
    query: CompiledQuery,
    inject: "dict[int, int]",
    on_round: "Callable[[NpFrontier, np.ndarray], None] | None" = None,
) -> None:
    """The sparse-push kernel behind ``run_batch`` (contract: see the driver).

    The frontier is a pair of arrays — ``rows``, the flat keys of the
    product pairs that gained bits last round, and ``new``, the bits each
    gained — and one round gathers the product-CSR out-edges of exactly
    those rows, ORs the pushed bits per target, and keeps the targets that
    gained something: they are the next frontier.  Nothing in a round is
    sized by the graph.

    ``inject`` maps flat pair keys to int masks; the mask tensor is as
    many words wide as the highest injected bit needs.  A streamed run
    passes ``on_round``, which gets the frontier and each round's grown
    ``rows`` — the loop itself does no emission work.
    """
    n = graph.num_nodes
    num_states = query.num_states
    num_bits = max(mask.bit_length() for mask in inject.values())
    words = max(1, (num_bits + 63) >> 6)
    masks = np.zeros((num_states, n, words), dtype=np.uint64)
    frontier = NpFrontier(masks, None)
    cells = frontier.cells()

    # The injected bits are the candidate frontier of round zero.
    rows, pushed = _pack_masks(inject, words)
    touched = np.zeros(num_states * n, dtype=bool)
    product = graph.numpy_product_csr(query.moves)
    indptr, dst = product.indptr, product.dst
    next_indptr = indptr[1:]
    rounds = edges_gathered = peak_rows = 0
    # One round is a few dozen array calls on small arrays, so it calls
    # the C methods (``a.cumsum()``, ``a.repeat()``, ``a.nonzero()``)
    # rather than their module-level Python wrappers.
    while rows.size:
        # Semi-naive: only bits a pair does not hold yet survive, and only
        # pairs that gained a bit are expanded.
        held = cells[rows]
        new = pushed & ~held
        grew = _any_bit(new).nonzero()[0]
        if grew.size != rows.size:
            if not grew.size:
                break
            rows, new, held = rows[grew], new[grew], held[grew]
        cells[rows] = held | new
        touched[rows] = True
        rounds += 1
        peak_rows = max(peak_rows, rows.size)
        if on_round is not None:
            on_round(frontier, rows)
        # Push: gather the out-edges of the frontier rows only.  (The
        # lowering is usually int32; rows index as int64, which numpy would
        # otherwise convert on each of this round's five fancy indexings,
        # and ``cumsum`` widens the edge offsets.)
        starts = indptr[rows]
        counts = next_indptr[rows] - starts
        ends = counts.cumsum()
        total = int(ends[-1])
        if not total:
            break
        edges_gathered += total
        edge_index = np.arange(total) + (starts - ends + counts).repeat(counts)
        rows, pushed = _group_or(dst[edge_index], new.repeat(counts, axis=0))
        rows = rows.astype(np.int64, copy=False)
    run.rounds = rounds
    run.edges_gathered = edges_gathered
    run.peak_frontier_rows = peak_rows
    # Pairs expanded by the run count as visited (the scalar executor's
    # semantics), and ``run_batch`` reads the touched nodes and the answers
    # off those rows, never off the 8-bytes-a-word tensor.
    frontier.reached = touched.nonzero()[0]
    run.visited_pairs = int(frontier.reached.size)
    run.frontier = frontier
