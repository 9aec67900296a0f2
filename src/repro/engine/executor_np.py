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

This module is that loop plus :class:`NpFrontier`, the tensor's exchange
handle — which also carries the flat keys of the rows each run grew, so
that reading a finished frontier (a run's own answers and statistics, the
sharded engine's gather) costs what was reached, never a scan of the
tensor; bit assignment, handle validation, witnesses and work-count
stamping are the driver's (:mod:`repro.engine.executor`).  There is no
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
# The node half of a ``owner << 32 | node`` source home (see source_seeds).
_NODE_MASK = (1 << 32) - 1


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


def _union(arrays: "Sequence[np.ndarray]") -> "np.ndarray":
    """The ascending, duplicate-free union of ascending key arrays."""
    merged = np.sort(np.concatenate(arrays))
    return merged[_run_heads(merged)] if merged.size else merged


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
    # past the bound — see ROADMAP item 2, "flip ``_group_or``".
    order = keys.argsort(kind="stable")
    return _group_sorted(keys[order], values[order])


def _group_sorted(keys: "np.ndarray", values: "np.ndarray"):
    """:func:`_group_or` for ``keys`` already ascending (no sort)."""
    starts = _run_heads(keys).nonzero()[0]
    return keys[starts], np.bitwise_or.reduceat(values, starts, axis=0)


def _pack_masks(mapping: "Mapping[int, int]", words: int):
    """Arbitrary-precision masks keyed by flat pair key, as kernel arrays:
    ``(keys ascending, one uint64 row per key)`` — rows are scalars when
    ``words == 1`` (see :func:`_any_bit`)."""
    keys = sorted(mapping)
    values = [mapping[key] for key in keys]
    if values and max(values) >> (64 * words):
        raise ValueError(
            f"a frontier mask is wider than the batch's {64 * words} bits "
            "(size the run with num_bits)"
        )
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


def _inject_rows(inject, words: int, size: int):
    """The injected facts as kernel arrays ``(keys ascending, rows)``.

    A flat-key dict is packed (:func:`_pack_masks`); a kernel-native
    ``(keys, rows)`` pair is taken as it is, after checking what the push
    relies on — keys ascending, unique and inside the ``size``-pair
    product, rows no wider than ``words`` (narrower rows are widened).
    """
    if isinstance(inject, Mapping):
        return _pack_masks(inject, words)
    keys = np.asarray(inject[0], dtype=np.int64)
    rows = np.asarray(inject[1], dtype=np.uint64)
    if rows.shape[:1] != keys.shape:
        raise ValueError("seeds keys and rows differ in length")
    if keys.size:
        if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
            raise ValueError("seeds keys must be ascending and unique")
        if keys[0] < 0 or keys[-1] >= size:
            raise ValueError(
                f"seeds keys span {keys[0]}..{keys[-1]}, outside the "
                f"{size}-pair product"
            )
    width = 1 if rows.ndim == 1 else rows.shape[1]
    if width > words:
        raise ValueError(
            f"a frontier mask is wider than the batch's {64 * words} bits "
            "(size the run with num_bits)"
        )
    if width < words:
        widened = np.zeros((keys.size, words), dtype=np.uint64)
        widened[:, :width] = rows.reshape(keys.size, width)
        return keys, widened
    return keys, rows[:, 0] if rows.ndim == 2 and words == 1 else rows


def _row_words(inject) -> int:
    """The packed width, in words, of a kernel-native ``(keys, rows)`` pair."""
    rows = np.asarray(inject[1])
    return 1 if rows.ndim == 1 else rows.shape[1]


def _scatter_bits(
    nodes: "np.ndarray", reached: "np.ndarray", num_bits: int
) -> "list[set[int]]":
    """Unpack the uint64 mask rows ``reached`` (one per entry of ``nodes``)
    into per-bit node sets.

    The caller passes the reached nodes only, and the transposed
    ``nonzero`` walks the bit matrix bit-major, so the coordinates come out
    grouped by bit already — no sort, and no work for the unreached bulk of
    the graph.
    """
    per_bit: "list[set[int]]" = [set() for _ in range(num_bits)]
    if not num_bits or not nodes.size:
        return per_bit
    if sys.byteorder != "little":  # pragma: no cover - words become LE in memory
        reached = reached.byteswap()
    # Only the bytes that hold the batch's bits are unpacked.
    octets = reached.view(np.uint8).reshape(nodes.size, -1)[:, : (num_bits + 7) >> 3]
    bits = np.unpackbits(octets, axis=1, bitorder="little")[:, :num_bits]
    positions, members = np.nonzero(bits.T)
    nodes = nodes[members].tolist()  # one conversion, then list slices
    boundaries = np.searchsorted(positions, np.arange(num_bits + 1)).tolist()
    for bit in range(num_bits):
        lo, hi = boundaries[bit], boundaries[bit + 1]
        if lo != hi:
            per_bit[bit] = set(nodes[lo:hi])
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
    """Cumulative packed mask state of one (or a chain of) batched runs.

    The vectorized twin of :class:`repro.engine.executor_py.PyFrontier`:
    ``masks`` is the ``(num_states, num_nodes, num_words)`` uint64 tensor.
    ``version`` stamps the graph version the masks were derived against;
    the driver refuses to continue a stale handle (see
    :class:`repro.engine.executor_py.PyFrontier`).

    ``reached`` is what makes reading a finished frontier cost what the
    runs reached instead of the size of the tensor: the flat keys of the
    rows this handle accounts for, one ascending array per run of the
    chain, exactly as each kernel run reported the rows it grew — the last
    one is what the latest run grew, which is what :meth:`exports` ships.
    :meth:`rows` (and through it :meth:`gather` and a continued run's own
    statistics) covers those rows plus whatever a further run grows.
    ``None`` — a handle assembled without them — means "whatever the
    tensor holds", found by one scan.

    The sharded engine's superstep exchange is four calls on this class —
    :meth:`source_seeds`, :meth:`exports`, :meth:`route` and
    :meth:`assemble` — speaking flat keys and uint64 rows throughout, so a
    fact crosses shards without ever becoming a Python int;
    :class:`~repro.engine.executor_py.PyFrontier` answers the same calls
    from its int masks.
    """

    __slots__ = ("masks", "words", "version", "reached", "_cells")

    def __init__(
        self,
        masks: "np.ndarray",
        version: "int | None" = None,
        reached: "tuple[np.ndarray, ...] | None" = None,
    ) -> None:
        self.masks = masks
        self.words = masks.shape[2]
        self.version = version
        self.reached = reached
        self._cells = None

    def cells(self) -> "np.ndarray":
        """The tensor addressed by flat pair key (:func:`_flat_cells`)."""
        if self._cells is None:
            self._cells = _flat_cells(self.masks)
        return self._cells

    def rows(self) -> "np.ndarray":
        """Flat keys of the rows this handle accounts for, ascending and
        duplicate-free (merged once per chain link, then kept)."""
        reached = self.reached
        if reached is None:
            merged = np.flatnonzero(_any_bit(self.cells()))
        elif len(reached) == 1:
            return reached[0]
        else:
            merged = _union(reached)
        self.reached = (merged,)
        return merged

    def fits(self, num_states: int, n: int) -> bool:
        """Whether the tensor spans exactly this ``num_states x n`` product."""
        return self.masks.shape[:2] == (num_states, n)

    def has_bit(self, bit: int) -> "Callable[[int], bool]":
        """The membership test of one source bit's region, by flat key."""
        column = self.masks[:, :, bit >> 6]
        n = column.shape[1]
        flag = np.uint64(1 << (bit & 63))
        return lambda key: bool(column[key // n, key % n] & flag)

    def _int_at(self, state: int, node: int) -> int:
        row = self.masks[state, node]
        value = 0
        for word in range(self.words - 1, -1, -1):
            value = (value << 64) | int(row[word])
        return value

    def mask_at(self, state: int, node: int) -> int:
        """The current source bitmask of one product pair."""
        if self.words == 1:
            return int(self.masks[state, node, 0])
        return self._int_at(state, node)

    def items(self):
        """Every nonzero ``(state, node, mask)`` fact (one scan of the
        tensor: the witness walks read it, the supersteps never do)."""
        states, nodes = np.nonzero(_any_bit(self.masks))
        if self.words == 1:
            values = self.masks[states, nodes, 0].tolist()
            yield from zip(states.tolist(), nodes.tolist(), values)
            return
        for state, node in zip(states.tolist(), nodes.tolist()):
            yield state, node, self._int_at(state, node)

    def gather(self, accepting, num_bits: int, skip: "np.ndarray | None" = None):
        """``(nonzero pairs, touched nodes, per-bit accepting node sets)``
        over the nodes ``skip`` — one boolean per node — does not flag.

        Read off :meth:`rows`: work per reached pair, none per pair of the
        product that nothing reached.
        """
        return NpFrontier.assemble(((self, skip, None),), accepting, num_bits)

    def _owned(self, accepting_states: "Sequence[int]", skip):
        """:meth:`gather` of one handle before unpacking: ``(nonzero pairs,
        touched nodes, found)``, ``found`` the accepting ``(nodes, rows)``
        per node (``None`` when there are none)."""
        n = self.masks.shape[1]
        rows = self.rows()
        nodes = rows % n
        if skip is not None:
            keep = ~skip[nodes]
            rows, nodes = rows[keep], nodes[keep]
        seen = np.zeros(n, dtype=bool)
        seen[nodes] = True
        found = _on_accepting(rows, self.cells(), n, accepting_states, by_key=True)
        return int(rows.size), int(np.count_nonzero(seen)), found

    # -- the sharded superstep exchange ---------------------------------------
    @staticmethod
    def source_seeds(homes: "Sequence[int]", initial: int, sizes: "Sequence[int]"):
        """A batch's first seeds, per owner: ``homes[bit]`` packs the owner
        of source bit ``bit`` and the source's node id there as ``owner <<
        32 | node`` (distinct per source), and every source starts in the
        ``initial`` state holding its own bit.  Returns ``{owner:
        kernel-native seeds}``; the batch is ``len(homes)`` bits wide."""
        homes = np.asarray(homes, dtype=np.int64)
        if not homes.size:
            return {}
        # Sorting the packed homes sorts by owner, then by flat key.
        bits = homes.argsort()
        homes = homes[bits]
        flags = np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64))
        if homes.size > 64:
            rows = np.zeros((homes.size, (homes.size + 63) >> 6), dtype=np.uint64)
            rows[np.arange(homes.size), bits >> 6] = flags
        else:
            rows = flags
        owners = homes >> 32
        heads = _run_heads(owners).nonzero()[0].tolist()
        seeds = {}
        for lo, hi in zip(heads, heads[1:] + [homes.size]):
            owner = int(owners[lo])
            keys = (homes[lo:hi] & _NODE_MASK) + initial * sizes[owner]
            seeds[owner] = keys, rows[lo:hi]
        return seeds

    def exports(
        self, owner: "np.ndarray", owner_node: "np.ndarray", ghost: "np.ndarray"
    ):
        """The rows the latest run grew on nodes another graph owns, as
        ``(owners, states, owner-local nodes, rows)`` — ``None`` when it
        grew none there.  Per local node id, ``ghost`` flags the nodes
        another graph owns and ``owner``/``owner_node`` route them: the
        owning graph and the node's id there."""
        grown = self.reached[-1]
        n = self.masks.shape[1]
        nodes = grown % n
        picked = ghost[nodes].nonzero()[0]
        if not picked.size:
            return None
        grown, nodes = grown[picked], nodes[picked]
        return owner[nodes], grown // n, owner_node[nodes], self.cells()[grown]

    @staticmethod
    def route(packets, frontiers, sizes: "Sequence[int]"):
        """Deliver :meth:`exports` packets to their owners as next seeds.

        ``frontiers[o]`` is owner ``o``'s handle (``None``: it holds nothing
        yet) and ``sizes[o]`` its node count.  Every exported row keeps only
        the bits its owner does not hold yet — the owner may have derived
        the fact itself — and rows left empty are dropped; what survives is
        merged per target.  Returns ``({owner: kernel-native seeds},
        shipped)``, ``shipped`` counting the exported rows that carried a
        new bit.
        """
        if len(packets) == 1:
            owners, states, nodes, rows = packets[0]
        else:
            owners, states, nodes, rows = map(np.concatenate, zip(*packets))
        keys = states * np.asarray(sizes, dtype=np.int64)[owners] + nodes
        order = np.lexsort((keys, owners))
        owners, keys, rows = owners[order], keys[order], rows[order]
        heads = _run_heads(owners).nonzero()[0].tolist()
        seeds: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}
        shipped = 0
        for lo, hi in zip(heads, heads[1:] + [owners.size]):
            owner = int(owners[lo])
            targets, new = keys[lo:hi], rows[lo:hi]
            held = frontiers[owner]
            if held is not None:
                new = new & ~held.cells()[targets]
                fresh = _any_bit(new)
                targets, new = targets[fresh], new[fresh]
            if targets.size:
                shipped += targets.size
                seeds[owner] = _group_sorted(targets, new)
        return seeds, shipped

    @staticmethod
    def assemble(parts, accepting, num_bits: int):
        """One gather over several handles, each on its own graph.

        ``parts`` holds ``(handle, skip, labels)``: the nodes ``skip`` flags
        are left out, and ``labels`` (an object array by node id, or
        ``None`` for the node ids themselves) names the answers.  Every
        handle's accepting rows are read off its reached rows and the bits
        are unpacked once for all of them.  Returns ``(nonzero pairs,
        touched nodes, per-bit answer sets)`` over all parts.
        """
        accepting_states = (
            [state for state, accepts in enumerate(accepting) if accepts]
            if num_bits
            else ()
        )
        pairs = objects = 0
        names, rows = [], []
        for frontier, skip, labels in parts:
            counted, touched, found = frontier._owned(accepting_states, skip)
            pairs += counted
            objects += touched
            if found is not None:
                names.append(found[0] if labels is None else labels[found[0]])
                rows.append(found[1])
        if not names:
            return pairs, objects, [set() for _ in range(num_bits)]
        if len(names) > 1:
            names, rows = [np.concatenate(names)], [np.concatenate(rows)]
        return pairs, objects, _scatter_bits(names[0], rows[0], num_bits)


def _emit_bit_groups(answer_sink, nodes: "np.ndarray", fresh: "np.ndarray") -> None:
    """Call ``answer_sink(bit, nodes)`` for every source bit set in ``fresh``
    (one row per node: the bits that node newly accepts).

    The grouping runs vectorized: per present bit, one masked select over
    the round's fresh rows — the only per-node Python is the final
    ``tolist``.  Keeping the sink contract per *bit group* (not per fact)
    is what lets a streaming evaluation hand thousands of facts to the
    serving layer without holding the GIL through per-fact bookkeeping.
    """
    for word, values in enumerate((fresh,) if fresh.ndim == 1 else fresh.T):
        present = int(np.bitwise_or.reduce(values)) if values.size else 0
        base = word << 6
        while present:
            low = present & -present
            members = nodes[(values & np.uint64(low)) != 0]
            answer_sink(base + low.bit_length() - 1, members.tolist())
            present ^= low


def _emit_new_accepting(
    answer_sink,
    cells: "np.ndarray",
    rows: "np.ndarray",
    new: "np.ndarray",
    n: int,
    accepting_states: "Sequence[int]",
) -> None:
    """Stream the answers among one round's survivors.

    ``rows``/``new`` are the pairs about to grow and the bits they gain,
    ``cells`` the masks *before* that growth.  A fact ``(bit, node)`` is an
    answer the first time any accepting state holds it, so with several
    accepting states the round's gains are merged per node and stripped of
    what an accepting state already held.
    """
    found = _on_accepting(rows, new, n, accepting_states)
    if found is None:
        return
    nodes, fresh = found
    if len(accepting_states) > 1:
        for state in accepting_states:
            fresh = fresh & ~cells[nodes + state * n]
        keep = _any_bit(fresh)
        nodes, fresh = nodes[keep], fresh[keep]
    _emit_bit_groups(answer_sink, nodes, fresh)


def fixpoint(
    run: BatchRun,
    graph: CompiledGraph,
    query: CompiledQuery,
    inject,
    known: "Mapping[int, int] | NpFrontier | None",
    num_bits: "int | None",
    local_bits: int,
    answer_sink: "Callable[[int, Sequence[int]], None] | None",
) -> None:
    """The sparse-push kernel behind ``run_batch`` (contract: see the driver).

    The frontier is a pair of arrays — ``rows``, the flat keys of the
    product pairs that gained bits last round, and ``new``, the bits each
    gained — and one round gathers the product-CSR out-edges of exactly
    those rows, ORs the pushed bits per target, and keeps the targets that
    gained something: they are the next frontier.  Nothing in a round is
    sized by the graph.

    ``inject`` is a flat-key dict of int masks, or kernel-native ``(keys,
    rows)`` arrays taken as they are (see :func:`_inject_rows`).  A
    ``known`` :class:`NpFrontier` is continued in place, paying zero
    conversion; ``num_bits`` sizes the packed word dimension for the global
    batch width when it exceeds the local source count (unsized runs are
    as wide as their widest injected or known mask).

    ``answer_sink`` streams per fixpoint round: the bits a round's
    survivors newly land on accepting states — beyond what any accepting
    state of the node already held — go out grouped by source bit.
    """
    n = graph.num_nodes
    num_states = query.num_states
    if isinstance(known, NpFrontier):
        masks = known.masks  # ownership transfer: continued in place
        words = known.words
        if known.reached is None:
            known.rows()  # a bare handle: find what it holds, once
        prior = known.reached
        cells = known.cells()
    else:
        width = max(num_bits or 0, local_bits)
        if num_bits is None:
            for facts in (inject, known):
                if isinstance(facts, Mapping) and facts:
                    width = max(width, max(facts.values()).bit_length())
            if not isinstance(inject, Mapping):
                width = max(width, 64 * _row_words(inject))
        words = max(1, (width + 63) >> 6)
        masks = np.zeros((num_states, n, words), dtype=np.uint64)
        prior = ()
        cells = _flat_cells(masks)
    if known and not isinstance(known, NpFrontier):
        rows, held = _pack_masks(known, words)
        cells[rows] = held
        prior = (rows[_any_bit(held)],)

    # The injected bits are the candidate frontier of round zero.
    rows, pushed = _inject_rows(inject, words, num_states * n)
    accepting_states = [
        state for state in range(num_states) if query.accepting[state]
    ]
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
        if answer_sink is not None:
            _emit_new_accepting(answer_sink, cells, rows, new, n, accepting_states)
        cells[rows] = held | new
        touched[rows] = True
        rounds += 1
        peak_rows = max(peak_rows, rows.size)
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
    # Pairs expanded by *this* run count as visited (the scalar executor's
    # semantics); what the chain of runs reached is this run's ``grown``
    # plus what the handle it continued came with, and ``run_batch`` reads
    # the touched nodes and the answers off those rows, never off the
    # 8-bytes-a-word tensor.
    grown = touched.nonzero()[0]
    run.visited_pairs = int(grown.size)
    run.frontier = NpFrontier(masks, graph.version, prior + (grown,))
    run.frontier._cells = cells
