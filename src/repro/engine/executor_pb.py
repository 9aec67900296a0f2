"""The packed-bitset kernel: whole-word delta propagation in pure Python.

What ``auto`` runs for batches when numpy is absent (and ``backend="packed"``
forces anywhere).  It evaluates the batched product fixpoint from the
:func:`~repro.engine.executor_py.open_frontier` state, structuring the hot
loop around the batch's *width* instead of its individual bits:

* masks stay arbitrary-precision Python ints (one per packed ``(state,
  node)`` pair), so every edge visit propagates the whole packed word of
  source bits in one ``|`` — no per-(node, bit) work anywhere in the loop;
* propagation is *delta-driven and round-based* (semi-naive): each round
  pushes only the bits a pair gained since it was last expanded;
* adjacency is resolved once per product pair into a memo kept across runs
  — :meth:`CompiledGraph.successors` runs once per graph version instead
  of once per expansion.

Measured against the queue kernel it replaced (a FIFO re-expanding a pair
on every growth of its mask), it won at every batch width once that memo
was warm (width 1: 2.8 vs 5.5 ms, 64: 21.4 vs 65.7 ms) and from width 4 up
even cold, so there is no width threshold to tune: this module is its
fixpoint loop, and everything else — bit assignment, handle validation,
witnesses, work-count stamping — is the driver's
(:mod:`repro.engine.executor`).

Results are bit-for-bit identical to the numpy kernel, including the
``visited_pairs``/``visited_objects`` accounting and the streaming
``answer_sink`` at-most-once contract.  A run hands its final mask state
back as a :class:`PyFrontier`.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

from .compiled_query import CompiledQuery
from .csr import CompiledGraph
from .executor_py import (
    BatchRun,
    PyFrontier,
    flush_sink,
    open_frontier,
    stream_fresh,
)

# Flattened product adjacency, memoized across runs: per graph (weakly
# held), per compiled query, the successor tuples ``build_successors``
# resolves — stamped with the graph version *and node count* they were
# derived against (the memo is keyed by flat ``state * n + node`` keys, and
# ``ensure_nodes`` grows ``n`` without a version bump) and discarded
# wholesale when either moves on.  Warm repeated batches (the
# serving layer's steady state) then run the fixpoint as pure whole-word
# merges with zero adjacency work.  Queries are keyed by identity (their
# ``array`` fields are unhashable); each entry holds a weak reference to
# its query so a recycled ``id`` after garbage collection can never serve
# another query's adjacency.  Runs only execute under the engine's reader
# lock and mutations drain readers first, so the version cannot move
# mid-run; concurrent same-version fills are idempotent dict writes.  The
# per-graph table is cleared (not LRU-chained) when it outgrows
# ``_MEMO_QUERIES`` distinct queries — the engine's own compile cache is
# the real LRU, this is just a backstop against unbounded growth.
_SUCC_MEMO: "weakref.WeakKeyDictionary[CompiledGraph, dict[int, dict]]" = (
    weakref.WeakKeyDictionary()
)
_MEMO_QUERIES = 16


def _kernel_cache(graph: CompiledGraph, query: CompiledQuery) -> dict:
    per_graph = _SUCC_MEMO.get(graph)
    if per_graph is None:
        per_graph = {}
        _SUCC_MEMO[graph] = per_graph
    entry = per_graph.get(id(query))
    stamp = (graph.version, graph.num_nodes)
    if entry is None or entry["ref"]() is not query or entry["stamp"] != stamp:
        if len(per_graph) >= _MEMO_QUERIES:
            per_graph.clear()
        entry = {
            "ref": weakref.ref(query),
            "stamp": stamp,
            "adj": {},
            "plain": {},
            "stream": {},
        }
        per_graph[id(query)] = entry
    return entry


def fixpoint(
    run: BatchRun,
    graph: CompiledGraph,
    query: CompiledQuery,
    inject: "dict[int, int]",
    answer_sink: "Callable[[int, Sequence[int]], None] | None",
) -> None:
    """The packed kernel behind ``run_batch`` (contract: see the driver):
    whole-word delta rounds."""
    n = graph.num_nodes
    moves = query.moves
    accepting = query.accepting
    successors_of = graph.successors
    masks, delta, accept_union = open_frontier(query, n, inject, answer_sink)
    # ``changed`` doubles as the activation set: a pair's first activation
    # pushes its *full* mask next round, later growth pushes only the
    # delta.
    changed = set(delta)
    sink_bucket: "dict[int, list[int]]" = {}

    # Per-run successor cache: for each packed product pair, the complete
    # flattened out-neighborhood in product space, resolved once — move
    # iteration and the live adjacency of every move fuse into one tuple.
    # The fixpoint's inner loop is then a pure whole-word mask merge per
    # successor, which is this backend's actual speed.  Two cache shapes:
    # bare successor keys when nothing streams, ``(key, target, accepts)``
    # triples when an ``answer_sink`` needs accepting growth during the
    # fixpoint.
    streaming = accept_union is not None
    kernel = _kernel_cache(graph, query)
    adj_cache: "dict[int, tuple[int, ...]]" = kernel["adj"]
    succ_cache: "dict[int, tuple]" = kernel["stream" if streaming else "plain"]
    succ_get = succ_cache.get
    adj_get = adj_cache.get

    def build_successors(key: int) -> tuple:
        state, node = divmod(key, n)
        out: list = []
        for label_id, next_state in moves[state]:
            cache_key = label_id * n + node
            targets = adj_get(cache_key)
            if targets is None:
                targets = tuple(successors_of(node, label_id))
                adj_cache[cache_key] = targets
            base = next_state * n
            if streaming:
                accepts = accepting[next_state]
                for target in targets:
                    out.append((base + target, target, accepts))
            else:
                for target in targets:
                    out.append(base + target)
        flat = tuple(out)
        succ_cache[key] = flat
        return flat

    current = delta
    edges_gathered = 0
    while current:
        run.rounds += 1
        if len(current) > run.peak_frontier_rows:
            run.peak_frontier_rows = len(current)
        next_delta: dict[int, int] = {}
        if streaming:
            for key, bits in current.items():
                successors = succ_get(key)
                if successors is None:
                    successors = build_successors(key)
                edges_gathered += len(successors)
                for successor_key, target, accepts in successors:
                    old = masks[successor_key]
                    merged = old | bits
                    if merged == old:
                        continue
                    new = merged ^ old
                    masks[successor_key] = merged
                    if successor_key in changed:
                        if successor_key in next_delta:
                            next_delta[successor_key] |= new
                        else:
                            next_delta[successor_key] = new
                    else:
                        changed.add(successor_key)
                        next_delta[successor_key] = merged
                    if accepts:
                        stream_fresh(sink_bucket, accept_union, target, merged)
            if sink_bucket:
                flush_sink(answer_sink, sink_bucket)
        else:
            for key, bits in current.items():
                successors = succ_get(key)
                if successors is None:
                    successors = build_successors(key)
                edges_gathered += len(successors)
                for successor_key in successors:
                    old = masks[successor_key]
                    merged = old | bits
                    if merged == old:
                        continue
                    masks[successor_key] = merged
                    if successor_key in changed:
                        if successor_key in next_delta:
                            next_delta[successor_key] |= merged ^ old
                        else:
                            next_delta[successor_key] = merged ^ old
                    else:
                        changed.add(successor_key)
                        next_delta[successor_key] = merged
        current = next_delta
    run.edges_gathered = edges_gathered
    # A pair is "visited" on its first activation — one expansion per pair,
    # the count ``run_single`` and the numpy kernel report too.
    run.visited_pairs = len(changed)
    run.frontier = PyFrontier(masks, n)
