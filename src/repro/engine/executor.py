"""The execution contract: one driver, one kernel per job.

Evaluating ``p(o, I)`` is reachability in the DFA × graph product.  This
module owns everything about that which is not a fixpoint loop, and is the
only place that picks a kernel:

* **Single-source runs** (:func:`run_single`) have one kernel, the scalar
  parent-pointer BFS of :mod:`repro.engine.executor_py`, under every
  backend name: one source is one mask bit, so no batched kernel has
  anything to amortize.  ``backend=`` is validated and otherwise ignored;
  the run is stamped with the kernel that ran (``"python"``).
* **Batched runs** (:func:`run_batch`, :func:`run_all_pairs`) share the
  driver below — source → bit assignment, range and handle validation, the
  witness resolver, work-count stamping — around one of three fixpoint
  loops: :mod:`repro.engine.executor_np` (sparse push over the product
  CSR), :mod:`repro.engine.executor_pb` (whole-word delta rounds over
  Python ints) and the queue kernel of :mod:`repro.engine.executor_py`.

``backend="auto"`` (the default everywhere) is the numpy kernel when numpy
imports and the packed kernel when it does not — numpy is strictly
optional.  ``"numpy"`` and ``"packed"`` force a kernel; ``"python"`` forces
the queue kernel, which ``auto`` never picks: it is the differential
oracle the other two are tested against.  Forcing numpy when it is not
importable raises :class:`~repro.exceptions.ReproError`.  Setting the
environment variable ``REPRO_DISABLE_NUMPY`` (to any non-empty value)
makes the dispatcher treat numpy as absent, which is how
``scripts/check.sh`` exercises the fallback paths on machines that do
have numpy installed.

Every batched run reports what its kernel did — ``rounds``,
``edges_gathered``, ``peak_frontier_rows`` on :class:`BatchRun` — and the
driver copies those counts onto the telemetry span the run executed under,
so "why was this batch slow" is answerable per backend from a trace.
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence
from time import perf_counter
from typing import TYPE_CHECKING

from ..exceptions import ReproError
from .compiled_query import CompiledQuery
from .csr import CompiledGraph
from . import executor_pb, executor_py
from .executor_py import BatchRun, PyFrontier, SingleRun, restricted_witness
from .telemetry import current_span

try:  # pragma: no cover - exercised via both arms of scripts/check.sh
    from . import executor_np as _executor_np
except ImportError:  # pragma: no cover
    _executor_np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor_np import NpFrontier

BACKENDS = ("auto", "python", "packed", "numpy")

# Per backend name: the fixpoint loop and the frontier handle it continues.
_KERNELS = {
    "python": (executor_py.fixpoint, PyFrontier),
    "packed": (executor_pb.fixpoint, PyFrontier),
}
if _executor_np is not None:
    _KERNELS["numpy"] = (_executor_np.fixpoint, _executor_np.NpFrontier)


def numpy_available() -> bool:
    """Whether the numpy executor can serve (importable and not disabled)."""
    return _executor_np is not None and not os.environ.get("REPRO_DISABLE_NUMPY")


def available_backends() -> tuple[str, ...]:
    return ("python", "packed", "numpy") if numpy_available() else ("python", "packed")


def resolve_backend(backend: str = "auto") -> str:
    """Map a requested backend to the batch kernel that will serve it."""
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown engine backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        return "numpy" if numpy_available() else "packed"
    if backend == "numpy" and not numpy_available():
        raise ReproError(
            "numpy backend requested but numpy is not available "
            "(not importable, or disabled via REPRO_DISABLE_NUMPY)"
        )
    return backend


def run_single(
    graph: CompiledGraph,
    query: CompiledQuery,
    source: int,
    *,
    backend: str = "auto",
) -> SingleRun:
    """Single-source product BFS with witnesses (one kernel, any backend).

    Every dispatched run is stamped with its wall-clock ``elapsed`` seconds
    (likewise below) — the timing hook the telemetry layer's
    ``engine_run_seconds`` histogram reads, kept here so every kernel is
    measured identically without timing code in its hot loop.
    """
    resolve_backend(backend)
    started = perf_counter()
    run = executor_py.run_single(graph, query, source)
    run.elapsed = perf_counter() - started
    return run


def _flat_facts(
    facts: "Mapping[tuple[int, int], int] | None", what: str, num_states: int, n: int
) -> "dict[int, int]":
    """``(state, node) -> mask`` facts re-keyed by flat pair key
    ``state * n + node``.  A pair outside the product raises: its flat key
    would silently alias some other state's row."""
    flat: "dict[int, int]" = {}
    for (state, node), mask in (facts or {}).items():
        if not (0 <= state < num_states and 0 <= node < n):
            raise ValueError(
                f"{what} key {(state, node)!r} is outside the "
                f"{num_states}-state x {n}-node product"
            )
        flat[state * n + node] = mask
    return flat


def frontier_class(backend: str = "auto") -> type:
    """The frontier handle class of the batch kernel ``backend`` resolves
    to — what its runs hand back and continue, and what answers the
    sharded engine's exchange calls (``source_seeds``, ``exports``,
    ``route``, ``assemble``) for that kernel family."""
    return _KERNELS[resolve_backend(backend)][1]


def run_batch(
    graph: CompiledGraph,
    query: CompiledQuery,
    sources: Sequence[int],
    *,
    witnesses: bool = False,
    seeds: "Mapping[tuple[int, int], int] | tuple | None" = None,
    known: "Mapping[tuple[int, int], int] | PyFrontier | NpFrontier | None" = None,
    num_bits: "int | None" = None,
    answer_sink=None,
    backend: str = "auto",
) -> BatchRun:
    """Evaluate one query from many sources in a single shared traversal.

    Every visited product pair carries the bitmask of the sources that
    reach it, so shared graph regions are traversed once for the whole
    batch.  Distinct sources take mask bits in order of first appearance
    (duplicates share the bit and the result set); a source that is not a
    node id of the graph keeps its bit but never enters the fixpoint and
    answers empty, as in :func:`run_single`.

    ``seeds`` maps ``(state, node)`` pairs to source bitmasks injected on
    top of the sources' initial-state bits.  A sourceless run may take them
    kernel-native instead, as a ``(flat keys, rows)`` pair — keys
    ``state * n + node`` ascending and unique, rows in the kernel's mask
    form (uint64 rows for numpy, ints otherwise) — which is how the sharded
    engine imports a cross-shard frontier without converting it (see
    :meth:`NpFrontier.route`).  ``known`` pre-loads masks derived by earlier
    supersteps *without* propagating them again (semi-naive); passing the
    previous run's :attr:`BatchRun.frontier` continues that state in place
    (no conversion; the prior run must not be reused), and is refused when
    its shape does not match or the graph mutated since it was derived.  A
    ``seeds``/``known`` key outside the product raises ``ValueError``.
    ``num_bits`` sizes the mask universe for the *global* batch when seeds
    carry bit positions beyond the local sources.

    ``answer_sink(bit, nodes)`` streams accepting facts *during* the
    fixpoint — one source bit, the nodes that bit newly reached in an
    accepting state.  Each ``(bit, node)`` fact is reported at most once
    per run, and facts a continued ``known`` frontier already held are
    never re-reported, so across a chain of continued runs the union of
    everything streamed equals the final accepting facts.  The sink runs
    on the executor's thread and must be cheap; exceptions it raises abort
    the run.

    With ``witnesses=True`` (fresh runs only) :meth:`BatchRun.witness`
    rebuilds, on demand, a shortest label word for any answer pair from
    the per-bit reachability the masks record.

    The epilogue — answers and :attr:`BatchRun.visited_objects`, read off
    the finished frontier — runs for runs with sources; a sourceless
    continuation run has no answers of its own and counts its objects
    only when they are read.
    """
    started = perf_counter()
    name = resolve_backend(backend)
    fixpoint, handle_class = _KERNELS[name]
    n = graph.num_nodes
    num_states = query.num_states
    run = BatchRun(sources=tuple(sources), backend=name)
    bit_of: "dict[int, int]" = {}
    for source in run.sources:
        bit_of.setdefault(source, len(bit_of))
    per_bit: "list[set[int]]" = [set() for _ in bit_of]
    # A run given only ``known`` still validates and re-exports the handle
    # (the fixpoint just has nothing new to expand).
    if n and (bit_of or seeds or known is not None):
        if witnesses and (seeds or known):
            raise ValueError(
                "witnesses=True is not supported with seeds/known frontiers"
            )
        inject = {
            query.initial * n + source: 1 << bit
            for source, bit in bit_of.items()
            if 0 <= source < n
        }
        if seeds is None or isinstance(seeds, Mapping):
            for key, mask in _flat_facts(seeds, "seeds", num_states, n).items():
                inject[key] = inject.get(key, 0) | mask
        elif inject:
            raise ValueError(
                "kernel-native (flat keys, rows) seeds are for sourceless "
                "runs; give (state, node) seeds to combine them with sources"
            )
        else:
            inject = seeds  # the kernel checks and takes the arrays as they are
        if known is None or isinstance(known, Mapping):
            known = _flat_facts(known, "known", num_states, n)
        elif not (isinstance(known, handle_class) and known.fits(num_states, n)):
            raise ValueError("known frontier does not match this graph/query")
        elif known.version is not None and known.version != graph.version:
            raise ValueError(
                "known frontier is stale: the graph mutated since it was "
                "derived (re-run the batch instead of continuing the handle)"
            )
        fixpoint(run, graph, query, inject, known, num_bits, len(bit_of), answer_sink)
        if bit_of:
            _, run.visited_objects, per_bit = run.frontier.gather(
                query.accepting, len(bit_of)
            )
        if witnesses:
            run.witness_resolver = _witness_resolver(graph, query, bit_of, run.frontier)
    run.answers = [per_bit[bit_of[source]] for source in run.sources]
    run.elapsed = perf_counter() - started
    # The span the run executed under (``engine.run`` on a session,
    # ``sharded.local_fixpoint`` on a shard; a no-op outside any span).
    current_span().set(**run.work_counts())
    return run


def _witness_resolver(graph, query, bit_of, frontier):
    """``BatchRun.witness`` for a finished run: replay one source bit's
    reached region (``frontier.has_bit``) against the live adjacency, which
    is only sound while the graph is the one the run saw."""
    n = graph.num_nodes
    version = graph.version

    def resolver(source: int, target: int) -> "tuple[int, ...] | None":
        if graph.version != version:
            raise ValueError(
                "graph mutated since the batched run; resolve witnesses "
                "before add_edge/remove_edge (or re-run the batch)"
            )
        bit = bit_of.get(source)
        if bit is None or not 0 <= source < n:
            return None
        return restricted_witness(graph, query, frontier.has_bit(bit), source, target)

    return resolver


def run_all_pairs(
    graph: CompiledGraph,
    query: CompiledQuery,
    *,
    witnesses: bool = False,
    backend: str = "auto",
) -> BatchRun:
    """Batched evaluation from every node: node ids double as mask bit
    positions, so ``answers[i]`` is the answer set of node ``i``.  Backs
    ``Engine.query_all`` (and through it ``evaluate_all_sources``, which
    constraint-satisfaction checking uses to quantify over sites)."""
    return run_batch(
        graph, query, range(graph.num_nodes), witnesses=witnesses, backend=backend
    )
