"""Backend dispatch for product-BFS execution: numpy when possible.

Three executors implement the same entry points over the same compiled
structures:

* :mod:`repro.engine.executor_py` — the pure-Python reference: scalar BFS
  with bytearray visited sets and arbitrary-precision bitmask frontiers;
* :mod:`repro.engine.executor_pb` — the packed-bitset fallback: the same
  arbitrary-precision masks advanced in delta-driven rounds that propagate
  whole packed words per edge visit, with per-run adjacency caching —
  faster than the reference on mid-size and wide batches, pure Python;
* :mod:`repro.engine.executor_np` — the vectorized twin: packed ``uint64``
  mask tensors advanced by a frontier-proportional sparse push over a
  cached product-graph CSR (gather the frontier rows' out-edges, sort by
  target, ``bitwise_or.reduceat``, keep what grew).

This module is the only place that decides between them.  ``backend="auto"``
(the default everywhere) picks numpy when it imports; without numpy it
picks the packed-bitset executor for batches at least
``REPRO_PACKED_MIN_BATCH`` bits wide (default 16 — measured in mask bits,
so the choice is stable across a sharded evaluation's supersteps, whose
``num_bits`` is fixed up front) and the scalar reference below that —
numpy is strictly optional.  ``backend="python"``, ``backend="packed"``
and ``backend="numpy"`` force a specific executor; forcing numpy when it
is not importable raises :class:`~repro.exceptions.ReproError`.  Setting
the environment variable ``REPRO_DISABLE_NUMPY`` (to any non-empty value)
makes the dispatcher treat numpy as absent, which is how
``scripts/check.sh`` exercises the fallback paths on machines that do
have numpy installed.

Every batched run reports what its kernel did — ``rounds``,
``edges_gathered``, ``peak_frontier_rows`` on :class:`BatchRun` — and this
module copies those counts onto the telemetry span the run executed under,
so "why was this batch slow" is answerable per backend from a trace.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Mapping, Sequence

from ..exceptions import ReproError
from .compiled_query import CompiledQuery
from .csr import CompiledGraph
from . import executor_pb, executor_py
from .executor_py import BatchRun, SingleRun
from .telemetry import current_span

try:  # pragma: no cover - exercised via both arms of scripts/check.sh
    from . import executor_np as _executor_np
except ImportError:  # pragma: no cover
    _executor_np = None

BACKENDS = ("auto", "python", "packed", "numpy")

# Batch width (in mask bits) from which ``auto`` without numpy prefers the
# packed-bitset executor over the scalar reference.  Below this the queue
# executor's lighter per-pair bookkeeping wins; above it, whole-word
# propagation amortizes each edge visit across the batch.
_PACKED_MIN_BATCH = 16


def numpy_available() -> bool:
    """Whether the numpy executor can serve (importable and not disabled)."""
    return _executor_np is not None and not os.environ.get("REPRO_DISABLE_NUMPY")


def available_backends() -> tuple[str, ...]:
    return ("python", "packed", "numpy") if numpy_available() else ("python", "packed")


def packed_min_batch() -> int:
    """The auto-selection width threshold, env-overridable for benches/CI."""
    raw = os.environ.get("REPRO_PACKED_MIN_BATCH")
    if raw:
        try:
            return int(raw)
        except ValueError:
            pass
    return _PACKED_MIN_BATCH


def resolve_backend(backend: str = "auto") -> str:
    """Map a requested backend to the executor family that will serve it.

    ``auto`` resolves to the *fallback family* when numpy is absent: the
    dispatcher still picks packed vs. scalar per batch (by width), so the
    resolved name describes capability ("python executors will run"), not
    the exact module of every future call.
    """
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown engine backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        return "numpy" if numpy_available() else "python"
    if backend == "numpy" and not numpy_available():
        raise ReproError(
            "numpy backend requested but numpy is not available "
            "(not importable, or disabled via REPRO_DISABLE_NUMPY)"
        )
    return backend


_MODULES = {"python": executor_py, "packed": executor_pb}


def _module(backend: str):
    resolved = resolve_backend(backend)
    if resolved == "numpy":
        return _executor_np
    return _MODULES[resolved]


def _batch_module(
    backend: str,
    sources: Sequence[int],
    num_bits: "int | None",
):
    """Pick the executor for one batched run.

    Forced backends map straight to their module.  ``auto`` without numpy
    weighs the batch width — ``num_bits`` when the caller sized the mask
    universe (the sharded engine does, identically for every superstep of
    an evaluation), the distinct-source count otherwise — against
    :func:`packed_min_batch`.
    """
    if backend == "auto" and not numpy_available():
        width = num_bits if num_bits else len(set(sources))
        if width >= packed_min_batch():
            return executor_pb
        return executor_py
    return _module(backend)


def run_single(
    graph: CompiledGraph,
    query: CompiledQuery,
    source: int,
    *,
    backend: str = "auto",
) -> SingleRun:
    """Single-source product BFS with witnesses, on the chosen backend.

    Every dispatched run is stamped with its wall-clock ``elapsed`` seconds
    (likewise below) — the timing hook the telemetry layer's
    ``engine_run_seconds`` histogram reads, kept here so both executors are
    measured identically without timing code in their hot loops.
    """
    started = perf_counter()
    run = _module(backend).run_single(graph, query, source)
    run.elapsed = perf_counter() - started
    return run


def run_batch(
    graph: CompiledGraph,
    query: CompiledQuery,
    sources: Sequence[int],
    *,
    witnesses: bool = False,
    seeds: "Mapping[tuple[int, int], int] | None" = None,
    known: "Mapping[tuple[int, int], int] | None" = None,
    num_bits: "int | None" = None,
    answer_sink=None,
    backend: str = "auto",
) -> BatchRun:
    """Shared multi-source traversal, on the chosen backend.

    ``seeds`` injects source bits at arbitrary ``(state, node)`` pairs and
    ``known`` pre-loads prior facts without re-propagating them — the
    import half of the sharded engine's superstep exchange; ``num_bits``
    sizes the mask universe for the *global* batch when the local sources
    do not span it; ``answer_sink(bit, nodes)`` streams newly accepting
    facts out of the fixpoint as they land, grouped by source bit (both
    backends honor the same at-most-once contract).  See
    :func:`repro.engine.executor_py.run_batch`.
    """
    started = perf_counter()
    run = _batch_module(backend, sources, num_bits).run_batch(
        graph, query, sources, witnesses=witnesses, seeds=seeds, known=known,
        num_bits=num_bits, answer_sink=answer_sink,
    )
    return _stamp(run, started)


def _stamp(run: BatchRun, started: float) -> BatchRun:
    """Stamp a batched run with its wall time and hand its kernel work
    counts to the span it ran under (``engine.run`` on a session,
    ``sharded.local_fixpoint`` on a shard; a no-op outside any span)."""
    run.elapsed = perf_counter() - started
    current_span().set(**run.work_counts())
    return run


def run_all_pairs(
    graph: CompiledGraph,
    query: CompiledQuery,
    *,
    witnesses: bool = False,
    backend: str = "auto",
) -> BatchRun:
    """Batched evaluation from every node, on the chosen backend."""
    started = perf_counter()
    run = _batch_module(backend, (), graph.num_nodes).run_all_pairs(
        graph, query, witnesses=witnesses
    )
    return _stamp(run, started)
