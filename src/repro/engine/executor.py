"""The execution contract: one driver, one kernel per job.

Evaluating ``p(o, I)`` is reachability in the DFA × graph product.  This
module owns everything about that which is not a fixpoint loop, and is the
only place that picks a kernel:

* **Single-source runs** (:func:`run_single`) have one kernel, the scalar
  parent-pointer BFS of :mod:`repro.engine.executor_py`, under every
  backend name: one source is one mask bit, so no batched kernel has
  anything to amortize.  ``backend=`` is validated and otherwise ignored;
  the run is stamped ``"scalar"``, which names that kernel, not a backend.
* **Batched runs** (:func:`run_batch`, :func:`run_all_pairs`) share the
  driver below — source → bit assignment, the range check, the witness
  resolver, work-count stamping — around one of two fixpoint
  loops: :mod:`repro.engine.executor_np` (sparse push over the product
  CSR) and :mod:`repro.engine.executor_pb` (whole-word delta rounds over
  Python ints).

Answers leave a batched run as node-id sets by default, or — with
``as_oids=True``, what the session asks for — as oid sets built in the
same single pass: each kernel groups its accepting facts by source bit
and maps every group once through the graph's node id -> oid table, so a
session hands the sets on as they are instead of building each answer a
second time.  Streamed facts are mapped once too, by the driver, which
wraps the sink before any kernel sees it (:func:`run_batch` says why ids
stay the default).

``backend="auto"`` (the default everywhere) is the numpy kernel when numpy
imports and the packed kernel when it does not — numpy is strictly
optional.  ``"numpy"`` and ``"packed"`` force a kernel.  Forcing numpy
when it is not importable raises :class:`~repro.exceptions.ReproError`.
Setting the environment variable ``REPRO_DISABLE_NUMPY`` (to any non-empty
value) makes the dispatcher treat numpy as absent, which is how
``scripts/check.sh`` exercises the fallback paths on machines that do have
numpy installed.

Every batched run reports what its kernel did — ``rounds``,
``edges_gathered``, ``peak_frontier_rows`` on :class:`BatchRun` — and the
driver copies those counts onto the telemetry span the run executed under,
so "why was this batch slow" is answerable per backend from a trace.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from time import perf_counter

from ..exceptions import ReproError
from .compiled_query import CompiledQuery
from .csr import CompiledGraph
from . import executor_pb, executor_py
from .executor_py import BatchRun, SingleRun, restricted_witness
from .telemetry import current_span

try:  # pragma: no cover - exercised via both arms of scripts/check.sh
    from . import executor_np as _executor_np
except ImportError:  # pragma: no cover
    _executor_np = None

BACKENDS = ("auto", "packed", "numpy")

# Per backend name: the fixpoint loop.
_KERNELS = {"packed": executor_pb.fixpoint}
if _executor_np is not None:
    _KERNELS["numpy"] = _executor_np.fixpoint


def numpy_available() -> bool:
    """Whether the numpy executor can serve (importable and not disabled)."""
    return _executor_np is not None and not os.environ.get("REPRO_DISABLE_NUMPY")


def available_backends() -> tuple[str, ...]:
    return ("packed", "numpy") if numpy_available() else ("packed",)


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


def run_batch(
    graph: CompiledGraph,
    query: CompiledQuery,
    sources: Sequence[int],
    *,
    witnesses: bool = False,
    answer_sink=None,
    backend: str = "auto",
    as_oids: bool = False,
) -> BatchRun:
    """Evaluate one query from many sources in a single shared traversal.

    Every visited product pair carries the bitmask of the sources that
    reach it, so shared graph regions are traversed once for the whole
    batch.  Distinct sources take mask bits in order of first appearance
    (duplicates share the bit and the result set); a source that is not a
    node id of the graph keeps its bit but never enters the fixpoint and
    answers empty, as in :func:`run_single`.

    ``answer_sink(bit, nodes)`` streams accepting facts *during* the
    fixpoint — one source bit, the nodes that bit newly reached in an
    accepting state.  Each ``(bit, node)`` fact is reported at most once
    per run, so the union of everything streamed equals the final
    accepting facts.  The sink runs on the executor's thread and must be
    cheap; exceptions it raises abort the run.

    With ``witnesses=True`` :meth:`BatchRun.witness` rebuilds, on demand, a
    shortest label word for any answer pair from the per-bit reachability
    the masks record.

    ``as_oids=True`` hands answers out as *objects* — ``p(o, I)`` itself:
    ``answers[i]`` is a set of oids, built in one pass from the kernel's
    own grouping through the graph's node id -> oid table
    (:meth:`CompiledGraph.numpy_oids` for the numpy kernel,
    ``nodes.backing_list()`` for the packed one), so no caller re-maps a
    node-id set into a second set.  The sink receives lists of oids: the
    driver maps each streamed group once on its way out.  Sources and
    :meth:`BatchRun.witness` stay in node ids.  The default stays node ids
    because callers that decompose a query into its layers — the
    end-to-end benchmark's replay times ``run_batch`` and then maps the
    ids with ``oids_of`` as a separate step, and its first-answer probe
    passes its own sink — read ids.
    """
    started = perf_counter()
    name = resolve_backend(backend)
    n = graph.num_nodes
    run = BatchRun(sources=tuple(sources), backend=name)
    bit_of: "dict[int, int]" = {}
    for source in run.sources:
        bit_of.setdefault(source, len(bit_of))
    per_bit: "list[set[int]]" = [set() for _ in bit_of]
    inject = {
        query.initial * n + source: 1 << bit
        for source, bit in bit_of.items()
        if 0 <= source < n
    }
    oids = None
    if as_oids:
        oid_of = graph.nodes.backing_list()
        oids = graph.numpy_oids() if name == "numpy" else oid_of
        if answer_sink is not None:
            answer_sink = _mapped_sink(answer_sink, oid_of)
    if inject:
        _KERNELS[name](run, graph, query, inject, answer_sink)
        _, run.visited_objects, per_bit = run.frontier.gather(
            query.accepting, len(bit_of), oids
        )
    if witnesses:
        run.witness_resolver = _witness_resolver(graph, query, bit_of, run.frontier)
    run.answers = [per_bit[bit_of[source]] for source in run.sources]
    run.elapsed = perf_counter() - started
    # The span the run executed under (``engine.run`` on a session; a no-op
    # outside any span).
    current_span().set(**run.work_counts())
    return run


def _mapped_sink(answer_sink, oid_of: "Sequence"):
    """``answer_sink`` fed oids: each streamed group of node ids is mapped
    through ``oid_of`` (node id -> oid) once."""

    def sink(bit: int, nodes: "Sequence[int]") -> None:
        answer_sink(bit, [oid_of[node] for node in nodes])

    return sink


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
    graph: CompiledGraph, query: CompiledQuery, *, backend: str = "auto"
) -> BatchRun:
    """Batched evaluation from every node: node ids double as mask bit
    positions, so ``answers[i]`` is the answer set of node ``i``.
    ``Engine.query_all`` (and through it ``evaluate_all_sources``, which
    constraint-satisfaction checking uses to quantify over sites) issues
    this run through :func:`run_batch` with ``as_oids=True``."""
    return run_batch(graph, query, range(graph.num_nodes), backend=backend)
