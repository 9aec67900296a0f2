"""Compiled batch evaluation engine: interning, CSR graphs, integer DFAs.

This package is the performance substrate for serving path queries at scale:
labels and object ids are interned to dense integers
(:mod:`~repro.engine.interning`), the instance is compiled once into
label-partitioned CSR adjacency with incremental adds *and* deletes
(:mod:`~repro.engine.csr`), queries are lowered to integer DFA transition
tables with an LRU compile cache (:mod:`~repro.engine.compiled_query`), and
execution shares work across batched sources via bitmask frontiers — one
driver (:mod:`~repro.engine.executor`) around the numpy kernel
(:mod:`~repro.engine.executor_np`) or, without numpy, the packed one
(:mod:`~repro.engine.executor_pb`), with the scalar kernel of
:mod:`~repro.engine.executor_py` serving single sources.  The
:class:`~repro.engine.session.Engine` façade ties it together and is what
callers — the CLI's ``engine`` subcommand, the planner's engine backend, and
the transparent delegation inside ``query.evaluation.evaluate`` — build on.
Beside it, :mod:`~repro.engine.sharding`'s ``ShardedEngine`` is the same
engine over the same one compiled graph, whose snapshot is partitioned by a
``ShardMap`` of site groups: one file per shard, and a stale shard's rows
alone rebuilt on reopen; and
:mod:`~repro.engine.serving` puts an asyncio admission queue in front of
either session kind (``engine.as_server()`` — same-DFA requests coalesced
into shared batches), whose every decision is the sans-io state machine of
:mod:`~repro.engine.admission`.  Cross-cutting observability lives in
:mod:`~repro.engine.telemetry`: a per-session metrics registry (counters /
callback gauges / fixed-bucket latency histograms) that the stats
dataclasses register into, a structured span tracer threaded through
admission → rewrite → compile → run → flush, and export surfaces
(``engine.telemetry()``, Prometheus text, the line protocol's
``!stats``/``!trace``/``!slow`` verbs, ``serve --metrics``).
"""

from .compiled_query import CompiledQuery, QueryCompiler, lower_query, query_key
from .conjunctive import (
    Atom,
    ConjunctiveQuery,
    ConjunctiveResult,
    JoinPlan,
    PlanExecution,
    nested_loop_rows,
    parse_crpq,
    plan_join,
)
from .csr import CompiledGraph, LabelEdges, ProductCSR
from .request import CRPQRequest, QueryRequest, normalize
from .executor import (
    BACKENDS,
    BatchRun,
    SingleRun,
    available_backends,
    numpy_available,
    resolve_backend,
    run_all_pairs,
    run_batch,
    run_single,
)
from .interning import Interner
from .session import Engine, EngineStats, shared_engine
from .serving import (
    AnswerStream,
    QueryServer,
    ServingStats,
    serve_stream,
    serve_tcp,
)
from .sharding import (
    ExplicitShardMap,
    HashShardMap,
    ShardedEngine,
    ShardedStats,
    ShardMap,
)
from .telemetry import (
    NULL_SPAN,
    Histogram,
    MetricsRegistry,
    Span,
    Telemetry,
    TelemetryHTTPServer,
    Trace,
    Tracer,
    render_text,
    set_enabled as set_telemetry_enabled,
    enabled as telemetry_enabled,
)
from .snapshot import (
    FORMAT_VERSION as SNAPSHOT_FORMAT_VERSION,
    SnapshotPayload,
    SnapshotStamp,
    load_engine,
    load_payload,
    save_engine,
)

__all__ = [
    "Atom",
    "BACKENDS",
    "BatchRun",
    "CompiledGraph",
    "CompiledQuery",
    "ConjunctiveQuery",
    "ConjunctiveResult",
    "CRPQRequest",
    "Engine",
    "EngineStats",
    "ExplicitShardMap",
    "HashShardMap",
    "Histogram",
    "Interner",
    "JoinPlan",
    "LabelEdges",
    "MetricsRegistry",
    "NULL_SPAN",
    "PlanExecution",
    "ProductCSR",
    "QueryCompiler",
    "AnswerStream",
    "QueryRequest",
    "QueryServer",
    "SNAPSHOT_FORMAT_VERSION",
    "ServingStats",
    "ShardMap",
    "ShardedEngine",
    "ShardedStats",
    "SingleRun",
    "SnapshotPayload",
    "SnapshotStamp",
    "Span",
    "Telemetry",
    "TelemetryHTTPServer",
    "Trace",
    "Tracer",
    "available_backends",
    "load_engine",
    "load_payload",
    "lower_query",
    "nested_loop_rows",
    "normalize",
    "numpy_available",
    "parse_crpq",
    "plan_join",
    "query_key",
    "render_text",
    "resolve_backend",
    "run_all_pairs",
    "run_batch",
    "run_single",
    "save_engine",
    "serve_stream",
    "serve_tcp",
    "set_telemetry_enabled",
    "shared_engine",
    "telemetry_enabled",
]
