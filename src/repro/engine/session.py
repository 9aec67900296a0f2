"""The engine façade: one compiled graph, one query cache, many evaluations.

``Engine.open(instance)`` compiles the instance once into the label-indexed
CSR form and then serves any number of query evaluations against it —
single-source, multi-source batched, or all-pairs — compiling each distinct
query at most once (LRU).  The façade also owns the two cross-cutting
concerns that individual executors should not:

* **staleness** — the engine snapshots the instance's version counters and
  transparently rebuilds the compiled graph when the instance's *edge set*
  has been mutated behind its back; object-only growth (``add_object`` of
  isolated nodes) just grows the node interner in place, and edges added or
  removed *through* the engine (:meth:`Engine.add_edge` /
  :meth:`Engine.remove_edge`) take the cheap incremental paths (overflow
  adjacency / tombstones) instead;
* **persistence** — :meth:`Engine.save` writes the whole compiled substrate
  (graph + warm query cache + staleness stamp) to disk, and
  ``Engine.open(path, instance=...)`` warm-starts a new session from it,
  falling back to a fresh compile when the stamp does not match (see
  :mod:`repro.engine.snapshot`);
* **backend selection** — every evaluation is dispatched through
  :mod:`repro.engine.executor` with the session's ``backend`` setting
  (``auto``/``python``/``packed``/``numpy``); which kernel actually served
  each run is tallied in :attr:`EngineStats.backend_runs`;
* **constraint pre-rewrite** — when opened with a
  :class:`~repro.constraints.constraint.ConstraintSet`, each query is first
  handed to :func:`repro.optimize.rewriter.rewrite_query` and the provably
  equivalent cheapest form is what gets compiled, so the Section 3.2
  optimization composes with the compiled execution path.

Results mirror :class:`repro.query.evaluation.EvaluationResult`, including
witness paths for single-source calls, so the engine is a drop-in backend
for existing callers (see the delegation hook in ``query.evaluation`` and the
``backend`` parameter of ``optimize.planner.plan_and_evaluate``).
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..exceptions import ReproError
from ..graph.instance import Instance, Oid
from ..optimize.cost import DegreeStats
from ..query.evaluation import EvaluationResult
from ..query.path_query import RegularPathQuery
from ..regex import Regex
from .compiled_query import CompiledQuery, QueryCompiler, query_key
from .conjunctive import (
    ActiveDomain,
    Atom,
    ConjunctiveQuery,
    ConjunctiveResult,
    JoinPlan,
    PlanExecution,
    is_crpq_text,
    parse_crpq,
    plan_join,
    record_join,
)
from .csr import CompiledGraph
from .request import CRPQRequest, QueryRequest, normalize
from .executor import BACKENDS, resolve_backend, run_all_pairs, run_batch, run_single
from . import telemetry
from .telemetry import MetricsRegistry, Telemetry, witnessed_lock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..constraints.constraint import ConstraintSet
    from ..optimize.cost import CostModel
    from .serving import QueryServer, SuperstepScheduler

_SHARED_ENGINE_ATTR = "_repro_shared_engine"


def _lower_batch_request(query, sources):
    """Lower ``query_batch`` arguments: structured request or classic pair."""
    if isinstance(query, (QueryRequest, CRPQRequest)):
        if sources is not None:
            raise ReproError(
                "pass sources inside the QueryRequest, not alongside it"
            )
        request = normalize(query)
        if request.is_conjunctive:
            raise ReproError(
                "conjunctive requests are answered by query_conjunctive()"
            )
        return request.query, request.sources
    if sources is None:
        raise TypeError("query_batch() missing sources (or pass a QueryRequest)")
    return query, sources


class _ReadWriteLock:
    """A small readers-writer lock for the query/mutation exclusion.

    Executor runs are pure reads of the compiled graph and may overlap
    freely; the *in-place* mutations (``add_edge``/``remove_edge`` touching
    the CSR overflow, tombstones and interners of the live graph object)
    must run alone.  Writers block new readers while waiting (no writer
    starvation under a busy server); readers never block each other.
    """

    __slots__ = ("_cond", "_readers", "_writer", "_writers_waiting", "_name")

    def __init__(self, name: "str | None" = None) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        # Stable node name for the REPRO_LOCK_WITNESS recorder; read/write
        # tokens report as one logical lock in the acquisition-order graph.
        self._name = name

    def _note_acquire(self) -> None:
        if self._name is not None:
            witness = telemetry.lock_witness()
            if witness is not None:
                witness.note_acquire(self._name)

    def _note_release(self) -> None:
        if self._name is not None:
            witness = telemetry.lock_witness()
            if witness is not None:
                witness.note_release(self._name)

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        self._note_acquire()

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()
        self._note_release()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        self._note_acquire()

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()
        self._note_release()

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@dataclass
class _SessionStats:
    """The counters both session kinds keep, exposed as callback gauges.

    :class:`EngineStats` and :class:`~repro.engine.sharding.ShardedStats`
    add their own counters (named in their ``_GAUGES``) on top of these.
    """

    single_evaluations: int = 0
    batch_evaluations: int = 0
    batched_sources: int = 0
    visited_pairs: int = 0
    rewrites_applied: int = 0
    # Which executor actually served each run, e.g. {"numpy": 12, "python": 1}.
    backend_runs: dict[str, int] = field(default_factory=dict)

    _GAUGES = (
        ("single_evaluations", "single-source evaluations"),
        ("batch_evaluations", "batched evaluations"),
        ("batched_sources", "sources answered across batched evaluations"),
        ("visited_pairs", "(node, state) pairs visited by executor runs"),
        ("rewrites_applied", "queries improved by the constraint rewriter"),
    )
    _BACKEND_RUNS_HELP = "evaluations served per executor backend"

    def record_backend(self, backend: str) -> None:
        self.backend_runs[backend] = self.backend_runs.get(backend, 0) + 1

    def register(self, registry: MetricsRegistry, prefix: str) -> None:
        """Expose every counter through ``registry`` as a callback gauge.

        The callbacks close over this stats object (never over the owning
        session — gauge registration must not extend the session's
        lifetime), so snapshots always read the live values without a
        second write path.  Metric names (``engine_graph_builds``,
        ``sharded_supersteps``, ...) are part of the documented surface; see
        README "Observability".
        """
        for attr, help_text in self._GAUGES:
            registry.gauge(
                f"{prefix}_{attr}", help_text, lambda a=attr: getattr(self, a)
            )
        registry.gauge(
            f"{prefix}_backend_runs",
            self._BACKEND_RUNS_HELP,
            lambda: dict(self.backend_runs),
            labelnames=("backend",),
        )


@dataclass
class EngineStats(_SessionStats):
    """Counters accumulated across the lifetime of one engine session."""

    graph_builds: int = 0
    snapshot_restores: int = 0
    interner_growths: int = 0
    incremental_edges: int = 0
    incremental_removals: int = 0

    _GAUGES = (
        ("graph_builds", "full compiled-graph builds"),
        ("snapshot_restores", "sessions warm-started from a snapshot"),
        ("interner_growths", "node-interner growths without rebuild"),
        ("incremental_edges", "edges absorbed via the CSR overflow path"),
        ("incremental_removals", "edges removed via the tombstone path"),
    ) + _SessionStats._GAUGES

    def summary(self, engine: "Engine") -> str:
        compiler = engine.compiler
        backends = (
            ", ".join(
                f"{name}={count}" for name, count in sorted(self.backend_runs.items())
            )
            or "none"
        )
        restored = (
            f", {self.snapshot_restores} snapshot warm-start"
            if self.snapshot_restores
            else ""
        )
        return (
            f"graph builds: {self.graph_builds}{restored} "
            f"(+{self.incremental_edges} incremental edges, "
            f"-{self.incremental_removals} incremental removals); "
            f"compiles: {compiler.misses}, cache hits: {compiler.hits}; "
            f"evaluations: {self.single_evaluations} single, "
            f"{self.batch_evaluations} batched "
            f"({self.batched_sources} sources); "
            f"visited pairs: {self.visited_pairs}; "
            f"rewrites applied: {self.rewrites_applied}; "
            f"backend runs: {backends}"
        )


def _unknown_source(source: Oid, compiled: CompiledQuery) -> EvaluationResult:
    """The answer of a source the graph does not hold.

    An unknown source has an empty description: it answers itself exactly
    when the query accepts the empty word, by the empty witness.
    """
    result = EvaluationResult(visited_pairs=1, visited_objects=1)
    if compiled.accepts_empty_word():
        result.answers.add(source)
        result.witness_paths[source] = ()
    return result


def _lowerings_of(session: "Session | None") -> "dict[str, int]":
    return {} if session is None else session._lowering_counts()


class Session:
    """One session API over two evaluators.

    The paper defines one answer, ``p(o, I)``, however the evaluation is
    distributed, so :class:`Engine` (one compiled graph) and
    :class:`repro.engine.sharding.ShardedEngine` (superstep exchange across
    shard graphs) share everything but the evaluation itself.  This base
    owns the public API — ``query``, ``answer_set``, the ``query_batch``
    family, ``query_all``, ``describe``, ``close``, the conjunctive
    queries, admission, ``telemetry`` and ``as_server`` — together with
    their spans and latency histograms, the unknown-source rule, answers
    assembled in request order, the constraint-rewrite memo and the
    session locks.

    The host contract: a host sets ``_PREFIX`` (its span and metric prefix,
    ``engine`` or ``sharded``), calls :meth:`__init__` with its stats
    object, and supplies ``refresh()``, the ``_instance`` it serves with its
    ``_instance_version`` stamp, :meth:`_count_degrees`,
    :meth:`_lowering_counts` and four evaluation internals.  The first
    three answer only the sources the graph holds, beside the compiled
    query they ran, which decides the rest:

    * ``_query_single(query, source)`` -> ``(compiled, result or None)``;
    * ``_query_batch(query, sources, emit)`` -> ``(compiled, {source: answers})``;
    * ``_query_batch_results(query, sources)`` ->
      ``(compiled, {source: EvaluationResult})``;
    * ``_query_all(query)`` -> ``{object: answers}``.
    """

    _PREFIX: str

    # The rewrite and admission memos: every touch of either OrderedDict
    # goes through the dedicated ``_rewrite_lock``.  The planner-input
    # caches and the scheduler reference are published under the session
    # ``_lock``.
    GUARDED_BY = {
        "_rewrites": "_rewrite_lock",
        "_admissions": "_rewrite_lock",
        "_degree_stats": "_lock:mutate",
        "_domain_cache": "_lock:mutate",
        "_scheduler": "_lock:mutate",
    }

    # A sharded session with ``concurrency=N`` runs its supersteps here;
    # a monolithic one never has one, so its :meth:`close` is a no-op.
    _scheduler: "SuperstepScheduler | None" = None

    def __init__(
        self,
        *,
        constraints: "ConstraintSet | None",
        cost_model: "CostModel | None",
        cache_capacity: int,
        backend: str,
        stats: _SessionStats,
    ) -> None:
        self.constraints = constraints
        self.cost_model = cost_model
        # Bounds the rewrite memo here, and each compile cache beside it.
        self.cache_capacity = cache_capacity
        # Validate the name eagerly ("numpy" on a numpy-less machine still
        # fails lazily, at first evaluation, so sessions stay constructible
        # before the availability question is settled).
        if backend not in BACKENDS:
            resolve_backend(backend)  # raises with the canonical message
        self.backend = backend
        self.stats = stats
        # One telemetry bundle (metrics registry + trace ring) per session.
        # The serving layer registers into this same registry, so one
        # snapshot covers admission, compile and evaluation.
        self.metrics = Telemetry()
        registry = self.metrics.registry
        prefix = self._PREFIX
        stats.register(registry, prefix)
        self._query_span = f"{prefix}.query"
        self._hist_query = registry.histogram(
            f"{prefix}_query_seconds", "end-to-end evaluation latency per call"
        )
        self._hist_rewrite = registry.histogram(
            f"{prefix}_rewrite_seconds", "cold constraint-rewrite search latency"
        )
        # Read through a weak reference: no registry callback may keep the
        # session alive (see ``shared_engine``).
        session = weakref.ref(self)
        registry.gauge(
            f"{prefix}_product_lowerings_total",
            "numpy product-CSR lookups by outcome (built, patched, hit)",
            lambda: _lowerings_of(session()),
            labelnames=("how",),
        )
        # Guards refresh, mutation and the stats counters against concurrent
        # server threads (see each host's docstring for what it serializes).
        # Witnessed under the host's name: ``Engine._lock``,
        # ``ShardedEngine._lock``.
        name = type(self).__name__
        self._lock = witnessed_lock(f"{name}._lock", threading.RLock)
        # The rewrite memo gets its own short-lived lock: the serving
        # layer's admission path (admission_key) runs on the event loop and
        # must never wait behind an evaluation holding the session lock.
        self._rewrite_lock = witnessed_lock(f"{name}._rewrite_lock")
        # Rewrite memo, LRU-bounded like the compile cache so a long-lived
        # constrained session does not grow without limit.
        self._rewrites: "OrderedDict[str, Regex]" = OrderedDict()
        # Admission memo: raw query text -> (admission key, prepared query),
        # same bound and lock.  An entry depends only on the text and on
        # the session's fixed constraint set, so whatever ever clears
        # ``_rewrites`` must clear ``_admissions`` with it.
        self._admissions: "OrderedDict[str, tuple[str, object]]" = OrderedDict()

    @property
    def instance(self) -> Instance:
        """The live instance; resolves the weakref held by shared engines.

        Raises :class:`~repro.exceptions.ReproError` when a weakly-bound
        engine outlived its instance.  Read paths never hit this — they
        only consult the instance for staleness detection, and a dead
        instance can no longer mutate, so :meth:`Engine.refresh` treats it
        as final and queries keep serving the frozen compiled graph.  Only
        operations that genuinely need the instance (``add_edge`` /
        ``remove_edge`` / ``save``) surface the error.
        """
        instance = self._instance_or_none()
        if instance is None:
            raise ReproError(
                "the engine's instance has been garbage-collected; the "
                "compiled graph is frozen (queries still work, mutation "
                "and save do not)"
            )
        return instance

    def _instance_or_none(self) -> "Instance | None":
        held = self._instance
        if type(held) is weakref.ref:
            return held()
        return held

    def _prepared(self, query):
        """The constraint-rewritten form of ``query``, memoized (LRU).

        The memo lock is held only for the dictionary bookkeeping; a *cold*
        rewrite (the cost-model search) runs outside it, so concurrent
        admissions — including the serving layer's event-loop thread —
        never wait behind another thread's rewrite in progress.  Two
        threads racing on the same fresh query both rewrite it; the results
        are identical and the second insert is a no-op (``rewrites_applied``
        still counts the query once).  The rewritten form is seeded under
        its own key too — a fixed point — so re-preparing an
        already-prepared query (the admission queue evaluates the prepared
        form it got from :meth:`admission`) is a memo hit.
        """
        constraints = self.constraints
        if constraints is None or len(constraints) == 0:
            return query
        key = query_key(query)
        with self._rewrite_lock:
            cached = self._rewrites.get(key)
            if cached is not None:
                self._rewrites.move_to_end(key)
                return cached
        from ..optimize.cost import DEFAULT_COST_MODEL
        from ..optimize.rewriter import rewrite_query

        with self.metrics.span("engine.rewrite") as rewrite_span:
            outcome = rewrite_query(
                query if isinstance(query, (Regex, str)) else query.expression,
                constraints,
                self.cost_model or DEFAULT_COST_MODEL,
            )
            rewrite_span.set(
                improved=outcome.improved,
                generated=outcome.generated,
                proofs_attempted=outcome.proofs_attempted,
                skipped_by_cost=outcome.skipped_by_cost,
                generate_ms=outcome.generate_ms,
                prove_ms=outcome.prove_ms,
                proved_by=outcome.proved_by,
            )
        self._hist_rewrite.observe(rewrite_span.duration)
        best_key = query_key(outcome.best)
        with self._rewrite_lock:
            fresh = key not in self._rewrites
            self._rewrites[key] = outcome.best
            if best_key != key:
                self._rewrites[best_key] = outcome.best
            while len(self._rewrites) > self.cache_capacity:
                self._rewrites.popitem(last=False)
            if fresh and outcome.improved:
                self.stats.rewrites_applied += 1
        return outcome.best

    def admission(self, query) -> "tuple[str, object]":
        """``(admission key, prepared query)`` for the serving layer.

        The key is the canonical printed form of the *constraint-rewritten*
        expression: two requests with the same key compile to the same DFA
        on this session, so the admission queue
        (:class:`repro.engine.serving.QueryServer`) may evaluate them in
        one shared batch and split the answers afterwards.  The prepared
        form rides along so the eventual batch evaluates it directly (a
        rewrite-memo fixed point) instead of re-deriving the rewrite; for a
        scalar text it is a parsed :class:`~repro.regex.Regex`, so the
        flush's compile-cache lookup prints it rather than parsing again.

        A query *text* is admitted once: the pair is memoized by raw text
        (LRU, ``cache_capacity`` entries, under the rewrite memo's lock),
        so a served request whose text was seen before costs one dictionary
        lookup — no parse, no print, no rewrite.  The parse (and, on a
        constrained session, the rewrite) of a new text runs outside the
        lock.  Only successes are memoized: a syntax error raises on every
        request.

        Accepts the structured shapes of :mod:`repro.engine.request`
        natively: a scalar :class:`~repro.engine.request.QueryRequest`
        lowers to its expression, and a conjunctive body (a
        ``ConjunctiveQuery``, ``CRPQRequest`` or ``MATCH …`` text) gets a
        compound ``crpq:``-prefixed key over its per-atom rewritten forms.
        Coalescing of conjunctive traffic is **per atom**, not per CRPQ:
        the serving layer admits each planned atom back through this same
        method with the atom's scalar expression, whose key equals the key
        an identical scalar request gets — so a CRPQ atom merges into an
        in-flight scalar batch (and vice versa).  The compound key exists
        for cursor digests and cache identity, never as a batch bucket.
        """
        if isinstance(query, (QueryRequest, CRPQRequest)):
            query = normalize(query).query
        if not isinstance(query, str):
            return self._admit_cold(query)
        with self._rewrite_lock:
            admitted = self._admissions.get(query)
            if admitted is not None:
                self._admissions.move_to_end(query)
                return admitted
        admitted = self._admit_cold(query)
        with self._rewrite_lock:
            self._admissions[query] = admitted
            while len(self._admissions) > self.cache_capacity:
                self._admissions.popitem(last=False)
        return admitted

    def _admit_cold(self, query) -> "tuple[str, object]":
        """:meth:`admission` without the text memo: parse, rewrite, print."""
        if isinstance(query, ConjunctiveQuery) or (
            isinstance(query, str) and is_crpq_text(query)
        ):
            prepared = self.prepare_conjunctive(query)
            return "crpq:" + prepared.to_text(), prepared
        if isinstance(query, str):
            query = RegularPathQuery.from_string(query).expression
        prepared = self._prepared(query)
        return query_key(prepared), prepared

    def admission_key(self, query) -> str:
        """The shared-batch coalescing key of ``query`` (see :meth:`admission`)."""
        return self.admission(query)[0]

    # -- conjunctive queries ---------------------------------------------------

    # Planner inputs, each a ``(version stamp, immutable value)`` pair swapped
    # in by one reference assignment: a request pays for them once per
    # instance version, not once per query.
    _degree_stats: "tuple[int, DegreeStats] | None" = None
    _domain_cache: "tuple[int, tuple[Oid, ...]] | None" = None

    def degree_stats(self) -> DegreeStats:
        """Per-label live edge counts feeding the CRPQ join planner, counted
        once per instance version (hosts supply :meth:`_count_degrees`)."""
        with self._lock:
            self.refresh()
            version = self._instance_version
            cached = self._degree_stats
            if cached is None or cached[0] != version:
                cached = self._degree_stats = (version, self._count_degrees())
        return cached[1]

    def _count_degrees(self) -> DegreeStats:
        raise NotImplementedError  # pragma: no cover - hosts supply it

    def _lowering_counts(self) -> "dict[str, int]":
        """The numpy product lowerings of this session's compiled graph(s)
        by outcome: ``built``, ``patched`` or ``hit`` (see
        :meth:`CompiledGraph.numpy_product_csr`)."""
        raise NotImplementedError  # pragma: no cover - hosts supply it

    def _active_domain(self) -> "tuple[Oid, ...]":
        """Every object sorted by ``repr``: what unbound-source atoms (and
        ``query_all``) range over, sorted once per instance version.

        ``crpq_domain_materializations`` counts the sorts, so "a bound
        query never enumerates the objects" is checkable from outside.
        """
        with self._lock:
            instance = self.instance
            version = instance.version
            cached = self._domain_cache
            if cached is None or cached[0] != version:
                cached = self._domain_cache = (
                    version,
                    tuple(sorted(instance.objects, key=repr)),
                )
                self.metrics.registry.counter(
                    "crpq_domain_materializations",
                    "times the active domain was enumerated and sorted",
                ).inc()
        return cached[1]

    def prepare_conjunctive(self, query) -> ConjunctiveQuery:
        """Parse + constraint-rewrite a conjunctive query.

        Returns a :class:`~repro.engine.conjunctive.ConjunctiveQuery` whose
        atoms carry the *prepared* (constraint-rewritten) expressions, each
        memoized through the same rewrite memo scalar admission uses — so
        re-preparing an atom later (per-atom admission) is a memo hit.
        """
        if isinstance(query, (QueryRequest, CRPQRequest)):
            query = normalize(query).query
        if isinstance(query, str):
            query = parse_crpq(query)
        if not isinstance(query, ConjunctiveQuery):
            raise ReproError(f"not a conjunctive query: {query!r}")
        constraints = self.constraints
        if constraints is None or len(constraints) == 0:
            return query
        return ConjunctiveQuery(
            atoms=tuple(
                Atom(atom.source, self._prepared(atom.expression), atom.target)
                for atom in query.atoms
            ),
            bindings=query.bindings,
            returns=query.returns,
        )

    def plan_conjunctive(self, query, *, strategy: str = "optimized") -> JoinPlan:
        """The join order :meth:`query_conjunctive` would run, with estimates."""
        return self._plan_prepared(self.prepare_conjunctive(query), strategy)

    def _plan_prepared(self, crpq: ConjunctiveQuery, strategy: str) -> JoinPlan:
        """Plan an already-prepared query (see :meth:`prepare_conjunctive`)."""
        with self.metrics.span(
            "crpq.plan", atoms=len(crpq.atoms), strategy=strategy
        ) as plan_span:
            plan = plan_join(
                crpq,
                self.degree_stats(),
                self.cost_model,
                strategy=strategy,
                domain=ActiveDomain(self.instance, self._active_domain),
            )
            plan_span.set(
                acyclic=plan.acyclic, estimated_cost=plan.estimated_cost
            )
        return plan

    def query_conjunctive(self, query, *, strategy: str = "optimized") -> ConjunctiveResult:
        """Evaluate a conjunctive query (text, ``ConjunctiveQuery`` or
        structured request) as a join over batched atom evaluations.

        Each planned atom runs through :meth:`query_batch` — the same
        shared-traversal machinery scalar requests use — and the pair maps
        are hash-joined by :class:`~repro.engine.conjunctive.PlanExecution`
        in the planner's order.  Emits ``crpq.plan`` / ``crpq.atom`` /
        ``crpq.join`` spans (the last with the step's estimated beside its
        actual pairs) and bumps the ``crpq_*`` join-cardinality counters and
        the ``crpq_q_error`` histogram (see README "Observability").
        """
        crpq = self.prepare_conjunctive(query)
        with self.metrics.span("crpq.query", atoms=len(crpq.atoms)) as root:
            plan = self._plan_prepared(crpq, strategy)
            execution = PlanExecution(plan)
            while (request := execution.pending()) is not None:
                with self.metrics.span(
                    "crpq.atom",
                    atom=request.step.atom.text(),
                    sources=len(request.sources),
                ):
                    pairs = self.query_batch(request.expression, request.sources)
                with self.metrics.span("crpq.join") as join_span:
                    join_span.set(**execution.feed(pairs).span_attributes())
            rows = execution.result_rows()
            root.set(rows=len(rows))
        record_join(self.metrics.registry, execution.steps)
        return ConjunctiveResult(
            variables=crpq.returns,
            rows=rows,
            plan=plan,
            steps=tuple(execution.steps),
        )

    def telemetry(self) -> dict:
        """One JSON-ready snapshot of the session's metrics registry.

        Covers everything registered into it — the session's own stats
        gauges and histograms, plus whatever a :class:`QueryServer` over
        this session registered (see
        :meth:`repro.engine.telemetry.MetricsRegistry.snapshot` for the key
        conventions).
        """
        return self.metrics.snapshot()

    def as_server(
        self,
        *,
        max_batch: int = 64,
        max_delay: float = 0.002,
        concurrency: "int | None" = None,
    ) -> "QueryServer":
        """An asyncio serving handle over this session.

        See :class:`repro.engine.serving.QueryServer`: requests admitted
        through the handle are coalesced per :meth:`admission` into shared
        batched evaluations under a max-batch-size / max-delay policy,
        executed on a ``concurrency``-wide thread pool so the event loop
        never blocks on an engine round-trip.  (For the *sharded* engine,
        ``concurrency`` here sizes only the flush pool; the superstep
        scheduler is the engine's own — pass ``concurrency=`` to its
        ``open`` for that.)
        """
        from .serving import QueryServer

        return QueryServer(
            self, max_batch=max_batch, max_delay=max_delay, concurrency=concurrency
        )

    def close(self) -> None:
        """Release the superstep scheduler's worker threads (idempotent).

        The session stays usable: later evaluations run their supersteps
        sequentially, as one opened without ``concurrency`` does, and
        ``scheduler`` reads ``None``.  A no-op on a monolithic
        :class:`Engine`, which never has worker threads.
        """
        with self._lock:
            scheduler, self._scheduler = self._scheduler, None
        if scheduler is not None:
            scheduler.close()

    def describe(self) -> str:
        return self.stats.summary(self)

    # -- evaluation -----------------------------------------------------------
    def query(
        self, query: "RegularPathQuery | Regex | str", source: Oid
    ) -> EvaluationResult:
        """Single-source evaluation with witnesses, as an ``EvaluationResult``."""
        with self.metrics.span(self._query_span, mode="single") as query_span:
            with self._lock:
                self.stats.single_evaluations += 1
            compiled, result = self._query_single(query, source)
            if result is None:
                result = _unknown_source(source, compiled)
            query_span.set(answers=len(result.answers))
        self._hist_query.observe(query_span.duration)
        return result

    def answer_set(
        self, query: "RegularPathQuery | Regex | str", source: Oid
    ) -> set[Oid]:
        return self.query(query, source).answers

    def query_batch(
        self,
        query: "QueryRequest | RegularPathQuery | Regex | str",
        sources: "Sequence[Oid] | Iterable[Oid] | None" = None,
    ) -> dict[Oid, set[Oid]]:
        """Evaluate one query from many sources in one shared evaluation.

        Accepts either the classic ``(expression, sources)`` pair or a
        scalar :class:`~repro.engine.request.QueryRequest` (whose
        ``sources`` field supplies the roots); conjunctive requests belong
        to :meth:`query_conjunctive`.  The answers come back in request
        order, one entry per distinct source.
        """
        query, sources = _lower_batch_request(query, sources)
        return self._batch("batch", query, sources)

    def query_batch_streaming(
        self,
        query: "RegularPathQuery | Regex | str",
        sources: "Sequence[Oid] | Iterable[Oid]",
        emit: "Callable[[Oid, Iterable[Oid]], None]",
    ) -> dict[Oid, set[Oid]]:
        """Batched evaluation that also streams answers as they land.

        ``emit(source, answers)`` is called *during* the evaluation — from
        the thread running it (a superstep worker, on a concurrent sharded
        session), once per newly accepting fact (per fixpoint round on the
        numpy backend) — and each ``(source, answer)`` pair is emitted at
        most once; the union of everything emitted for a source equals its
        entry of the returned dict, which is exactly what
        :meth:`query_batch` returns.  ``emit`` must be cheap and
        thread-safe (the serving layer hops it back onto its event loop);
        exceptions it raises abort the run.
        """
        return self._batch("batch_streaming", query, sources, emit)

    def query_batch_results(
        self,
        query: "RegularPathQuery | Regex | str",
        sources: "Sequence[Oid] | Iterable[Oid]",
    ) -> dict[Oid, EvaluationResult]:
        """Batched evaluation that also reconstructs witness paths.

        One shared evaluation answers every source (exactly like
        :meth:`query_batch`), and each ``(source, answer)`` pair gets one
        witness label word.  The traversal statistics are those of the
        whole batch, mirrored into every per-source result.
        """
        return self._batch("batch_results", query, sources)

    def _batch(self, mode: str, query, sources, emit=None) -> dict:
        """One timed batched evaluation, assembled in request order.

        The host answers the sources its graph holds; every other source
        gets the unknown-source answer (streamed too, when ``emit`` is
        given), and the dict follows the first occurrence of each source.
        """
        source_list = list(sources)
        with self.metrics.span(self._query_span, mode=mode) as query_span:
            self._count_batch(len(source_list))
            witnesses = mode == "batch_results"
            if witnesses:
                compiled, found = self._query_batch_results(query, source_list)
            else:
                compiled, found = self._query_batch(query, source_list, emit)
            results: dict = {}
            for source in source_list:
                if source in results:
                    continue
                answer = found.get(source)
                if answer is None:
                    unknown = _unknown_source(source, compiled)
                    answer = unknown if witnesses else unknown.answers
                    if emit is not None and unknown.answers:
                        emit(source, (source,))
                results[source] = answer
            query_span.set(sources=len(results))
        self._hist_query.observe(query_span.duration)
        return results

    def query_all(
        self, query: "RegularPathQuery | Regex | str"
    ) -> dict[Oid, set[Oid]]:
        """All-pairs evaluation: the answer set of every object of the graph."""
        with self.metrics.span(self._query_span, mode="all_pairs") as query_span:
            results = self._query_all(query)
            self._count_batch(len(results))
            query_span.set(sources=len(results))
        self._hist_query.observe(query_span.duration)
        return results

    def _count_batch(self, sources: int) -> None:
        with self._lock:
            self.stats.batch_evaluations += 1
            self.stats.batched_sources += sources


class Engine(Session):
    """A compiled-evaluation session bound to one :class:`Instance`.

    Thread-safety: concurrent *queries* against one engine are safe — the
    serving layer (:mod:`repro.engine.serving`) runs admission-queue flushes
    on a thread pool, so the mutable session state (staleness refresh, the
    rewrite memo, the statistics counters; the compile cache and the lazy
    numpy edge arrays carry their own locks) is guarded by an internal
    re-entrant lock, while the executor runs themselves — read-only on the
    compiled graph — proceed outside it and overlap freely.  Concurrent
    *mutation* (``add_edge``/``remove_edge``/``save``) takes the same lock
    and additionally drains in-flight executor runs (a readers-writer
    exclusion) before touching the live CSR structures in place, so a query
    racing an edit answers consistently against the edge set before or
    after it — which one is the caller's ordering to decide.
    """

    # The machine-checked half of the docstring above (``python -m
    # repro.analysis``).  ``_graph`` is ``:mutate``: the reference is
    # atomically *published* under ``_lock`` (refresh/rebuild) while point
    # reads — the ``graph`` property, compile capture — are lock-free by
    # design.  The version stamps are read and written under ``_lock`` only.
    GUARDED_BY = {
        "_graph": "_lock:mutate",
        "_instance_version": "_lock",
        "_edge_version": "_lock",
    }

    _PREFIX = "engine"

    def __init__(
        self,
        instance: Instance,
        *,
        constraints: "ConstraintSet | None" = None,
        cost_model: "CostModel | None" = None,
        cache_capacity: int = 128,
        backend: str = "auto",
        labels: "Sequence[str] | None" = None,
        auto_compact_ratio: "int | None" = 4,
        _graph: "CompiledGraph | None" = None,
    ) -> None:
        super().__init__(
            constraints=constraints,
            cost_model=cost_model,
            cache_capacity=cache_capacity,
            backend=backend,
            stats=EngineStats(),
        )
        self._instance: "Instance | weakref.ref[Instance]" = instance
        self.compiler = QueryCompiler(cache_capacity)
        # Gauge callbacks close over the stats/compiler objects, never over
        # the engine: ``shared_engine`` relies on plain refcounting to free
        # the session, so no registry callback may point back at ``self``.
        registry = self.metrics.registry
        compiler = self.compiler
        registry.gauge(
            "engine_compile_hits", "query-cache hits", lambda: compiler.hits
        )
        registry.gauge(
            "engine_compile_misses", "query lowerings (cache misses)",
            lambda: compiler.misses,
        )
        registry.gauge(
            "engine_cached_queries", "compiled tables resident in the LRU",
            lambda: len(compiler),
        )
        self._hist_run = registry.histogram(
            "engine_run_seconds", "executor run latency (traversal only)"
        )
        self._hist_compile = registry.histogram(
            "engine_compile_seconds", "DFA lookup/lowering latency per query"
        )
        # Label-order seed for every graph build of this session.  The
        # sharded engine passes one *shared, live* list to all its shard
        # engines, so even a full rebuild interns the global label universe
        # (in the shared order) before the shard's own edge labels — which is
        # what keeps DFA liveness pruning correct across shard boundaries.
        self._label_seed = labels
        # Executor runs (shared) vs in-place graph mutation (exclusive):
        # add_edge/remove_edge mutate the live CSR overflow/tombstones/
        # interners that a concurrently running executor is reading, so
        # they drain in-flight runs first.  Never acquire ``_lock`` while
        # holding a read token (writers hold ``_lock`` when they wait).
        self._run_lock = _ReadWriteLock("Engine._run_lock")
        # Auto-compaction tuning, re-applied to every graph this session
        # builds or restores (the knob lives on the session, the live value
        # on the graph).
        self._auto_compact_ratio = auto_compact_ratio
        if _graph is None:
            self._graph = CompiledGraph.from_instance(instance, labels=labels)
            self.stats.graph_builds += 1
        else:
            # Snapshot warm-start: the caller restored a compiled graph that
            # is already consistent with ``instance`` — no build to pay.
            self._graph = _graph
            self.stats.snapshot_restores += 1
        self._graph.auto_compact_ratio = auto_compact_ratio
        self._instance_version = instance.version
        self._edge_version = instance.edge_version

    def _hold_instance_weakly(self) -> None:
        """Swap the instance back-edge for a weakref.

        :func:`shared_engine` stores the engine *on* the instance, so a
        strong ``Engine -> Instance`` edge would close a reference cycle
        that keeps large compiled graphs alive until a gc cycle pass.  With
        the weak back-edge the instance's refcount alone decides both
        lifetimes: dropping the instance frees the engine immediately.
        """
        held = self._instance
        if type(held) is not weakref.ref:
            self._instance = weakref.ref(held)

    @classmethod
    def open(
        cls,
        source: "Instance | str | os.PathLike",
        *,
        instance: "Instance | None" = None,
        constraints: "ConstraintSet | None" = None,
        cost_model: "CostModel | None" = None,
        cache_capacity: int = 128,
        backend: str = "auto",
        labels: "Sequence[str] | None" = None,
        shards: "int | None" = None,
        shard_map=None,
    ) -> "Engine":
        """Return a ready-to-serve engine session.

        ``source`` is either an :class:`Instance` — compiled from scratch,
        exactly as before — or a path to a snapshot written by :meth:`save`,
        which warm-starts the session with the persisted compiled graph and
        query cache.  When loading a snapshot, ``instance`` optionally
        supplies the live instance to serve: the stored stamp (version
        counters + content fingerprint) is validated against it, and on any
        mismatch the engine silently falls back to a full rebuild from the
        supplied instance.  Without ``instance``, the instance is
        reconstructed from the snapshot itself.

        With ``shards=N`` (or an explicit ``shard_map``) the call is
        delegated to :class:`repro.engine.sharding.ShardedEngine` — ``source``
        must then be an instance or a snapshot *directory* — and the return
        value is a sharded session with the same ``query`` / ``query_batch``
        / ``stats`` surface.
        """
        if shards is not None or shard_map is not None:
            from .sharding import ShardedEngine

            if labels is not None:
                raise ReproError(
                    "labels= cannot be combined with shards=/shard_map=; the "
                    "sharded engine manages its own shared label universe"
                )
            return ShardedEngine.open(  # type: ignore[return-value]
                source,
                instance=instance,
                shards=shards,
                shard_map=shard_map,
                constraints=constraints,
                cost_model=cost_model,
                cache_capacity=cache_capacity,
                backend=backend,
            )
        if isinstance(source, (str, os.PathLike)):
            from .snapshot import load_engine

            return load_engine(
                source,
                instance=instance,
                constraints=constraints,
                cost_model=cost_model,
                cache_capacity=cache_capacity,
                backend=backend,
                labels=labels,
            )
        if instance is not None:
            raise ReproError(
                "instance= is only meaningful when opening a snapshot path"
            )
        return cls(
            source,
            constraints=constraints,
            cost_model=cost_model,
            cache_capacity=cache_capacity,
            backend=backend,
            labels=labels,
        )

    def save(self, path: "str | os.PathLike") -> None:
        """Persist the compiled graph and warm query cache to ``path``.

        The engine refreshes first, so the snapshot always reflects the live
        instance; see :mod:`repro.engine.snapshot` for the format.
        """
        from .snapshot import save_engine

        with self._lock:
            self.refresh()
            save_engine(self, path)

    # -- graph lifecycle ------------------------------------------------------
    @property
    def graph(self) -> CompiledGraph:
        return self._graph

    def _lowering_counts(self) -> "dict[str, int]":
        return self._graph.lowering_counts()

    @property
    def resolved_backend(self) -> str:
        """The batch kernel this session's ``backend`` resolves to right now."""
        return resolve_backend(self.backend)

    def refresh(self) -> bool:
        """Rebuild the compiled graph if the instance mutated behind our back.

        Returns ``True`` when a rebuild happened.  Mutations routed through
        :meth:`add_edge` keep the versions in sync and never trigger this.

        Out-of-band mutations that cannot invalidate the CSR — the instance's
        *edge* version is unchanged, so only isolated objects were added via
        ``Instance.add_object`` — take a cheap path instead: the node
        interner grows in place (ids are append-only) and both the compiled
        graph and the warm query cache survive untouched.

        Stale transition tables cannot outlive a rebuild either way: the
        compile cache is keyed by the label interner's fingerprint, so a
        rebuild that permutes label ids misses the cache structurally
        instead of relying on an explicit clear here.  A rebuild that
        happens to preserve the interning order keeps the cache warm.

        A weakly-bound engine (see :func:`shared_engine`) whose instance
        has been collected serves its last compiled state forever: a dead
        instance cannot mutate, so there is nothing to be stale against.
        """
        instance = self._instance_or_none()
        if instance is None:
            return False
        with self._lock:
            if instance.version == self._instance_version:
                return False
            if instance.edge_version == self._edge_version:
                grown = self._graph.ensure_nodes(instance.objects)
                if grown:
                    self.stats.interner_growths += grown
                self._instance_version = instance.version
                return False
            self._graph = CompiledGraph.from_instance(
                instance, labels=self._label_seed
            )
            self._graph.auto_compact_ratio = self._auto_compact_ratio
            self._instance_version = instance.version
            self._edge_version = instance.edge_version
            self.stats.graph_builds += 1
            return True

    def add_edge(self, source: Oid, label: str, destination: Oid) -> None:
        """Add one edge to both the instance and the compiled graph.

        This is the incremental path: the CSR structure absorbs the edge via
        its overflow adjacency instead of recompiling the whole graph.
        """
        with self._lock:
            self.refresh()
            instance = self.instance
            if instance.has_edge(source, label, destination):
                return
            with self._run_lock.write():
                instance.add_edge(source, label, destination)
                self._graph.add_edge(source, label, destination)
            self._instance_version = instance.version
            self._edge_version = instance.edge_version
            self.stats.incremental_edges += 1

    def remove_edge(self, source: Oid, label: str, destination: Oid) -> None:
        """Remove one edge from both the instance and the compiled graph.

        Symmetric to :meth:`add_edge`: the CSR structure tombstones the edge
        instead of recompiling, so cached query tables stay valid (label ids
        never change on the incremental path).
        """
        with self._lock:
            self.refresh()
            instance = self.instance
            with self._run_lock.write():
                instance.remove_edge(source, label, destination)
                self._graph.remove_edge(source, label, destination)
            self._instance_version = instance.version
            self._edge_version = instance.edge_version
            self.stats.incremental_removals += 1

    def compact_now(self) -> bool:
        """Compact the compiled graph immediately: fold overflow edges into
        the dense CSR arrays and drop tombstones, leaving every per-label
        target run sorted (the cache-tuned layout both executors and the
        numpy lowering are fastest on).  Equivalent to what auto-compaction
        does when overflow or tombstones outgrow the
        :attr:`auto_compact_ratio` threshold, but on demand — e.g. after a
        bulk edit burst, before a latency-sensitive serving window.
        Returns ``True`` when the layout actually changed.
        """
        with self._lock:
            self.refresh()
            with self._run_lock.write():
                before = self._graph.version
                self._graph.compact()
                return self._graph.version != before

    @property
    def auto_compact_ratio(self) -> "int | None":
        """The graph's auto-compaction threshold divisor (``None`` = off).

        Compaction triggers when pending overflow edges (on add) or
        tombstones (on remove) exceed ``max(64, edges // ratio)``.  The
        setter applies to the live graph and is remembered across rebuilds.
        """
        with self._lock:
            return self._graph.auto_compact_ratio

    @auto_compact_ratio.setter
    def auto_compact_ratio(self, ratio: "int | None") -> None:
        if ratio is not None and ratio < 1:
            raise ReproError("auto_compact_ratio must be a positive int or None")
        with self._lock:
            self._auto_compact_ratio = ratio
            self._graph.auto_compact_ratio = ratio

    # -- query compilation ----------------------------------------------------
    def compiled(self, query: "RegularPathQuery | Regex | str") -> CompiledQuery:
        """The integer transition table for ``query`` on the current graph."""
        return self._compiled_on(query)[0]

    def _compiled_on(
        self, query: "RegularPathQuery | Regex | str"
    ) -> "tuple[CompiledQuery, CompiledGraph]":
        """``(compiled table, graph it was lowered against)`` — one pair.

        Query paths must traverse the *same* graph object their table was
        compiled on: a concurrent server thread whose :meth:`refresh` swaps
        ``self._graph`` mid-query would otherwise hand this thread a table
        lowered on the old label order and a graph interned in the new one.
        Capturing the pair under the lock (and never re-reading
        ``self._graph`` afterwards) makes every evaluation a consistent —
        possibly one-rebuild stale — snapshot.
        """
        with self._lock:
            self.refresh()
            graph = self._graph
        prepared = self._prepared(query)
        misses_before = self.compiler.misses
        with self.metrics.span("engine.compile") as compile_span:
            compiled = self.compiler.compile(prepared, graph)
            compile_span.set(
                cached=self.compiler.misses == misses_before,
                dfa_size=compiled.dfa_size,
            )
        self._hist_compile.observe(compile_span.duration)
        return compiled, graph

    # -- evaluation (the host half of the Session contract) -------------------
    def _query_single(
        self, query: "RegularPathQuery | Regex | str", source: Oid
    ) -> "tuple[CompiledQuery, EvaluationResult | None]":
        compiled, graph = self._compiled_on(query)
        node = graph.node_id(source)
        if node is None:
            return compiled, None
        with self._run_lock.read():
            with self.metrics.span("engine.run", mode="single") as run_span:
                run = run_single(graph, compiled, node, backend=self.backend)
                run_span.set(backend=run.backend, visited=run.visited_pairs)
        self._hist_run.observe(run.elapsed)
        with self._lock:
            self.stats.visited_pairs += run.visited_pairs
            self.stats.record_backend(run.backend)
        label_of = graph.labels.value_of
        result = EvaluationResult(
            answers=graph.oids_of(run.answers),
            visited_pairs=run.visited_pairs,
            visited_objects=run.visited_objects,
        )
        for node_id, labels in run.witness_paths.items():
            result.witness_paths[graph.oid_of(node_id)] = tuple(
                label_of(label_id) for label_id in labels
            )
        return compiled, result

    @staticmethod
    def _known_sources(
        graph: CompiledGraph, sources: "list[Oid]"
    ) -> "tuple[list[int], list[Oid]]":
        """The batch sources ``graph`` holds: (their node ids, their oids),
        against the query's captured ``graph`` snapshot."""
        known: list[int] = []
        known_oids: list[Oid] = []
        for source in sources:
            node = graph.node_id(source)
            if node is not None:
                known.append(node)
                known_oids.append(source)
        return known, known_oids

    def _count_degrees(self) -> DegreeStats:
        """Per-label live edge counts from the CSR arrays (planner input).

        Derived from the compiled graph (CSR − tombstones + overflow), so
        incremental edits are reflected without a recount of the instance.
        """
        graph = self._graph
        return DegreeStats(
            num_nodes=graph.num_nodes, label_counts=graph.label_edge_counts()
        )

    def _query_batch(
        self,
        query: "RegularPathQuery | Regex | str",
        sources: "list[Oid]",
        emit: "Callable[[Oid, Iterable[Oid]], None] | None",
    ) -> "tuple[CompiledQuery, dict[Oid, set[Oid]]]":
        compiled, graph = self._compiled_on(query)
        known, known_oids = self._known_sources(graph, sources)
        found: dict[Oid, set[Oid]] = {}
        if not known:
            return compiled, found
        answer_sink = None
        if emit is not None:
            # The executor assigns mask bits by first occurrence of each
            # source node; rebuild that order so streamed bits map back to
            # the oids the caller asked about (duplicate oids share a bit).
            order: "list[Oid]" = []
            seen_nodes: set[int] = set()
            for node, oid in zip(known, known_oids):
                if node not in seen_nodes:
                    seen_nodes.add(node)
                    order.append(oid)
            oid_of = graph.nodes.backing_list()

            def answer_sink(bit, nodes):
                # The executor hands a whole round's facts for one source
                # bit at a time; mapping node ids to oids is the only
                # per-fact work left on the evaluation thread.
                emit(order[bit], [oid_of[node] for node in nodes])

        with self._run_lock.read():
            with self.metrics.span("engine.run", mode="batch") as run_span:
                run = run_batch(
                    graph, compiled, known, backend=self.backend,
                    answer_sink=answer_sink,
                )
                run_span.set(backend=run.backend, visited=run.visited_pairs)
        self._hist_run.observe(run.elapsed)
        with self._lock:
            self.stats.visited_pairs += run.visited_pairs
            self.stats.record_backend(run.backend)
        for oid, answer_nodes in zip(known_oids, run.answers):
            found[oid] = graph.oids_of(answer_nodes)
        return compiled, found

    def _query_batch_results(
        self,
        query: "RegularPathQuery | Regex | str",
        sources: "list[Oid]",
    ) -> "tuple[CompiledQuery, dict[Oid, EvaluationResult]]":
        compiled, graph = self._compiled_on(query)
        known, known_oids = self._known_sources(graph, sources)
        found: dict[Oid, EvaluationResult] = {}
        if not known:
            return compiled, found
        label_of = graph.labels.value_of
        # One read section across the run AND the witness replay: the replay
        # walks the live adjacency against the run's version stamp, so a
        # mutation admitted between the two would turn this very call's
        # resolver stale (the stamp check is for callers who stash the run,
        # not for the engine's own replay).  The executor keeps enough of
        # the per-source reachability to rebuild one witness word per pair.
        with self._run_lock.read():
            with self.metrics.span("engine.run", mode="batch_results") as run_span:
                run = run_batch(
                    graph, compiled, known, witnesses=True, backend=self.backend
                )
                run_span.set(backend=run.backend, visited=run.visited_pairs)
            self._hist_run.observe(run.elapsed)
            for oid, node, answer_nodes in zip(known_oids, known, run.answers):
                result = EvaluationResult(
                    answers=graph.oids_of(answer_nodes),
                    visited_pairs=run.visited_pairs,
                    visited_objects=run.visited_objects,
                )
                for answer_node in answer_nodes:
                    word = run.witness(node, answer_node)
                    if word is not None:
                        result.witness_paths[graph.oid_of(answer_node)] = tuple(
                            label_of(label_id) for label_id in word
                        )
                found[oid] = result
        with self._lock:
            self.stats.visited_pairs += run.visited_pairs
            self.stats.record_backend(run.backend)
        return compiled, found

    def _query_all(
        self, query: "RegularPathQuery | Regex | str"
    ) -> dict[Oid, set[Oid]]:
        compiled, graph = self._compiled_on(query)  # one consistent snapshot
        with self._run_lock.read():
            with self.metrics.span("engine.run", mode="all_pairs") as run_span:
                run = run_all_pairs(graph, compiled, backend=self.backend)
                run_span.set(backend=run.backend, visited=run.visited_pairs)
        self._hist_run.observe(run.elapsed)
        with self._lock:
            self.stats.visited_pairs += run.visited_pairs
            self.stats.record_backend(run.backend)
        return {
            graph.oid_of(node): graph.oids_of(answers)
            for node, answers in zip(run.sources, run.answers)
        }

    def __repr__(self) -> str:
        return f"Engine({self._graph!r}, cached_queries={len(self.compiler)})"


def shared_engine(instance: Instance) -> Engine:
    """A per-instance engine memoized on the instance object itself.

    Used by the delegation hook in :func:`repro.query.evaluation.evaluate`
    so that repeated baseline-API calls against the same instance share one
    compiled graph and one warm query cache.  The engine lives exactly as
    long as the instance does — and no longer: the instance holds the engine
    strongly (the ``setattr`` below) while the engine holds the instance
    through a *weakref*, so no ``Instance -> Engine -> Instance`` cycle
    forms and dropping the last instance reference frees the compiled graph
    immediately, without waiting for a gc cycle pass.
    """
    engine = getattr(instance, _SHARED_ENGINE_ATTR, None)
    if engine is None or engine.instance is not instance:
        engine = Engine.open(instance)
        engine._hold_instance_weakly()
        setattr(instance, _SHARED_ENGINE_ATTR, engine)
    return engine
