"""Async serving layer: shared-batch query admission + concurrent supersteps.

Production RPQ evaluators decouple the evaluation loop from request arrival:
"Answering Constraint Path Queries over Graphs" serves constraint path
queries through an evaluation loop that batches work against the graph, and
the enumeration literature (Martens & Trautner) motivates streaming answers
with bounded delay rather than blocking every caller on a private full
evaluation.  This module is that layer for the compiled engine, in two
independent halves:

* :class:`QueryServer` — an **admission queue** in front of an
  :class:`~repro.engine.session.Engine` or
  :class:`~repro.engine.sharding.ShardedEngine`.  Requests arrive as
  ``await server.submit(QueryRequest(query=..., sources=(source,)))`` (one
  structured :class:`~repro.engine.request.QueryRequest`); in-flight
  requests whose queries compile to the *same DFA* (same
  :meth:`~repro.engine.session.Engine.admission_key` — the canonical
  constraint-rewritten expression) are coalesced into one shared
  ``query_batch`` evaluation under a **max-batch-size / max-delay** policy:
  a bucket flushes as soon as it holds ``max_batch`` requests (futures —
  duplicate sources count, matching the stats; see :class:`ServingStats`),
  or ``max_delay`` seconds after its first request, whichever comes first
  — except that a delay that runs out while every evaluation worker is
  busy keeps the bucket open (and coalescing) until one frees up, so the
  number of batches a burst costs does not grow with how many timers a
  slow moment lets expire (see :meth:`QueryServer._flush`).
  Flushes execute on a small thread pool so the event loop never blocks on
  an engine round-trip, and the per-source answer sets are fanned back out
  to the waiting futures.  The batched bitmask executor makes the shared
  run cost barely more than a single-source one, so a gateway serving many
  concurrent clients pays one traversal where naive serving pays dozens;

* :class:`SuperstepScheduler` — a thread **superstep scheduler** for the
  sharded engine's scatter-gather fixpoint.  The per-shard local fixpoints
  of one superstep — one per active shard — are independent by
  construction (each touches only its own shard's compiled graph and
  frontier; cross-shard facts exchange at the barrier), so the calling
  thread and the scheduler's workers claim them side by side and join at
  the barrier.  The numpy executor releases the GIL inside its
  ``bitwise_or.reduceat`` hot loops, so shard steps overlap when there
  are cores to run them on.  Installed via
  ``ShardedEngine.open(..., concurrency=N)``; the observed peak of
  simultaneously in-flight shard steps is exported as
  :attr:`SuperstepScheduler.concurrent_steps`.

On top of the shared-batch core, answers also *stream*:
:meth:`QueryServer.submit_stream` admits like ``submit`` but returns an
:class:`AnswerStream` — an async iterator that yields each answer the
moment the engine derives the accepting fact (per fixpoint round / per
shard-local superstep round, through the engines'
``query_batch_streaming``), instead of blocking on the whole batch
fixpoint.  Time-to-first-answer is the interactive latency story
(``serving_first_answer_seconds``); the full answer set still resolves at
batch completion and is identical to ``submit``'s.  Requests whose source
is already covered by an *in-flight* batch of the same key merge into it
(overlapping source sets share one evaluation — see :meth:`_admit`).

A thin line front-end (:func:`serve_stream` for stdin, :func:`serve_tcp`)
adapts the server to the CLI's ``serve`` subcommand: one read loop turns
each request line into a task that parses it with the sans-io codec of
:mod:`repro.engine.protocol` (the v1 and V2 grammars, ``LIMIT``/``CURSOR``
pages, ``STREAM`` chunks and ``!`` control verbs are documented there),
dispatches it through :func:`respond_line` and writes the encoded response.
Responses are written as they complete, so slow queries never head-of-line
block fast ones — the ``id`` is what correlates them.

Thread-safety contracts this module relies on (and PR 5 audited): the
engines' compile caches and rewrite memos are lock-guarded, statistics
counters mutate under the session lock, and the lazy numpy edge-array
lowering is race-free — see the ``Engine`` / ``ShardedEngine`` docstrings.
"""

from __future__ import annotations

import asyncio
import json
import threading
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from queue import SimpleQueue
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from ..exceptions import ReproError
from .conjunctive import (
    ConjunctiveQuery,
    ConjunctiveResult,
    PlanExecution,
    record_join,
)
from .protocol import (  # noqa: F401 - format_answers stays importable from here
    ControlLine,
    ErrorLine,
    cursor_digest,
    encode_chunk,
    encode_error,
    encode_page,
    encode_result,
    format_answers,
    parse_line,
)
from .request import CRPQRequest, QueryRequest, normalize
from .telemetry import (
    DEFAULT_SIZE_BUCKETS,
    NULL_SPAN,
    MetricsRegistry,
    Telemetry,
    slow_log_json,
    trace_to_json,
    witnessed_lock,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.instance import Oid
    from .session import Engine
    from .sharding import ShardedEngine

T = TypeVar("T")

# Engine threads wake the event loop for incremental answer delivery at
# most once per interval (plus a final flush at completion): delivery stays
# prompt — the interval is a small fraction of any real first-answer
# latency — without a per-fixpoint-round cross-thread wake-up storm taxing
# the evaluations still running.
DRAIN_WAKE_INTERVAL_S = 0.002


class SuperstepScheduler:
    """Runs the independent per-shard steps of one superstep on threads.

    :meth:`run` is a fork-join barrier: the calling thread and up to
    ``max_workers - 1`` worker threads (``max_workers`` steps in flight at
    most) claim the superstep's steps one at a time until none is left,
    and the call returns only when every step has finished — which is
    exactly the bulk-synchronous contract the sharded engine's frontier
    exchange needs.  The caller works instead of waiting: it blocks only
    on steps a worker claimed and is still running, so a superstep with one
    step costs no cross-thread hand-off at all.  Waking a worker is one put
    on a queue it blocks on (no future, no executor bookkeeping): a worker
    that finds every step claimed already goes back to sleep having cost
    little more than its wake-up.  The scheduler never reorders results
    (``results[i]`` belongs to ``steps[i]``) and re-raises the first step
    exception after the barrier, so a failing shard cannot leave a
    half-joined superstep behind.

    Statistics: ``steps`` counts every step ever run, ``barriers`` every
    :meth:`run` call, and ``concurrent_steps`` is the *peak* number of steps
    observed simultaneously in flight — the observable proof that per-shard
    supersteps really overlap (> 1 whenever two shards' fixpoints ran at the
    same time).
    """

    # The counters are ``:mutate`` — written under the lock, point-read by
    # registry gauges and ``__repr__`` without it (one int read each).
    GUARDED_BY = {
        "_in_flight": "_lock",
        "steps": "_lock:mutate",
        "barriers": "_lock:mutate",
        "concurrent_steps": "_lock:mutate",
    }

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ReproError("a superstep scheduler needs at least one worker")
        self.max_workers = max_workers
        self._lock = witnessed_lock("SuperstepScheduler._lock")
        self._in_flight = 0
        self.steps = 0
        self.barriers = 0
        self.concurrent_steps = 0
        # Workers block on this queue and help with each superstep put on
        # it; ``None`` stops one.  They hold the queue, not the scheduler,
        # so an unclosed scheduler is still collected (and its workers
        # stopped by the finalizer).  All are started now, not lazily at
        # the first contended superstep (thread creation under a busy GIL
        # stalls for milliseconds).
        self._wake: "SimpleQueue[_Superstep | None]" = SimpleQueue()
        self._workers = [
            threading.Thread(
                target=_help, args=(self._wake,), name=f"repro-superstep-{index}",
                daemon=True,
            )
            for index in range(max_workers - 1)
        ]
        for worker in self._workers:
            worker.start()
        self._stop = weakref.finalize(self, _stop_workers, self._wake, self._workers)

    def run(self, steps: "Sequence[Callable[[], T]]") -> "list[T]":
        """Execute every thunk, the caller among the workers, and join:
        the superstep barrier."""
        if not self._stop.alive:
            raise ReproError("the superstep scheduler has been closed")
        with self._lock:
            self.barriers += 1
        superstep = _Superstep(self, steps)
        for _ in range(min(len(self._workers), len(steps) - 1)):
            self._wake.put(superstep)
        superstep.work()
        return superstep.join()

    def _tracked(self, step: "Callable[[], T]") -> T:
        with self._lock:
            self._in_flight += 1
            self.steps += 1
            if self._in_flight > self.concurrent_steps:
                self.concurrent_steps = self._in_flight
        try:
            return step()
        finally:
            with self._lock:
                self._in_flight -= 1

    def close(self) -> None:
        """Stop and join the worker threads (idempotent)."""
        self._stop()

    def __enter__(self) -> "SuperstepScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SuperstepScheduler(max_workers={self.max_workers}, "
            f"steps={self.steps}, barriers={self.barriers}, "
            f"concurrent_steps={self.concurrent_steps})"
        )


def _help(wake: "SimpleQueue[_Superstep | None]") -> None:
    """A superstep worker: help with every superstep handed over, until
    told to stop."""
    while (superstep := wake.get()) is not None:
        superstep.work()


def _stop_workers(wake, workers) -> None:
    for _ in workers:
        wake.put(None)
    for worker in workers:
        if worker is not threading.current_thread():
            worker.join()


class _Superstep:
    """One :meth:`SuperstepScheduler.run` call: its steps, claimed in order
    by whichever thread asks next (``deque.popleft`` is atomic), and the
    countdown the caller joins on — ``_done`` is held until the last step
    finishes, whichever thread runs it."""

    def __init__(self, scheduler: SuperstepScheduler, steps) -> None:
        self._scheduler = scheduler
        self._claims = deque(enumerate(steps))
        self._left = len(steps)
        self._countdown = threading.Lock()
        self._done = threading.Lock()
        self._done.acquire()
        self.results: list = [None] * len(steps)
        self.error: "BaseException | None" = None

    def work(self) -> None:
        """Run steps until none is left to claim."""
        while True:
            try:
                index, step = self._claims.popleft()
            except IndexError:
                return
            try:
                self.results[index] = self._scheduler._tracked(step)
            except BaseException as exc:  # joined, then raised by join()
                if self.error is None:
                    self.error = exc
            with self._countdown:
                self._left -= 1
                finished = not self._left
            if finished:
                self._done.release()

    def join(self) -> list:
        """Wait for steps still running on worker threads; re-raise the
        first step exception once every step has finished."""
        if self._left:
            self._done.acquire()
        if self.error is not None:
            raise self.error
        return self.results


@dataclass
class ServingStats:
    """Counters of one :class:`QueryServer`'s lifetime.

    The size policy and every stat derived from it count **requests**
    (waiter futures), not distinct sources: a bucket flushes once it holds
    ``max_batch`` requests, ``max_batch_size`` records the widest flush in
    requests, and ``coalesced`` counts requests that shared a flush with at
    least one other.  Duplicate sources therefore fill a bucket exactly
    like distinct ones — the trigger and the counters can no longer
    disagree about what a "full" batch means (the trigger used to count
    distinct sources while the stats counted futures, so duplicate-heavy
    traffic never size-flushed yet reported oversized batches).  Distinct
    sources per flush remain observable through the
    ``serving_batch_sources`` histogram, which is the evaluation-cost view.
    """

    submitted: int = 0
    served: int = 0
    failed: int = 0
    batches: int = 0
    # Requests that shared their batch with at least one other request.
    coalesced: int = 0
    # Widest admitted batch (requests of one flush; see the class docstring).
    max_batch_size: int = 0
    size_flushes: int = 0
    delay_flushes: int = 0
    # Flushes forced by max_delay == 0 (coalescing disabled).
    immediate_flushes: int = 0
    close_flushes: int = 0
    # Requests that attached to an already-evaluating batch of their key
    # (overlapping source sets; resolved by that batch's fan-out).
    merged: int = 0
    # Requests admitted through submit_stream (a subset of submitted).
    streamed: int = 0
    # Conjunctive queries served end to end.  Their per-atom batches flow
    # through the ordinary admission counters (each atom source is one
    # submitted/served request), so these two count whole CRPQs on top.
    crpq_submitted: int = 0
    crpq_served: int = 0

    def summary(self) -> str:
        return (
            f"requests: {self.submitted} submitted, {self.served} served, "
            f"{self.failed} failed ({self.streamed} streamed, "
            f"{self.merged} merged in-flight); batches: {self.batches} "
            f"({self.coalesced} requests coalesced, widest {self.max_batch_size}); "
            f"flushes: {self.size_flushes} size, {self.delay_flushes} delay, "
            f"{self.immediate_flushes} immediate, {self.close_flushes} close"
        )

    _GAUGES = (
        ("submitted", "requests admitted (or rejected at admission)"),
        ("served", "requests resolved with an answer set"),
        ("failed", "requests resolved with an error"),
        ("batches", "shared-batch flushes"),
        ("coalesced", "requests that shared their batch with another"),
        ("max_batch_size", "widest admitted batch (requests)"),
        ("size_flushes", "flushes forced by max_batch"),
        ("delay_flushes", "flushes forced by max_delay"),
        ("immediate_flushes", "flushes with coalescing disabled (max_delay=0)"),
        ("close_flushes", "flushes forced by close()"),
        ("merged", "requests attached to an in-flight batch of their key"),
        ("streamed", "requests admitted via submit_stream"),
        ("crpq_submitted", "conjunctive queries admitted"),
        ("crpq_served", "conjunctive queries answered end to end"),
    )

    def register(self, registry: MetricsRegistry, prefix: str = "serving") -> None:
        """Expose every counter through ``registry`` as a callback gauge.

        The server registers into its *engine's* registry (see
        :class:`QueryServer`), so one session snapshot covers admission and
        evaluation together.  Gauge registration is last-wins: a second
        server over the same engine re-points the serving gauges at its own
        stats, which is the useful reading for the common
        one-server-at-a-time lifecycle.
        """
        for attr, help_text in self._GAUGES:
            registry.gauge(
                f"{prefix}_{attr}", help_text, lambda a=attr: getattr(self, a)
            )


class _Bucket:
    """One admission bucket: every in-flight request sharing a DFA key."""

    __slots__ = (
        "query", "waiters", "streams", "requests", "timer", "span", "created_at"
    )

    def __init__(self, query, span=NULL_SPAN, created_at: float = 0.0) -> None:
        self.query = query  # the prepared (rewritten) query, compiled once
        self.waiters: "dict[Oid, list[asyncio.Future]]" = {}
        # Streaming requests, keyed like waiters; every stream's ``future``
        # is *also* in waiters, so fan-out/error accounting sees one kind.
        self.streams: "dict[Oid, list[AnswerStream]]" = {}
        # Size-policy unit: admitted requests (futures), incremented on every
        # admission including duplicate sources — see ServingStats.
        self.requests = 0
        self.timer: "asyncio.TimerHandle | None" = None
        # Telemetry: the batch's root span ("serve.batch"), opened at bucket
        # creation so the admission wait is on the trace; NULL_SPAN when
        # capture is disabled.
        self.span = span
        self.created_at = created_at


class AnswerStream:
    """Incrementally delivered answers of one streamed request.

    Returned by :meth:`QueryServer.submit_stream`.  Iterate asynchronously to
    receive each answer the moment the engine derives its accepting fact::

        stream = server.submit_stream(QueryRequest(query=..., sources=(source,)))
        async for answer in stream:
            ...                      # answers land per fixpoint round
        answers = await stream.result()   # the complete set, == submit()'s

    Each answer is yielded exactly once, in derivation order; iteration ends
    when the batch evaluation completes.  :meth:`result` awaits the full
    answer set (identical to what ``await server.submit(...)`` returns) and
    re-raises the batch's error if evaluation failed — the same error the
    iterator raises mid-loop.  All methods are event-loop-only, matching the
    rest of the serving layer.
    """

    __slots__ = ("future", "_pending", "_streamed", "_waiter", "_done",
                 "_error", "_on_first")

    def __init__(self, loop: "asyncio.AbstractEventLoop", on_first=None) -> None:
        # Resolves to the full answer set at batch completion; registered in
        # the bucket's waiters, so served/failed accounting is uniform.
        self.future: "asyncio.Future" = loop.create_future()
        self._pending: "deque" = deque()
        self._streamed: list = []
        self._waiter: "asyncio.Future | None" = None
        self._done = False
        self._error: "BaseException | None" = None
        # Fired once, when the first answer arrives (or at completion for an
        # empty answer set) — the serving_first_answer_seconds hook.
        self._on_first = on_first

    def _wake(self) -> None:
        waiter, self._waiter = self._waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _first(self) -> None:
        on_first, self._on_first = self._on_first, None
        if on_first is not None:
            on_first()

    def _push(self, answers: "Iterable[Oid]") -> None:
        """Deliver newly derived answers (event-loop only).

        The executor contract already guarantees each accepting fact lands
        at most once per evaluation, so delivery is a plain extend; the
        wire-space reconciliation against the full answer set is deferred
        to :meth:`_finish`, keeping this per-round path cheap while the
        evaluation threads are still computing.  A straggler push after
        completion is dropped — the finish path already reconciled the
        full set.
        """
        if self._done or not answers:
            return
        self._streamed.extend(answers)
        self._first()
        self._pending.extend(answers)
        self._wake()

    def _finish(self, answers: "set[Oid]") -> None:
        """Complete the stream with the full answer set (event-loop only)."""
        # Anything the incremental path missed (e.g. the engine cannot
        # stream) still reaches the iterator, in sorted order for stability.
        # Reconciliation happens in wire (``str``) space while raw answers
        # are what the iterator yields — so an engine that emits an answer
        # raw and a completion path that re-walks the full set cannot
        # deliver the same logical answer twice under two types.
        seen = {str(a) for a in self._streamed}
        remainder = sorted((a for a in answers if str(a) not in seen), key=str)
        self._pending.extend(remainder)
        self._done = True
        # An empty answer set's "first answer" is its completion: the
        # histogram then measures time-to-certainty, never goes unobserved.
        self._first()
        if not self.future.done():
            self.future.set_result(answers)
        self._wake()

    def _fail(self, error: BaseException) -> None:
        self._done = True
        self._error = error
        self._first()
        if not self.future.done():
            self.future.set_exception(error)
            # The batch error is surfaced via result()/iteration; stop the
            # loop's unretrieved-exception warning if the caller only
            # iterates.
            self.future.exception()
        self._wake()

    async def result(self) -> "set[Oid]":
        """Await the complete answer set (identical to ``submit``'s)."""
        return await self.future

    def __await__(self):
        """``await stream`` is ``await stream.result()``."""
        return self.future.__await__()

    def __aiter__(self) -> "AnswerStream":
        return self

    async def __anext__(self) -> "Oid":
        while True:
            if self._pending:
                return self._pending.popleft()
            if self._error is not None:
                raise self._error
            if self._done:
                raise StopAsyncIteration
            assert self._waiter is None, "one consumer per AnswerStream"
            self._waiter = asyncio.get_running_loop().create_future()
            await self._waiter


class QueryServer:
    """Admission queue that coalesces compatible requests into shared batches.

    Construct via ``engine.as_server(...)`` (both session kinds) or directly;
    the engine's ``query_batch`` must be thread-safe (both are — see their
    docstrings).  Usage::

        async with engine.as_server(max_batch=64, max_delay=0.002) as server:
            request = QueryRequest(query="a (b + c)*", sources=("p0",))
            answers = await server.submit(request)

    ``submit`` admits the request into the bucket of its
    :meth:`~repro.engine.session.Engine.admission_key`; the bucket flushes
    into one shared ``query_batch`` when it holds ``max_batch`` requests
    (futures — duplicate sources count; see :class:`ServingStats`) or
    ``max_delay`` seconds after its first request.  Flushes run
    on a ``concurrency``-wide thread pool (default 1), so distinct-DFA
    batches can evaluate in parallel while the event loop keeps admitting;
    a delay flush that finds every worker busy waits for one, coalescing.
    :meth:`submit_stream` admits identically but returns an
    :class:`AnswerStream` that yields answers as the engine derives them.
    A request whose source is already covered by an *in-flight* batch of
    its key merges into that batch instead of opening a new bucket —
    overlapping source sets across requests share one evaluation.

    The answer ``set`` a request resolves to may be shared with other
    coalesced requests of the same ``(query, source)`` — treat it as
    read-only.  :meth:`close` flushes every pending bucket and drains
    in-flight batches; it is what ``async with`` calls on exit.
    """

    def __init__(
        self,
        engine: "Engine | ShardedEngine",
        *,
        max_batch: int = 64,
        max_delay: float = 0.002,
        concurrency: "int | None" = None,
    ) -> None:
        if max_batch < 1:
            raise ReproError("max_batch must admit at least one request")
        if max_delay < 0:
            raise ReproError("max_delay cannot be negative")
        if concurrency is not None and concurrency < 1:
            raise ReproError("concurrency must be a positive worker count")
        self.engine = engine
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.stats = ServingStats()
        # The serving layer shares the *engine's* telemetry bundle: one
        # registry snapshot (and one trace tree per batch) covers admission,
        # compile and evaluation.  A bare test double without a ``metrics``
        # attribute gets a private bundle so the server still works.
        self.metrics: Telemetry = getattr(engine, "metrics", None) or Telemetry()
        registry = self.metrics.registry
        self.stats.register(registry)
        self._hist_request = registry.histogram(
            "serving_request_seconds", "submit-to-resolve latency per request"
        )
        self._hist_flush = registry.histogram(
            "serving_flush_seconds",
            "bucket lifetime: first admission to answer fan-out",
        )
        self._hist_wait = registry.histogram(
            "serving_admission_wait_seconds",
            "bucket wait between first admission and flush",
        )
        self._hist_batch_sources = registry.histogram(
            "serving_batch_sources", "distinct sources per flushed batch",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._hist_first_answer = registry.histogram(
            "serving_first_answer_seconds",
            "submit-to-first-streamed-answer latency per streamed request",
        )
        self._control_requests = registry.counter(
            "serving_control_requests", "line-protocol control verbs handled"
        )
        self._buckets: "dict[str, _Bucket]" = {}
        # Flushed-but-unresolved buckets by key, newest last: the merge
        # target for requests whose source an in-flight batch already covers.
        self._serving: "dict[str, list[_Bucket]]" = {}
        self._inflight: "set[asyncio.Task]" = set()
        # Evaluation workers not claimed by a flushed batch (negative while
        # size/close flushes queue in the pool), and the pending buckets
        # whose delay expired with none free — see _flush.
        self._free_workers = concurrency or 1
        self._ripe: "deque[tuple[str, _Bucket]]" = deque()
        self._pool = ThreadPoolExecutor(
            max_workers=concurrency or 1, thread_name_prefix="repro-serve"
        )
        # Spawn every evaluation worker up front: lazy per-submit thread
        # creation otherwise lands mid-load, where starting a thread while
        # evaluations hold the GIL stalls the event loop for milliseconds
        # per flush.
        ready = threading.Barrier((concurrency or 1) + 1)
        for _ in range(concurrency or 1):
            self._pool.submit(ready.wait)
        ready.wait()
        self._closed = False

    # -- admission ------------------------------------------------------------
    @staticmethod
    def _lower(query, source: "Oid | None" = None) -> QueryRequest:
        """Lower a ``submit*`` argument to a canonical request.

        Only the structured shapes are admitted
        (:class:`~repro.engine.request.QueryRequest`, ``CRPQRequest``,
        ``ConjunctiveQuery``); a bare query string is refused.
        """
        if not isinstance(query, (QueryRequest, CRPQRequest, ConjunctiveQuery)):
            raise ReproError(
                "QueryServer.submit* takes a repro.engine.request.QueryRequest "
                f"(or a CRPQRequest / ConjunctiveQuery), not {type(query).__name__}"
            )
        return normalize(query, source)

    @staticmethod
    def _source(request: QueryRequest, method: str) -> "Oid":
        """The one source of a scalar ``request``, refusing what ``method``
        cannot admit before anything is counted."""
        if request.is_conjunctive:
            raise ReproError(
                "conjunctive requests cannot stream (rows land at join completion)"
                if method == "submit_stream"
                else "conjunctive requests resolve through submit()/submit_conjunctive()"
            )
        if len(request.sources) != 1:
            raise ReproError(
                f"{method} takes exactly one source "
                f"(got {len(request.sources)}); use submit_many for fan-out"
            )
        return request.sources[0]

    def submit_nowait(self, query, source: "Oid | None" = None) -> "asyncio.Future":
        """Admit one scalar request; returns the future of its answer set.

        Accepts a scalar :class:`~repro.engine.request.QueryRequest`.
        Conjunctive requests need the awaitable paths
        (:meth:`submit` / :meth:`submit_conjunctive`) — their joins cannot
        resolve synchronously.

        Must be called from a running event loop (the flush timer and the
        result fan-out live on it).  Admission computes the request's
        coalescing key inline: one lookup in the session's raw-text memo
        for every text seen before (no parse, see ``Session.admission``),
        and one parse — plus one constraint-rewrite pass on a constrained
        session — the first time a text is seen.  The memo's lock is never
        held across that work, so admissions don't stall behind each other.
        """
        request = self._lower(query, source)
        source = self._source(request, "submit_nowait")
        return self._admit(*self._admitted(request.query, 1), source)

    def submit_stream(self, query, source: "Oid | None" = None) -> AnswerStream:
        """Admit one request; answers stream out as the engine derives them.

        Synchronous like :meth:`submit_nowait`: event-loop only, and
        admission runs inline, on the loop, even on a constrained session
        (:meth:`submit` and the wire's ``STREAM`` lines admit off the loop
        there); returns an :class:`AnswerStream` immediately.  The request
        coalesces with plain ``submit`` requests into the same shared
        batches — the whole bucket is then evaluated through the engine's
        ``query_batch_streaming``, so coalesced non-streaming requests cost
        nothing extra and streamed requests see per-round answers.
        Streaming requests never merge into an in-flight batch (its early
        rounds — and their answers — already happened); they always join or
        open a pending bucket.

        Accepts a scalar :class:`~repro.engine.request.QueryRequest` (its
        ``stream`` flag is implied).  Conjunctive requests cannot stream —
        a join's rows are not known until its last atom resolves.
        """
        request = self._lower(query, source)
        source = self._source(request, "submit_stream")
        return self._admit(*self._admitted(request.query, 1), source, stream=True)

    async def submit(self, query, source: "Oid | None" = None):
        """Admit one request and await its result.

        Takes a :class:`~repro.engine.request.QueryRequest`.  A scalar
        request resolves to its answer set; a conjunctive request is
        delegated to :meth:`submit_conjunctive` and resolves to a
        :class:`~repro.engine.conjunctive.ConjunctiveResult`.  Unlike
        :meth:`submit_nowait` (synchronous contract, admission inline), a
        cold constrained admission here runs off the event loop — see
        :meth:`_admission`.
        """
        return await (await self._open(self._lower(query, source)))

    async def _open(self, request: QueryRequest):
        """Admit one canonical request; returns what resolves it.

        That is the future of a scalar request's answer set, the
        :class:`AnswerStream` of a streamed one, or the coroutine of a
        conjunctive one — each awaitable for the full result.  The wire
        front-end enters here with the request its line parser lowered.
        """
        if request.is_conjunctive and not request.stream:
            return self.submit_conjunctive(request.query)
        method = "submit_stream" if request.stream else "submit"
        source = self._source(request, method)
        key, prepared = await self._admission(request.query, 1)
        return self._admit(key, prepared, source, stream=request.stream)

    async def _admission(self, query, count: int):
        """:meth:`_admitted` for a caller that can wait.

        On a *constrained* session the admission step (which may run a full
        cost-model rewrite the first time a query is seen) is dispatched to
        the thread pool, so the event loop never runs the search.  An
        unconstrained admission is a raw-text memo hit after a text's first
        sight (one parse then, never a rewrite search), so it stays inline.
        """
        constraints = getattr(self.engine, "constraints", None)
        if self._closed or constraints is None or len(constraints) == 0:
            return self._admitted(query, count)
        hop = asyncio.get_running_loop().run_in_executor(
            self._pool, self.engine.admission, query
        )
        await asyncio.wait((hop,))
        return self._admitted(query, count, hop.result)

    def _admitted(self, query, count: int, admit=None):
        """Count ``count`` requests of ``query`` in; its ``(key, prepared)``.

        The one admission step of every scalar request — plain, merged,
        streamed, fanned out by :meth:`submit_many` or planned as a CRPQ
        atom.  A closed server refuses the requests uncounted.  ``admit``
        replays an admission that already ran on the pool (see
        :meth:`_admission`); without it the session admits inline.
        Admission-time failures (e.g. query syntax errors) never form a
        batch; they are counted failed here, so ``submitted == served +
        failed`` holds.
        """
        if self._closed:
            raise ReproError("the query server has been closed")
        self.stats.submitted += count
        try:
            return admit() if admit is not None else self.engine.admission(query)
        except BaseException:
            self.stats.failed += count
            raise

    def _admit(
        self, key: str, prepared, source: "Oid", stream: bool = False
    ) -> "asyncio.Future | AnswerStream":
        """Insert one admitted request into its bucket (event-loop only).

        Returns the request's future, or its :class:`AnswerStream` when
        ``stream`` is set.  Merge-in-flight: when no bucket is *pending* for
        ``key`` but an already-flushed batch of the same key is still
        evaluating and its source set covers ``source``, the request
        attaches to that batch's waiters instead of opening a fresh bucket —
        its answers are already being computed, so the overlapping request
        rides the in-flight evaluation for free (``stats.merged``).  Merged
        requests do not count toward any size trigger (the batch's shape is
        already fixed), and streaming requests never merge (the rounds they
        would stream already happened).
        """
        loop = asyncio.get_running_loop()
        traced = self.metrics.enabled  # one flag read per admission
        bucket = self._buckets.get(key)
        if bucket is None:
            for serving in () if stream else self._serving.get(key, ()):
                if serving.waiters.get(source):
                    future = loop.create_future()
                    serving.waiters[source].append(future)
                    self.stats.merged += 1
                    if traced:
                        self._observe_request_latency(future)
                    return future
            bucket = self._bucket(key, prepared, loop, traced)
        if stream:
            admitted_at = perf_counter()
            entry = AnswerStream(
                loop,
                on_first=lambda: self._hist_first_answer.observe(
                    perf_counter() - admitted_at
                ),
            )
            bucket.streams.setdefault(source, []).append(entry)
            self.stats.streamed += 1
            future = entry.future
        else:
            entry = future = loop.create_future()
        bucket.waiters.setdefault(source, []).append(future)
        bucket.requests += 1
        if traced:
            self._observe_request_latency(future)
        self._maybe_flush(key, bucket)
        return entry

    def _bucket(self, key: str, prepared, loop, traced: bool) -> _Bucket:
        """Open (and register) a fresh pending bucket for ``key``."""
        if traced:
            bucket = _Bucket(
                prepared,
                span=self.metrics.span("serve.batch", key=key),
                created_at=perf_counter(),
            )
        else:
            bucket = _Bucket(prepared)
        self._buckets[key] = bucket
        if self.max_delay > 0:
            bucket.timer = loop.call_later(
                self.max_delay, self._flush, key, "delay"
            )
        return bucket

    def _observe_request_latency(self, future: "asyncio.Future") -> None:
        # Per-request submit-to-resolve latency, stamped at admission and
        # observed when the future settles (success or failure alike).
        admitted_at = perf_counter()
        future.add_done_callback(
            lambda _f, _t=admitted_at: self._hist_request.observe(
                perf_counter() - _t
            )
        )

    def _maybe_flush(self, key: str, bucket: _Bucket) -> None:
        # Size policy counts requests (futures), matching the stats — see
        # ServingStats for why duplicates must advance the trigger.
        if bucket.requests >= self.max_batch:
            self._flush(key, "size")
        elif self.max_delay == 0:
            # Coalescing disabled: every request is its own batch, tallied
            # separately so the stats cannot read as size-cap pressure.
            self._flush(key, "immediate")

    async def submit_many(
        self, query, sources: "Iterable[Oid] | None" = None
    ) -> "dict[Oid, set[Oid]]":
        """Admit one request per *distinct* source and await them all.

        Takes a scalar :class:`~repro.engine.request.QueryRequest` whose
        ``sources`` field carries the fan-out.  The admission key is
        computed once for the whole group (off the event loop on a
        constrained session, like :meth:`submit`).  Sources are
        deduplicated first (order-preserving): the returned mapping has one entry per distinct
        source either way, so admitting a request per duplicate only
        inflated ``submitted``/``served`` with phantom requests no caller
        could observe — deduplicating keeps ``submitted == served + failed``
        an exact invariant under repeated sources.
        """
        request = self._lower(query)
        if sources is not None:
            raise ReproError("pass sources inside the QueryRequest, not alongside it")
        if request.is_conjunctive:
            raise ReproError(
                "a conjunctive request answers one relation, not a per-source "
                "mapping; use submit()/submit_conjunctive()"
            )
        source_list = list(dict.fromkeys(request.sources))
        if not source_list:
            return {}
        key, prepared = await self._admission(request.query, len(source_list))
        answers = await asyncio.gather(
            *(self._admit(key, prepared, source) for source in source_list)
        )
        return dict(zip(source_list, answers))

    async def submit_conjunctive(
        self, query, *, strategy: str = "optimized"
    ) -> ConjunctiveResult:
        """Evaluate a conjunctive query through the admission queue.

        The CRPQ is planned on the thread pool (``crpq.plan`` span inside
        the engine), then each planned atom fans out through
        :meth:`_admission`/:meth:`_admit` — one admitted request per source,
        exactly like :meth:`submit_many`.  **Atoms get per-atom admission
        keys** (the canonical rewritten form of the atom's expression, the
        same key an identical scalar request gets — see
        ``Session.admission``), so an atom's batch coalesces with
        concurrent scalar traffic of that key, merges into covering
        in-flight batches, and shares flushes with other CRPQs.  Hash
        joins between atoms run on the thread pool, never on the event
        loop.  Accepts ``MATCH …`` text, a ``ConjunctiveQuery``, or a
        conjunctive :class:`~repro.engine.request.QueryRequest` /
        ``CRPQRequest``.
        """
        if self._closed:
            raise ReproError("the query server has been closed")
        loop = asyncio.get_running_loop()
        if isinstance(query, (QueryRequest, CRPQRequest)):
            query = normalize(query).query
        self.stats.crpq_submitted += 1
        traced = self.metrics.enabled
        root = (
            self.metrics.span("serve.crpq", strategy=strategy)
            if traced
            else NULL_SPAN
        )
        try:
            plan = await loop.run_in_executor(
                self._pool,
                lambda: self.engine.plan_conjunctive(query, strategy=strategy),
            )
            root.set(atoms=len(plan.order), acyclic=plan.acyclic)
            execution = PlanExecution(plan)
            while True:
                # pending() scans/sorts the intermediate relation and feed()
                # hash-joins it — both off the event loop, like every other
                # engine round-trip on this server.
                pending = await loop.run_in_executor(self._pool, execution.pending)
                if pending is None:
                    break
                sources = list(pending.sources)
                key, prepared = await self._admission(
                    pending.expression, len(sources)
                )
                atom_span = self.metrics.span_under(
                    root,
                    "crpq.atom",
                    atom=pending.step.atom.text(),
                    sources=len(sources),
                )
                answers = await asyncio.gather(
                    *(self._admit(key, prepared, source) for source in sources)
                )
                atom_span.end()
                pairs = dict(zip(sources, answers))
                join_span = self.metrics.span_under(root, "crpq.join")
                report = await loop.run_in_executor(
                    self._pool, execution.feed, pairs
                )
                join_span.end(**report.span_attributes())
            rows = await loop.run_in_executor(self._pool, execution.result_rows)
            root.set(rows=len(rows))
            self.stats.crpq_served += 1
            record_join(self.metrics.registry, execution.steps)
            return ConjunctiveResult(
                variables=plan.query.returns,
                rows=rows,
                plan=plan,
                steps=tuple(execution.steps),
            )
        finally:
            root.end()

    # -- flushing -------------------------------------------------------------
    def _flush(self, key: str, reason: str) -> None:
        if reason == "delay" and self._free_workers <= 0:
            # Every evaluation worker is busy, so a flush now would only
            # queue behind them.  The bucket waits for a worker instead and
            # keeps coalescing meanwhile: under load batches widen (and
            # their count stops depending on how many timers a slow moment
            # lets expire) while the evaluation starts no later than it
            # would have from the pool's queue.
            bucket = self._buckets.get(key)
            if bucket is not None:
                self._ripe.append((key, bucket))
            return
        bucket = self._buckets.pop(key, None)
        if bucket is None:  # raced with another flush path; nothing to do
            return
        self._free_workers -= 1
        if bucket.timer is not None:
            bucket.timer.cancel()
        self.stats.batches += 1
        if reason == "size":
            self.stats.size_flushes += 1
        elif reason == "delay":
            self.stats.delay_flushes += 1
        elif reason == "immediate":
            self.stats.immediate_flushes += 1
        else:
            self.stats.close_flushes += 1
        # Requests is the size-policy unit (see ServingStats): the same count
        # the trigger in _maybe_flush compared against max_batch.
        requests = bucket.requests
        if requests > 1:
            self.stats.coalesced += requests
        if requests > self.stats.max_batch_size:
            self.stats.max_batch_size = requests
        if bucket.span is not NULL_SPAN:
            # The wait between the bucket's first admission and this flush,
            # as a pre-timed child span — the interval was measured by the
            # admission path, not re-clocked here.
            wait = perf_counter() - bucket.created_at
            bucket.span.event(
                "admission_wait", bucket.created_at, wait, reason=reason
            )
            bucket.span.set(
                reason=reason, sources=len(bucket.waiters), requests=requests
            )
            self._hist_wait.observe(wait)
            self._hist_batch_sources.observe(len(bucket.waiters))
        # From flush to fan-out the batch is a merge target for overlapping
        # requests of its key — see _admit.
        self._serving.setdefault(key, []).append(bucket)
        task = asyncio.get_running_loop().create_task(self._serve(key, bucket))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _worker_freed(self) -> None:
        """An evaluation returned (event-loop only): hand the freed worker
        the buckets whose delay ran out while it was busy, oldest first."""
        self._free_workers += 1
        while self._ripe and self._free_workers > 0:
            key, bucket = self._ripe.popleft()
            # A size or close flush may have taken the bucket meanwhile.
            if self._buckets.get(key) is bucket:
                self._flush(key, "delay")

    def _unserve(self, key: str, bucket: _Bucket) -> None:
        """Withdraw a batch from the merge-target index (event-loop only).

        Called at the top of the fan-out / error path, *before* any await:
        once answers start settling, a would-be merger must open a fresh
        bucket instead, so no request can attach after its futures resolved.
        """
        serving = self._serving.get(key)
        if serving is not None:
            try:
                serving.remove(bucket)
            except ValueError:  # pragma: no cover - defensive
                pass
            if not serving:
                del self._serving[key]

    async def _serve(self, key: str, bucket: _Bucket) -> None:
        sources = list(bucket.waiters)
        loop = asyncio.get_running_loop()
        tele = self.metrics
        # The evaluation runs on a pool thread, where the event loop's
        # contextvars do not follow; the closure re-activates the batch's
        # evaluate span there so the engine's own spans nest beneath it.
        eval_span = tele.span_under(bucket.span, "evaluate")
        streaming = bool(bucket.streams)
        if streaming:
            stream_span = tele.span_under(
                bucket.span, "serve.stream",
                streams=sum(len(s) for s in bucket.streams.values()),
            )
            facts = 0

            # Cross-thread micro-batching: engine threads append to a
            # lock-guarded queue and at most ONE drain callback is in
            # flight on the loop at a time, scheduled at most once per
            # DRAIN_WAKE_INTERVAL_S — a fixpoint emitting thousands of
            # facts over hundreds of rounds costs a handful of loop
            # wake-ups, not one per fact or per round.  Facts an interval
            # holds back are flushed by the next due wake-up or by the
            # completion drain before fan-out.
            pending_facts: "deque" = deque()
            pending_lock = threading.Lock()
            drain_scheduled = False
            last_wake = 0.0

            def drain() -> None:
                # Event-loop side: push to every stream of each source.
                nonlocal drain_scheduled, facts
                with pending_lock:
                    batch = list(pending_facts)
                    pending_facts.clear()
                    drain_scheduled = False
                for source, answers in batch:
                    facts += len(answers)
                    for stream in bucket.streams.get(source, ()):
                        stream._push(answers)

            final_drain = drain

            def emitted(source: "Oid", answers: "Iterable[Oid]") -> None:
                # Engine side: called from evaluation / scheduler threads.
                nonlocal drain_scheduled, last_wake
                # Ownership transfer: emit callers hand a freshly built
                # sequence per call (the executor sinks do), so no
                # defensive copy on the evaluation thread.
                now = perf_counter()
                with pending_lock:
                    pending_facts.append((source, answers))
                    schedule = (
                        not drain_scheduled
                        and now - last_wake >= DRAIN_WAKE_INTERVAL_S
                    )
                    if schedule:
                        drain_scheduled = True
                        last_wake = now
                if schedule:
                    loop.call_soon_threadsafe(drain)

            def evaluate():
                with tele.under(eval_span):
                    try:
                        return self.engine.query_batch_streaming(
                            bucket.query, sources, emitted
                        )
                    finally:
                        eval_span.end()
        else:
            stream_span = NULL_SPAN
            final_drain = None

            def evaluate():
                with tele.under(eval_span):
                    try:
                        return self.engine.query_batch(bucket.query, sources)
                    finally:
                        eval_span.end()

        try:
            try:
                results = await loop.run_in_executor(self._pool, evaluate)
            finally:
                self._worker_freed()
        except BaseException as error:
            self._unserve(key, bucket)
            for waiting in bucket.waiters.values():
                for future in waiting:
                    self.stats.failed += 1
                    if not future.done():
                        future.set_exception(error)
            for streams in bucket.streams.values():
                for stream in streams:
                    stream._fail(error)
            stream_span.end(error=repr(error))
            bucket.span.end(error=repr(error))
            self._hist_flush.observe(bucket.span.duration)
            return
        self._unserve(key, bucket)
        if final_drain is not None:
            # Flush facts the wake-interval gate held back: the engine has
            # stopped emitting (evaluation returned), so this clears the
            # queue for good and any still-queued drain callback no-ops.
            final_drain()
        fanout_span = tele.span_under(bucket.span, "fanout")
        # Streams finish first: _finish resolves stream.future (also in
        # waiters), flushes any un-streamed remainder into the iterator and
        # fires the first-answer hook for empty answer sets.
        for source, streams in bucket.streams.items():
            for stream in streams:
                stream._finish(results[source])
        for source, waiting in bucket.waiters.items():
            answers = results[source]
            for future in waiting:
                self.stats.served += 1
                if not future.done():
                    future.set_result(answers)
        fanout_span.end()
        if stream_span is not NULL_SPAN:
            stream_span.set(facts=facts)
            stream_span.end()
        bucket.span.end()
        self._hist_flush.observe(bucket.span.duration)

    # -- lifecycle ------------------------------------------------------------
    async def close(self) -> None:
        """Flush pending buckets, drain in-flight batches, release the pool."""
        self._closed = True
        for key in list(self._buckets):
            self._flush(key, "close")
        while self._inflight:
            pending = list(self._inflight)
            await asyncio.gather(*pending, return_exceptions=True)
            self._inflight.difference_update(pending)
        self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "QueryServer":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def describe(self) -> str:
        return self.stats.summary()

    def __repr__(self) -> str:
        return (
            f"QueryServer({self.engine!r}, max_batch={self.max_batch}, "
            f"max_delay={self.max_delay}, pending={len(self._buckets)})"
        )


# -- line front-end ------------------------------------------------------------
# Per-connection backpressure: a pipelining client may stream lines faster
# than the engine evaluates; beyond this many in-flight responses the read
# loop stops consuming input until one completes, so tasks, admission
# buckets and waiter futures stay bounded.
MAX_INFLIGHT_PER_CONNECTION = 1024


def handle_control(server: QueryServer, line: str) -> str:
    """Answer one ``!``-prefixed control line against the live telemetry.

    Verbs (all answered as ``!verb<TAB>one-line-json``, errors as
    ``!verb<TAB>error: ...``):

    * ``!stats`` — the session's full registry snapshot (the same dict
      ``engine.telemetry()`` / ``--stats`` render);
    * ``!trace <id>`` — one recorded trace with its span breakdown;
    * ``!slow [N]`` — the N (default 5) slowest traces, worst first.
    """
    server._control_requests.inc()
    verb, *args = line.split()
    if verb == "!stats":
        snapshot = server.metrics.snapshot()
        return f"!stats\t{json.dumps(snapshot, separators=(',', ':'), default=str)}"
    if verb == "!trace":
        if len(args) != 1:
            return "!trace\terror: usage: !trace <id>"
        trace = server.metrics.tracer.get(args[0])
        if trace is None:
            return f"!trace\terror: unknown trace id {args[0]!r}"
        return f"!trace\t{trace_to_json(trace)}"
    if verb == "!slow":
        count = 5
        if args:
            try:
                count = int(args[0])
            except ValueError:
                return "!slow\terror: usage: !slow [N]"
        return f"!slow\t{slow_log_json(server.metrics.tracer, count)}"
    return f"{verb}\terror: unknown control verb (try !stats, !trace <id>, !slow N)"


async def respond_line(
    server: QueryServer,
    line: str,
    emit: "Callable[[str], None] | None" = None,
) -> str:
    """Serve one request line; never raises.

    The line is parsed by :func:`repro.engine.protocol.parse_line` (the
    wire grammar is documented there) and dispatched once: a control verb
    to :func:`handle_control`, a request through ``QueryServer._open``.  A
    ``STREAM`` request's chunk lines go through ``emit`` as its answers
    land (they are dropped without one) before the full response this
    returns; a ``LIMIT`` request answers one page.  Parse and evaluation
    errors alike come back as ``id<TAB>error: ...`` lines.
    """
    parsed = parse_line(line)
    if isinstance(parsed, ControlLine):
        return handle_control(server, parsed)
    if isinstance(parsed, ErrorLine):
        return parsed
    ident, request = parsed
    try:
        opened = await server._open(request)
        if request.stream and emit is not None:
            async for answer in opened:
                emit(encode_chunk(ident, answer))
        result = await opened
        if request.limit is None:
            return encode_result(ident, result)
        digest = cursor_digest(
            server.engine.admission_key(request.query),
            request.sources[0] if request.sources else "",
        )
        return encode_page(ident, result, request.limit, request.cursor, digest)
    except Exception as error:
        return encode_error(ident, error)


async def _serve_lines(
    server: QueryServer,
    readline,
    emit: "Callable[[str], None]",
    max_inflight: int,
    drain=None,
) -> None:
    """The one read loop, behind :func:`serve_stream` and :func:`serve_tcp`;
    ``drain``, when given, is awaited after each full response."""
    tasks: "set[asyncio.Task]" = set()
    slots = asyncio.Semaphore(max_inflight)
    loop = asyncio.get_running_loop()

    async def respond(line: str) -> None:
        try:
            emit(await respond_line(server, line, emit))
            if drain is not None:
                await drain()
        finally:
            slots.release()

    while raw := await readline():
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        await slots.acquire()
        task = loop.create_task(respond(line))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*list(tasks))


async def serve_stream(
    server: QueryServer,
    readline,
    emit: "Callable[[str], None]",
    *,
    max_inflight: int = MAX_INFLIGHT_PER_CONNECTION,
) -> None:
    """Serve an *interactive* line stream: responses emitted as they land.

    ``readline`` is an async callable returning the next raw line (an empty
    string at end of input); ``emit`` receives each response line, and each
    ``STREAM`` chunk line before its response.  Every request runs as its
    own task — exactly the TCP front-end's read loop — so a
    request/response client that waits for an answer before sending the
    next line never deadlocks, and concurrent requests still coalesce
    through the admission queue.  Responses arrive in *completion* order;
    the ``id`` is what correlates them.  In-flight responses are bounded by
    ``max_inflight``: each holds one slot of a semaphore, released when its
    response has been emitted (or ``emit`` raised), and the loop stops
    consuming input while every slot is taken.  Whitespace-only lines are
    skipped without an answer, as over TCP.
    """
    await _serve_lines(server, readline, emit, max_inflight)


async def serve_tcp(
    server: QueryServer,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_inflight: int = MAX_INFLIGHT_PER_CONNECTION,
) -> "asyncio.AbstractServer":
    """Open a TCP front-end for ``server``; returns the listening socket.

    Each connection runs the read loop of :func:`serve_stream` over its
    socket.  ``port=0`` binds an ephemeral port — read the real one off
    ``result.sockets[0].getsockname()``.  ``max_inflight`` bounds each
    connection's outstanding responses (see
    :data:`MAX_INFLIGHT_PER_CONNECTION`).  The caller owns both lifetimes:
    close the returned socket server first, then ``await server.close()``.
    """

    async def connection(
        reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        # One drain at a time per connection: concurrent waiters on one
        # StreamWriter's drain() were only supported from CPython 3.10.5's
        # FlowControlMixin; serializing the drains keeps the oldest
        # supported patch levels correct (whole lines stay atomic either way).
        write_lock = asyncio.Lock()

        def write(line: str) -> None:
            # A client that went away (or a transport already closed) must
            # not kill the serving task: the answer is computed and counted,
            # delivery is best-effort.  STREAM chunks are written without a
            # drain; the closing full response drains under the lock.
            try:
                writer.write(line.encode("utf-8") + b"\n")
            except (ConnectionError, RuntimeError):  # pragma: no cover
                pass

        async def drain() -> None:
            async with write_lock:
                try:
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    pass

        async def readline() -> str:
            try:
                return (await reader.readline()).decode("utf-8", errors="replace")
            except (asyncio.LimitOverrunError, ValueError):
                # A request line exceeded the stream limit.  The buffered
                # bytes hold no separator, so framing is lost for good:
                # answer with one error line, finish the in-flight
                # responses, and close — without taking them down with it.
                write(encode_error("?", "request line too long"))
            except (ConnectionError, OSError):
                # Abrupt disconnect (reset while blocked in readline): no
                # peer left to answer, but the in-flight responses still
                # drain so their tasks end cleanly instead of racing the
                # close and logging as unhandled task errors.
                pass
            return ""

        try:
            await _serve_lines(server, readline, write, max_inflight, drain)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - client went away
                pass

    return await asyncio.start_server(
        connection,
        host=host,
        port=port,
        # Generous per-line budget: queries are expressions, not documents,
        # but the default 64 KiB would tear down a connection mid-stream.
        limit=1 << 20,
    )
