"""Async serving layer: asyncio adapters around the admission machine.

:class:`QueryServer` puts an admission queue in front of an
:class:`~repro.engine.session.Engine` or
:class:`~repro.engine.sharding.ShardedEngine`: in-flight requests whose
queries compile to the same DFA (the same
:meth:`~repro.engine.session.Engine.admission_key`, the canonical
constraint-rewritten expression) share one ``query_batch`` evaluation, and
the per-source answer sets are fanned back out.  Streamed requests see each
answer the fixpoint round that derives it, with bounded delay (Martens &
Trautner's enumeration cost model): work per delivered answer.

Every decision (buckets, the size/idle/close triggers, merges into
in-flight batches, the fan-out, the :class:`ServingStats` books) is made by
the synchronous state machine of :mod:`repro.engine.admission`.  No clock
drives it: what one loop turn feeds (a read chunk's lines, a ``submit_many``,
a CRPQ atom's sources) shares a bucket, and one ``call_soon`` after the
turn hands each free worker the oldest bucket.  asyncio stays at the edges,
in three adapters:

* one **reader** per stdin or TCP connection (:func:`serve_stream`,
  :func:`serve_tcp`): it parses lines with the sans-io codec of
  :mod:`repro.engine.protocol`, answers control lines inline, admits (on
  the pool on a constrained session, whose first sight of a text may run a
  rewrite search) and feeds tickets to the machine, and stops reading while
  ``max_inflight`` of its lines are unanswered.  A ``MATCH`` line keeps one
  task, for :meth:`QueryServer.submit_conjunctive`;
* one **executor call** per flush, whose streamed facts cross back to the
  loop at most once per :data:`DRAIN_WAKE_INTERVAL_S`;
* one **writer**, which encodes each delivery as it lands, so slow queries
  never head-of-line block fast ones (the ``id`` correlates them).

The awaitable API (``submit``, ``submit_nowait``, ``submit_stream``,
``submit_many``, ``submit_conjunctive``) attaches a future or an
:class:`AnswerStream` to each ticket instead of a wire line.  The engines'
compile caches and rewrite memos are lock-guarded and their evaluation is
thread-safe — see the ``Engine`` / ``ShardedEngine`` docstrings.
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable

from ..exceptions import ReproError
from .admission import (
    Admission,
    Batch,
    ServingStats,
    Ticket,
    request_source,
)
from .conjunctive import (
    ConjunctiveQuery,
    ConjunctiveResult,
    PlanExecution,
    record_join,
)
from .protocol import (  # noqa: F401 - format_answers stays importable from here
    ControlLine,
    ErrorLine,
    encode_chunk,
    encode_error,
    encode_reply,
    format_answers,
    parse_line,
)
from .request import CRPQRequest, QueryRequest, normalize
from .telemetry import (
    DEFAULT_SIZE_BUCKETS,
    NULL_SPAN,
    Telemetry,
    slow_log_json,
    trace_to_json,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.instance import Oid
    from .session import Engine
    from .sharding import ShardedEngine

# Engine threads wake the event loop for incremental answer delivery at
# most once per interval (plus a final flush at completion): delivery stays
# prompt — the interval is a small fraction of any real first-answer
# latency — without a per-fixpoint-round cross-thread wake-up storm taxing
# the evaluations still running.
DRAIN_WAKE_INTERVAL_S = 0.002


class AnswerStream:
    """Incrementally delivered answers of one streamed request.

    Returned by :meth:`QueryServer.submit_stream`.  Iterate asynchronously to
    receive answers as the engine's checkpoints hand them out::

        stream = server.submit_stream(QueryRequest(query=..., sources=(source,)))
        async for answer in stream:
            ...                      # after fixpoint rounds 1, 2, 4, 8, …
        answers = await stream.result()   # the complete set, == submit()'s

    Each answer is yielded exactly once, in derivation order; iteration ends
    when the batch evaluation completes.  :meth:`result` awaits the full
    answer set and re-raises the batch's error, as the iterator does.
    Event-loop only.
    """

    __slots__ = ("future", "_pending", "_waiter", "_done", "_error")

    def __init__(self, loop: "asyncio.AbstractEventLoop") -> None:
        self.future: "asyncio.Future" = loop.create_future()
        self._pending: "deque" = deque()
        self._waiter: "asyncio.Future | None" = None
        self._done = False
        self._error: "BaseException | None" = None

    def _wake(self) -> None:
        waiter, self._waiter = self._waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _chunk(self, answers: "Iterable[Oid]") -> None:
        self._pending.extend(answers)
        self._wake()

    def _resolve(self, ticket: Ticket, result, error, remainder) -> None:
        """Complete the stream: the answers no chunk carried, then the end."""
        self._done = True
        if error is None:
            self._pending.extend(remainder)
            if not self.future.done():
                self.future.set_result(result)
        else:
            self._error = error
            if not self.future.done():
                self.future.set_exception(error)
                self.future.exception()  # retrieved: the caller may only iterate
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


class _Streamer:
    """The cross-thread drain of one streamed batch.

    Engine threads queue facts under a lock and schedule at most one drain
    on the loop at a time, at most once per :data:`DRAIN_WAKE_INTERVAL_S`:
    thousands of facts over hundreds of rounds cost a handful of loop
    wake-ups.  Held-back facts go out with the next drain, or the final one
    before the batch completes.
    """

    __slots__ = ("server", "batch", "loop", "span", "facts", "lock",
                 "scheduled", "last_wake", "count")

    def __init__(self, server: "QueryServer", batch: Batch, loop, span) -> None:
        self.server, self.batch, self.loop, self.span = server, batch, loop, span
        self.facts: "deque" = deque()
        self.lock = threading.Lock()
        self.scheduled = False
        self.last_wake = 0.0
        self.count = 0

    def emitted(self, source: "Oid", answers: "Iterable[Oid]") -> None:
        """Evaluation thread: queue one fact batch (ownership transfers)."""
        now = perf_counter()
        with self.lock:
            self.facts.append((source, answers))
            schedule = not self.scheduled and now - self.last_wake >= DRAIN_WAKE_INTERVAL_S
            if schedule:
                self.scheduled = True
                self.last_wake = now
        if schedule:
            self.loop.call_soon_threadsafe(self.drain)

    def drain(self) -> None:
        """Loop side: feed the facts to the machine, deliver the chunks."""
        with self.lock:
            facts = list(self.facts)
            self.facts.clear()
            self.scheduled = False
        for source, answers in facts:
            self.count += len(answers)
            self.server._chunks(self.server.machine.stream(self.batch, source, answers))


class QueryServer:
    """Admission queue that coalesces compatible requests into shared batches.

    Construct via ``engine.as_server(...)`` (both session kinds) or directly;
    the engine's ``query_batch`` must be thread-safe (both are — see their
    docstrings).  Usage::

        async with engine.as_server(max_batch=64) as server:
            request = QueryRequest(query="a (b + c)*", sources=("p0",))
            answers = await server.submit(request)

    A bucket flushes into one shared ``query_batch`` when it holds
    ``max_batch`` requests, or when an evaluation worker is free and it is
    the oldest pending bucket (the policy is
    :class:`~repro.engine.admission.Admission`'s).  Flushes run on a
    ``concurrency``-wide thread pool (default 1).  ``max_delay`` is
    validated (it cannot be negative) and otherwise ignored: no flush waits
    on a clock.  It is kept only because the e2e benchmark passes it.  The answer
    ``set`` a request resolves to may be shared with other requests of the
    same ``(query, source)`` — treat it as read-only.  :meth:`close`
    flushes every pending bucket and drains in-flight batches; it is what
    ``async with`` calls on exit.
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
        self.machine = Admission(max_batch, concurrency or 1)
        self.stats = self.machine.stats
        # The serving layer shares the *engine's* telemetry bundle: one
        # registry snapshot (and one trace tree per batch) covers admission,
        # compile and evaluation.  A bare test double without a ``metrics``
        # attribute gets a private bundle so the server still works.
        self.metrics: Telemetry = getattr(engine, "metrics", None) or Telemetry()
        registry = self.metrics.registry
        self.stats.register(registry)
        self._hist_request = registry.histogram(
            "serving_request_seconds", "submit-to-resolve latency per request")
        self._hist_flush = registry.histogram(
            "serving_flush_seconds", "bucket lifetime: first admission to answer fan-out")
        self._hist_wait = registry.histogram(
            "serving_admission_wait_seconds", "bucket wait between first admission and flush")
        self._hist_batch_sources = registry.histogram(
            "serving_batch_sources", "distinct sources per flushed batch",
            buckets=DEFAULT_SIZE_BUCKETS)
        self._hist_first_answer = registry.histogram(
            "serving_first_answer_seconds",
            "submit-to-first-streamed-answer latency per streamed request")
        self._control_requests = registry.counter(
            "serving_control_requests", "line-protocol control verbs handled")
        self._running: "set[asyncio.Future]" = set()
        self._idle_soon = False  # one machine.idle call is scheduled
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

    # -- admission ------------------------------------------------------------
    @staticmethod
    def _lower(query, source: "Oid | None" = None) -> QueryRequest:
        """A ``submit*`` argument as a canonical request; only the structured
        shapes are admitted, a bare query string is refused."""
        if not isinstance(query, (QueryRequest, CRPQRequest, ConjunctiveQuery)):
            raise ReproError(
                "QueryServer.submit* takes a repro.engine.request.QueryRequest "
                f"(or a CRPQRequest / ConjunctiveQuery), not {type(query).__name__}"
            )
        return normalize(query, source)

    def submit_nowait(self, query, source: "Oid | None" = None) -> "asyncio.Future":
        """Admit one scalar request; returns the future of its answer set.

        Accepts a scalar :class:`~repro.engine.request.QueryRequest`.
        Conjunctive requests need the awaitable paths
        (:meth:`submit` / :meth:`submit_conjunctive`) — their joins cannot
        resolve synchronously.

        Must be called from a running event loop.  Admission runs inline: a
        raw-text memo hit for every text seen before (see
        ``Engine.admission``).  Admission errors (e.g. query syntax) raise
        here, counted failed.
        """
        request = self._lower(query, source)
        source = request_source(request, "submit_nowait")
        return self._enqueue(self._admitted(request.query), [source])[0]

    def submit_stream(self, query, source: "Oid | None" = None) -> AnswerStream:
        """Admit one request; answers stream out as the engine derives them.

        Synchronous like :meth:`submit_nowait` (admission inline, even on a
        constrained session); returns an :class:`AnswerStream` at once.  The
        request coalesces with plain ones: a bucket holding a stream is
        evaluated through the engine's ``query_batch_streaming``.  It never
        merges into an in-flight batch, whose early rounds already happened.
        Conjunctive requests cannot stream — a join's rows are not known
        until its last atom resolves.
        """
        request = self._lower(query, source)
        source = request_source(request, "submit_stream")
        return self._enqueue(self._admitted(request.query), [source], stream=True)[0]

    async def submit(self, query, source: "Oid | None" = None):
        """Admit one request and await its result.

        Takes a :class:`~repro.engine.request.QueryRequest`.  A scalar
        request resolves to its answer set; a conjunctive request is
        delegated to :meth:`submit_conjunctive` and resolves to a
        :class:`~repro.engine.conjunctive.ConjunctiveResult`.  Unlike
        :meth:`submit_nowait`, a constrained admission here runs off the
        event loop — see :meth:`_admission`.
        """
        return await (await self._open(self._lower(query, source)))

    async def _open(self, request: QueryRequest):
        """Admit one canonical request; returns what resolves it: the future
        of a scalar request's answer set, the :class:`AnswerStream` of a
        streamed one, or the coroutine of a conjunctive one."""
        if request.is_conjunctive and not request.stream:
            return self.submit_conjunctive(request.query)
        source = request_source(request, "submit_stream" if request.stream else "submit")
        admitted = await self._admission(request.query)
        return self._enqueue(admitted, [source], stream=request.stream)[0]

    async def _admission(self, query) -> tuple:
        """:meth:`_admitted` for a caller that can wait: on a constrained
        session, whose first sight of a text may run a whole rewrite
        search, it runs on the pool; unconstrained, it is a memo hit after
        a text's first parse, so it stays inline."""
        if self.machine.closed or not getattr(self.engine, "constraints", None):
            return self._admitted(query)
        hop = asyncio.get_running_loop().run_in_executor(
            self._pool, self.engine.admission, query
        )
        await asyncio.wait((hop,))
        return self._admitted(query, hop.result)

    def _admitted(self, query, admit=None) -> tuple:
        """``(key, prepared, error)`` of ``query``: the session's admission,
        or ``admit`` replaying one that already ran on the pool.  An error
        (e.g. query syntax) becomes a ticket the machine counts failed; a
        closed server refuses before admitting anything."""
        if self.machine.closed:
            raise ReproError("the query server has been closed")
        try:
            key, prepared = admit() if admit is not None else self.engine.admission(query)
        except Exception as error:
            return None, None, error
        return key, prepared, None

    def _enqueue(self, admitted: tuple, sources, stream: bool = False) -> list:
        """Feed one ticket per source, each owned by a future (or an
        :class:`AnswerStream`); returns the owners, or raises the admission
        error after the machine counted it."""
        key, prepared, error = admitted
        loop = asyncio.get_running_loop()
        tickets = [
            Ticket(
                key, prepared, source,
                None if error else AnswerStream(loop) if stream else loop.create_future(),
                stream=stream, error=error,
            )
            for source in sources
        ]
        self._feed(tickets)
        if error is not None:
            raise error
        return [ticket.owner for ticket in tickets]

    def _feed(self, tickets: list) -> None:
        """Feed ``tickets``; a free worker takes the oldest bucket once this
        loop turn is over, so whatever else the turn feeds shares it."""
        machine = self.machine
        self._act(machine.feed(tickets, perf_counter()))
        if machine.pending and machine.free > 0 and not self._idle_soon:
            self._idle_soon = True
            asyncio.get_running_loop().call_soon(self._idle)

    def _idle(self) -> None:
        self._idle_soon = False
        self._act(self.machine.idle(perf_counter()))

    async def submit_many(
        self, query, sources: "Iterable[Oid] | None" = None
    ) -> "dict[Oid, set[Oid]]":
        """Admit one request per *distinct* source and await them all.

        Takes a scalar :class:`~repro.engine.request.QueryRequest` whose
        ``sources`` carry the fan-out, admitted once for the group.  Sources
        are deduplicated (order-preserving), so the mapping has one entry
        per distinct source and the books count no phantom requests.
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
        admitted = await self._admission(request.query)
        answers = await asyncio.gather(*self._enqueue(admitted, source_list))
        return dict(zip(source_list, answers))

    async def submit_conjunctive(
        self, query, *, strategy: str = "optimized"
    ) -> ConjunctiveResult:
        """Evaluate a conjunctive query through the admission queue.

        The CRPQ is planned on the thread pool, then each planned atom is
        fed as one ticket per source, like :meth:`submit_many`.  Atoms get
        the admission key an identical scalar request gets, so they
        coalesce with scalar traffic, merge into covering in-flight batches
        and share flushes with other CRPQs.  Joins run on the pool.
        Accepts ``MATCH …`` text, a ``ConjunctiveQuery``, or a conjunctive
        :class:`~repro.engine.request.QueryRequest` / ``CRPQRequest``.
        """
        if self.machine.closed:
            raise ReproError("the query server has been closed")
        loop = asyncio.get_running_loop()
        if isinstance(query, (QueryRequest, CRPQRequest)):
            query = normalize(query).query
        self.stats.crpq_submitted += 1
        root = self.metrics.span("serve.crpq", strategy=strategy)
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
                admitted = await self._admission(pending.expression)
                atom_span = self.metrics.span_under(
                    root, "crpq.atom", atom=pending.step.atom.text(), sources=len(sources))
                answers = await asyncio.gather(*self._enqueue(admitted, sources))
                atom_span.end()
                pairs = dict(zip(sources, answers))
                join_span = self.metrics.span_under(root, "crpq.join")
                report = await loop.run_in_executor(self._pool, execution.feed, pairs)
                join_span.end(**report.span_attributes())
            rows = await loop.run_in_executor(self._pool, execution.result_rows)
            root.set(rows=len(rows))
            self.stats.crpq_served += 1
            record_join(self.metrics.registry, execution.steps)
            return ConjunctiveResult(variables=plan.query.returns, rows=rows,
                                     plan=plan, steps=tuple(execution.steps))
        finally:
            root.end()

    # -- carrying out the machine's decisions ----------------------------------
    def _act(self, actions: list) -> None:
        """Start every flushed batch and resolve every delivered ticket."""
        now = perf_counter()
        latency = self._hist_request.observe if self.metrics.enabled else None
        for action in actions:
            if type(action) is Batch:
                self._run(action)
                continue
            ticket, result, error, remainder = action
            if latency is not None:
                latency(now - ticket.admitted_at)
            if ticket.stream and not ticket.streamed and ticket.error is None:
                # A stream no chunk reached gets its first answer now.
                self._hist_first_answer.observe(now - ticket.admitted_at)
            owner = ticket.owner
            if isinstance(owner, asyncio.Future):
                if owner.done():
                    continue
                if error is None:
                    owner.set_result(result)
                else:
                    owner.set_exception(error)
            elif owner is not None:
                owner._resolve(ticket, result, error, remainder)

    def _chunks(self, chunks: list) -> None:
        """Hand streamed answers to their tickets' owners."""
        now = perf_counter()
        for ticket, answers, first in chunks:
            if first:
                self._hist_first_answer.observe(now - ticket.admitted_at)
            ticket.owner._chunk(answers)

    def _run(self, batch: Batch) -> None:
        """Evaluate one flushed batch on the pool: one executor call."""
        loop = asyncio.get_running_loop()
        tele = self.metrics
        span = NULL_SPAN
        if tele.enabled:
            span = tele.span("serve.batch", key=batch.key)
            span.start = batch.created_at  # the admission wait is on the trace
            wait = batch.flushed_at - batch.created_at
            span.event("admission_wait", batch.created_at, wait, reason=batch.reason)
            span.set(reason=batch.reason, sources=len(batch.tickets),
                     requests=batch.requests)
            self._hist_wait.observe(wait)
            self._hist_batch_sources.observe(len(batch.tickets))
        # The evaluation runs on a pool thread, where the event loop's
        # contextvars do not follow; ``under`` re-activates the batch's
        # evaluate span there so the engine's own spans nest beneath it.
        eval_span = tele.span_under(span, "evaluate")
        sources = list(batch.tickets)
        streamer = None
        if batch.streams:
            stream_span = tele.span_under(span, "serve.stream", streams=batch.streams)
            streamer = _Streamer(self, batch, loop, stream_span)

        def evaluate():
            with tele.under(eval_span):
                try:
                    if streamer is None:
                        return self.engine.query_batch(batch.query, sources)
                    return self.engine.query_batch_streaming(
                        batch.query, sources, streamer.emitted
                    )
                finally:
                    eval_span.end()

        run = loop.run_in_executor(self._pool, evaluate)
        self._running.add(run)
        run.add_done_callback(lambda run: self._completed(batch, run, span, streamer))

    def _completed(self, batch, run, span, streamer) -> None:
        self._running.discard(run)
        outcome = (asyncio.CancelledError() if run.cancelled()
                   else run.exception() or run.result())
        if streamer is not None:
            streamer.drain()  # the held-back facts, before the remainders
        fanout = self.metrics.span_under(span, "fanout")
        self._act(self.machine.complete(batch, outcome, perf_counter()))
        fanout.end()
        failure = {"error": repr(outcome)} if isinstance(outcome, BaseException) else {}
        if streamer is not None:
            streamer.span.end(facts=streamer.count, **failure)
        self._hist_flush.observe(span.end(**failure))

    # -- lifecycle ------------------------------------------------------------
    async def close(self) -> None:
        """Flush pending buckets, drain in-flight batches, release the pool."""
        self._act(self.machine.close(perf_counter()))
        while self._running:
            await asyncio.wait(list(self._running))
        self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "QueryServer":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def __repr__(self) -> str:
        return (
            f"QueryServer({self.engine!r}, max_batch={self.machine.max_batch}, "
            f"pending={len(self.machine.pending)})"
        )


# -- line front-end ------------------------------------------------------------
# Per-connection backpressure: a pipelining client may stream lines faster
# than the engine evaluates; with this many responses outstanding the
# reader stops consuming input until one is written, so tickets, buckets
# and connection state stay bounded.
MAX_INFLIGHT_PER_CONNECTION = 1024


class _Connection:
    """One line client: the writer of its responses and its count of
    unanswered lines, which its reader bounds."""

    __slots__ = ("emit", "open", "room", "tasks")

    def __init__(self, emit: "Callable[[str], None]") -> None:
        self.emit = emit
        self.open = 0
        self.room: "asyncio.Future | None" = None
        self.tasks: "set[asyncio.Task]" = set()  # MATCH lines in progress

    def write(self, line: str) -> None:
        # Delivery is best-effort: a failing ``emit`` (its client went away)
        # must not cost the other tickets of the batch their deliveries.
        try:
            self.emit(line)
        except Exception as error:
            asyncio.get_running_loop().call_exception_handler(
                {"message": "emitting a response failed", "exception": error}
            )

    def answered(self, line: str) -> None:
        """Write one line's full response and give back its slot."""
        self.write(line)
        self.open -= 1
        room, self.room = self.room, None
        if room is not None and not room.done():
            room.set_result(None)

    async def below(self, bound: int) -> None:
        """Wait until fewer than ``bound`` lines are unanswered."""
        while self.open >= bound:
            self.room = asyncio.get_running_loop().create_future()
            await self.room


class _Reply:
    """A wire ticket's owner: the line it answers, on its connection."""

    __slots__ = ("conn", "ident", "request")

    def __init__(self, conn: _Connection, ident: str, request: QueryRequest) -> None:
        self.conn = conn
        self.ident = ident
        self.request = request

    def _chunk(self, answers) -> None:
        for answer in answers:
            self.conn.write(encode_chunk(self.ident, answer))

    def _resolve(self, ticket: Ticket, result, error, remainder) -> None:
        if error is not None:
            self.conn.answered(encode_error(self.ident, error))
            return
        self._chunk(remainder)
        self.conn.answered(encode_reply(self.ident, self.request, result, ticket.key))


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
    """Serve one request line through the awaitable API; never raises.

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
    return await _respond(server, *parsed, emit)


async def _respond(server: QueryServer, ident: str, request: QueryRequest, emit=None) -> str:
    try:
        opened = await server._open(request)
        if request.stream and emit is not None:
            async for answer in opened:
                emit(encode_chunk(ident, answer))
        result = await opened
        key = "" if request.limit is None else server.engine.admission_key(request.query)
        return encode_reply(ident, request, result, key)
    except Exception as error:
        return encode_error(ident, error)


async def _serve_lines(
    server: QueryServer,
    readline,
    emit: "Callable[[str], None]",
    max_inflight: int,
    drain=None,
) -> None:
    """The one reader, behind :func:`serve_stream` and :func:`serve_tcp`;
    ``drain``, when given, is awaited after each line it reads."""
    conn = _Connection(emit)
    loop = asyncio.get_running_loop()
    while raw := await readline():
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        if conn.open >= max_inflight:
            await conn.below(max_inflight)
        parsed = parse_line(line)
        if isinstance(parsed, ControlLine):
            conn.write(handle_control(server, parsed))
        elif isinstance(parsed, ErrorLine):
            conn.write(parsed)
        elif parsed.request.is_conjunctive and not parsed.request.stream:
            conn.open += 1
            task = loop.create_task(_match_line(server, conn, *parsed))
            conn.tasks.add(task)
            task.add_done_callback(conn.tasks.discard)
        else:
            await _request_line(server, conn, *parsed)
        if drain is not None:
            await drain()
    await conn.below(1)
    if drain is not None:
        await drain()


async def _match_line(server: QueryServer, conn: _Connection, ident, request) -> None:
    conn.answered(await _respond(server, ident, request))


async def _request_line(server: QueryServer, conn: _Connection, ident, request) -> None:
    """Admit one scalar wire request and feed its ticket; the writer answers
    it at delivery."""
    conn.open += 1
    try:
        source = request_source(request, "submit_stream" if request.stream else "submit")
        key, prepared, error = await server._admission(request.query)
        server._feed([Ticket(key, prepared, source, _Reply(conn, ident, request),
                             stream=request.stream, error=error)])
    except ReproError as error:  # a wrong source count, or a closed server
        conn.answered(encode_error(ident, error))


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
    ``STREAM`` chunk line before its response.  The reader never waits for
    a response before reading on — exactly the TCP front-end's reader — so
    a request/response client that waits for an answer before sending the
    next line never deadlocks, and concurrent requests still coalesce
    through the admission queue.  Responses arrive in *completion* order;
    the ``id`` is what correlates them.  At most ``max_inflight`` lines are
    unanswered at once: the reader stops consuming input while that many
    are (a line counts as answered once its response was handed to
    ``emit``, even if ``emit`` raised).  Whitespace-only lines are skipped
    without an answer, as over TCP.
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

    Each connection runs the reader of :func:`serve_stream` over its
    socket.  ``port=0`` binds an ephemeral port — read the real one off
    ``result.sockets[0].getsockname()``.  ``max_inflight`` bounds each
    connection's outstanding responses (see
    :data:`MAX_INFLIGHT_PER_CONNECTION`).  The caller owns both lifetimes:
    close the returned socket server first, then ``await server.close()``.
    """

    async def connection(
        reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        def write(line: str) -> None:
            # A client that went away (or a transport already closed) must
            # not kill the reader: the answer is computed and counted,
            # delivery is best-effort.
            try:
                writer.write(line.encode("utf-8") + b"\n")
            except (ConnectionError, RuntimeError):  # pragma: no cover
                pass

        async def drain() -> None:
            # Only the reader drains, so a slow client pauses its reading.
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
                # complete before the connection closes.
                pass
            return ""

        try:
            await _serve_lines(server, readline, write, max_inflight, drain)
            # Input left unread at close resets the connection, and the
            # reset can discard the responses just written: after an
            # over-long line, consume what the client still sends, to EOF.
            while not reader.at_eof():
                await reader.read(1 << 16)
        except (ConnectionError, OSError):
            pass
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
