"""Admission, as a pure state machine: tickets in, flushes and deliveries out.

Nothing here waits, sleeps, reads a clock or touches a thread: the caller
passes ``now`` and carries out what comes back.  :class:`Admission` holds
every piece of the serving queue's bookkeeping:

* the pending bucket of each admission key, and the flushed batches that
  are still evaluating (the merge targets);
* the size, delay, immediate and close triggers, and the free-worker count
  that holds a delay flush back while every worker is busy;
* the per-source fan-out of a batch's answers, the remainders of streamed
  requests, and the :class:`ServingStats` books.

A request is an opaque :class:`Ticket`; whatever resolves it (a future, an
answer stream, a wire line) rides along as its ``owner``, untouched.  The
entry points, each returning what the caller must do next::

    feed(tickets, now)          -> [Batch to flush | Delivery of an admission error]
    complete(batch, outcome, now) -> [Batch to flush | Delivery per ticket]
    tick(now)                   -> ([Batch to flush], next deadline or None)
    stream(batch, source, answers) -> [Chunk per streamed ticket of source]
    close(now)                  -> [Batch to flush]

``stream`` is the incremental half of ``complete`` (the answers a streamed
batch derived so far, each delivered at most once); ``close`` is the close
trigger.  :mod:`repro.engine.serving` drives this machine from asyncio, and
the tests drive it with a synchronous executor.

The policy.  A bucket flushes once it holds ``max_batch`` requests
(duplicate sources count), or ``max_delay`` after it opened, whichever comes
first; with ``max_delay == 0`` every request flushes alone.  A delay that
runs out while every worker is busy keeps the bucket open and coalescing:
the pending buckets whose delay ran out form the ripe queue, and each freed
worker takes the oldest of them, so the number of batches a burst costs
does not grow with how many deadlines a slow moment lets pass.  A
non-streamed request whose key has no pending bucket, but whose source an
evaluating batch of that key already covers, merges into that batch; a
streamed one never does (the rounds it would stream already happened).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, NamedTuple

from ..exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.instance import Oid
    from .request import QueryRequest
    from .telemetry import MetricsRegistry


def _counter(help_text: str):
    return field(default=0, metadata={"help": help_text})


@dataclass
class ServingStats:
    """Counters of one server's lifetime, each also a registry gauge.

    The size policy and every stat derived from it count **requests**, not
    distinct sources, so duplicate sources fill a bucket exactly like
    distinct ones; distinct sources per flush are the
    ``serving_batch_sources`` histogram, the evaluation-cost view.  A CRPQ's
    atoms are ordinary requests here; the ``crpq_*`` pair counts whole
    conjunctive queries on top.
    """

    submitted: int = _counter("requests admitted (or rejected at admission)")
    served: int = _counter("requests resolved with an answer set")
    failed: int = _counter("requests resolved with an error")
    batches: int = _counter("shared-batch flushes")
    coalesced: int = _counter("requests that shared their batch with another")
    max_batch_size: int = _counter("widest admitted batch (requests)")
    size_flushes: int = _counter("flushes forced by max_batch")
    delay_flushes: int = _counter("flushes forced by max_delay")
    immediate_flushes: int = _counter("flushes with coalescing disabled (max_delay=0)")
    close_flushes: int = _counter("flushes forced by close()")
    merged: int = _counter("requests attached to an in-flight batch of their key")
    streamed: int = _counter("requests admitted via submit_stream")
    crpq_submitted: int = _counter("conjunctive queries admitted")
    crpq_served: int = _counter("conjunctive queries answered end to end")

    def register(self, registry: "MetricsRegistry", prefix: str = "serving") -> None:
        """Expose every counter through ``registry`` as a callback gauge.

        Gauge registration is last-wins: a second server over the same
        engine re-points the serving gauges at its own stats, which is the
        useful reading for the common one-server-at-a-time lifecycle.
        """
        for counter in fields(self):
            registry.gauge(
                f"{prefix}_{counter.name}", counter.metadata["help"],
                lambda a=counter.name: getattr(self, a),
            )


def request_source(request: "QueryRequest", method: str) -> "Oid":
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


@dataclass(slots=True, eq=False)
class Ticket:
    """One request: its admission key, prepared query and source.

    ``error`` is set instead of a key when admission itself failed; the
    machine counts such a ticket and hands it straight back.  ``owner`` is
    the caller's, never read here.  ``streamed`` collects the answers a
    streamed ticket was sent before its batch completed.
    """

    key: "str | None"
    query: object
    source: "Oid"
    owner: object = None
    stream: bool = False
    error: "BaseException | None" = None
    admitted_at: float = 0.0
    streamed: "list | None" = None


@dataclass(slots=True, eq=False)
class Batch:
    """A bucket while pending, then a flushed batch until it completes."""

    key: str
    query: object  # the prepared (rewritten) query, compiled once
    created_at: float
    # Source -> its tickets, in admission order; merged tickets too.
    tickets: "dict[Oid, list[Ticket]]" = field(default_factory=dict)
    requests: int = 0  # the size-policy unit: requests, duplicate sources too
    streams: int = 0
    flushed_at: float = 0.0
    reason: str = ""
    done: bool = False


class Delivery(NamedTuple):
    """Resolve ``ticket``: with ``result``, or with ``error``.

    ``remainder`` is, for a streamed ticket, the answers of ``result`` no
    chunk carried, in wire order.
    """

    ticket: Ticket
    result: object = None
    error: "BaseException | None" = None
    remainder: tuple = ()


class Chunk(NamedTuple):
    """Answers a streamed ticket receives before its batch completes;
    ``first`` marks the ticket's first chunk."""

    ticket: Ticket
    answers: object
    first: bool


class Admission:
    """The admission queue's state; see the module docstring."""

    def __init__(self, max_batch: int, max_delay: float, workers: int) -> None:
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.stats = ServingStats()
        # Pending buckets by key, oldest first: deadlines rise in this
        # order, so the ripe queue is always a prefix of it.
        self.pending: "dict[str, Batch]" = {}
        # Flushed batches still evaluating, by key, oldest first.
        self.inflight: "dict[str, list[Batch]]" = {}
        # Workers not claimed by a flushed batch (negative while size and
        # close flushes queue behind busy ones).
        self.free = workers
        self.closed = False

    def feed(self, tickets, now: float) -> list:
        """Admit ``tickets``: the batches to flush and the admission errors
        to deliver now.  A closed machine admits nothing."""
        if self.closed:
            raise ReproError("the query server has been closed")
        stats = self.stats
        actions: list = []
        for ticket in tickets:
            ticket.admitted_at = now
            stats.submitted += 1
            if ticket.error is not None:
                stats.failed += 1
                actions.append(Delivery(ticket, error=ticket.error))
                continue
            batch = self.pending.get(ticket.key)
            if batch is None:
                if not ticket.stream and self._merge(ticket):
                    continue
                batch = self.pending[ticket.key] = Batch(ticket.key, ticket.query, now)
            if ticket.stream:
                stats.streamed += 1
                batch.streams += 1
                ticket.streamed = []
            batch.tickets.setdefault(ticket.source, []).append(ticket)
            batch.requests += 1
            if batch.requests >= self.max_batch:
                actions.append(self._flush(batch, "size", now))
            elif self.max_delay == 0:
                actions.append(self._flush(batch, "immediate", now))
        return actions

    def _merge(self, ticket: Ticket) -> bool:
        for batch in self.inflight.get(ticket.key, ()):
            waiting = batch.tickets.get(ticket.source)
            if waiting:
                waiting.append(ticket)
                self.stats.merged += 1
                return True
        return False

    def _flush(self, batch: Batch, reason: str, now: float) -> Batch:
        del self.pending[batch.key]
        self.free -= 1
        batch.reason = reason
        batch.flushed_at = now
        stats = self.stats
        stats.batches += 1
        attr = f"{reason}_flushes"
        setattr(stats, attr, getattr(stats, attr) + 1)
        if batch.requests > 1:
            stats.coalesced += batch.requests
        stats.max_batch_size = max(stats.max_batch_size, batch.requests)
        self.inflight.setdefault(batch.key, []).append(batch)
        return batch

    def _ripe(self, now: float) -> list:
        """Flush the oldest buckets whose delay ran out, one per free worker."""
        flushed = []
        while self.free > 0 and self.pending:
            oldest = next(iter(self.pending.values()))
            if oldest.created_at + self.max_delay > now:
                break
            flushed.append(self._flush(oldest, "delay", now))
        return flushed

    def tick(self, now: float) -> "tuple[list, float | None]":
        """The delay flushes due at ``now``, and the next deadline to wake
        at (``None`` while no pending bucket waits on one)."""
        return self._ripe(now), self.next_deadline(now)

    def next_deadline(self, now: float) -> "float | None":
        """When the oldest bucket that is not yet ripe runs out of delay."""
        if self.max_delay > 0:
            for batch in self.pending.values():
                deadline = batch.created_at + self.max_delay
                if deadline > now:
                    return deadline
        return None

    def stream(self, batch: Batch, source: "Oid", answers) -> list:
        """Answers ``batch`` derived for ``source`` so far: one chunk per
        streamed ticket of that source; nothing once the batch completed."""
        if batch.done or not answers:
            return []
        chunks = []
        for ticket in batch.tickets.get(source, ()):
            if ticket.stream:
                chunks.append(Chunk(ticket, answers, not ticket.streamed))
                ticket.streamed.extend(answers)
        return chunks

    def complete(self, batch: Batch, outcome, now: float) -> list:
        """``batch`` evaluated to ``outcome`` (answer sets by source, or the
        exception it raised): the ripe buckets the freed worker takes, then
        one delivery per ticket."""
        serving = self.inflight[batch.key]
        serving.remove(batch)
        if not serving:
            del self.inflight[batch.key]
        batch.done = True
        self.free += 1
        actions: list = self._ripe(now)
        stats = self.stats
        failed = isinstance(outcome, BaseException)
        for source, tickets in batch.tickets.items():
            for ticket in tickets:
                if failed:
                    stats.failed += 1
                    actions.append(Delivery(ticket, error=outcome))
                    continue
                stats.served += 1
                answers = outcome[source]
                remainder = _remainder(ticket.streamed, answers) if ticket.stream else ()
                actions.append(Delivery(ticket, answers, None, remainder))
        return actions

    def close(self, now: float) -> list:
        """Refuse further tickets and flush every pending bucket."""
        self.closed = True
        return [self._flush(batch, "close", now) for batch in list(self.pending.values())]


def _remainder(streamed: list, answers) -> tuple:
    """The answers no chunk carried, sorted for stability.

    Reconciled in wire (``str``) space while raw answers are what a stream
    yields, so an engine that streams an answer raw and a completion that
    re-walks the full set cannot deliver one logical answer twice.
    """
    seen = {str(answer) for answer in streamed}
    return tuple(sorted((a for a in answers if str(a) not in seen), key=str))
