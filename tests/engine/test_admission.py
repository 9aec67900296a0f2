"""The admission state machine (``repro.engine.admission``), with no event loop.

The wire corpus replays through ``feed``/``tick``/``complete`` with a
synchronous executor and the ``protocol`` encoders and must answer every
line byte for byte as the served corpus pins it; a hypothesis test
interleaves ``feed``/``stream``/``complete``/``tick``/``close`` and checks
the policy and the books after every step; and the machine must stay free
of the event loop, threads and the serving layers.  CI runs this module
again under ``--hypothesis-profile=deep``.
"""

import ast
import itertools
from pathlib import Path
from types import SimpleNamespace

from hypothesis import example, given
from hypothesis import strategies as st

from repro.engine import admission
from repro.engine.admission import Admission, Batch, Chunk, Delivery, Ticket, request_source
from repro.engine.conjunctive import ConjunctiveResult, PlanExecution
from repro.engine.protocol import (
    ControlLine,
    ErrorLine,
    encode_chunk,
    encode_error,
    encode_reply,
    parse_line,
)
from repro.engine.serving import handle_control
from repro.exceptions import ReproError

from test_wire_corpus import load_cases, open_engine

MAX_DELAY = 0.001  # the served corpus's server policy


def test_the_machine_imports_no_loop_thread_or_serving_layer():
    tree = ast.parse(Path(admission.__file__).read_text(encoding="utf-8"))
    banned = {"asyncio", "threading", "concurrent", "serving", "session", "sharding"}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & banned, sorted(parts & banned)


# ---------------------------------------------------------------------------
# The wire corpus, served without an event loop.
# ---------------------------------------------------------------------------
class SyncServer:
    """The machine driven by plain calls: feed, then tick past the delay;
    each flushed batch evaluates at once, its streamed facts pass through
    ``stream`` before ``complete``."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.machine = Admission(max_batch=64, max_delay=MAX_DELAY, workers=1)
        self.now = 0.0
        self.delivered: "dict[Ticket, Delivery]" = {}
        self.chunks: "list[Chunk]" = []
        # handle_control reads only the telemetry and its own counter.
        self.control = SimpleNamespace(
            metrics=engine.metrics,
            _control_requests=engine.metrics.registry.counter(
                "serving_control_requests", "line-protocol control verbs handled"
            ),
        )

    def serve(self, tickets) -> None:
        actions = list(self.machine.feed(tickets, self.now))
        self.now += MAX_DELAY
        actions += self.machine.tick(self.now)[0]
        while actions:
            action = actions.pop(0)
            if isinstance(action, Batch):
                actions += self.evaluate(action)
            else:
                assert action.ticket not in self.delivered
                self.delivered[action.ticket] = action

    def evaluate(self, batch: Batch) -> list:
        sources = list(batch.tickets)
        facts = []
        try:
            if batch.streams:
                outcome = self.engine.query_batch_streaming(
                    batch.query, sources, lambda source, answers: facts.append((source, answers))
                )
            else:
                outcome = self.engine.query_batch(batch.query, sources)
        except Exception as error:
            outcome = error
        for source, answers in facts:
            self.chunks += self.machine.stream(batch, source, answers)
        return self.machine.complete(batch, outcome, self.now)

    def admit(self, query, sources, stream=False) -> "list[Ticket]":
        try:
            key, prepared = self.engine.admission(query)
            error = None
        except Exception as caught:
            key = prepared = None
            error = caught
        return [Ticket(key, prepared, source, stream=stream, error=error) for source in sources]

    def respond(self, line: str) -> "tuple[str, list[str]]":
        parsed = parse_line(line)
        if isinstance(parsed, ControlLine):
            return handle_control(self.control, parsed), []
        if isinstance(parsed, ErrorLine):
            return parsed, []
        ident, request = parsed
        try:
            if request.is_conjunctive and not request.stream:
                result = self.conjunctive(request.query)
                key = self.engine.admission_key(request.query) if request.limit else ""
                return encode_reply(ident, request, result, key), []
            source = request_source(request, "submit_stream" if request.stream else "submit")
        except Exception as error:
            return encode_error(ident, error), []
        [ticket] = self.admit(request.query, [source], request.stream)
        self.chunks = []
        self.serve([ticket])
        _ticket, result, error, remainder = self.delivered[ticket]
        if error is not None:
            return encode_error(ident, error), []
        streamed = [answer for chunk in self.chunks for answer in chunk.answers]
        chunks = [encode_chunk(ident, answer) for answer in [*streamed, *remainder]]
        return encode_reply(ident, request, result, ticket.key), sorted(chunks)

    def conjunctive(self, query) -> ConjunctiveResult:
        plan = self.engine.plan_conjunctive(query)
        execution = PlanExecution(plan)
        while (pending := execution.pending()) is not None:
            tickets = self.admit(pending.expression, list(pending.sources))
            self.serve(tickets)
            answers = {}
            for ticket in tickets:
                if self.delivered[ticket].error is not None:
                    raise self.delivered[ticket].error
                answers[ticket.source] = self.delivered[ticket].result
            execution.feed(answers)
        return ConjunctiveResult(variables=plan.query.returns, rows=execution.result_rows(),
                                 plan=plan, steps=tuple(execution.steps))


def test_the_corpus_replays_through_the_machine_byte_for_byte():
    mismatches = []
    for graph, group in itertools.groupby(load_cases(), key=lambda case: case["graph"]):
        server = SyncServer(open_engine(graph))
        for case in group:
            line = case["line"]
            if not line.strip():  # the reader skips these unanswered
                assert case["response"] is None
                continue
            got = server.respond(line)
            if got != (case["response"], case.get("chunks", [])):
                mismatches.append((line, got))
            stats = server.machine.stats
            assert stats.submitted == stats.served + stats.failed, case
    assert mismatches == []


# ---------------------------------------------------------------------------
# The policy and the books, under any interleaving.
# ---------------------------------------------------------------------------
KEYS = ("k0", "k1", "k2")
SOURCES = ("s0", "s1", "s2")

STEPS = st.lists(
    st.one_of(
        # (key, source, streamed, admitted) per ticket; fed in one call or
        # one call per ticket
        st.tuples(st.just("feed"), st.lists(
            st.tuples(st.sampled_from(KEYS), st.sampled_from(SOURCES), st.booleans(),
                      st.integers(0, 9).map(bool)),
            min_size=1, max_size=4), st.booleans()),
        st.tuples(st.just("stream"), st.integers(0, 7), st.sampled_from(SOURCES)),
        st.tuples(st.just("complete"), st.integers(0, 7), st.integers(0, 5).map(bool)),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])),
    ),
    max_size=40,
)


class Model:
    """The machine beside the test's own record of its tickets and batches;
    every step checks the one against the other."""

    def __init__(self, max_batch: int, max_delay: float, workers: int) -> None:
        self.machine = Admission(max_batch, max_delay, workers)
        self.max_batch, self.max_delay, self.workers = max_batch, max_delay, workers
        self.now = 0.0
        self.open: "set[Ticket]" = set()
        self.delivered: "set[Ticket]" = set()
        self.flushed: "list[Batch]" = []  # in flight, in flush order
        self.completed: "list[Batch]" = []
        self.covered: "dict[int, set]" = {}  # batch -> its sources at flush
        self.sent: "dict[tuple, set]" = {}  # (batch, source) -> answers emitted
        self.chunked: "dict[Ticket, list]" = {}

    @staticmethod
    def answers(batch: Batch, source) -> "list[str]":
        """What the stand-in engine derives: three answers per source."""
        return [f"{batch.key}/{source}/{index}" for index in range(3)]

    def take(self, actions: list, trigger: str) -> None:
        for action in actions:
            if isinstance(action, Batch):
                self.flush(action, trigger)
            else:
                self.deliver(action)
        if any(isinstance(a, Batch) and a.reason == "delay" for a in actions):
            assert self.machine.free >= 0  # a delay flush takes a free worker

    def flush(self, batch: Batch, trigger: str) -> None:
        assert self.machine.pending.get(batch.key) is not batch
        if batch.reason == "size":  # at max_batch requests, duplicates included
            assert trigger == "feed" and batch.requests == self.max_batch
        elif batch.reason == "delay":  # at the bucket's creation plus max_delay
            assert trigger in ("tick", "complete")
            assert batch.flushed_at >= batch.created_at + self.max_delay
            # Oldest first: no bucket still pending opened before this one.
            assert all(batch.created_at <= other.created_at
                       for other in self.machine.pending.values())
        elif batch.reason == "immediate":
            assert trigger == "feed" and self.max_delay == 0
        else:
            assert trigger == "close" and batch.reason == "close"
        self.flushed.append(batch)
        self.covered[id(batch)] = set(batch.tickets)

    def deliver(self, delivery: Delivery) -> None:
        ticket = delivery.ticket
        assert ticket in self.open, "delivered twice, or never fed"
        self.open.discard(ticket)
        self.delivered.add(ticket)
        if delivery.error is not None or not ticket.stream:
            assert delivery.remainder == ()
            return
        sent = self.chunked.get(ticket, [])
        assert len(set(sent)) == len(sent)  # a chunk's answer at most once
        assert not set(sent) & set(delivery.remainder)
        assert sorted([*sent, *delivery.remainder]) == sorted(delivery.result)

    def feed(self, drawn, together: bool) -> None:
        tickets = [
            Ticket(key if admitted else None, f"prepared {key}", source, stream=stream,
                   error=None if admitted else ValueError("bad query"))
            for key, source, stream, admitted in drawn
        ]
        for group in [tickets] if together else [[ticket] for ticket in tickets]:
            self.admit(group)

    def admit(self, tickets: "list[Ticket]") -> None:
        in_flight = list(self.flushed)
        merged_before = self.machine.stats.merged
        self.open.update(tickets)
        self.take(self.machine.feed(tickets, self.now), "feed")
        merges = [
            (ticket, batch) for ticket in tickets for batch in in_flight
            if any(t is ticket for t in batch.tickets.get(ticket.source, ()))
        ]
        if len(tickets) == 1:  # else a merge may ride a batch this call flushed
            assert self.machine.stats.merged - merged_before == len(merges)
        for ticket, batch in merges:
            assert not ticket.stream
            assert ticket.source in self.covered[id(batch)]
            assert not batch.done
        for batch in in_flight:  # merging never widens a flushed batch
            assert set(batch.tickets) == self.covered[id(batch)]

    def stream(self, index: int, source) -> None:
        if index % 2 and self.completed:  # a straggler: dropped
            batch = self.completed[index % len(self.completed)]
            assert self.machine.stream(batch, source, ["late"]) == []
            return
        if not self.flushed or source not in self.flushed[index % len(self.flushed)].tickets:
            return
        batch = self.flushed[index % len(self.flushed)]
        sent = self.sent.setdefault((id(batch), source), set())
        fresh = [a for a in self.answers(batch, source) if a not in sent][:2]
        sent.update(fresh)
        chunks = self.machine.stream(batch, source, fresh)
        streams = [t for t in batch.tickets[source] if t.stream]
        assert [chunk.ticket for chunk in chunks] == (streams if fresh else [])
        for chunk in chunks:
            assert chunk.first == (chunk.ticket not in self.chunked)
            self.chunked.setdefault(chunk.ticket, []).extend(chunk.answers)

    def complete(self, index: int, succeeded: bool) -> None:
        if not self.flushed:
            return
        batch = self.flushed.pop(index % len(self.flushed))
        self.completed.append(batch)
        outcome = (
            {source: set(self.answers(batch, source)) for source in batch.tickets}
            if succeeded else RuntimeError("evaluation failed")
        )
        free = self.machine.free
        actions = self.machine.complete(batch, outcome, self.now)
        flushes = [action for action in actions if isinstance(action, Batch)]
        assert len(flushes) <= max(free + 1, 0)  # one per freed worker
        deliveries = [action for action in actions if isinstance(action, Delivery)]
        assert len(deliveries) == sum(map(len, batch.tickets.values()))
        self.take(actions, "complete")

    def tick(self, elapsed: float) -> None:
        self.now += elapsed
        actions, deadline = self.machine.tick(self.now)
        self.take(actions, "tick")
        waiting = [b.created_at + self.max_delay for b in self.machine.pending.values()
                   if b.created_at + self.max_delay > self.now]
        assert deadline == (min(waiting) if waiting and self.max_delay > 0 else None)

    def check(self) -> None:
        stats = self.machine.stats
        assert stats.submitted == stats.served + stats.failed + len(self.open)
        # Merged tickets are exactly those a batch holds beyond its requests.
        assert stats.merged == sum(
            sum(map(len, batch.tickets.values())) - batch.requests
            for batch in [*self.flushed, *self.completed]
        )
        assert all(b.requests < self.max_batch for b in self.machine.pending.values())
        assert self.machine.free == self.workers - len(self.flushed)
        if self.machine.free > 0:  # nothing ripe waits while a worker is free
            assert all(b.created_at + self.max_delay > self.now
                       for b in self.machine.pending.values())


def fed(*tickets, together=True):
    return ("feed", [(key, source, stream, True) for key, source, stream in tickets], together)


@given(
    max_batch=st.integers(1, 4),
    max_delay=st.sampled_from([0.0, 1.0]),
    workers=st.integers(1, 3),
    steps=STEPS,
)
# Each rule once, deterministically, beside the drawn interleavings.
@example(2, 1.0, 1, [fed(("k0", "s0", False), ("k0", "s0", False))])  # duplicates fill
@example(4, 1.0, 1, [fed(("k0", "s0", False)), ("tick", 0.5), ("tick", 0.25), ("tick", 0.25)])
@example(4, 0.0, 1, [fed(("k0", "s0", False)), fed(("k0", "s0", False)), fed(("k0", "s1", False)),
                     fed(("k0", "s0", True)), ("stream", 2, "s0"), ("complete", 2, True),
                     ("stream", 1, "s0"), ("complete", 0, True)])  # merges, streams
@example(2, 1.0, 1, [fed(("k0", "s0", False), ("k0", "s0", False)), fed(("k1", "s0", False)),
                     ("tick", 0.25), fed(("k2", "s0", False)), ("tick", 1.5),
                     ("complete", 0, True), ("complete", 0, False)])  # ripe, oldest first
def test_any_interleaving_keeps_the_policy_and_the_books(max_batch, max_delay, workers, steps):
    model = Model(max_batch, max_delay, workers)
    for step, *args in steps:
        getattr(model, step)(*args)
        model.check()
    model.take(model.machine.close(model.now), "close")
    model.check()
    while model.flushed:
        model.complete(0, True)
        model.check()
    assert not model.open and not model.machine.pending and not model.machine.inflight
    try:
        model.machine.feed([Ticket("k0", "prepared k0", "s0")], model.now)
    except ReproError:
        pass
    else:
        raise AssertionError("a closed machine admitted a ticket")
