"""The per-request cost of a served line, and the accounting around it.

``Session.admission`` memoizes raw query text -> ``(key, prepared)``, so a
text is parsed once however often it is served; :func:`serve_stream` and the
TCP front-end share one reader, which stops reading while ``max_inflight``
lines are unanswered and skips whitespace-only lines; a wire line is lowered by
``normalize`` once, and every line kind admits a cold constrained text off
the event loop.  ``scripts/check.sh serve`` runs this file
with ``PYTHONASYNCIODEBUG=1`` in both numpy arms.
"""

import asyncio
import json
import threading

import pytest

from repro.exceptions import ReproError
from repro.constraints import ConstraintSet, parse_constraint
from repro.engine import Engine, QueryRequest, serve_stream, serve_tcp
from repro.engine import protocol, serving
from repro.engine import session as session_module
from repro.engine.serving import respond_line
from repro.graph import Instance, web_like_graph
from repro.regex import parser

TEXTS = ("a", "a b", "a + b", "c", "b (c + a)", "a b?", "(a + c) b", "c a")


def web_engine(**options):
    instance, _root = web_like_graph(40, ["a", "b", "c"], seed=7)
    return instance, Engine.open(instance, **options)


def sources_of(instance, count):
    return sorted(instance.objects, key=repr)[:count]


async def stream_lines(server, lines, *, max_inflight=64, emit=None):
    """Run ``lines`` through :func:`serve_stream`; the final responses."""
    pending = iter(lines)
    responses = []

    async def readline():
        line = next(pending, None)
        return "" if line is None else line + "\n"

    def collect(response):
        if emit is not None:
            emit(response)
        if response.split("\t")[1:2] != ["+"]:  # not a STREAM chunk
            responses.append(response)

    await serve_stream(server, readline, collect, max_inflight=max_inflight)
    return responses


async def tcp_lines(server, lines, *, max_inflight=64):
    """Send ``lines`` over one TCP connection; every response line."""
    listener = await serve_tcp(server, "127.0.0.1", 0, max_inflight=max_inflight)
    port = listener.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write("".join(line + "\n" for line in lines).encode("utf-8"))
    await writer.drain()
    writer.write_eof()
    payload = (await reader.read()).decode("utf-8")
    writer.close()
    await writer.wait_closed()
    listener.close()
    await listener.wait_closed()
    return payload.splitlines()


def balanced(stats) -> bool:
    return stats.submitted == stats.served + stats.failed


# ---------------------------------------------------------------------------
# The admission memo.
# ---------------------------------------------------------------------------
class TestAdmissionMemo:
    def test_served_texts_are_parsed_once_each_on_the_loop(self, monkeypatch):
        instance, engine = web_engine()
        sources = sources_of(instance, 10)
        loop_parses = []
        original = parser._Parser.parse
        loop_thread = threading.get_ident()  # asyncio.run loops on this thread

        def counted(self):
            if threading.get_ident() == loop_thread:
                loop_parses.append(self)
            return original(self)

        monkeypatch.setattr(parser._Parser, "parse", counted)
        lines = [
            f"r{index}\t{sources[index % len(sources)]}\t{TEXTS[index % len(TEXTS)]}"
            for index in range(100)
        ]

        async def scenario():
            async with engine.as_server() as server:
                responses = await stream_lines(server, lines)
                return responses, server.stats

        responses, stats = asyncio.run(scenario())
        assert len(responses) == 100
        assert not [line for line in responses if "\terror:" in line]
        assert stats.submitted == stats.served == 100
        assert len(loop_parses) <= len(TEXTS)

    def test_memo_never_outgrows_cache_capacity(self):
        _instance, engine = web_engine(cache_capacity=4)
        texts = [" ".join(["a"] * length) for length in range(1, 21)]
        for text in texts:
            engine.admission(text)
            assert len(engine._admissions) <= 4
        # Least recently used goes first: the newest texts stay.
        assert list(engine._admissions) == texts[-4:]
        engine.admission(texts[-4])  # a hit refreshes its entry
        engine.admission("b")
        assert list(engine._admissions) == [texts[-2], texts[-1], texts[-4], "b"]

    def test_bad_text_fails_on_every_request(self):
        instance, engine = web_engine()
        [source] = sources_of(instance, 1)
        lines = [f"bad{index}\t{source}\t((((" for index in range(5)]
        lines.insert(2, f"ok\t{source}\ta")

        async def scenario():
            async with engine.as_server() as server:
                responses = await stream_lines(server, lines)
                return responses, server.stats

        responses, stats = asyncio.run(scenario())
        errors = [line for line in responses if "\terror:" in line]
        assert sorted(line.split("\t")[0] for line in errors) == [
            f"bad{index}" for index in range(5)
        ]
        assert stats.failed == 5
        assert stats.submitted == 6 and balanced(stats)
        assert "((((" not in engine._admissions

    def test_constrained_memo_hit_equals_a_cold_admission(self, monkeypatch):
        instance, _ = web_like_graph(20, ["a", "b", "c"], seed=7)

        def constrained():
            return Engine.open(
                instance, constraints=ConstraintSet([parse_constraint("a b = c")])
            )

        warm = constrained()
        first = warm.admission("a b a")
        cold_calls = []
        monkeypatch.setattr(
            warm, "_admit_cold", lambda query: cold_calls.append(query)
        )
        hit = warm.admission("a b a")
        assert cold_calls == []
        monkeypatch.undo()
        cold = constrained().admission("a b a")
        assert hit == first == cold
        assert hit[0] == "c a"  # the rewrite applied, not the raw text

    def test_match_text_keeps_its_crpq_key(self):
        _instance, engine = web_engine()
        text = "MATCH x -[a b]-> y RETURN y"
        key, prepared = engine.admission(text)
        assert key.startswith("crpq:")
        assert engine.admission(text) == (key, prepared)
        assert engine.admission_key(text) == key

    def test_unconstrained_prepared_form_is_parsed(self):
        # The flush's compile-cache lookup prints a Regex; it never parses.
        _instance, engine = web_engine()
        key, prepared = engine.admission("(a b)")
        assert key == "a b"
        assert not isinstance(prepared, str)


# ---------------------------------------------------------------------------
# Back-pressure: the reader stops at max_inflight unanswered lines.
# ---------------------------------------------------------------------------
class TestInflightBound:
    @pytest.mark.parametrize("front", ["stream", "tcp"])
    def test_never_more_than_max_inflight_outstanding(self, monkeypatch, front):
        instance, engine = web_engine()
        sources = sources_of(instance, 6)
        peak = 0
        reader = serving._serve_lines

        async def tracked(server, readline, emit, max_inflight, drain=None):
            # Before every read, count the admitted requests not yet
            # answered: the server's open tickets (this is its only client).
            async def sampled():
                nonlocal peak
                stats = server.stats
                peak = max(peak, stats.submitted - stats.served - stats.failed)
                return await readline()

            await reader(server, sampled, emit, max_inflight, drain)

        monkeypatch.setattr(serving, "_serve_lines", tracked)
        lines = [
            f"r{index}\t{sources[index % len(sources)]}\ta b" for index in range(30)
        ]

        async def scenario():
            # The read loop feeds lines faster than the one worker answers
            # them, so it runs into the cap.
            async with engine.as_server() as server:
                front_end = stream_lines if front == "stream" else tcp_lines
                # A slot that is never given back stalls the loop: time out.
                return await asyncio.wait_for(
                    front_end(server, lines, max_inflight=3), 30
                )

        responses = asyncio.run(scenario())
        assert {line.split("\t")[0] for line in responses} == {
            f"r{index}" for index in range(30)
        }
        assert peak == 3

    def test_a_slot_is_freed_when_emit_raises(self):
        instance, engine = web_engine()
        [source] = sources_of(instance, 1)
        lines = [f"r{index}\t{source}\ta" for index in range(5)]
        emitted = []

        def emit(response):
            if response.startswith("r0\t"):
                raise RuntimeError("client went away")
            emitted.append(response.split("\t")[0])

        async def scenario():
            async with engine.as_server() as server:
                await asyncio.wait_for(
                    stream_lines(server, lines, max_inflight=1, emit=emit), 10
                )
                return server.stats

        stats = asyncio.run(scenario())
        assert emitted == ["r1", "r2", "r3", "r4"]
        assert stats.submitted == stats.served == 5


# ---------------------------------------------------------------------------
# Both front-ends agree, and the books balance.
# ---------------------------------------------------------------------------
def test_both_loops_skip_the_same_blank_lines():
    instance = Instance([("u", "a", "v")])
    lines = ["r0\tu\ta", "   ", " \t ", "", "r1\tu\ta"]
    answers = {}
    for front in ("stream", "tcp"):
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                if front == "stream":
                    responses = await stream_lines(server, lines)
                else:
                    responses = await tcp_lines(server, lines)
                return responses, server.stats

        responses, stats = asyncio.run(scenario())
        answers[front] = sorted(responses)
        assert stats.submitted == 2 and balanced(stats)
    assert answers["stream"] == answers["tcp"] == ["r0\tv", "r1\tv"]


WRONG_SOURCES = "V2\t" + json.dumps({"id": "r1", "query": "a", "sources": ["x", "y"]})


class TestWrongSourceCount:
    def test_serve_stream_keeps_the_books_balanced(self):
        instance = Instance([("u", "a", "v")])
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                responses = await stream_lines(server, [WRONG_SOURCES, "r2\tu\ta"])
                return responses, server.stats

        responses, stats = asyncio.run(scenario())
        assert sorted(responses) == [
            "r1\terror: bad v2 request: unknown fields: sources", "r2\tv"
        ]
        assert stats.submitted == 1 and balanced(stats)

    def test_respond_line_keeps_the_books_balanced(self):
        instance = Instance([("u", "a", "v")])
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                refused = await respond_line(server, WRONG_SOURCES)
                served = await respond_line(server, "r2\tu\ta")
                return refused, served, server.stats

        refused, served, stats = asyncio.run(scenario())
        assert refused == "r1\terror: bad v2 request: unknown fields: sources"
        assert served == "r2\tv"
        assert stats.served == 1 and balanced(stats)

    def test_submit_takes_exactly_one_source(self):
        instance = Instance([("u", "a", "v"), ("w", "a", "v")])
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                with pytest.raises(ReproError, match="exactly one source"):
                    await server.submit(QueryRequest(query="a", sources=("u", "w")))
                answers = await server.submit(QueryRequest(query="a", sources=("u",)))
                return answers, server.stats

        answers, stats = asyncio.run(scenario())
        assert answers == {"v"}
        assert stats.submitted == stats.served == 1 and balanced(stats)


def test_a_cold_stream_line_is_admitted_off_the_loop(monkeypatch):
    # A constrained session may run a whole rewrite search on a text it has
    # not seen: every wire line kind, STREAM included, admits it on the pool.
    instance, _ = web_like_graph(20, ["a", "b", "c"], seed=7)
    engine = Engine.open(
        instance, constraints=ConstraintSet([parse_constraint("a b = c")])
    )
    first_seen = {}  # text -> the thread of its first, cold admission
    admission = engine.admission

    def spied(query):
        first_seen.setdefault(query, threading.current_thread().name)
        return admission(query)

    monkeypatch.setattr(engine, "admission", spied)
    lines = ["r0\tp11\ta b a\tSTREAM", "r1\tp11\ta b c", "r2\tp11\tc b\tLIMIT 1"]

    async def scenario():
        async with engine.as_server() as server:
            chunks = []
            responses = [await respond_line(server, line, chunks.append) for line in lines]
            return responses, chunks, server.stats

    responses, chunks, stats = asyncio.run(scenario())
    assert responses[0] == "r0\tp0 p16"
    assert sorted(chunks) == ["r0\t+\tp0", "r0\t+\tp16"]
    assert set(first_seen) == {"a b a", "a b c", "c b"}
    assert all(name.startswith("repro-serve") for name in first_seen.values())
    assert stats.submitted == 3 and balanced(stats)


def test_a_wire_line_is_normalized_once(monkeypatch):
    instance = Instance([("u", "a", "v"), ("v", "a", "w")])
    engine = Engine.open(instance)
    calls = []
    original = serving.normalize

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (protocol, serving, session_module):
        monkeypatch.setattr(module, "normalize", counted)
    lines = [
        "r0\tu\ta a",
        "V2\t" + json.dumps({"id": "r1", "query": "a", "source": "u"}),
        "r2\tu\ta a\tSTREAM",
        "r3\tu\ta\tLIMIT 1",
        "V2\t" + json.dumps({"id": "r4", "query": "a", "source": "v", "limit": 1}),
    ]

    async def scenario():
        async with engine.as_server() as server:
            return [await respond_line(server, line) for line in lines]

    responses = asyncio.run(scenario())
    assert responses == ["r0\tw", "r1\tv", "r2\tw", "r3\tv", "r4\tw"]
    assert len(calls) == len(lines)
