"""Tests for the async serving layer (``repro.engine.serving``).

Admission-queue semantics (coalescing, flush policies, error fan-out,
lifecycle), the TCP/stdin line protocol, end-to-end equivalence of served
answers against direct engine calls on both session kinds, and a
thread-sanity stress test that hammers one shared session from many raw
threads (no asyncio), edits included, on both session kinds.  ``scripts/check.sh serve`` runs this file
with ``PYTHONASYNCIODEBUG=1`` in both numpy arms.
"""

import asyncio
import sys
import threading

import pytest

from repro.engine import (
    Engine,
    QueryRequest,
    QueryServer,
    ShardedEngine,
    available_backends,
    numpy_available,
    serve_stream,
    serve_tcp,
)
from repro.engine.serving import respond_line
from repro.exceptions import ReproError
from repro.graph import Instance, web_like_graph

EXECUTOR_BACKENDS = available_backends()


def web(nodes=40, seed=7, labels=("a", "b", "c")):
    instance, root = web_like_graph(nodes, list(labels), seed=seed)
    return instance, root


def sources_of(instance, count):
    return sorted(instance.objects, key=repr)[:count]


async def stream_responses(server, lines, **options):
    """Run ``lines`` through :func:`serve_stream`: every emitted line, in
    completion order."""
    pending = iter(lines)
    emitted: "list[str]" = []

    async def readline() -> str:
        line = next(pending, None)
        return "" if line is None else line + "\n"

    await serve_stream(server, readline, emitted.append, **options)
    return emitted


# ---------------------------------------------------------------------------
# Admission queue.
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_coalesces_same_query_into_one_batch(self):
        instance, _ = web(30)
        engine = Engine.open(instance)
        sources = sources_of(instance, 10)

        async def scenario():
            async with engine.as_server(max_batch=64) as server:
                return await server.submit_many(QueryRequest(query="a (b + c)*", sources=tuple(sources)))

        served = asyncio.run(scenario())
        assert served == engine.query_batch("a (b + c)*", sources)
        # All ten requests shared ONE engine round-trip (the second
        # batch_evaluations bump is the direct reference call above).
        assert engine.stats.batch_evaluations == 2

    def test_equivalent_spellings_share_a_bucket(self):
        # '(a b)' and 'a b' print to the same canonical expression, so the
        # admission key coalesces them even though the request texts differ.
        instance, _ = web(20)
        engine = Engine.open(instance)
        [source] = sources_of(instance, 1)

        async def scenario():
            async with engine.as_server() as server:
                one = server.submit_nowait(QueryRequest(query="(a b)", sources=(source,)))
                two = server.submit_nowait(QueryRequest(query="a b", sources=(source,)))
                return await asyncio.gather(one, two)

        one, two = asyncio.run(scenario())
        assert one == two
        assert engine.stats.batch_evaluations == 1

    def test_max_batch_flushes_immediately(self):
        instance, _ = web(20)
        engine = Engine.open(instance)
        sources = sources_of(instance, 6)

        async def scenario():
            # submit_many feeds all six in one call: only the size trigger
            # can flush while it runs.
            async with engine.as_server(max_batch=3) as server:
                results = await server.submit_many(QueryRequest(query="a b", sources=tuple(sources)))
                return results, server.stats.size_flushes

        results, size_flushes = asyncio.run(scenario())
        assert results == engine.query_batch("a b", sources)
        assert size_flushes == 2  # 6 sources / max_batch 3

    def test_a_lone_request_never_waits_on_max_delay(self):
        # max_delay is inert: a free worker takes the bucket at once.  The
        # constructor call is the e2e workload's, which still passes it.
        instance, _ = web(20)
        engine = Engine.open(instance)
        [source] = sources_of(instance, 1)

        async def scenario():
            async with QueryServer(engine, max_delay=30.0) as server:
                answers = await asyncio.wait_for(
                    server.submit(QueryRequest(query="a b", sources=(source,))), 2.0
                )
                return answers, server.stats

        answers, stats = asyncio.run(scenario())
        assert answers == engine.query_batch("a b", [source])[source]
        assert (stats.batches, stats.idle_flushes, stats.delay_flushes) == (1, 1, 0)

    def test_one_turn_shares_a_batch_and_a_later_turn_opens_another(self):
        instance, _ = web(20)
        engine = Engine.open(instance)
        one, two, three, four = sources_of(instance, 4)

        async def scenario():
            async with engine.as_server() as server:
                first = [
                    server.submit_nowait(QueryRequest(query="a b", sources=(source,)))
                    for source in (one, two, three)
                ]
                await asyncio.sleep(0)  # the idle server flushed the three
                assert server.stats.batches == 1
                later = server.submit_nowait(QueryRequest(query="a b", sources=(four,)))
                return await asyncio.gather(*first, later), server.stats

        answers, stats = asyncio.run(scenario())
        expected = engine.query_batch("a b", [one, two, three, four])
        assert answers == [expected[one], expected[two], expected[three], expected[four]]
        assert (stats.batches, stats.idle_flushes, stats.merged) == (2, 2, 0)
        assert stats.max_batch_size == stats.coalesced == 3

    def test_different_dfas_use_separate_buckets(self):
        instance, _ = web(20)
        engine = Engine.open(instance)
        [source] = sources_of(instance, 1)

        async def scenario():
            async with engine.as_server(concurrency=2) as server:
                one = server.submit_nowait(QueryRequest(query="a b", sources=(source,)))
                two = server.submit_nowait(QueryRequest(query="b a", sources=(source,)))
                await asyncio.gather(one, two)
                return server.stats.batches

        assert asyncio.run(scenario()) == 2

    def test_malformed_query_fails_fast_at_admission(self):
        # Parse errors surface synchronously from submit, before any bucket
        # is created — a bad request never poisons a shared batch.
        instance, _ = web(10)
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                with pytest.raises(Exception, match="parenthesis"):
                    server.submit_nowait(QueryRequest(query="(unbalanced", sources=("p0",)))
                # submitted == served + failed even for admission failures.
                assert server.stats.submitted == 1
                assert server.stats.failed == 1
                return server.stats.batches

        assert asyncio.run(scenario()) == 0

    def test_evaluation_error_fans_out_to_every_waiter(self):
        # A flush-time engine failure must reject every coalesced waiter.
        instance, _ = web(10)
        engine = Engine.open(instance)
        sources = sources_of(instance, 3)

        class ExplodingEngine:
            def admission(self, query):
                return engine.admission(query)

            def query_batch(self, query, batch_sources):
                raise RuntimeError("backend exploded")

        async def scenario():
            async with QueryServer(ExplodingEngine()) as server:
                futures = [
                    server.submit_nowait(QueryRequest(query="a b", sources=(source,))) for source in sources
                ]
                outcomes = await asyncio.gather(*futures, return_exceptions=True)
                return outcomes, server.stats.failed, server.stats.batches

        outcomes, failed, batches = asyncio.run(scenario())
        assert len(outcomes) == 3 and failed == 3 and batches == 1
        assert all(
            isinstance(outcome, RuntimeError) for outcome in outcomes
        )

    def test_close_flushes_pending_buckets(self):
        instance, _ = web(20)
        engine = Engine.open(instance)
        [source] = sources_of(instance, 1)

        async def scenario():
            server = engine.as_server(max_batch=64)
            future = server.submit_nowait(QueryRequest(query="a b", sources=(source,)))
            await server.close()
            assert server.stats.close_flushes == 1
            return await future

        answers = asyncio.run(scenario())
        assert answers == engine.query_batch("a b", [source])[source]

    def test_submit_after_close_raises(self):
        instance, _ = web(10)
        engine = Engine.open(instance)

        async def scenario():
            server = engine.as_server()
            await server.close()
            with pytest.raises(ReproError, match="closed"):
                server.submit_nowait(QueryRequest(query="a", sources=("p0",)))

        asyncio.run(scenario())

    def test_rejects_bad_policy(self):
        instance, _ = web(5)
        engine = Engine.open(instance)
        with pytest.raises(ReproError):
            QueryServer(engine, max_batch=0)
        with pytest.raises(ReproError):
            QueryServer(engine, max_delay=-1.0)
        with pytest.raises(ReproError):
            QueryServer(engine, concurrency=0)

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_sharded_server_matches_direct_and_monolithic(self, backend):
        instance, _ = web(40)
        sharded = ShardedEngine.open(instance, shards=3, backend=backend)
        mono = Engine.open(instance, backend=backend)
        sources = sources_of(instance, 12)
        queries = ("a (b + c)*", "a* b", "b")

        async def scenario():
            async with sharded.as_server(max_batch=8) as server:
                futures = {
                    (query, source): server.submit_nowait(QueryRequest(query=query, sources=(source,)))
                    for query in queries
                    for source in sources
                }
                return {
                    key: await future for key, future in futures.items()
                }

        served = asyncio.run(scenario())
        for query in queries:
            direct = sharded.query_batch(query, sources)
            reference = mono.query_batch(query, sources)
            for source in sources:
                assert served[(query, source)] == direct[source], (query, source)
                assert direct[source] == reference[source], (query, source)

    def test_admission_returns_prepared_form(self):
        # The bucket evaluates the *rewritten* query directly; admission on
        # a constrained session must hand back the prepared expression.
        from repro.constraints import ConstraintSet, parse_constraint
        from repro.engine import query_key

        instance, _ = web(10)
        constraints = ConstraintSet([parse_constraint("a b <= c")])
        engine = Engine.open(instance, constraints=constraints)
        key, prepared = engine.admission("a b")
        assert key == engine.admission_key("a b") == query_key(prepared)

    def test_admission_key_does_not_take_the_evaluation_lock(self):
        # Regression: admission runs on the event loop while flushes hold
        # the engine lock for a whole evaluation — it must never block on it.
        instance, _ = web(10)
        sharded = ShardedEngine.open(instance, shards=2)
        acquired = sharded._lock.acquire()
        assert acquired
        try:
            done = threading.Event()
            keys: "list[str]" = []

            def admit():
                keys.append(sharded.admission_key("a b"))
                done.set()

            worker = threading.Thread(target=admit)
            worker.start()
            assert done.wait(timeout=10), (
                "admission_key blocked behind the evaluation lock"
            )
            worker.join(timeout=10)
            assert keys == ["a b"]
        finally:
            sharded._lock.release()

    def test_constrained_server_coalesces_rewritten_queries(self):
        from repro.constraints import ConstraintSet, parse_constraint

        instance, _ = web(20)
        constraints = ConstraintSet([parse_constraint("a b <= c")])
        engine = Engine.open(instance, constraints=constraints)
        sources = sources_of(instance, 4)

        async def scenario():
            async with engine.as_server() as server:
                return await server.submit_many(QueryRequest(query="a b", sources=tuple(sources)))

        served = asyncio.run(scenario())
        assert served == engine.query_batch("a b", sources)
        # The flush evaluated the *prepared* form: one rewrite pass total
        # (the rewritten expression is a memo fixed point), never a second
        # pass on its own output.
        assert engine.stats.rewrites_applied <= 1


# ---------------------------------------------------------------------------
# Line protocol: the stdin and TCP front-ends over one read loop.
# ---------------------------------------------------------------------------
class TestLineProtocol:
    def test_request_lines_answered_by_id(self):
        instance = Instance([("u", "a", "v"), ("v", "b", "w")])
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                return await stream_responses(
                    server,
                    [
                        "q1\tu\ta b",
                        "",  # blank lines are skipped
                        "q2\tv\tb",
                        "q3\tu\tzz",
                        "malformed",
                    ],
                )

        responses = dict(
            line.split("\t", 1) for line in asyncio.run(scenario())
        )
        assert responses["q1"] == "w"
        assert responses["q2"] == "w"
        assert responses["q3"] == ""  # no answers -> empty payload
        assert responses["malformed"].startswith("error: malformed request")
        assert len(responses) == 4

    def test_small_inflight_cap_keeps_every_answer(self):
        # A max_inflight far below the line count: the read loop waits for
        # free slots, answers unchanged.
        instance, _ = web(20)
        engine = Engine.open(instance)
        sources = sources_of(instance, 5)
        lines = [
            f"r{index}\t{sources[index % 5]}\ta b" for index in range(17)
        ]

        async def scenario():
            async with engine.as_server() as server:
                return await stream_responses(server, lines, max_inflight=3)

        responses = dict(
            line.split("\t", 1) for line in asyncio.run(scenario())
        )
        expected = engine.query_batch("a b", sources)
        assert len(responses) == 17
        for index in range(17):
            answers = set(responses[f"r{index}"].split()) - {""}
            assert answers == {
                str(oid) for oid in expected[sources[index % 5]]
            }, index

    def test_serve_stream_is_interactive(self):
        # A request/response client: the next line is only produced AFTER
        # the previous answer arrived.  Only a front-end that answers each
        # request as it completes (not at a window boundary / EOF) can
        # finish this exchange — the CLI's stdin mode runs on serve_stream
        # for exactly this reason.
        instance = Instance([("u", "a", "v"), ("v", "b", "w")])
        engine = Engine.open(instance)
        script = ["r1\tu\ta", "r2\tu\ta b", ""]
        responses: "list[str]" = []
        answered = asyncio.Event()

        async def readline() -> str:
            if responses:  # require the previous answer before continuing
                await answered.wait()
                answered.clear()
            line = script.pop(0)
            return line + "\n" if line else ""

        def emit(response: str) -> None:
            responses.append(response)
            answered.set()

        async def scenario():
            async with engine.as_server() as server:
                await asyncio.wait_for(
                    serve_stream(server, readline, emit), timeout=30
                )

        asyncio.run(scenario())
        assert responses == ["r1\tv", "r2\tw"]

    def test_serve_stream_bounds_inflight(self):
        instance = Instance([("u", "a", "v")])
        engine = Engine.open(instance)
        lines = [f"r{index}\tu\ta" for index in range(9)] + [""]
        collected: "list[str]" = []

        async def readline() -> str:
            line = lines.pop(0)
            return line + "\n" if line else ""

        async def scenario():
            async with engine.as_server() as server:
                await serve_stream(
                    server, readline, collected.append, max_inflight=2
                )

        asyncio.run(scenario())
        assert sorted(collected) == sorted(f"r{index}\tv" for index in range(9))

    def test_serve_stream_asks_the_loop_for_no_timer(self):
        # Admission runs on no clock: a whole lap over serve_stream, STREAM
        # lines and a held-back reader included, never arms a loop timer.
        instance, _ = web(30)
        engine = Engine.open(instance)
        sources = sources_of(instance, 6)
        queries = ("a b", "a (b + c)*", "c")
        lines = [
            f"r{index}\t{sources[index % 6]}\t{queries[index % 3]}"
            + ("\tSTREAM" if index % 4 == 0 else "")
            for index in range(40)
        ]
        loop = asyncio.new_event_loop()
        timers: "list[str]" = []
        for name in ("call_later", "call_at"):
            def counted(*args, _name=name, _original=getattr(loop, name), **kwargs):
                timers.append(_name)
                return _original(*args, **kwargs)

            setattr(loop, name, counted)

        async def scenario():
            async with engine.as_server() as server:
                return await stream_responses(server, lines, max_inflight=8)

        try:
            responses = loop.run_until_complete(scenario())
        finally:
            loop.close()
        finals = {line.split("\t")[0] for line in responses if "\t+\t" not in line}
        assert finals == {f"r{index}" for index in range(40)}
        assert timers == []

    def test_constrained_submit_admits_off_loop(self):
        # submit() on a constrained session hops admission to the pool; the
        # answers (and coalescing) must match the inline submit_nowait path.
        from repro.constraints import ConstraintSet, parse_constraint

        instance, _ = web(20)
        constraints = ConstraintSet([parse_constraint("a b <= c")])
        engine = Engine.open(instance, constraints=constraints)
        sources = sources_of(instance, 4)

        async def scenario():
            async with engine.as_server() as server:
                answers = await asyncio.gather(
                    *(server.submit(QueryRequest(query="a b", sources=(source,))) for source in sources)
                )
                return dict(zip(sources, answers)), server.stats

        served, stats = asyncio.run(scenario())
        assert served == engine.query_batch("a b", sources)
        assert stats.submitted == stats.served + stats.failed == 4

    def test_bad_query_is_an_error_response_not_a_crash(self):
        instance = Instance([("u", "a", "v")])
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                return await stream_responses(server, ["q1\tu\t(((("])

        [response] = asyncio.run(scenario())
        assert response.startswith("q1\terror: ")

    def test_tcp_oversized_line_answers_error_and_keeps_responses(self):
        # A line exceeding the stream limit loses framing: the connection
        # must answer the in-flight requests plus one error line instead of
        # dying with nothing.
        instance = Instance([("u", "a", "v")])
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                listener = await serve_tcp(server, "127.0.0.1", 0)
                port = listener.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"ok\tu\ta\n")
                writer.write(b"x" * (2 << 20))  # > the 1 MiB line limit
                await writer.drain()
                writer.write_eof()
                payload = (await reader.read()).decode("utf-8")
                writer.close()
                await writer.wait_closed()
                listener.close()
                await listener.wait_closed()
                return payload

        payload = asyncio.run(scenario())
        lines = payload.splitlines()
        assert "ok\tv" in lines
        assert any("request line too long" in line for line in lines)

    def test_tcp_inflight_cap_preserves_every_response(self):
        # A tiny per-connection cap forces the read loop to apply
        # backpressure; every pipelined request must still get its answer.
        instance, _ = web(20)
        engine = Engine.open(instance)
        sources = sources_of(instance, 5)

        async def scenario():
            async with engine.as_server() as server:
                listener = await serve_tcp(server, "127.0.0.1", 0, max_inflight=2)
                port = listener.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                for index in range(20):
                    source = sources[index % len(sources)]
                    writer.write(f"r{index}\t{source}\ta b\n".encode("utf-8"))
                await writer.drain()
                writer.write_eof()
                payload = (await reader.read()).decode("utf-8")
                writer.close()
                await writer.wait_closed()
                listener.close()
                await listener.wait_closed()
                return payload

        payload = asyncio.run(scenario())
        idents = {line.split("\t", 1)[0] for line in payload.splitlines()}
        assert idents == {f"r{index}" for index in range(20)}

    @pytest.mark.parametrize("shards", [None, 2])
    def test_tcp_round_trip(self, shards):
        instance, _ = web(25)
        if shards is None:
            engine = Engine.open(instance)
        else:
            engine = ShardedEngine.open(instance, shards=shards)
        sources = sources_of(instance, 4)
        expected = engine.query_batch("a (b + c)*", sources)

        async def scenario():
            async with engine.as_server() as server:
                listener = await serve_tcp(server, "127.0.0.1", 0)
                port = listener.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                for index, source in enumerate(sources):
                    writer.write(
                        f"r{index}\t{source}\ta (b + c)*\n".encode("utf-8")
                    )
                await writer.drain()
                writer.write_eof()
                payload = (await reader.read()).decode("utf-8")
                writer.close()
                await writer.wait_closed()
                listener.close()
                await listener.wait_closed()
                return payload, server.stats.submitted

        payload, submitted = asyncio.run(scenario())
        assert submitted == len(sources)
        responses = dict(
            line.split("\t", 1) for line in payload.splitlines() if line
        )
        for index, source in enumerate(sources):
            answers = set(responses[f"r{index}"].split()) - {""}
            assert answers == {str(oid) for oid in expected[source]}, source


# ---------------------------------------------------------------------------
# Thread sanity: many raw threads on one shared engine (no asyncio).
# ---------------------------------------------------------------------------
class TestThreadSanity:
    QUERIES = ("a (b + c)*", "a* b", "b c", "(a + b)*", "c")

    def _hammer(self, engine, reference, threads=8, rounds=12):
        errors: "list[BaseException]" = []
        barrier = threading.Barrier(threads)

        def worker(seed: int) -> None:
            try:
                barrier.wait(timeout=30)
                for round_index in range(rounds):
                    query = self.QUERIES[(seed + round_index) % len(self.QUERIES)]
                    got = engine.query_batch(query, reference[query][1])
                    assert got == reference[query][0], query
            except BaseException as error:  # surfaces in the main thread
                errors.append(error)

        workers = [
            threading.Thread(target=worker, args=(index,))
            for index in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in workers)

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_shared_monolithic_engine_under_thread_load(self, backend):
        instance, _ = web(40)
        engine = Engine.open(instance, backend=backend)
        sources = sources_of(instance, 8)
        reference = {
            query: (engine.query_batch(query, sources), sources)
            for query in self.QUERIES
        }
        self._hammer(engine, reference)
        # Every request was tallied exactly once: 5 warm-up calls plus
        # threads x rounds hammered calls, none lost to racing increments.
        assert engine.stats.batch_evaluations == len(self.QUERIES) + 8 * 12

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_shared_sharded_engine_under_thread_load(self, backend):
        instance, _ = web(40)
        engine = ShardedEngine.open(instance, shards=3, backend=backend)
        sources = sources_of(instance, 8)
        reference = {
            query: (engine.query_batch(query, sources), sources)
            for query in self.QUERIES
        }
        self._hammer(engine, reference, threads=6, rounds=8)
        assert engine.stats.batch_evaluations == len(self.QUERIES) + 6 * 8

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_mutation_concurrent_with_queries_is_safe(self, backend):
        # Regression (review repro): add_edge during an in-flight run used
        # to crash the query thread (numpy gathered edge arrays holding
        # freshly interned node ids beyond the run's node count).  In-place
        # mutation now drains in-flight executor runs first.
        instance, _ = web(400)
        self._edit_while_querying(Engine.open(instance, backend=backend), instance)

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_sharded_mutation_concurrent_with_queries_is_safe(self, backend):
        # The sharded session reads its shard graphs through one view; its
        # edits (new nodes on two shards, tombstones) drain in-flight runs
        # the same way.
        instance, _ = web(400)
        engine = ShardedEngine.open(instance, shards=3, backend=backend)
        self._edit_while_querying(engine, instance)

    @staticmethod
    def _edit_while_querying(engine, instance):
        backend = engine.backend
        sources = sources_of(instance, 12)
        stop = threading.Event()
        errors: "list[BaseException]" = []

        def querier():
            try:
                while not stop.is_set():
                    engine.query_batch("(a + b + c)*", sources)
            except BaseException as error:
                errors.append(error)

        pause = threading.Event()  # never set: .wait() is a sub-ms sleep

        def mutator():
            # Spread the edits across ~0.2s of query activity so some land
            # mid-run (a back-to-back blast tends to fall between runs).
            try:
                for index in range(150):
                    engine.add_edge(f"mut{index}", "a", sources[index % 12])
                    pause.wait(0.0005)
                for index in range(150):
                    engine.remove_edge(f"mut{index}", "a", sources[index % 12])
                    pause.wait(0.0005)
            except BaseException as error:
                errors.append(error)
            finally:
                stop.set()

        threads = [threading.Thread(target=querier) for _ in range(3)]
        threads.append(threading.Thread(target=mutator))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        # The edit script is symmetric, so the final answers are clean.
        reference = Engine.open(instance.copy(), backend=backend)
        assert engine.query_batch("a (b + c)*", sources) == reference.query_batch(
            "a (b + c)*", sources
        )

    @pytest.mark.skipif(not numpy_available(), reason="numpy lowering under test")
    def test_edits_between_existing_nodes_patch_under_concurrent_readers(self):
        # Edits that intern no node are journaled and patched into the
        # cached lowerings while reader threads keep looking them up; a
        # lost or doubled journal entry would leave the final lowering
        # differing from the graph.  More threads than cores, and a short
        # switch interval, so lookups interleave with the journal appends.
        # The interleaving is made certain, not left to the scheduler: the
        # mutator starts once every reader has cached its lowering, and
        # after every third edit waits for a reader's lookup that began
        # after that edit.
        from collections import Counter

        instance, _ = web(300)
        engine = Engine.open(instance, backend="numpy")
        nodes = sources_of(instance, 300)
        sources = nodes[:12]
        stop = threading.Event()
        errors: "list[BaseException]" = []
        queries = ("(a + b)* c", "a (b + c)*", "(a + b + c)*")
        warm = threading.Barrier(len(queries) * 2 + 1)
        looked = threading.Condition()
        edits = [0, -1]  # edits made; edits a finished lookup began after

        def querier(query):
            try:
                engine.query_batch(query, sources)
                warm.wait(timeout=30)
                while not stop.is_set():
                    with looked:
                        began = edits[0]
                    engine.query_batch(query, sources)
                    with looked:
                        edits[1] = max(edits[1], began)
                        looked.notify_all()
            except BaseException as error:
                errors.append(error)

        def mutator():
            try:
                warm.wait(timeout=30)
                added = []
                for index in range(120):
                    edge = (nodes[index], "abc"[index % 3], nodes[-1 - index])
                    if not engine.instance.has_edge(*edge):
                        engine.add_edge(*edge)
                        added.append(edge)
                    if index % 3 == 2:
                        engine.remove_edge(*added.pop(0))
                        with looked:
                            edits[0] += 1
                            assert looked.wait_for(lambda: edits[1] >= edits[0], timeout=30)
            except BaseException as error:
                errors.append(error)
            finally:
                stop.set()

        threads = [threading.Thread(target=querier, args=(q,)) for q in queries * 2]
        threads.append(threading.Thread(target=mutator))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)
        graph = engine.graph
        assert graph.lowering_counts()["patched"] > 0
        n = graph.num_nodes
        fresh = Engine.open(engine.instance.copy(), backend="numpy")
        for query in queries:
            moves = engine.compiled(query).moves
            product = graph.numpy_product_csr(moves)
            indptr, dst = product.indptr.tolist(), product.dst.tolist()
            lowered = Counter(
                (key, target)
                for key in range(len(indptr) - 1)
                for target in dst[indptr[key]:indptr[key + 1]]
            )
            scalar = Counter(
                (state * n + node, next_state * n + target)
                for state, row in enumerate(moves)
                for label, next_state in row
                for node in range(n)
                for target in graph.successors(node, label)
            )
            assert lowered == scalar, query
            assert engine.query_batch(query, sources) == fresh.query_batch(query, sources)

    def test_query_snapshot_survives_concurrent_rebuild(self):
        # Query paths capture (table, graph) as one pair: a refresh in
        # another thread that swaps the engine's graph (here simulated
        # inline via an out-of-band edit) must not tear a query that is
        # already past compilation into mixing old ids with a new graph.
        from repro.engine import run_batch

        instance = Instance([("u", "a", "v"), ("v", "b", "w")])
        engine = Engine.open(instance)
        compiled, graph = engine._compiled_on("a b")
        instance.remove_edge("u", "a", "v")  # out-of-band: full rebuild due
        instance.add_edge("u", "c", "v")
        assert engine.refresh() is True
        assert engine.graph is not graph
        # The captured pair still serves a consistent pre-rebuild answer.
        run = run_batch(graph, compiled, [graph.node_id("u")])
        assert graph.oids_of(run.answers[0]) == {"w"}

    @pytest.mark.skipif(not numpy_available(), reason="numpy cache under test")
    def test_stale_edge_arrays_not_cached_after_mid_build_mutation(
        self, monkeypatch
    ):
        # ABA regression: reader A starts lowering a label's edge arrays at
        # version v; a mutation bumps the version AND another reader re-lowers
        # the cache for the new version before A stores.  A's stale arrays
        # must not be readmitted just because the live version matches the
        # cache's again.
        import repro.engine.csr as csr_mod
        from repro.engine import CompiledGraph

        graph = CompiledGraph.from_instance(Instance([("u", "a", "v")]))
        label = graph.label_id("a")
        original = csr_mod.LabelEdges.__init__
        fired = []

        def hooked(edges_self, src, dst):
            if not fired:
                fired.append(True)
                graph.add_edge("u", "a", "w")  # version bump mid-build
                graph.numpy_label_edges(label)  # reader B: reset + recache
            original(edges_self, src, dst)

        monkeypatch.setattr(csr_mod.LabelEdges, "__init__", hooked)
        graph.numpy_label_edges(label)  # reader A: must not poison the cache
        monkeypatch.setattr(csr_mod.LabelEdges, "__init__", original)
        cached = graph.numpy_label_edges(label)
        assert graph.node_id("w") in cached.dst.tolist()

    @pytest.mark.skipif(not numpy_available(), reason="numpy cache under test")
    def test_stale_product_csr_not_cached_after_mid_build_mutation(
        self, monkeypatch
    ):
        # The same ABA race on the product-CSR cache, which shares the edge
        # arrays' lock and version stamp: reader A lowers a query's product
        # at version v, a mutation plus reader B's re-lowering land before A
        # stores.  A's product (one edge short) must not be readmitted under
        # the new version.  The edit adds no node, so both readers use the
        # same cache key and only the version guard separates them.
        import repro.engine.csr as csr_mod
        from repro.engine import CompiledGraph, lower_query

        graph = CompiledGraph.from_instance(Instance([("u", "a", "v")]))
        moves = lower_query("a", graph).moves
        original = csr_mod.ProductCSR.__init__
        fired = []

        def hooked(product_self, indptr, dst):
            if not fired:
                fired.append(True)
                graph.add_edge("v", "a", "u")  # version bump mid-build
                graph.numpy_product_csr(moves)  # reader B: reset + recache
            original(product_self, indptr, dst)

        monkeypatch.setattr(csr_mod.ProductCSR, "__init__", hooked)
        stale = graph.numpy_product_csr(moves)  # reader A: must not poison
        monkeypatch.setattr(csr_mod.ProductCSR, "__init__", original)
        cached = graph.numpy_product_csr(moves)
        assert cached is not stale
        assert cached.dst.size == 2 and stale.dst.size == 1

    @pytest.mark.skipif(not numpy_available(), reason="numpy cache under test")
    def test_stale_patch_not_cached_after_mutation_between_journal_read_and_store(
        self, monkeypatch
    ):
        # The race once more, on the patch path: reader A reads the journal
        # (one pending edit) and patches; a second edit and reader B's patch
        # land before A stores.  A's product (one edit short) must not be
        # readmitted, and B's must not be patched twice by what A read.
        import repro.engine.csr as csr_mod
        from repro.engine import CompiledGraph, lower_query

        graph = CompiledGraph.from_instance(Instance([("u", "a", "v"), ("v", "a", "w")]))
        moves = lower_query("a", graph).moves
        graph.numpy_product_csr(moves)
        graph.add_edge("w", "a", "u")  # journaled: A's pending edit
        original = csr_mod._patch_product
        fired = []

        def hooked(product, pending, moves_, n):
            patched = original(product, pending, moves_, n)
            if not fired:
                fired.append(True)
                graph.add_edge("u", "a", "w")  # between A's read and store
                graph.numpy_product_csr(moves)  # reader B: patches, stores
            return patched

        monkeypatch.setattr(csr_mod, "_patch_product", hooked)
        stale = graph.numpy_product_csr(moves)  # reader A: must not poison
        monkeypatch.setattr(csr_mod, "_patch_product", original)
        cached = graph.numpy_product_csr(moves)
        assert cached is not stale
        assert stale.dst.size == 3 and cached.dst.size == 4
        assert graph.lowering_counts() == {"built": 1, "patched": 2, "hit": 1}

    def test_compile_cache_safe_under_concurrent_compiles(self):
        # Many distinct queries from many threads: the LRU mutates heavily.
        instance, _ = web(20)
        engine = Engine.open(instance, cache_capacity=4)
        queries = ["a", "a b", "a b c", "b*", "c b a", "(a + b)*"]
        [source] = sources_of(instance, 1)
        expected = {query: engine.answer_set(query, source) for query in queries}
        errors: "list[BaseException]" = []

        def worker(offset: int) -> None:
            try:
                for index in range(18):
                    query = queries[(offset + index) % len(queries)]
                    assert engine.answer_set(query, source) == expected[query]
            except BaseException as error:
                errors.append(error)

        workers = [
            threading.Thread(target=worker, args=(index,)) for index in range(6)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
        assert not errors, errors


# ---------------------------------------------------------------------------
# Streaming: submit_stream / AnswerStream.
# ---------------------------------------------------------------------------
class TestStreaming:
    @pytest.mark.parametrize("shards", [None, 3])
    def test_streamed_answers_equal_batch_answers(self, shards):
        instance, _ = web(40)
        if shards is None:
            engine = Engine.open(instance)
        else:
            engine = ShardedEngine.open(instance, shards=shards)
        sources = sources_of(instance, 4)
        expected = engine.query_batch("a (b + c)*", sources)

        async def scenario():
            async with engine.as_server() as server:
                streams = {
                    source: server.submit_stream(QueryRequest(query="a (b + c)*", sources=(source,)))
                    for source in sources
                }
                collected = {}
                for source, stream in streams.items():
                    collected[source] = [answer async for answer in stream]
                results = {
                    source: await stream.result()
                    for source, stream in streams.items()
                }
                return collected, results

        collected, results = asyncio.run(scenario())
        for source in sources:
            # Exactly-once: no duplicates in the incremental feed.
            assert len(collected[source]) == len(set(collected[source]))
            assert set(collected[source]) == {
                str(oid) for oid in expected[source]
            }
            # The resolved set is identical to submit()'s contract.
            assert results[source] == expected[source]

    def test_streams_coalesce_with_plain_requests(self):
        instance, _ = web(30)
        engine = Engine.open(instance)
        [one, two] = sources_of(instance, 2)

        async def scenario():
            async with engine.as_server() as server:
                stream = server.submit_stream(QueryRequest(query="a (b + c)*", sources=(one,)))
                plain = server.submit_nowait(QueryRequest(query="a (b + c)*", sources=(two,)))
                streamed = [answer async for answer in stream]
                return streamed, await plain, server.stats

        streamed, plain, stats = asyncio.run(scenario())
        # One shared evaluation served both request kinds.
        assert engine.stats.batch_evaluations == 1
        assert stats.streamed == 1
        assert stats.submitted == 2
        assert stats.served == 2
        assert plain == engine.query_batch("a (b + c)*", [two])[two]
        assert set(streamed) == {
            str(oid) for oid in engine.query_batch("a (b + c)*", [one])[one]
        }

    def test_empty_answer_set_completes_stream(self):
        instance = Instance([("u", "a", "v")])
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                stream = server.submit_stream(QueryRequest(query="b b", sources=("u",)))
                streamed = [answer async for answer in stream]
                return streamed, await stream.result()

        streamed, answers = asyncio.run(scenario())
        assert streamed == []
        assert answers == set()

    def test_stream_error_raises_in_iterator_and_result(self):
        instance = Instance([("u", "a", "v")])
        engine = Engine.open(instance)

        class Boom(RuntimeError):
            pass

        def explode(*args, **kwargs):
            raise Boom("evaluation failed")

        engine.query_batch_streaming = explode

        async def scenario():
            async with engine.as_server() as server:
                stream = server.submit_stream(QueryRequest(query="a", sources=("u",)))
                with pytest.raises(Boom):
                    async for _ in stream:
                        pass
                with pytest.raises(Boom):
                    await stream.result()
                return server.stats

        stats = asyncio.run(scenario())
        assert stats.failed == 1
        assert stats.submitted == stats.served + stats.failed

    def test_first_answer_histogram_observed(self):
        from repro.engine import set_telemetry_enabled

        previous = set_telemetry_enabled(True)
        try:
            self._first_answer_scenario()
        finally:
            set_telemetry_enabled(previous)

    def _first_answer_scenario(self):
        instance, _ = web(25)
        engine = Engine.open(instance)
        [source] = sources_of(instance, 1)

        async def scenario():
            async with engine.as_server() as server:
                stream = server.submit_stream(QueryRequest(query="a (b + c)*", sources=(source,)))
                async for _ in stream:
                    pass
                await stream.result()
                return server.metrics.registry.snapshot()

        snapshot = asyncio.run(scenario())
        hist = snapshot["serving_first_answer_seconds"]
        assert hist["count"] == 1
        assert hist["sum"] > 0.0


# ---------------------------------------------------------------------------
# Admission accounting regressions (the three bugfix sweeps of PR 7).
# ---------------------------------------------------------------------------
class TestAccountingRegressions:
    def test_submit_many_duplicate_sources_exact_accounting(self):
        # Regression: duplicates used to admit one request (and register
        # one future) per occurrence, then collapse via dict(zip(...)) —
        # submitted counted phantom requests no caller could observe.
        instance, _ = web(20)
        engine = Engine.open(instance)
        [one, two] = sources_of(instance, 2)
        sources = [one, two, one, one, two]

        async def scenario():
            async with engine.as_server() as server:
                answers = await server.submit_many(QueryRequest(query="a (b + c)*", sources=tuple(sources)))
                return answers, server.stats

        answers, stats = asyncio.run(scenario())
        assert set(answers) == {one, two}
        assert stats.submitted == 2  # distinct sources, not occurrences
        assert stats.served == 2
        assert stats.failed == 0
        assert stats.submitted == stats.served + stats.failed
        assert answers == engine.query_batch("a (b + c)*", [one, two])

    def test_duplicate_source_requests_advance_size_trigger(self):
        # Regression: the size trigger counted distinct sources while the
        # stats counted futures — a bucket of N requests on one source
        # never size-flushed.  The policy unit is now requests everywhere.
        instance, _ = web(20)
        engine = Engine.open(instance)
        [source] = sources_of(instance, 1)

        async def scenario():
            async with engine.as_server(max_batch=3) as server:
                futures = [
                    server.submit_nowait(QueryRequest(query="a b", sources=(source,))) for _ in range(3)
                ]
                # The third request hit max_batch: flushed by size, inside feed.
                assert server.stats.size_flushes == 1
                await asyncio.gather(*futures)
                return server.stats

        stats = asyncio.run(scenario())
        assert stats.size_flushes == 1
        assert stats.batches == 1
        assert stats.coalesced == 3
        assert stats.max_batch_size == 3  # same unit as the trigger
        assert stats.submitted == stats.served + stats.failed == 3

    def test_merged_request_rides_in_flight_batch(self):
        instance, _ = web(25)
        engine = Engine.open(instance)
        [one, two] = sources_of(instance, 2)

        async def scenario():
            async with engine.as_server() as server:
                # A free worker takes the first request's bucket once the
                # turn ends: its batch is in flight when the second (same
                # key, same source) arrives, so it merges instead of opening
                # a new bucket.
                first = server.submit_nowait(QueryRequest(query="a (b + c)*", sources=(one,)))
                await asyncio.sleep(0)
                merged = server.submit_nowait(QueryRequest(query="a (b + c)*", sources=(one,)))
                other = server.submit_nowait(QueryRequest(query="a (b + c)*", sources=(two,)))
                results = await asyncio.gather(first, merged, other)
                return results, server.stats

        (first, merged, other), stats = asyncio.run(scenario())
        assert first == merged
        assert stats.merged == 1
        assert stats.batches == 2  # the merged request opened no batch
        assert stats.submitted == stats.served + stats.failed == 3
        assert engine.stats.batch_evaluations == 2

    def test_streams_never_merge_into_in_flight_batches(self):
        # A stream arriving after its key flushed must re-evaluate: the
        # rounds it would have streamed already happened.
        instance, _ = web(25)
        engine = Engine.open(instance)
        [source] = sources_of(instance, 1)
        expected = engine.query_batch("a (b + c)*", [source])[source]

        async def scenario():
            async with engine.as_server() as server:
                plain = server.submit_nowait(QueryRequest(query="a (b + c)*", sources=(source,)))
                await asyncio.sleep(0)  # the plain request's batch is in flight
                stream = server.submit_stream(QueryRequest(query="a (b + c)*", sources=(source,)))
                streamed = [answer async for answer in stream]
                return await plain, streamed, server.stats

        plain, streamed, stats = asyncio.run(scenario())
        assert plain == expected
        assert set(streamed) == {str(oid) for oid in expected}
        assert stats.merged == 0
        assert stats.batches == 2


# ---------------------------------------------------------------------------
# A free evaluation worker takes the oldest pending bucket.
# ---------------------------------------------------------------------------
class _GatedEngine:
    """The engine, with the first ``query_batch`` held until ``release``."""

    def __init__(self, inner):
        self._inner = inner
        self.metrics = inner.metrics
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batches: "list[tuple]" = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def query_batch(self, query, sources):
        self.batches.append(tuple(sources))
        if len(self.batches) == 1:
            self.entered.set()
            assert self.release.wait(timeout=10)
        return self._inner.query_batch(query, sources)


async def until(condition):
    for _ in range(2000):
        if condition():
            return
        await asyncio.sleep(0.001)
    raise AssertionError("condition never held")


class TestIdleWorkerTakesTheOldestBucket:
    """A bucket waits while every worker is evaluating and keeps coalescing;
    each worker that frees takes the oldest pending bucket, so batches widen
    exactly while the server is busy and a burst costs as many batches as
    the work needs, however long it waits."""

    def test_pending_bucket_keeps_coalescing_until_a_worker_frees(self):
        instance, _ = web(30)
        engine = Engine.open(instance)
        gated = _GatedEngine(engine)
        one, two, three, four = sources_of(instance, 4)
        loop_of = asyncio.get_running_loop

        async def scenario():
            async with QueryServer(gated) as server:
                first = server.submit_nowait(QueryRequest(query="a", sources=(one,)))
                await loop_of().run_in_executor(None, gated.entered.wait, 10)
                # The only worker is inside the first batch.  Another key's
                # bucket waits for it, unflushed ...
                early = server.submit_nowait(QueryRequest(query="a b", sources=(two,)))
                await asyncio.sleep(0.02)
                assert server.stats.batches == 1
                # ... so requests arriving later still share its one batch.
                late = [
                    server.submit_nowait(QueryRequest(query="a b", sources=(source,)))
                    for source in (three, four)
                ]
                await asyncio.sleep(0.02)
                assert server.stats.batches == 1
                gated.release.set()
                results = await asyncio.gather(first, early, *late)
                return results, server.stats

        (first, *rest), stats = asyncio.run(scenario())
        assert first == engine.query_batch("a", [one])[one]
        expected = engine.query_batch("a b", [two, three, four])
        assert rest == [expected[two], expected[three], expected[four]]
        assert gated.batches == [(one,), (two, three, four)]
        assert stats.batches == stats.idle_flushes == 2
        assert stats.max_batch_size == 3
        assert stats.submitted == stats.served + stats.failed == 4

    def test_size_and_close_flushes_do_not_wait(self):
        instance, _ = web(30)
        engine = Engine.open(instance)
        gated = _GatedEngine(engine)
        one, two, three, four = sources_of(instance, 4)

        async def scenario():
            server = QueryServer(gated, max_batch=2)
            first = server.submit_nowait(QueryRequest(query="a", sources=(one,)))
            await asyncio.get_running_loop().run_in_executor(
                None, gated.entered.wait, 10
            )
            full = [
                server.submit_nowait(QueryRequest(query="a b", sources=(source,)))
                for source in (two, three)
            ]
            assert server.stats.size_flushes == 1  # max_batch never waits
            held = server.submit_nowait(QueryRequest(query="c", sources=(four,)))
            await asyncio.sleep(0.02)
            assert server.stats.batches == 2  # the "c" bucket is held back
            closing = asyncio.ensure_future(server.close())
            await until(lambda: server.stats.close_flushes == 1)
            gated.release.set()
            await closing
            await asyncio.gather(first, held, *full)
            return server.stats

        stats = asyncio.run(scenario())
        assert stats.batches == 3
        assert (stats.idle_flushes, stats.size_flushes, stats.close_flushes) == (1, 1, 1)
        assert stats.submitted == stats.served + stats.failed == 4

    def test_held_buckets_flush_oldest_first_one_per_freed_worker(self):
        instance, _ = web(30)
        engine = Engine.open(instance)
        gated = _GatedEngine(engine)
        one, two, three = sources_of(instance, 3)

        async def scenario():
            async with QueryServer(gated) as server:
                first = server.submit_nowait(QueryRequest(query="a", sources=(one,)))
                await asyncio.get_running_loop().run_in_executor(
                    None, gated.entered.wait, 10
                )
                second = server.submit_nowait(QueryRequest(query="b", sources=(two,)))
                await asyncio.sleep(0.005)
                third = server.submit_nowait(QueryRequest(query="c", sources=(three,)))
                await asyncio.sleep(0.02)
                assert server.stats.batches == 1
                gated.release.set()
                await asyncio.gather(first, second, third)
                return server.stats

        stats = asyncio.run(scenario())
        assert gated.batches == [(one,), (two,), (three,)]
        assert stats.batches == stats.idle_flushes == 3


# ---------------------------------------------------------------------------
# Page + stream modifiers on the line protocol.
# ---------------------------------------------------------------------------
class TestPageProtocol:
    QUERY = "a (b + c)*"

    def _server(self, instance, engine, **policy):
        return engine.as_server(**policy)

    def test_pages_concatenate_to_the_full_sorted_set(self):
        instance, _ = web(40)
        engine = Engine.open(instance)
        # Pick the richest source so the answer set really paginates.
        candidates = sources_of(instance, 20)
        reference = engine.query_batch(self.QUERY, candidates)
        source = max(candidates, key=lambda oid: len(reference[oid]))
        expected = sorted(str(oid) for oid in reference[source])
        assert len(expected) > 5  # the workload must actually paginate

        async def scenario():
            async with self._server(instance, engine) as server:
                pages, cursor, hops = [], None, 0
                while True:
                    suffix = f" CURSOR {cursor}" if cursor else ""
                    response = await respond_line(
                        server,
                        f"p{hops}\t{source}\t{self.QUERY}\tLIMIT 3{suffix}",
                    )
                    fields = response.split("\t")
                    assert not fields[1].startswith("error:"), response
                    pages.extend(fields[1].split())
                    hops += 1
                    if len(fields) == 3:
                        assert fields[2].startswith("CURSOR ")
                        cursor = fields[2][len("CURSOR "):]
                    else:
                        return pages, hops

        pages, hops = asyncio.run(scenario())
        assert pages == expected  # sorted order, nothing lost or duplicated
        assert hops == -(-len(expected) // 3)  # ceil(n / page size)

    def test_last_page_has_no_cursor_and_short_page_is_exact(self):
        instance = Instance([("u", "a", "v"), ("u", "a", "w")])
        engine = Engine.open(instance)

        async def scenario():
            async with self._server(instance, engine) as server:
                return await respond_line(server, f"r\tu\ta\tLIMIT 10")

        response = asyncio.run(scenario())
        assert response == "r\tv w"  # fits one page: no CURSOR field

    def test_malformed_limit_modifiers_answer_errors(self):
        instance = Instance([("u", "a", "v")])
        engine = Engine.open(instance)

        async def scenario():
            async with self._server(instance, engine) as server:
                return [
                    await respond_line(server, f"r1\tu\ta\tLIMIT"),
                    await respond_line(server, f"r2\tu\ta\tLIMIT zero"),
                    await respond_line(server, f"r3\tu\ta\tLIMIT 0"),
                    await respond_line(server, f"r4\tu\ta\tLIMIT 2 KURSOR x"),
                    await respond_line(server, f"r5\tu\ta\tPAGES 2"),
                ]

        responses = asyncio.run(scenario())
        for response in responses:
            ident, body = response.split("\t", 1)
            assert body.startswith("error:"), response

    def test_invalid_cursor_answers_error_not_crash(self):
        instance = Instance([("u", "a", "v"), ("u", "a", "w")])
        engine = Engine.open(instance)

        async def scenario():
            async with self._server(instance, engine) as server:
                garbage = await respond_line(
                    server, "r1\tu\ta\tLIMIT 1 CURSOR :::not-base64:::"
                )
                # A well-formed token minted for a DIFFERENT (query, source)
                # must be rejected too: mint one for source u, replay it
                # against source w... which requires a real first page.
                first = await respond_line(server, "r2\tu\ta\tLIMIT 1")
                token = first.split("\t")[2][len("CURSOR "):]
                replayed = await respond_line(
                    server, f"r3\tw\ta\tLIMIT 1 CURSOR {token}"
                )
                mismatched = await respond_line(
                    server, f"r4\tu\ta a\tLIMIT 1 CURSOR {token}"
                )
                return garbage, replayed, mismatched

        garbage, replayed, mismatched = asyncio.run(scenario())
        assert "error:" in garbage and "cursor" in garbage
        assert "error:" in replayed and "cursor" in replayed
        assert "error:" in mismatched and "cursor" in mismatched

    def test_stream_modifier_emits_chunks_then_full_response(self):
        instance, _ = web(30)
        engine = Engine.open(instance)
        [source] = sources_of(instance, 1)
        expected = {
            str(oid) for oid in engine.query_batch(self.QUERY, [source])[source]
        }

        async def scenario():
            async with self._server(instance, engine) as server:
                chunks = []
                response = await respond_line(
                    server, f"s\t{source}\t{self.QUERY}\tSTREAM", chunks.append
                )
                return chunks, response

        chunks, response = asyncio.run(scenario())
        assert response == f"s\t{' '.join(sorted(expected))}"
        parsed = [chunk.split("\t") for chunk in chunks]
        assert all(fields[:2] == ["s", "+"] for fields in parsed)
        assert {fields[2] for fields in parsed} == expected
        assert len(parsed) == len(expected)  # exactly once each

    def test_stream_modifier_without_emit_degrades_to_full_response(self):
        # Without a chunk channel, STREAM answers like a plain request.
        instance = Instance([("u", "a", "v"), ("u", "a", "w")])
        engine = Engine.open(instance)

        async def scenario():
            async with self._server(instance, engine) as server:
                return await respond_line(server, "r\tu\ta\tSTREAM")

        assert asyncio.run(scenario()) == "r\tv w"

    def test_stream_over_tcp_interleaves_chunks(self):
        instance, _ = web(30)
        engine = Engine.open(instance)
        [source] = sources_of(instance, 1)
        expected = {
            str(oid) for oid in engine.query_batch(self.QUERY, [source])[source]
        }

        async def scenario():
            async with self._server(instance, engine) as server:
                listener = await serve_tcp(server, "127.0.0.1", 0)
                port = listener.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(f"s\t{source}\t{self.QUERY}\tSTREAM\n".encode())
                await writer.drain()
                writer.write_eof()
                payload = (await reader.read()).decode("utf-8")
                writer.close()
                await writer.wait_closed()
                listener.close()
                await listener.wait_closed()
                return payload

        lines = asyncio.run(scenario()).splitlines()
        chunks = [line for line in lines if line.split("\t")[1:2] == ["+"]]
        finals = [line for line in lines if line.split("\t")[1:2] != ["+"]]
        assert {chunk.split("\t")[2] for chunk in chunks} == expected
        assert finals == [f"s\t{' '.join(sorted(expected))}"]

    def test_mid_stream_disconnect_leaves_server_healthy(self):
        instance, _ = web(30)
        engine = Engine.open(instance)
        [source] = sources_of(instance, 1)
        expected = engine.query_batch(self.QUERY, [source])[source]

        async def scenario():
            async with self._server(instance, engine) as server:
                listener = await serve_tcp(server, "127.0.0.1", 0)
                port = listener.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(f"s\t{source}\t{self.QUERY}\tSTREAM\n".encode())
                await writer.drain()
                # Hang up without reading anything; the serving task must
                # finish the request (accounting stays exact) instead of
                # dying on the dead transport.
                writer.close()
                await writer.wait_closed()
                # The same server keeps serving new connections.
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(f"ok\t{source}\t{self.QUERY}\n".encode())
                await writer.drain()
                writer.write_eof()
                payload = (await reader.read()).decode("utf-8")
                writer.close()
                await writer.wait_closed()
                listener.close()
                await listener.wait_closed()
                return payload, server.stats

        payload, stats = asyncio.run(scenario())
        answered = dict(
            line.split("\t", 1)
            for line in payload.splitlines()
            if "\t+\t" not in line
        )
        assert set(answered["ok"].split()) == {str(oid) for oid in expected}
        assert stats.submitted == stats.served + stats.failed
        assert stats.failed == 0


# ---------------------------------------------------------------------------
# Conjunctive queries through the admission queue and the wire protocol.
# ---------------------------------------------------------------------------
class TestConjunctiveServing:
    CRPQ = "MATCH x -[a]-> y, y -[(b + c)*]-> z RETURN x, z"

    def test_submit_conjunctive_matches_engine(self):
        instance, _ = web(40)
        engine = Engine.open(instance)
        expected = engine.query_conjunctive(self.CRPQ)

        async def scenario():
            async with engine.as_server() as server:
                result = await server.submit_conjunctive(self.CRPQ)
                return result, server.stats

        result, stats = asyncio.run(scenario())
        assert result.rows == expected.rows
        assert result.variables == expected.variables
        assert (stats.crpq_submitted, stats.crpq_served) == (1, 1)
        # Per-atom requests flow through the ordinary accounting.
        assert stats.submitted == stats.served + stats.failed
        assert stats.failed == 0

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_sharded_served_matches_direct(self, backend):
        instance, _ = web(40)
        direct = Engine.open(instance).query_conjunctive(self.CRPQ).rows
        engine = ShardedEngine.open(instance, shards=3, backend=backend)

        async def scenario():
            async with engine.as_server(concurrency=2) as server:
                return await server.submit_conjunctive(self.CRPQ)

        try:
            assert asyncio.run(scenario()).rows == direct
        finally:
            engine.close()

    def test_submit_routes_conjunctive_requests(self):
        from repro.engine import ConjunctiveResult
        from repro.engine.request import CRPQRequest, QueryRequest

        instance = Instance([("u", "a", "v"), ("v", "b", "w")])
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                via_submit = await server.submit(
                    QueryRequest(query="MATCH x -[a b]-> y RETURN y")
                )
                via_request = await server.submit(
                    CRPQRequest(query="MATCH x -[a b]-> y RETURN y", source="u")
                )
                return via_submit, via_request

        via_submit, via_request = asyncio.run(scenario())
        assert isinstance(via_submit, ConjunctiveResult)
        assert via_submit.rows == (("w",),)
        assert via_request.rows == (("w",),)

    def test_crpq_atom_coalesces_with_scalar_traffic(self):
        # The satellite contract: a CRPQ atom gets the admission key an
        # identical scalar request gets, so the two share one batch.  The
        # scalar request's batch is held in evaluation while the CRPQ is
        # planned on the second worker; its only atom keys 'a' from the same
        # source, so it merges into that batch instead of opening one.
        from repro.engine.request import QueryRequest

        instance = Instance([("u", "a", "v"), ("v", "b", "w")])
        engine = Engine.open(instance)
        gated = _GatedEngine(engine)

        async def scenario():
            async with QueryServer(gated, concurrency=2) as server:
                scalar = server.submit_nowait(
                    QueryRequest(query="a", sources=("u",))
                )
                crpq = asyncio.ensure_future(server.submit_conjunctive(
                    "MATCH x -[a]-> y WHERE x = u RETURN y"
                ))
                await until(lambda: server.stats.merged == 1)
                gated.release.set()
                return await scalar, await crpq, server.stats

        scalar, crpq, stats = asyncio.run(scenario())
        assert scalar == {"v"}
        assert crpq.rows == (("v",),)
        assert stats.batches == 1  # ONE shared flush for both
        assert stats.merged == 1
        assert gated.batches == [("u",)]
        assert engine.stats.batch_evaluations == 1

    def test_conjunctive_rejected_where_it_cannot_resolve(self):
        from repro.engine.request import QueryRequest

        instance = Instance([("u", "a", "v")])
        engine = Engine.open(instance)
        request = QueryRequest(query="MATCH x -[a]-> y RETURN y")

        async def scenario():
            async with engine.as_server() as server:
                with pytest.raises(ReproError, match="submit_conjunctive"):
                    server.submit_nowait(request)
                with pytest.raises(ReproError, match="cannot stream"):
                    server.submit_stream(request)
                with pytest.raises(ReproError, match="conjunctive"):
                    await server.submit_many(request)

        asyncio.run(scenario())

    def test_v1_crpq_lines(self):
        instance = Instance(
            [("u", "a", "v"), ("u", "a", "w"), ("v", "b", "t")]
        )
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                unbound = await respond_line(
                    server, "1\t-\tMATCH x -[a]-> y RETURN x, y"
                )
                bound = await respond_line(
                    server, "2\tu\tMATCH x -[a b]-> y RETURN y"
                )
                return unbound, bound, server.stats

        unbound, bound, stats = asyncio.run(scenario())
        assert unbound == "1\tu,v u,w"  # '-' leaves every variable free
        assert bound == "2\tt"  # the source column binds the first variable
        assert stats.submitted == stats.served + stats.failed
        assert stats.failed == 0

    def test_v2_lines_scalar_and_crpq(self):
        import json

        instance = Instance([("u", "a", "v"), ("v", "b", "w")])
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                scalar = await respond_line(
                    server,
                    "V2\t" + json.dumps(
                        {"id": "s1", "query": "a b", "source": "u"}
                    ),
                )
                crpq = await respond_line(
                    server,
                    "V2\t" + json.dumps(
                        {
                            "id": "c1",
                            "crpq": "MATCH x -[a]-> y, y -[b]-> z RETURN x, z",
                        }
                    ),
                )
                return scalar, crpq

        scalar, crpq = asyncio.run(scenario())
        assert scalar == "s1\tw"
        assert crpq == "c1\tu,w"

    def test_v2_validation_errors(self):
        import json

        instance = Instance([("u", "a", "v")])
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                payloads = [
                    "not json at all",
                    json.dumps({"query": "a"}),  # missing id
                    json.dumps({"id": "x"}),  # neither query nor crpq
                    json.dumps({"id": "x", "query": "a", "crpq": "MATCH x -[a]-> y"}),
                    json.dumps({"id": "x", "crpq": "a b"}),  # not MATCH syntax
                    json.dumps({"id": "x", "query": "a", "bogus": 1}),
                    json.dumps({"id": "x", "query": "a", "stream": "yes"}),
                    json.dumps(
                        {"id": "x", "query": "a", "source": "u", "sources": ["u"]}
                    ),
                    json.dumps({"id": "x", "query": "a", "source": "u", "limit": True}),
                    json.dumps({"id": "x", "query": "a*", "source": None}),
                    json.dumps({"id": "x", "query": "a*", "sources": [None]}),
                ]
                return [await respond_line(server, f"V2\t{p}") for p in payloads]

        responses = asyncio.run(scenario())
        for response in responses:
            assert "\terror: bad v2 request" in response, response

    def test_crpq_pages_concatenate_and_cursor_is_bound(self):
        instance = Instance(
            [("u", "a", "v"), ("u", "a", "w"), ("s", "a", "t")]
        )
        engine = Engine.open(instance)
        crpq = "MATCH x -[a]-> y RETURN x, y"
        expected = [
            ",".join(map(str, row))
            for row in engine.query_conjunctive(crpq).rows
        ]

        async def scenario():
            async with engine.as_server() as server:
                rows, cursor, hops = [], None, 0
                while True:
                    suffix = f" CURSOR {cursor}" if cursor else ""
                    response = await respond_line(
                        server, f"p{hops}\t-\t{crpq}\tLIMIT 2{suffix}"
                    )
                    fields = response.split("\t")
                    assert not fields[1].startswith("error:"), response
                    rows.extend(fields[1].split())
                    hops += 1
                    if len(fields) == 3:
                        cursor = fields[2][len("CURSOR "):]
                    else:
                        break
                # A scalar request must not accept a CRPQ cursor.
                stolen = await respond_line(
                    server, f"x\tu\ta\tLIMIT 2 CURSOR {cursor or 'gone'}"
                )
                return rows, hops, stolen

        rows, hops, stolen = asyncio.run(scenario())
        assert rows == expected
        assert hops == 2  # 3 rows, page size 2
        assert "error: invalid cursor" in stolen

    def test_crpq_stream_modifier_is_rejected(self):
        instance = Instance([("u", "a", "v")])
        engine = Engine.open(instance)

        async def scenario():
            async with engine.as_server() as server:
                return await respond_line(
                    server, "1\t-\tMATCH x -[a]-> y RETURN y\tSTREAM"
                )

        response = asyncio.run(scenario())
        assert response.startswith("1\terror:")
        assert "stream" in response
