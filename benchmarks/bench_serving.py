"""Concurrent shared-batch serving vs sequential per-query serving.

The async serving layer (``repro.engine.serving``) must pay for itself on a
many-client gateway workload: dozens of clients concurrently asking a small
pool of distinct queries from scattered sources.  Two properties are gated:

* **admission win** — serving every request through the
  :class:`~repro.engine.serving.QueryServer` admission queue (same-DFA
  requests coalesced into shared ``query_batch`` evaluations, each flushed
  at max-batch requests or when a worker is free) must be at least **2x
  faster** than the sequential baseline that gives every request its own
  engine round-trip;
* **telemetry overhead** — serving with telemetry capture enabled must
  stay within **5%** of the same run with capture disabled
  (``OVERHEAD_BOUND``), the contract that instrumentation is near-free.

Per-request latency is measured at the admission boundary — a monotonic
clock read when each request is submitted and again when its future
resolves — and the artifact records the p50/p95/p99 of that distribution.
A dedicated streaming pass serves the same requests through
``submit_stream`` and clocks submission to *first streamed answer* (or to
completion, for empty answer sets): the ``latency.first_answer_*``
artifact fields.  ``--check`` additionally gates first-answer p99 below
the *recorded* resolve baseline — the ``latency.p99_s`` of the committed
artifact at the same path, read before this run overwrites it (first
generation falls back to the same run's resolve p99) — and pins the
engine-side cost flat: the per-run mean of the session's run histogram
(``engine_run_seconds``, or ``sharded_local_fixpoint_seconds`` on a
sharded session: one executor run either way, sink callbacks included)
during the streaming arm must stay within ``FLATNESS_BOUND`` of the batch
arm's.  The gates' outcome is recorded in the artifact
(``check_failures``) as well as printed.
Served answers are checked request-for-request against the sequential
baseline (and the grouped direct ``query_batch``) before any timing is
trusted.  The run always writes a machine-readable artifact
(``BENCH_serving.json``; smoke runs default to ``BENCH_serving_smoke.json``
so they never clobber the committed numbers).  Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py           # full run
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke   # CI-sized
    PYTHONPATH=src python benchmarks/bench_serving.py --check   # gate both
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import random
import sys
import time

from bench_sharded import build_workload

from repro.engine import QueryRequest, ShardedEngine, set_telemetry_enabled

SPEEDUP_BOUND = 2.0
OVERHEAD_BOUND = 1.05
# Streaming must not make the engine itself work harder: per-run means of
# the run histogram in the streaming arm vs the batch arm.  Only the name
# the serving session registers appears (a sharded session's run histogram
# is sharded_local_fixpoint_seconds; a monolithic one's
# engine_run_seconds), and both are gated.
FLATNESS_BOUND = 1.5
GATED_HISTOGRAMS = ("engine_run_seconds", "sharded_local_fixpoint_seconds")


def percentile(values, quantile):
    """Nearest-rank percentile of a list of measured latencies."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * quantile))
    return ordered[rank - 1]


def make_requests(query_count, sources, total, seed):
    """``total`` gateway requests: (query index, source), uniformly random."""
    rng = random.Random(seed)
    return [
        (rng.randrange(query_count), rng.choice(sources)) for _ in range(total)
    ]


def serve_sequentially(engine, queries, requests):
    """The baseline: one full engine round-trip per request, in order."""
    answers = []
    for query_index, source in requests:
        answers.append(engine.query_batch(queries[query_index], [source])[source])
    return answers


def serve_concurrently(engine, queries, requests, *, max_batch, concurrency,
                       capture_latencies=False):
    """All requests admitted concurrently through the shared-batch queue.

    With ``capture_latencies`` each request is clocked from submission to
    future resolution (``time.perf_counter`` at both ends); the timing
    passes leave it off so throughput numbers carry no harness overhead.
    """
    latencies: list[float] = []

    async def scenario():
        async with engine.as_server(
            max_batch=max_batch, concurrency=concurrency
        ) as server:
            futures = []
            for query_index, source in requests:
                submitted_at = time.perf_counter()
                future = server.submit_nowait(
                    QueryRequest(query=queries[query_index], sources=(source,))
                )
                if capture_latencies:
                    future.add_done_callback(
                        lambda _f, t0=submitted_at: latencies.append(
                            time.perf_counter() - t0
                        )
                    )
                futures.append(future)
            answers = await asyncio.gather(*futures)
            return list(answers), server.stats

    answers, stats = asyncio.run(scenario())
    return answers, stats, latencies


def serve_streaming(engine, queries, requests, *, max_batch, concurrency):
    """All requests served through ``submit_stream``, first answers clocked.

    Each request's first-answer latency is submission to the first
    ``async for`` yield — or to stream completion for an empty answer set,
    the same time-to-certainty convention the
    ``serving_first_answer_seconds`` histogram uses.  Returns the resolved
    full answer sets (pinned against the sequential baseline by the
    caller), the serving stats, and the first-answer latencies.
    """
    first_latencies: list[float] = []

    async def consume(stream, submitted_at):
        seen_first = False
        async for _ in stream:
            first_latencies.append(time.perf_counter() - submitted_at)
            seen_first = True
            # First answer clocked; the remainder comes from result() so
            # the harness's per-answer iteration does not steal loop time
            # from the evaluations still in flight (full-iteration parity
            # is pinned by the fuzz suite, not re-measured here).
            break
        answers = await stream.result()
        if not seen_first:
            first_latencies.append(time.perf_counter() - submitted_at)
        return answers

    async def scenario():
        async with engine.as_server(
            max_batch=max_batch, concurrency=concurrency
        ) as server:
            tasks = []
            for query_index, source in requests:
                submitted_at = time.perf_counter()
                stream = server.submit_stream(
                    QueryRequest(
                        query=queries[query_index], sources=(source,), stream=True
                    )
                )
                tasks.append(
                    asyncio.get_running_loop().create_task(
                        consume(stream, submitted_at)
                    )
                )
            answers = await asyncio.gather(*tasks)
            return list(answers), server.stats

    answers, stats = asyncio.run(scenario())
    return answers, stats, first_latencies


def fold_histogram_deltas(totals, engine, before):
    """Fold one arm window's evaluation-histogram deltas into ``totals``.

    ``before`` is a prior ``engine.metrics.registry.snapshot()``; the delta
    between it and a fresh snapshot isolates one window's observations from
    the process-cumulative histogram totals.  ``totals`` maps histogram name
    to accumulated ``[sum seconds, count]`` across every window of the arm.
    """
    after = engine.metrics.registry.snapshot()
    for name in GATED_HISTOGRAMS:
        if name not in after:
            continue
        total, count = totals.setdefault(name, [0.0, 0])
        totals[name] = [
            total + after[name]["sum"] - before.get(name, {}).get("sum", 0.0),
            count + after[name]["count"] - before.get(name, {}).get("count", 0),
        ]


def histogram_means(totals):
    """``{name: (mean seconds, count)}`` of accumulated histogram totals."""
    return {
        name: (total / count if count else 0.0, count)
        for name, (total, count) in totals.items()
    }


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def best_of(repeat, fn, *args, **kwargs):
    best = float("inf")
    result = None
    for _ in range(repeat):
        result, elapsed = timed(fn, *args, **kwargs)
        best = min(best, elapsed)
    return result, best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cluster-nodes", type=int, default=800,
                        help="nodes per cluster (= per shard)")
    parser.add_argument("--clusters", type=int, default=4,
                        help="cluster/shard count")
    parser.add_argument("--queries", type=int, default=6,
                        help="distinct queries in the gateway's pool")
    parser.add_argument("--requests", type=int, default=192,
                        help="total client requests")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="flush pool size")
    parser.add_argument("--max-batch", type=int, default=32,
                        help="admission queue: flush at this many sources")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions (best-of)")
    parser.add_argument(
        "--json", default=None,
        help="results artifact path (default: BENCH_serving.json, or "
        "BENCH_serving_smoke.json under --smoke)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for CI: verifies the harness, not the numbers",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit 1 unless shared-batch serving is >= {SPEEDUP_BOUND}x the "
        f"sequential baseline, and telemetry overhead <= {OVERHEAD_BOUND}x",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.cluster_nodes, args.clusters, args.queries = 60, 3, 3
        args.requests, args.repeat = 36, 1
    if args.json is None:
        args.json = "BENCH_serving_smoke.json" if args.smoke else "BENCH_serving.json"

    # The recorded resolve baseline the streaming gate compares against:
    # the committed artifact at this path, read before the run overwrites
    # it.  Missing or unreadable (first generation, or a fresh smoke
    # path) leaves it None and the gate falls back to the same run's own
    # resolve p99.
    recorded_p99 = None
    try:
        with open(args.json, "r", encoding="utf-8") as handle:
            recorded_p99 = json.load(handle)["latency"]["p99_s"] or None
    except (OSError, ValueError, KeyError, TypeError):
        recorded_p99 = None

    instance, shard_map, queries, sources = build_workload(
        args.cluster_nodes, args.clusters, args.queries, args.seed
    )
    requests = make_requests(len(queries), sources, args.requests, args.seed)
    print(
        f"workload: {args.clusters} clusters x {args.cluster_nodes} nodes "
        f"({instance.edge_count()} edges), {len(queries)} distinct queries, "
        f"{len(requests)} client requests"
    )

    failures: list[str] = []
    engine = ShardedEngine.open(instance, shard_map=shard_map)
    try:
        # Telemetry capture on for the correctness + latency passes, so the
        # enabled arm below is the instrumented steady state.
        telemetry_before = set_telemetry_enabled(True)
        # Warm every cache, and pin served answers to the sequential baseline
        # (request for request) and the grouped direct batches.
        sequential_answers = serve_sequentially(engine, queries, requests)
        served_answers, serving_stats, _ = serve_concurrently(
            engine, queries, requests,
            max_batch=args.max_batch,
            concurrency=args.concurrency,
        )
        if served_answers != sequential_answers:
            failures.append("served answers diverge from sequential serving")
        for query_index, query in enumerate(queries):
            wanted = sorted(
                {src for qi, src in requests if qi == query_index}, key=repr
            )
            if not wanted:
                continue
            direct = engine.query_batch(query, wanted)
            for position, (qi, src) in enumerate(requests):
                if qi == query_index and served_answers[position] != direct[src]:
                    failures.append(
                        f"served answer for request {position} diverges from "
                        f"the direct batched call"
                    )
                    break
        if serving_stats.coalesced == 0 and len(requests) > len(queries):
            failures.append("admission queue coalesced nothing on a gateway load")

        # Dedicated latency passes, interleaved ``--repeat`` times: the
        # batch arm clocks per-request submit-to-resolve, the streaming arm
        # submit-to-first-answer.  The evaluation histograms are bracketed
        # around each window and folded per arm, so flatness compares
        # mean-for-mean over every repeat; the latency vectors keep the
        # lowest-p99 repeat — the same machine-noise defence the best-of
        # timing arms use — and interleaving keeps drift from loading one
        # arm only.
        batch_totals: dict = {}
        streaming_totals: dict = {}
        latencies: "list[float]" = []
        first_latencies: "list[float]" = []
        for _ in range(args.repeat):
            before = engine.metrics.registry.snapshot()
            (_, _, candidate), _ = timed(
                serve_concurrently, engine, queries, requests,
                max_batch=args.max_batch,
                concurrency=args.concurrency, capture_latencies=True,
            )
            fold_histogram_deltas(batch_totals, engine, before)
            if not latencies or (
                percentile(candidate, 0.99) < percentile(latencies, 0.99)
            ):
                latencies = candidate

            before = engine.metrics.registry.snapshot()
            streamed_answers, _, candidate_first = serve_streaming(
                engine, queries, requests,
                max_batch=args.max_batch,
                concurrency=args.concurrency,
            )
            fold_histogram_deltas(streaming_totals, engine, before)
            if streamed_answers != sequential_answers:
                failures.append(
                    "streamed answer sets diverge from sequential serving"
                )
                break
            if not first_latencies or (
                percentile(candidate_first, 0.99)
                < percentile(first_latencies, 0.99)
            ):
                first_latencies = candidate_first
        batch_means = histogram_means(batch_totals)
        streaming_means = histogram_means(streaming_totals)

        _, sequential_s = best_of(
            args.repeat, serve_sequentially, engine, queries, requests
        )
        # Telemetry-enabled vs -disabled arms, interleaved within one
        # best-of loop: alternating keeps machine drift from loading one
        # arm only, which a back-to-back pair of best-of batches would.
        served_s = disabled_s = float("inf")
        last_stats = serving_stats
        try:
            for _ in range(args.repeat):
                set_telemetry_enabled(True)
                (_, stats, _), elapsed = timed(
                    serve_concurrently, engine, queries, requests,
                    max_batch=args.max_batch,
                    concurrency=args.concurrency,
                )
                if elapsed < served_s:
                    served_s, last_stats = elapsed, stats
                set_telemetry_enabled(False)
                _, elapsed = timed(
                    serve_concurrently, engine, queries, requests,
                    max_batch=args.max_batch,
                    concurrency=args.concurrency,
                )
                disabled_s = min(disabled_s, elapsed)
        finally:
            set_telemetry_enabled(telemetry_before)
        speedup = sequential_s / served_s if served_s else float("inf")
        overhead = served_s / disabled_s if disabled_s else float("inf")
    finally:
        engine.close()

    latency_summary = {
        "count": len(latencies),
        "mean_s": sum(latencies) / len(latencies) if latencies else 0.0,
        "p50_s": percentile(latencies, 0.50),
        "p95_s": percentile(latencies, 0.95),
        "p99_s": percentile(latencies, 0.99),
        "first_answer_count": len(first_latencies),
        "first_answer_p50_s": percentile(first_latencies, 0.50),
        "first_answer_p95_s": percentile(first_latencies, 0.95),
        "first_answer_p99_s": percentile(first_latencies, 0.99),
    }
    flatness = {
        name: {
            "batch_mean_s": batch_means[name][0],
            "batch_count": batch_means[name][1],
            "streaming_mean_s": streaming_means[name][0],
            "streaming_count": streaming_means[name][1],
            "ratio": (
                streaming_means[name][0] / batch_means[name][0]
                if batch_means[name][0]
                else 1.0
            ),
        }
        for name in GATED_HISTOGRAMS
        if name in batch_means and name in streaming_means
    }

    print(f"{'mode':<34}{'time (s)':>10}{'speedup':>9}")
    print(f"{'sequential per-query serving':<34}{sequential_s:>10.4f}{1.0:>8.2f}x")
    print(f"{'concurrent shared-batch serving':<34}{served_s:>10.4f}{speedup:>8.2f}x")
    print(f"{'  ... telemetry capture disabled':<34}{disabled_s:>10.4f}"
          f"{overhead:>8.3f}x")
    print(
        f"request latency: p50 {latency_summary['p50_s'] * 1000:.2f}ms, "
        f"p95 {latency_summary['p95_s'] * 1000:.2f}ms, "
        f"p99 {latency_summary['p99_s'] * 1000:.2f}ms "
        f"over {latency_summary['count']} requests"
    )
    print(
        f"first answer:    p50 {latency_summary['first_answer_p50_s'] * 1000:.2f}ms, "
        f"p95 {latency_summary['first_answer_p95_s'] * 1000:.2f}ms, "
        f"p99 {latency_summary['first_answer_p99_s'] * 1000:.2f}ms "
        f"over {latency_summary['first_answer_count']} streamed requests"
    )
    for name, arm in flatness.items():
        print(
            f"flatness {name}: streaming mean "
            f"{arm['streaming_mean_s'] * 1000:.3f}ms vs batch "
            f"{arm['batch_mean_s'] * 1000:.3f}ms ({arm['ratio']:.3f}x)"
        )
    print(
        f"admission: {last_stats.batches} batches for {len(requests)} requests "
        f"({last_stats.coalesced} coalesced, widest {last_stats.max_batch_size}; "
        f"{last_stats.size_flushes} size / {last_stats.idle_flushes} idle flushes)"
    )

    # The --check gates, evaluated before the artifact is written so a
    # failed gate is recorded in it (``check_failures``) as well as
    # reported.
    check_failures: list[str] = []
    first_p99 = latency_summary["first_answer_p99_s"]
    baseline_p99 = recorded_p99 or latency_summary["p99_s"]
    baseline_kind = "recorded" if recorded_p99 else "same-run"
    if args.check and not failures:
        if speedup < SPEEDUP_BOUND:
            check_failures.append(
                f"shared-batch serving only {speedup:.2f}x < "
                f"{SPEEDUP_BOUND}x the sequential baseline"
            )
        if overhead > OVERHEAD_BOUND:
            check_failures.append(
                f"telemetry-enabled serving {overhead:.3f}x the "
                f"disabled run (> {OVERHEAD_BOUND}x) — instrumentation is no "
                "longer near-free"
            )
        if not first_p99 or first_p99 >= baseline_p99:
            check_failures.append(
                f"first streamed answer p99 "
                f"{first_p99 * 1000:.2f}ms is not below the {baseline_kind} "
                f"full-resolve p99 baseline {baseline_p99 * 1000:.2f}ms — "
                "streaming is not beating batch completion"
            )
        for name, arm in flatness.items():
            if (name in GATED_HISTOGRAMS and arm["streaming_count"]
                    and arm["ratio"] > FLATNESS_BOUND):
                check_failures.append(
                    f"{name} mean grew {arm['ratio']:.3f}x (> "
                    f"{FLATNESS_BOUND}x) in the streaming arm — the answer "
                    "sink is taxing the evaluation hot loop"
                )

    artifact = {
        "benchmark": "async_serving",
        "workload": {
            "clusters": args.clusters,
            "cluster_nodes": args.cluster_nodes,
            "edges": instance.edge_count(),
            "queries": len(queries),
            "requests": len(requests),
            "seed": args.seed,
            "smoke": args.smoke,
        },
        "backend": engine.shard_engines[0].resolved_backend,
        "policy": {
            "max_batch": args.max_batch,
            "concurrency": args.concurrency,
        },
        "sequential_s": sequential_s,
        "served_s": served_s,
        "speedup": speedup,
        "speedup_bound": SPEEDUP_BOUND,
        "latency": latency_summary,
        "streaming": {
            "flatness_bound": FLATNESS_BOUND,
            "gated_histograms": list(GATED_HISTOGRAMS),
            "histograms": flatness,
            "recorded_resolve_p99_s": recorded_p99,
        },
        "telemetry": {
            "enabled_s": served_s,
            "disabled_s": disabled_s,
            "overhead_ratio": overhead,
            "overhead_bound": OVERHEAD_BOUND,
        },
        "admission": {
            "batches": last_stats.batches,
            "coalesced": last_stats.coalesced,
            "max_batch_size": last_stats.max_batch_size,
            "size_flushes": last_stats.size_flushes,
            "idle_flushes": last_stats.idle_flushes,
        },
        "failures": failures,
        "check_failures": check_failures,
    }
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    print(f"# wrote {args.json}")

    for failure in failures:
        print(f"FATAL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.check:
        for failure in check_failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if check_failures:
            return 1
        print(
            f"CHECK OK: shared-batch serving {speedup:.2f}x >= "
            f"{SPEEDUP_BOUND}x sequential; telemetry overhead "
            f"{overhead:.3f}x <= {OVERHEAD_BOUND}x; first answer p99 "
            f"{first_p99 * 1000:.2f}ms < {baseline_kind} resolve p99 "
            f"{baseline_p99 * 1000:.2f}ms; evaluation means flat"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
