"""CRPQ join planning: cost-model order vs the worst order, plus parity.

Two things the conjunctive layer (``repro.engine.conjunctive``) must show:

* **the planner earns its keep** — on a clustered workload with one highly
  selective atom (a rare bridge label) and one expensive atom (a closure
  over the common labels), running the selective atom first lets the
  closure evaluate from a handful of bound sources instead of the whole
  domain.  The gate requires the cost-model order to beat the cost model's
  *worst* order by at least ``SPEEDUP_BOUND``x wall-clock;
* **parity everywhere** — served rows (``QueryServer.submit_conjunctive``,
  atoms fanned through the admission queue) must equal direct
  ``engine.query_conjunctive`` rows, and both must equal the naive
  nested-loop reference on a capped sub-workload.

The run always writes a machine-readable artifact (``BENCH_crpq.json``;
smoke runs default to ``BENCH_crpq_smoke.json`` so they never clobber the
committed numbers; the pure-python arm writes ``BENCH_crpq_nonumpy.json``).
Usage::

    PYTHONPATH=src python benchmarks/bench_crpq.py           # full run
    PYTHONPATH=src python benchmarks/bench_crpq.py --smoke   # CI-sized
    PYTHONPATH=src python benchmarks/bench_crpq.py --check   # gate:
        planned order >= 2x faster than the worst order, served == direct
        == nested-loop
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time

from repro.engine import Engine, nested_loop_rows, numpy_available, parse_crpq
from repro.graph import Instance, web_like_graph

SPEEDUP_BOUND = 2.0

#: One selective atom (``rare`` labels a handful of bridge edges) feeding an
#: expensive closure atom.  Declared with the expensive atom FIRST so the
#: "declared" strategy is also a bad plan — only the cost model finds the
#: selective seed.
CRPQ = "MATCH y -[(l0 + l1)*]-> z, x -[rare]-> y RETURN x, z"


def build_workload(cluster_nodes: int, clusters: int, rare_edges: int, seed: int):
    """K web-like clusters plus ``rare_edges`` bridge edges labeled ``rare``.

    The rare label is the selective atom: a few edges in a graph of
    thousands.  The common labels (``l0``/``l1``) drive the closure atom,
    whose from-the-whole-domain evaluation is exactly what a bad join
    order pays for.
    """
    labels = ["l0", "l1", "l2"]
    rng = random.Random(seed)
    instance = Instance()
    for cluster in range(clusters):
        part, _ = web_like_graph(cluster_nodes, labels, seed=seed + cluster)
        mapped = part.map_objects(lambda oid, cluster=cluster: f"c{cluster}:{oid}")
        for oid in mapped.objects:
            instance.add_object(oid)
        for edge in mapped.edges():
            instance.add_edge(*edge)
    objects = sorted(instance.objects, key=repr)
    for index in range(rare_edges):
        source = objects[rng.randrange(len(objects))]
        target = objects[rng.randrange(len(objects))]
        instance.add_edge(source, "rare", target)
    return instance


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def best_of(repeat: int, fn, *args):
    best = float("inf")
    result = None
    for _ in range(repeat):
        result, elapsed = timed(fn, *args)
        best = min(best, elapsed)
    return result, best


def serve_conjunctive(engine, query):
    async def scenario():
        async with engine.as_server(max_batch=64) as server:
            result = await server.submit_conjunctive(query)
            return result, server.stats

    return asyncio.run(scenario())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cluster-nodes", type=int, default=250,
                        help="nodes per cluster")
    parser.add_argument("--clusters", type=int, default=3, help="cluster count")
    parser.add_argument("--rare-edges", type=int, default=4,
                        help="edges carrying the selective 'rare' label")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions (best-of)")
    parser.add_argument(
        "--json", default=None,
        help="results artifact path (default: BENCH_crpq.json, or "
        "BENCH_crpq_smoke.json under --smoke)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for CI: verifies the harness, not the numbers",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit 1 unless the planned order is >= {SPEEDUP_BOUND}x faster "
        "than the worst order and every evaluation path agrees",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.cluster_nodes, args.clusters, args.repeat = 40, 2, 1
    if args.json is None:
        args.json = "BENCH_crpq_smoke.json" if args.smoke else "BENCH_crpq.json"

    instance = build_workload(
        args.cluster_nodes, args.clusters, args.rare_edges, args.seed
    )
    print(
        f"workload: {args.clusters} clusters x {args.cluster_nodes} nodes "
        f"({instance.edge_count()} edges, {args.rare_edges} rare), query: {CRPQ}"
    )

    failures: list[str] = []
    engine = Engine.open(instance)

    # Parity before any timing is trusted.  The nested-loop reference is
    # exponential, so it cross-checks a CAPPED sub-workload, not the full
    # graph; direct-vs-served parity runs at full size.
    small = build_workload(
        min(args.cluster_nodes, 30), min(args.clusters, 2), 3, args.seed
    )
    small_engine = Engine.open(small)
    reference = nested_loop_rows(parse_crpq(CRPQ), small)
    for strategy in ("optimized", "declared", "worst"):
        rows = small_engine.query_conjunctive(CRPQ, strategy=strategy).rows
        if rows != reference:
            failures.append(
                f"{strategy} rows diverge from the nested-loop reference"
            )

    direct = engine.query_conjunctive(CRPQ)  # also warms the DFA cache
    served, serving_stats = serve_conjunctive(engine, CRPQ)
    if served.rows != direct.rows:
        failures.append("served rows diverge from direct query_conjunctive")

    timings: dict[str, float] = {}
    plans: dict[str, list] = {}
    for strategy in ("optimized", "declared", "worst"):
        result, elapsed = best_of(
            args.repeat,
            lambda strategy=strategy: engine.query_conjunctive(
                CRPQ, strategy=strategy
            ),
        )
        if result.rows != direct.rows:
            failures.append(f"{strategy} timing run returned different rows")
        timings[strategy] = elapsed
        plans[strategy] = [step["atom"] for step in result.plan.describe()]
    speedup = (
        timings["worst"] / timings["optimized"]
        if timings["optimized"]
        else float("inf")
    )

    print(f"{'strategy':<12}{'time (s)':>10}{'vs optimized':>14}")
    for strategy, elapsed in timings.items():
        ratio = elapsed / timings["optimized"] if timings["optimized"] else 0.0
        print(f"{strategy:<12}{elapsed:>10.4f}{ratio:>13.2f}x")
    print(f"rows: {len(direct.rows)}; planned order: {plans['optimized']}")
    print(f"serving: {vars(serving_stats)}")

    artifact = {
        "benchmark": "crpq_join_planning",
        "workload": {
            "clusters": args.clusters,
            "cluster_nodes": args.cluster_nodes,
            "edges": instance.edge_count(),
            "rare_edges": args.rare_edges,
            "query": CRPQ,
            "seed": args.seed,
            "smoke": args.smoke,
        },
        "backend": engine.resolved_backend,
        "numpy": numpy_available(),
        "optimized_s": timings["optimized"],
        "declared_s": timings["declared"],
        "worst_s": timings["worst"],
        "speedup_worst_over_optimized": speedup,
        "speedup_bound": SPEEDUP_BOUND,
        "rows": len(direct.rows),
        "plan_optimized": plans["optimized"],
        "plan_worst": plans["worst"],
        "join_steps": [
            {
                "atom": step.atom,
                "sources": step.sources,
                "pairs": step.pairs,
                "rows_out": step.rows_out,
            }
            for step in direct.steps
        ],
        "crpq_served": serving_stats.crpq_served,
        "failures": failures,
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
        if speedup < SPEEDUP_BOUND:
            print(
                f"CHECK FAILED: planned order only {speedup:.2f}x faster than "
                f"the worst order (need >= {SPEEDUP_BOUND}x)",
                file=sys.stderr,
            )
            return 1
        print(
            f"CHECK OK: planned order {speedup:.2f}x faster than the worst "
            f"order (bound {SPEEDUP_BOUND}x); served == direct == nested-loop"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
