"""Sharded vs monolithic batched serving, plus per-shard warm start.

Two questions the sharding layer (``repro.engine.sharding``) must answer:

* **overhead bound** — a sharded evaluation runs over a view of the shard
  graphs (ghost targets renumbered to their owners, the lowering stitched
  from the shards'); on a warm cache, batched throughput through
  ``ShardedEngine`` must stay within 1.5x of the monolithic ``Engine`` on a
  partition-friendly workload (loosely coupled web-like clusters with the
  shard map aligned to the clusters — the deployment sharding is *for*);
* **independent persistence** — ``save``/``open`` of a snapshot directory
  must warm-start every shard whose partition is unchanged, and recompile
  *only* the shard whose data went stale.

Answers of the sharded engine are checked against the monolithic engine
before any timing is trusted, and the run always writes a machine-readable
artifact (``BENCH_sharded.json``; smoke runs default to
``BENCH_sharded_smoke.json`` so they never clobber the committed numbers).
Usage::

    PYTHONPATH=src python benchmarks/bench_sharded.py           # full run
    PYTHONPATH=src python benchmarks/bench_sharded.py --smoke   # CI-sized
    PYTHONPATH=src python benchmarks/bench_sharded.py --check   # gate:
        sharded warm batched serving <= 1.5x monolithic time, all-warm
        reopen, single-stale-shard recompile
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time

from repro.engine import Engine, ShardedEngine
from repro.engine.sharding import ExplicitShardMap
from repro.graph import Instance, web_like_graph
from repro.workloads import random_path_query, star_chain_query

OVERHEAD_BOUND = 1.5


def build_workload(cluster_nodes: int, clusters: int, query_count: int, seed: int):
    """K loosely-coupled web-like clusters bridged through gateway nodes.

    The shard map assigns each cluster to its own shard, so cross-shard
    frontier traffic is exactly the bridge traffic — the regime sharding
    targets (site locality), not an adversarial random cut.  Bridge edges
    land on dedicated *gateway* objects owned by the neighbouring shard, so
    answers cross shards for real while the reach through a second cluster
    stays bounded, and the gate below measures the sharding layer's
    overhead rather than a bigger traversal.
    """
    labels = ["l0", "l1", "l2"]
    rng = random.Random(seed)
    instance = Instance()
    assignment: dict = {}
    for cluster in range(clusters):
        part, _ = web_like_graph(cluster_nodes, labels, seed=seed + cluster)
        mapped = part.map_objects(lambda oid, cluster=cluster: f"c{cluster}:{oid}")
        for oid in mapped.objects:
            instance.add_object(oid)
            assignment[oid] = cluster
        for edge in mapped.edges():
            instance.add_edge(*edge)
    bridges = max(2, cluster_nodes // 100)
    for cluster in range(clusters):
        neighbour = (cluster + 1) % clusters
        for index in range(bridges):
            gateway = f"c{neighbour}:gw{index}"
            instance.add_object(gateway)
            assignment[gateway] = neighbour
            source = f"c{cluster}:p{rng.randrange(cluster_nodes)}"
            instance.add_edge(source, rng.choice(labels), gateway)
    shard_map = ExplicitShardMap(assignment, num_shards=clusters)
    queries = [
        random_path_query(seed + i, alphabet_size=3, depth=4)
        for i in range(query_count)
    ]
    queries.append(star_chain_query(2, alphabet_size=3))
    objects = sorted(instance.objects, key=repr)
    step = max(1, len(objects) // 32)
    sources = objects[::step][:32]
    return instance, shard_map, queries, sources


def serve(engine, queries, sources):
    return {str(query): engine.query_batch(query, sources) for query in queries}


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cluster-nodes", type=int, default=1000,
                        help="nodes per cluster (= per shard)")
    parser.add_argument("--clusters", type=int, default=4,
                        help="cluster/shard count")
    parser.add_argument("--queries", type=int, default=8, help="distinct queries")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions (best-of)")
    parser.add_argument(
        "--json", default=None,
        help="results artifact path (default: BENCH_sharded.json, or "
        "BENCH_sharded_smoke.json under --smoke)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for CI: verifies the harness, not the numbers",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit 1 unless sharded warm serving is within {OVERHEAD_BOUND}x "
        "of monolithic and the per-shard warm-start behaviour holds",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.cluster_nodes, args.clusters, args.queries, args.repeat = 60, 3, 3, 1
    if args.json is None:
        args.json = "BENCH_sharded_smoke.json" if args.smoke else "BENCH_sharded.json"

    instance, shard_map, queries, sources = build_workload(
        args.cluster_nodes, args.clusters, args.queries, args.seed
    )
    print(
        f"workload: {args.clusters} clusters x {args.cluster_nodes} nodes "
        f"({instance.edge_count()} edges), {len(queries)} queries, "
        f"{len(sources)} batched sources"
    )

    failures: list[str] = []

    mono = Engine.open(instance)
    sharded = ShardedEngine.open(instance, shard_map=shard_map)
    reference = serve(mono, queries, sources)  # also warms mono's cache
    if serve(sharded, queries, sources) != reference:  # also warms every shard
        failures.append("sharded answers diverge from the monolithic engine")

    _, mono_s = best_of(args.repeat, serve, mono, queries, sources)
    _, sharded_s = best_of(args.repeat, serve, sharded, queries, sources)
    ratio = sharded_s / mono_s if mono_s else float("inf")

    # Per-shard persistence: all-warm reopen, then a single stale shard.
    with tempfile.TemporaryDirectory() as workdir:
        snapshot_dir = os.path.join(workdir, "shards")
        _, save_s = timed(lambda: sharded.save(snapshot_dir))
        snapshot_bytes = sum(
            os.path.getsize(os.path.join(snapshot_dir, name))
            for name in os.listdir(snapshot_dir)
        )
        warm, open_warm_s = timed(
            lambda: ShardedEngine.open(snapshot_dir, instance=instance,
                                       shard_map=shard_map)
        )
        if warm.warm_shards != args.clusters or warm.rebuilt_shards != 0:
            failures.append(
                f"warm reopen was not warm ({warm.warm_shards} warm, "
                f"{warm.rebuilt_shards} rebuilt of {args.clusters})"
            )
        if serve(warm, queries, sources) != reference:
            failures.append("warm-reopened answers diverge from the cold engine")

        # Stale exactly one shard: drop one intra-cluster edge of cluster 0.
        victim = next(
            oid for oid in sorted(instance.objects, key=repr)
            if shard_map.shard_of(oid) == 0 and instance.out_degree(oid)
        )
        label, destination = instance.out_edges(victim)[0]
        instance.remove_edge(victim, label, destination)
        stale, open_stale_s = timed(
            lambda: ShardedEngine.open(snapshot_dir, instance=instance,
                                       shard_map=shard_map)
        )
        if stale.warm_shards != args.clusters - 1 or stale.rebuilt_shards != 1:
            failures.append(
                f"stale reopen should recompile exactly one shard, got "
                f"{stale.rebuilt_shards} rebuilt / {stale.warm_shards} warm"
            )
        mono_stale = Engine.open(instance)
        if serve(stale, queries, sources) != serve(mono_stale, queries, sources):
            failures.append("stale-reopened answers diverge from a fresh engine")
        instance.add_edge(victim, label, destination)  # restore the workload

    print(f"{'mode':<30}{'time (s)':>10}{'ratio':>8}")
    print(f"{'monolithic warm batch':<30}{mono_s:>10.4f}{1.0:>7.2f}x")
    print(f"{'sharded warm batch':<30}{sharded_s:>10.4f}{ratio:>7.2f}x")
    print(
        f"snapshot dir: {snapshot_bytes}B, save {save_s:.4f}s, "
        f"warm open {open_warm_s:.4f}s, stale open {open_stale_s:.4f}s"
    )
    print(f"sharded stats: {sharded.describe()}")

    artifact = {
        "benchmark": "sharded_scatter_gather",
        "workload": {
            "clusters": args.clusters,
            "cluster_nodes": args.cluster_nodes,
            "edges": instance.edge_count(),
            "queries": len(queries),
            "sources": len(sources),
            "seed": args.seed,
            "smoke": args.smoke,
        },
        "backend": sharded.shard_engines[0].resolved_backend,
        "monolithic_s": mono_s,
        "sharded_s": sharded_s,
        "overhead_ratio": ratio,
        "overhead_bound": OVERHEAD_BOUND,
        "runs": sum(sharded.stats.backend_runs.values()),
        "snapshot_bytes": snapshot_bytes,
        "save_s": save_s,
        "open_warm_s": open_warm_s,
        "open_stale_s": open_stale_s,
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
        if ratio > OVERHEAD_BOUND:
            print(
                f"CHECK FAILED: sharded serving {ratio:.2f}x > "
                f"{OVERHEAD_BOUND}x monolithic",
                file=sys.stderr,
            )
            return 1
        print(f"CHECK OK: sharded serving {ratio:.2f}x <= {OVERHEAD_BOUND}x "
              f"monolithic; per-shard warm start verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
