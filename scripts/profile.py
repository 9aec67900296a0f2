"""cProfile harness for the engine's hot kernels.

Profiles the warm batched evaluation path — the loop the throughput
benchmark gates — once per requested backend, over the same mid-size
random-graph workload flavor ``bench_engine_throughput.py`` times, and
writes the top-N frames (by cumulative and by self time) to a gitignored
report so kernel work starts from measurements instead of guesses::

    PYTHONPATH=src python scripts/profile.py                # all backends
    PYTHONPATH=src python scripts/profile.py --backend packed
    PYTHONPATH=src python scripts/profile.py --quick        # check.sh step

The report lands in ``PROFILE_report.txt`` (override with ``--out``); the
console gets each backend's total time plus its top self-time frames, and
both get the kernels' own work counts per query (``BatchRun.rounds`` /
``edges_gathered`` / ``peak_frontier_rows``) beside the timings.
Stdlib only — ``cProfile``/``pstats`` ship with CPython.
"""

from __future__ import annotations

import sys
from pathlib import Path

# This file is named like the stdlib ``profile`` module cProfile imports;
# drop the script directory from the import path so cProfile finds the
# real one (running ``python scripts/profile.py`` puts scripts/ first).
_HERE = str(Path(__file__).resolve().parent)
sys.path = [entry for entry in sys.path if entry not in ("", _HERE)]
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import argparse  # noqa: E402
import cProfile  # noqa: E402
import io  # noqa: E402
import pstats  # noqa: E402
import random  # noqa: E402

from repro.engine.executor import available_backends, run_batch  # noqa: E402
from repro.engine.session import Engine  # noqa: E402
from repro.graph.instance import Instance  # noqa: E402

del _HERE

QUERIES = ("a*.b", "a.(b|c)*", "(a|b)*.c", "a*.b*.c")


def build_instance(nodes: int, edges: int, seed: int) -> Instance:
    rng = random.Random(seed)
    instance = Instance()
    for index in range(nodes):
        instance.add_object(f"n{index}")
    labels = ("a", "b", "c")
    for _ in range(edges):
        instance.add_edge(
            f"n{rng.randrange(nodes)}",
            rng.choice(labels),
            f"n{rng.randrange(nodes)}",
        )
    return instance


def profile_backend(
    backend: str,
    instance: Instance,
    sources: "list[str]",
    repeats: int,
    top: int,
) -> "tuple[pstats.Stats, float, list[str]]":
    """One warm profile: compile caches hot, only the kernel in the loop.

    Returns the stats, the profiled seconds and the kernel-work lines."""
    engine = Engine.open(instance, backend=backend)
    for query in QUERIES:  # warm the compile + successor caches
        engine.query_batch(query, sources)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(repeats):
        for query in QUERIES:
            engine.query_batch(query, sources)
    profiler.disable()
    stats = pstats.Stats(profiler)
    total = stats.total_tt
    stats.sort_stats("tottime")
    return stats, total, kernel_work(engine, sources)


def kernel_work(engine: Engine, sources: "list[str]") -> "list[str]":
    """Per query, the kernel's own work counts for one (unprofiled) batch —
    what the time in the cProfile table was spent *on*."""
    graph, backend = engine.graph, engine.backend
    node_ids = [graph.node_id(source) for source in sources]
    lines = []
    for query in QUERIES:
        run = run_batch(graph, engine.compiled(query), node_ids, backend=backend)
        counts = " ".join(f"{name}={value}" for name, value in run.work_counts().items())
        lines.append(f"  {query:<10} visited_pairs={run.visited_pairs} {counts}")
    return lines


def render_report(
    backend: str, stats: pstats.Stats, total: float, top: int, work: "list[str]"
) -> str:
    buffer = io.StringIO()
    stats.stream = buffer
    print(f"== backend: {backend} ({total:.4f}s profiled) ==", file=buffer)
    print("kernel work per batch:", *work, sep="\n", file=buffer)
    stats.sort_stats("tottime").print_stats(top)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend",
        action="append",
        help="backend(s) to profile (default: every available one)",
    )
    parser.add_argument("--nodes", type=int, default=400)
    parser.add_argument("--edges", type=int, default=1600)
    parser.add_argument("--sources", type=int, default=128)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--top", type=int, default=25, metavar="N")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--out", default="PROFILE_report.txt", help="report path (gitignored)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, few repeats: the check.sh harness-health step",
    )
    args = parser.parse_args()
    if args.quick:
        args.nodes, args.edges, args.sources, args.repeats = 120, 480, 48, 3

    backends = tuple(args.backend) if args.backend else available_backends()
    instance = build_instance(args.nodes, args.edges, args.seed)
    sources = [f"n{index}" for index in range(min(args.sources, args.nodes))]

    sections: "list[str]" = []
    for backend in backends:
        stats, total, work = profile_backend(
            backend, instance, sources, args.repeats, args.top
        )
        sections.append(render_report(backend, stats, total, args.top, work))
        # Console summary: the three hottest self-time frames.
        rows = sorted(
            stats.stats.items(), key=lambda item: item[1][2], reverse=True
        )[:3]
        frames = ", ".join(
            f"{Path(func[0]).name}:{func[1]}:{func[2]} {stat[2]:.3f}s"
            for func, stat in rows
        )
        print(f"{backend}: {total:.4f}s profiled; hottest: {frames}")
        print(*work, sep="\n")

    report = Path(args.out)
    report.write_text("\n".join(sections), encoding="utf-8")
    print(f"wrote {report} ({len(backends)} backend section(s), top {args.top})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
