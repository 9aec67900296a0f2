"""Command-line interface: evaluate queries and check constraints from the shell.

The CLI makes the library usable without writing Python, in the spirit of a
small graph-database tool:

* ``python -m repro eval GRAPH SOURCE QUERY`` — evaluate a regular path query
  on a graph stored as an edge list (``source label destination`` per line);
* ``python -m repro check GRAPH SOURCE CONSTRAINT...`` — check which of the
  given path constraints hold at the source;
* ``python -m repro implies CONCLUSION --constraint C ...`` — run the
  implication procedure (Section 4) without any graph at all;
* ``python -m repro rewrite QUERY --constraint C ... [--cached LABEL]`` — ask
  the optimizer for an equivalent cheaper query;
* ``python -m repro distributed GRAPH SOURCE QUERY`` — run the Section 3.1
  protocol and print the message trace;
* ``python -m repro engine GRAPH QUERIES`` — compile the graph once and run a
  whole file of queries through the batch engine (``repro.engine``), from
  chosen sources or from every object; ``--save-snapshot`` / ``--load-snapshot``
  persist and warm-start the compiled graph + query cache across invocations;
  ``--shards N`` serves through the sharded engine instead (the same one
  compiled graph), with ``--snapshot-dir DIR`` persisting one snapshot
  file per shard plus a manifest — the directory is
  warm-started when its manifest exists and (re)written after serving;
* ``python -m repro serve GRAPH`` — the async serving loop
  (``repro.engine.serving``): requests arrive as ``id<TAB>source<TAB>query``
  lines (stdin by default, or a TCP listener with ``--tcp HOST:PORT``; on
  both, ``\n`` ends a line and a ``\r`` before it is dropped) and
  are answered as ``id<TAB>answer answer ...``; an optional fourth field
  selects a delivery mode — ``LIMIT n [CURSOR c]`` answers one sorted page
  behind an opaque resume cursor, ``STREAM`` emits ``id<TAB>+<TAB>answer``
  chunk lines as the engine derives answers before the closing full
  response; in-flight requests that
  compile to the same DFA are coalesced into shared batched evaluations: a
  bucket flushes at ``--max-batch`` requests (duplicate sources included)
  or as soon as an evaluation worker is free, so the lines of one read
  chunk share a bucket and batches widen while every worker is busy.

All commands exit with status 0 on success, 1 on a "negative" outcome (e.g. a
constraint that does not hold, an implication that is refuted), and 2 on bad
input, so the CLI can be scripted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .constraints import (
    ConstraintSet,
    Verdict,
    decide_implication,
    parse_constraint,
    satisfies,
)
from .distributed import format_trace, run_distributed_query
from .exceptions import ReproError
from .graph import Instance, instance_from_edge_list
from .optimize import CostModel, rewrite_query
from .query import evaluate
from .regex import to_string


def _load_instance(path: str) -> Instance:
    text = Path(path).read_text(encoding="utf-8")
    return instance_from_edge_list(text)


def _constraint_set(texts: Sequence[str]) -> ConstraintSet:
    return ConstraintSet([parse_constraint(text) for text in texts])


def _cmd_eval(args: argparse.Namespace) -> int:
    from .query.evaluation import uses_engine_delegation

    instance = _load_instance(args.graph)
    result = evaluate(args.query, args.source, instance)
    for answer in sorted(result.answers, key=str):
        print(answer)
    if args.stats:
        # Large instances are served by the compiled engine, whose visited
        # pairs count DFA-product states rather than the baseline's
        # (object, NFA-state-set) pairs — name the backend so the numbers
        # are not read as comparable across graph sizes.
        backend = "engine" if uses_engine_delegation(instance) else "baseline"
        print(
            f"# visited pairs: {result.visited_pairs}, "
            f"objects: {result.visited_objects} [{backend} backend]",
            file=sys.stderr,
        )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    instance = _load_instance(args.graph)
    all_hold = True
    for text in args.constraints:
        constraint = parse_constraint(text)
        holds = satisfies(instance, args.source, constraint)
        all_hold &= holds
        print(f"{'OK  ' if holds else 'FAIL'} {constraint}")
    return 0 if all_hold else 1


def _cmd_implies(args: argparse.Namespace) -> int:
    constraints = _constraint_set(args.constraint or [])
    result = decide_implication(constraints, args.conclusion)
    print(f"{result.verdict.value} (via {result.method})")
    if result.notes:
        print(f"# {result.notes}", file=sys.stderr)
    if result.verdict is Verdict.IMPLIED:
        return 0
    return 1


def _cmd_rewrite(args: argparse.Namespace) -> int:
    constraints = _constraint_set(args.constraint or [])
    model = CostModel().with_cached(set(args.cached or []))
    outcome = rewrite_query(args.query, constraints, model)
    print(to_string(outcome.best))
    if args.verbose:
        for candidate in outcome.candidates:
            print(f"# {candidate}", file=sys.stderr)
        adopted = outcome.adopted
        print(
            f"# generated={outcome.generated} "
            f"origin={adopted.origin if adopted else '-'} "
            f"premises={'; '.join(map(str, adopted.premises)) if adopted else '-'}",
            file=sys.stderr,
        )
    return 0 if outcome.improved else 1


def _print_stats_snapshot(snapshot: dict) -> None:
    """Render one registry snapshot as ``# name value`` lines on stderr.

    Both ``engine --stats`` and ``serve --stats`` go through here, so the
    two subcommands expose one vocabulary of stable metric names (see README
    "Observability") instead of divergent dataclass dumps.
    """
    from .engine.telemetry import render_text

    for line in render_text(snapshot):
        print(f"# {line}", file=sys.stderr)


def _parse_host_port(text: str, flag: str) -> "tuple[str, int] | None":
    """``HOST:PORT`` → ``(host, port)``, or ``None`` after printing an error."""
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"error: {flag} wants HOST:PORT", file=sys.stderr)
        return None
    return host.strip("[]"), int(port_text)  # bracketed IPv6 literals


def _read_query_file(path: str) -> list[str]:
    queries: list[str] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        text = line.strip()
        if text and not text.startswith("#"):
            queries.append(text)
    return queries


def _open_session(args: argparse.Namespace, instance):
    """The session ``engine``, ``crpq`` and ``serve`` evaluate through.

    ``--shards N`` (or ``engine``'s ``--snapshot-dir`` with a manifest)
    opens a :class:`~repro.engine.sharding.ShardedEngine`; anything else
    opens a monolithic :class:`~repro.engine.Engine`.  Prints the error and
    returns ``None`` on a bad flag combination.
    """
    from .engine import Engine
    from .engine.sharding import MANIFEST_NAME, ShardedEngine

    constraints = _constraint_set(args.constraint) if args.constraint else None
    # Only ``engine`` has the snapshot flags.
    snapshot_dir = getattr(args, "snapshot_dir", None)
    load_snapshot = getattr(args, "load_snapshot", None)
    if args.shards is None and not snapshot_dir:
        if load_snapshot:
            # Warm-start from a persisted compiled graph + query cache; a
            # stamp mismatch against the freshly loaded edge list silently
            # falls back to an ordinary cold compile of that instance.
            return Engine.open(
                load_snapshot, instance=instance, constraints=constraints,
                backend=args.backend,
            )
        return Engine.open(instance, constraints=constraints, backend=args.backend)
    if load_snapshot or getattr(args, "save_snapshot", None):
        print(
            "error: --shards/--snapshot-dir persist one snapshot per shard; "
            "they are incompatible with --save-snapshot/--load-snapshot",
            file=sys.stderr,
        )
        return None
    options = dict(shards=args.shards, constraints=constraints, backend=args.backend)
    if snapshot_dir and (Path(snapshot_dir) / MANIFEST_NAME).is_file():
        # Warm-start shard by shard: only the rows of shards whose part of
        # the freshly loaded edge list went stale are rebuilt.
        return ShardedEngine.open(snapshot_dir, instance=instance, **options)
    if args.shards is None:
        print(
            "error: --snapshot-dir has no manifest yet; give --shards N "
            "to build the sharded engine",
            file=sys.stderr,
        )
        return None
    return ShardedEngine.open(instance, **options)


def _cmd_engine(args: argparse.Namespace) -> int:
    instance = _load_instance(args.graph)
    queries = _read_query_file(args.queries)
    if not queries:
        print("error: the query file contains no queries", file=sys.stderr)
        return 2
    if args.all_sources and args.source:
        print("error: --source and --all-sources are mutually exclusive", file=sys.stderr)
        return 2
    if args.all_sources:
        sources = sorted(instance.objects, key=str)
    elif args.source:
        sources = list(args.source)
    else:
        print("error: give at least one --source or use --all-sources", file=sys.stderr)
        return 2
    engine = _open_session(args, instance)
    if engine is None:
        return 2
    if args.compact_ratio is not None:
        # 0 means "never auto-compact"; anything else is the divisor of
        # the overflow/tombstone threshold (see Engine.auto_compact_ratio).
        engine.auto_compact_ratio = args.compact_ratio or None
    if args.compact:
        engine.compact_now()
    for query in queries:
        answers_by_source = engine.query_batch(query, sources)
        for source in sources:
            answers = sorted(answers_by_source[source], key=str)
            print(f"{query}\t{source}\t{' '.join(map(str, answers))}")
        if args.explain:
            # The evaluation that just returned is the tracer's most
            # recent root trace; print its span tree per query.
            trace = engine.metrics.tracer.last()
            if trace is None:
                print(
                    "# explain: no trace recorded (telemetry disabled?)",
                    file=sys.stderr,
                )
            else:
                for line in trace.render():
                    print(f"# {line}", file=sys.stderr)
    if args.snapshot_dir:
        # Saved after serving, so every shard ships a warm query cache.
        engine.save(args.snapshot_dir)
    elif args.save_snapshot:
        # Saved after serving, so the snapshot ships a warm query cache.
        engine.save(args.save_snapshot)
    if args.stats:
        _print_stats_snapshot(engine.telemetry())
    return 0


def _cmd_crpq(args: argparse.Namespace) -> int:
    from .engine.request import CRPQRequest, normalize

    engine = _open_session(args, _load_instance(args.graph))
    if engine is None:
        return 2
    request = normalize(CRPQRequest(query=args.query, source=args.source))
    result = engine.query_conjunctive(request.query, strategy=args.strategy)
    if args.plan:
        plan = result.plan
        print(
            f"# plan: strategy={plan.strategy} acyclic={plan.acyclic} "
            f"estimated_cost={plan.estimated_cost:.1f}",
            file=sys.stderr,
        )
        for step_index, step in enumerate(plan.describe()):
            print(
                f"# step {step_index}: {step['atom']} "
                f"(prepared: {step['prepared']}, "
                f"~{step['estimated_pairs']:.0f} pairs)",
                file=sys.stderr,
            )
        # How the estimates held up: per executed step, the planner's
        # number scaled to the sources it ran from, beside the actual.
        for step in result.steps:
            print(
                f"# ran: {step.atom} from {step.sources} sources: "
                f"{step.pairs} pairs (estimated {step.estimated_pairs:.1f}, "
                f"q-error {step.q_error:.2f}), {step.rows_out} rows out",
                file=sys.stderr,
            )
    print("# " + ", ".join(result.variables), file=sys.stderr)
    for row in result.rows:
        print(",".join(map(str, row)))
    if args.stats:
        _print_stats_snapshot(engine.telemetry())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import codecs
    from collections import deque

    from .engine.serving import serve_stream, serve_tcp

    engine = _open_session(args, _load_instance(args.graph))
    if engine is None:
        return 2
    metrics_server = None

    def open_server():
        return engine.as_server(
            max_batch=args.max_batch,
            concurrency=args.concurrency,
        )

    def print_stats(server) -> None:
        if args.stats:
            # One unified snapshot: the server registers its gauges into the
            # engine's registry, so serving_* and engine_*/sharded_* metrics
            # come out of the same dump.
            _print_stats_snapshot(server.metrics.snapshot())

    async def run_stdin() -> None:
        # Interactive stdin serving, same semantics as TCP: each request is
        # answered as it completes (correlation by id), concurrent requests
        # coalesce through the admission queue, and a request/response
        # client waiting for its answer never deadlocks.  The blocking
        # stdin read happens off the loop, one chunk per hop: the lines of
        # a chunk are fed in one loop turn and so share their buckets, as
        # the lines of one TCP read do.  As over TCP, "\n" ends a line (a
        # "\r" before it is dropped).  A text-only stdin with no byte
        # buffer (an embedder's StringIO) is read a line per hop instead.
        loop = asyncio.get_running_loop()
        stdin = getattr(sys.stdin, "buffer", None)
        decoder = codecs.getincrementaldecoder("utf-8")(errors="replace")
        lines: "deque[str]" = deque()
        partial = ""

        async def readline() -> str:
            nonlocal partial
            if stdin is None:
                return await loop.run_in_executor(None, sys.stdin.readline)
            while not lines:
                chunk = await loop.run_in_executor(None, stdin.read1, 1 << 16)
                text = partial + decoder.decode(chunk, final=not chunk)
                if not chunk:  # end of input: the unterminated last line
                    partial = ""
                    return text
                *complete, partial = text.split("\n")
                lines.extend(line + "\n" for line in complete)
            return lines.popleft()

        async with open_server() as server:
            await serve_stream(
                server, readline, lambda response: print(response, flush=True)
            )
            print_stats(server)

    async def run_tcp(host: str, port: int) -> None:
        async with open_server() as server:
            listener = await serve_tcp(server, host, port)
            bound = listener.sockets[0].getsockname()
            # repro: allow(LoopNeverBlocks) one-line startup banner before any request is served; stderr is line-buffered and the loop is otherwise idle
            print(f"serving on {bound[0]}:{bound[1]}", file=sys.stderr, flush=True)
            try:
                async with listener:
                    await listener.serve_forever()
            finally:
                print_stats(server)

    try:
        if args.metrics:
            parsed = _parse_host_port(args.metrics, "--metrics")
            if parsed is None:
                return 2
            from .engine.telemetry import TelemetryHTTPServer

            try:
                metrics_server = TelemetryHTTPServer(engine.metrics, *parsed)
            except OSError as error:
                print(
                    f"error: cannot serve metrics on {args.metrics}: {error}",
                    file=sys.stderr,
                )
                return 2
            bound_host, bound_port = metrics_server.start()
            print(f"metrics on {bound_host}:{bound_port}", file=sys.stderr, flush=True)
        if args.tcp:
            parsed = _parse_host_port(args.tcp, "--tcp")
            if parsed is None:
                return 2
            try:
                asyncio.run(run_tcp(*parsed))
            except KeyboardInterrupt:
                pass
            except OSError as error:
                print(
                    f"error: cannot listen on {args.tcp}: {error}",
                    file=sys.stderr,
                )
                return 2
        else:
            asyncio.run(run_stdin())
    finally:
        if metrics_server is not None:
            metrics_server.close()
    return 0


def _cmd_distributed(args: argparse.Namespace) -> int:
    instance = _load_instance(args.graph)
    result = run_distributed_query(
        args.query,
        args.source,
        instance,
        asker=args.asker,
        max_messages=args.max_messages,
    )
    if args.trace:
        print(format_trace(result.trace))
    print(f"answers: {sorted(map(str, result.answers))}")
    print(f"messages: {result.message_counts()} (total {result.messages_delivered})")
    print(f"terminated: {result.terminated}")
    return 0


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`_open_session` reads, shared by ``engine``, ``crpq``
    and ``serve``."""
    parser.add_argument(
        "--constraint", "-c", action="append",
        help="a path constraint enabling pre-rewrite optimization (repeatable)",
    )
    parser.add_argument(
        "--backend", choices=("auto", "packed", "numpy"), default="auto",
        help="batch kernel: auto picks numpy when available, else the "
        "packed-bitset one (default: auto)",
    )
    parser.add_argument(
        "--shards", type=int, metavar="N",
        help="evaluate through the sharded engine with N hash shards (one "
        "snapshot file per shard)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regular path queries with constraints (Abiteboul & Vianu, PODS 1997)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    eval_parser = subparsers.add_parser("eval", help="evaluate a path query on a graph")
    eval_parser.add_argument("graph", help="edge-list file: 'source label destination' per line")
    eval_parser.add_argument("source", help="source object identifier")
    eval_parser.add_argument("query", help="regular path expression, e.g. 'a (b + c)*'")
    eval_parser.add_argument("--stats", action="store_true", help="print evaluation statistics")
    eval_parser.set_defaults(handler=_cmd_eval)

    check_parser = subparsers.add_parser("check", help="check path constraints at a source")
    check_parser.add_argument("graph")
    check_parser.add_argument("source")
    check_parser.add_argument("constraints", nargs="+", help="constraints like 'a b <= c' or 'p = q'")
    check_parser.set_defaults(handler=_cmd_check)

    implies_parser = subparsers.add_parser("implies", help="decide constraint implication")
    implies_parser.add_argument("conclusion", help="the constraint to test, e.g. 'l* = l + %%'")
    implies_parser.add_argument(
        "--constraint", "-c", action="append", help="a premise constraint (repeatable)"
    )
    implies_parser.set_defaults(handler=_cmd_implies)

    rewrite_parser = subparsers.add_parser("rewrite", help="optimize a query under constraints")
    rewrite_parser.add_argument("query")
    rewrite_parser.add_argument(
        "--constraint", "-c", action="append", help="a premise constraint (repeatable)"
    )
    rewrite_parser.add_argument(
        "--cached", action="append", help="label of a cached link (cheap to follow)"
    )
    rewrite_parser.add_argument("--verbose", "-v", action="store_true")
    rewrite_parser.set_defaults(handler=_cmd_rewrite)

    engine_parser = subparsers.add_parser(
        "engine", help="batch-evaluate a file of queries on the compiled engine"
    )
    engine_parser.add_argument("graph", help="edge-list file: 'source label destination' per line")
    engine_parser.add_argument(
        "queries", help="query file: one regular path expression per line ('#' comments)"
    )
    engine_parser.add_argument(
        "--source", "-s", action="append", help="a source object (repeatable; batched)"
    )
    engine_parser.add_argument(
        "--all-sources", action="store_true", help="evaluate from every object of the graph"
    )
    engine_parser.add_argument(
        "--compact", action="store_true",
        help="compact the compiled graph before serving (fold overflow in, "
        "tombstones out, sort per-label target runs)",
    )
    engine_parser.add_argument(
        "--compact-ratio", type=int, metavar="N",
        help="auto-compact when overflow/tombstones exceed edges/N "
        "(default 4; 0 disables auto-compaction)",
    )
    engine_parser.add_argument(
        "--save-snapshot", metavar="PATH",
        help="after serving, persist the compiled graph + warm query cache to PATH",
    )
    engine_parser.add_argument(
        "--load-snapshot", metavar="PATH",
        help="warm-start from a snapshot written by --save-snapshot; falls back "
        "to a fresh compile when the snapshot does not match the graph file",
    )
    engine_parser.add_argument(
        "--snapshot-dir", metavar="DIR",
        help="sharded persistence: warm-start from DIR when its manifest "
        "exists (stale shards are rebuilt alone), and write one snapshot per "
        "shard back to DIR after serving",
    )
    _add_session_flags(engine_parser)
    engine_parser.add_argument(
        "--stats", action="store_true",
        help="print the engine's metrics-registry snapshot to stderr "
        "(stable 'name value' lines; see README Observability)",
    )
    engine_parser.add_argument(
        "--explain", action="store_true",
        help="print each query's span tree (compile, runs) to stderr",
    )
    engine_parser.set_defaults(handler=_cmd_engine)

    crpq_parser = subparsers.add_parser(
        "crpq",
        help="evaluate a conjunctive path query (MATCH … RETURN …) as a join plan",
    )
    crpq_parser.add_argument(
        "graph", help="edge-list file: 'source label destination' per line"
    )
    crpq_parser.add_argument(
        "query",
        help="conjunctive query, e.g. \"MATCH x -[a]-> y, y -[b*]-> z RETURN x, z\"",
    )
    crpq_parser.add_argument(
        "--source", "-s",
        help="bind the first MATCH variable to this object (same slot the "
        "wire protocol's source column fills)",
    )
    _add_session_flags(crpq_parser)
    crpq_parser.add_argument(
        "--strategy", choices=("optimized", "declared", "worst"),
        default="optimized",
        help="join order: cost-model greedy (default), declared atom order, "
        "or the cost model's worst order (for comparison)",
    )
    crpq_parser.add_argument(
        "--plan", "--explain", action="store_true",
        help="print the chosen join order with cardinality estimates, and per "
        "executed step the estimate beside the actual pairs (q-error), to stderr",
    )
    crpq_parser.add_argument(
        "--stats", action="store_true",
        help="print the engine's metrics-registry snapshot to stderr",
    )
    crpq_parser.set_defaults(handler=_cmd_crpq)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve line-protocol queries (scalar and MATCH conjunctive) "
        "through the async admission queue",
    )
    serve_parser.add_argument(
        "graph", help="edge-list file: 'source label destination' per line"
    )
    serve_parser.add_argument(
        "--tcp", metavar="HOST:PORT",
        help="listen on TCP instead of answering stdin requests (PORT 0 "
        "binds an ephemeral port; the bound address is printed to stderr)",
    )
    _add_session_flags(serve_parser)
    serve_parser.add_argument(
        "--concurrency", type=int, metavar="N",
        help="worker threads for batch flushes",
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="flush an admission bucket once it holds N requests — "
        "duplicate sources count (default: 64)",
    )
    serve_parser.add_argument(
        "--stats", action="store_true",
        help="print the unified serving+engine metrics snapshot to stderr",
    )
    serve_parser.add_argument(
        "--metrics", metavar="HOST:PORT",
        help="serve live telemetry over HTTP: /metrics (Prometheus text "
        "format) and /healthz (PORT 0 binds an ephemeral port; the bound "
        "address is printed to stderr)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    distributed_parser = subparsers.add_parser(
        "distributed", help="run the distributed evaluation protocol"
    )
    distributed_parser.add_argument("graph")
    distributed_parser.add_argument("source")
    distributed_parser.add_argument("query")
    distributed_parser.add_argument("--asker", default="client")
    distributed_parser.add_argument("--max-messages", type=int, default=100_000)
    distributed_parser.add_argument("--trace", action="store_true", help="print the message trace")
    distributed_parser.set_defaults(handler=_cmd_distributed)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
