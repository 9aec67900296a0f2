"""The wire protocol's golden corpus: request lines and their exact responses.

``wire_corpus.jsonl`` holds one case per line — the graph it runs on, a
request line, the response it gets byte for byte (``null`` for a line the
read loop skips) and, for ``STREAM`` lines, the sorted chunk lines.  Each
line runs alone through :func:`serve_stream`, in file order, on one server
per graph, so cursor walks can pin their tokens.  After every line the
server's books must balance: ``submitted == served + failed``.

A case whose response changed on purpose keeps the old one as ``was`` and
says ``why``; only three such changes exist: the V2 ``sources`` field is
gone, a V2 ``source`` must be a JSON string, and a v1 ``LIMIT`` is checked
(and its error worded) by ``QueryRequest``.
"""

import asyncio
import itertools
import json
from pathlib import Path

from repro.constraints import ConstraintSet, parse_constraint
from repro.engine import Engine, serve_stream
from repro.graph import Instance, web_like_graph

CORPUS = Path(__file__).with_name("wire_corpus.jsonl")

EDGES = {
    "uv": [("u", "a", "v")],
    "uvw": [("u", "a", "v"), ("v", "b", "w")],
    "uaw": [("u", "a", "v"), ("v", "a", "w")],
    "fork": [("u", "a", "v"), ("u", "a", "w")],
    "crpq": [("u", "a", "v"), ("u", "a", "w"), ("v", "b", "t")],
    "crpq-pages": [("u", "a", "v"), ("u", "a", "w"), ("s", "a", "t")],
    "seven": [("7", "a", "v")],
}


def open_engine(graph: str) -> Engine:
    if graph in EDGES:
        return Engine.open(Instance(EDGES[graph]))
    if graph in ("web20", "web25", "web30", "web40"):
        return Engine.open(web_like_graph(int(graph[3:]), ["a", "b", "c"], seed=7)[0])
    if graph == "web-served":  # web-served-point's labels and expressions
        return Engine.open(web_like_graph(40, ["a", "b", "c", "d"], seed=7)[0])
    assert graph == "constrained", graph
    return Engine.open(
        web_like_graph(20, ["a", "b", "c"], seed=7)[0],
        constraints=ConstraintSet([parse_constraint("a b = c")]),
    )


def load_cases() -> list:
    with CORPUS.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


async def serve_one(server, line: str) -> "tuple[str | None, list[str]]":
    """One line through the read loop: its response and sorted chunks."""
    fed = [line + "\n"]
    emitted: "list[str]" = []

    async def readline() -> str:
        return fed.pop() if fed else ""

    await serve_stream(server, readline, emitted.append)
    chunks = sorted(r for r in emitted if r.split("\t")[1:2] == ["+"])
    finals = [r for r in emitted if r.split("\t")[1:2] != ["+"]]
    assert len(finals) <= 1, emitted
    return (finals[0] if finals else None), chunks


def test_every_line_answers_as_pinned():
    cases = load_cases()

    async def scenario():
        mismatches = []
        for graph, group in itertools.groupby(cases, key=lambda case: case["graph"]):
            async with open_engine(graph).as_server(max_delay=0.001) as server:
                for case in group:
                    response, chunks = await serve_one(server, case["line"])
                    if (response, chunks) != (case["response"], case.get("chunks", [])):
                        mismatches.append((case["line"], response, chunks))
                    stats = server.stats
                    assert stats.submitted == stats.served + stats.failed, case
        return mismatches

    assert asyncio.run(scenario()) == []


def test_the_corpus_covers_what_it_claims():
    cases = load_cases()
    lines = [case["line"] for case in cases]
    served = [line for case, line in zip(cases, lines) if case["graph"] == "web-served"]
    assert any(line.startswith("V2\t") for line in served)
    assert any(line.endswith("\tSTREAM") for line in served)
    assert any(line.count("\t") == 2 for line in served)
    assert any("MATCH" in line and line.startswith("V2\t") for line in lines)
    assert any("MATCH" in line and not line.startswith("V2\t") for line in lines)
    assert {case["why"] for case in cases if "was" in case} == {
        "the V2 'sources' field is gone: a scalar request has exactly one source",
        "a V2 source must be a JSON string, as a v1 source always is",
        "a v1 LIMIT is checked by QueryRequest, which words the error",
    }
