"""End-to-end observability smoke: `serve --tcp --metrics` for real.

Spawns the CLI serving process on ephemeral TCP and metrics ports, then
exercises every live export surface the way an operator would:

* answers a query over the line protocol (the serving path must be up);
* asks ``!stats`` and checks the admission arithmetic
  (``submitted == served + failed``) straight from the registry snapshot;
* asks ``!slow 5`` and checks each returned trace's direct children sum to
  no more than the traced request's total duration;
* scrapes ``/metrics`` (Prometheus text exposition) and ``/healthz`` over
  HTTP while the server is still serving.

Run by ``scripts/check.sh obs`` in both numpy arms.  Stdlib only::

    PYTHONPATH=src python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import re
import socket
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ANNOUNCE = re.compile(r"^(serving|metrics) on (.+):(\d+)$")


def fail(message: str):
    print(f"FATAL: {message}", file=sys.stderr)
    sys.exit(1)


def wait_for_endpoints(process) -> "dict[str, tuple[str, int]]":
    """Read the two 'X on host:port' announcements off the server's stderr."""
    endpoints: "dict[str, tuple[str, int]]" = {}
    while len(endpoints) < 2:
        line = process.stderr.readline()
        if not line:
            fail(
                "server exited before announcing its endpoints "
                f"(rc={process.poll()})"
            )
        match = ANNOUNCE.match(line.strip())
        if match:
            endpoints[match.group(1)] = (match.group(2), int(match.group(3)))
    return endpoints


def tcp_round_trip(host: str, port: int, lines: "list[str]") -> "list[str]":
    with socket.create_connection((host, port), timeout=10) as connection:
        connection.sendall(("\n".join(lines) + "\n").encode("utf-8"))
        connection.shutdown(socket.SHUT_WR)
        reader = connection.makefile("r", encoding="utf-8")
        return [reply.rstrip("\n") for reply in reader]


def http_get(url: str) -> "tuple[int, str, str]":
    with urllib.request.urlopen(url, timeout=10) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def check_sharded_gauges() -> None:
    """The sharded registry must export its shard count, its run histogram
    and its visited-object gauge.

    Runs in-process (the TCP smoke serves the monolithic engine): one
    sharded evaluation, then the snapshot is checked for the metrics the
    README documents.
    """
    from repro.engine.sharding import ShardedEngine
    from repro.graph import figure2_graph

    instance, _ = figure2_graph()
    engine = ShardedEngine.open(instance, shards=2)
    engine.query_batch("a.b*", sorted(instance.objects, key=str))
    snapshot = engine.metrics.registry.snapshot()
    if snapshot.get("sharded_shards") != 2:
        fail(f"sharded_shards is {snapshot.get('sharded_shards')!r}, not 2")
    runs = snapshot.get("sharded_local_fixpoint_seconds", {}).get("count")
    if runs != 1:
        fail(f"sharded_local_fixpoint_seconds counted {runs!r} runs, not 1")
    if not snapshot.get("sharded_visited_objects"):
        fail("sharded registry snapshot has no sharded_visited_objects")


def main() -> int:
    from repro.graph import figure2_graph, instance_to_edge_list

    check_sharded_gauges()
    instance, _ = figure2_graph()
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "figure2.edges"
        graph.write_text(instance_to_edge_list(instance), encoding="utf-8")

        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(graph),
                "--tcp", "127.0.0.1:0", "--metrics", "127.0.0.1:0",
            ],
            cwd=REPO,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            endpoints = wait_for_endpoints(process)
            serve_host, serve_port = endpoints["serving"]
            metrics_host, metrics_port = endpoints["metrics"]

            # Queries first, control verbs on a second connection after the
            # replies landed — lines on one connection are answered
            # concurrently, so an inline !stats would race the evaluations.
            replies = tcp_round_trip(
                serve_host, serve_port, ["r1\to1\ta b*", "r2\to2\tb"]
            )
            replies += tcp_round_trip(
                serve_host, serve_port, ["!stats", "!slow 5"]
            )
            answers = dict(
                reply.split("\t", 1) for reply in replies if "\t" in reply
            )
            if answers.get("r1") != "o2 o3" or answers.get("r2") != "o3":
                fail(f"served answers wrong: {answers!r}")

            snapshot = json.loads(answers["!stats"])
            if snapshot["serving_submitted"] != (
                snapshot["serving_served"] + snapshot["serving_failed"]
            ):
                fail(f"admission arithmetic broken: {snapshot}")
            if snapshot["serving_served"] < 2:
                fail(f"!stats does not reflect the served requests: {snapshot}")

            traces = json.loads(answers["!slow"])
            if not traces:
                fail("!slow returned no traces for a served session")
            for trace in traces:
                root = trace["spans"][0]
                children_total = sum(
                    span["duration_s"]
                    for span in trace["spans"]
                    if span["parent_id"] == root["span_id"]
                )
                if children_total > trace["duration_s"] + 1e-9:
                    fail(
                        f"trace {trace['trace_id']}: child spans sum to "
                        f"{children_total}s > total {trace['duration_s']}s"
                    )

            status, content_type, body = http_get(
                f"http://{metrics_host}:{metrics_port}/metrics"
            )
            if status != 200 or "version=0.0.4" not in content_type:
                fail(f"/metrics not Prometheus text: {status} {content_type}")
            for needle in (
                "# TYPE engine_query_seconds histogram",
                "serving_submitted",
                "engine_graph_builds 1",
            ):
                if needle not in body:
                    fail(f"/metrics missing {needle!r}")

            status, _, body = http_get(
                f"http://{metrics_host}:{metrics_port}/healthz"
            )
            if status != 200 or body != "ok\n":
                fail(f"/healthz wrong: {status} {body!r}")
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    print(
        "obs smoke ok: served 2 queries, !stats arithmetic holds, "
        f"{len(traces)} slow traces sum within totals, /metrics + /healthz "
        "live, sharded gauges exported"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
