"""End-to-end wire smoke: one script through `serve` on stdin and over TCP.

Runs the CLI serving process twice on the Figure 2 graph — once reading
stdin, once with ``--tcp 127.0.0.1:0`` — and drives the same script through
both the way a client would, one request at a time:

* a ``STREAM`` request must answer with ``id<TAB>+<TAB>answer`` chunk
  lines followed by the standard full response line, the union of the
  chunks equal to the closing answer set;
* a ``LIMIT``/``CURSOR`` page walk must hand back the full answer set as
  the concatenation of its pages, in sorted order without overlap;
* a forged cursor token must come back as an ``error:`` line, not a page;
* a ``V2`` line answers like its v1 spelling, ``!stats`` answers one JSON
  line, and a whitespace-only line gets no answer at all.

The two transports must then have answered the same multiset of lines
(``!stats`` payloads aside: they hold timings).  Run by
``scripts/check.sh serve`` in both numpy arms.  Stdlib only::

    PYTHONPATH=src python scripts/serve_stream_smoke.py
"""

from __future__ import annotations

import json
import queue
import re
import socket
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ANNOUNCE = re.compile(r"^serving on (.+):(\d+)$")
QUERY = "a b*"


def fail(message: str):
    print(f"FATAL: {message}", file=sys.stderr)
    sys.exit(1)


def ident_of(line: str) -> str:
    """The id a request line's responses carry."""
    if line.startswith("!"):
        return line.split()[0]
    if line.startswith("V2\t"):
        return str(json.loads(line[3:])["id"])
    return line.split("\t", 1)[0]


class Conversation:
    """Request/response over one line channel, one request at a time."""

    def __init__(self, write, replies) -> None:
        self._write = write
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self.transcript: "list[str]" = []

        def pump() -> None:
            for reply in replies:
                self._lines.put(reply.rstrip("\n"))
            self._lines.put(None)

        threading.Thread(target=pump, daemon=True).start()

    def ask(self, line: str) -> "list[str]":
        """Send ``line``; its chunk lines (if any) and its full response."""
        self._write(line + "\n")
        if not line.strip():
            return []  # skipped: the next request's first reply proves it
        ident = ident_of(line)
        replies = []
        while True:
            try:
                reply = self._lines.get(timeout=30)
            except queue.Empty:
                fail(f"no response to {line!r} within 30 s")
            if reply is None:
                fail(f"server closed before answering {line!r}")
            if reply.split("\t", 1)[0] != ident:
                fail(f"{reply!r} does not answer {line!r}")
            replies.append(reply)
            self.transcript.append(reply)
            if reply.split("\t")[1:2] != ["+"]:
                return replies

    def finish(self) -> None:
        """After the client's end of input: the server must say no more."""
        reply = self._lines.get(timeout=30)
        if reply is not None:
            fail(f"unexpected reply after the last request: {reply!r}")


def script(talk: Conversation) -> None:
    # STREAM: chunk lines as answers land, then the closing full response;
    # the chunks must union to exactly the close set.
    *chunks, close = talk.ask(f"s1\to1\t{QUERY}\tSTREAM")
    final = set(close.split("\t", 1)[1].split())
    streamed = {chunk.split("\t", 2)[2] for chunk in chunks}
    if final != {"o2", "o3"} or streamed != final or len(chunks) != len(final):
        fail(f"STREAM answers wrong: chunks {chunks!r} vs close {close!r}")

    # LIMIT/CURSOR: walk one-answer pages until no cursor remains; the
    # concatenation must equal the full sorted answer set.
    pages: "list[str]" = []
    modifier = "LIMIT 1"
    for hop in range(10):
        (reply,) = talk.ask(f"p{hop}\to1\t{QUERY}\t{modifier}")
        fields = reply.split("\t")
        if len(fields) < 2 or fields[1].startswith("error:"):
            fail(f"page walk failed at hop {hop}: {reply!r}")
        pages.extend(fields[1].split())
        if len(fields) == 2:
            break
        modifier = f"LIMIT 1 {fields[2]}"
    else:
        fail("page walk never terminated")
    if pages != sorted(final):
        fail(f"concatenated pages {pages!r} != answers {sorted(final)!r}")

    # A forged cursor must be rejected with an error line.
    (reply,) = talk.ask(f"bad\to1\t{QUERY}\tLIMIT 1 CURSOR forged")
    if not reply.startswith("bad\terror:"):
        fail(f"forged cursor was not rejected: {reply!r}")

    # A whitespace-only line is skipped; the V2 line after it is answered
    # first, exactly like its v1 spelling.
    talk.ask(" \t ")
    (reply,) = talk.ask("V2\t" + json.dumps({"id": "v", "query": QUERY, "source": "o1"}))
    if reply != "v\to2 o3":
        fail(f"V2 line answered {reply!r}")

    (reply,) = talk.ask("!stats")
    if not reply.startswith("!stats\t") or "error:" in reply:
        fail(f"!stats answered {reply!r}")
    json.loads(reply.split("\t", 1)[1])


def serve_command(graph: Path, *extra: str) -> "list[str]":
    return [sys.executable, "-m", "repro", "serve", str(graph), *extra]


def over_stdin(graph: Path) -> "list[str]":
    process = subprocess.Popen(
        serve_command(graph), cwd=REPO, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        def write(text: str) -> None:
            process.stdin.write(text)
            process.stdin.flush()

        talk = Conversation(write, process.stdout)
        script(talk)
        process.stdin.close()
        talk.finish()
        if process.wait(timeout=30) != 0:
            fail(f"stdin server exited with {process.returncode}")
        return talk.transcript
    finally:
        if process.poll() is None:
            process.kill()


def over_tcp(graph: Path) -> "list[str]":
    process = subprocess.Popen(
        serve_command(graph, "--tcp", "127.0.0.1:0"), cwd=REPO,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        while True:
            line = process.stderr.readline()
            if not line:
                fail(f"server exited before announcing its endpoint (rc={process.poll()})")
            match = ANNOUNCE.match(line.strip())
            if match:
                break
        host, port = match.group(1), int(match.group(2))
        with socket.create_connection((host, port), timeout=30) as connection:
            outgoing = connection.makefile("w", encoding="utf-8")

            def write(text: str) -> None:
                outgoing.write(text)
                outgoing.flush()

            talk = Conversation(write, connection.makefile("r", encoding="utf-8"))
            script(talk)
            connection.shutdown(socket.SHUT_WR)
            talk.finish()
        return talk.transcript
    finally:
        process.terminate()
        process.wait(timeout=10)


def main() -> int:
    from repro.graph import figure2_graph, instance_to_edge_list

    instance, _ = figure2_graph()
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp) / "figure2.edges"
        graph.write_text(instance_to_edge_list(instance), encoding="utf-8")
        answered = {"stdin": over_stdin(graph), "tcp": over_tcp(graph)}

    def comparable(transcript: "list[str]") -> Counter:
        return Counter(
            "!stats" if reply.startswith("!stats\t") else reply for reply in transcript
        )

    if comparable(answered["stdin"]) != comparable(answered["tcp"]):
        fail(f"stdin and TCP answered differently: {answered!r}")
    print(
        "serve stream smoke: ok (stdin == tcp over "
        f"{len(answered['tcp'])} lines: STREAM chunks, page walk, forged cursor, "
        "V2, !stats, whitespace-only line)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
