"""The line protocol, as a pure codec: ``line -> request | error``, and back.

Nothing here does I/O or touches a server: :func:`parse_line` turns one
request line into exactly one :class:`ControlLine`, :class:`RequestLine` or
:class:`ErrorLine` and never raises, and the ``encode_*`` functions render
results as response lines.  :mod:`repro.engine.serving` reads lines,
dispatches what this module parsed and writes what it encoded.

The **v1 grammar**, one request per line::

    request   = id TAB source TAB query [TAB modifier]
    modifier  = "LIMIT" SP n [SP "CURSOR" SP c]   ; one sorted page
              | "STREAM"                          ; incremental chunks
    response  = id TAB answers [TAB "CURSOR" SP c]   ; full or page
              | id TAB "+" TAB answer                ; STREAM chunk
              | id TAB "error: " message

``query`` may be a scalar path expression or conjunctive ``MATCH …``
syntax; a conjunctive line's source binds the first ``MATCH`` variable
(``-`` for none), and its answers are comma-joined rows in ``RETURN``
order.  Unmodified requests answer with the full sorted answer set.
``LIMIT`` answers at most ``n`` items (sorted wire order) and, when more
remain, a trailing ``CURSOR`` field whose opaque token resumes the next
page — tokens are bound to the ``(query, source)`` pair and rejected with an
error line otherwise.  ``STREAM`` emits ``id<TAB>+<TAB>answer`` chunk lines
as answers land, closed by the standard full response line.

The **v2 grammar** carries the same request as one JSON object::

    request = "V2" TAB json
    json    = {"id": str, "query": expr | "crpq": match-text,
               "source": str, "limit": n, "cursor": c, "stream": bool}

Modifiers are fields, not positional suffixes, and unknown fields are
rejected; responses are identical to v1.  Both grammars lower onto v2's
field set, so every wire request reaches
:func:`~repro.engine.request.normalize` at one call site.  Malformed lines
come back as ``id<TAB>error: ...`` (``?`` when no id could be read), so one
bad request cannot take down a connection.  Lines starting with ``!`` are
control verbs (``!stats``, ``!trace <id>``, ``!slow [N]``) answered from
live telemetry instead of the engine.  A read loop skips whitespace-only
lines without answering them.
"""

from __future__ import annotations

import base64
import hashlib
import json
from bisect import bisect_right
from typing import TYPE_CHECKING, NamedTuple

from ..exceptions import ReproError
from .conjunctive import ConjunctiveResult, is_crpq_text
from .request import QueryRequest, normalize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.instance import Oid


class ControlLine(str):
    """A ``!verb [args]`` line, answered from telemetry."""


class ErrorLine(str):
    """A line that could not be parsed: the response to send back."""


class RequestLine(NamedTuple):
    """A well-formed request: its id and its canonical request."""

    ident: str
    request: QueryRequest


def parse_line(line: str) -> "ControlLine | RequestLine | ErrorLine":
    """Parse one request line (without its newline); never raises."""
    if line.startswith("!"):
        return ControlLine(line)
    if line.startswith("V2\t"):
        return _parse_v2(line[3:])
    return _parse_v1(line)


def _parse_v1(line: str) -> "RequestLine | ErrorLine":
    parts = line.split("\t")
    ident = parts[0] or "?"
    if len(parts) not in (3, 4) or not parts[0]:
        return ErrorLine(encode_error(
            ident,
            "malformed request "
            "(want id<TAB>source<TAB>query[<TAB>LIMIT n [CURSOR c] | STREAM])",
        ))
    source, query = parts[1], parts[2]
    limit = cursor = None
    stream = False
    if len(parts) == 4:
        tokens = parts[3].split()
        if tokens == ["STREAM"]:
            stream = True
        elif tokens[:1] == ["LIMIT"]:
            if len(tokens) not in (2, 4) or (len(tokens) == 4 and tokens[2] != "CURSOR"):
                return ErrorLine(
                    encode_error(ident, "malformed modifier (want LIMIT n [CURSOR c])")
                )
            try:
                limit = int(tokens[1])
            except ValueError:
                limit = tokens[1]  # QueryRequest rejects it as not a positive integer
            cursor = tokens[3] if len(tokens) == 4 else None
        else:
            return ErrorLine(encode_error(
                ident, "unknown modifier (want LIMIT n [CURSOR c] or STREAM)"
            ))
    if source == "-" and is_crpq_text(query):
        source = None  # every binding of the MATCH is in its WHERE clause
    return _lower(ident, query, source, limit, cursor, stream, "")


def _parse_v2(text: str) -> "RequestLine | ErrorLine":
    ident = "?"
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("payload is not an object")
        ident = str(payload.get("id") or "") or "?"
        if ident == "?":
            raise ValueError("missing request id")
        unknown = set(payload) - {
            "id", "query", "crpq", "source", "limit", "cursor", "stream"
        }
        if unknown:
            raise ValueError(f"unknown fields: {', '.join(sorted(unknown))}")
        if ("query" in payload) == ("crpq" in payload):
            raise ValueError("exactly one of 'query' and 'crpq' is required")
        body = payload.get("query", payload.get("crpq"))
        if not isinstance(body, str):
            raise ValueError("'query'/'crpq' must be a string")
        if "crpq" in payload and not is_crpq_text(body):
            raise ValueError("'crpq' must be MATCH syntax")
        source = payload.get("source")
        if "source" in payload and not isinstance(source, str):
            raise ValueError("'source' must be a string")
        stream = payload.get("stream", False)
        if not isinstance(stream, bool):
            raise ValueError("'stream' must be a boolean")
    except Exception as error:
        return ErrorLine(encode_error(ident, f"bad v2 request: {error}"))
    return _lower(
        ident, body, source, payload.get("limit"), payload.get("cursor"), stream,
        "bad v2 request: ",
    )


def _lower(ident, query, source, limit, cursor, stream, prefix):
    """Both grammars' fields -> one canonical request (or its error line)."""
    try:
        request = normalize(query, source, limit=limit, cursor=cursor, stream=stream)
    except Exception as error:
        return ErrorLine(encode_error(ident, f"{prefix}{error}"))
    return RequestLine(ident, request)


# -- responses -----------------------------------------------------------------
def _wire_items(result: "set[Oid] | ConjunctiveResult") -> "list[str]":
    """A result's items in wire order: sorted answers, or sorted rows with
    each row's values comma-joined in ``RETURN`` order."""
    if isinstance(result, ConjunctiveResult):
        return sorted(",".join(map(str, row)) for row in result.rows)
    return sorted(map(str, result))


def format_answers(result: "set[Oid] | ConjunctiveResult") -> str:
    """The wire form of a result: its items in wire order, space-separated
    (so a one-variable CRPQ's reads like a scalar answer set)."""
    return " ".join(_wire_items(result))


def encode_result(ident: str, result: "set[Oid] | ConjunctiveResult") -> str:
    """The full response to a request."""
    return f"{ident}\t{format_answers(result)}"


def encode_page(
    ident: str, result, limit: int, cursor: "str | None", digest: str
) -> str:
    """One ``LIMIT`` page: the sorted items after ``cursor`` (validated
    against ``digest``), plus a resume cursor when more remain.

    Pages slice the sorted wire order resuming strictly after the cursor's
    item, so pagination stays correct when the answer set grows between
    pages, and concatenated pages of a fixed set equal the full response.
    """
    ordered = _wire_items(result)
    start = 0 if cursor is None else bisect_right(ordered, decode_cursor(cursor, digest))
    page = ordered[start:start + limit]
    body = " ".join(page)
    if start + limit < len(ordered):
        return f"{ident}\t{body}\tCURSOR {encode_cursor(digest, page[-1])}"
    return f"{ident}\t{body}"


def encode_reply(ident: str, request: QueryRequest, result, key: str) -> str:
    """The full response to ``request``: its whole result, or the ``LIMIT``
    page it asked for, with cursors bound to ``key`` (the request's
    admission key, read only for a page) and its source."""
    if request.limit is None:
        return encode_result(ident, result)
    digest = cursor_digest(key, request.sources[0] if request.sources else "")
    try:
        return encode_page(ident, result, request.limit, request.cursor, digest)
    except ReproError as error:  # a cursor minted for another query or source
        return encode_error(ident, error)


def encode_chunk(ident: str, answer: "Oid") -> str:
    """One ``STREAM`` chunk line."""
    return f"{ident}\t+\t{answer}"


def encode_error(ident: str, error: "BaseException | str") -> str:
    """An error response: the request failed to parse or to evaluate."""
    return f"{ident}\terror: {error}"


# -- cursors -------------------------------------------------------------------
def cursor_digest(key: str, source: "Oid | str") -> str:
    """Short fingerprint binding a cursor to its ``(query, source)`` pair.

    ``key`` is the query's admission key (its canonical rewritten form), so
    two spellings of one query share cursors — exactly the requests that
    share batches.  A conjunctive key already folds every ``WHERE`` binding
    in, so its cursors pass an empty ``source``.
    """
    material = f"{key}\x00{source}".encode("utf-8")
    return hashlib.blake2b(material, digest_size=8).hexdigest()


def encode_cursor(digest: str, last_answer: str) -> str:
    """The opaque wire form of a resume point: base64url, no padding."""
    payload = json.dumps(
        {"h": digest, "a": last_answer}, separators=(",", ":")
    ).encode("utf-8")
    return base64.urlsafe_b64encode(payload).decode("ascii").rstrip("=")


def decode_cursor(token: str, digest: str) -> str:
    """Validate ``token`` against ``digest``; returns the resume answer.

    Raises :class:`~repro.exceptions.ReproError` on any defect — garbage
    base64, non-JSON payload, wrong shape, or a cursor minted for a
    different ``(query, source)`` pair.
    """
    try:
        padded = token + "=" * (-len(token) % 4)
        payload = json.loads(base64.urlsafe_b64decode(padded.encode("ascii")))
        if not isinstance(payload, dict):
            raise ValueError("not an object")
        if payload.get("h") != digest:
            raise ValueError("cursor/query mismatch")
        last = payload["a"]
        if not isinstance(last, str):
            raise ValueError("resume point is not a string")
    except Exception:
        raise ReproError(
            "invalid cursor (not one this server issued for this query/source)"
        ) from None
    return last
