"""The structured query-request surface shared by every entry point.

Historically each layer grew its own positional signature — ``query(query,
source)``, ``query_batch(query, sources)``, ``submit(query, source)``, the
``id\\tsource\\tquery`` wire line with trailing ``LIMIT``/``CURSOR``/
``STREAM`` modifiers.  :class:`QueryRequest` replaces that sprawl with one
frozen description — scalar expression *or* conjunctive body, source(s),
pagination and streaming flags — and :func:`normalize` is the single entry
that lowers every accepted input shape (bare strings, :class:`Regex`,
:class:`~repro.query.path_query.RegularPathQuery`,
:class:`~repro.engine.conjunctive.ConjunctiveQuery`, :class:`CRPQRequest`,
or an existing :class:`QueryRequest`) to its canonical form.

``Session.admission`` accepts these natively, and the
``QueryServer.submit*`` family accepts nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..exceptions import ReproError
from ..regex import Regex
from .conjunctive import ConjunctiveQuery, is_crpq_text, parse_crpq

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.instance import Oid

__all__ = ["CRPQRequest", "QueryRequest", "normalize"]


@dataclass(frozen=True)
class QueryRequest:
    """One fully-described query request.

    ``query`` is either a scalar path expression (string, :class:`Regex` or
    ``RegularPathQuery``) or a conjunctive body (a
    :class:`~repro.engine.conjunctive.ConjunctiveQuery`, or its ``MATCH …``
    surface text).  ``sources`` carries the evaluation roots for scalar
    requests (a conjunctive body carries its roots as ``WHERE`` bindings
    instead, so its ``sources`` must be empty after :func:`normalize`).
    ``limit``/``cursor`` select one sorted answer page; ``stream`` asks for
    incremental delivery — the two are mutually exclusive, exactly like the
    wire protocol's modifiers.
    """

    query: "Regex | ConjunctiveQuery | str | object"
    sources: "tuple[Oid, ...]" = ()
    limit: "int | None" = None
    cursor: "str | None" = None
    stream: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.sources, tuple):
            object.__setattr__(self, "sources", tuple(self.sources))
        if self.limit is not None and (
            not isinstance(self.limit, int) or self.limit <= 0
        ):
            raise ReproError(f"limit must be a positive integer, got {self.limit!r}")
        if self.cursor is not None and self.limit is None:
            raise ReproError("a cursor only makes sense with a limit")
        if self.stream and (self.limit is not None or self.cursor is not None):
            raise ReproError("stream and limit/cursor are mutually exclusive")

    @property
    def is_conjunctive(self) -> bool:
        """True when the body is a CRPQ (parsed or still surface text)."""
        if isinstance(self.query, ConjunctiveQuery):
            return True
        return isinstance(self.query, str) and is_crpq_text(self.query)

    @property
    def source(self) -> "Oid | None":
        """The single source of a one-source request (``None`` when absent)."""
        if len(self.sources) > 1:
            raise ReproError(
                f"request has {len(self.sources)} sources; use .sources"
            )
        return self.sources[0] if self.sources else None


@dataclass(frozen=True)
class CRPQRequest:
    """Convenience wrapper for a conjunctive request.

    ``source``, when given, binds the query's *first* variable — the same
    convention the v1 wire line and the CLI use for their one positional
    source slot.  :func:`normalize` folds it into the query's ``WHERE``
    bindings, so downstream layers only ever see a self-contained
    :class:`~repro.engine.conjunctive.ConjunctiveQuery`.
    """

    query: "ConjunctiveQuery | str"
    source: "Oid | None" = None


def _normalize_conjunctive(
    query: "ConjunctiveQuery | str", sources: "tuple[Oid, ...]"
) -> ConjunctiveQuery:
    crpq = query if isinstance(query, ConjunctiveQuery) else parse_crpq(query)
    if len(sources) > 1:
        raise ReproError(
            "a conjunctive request takes at most one source (it binds the "
            "first MATCH variable); bind further variables with WHERE"
        )
    if sources:
        crpq = crpq.with_source(sources[0])
    return crpq


def normalize(
    request: "QueryRequest | CRPQRequest | ConjunctiveQuery | Regex | str | object",
    source: "Oid | None" = None,
    *,
    sources: "tuple[Oid, ...] | None" = None,
    limit: "int | None" = None,
    cursor: "str | None" = None,
    stream: bool = False,
) -> QueryRequest:
    """Lower any accepted request shape to a canonical :class:`QueryRequest`.

    Canonical means: a conjunctive body is a parsed
    :class:`ConjunctiveQuery` with every positional source folded into its
    bindings and ``sources == ()``; a scalar body keeps its expression
    as given (engines parse expressions themselves) with roots in
    ``sources``.  Idempotent — normalizing a canonical request returns an
    equal one.  ``source``/``sources`` are mutually exclusive, and neither
    may be combined with a request object that already carries sources.
    """
    if source is not None and sources is not None:
        raise ReproError("pass source or sources, not both")
    extra_sources: "tuple[Oid, ...]" = (
        (source,) if source is not None else tuple(sources or ())
    )

    if isinstance(request, QueryRequest):
        if limit is not None or cursor is not None or stream:
            raise ReproError(
                "limit/cursor/stream are fields of the QueryRequest; "
                "set them on the request itself"
            )
        if extra_sources and request.sources:
            raise ReproError("request already carries sources")
        base = request if not extra_sources else replace(request, sources=extra_sources)
        if base.is_conjunctive:
            crpq = _normalize_conjunctive(base.query, base.sources)
            return replace(base, query=crpq, sources=())
        return base

    if isinstance(request, CRPQRequest):
        if extra_sources:
            raise ReproError("CRPQRequest already carries its source slot")
        crpq = _normalize_conjunctive(
            request.query, (request.source,) if request.source is not None else ()
        )
        return QueryRequest(
            query=crpq, limit=limit, cursor=cursor, stream=stream
        )

    if isinstance(request, ConjunctiveQuery) or (
        isinstance(request, str) and is_crpq_text(request)
    ):
        crpq = _normalize_conjunctive(request, extra_sources)
        return QueryRequest(query=crpq, limit=limit, cursor=cursor, stream=stream)

    return QueryRequest(
        query=request,
        sources=extra_sources,
        limit=limit,
        cursor=cursor,
        stream=stream,
    )
