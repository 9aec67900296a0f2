"""Tests for the structured request surface (``repro.engine.request``).

``normalize`` is the single entry every layer lowers through, so its
canonicalization rules (conjunctive bodies parsed with sources folded into
bindings, scalar bodies untouched), its validation errors, and — crucially —
the one-release deprecation contract are pinned here: each legacy positional
``QueryServer.submit*`` spelling must emit a ``DeprecationWarning`` *and*
return exactly what the structured spelling returns.
"""

import asyncio

import pytest

from repro.engine import Engine
from repro.engine.conjunctive import ConjunctiveQuery, parse_crpq
from repro.engine.request import CRPQRequest, QueryRequest, normalize
from repro.exceptions import ReproError
from repro.graph import web_like_graph


def web(nodes=30, seed=7):
    instance, root = web_like_graph(nodes, ["a", "b", "c"], seed=seed)
    return instance, root


CRPQ_TEXT = "MATCH x -[a]-> y, y -[b]-> z RETURN x, z"


# ---------------------------------------------------------------------------
# QueryRequest construction and validation.
# ---------------------------------------------------------------------------
class TestQueryRequest:
    def test_sources_coerced_to_tuple(self):
        request = QueryRequest(query="a b", sources=["s1", "s2"])
        assert request.sources == ("s1", "s2")

    def test_frozen(self):
        request = QueryRequest(query="a")
        with pytest.raises(AttributeError):
            request.limit = 3

    def test_limit_must_be_positive(self):
        with pytest.raises(ReproError, match="positive integer"):
            QueryRequest(query="a", limit=0)
        with pytest.raises(ReproError, match="positive integer"):
            QueryRequest(query="a", limit="5")

    @pytest.mark.parametrize("flag", [True, False])
    def test_limit_rejects_booleans(self, flag):
        # ``bool`` passes ``isinstance(limit, int)``; True must not read as 1.
        with pytest.raises(ReproError, match="positive integer"):
            QueryRequest(query="a", limit=flag)

    def test_cursor_requires_limit(self):
        with pytest.raises(ReproError, match="cursor"):
            QueryRequest(query="a", cursor="abc")

    def test_stream_excludes_pagination(self):
        with pytest.raises(ReproError, match="mutually exclusive"):
            QueryRequest(query="a", limit=2, stream=True)

    def test_is_conjunctive_detects_text_and_parsed_forms(self):
        assert QueryRequest(query=CRPQ_TEXT).is_conjunctive
        assert QueryRequest(query=parse_crpq(CRPQ_TEXT)).is_conjunctive
        assert not QueryRequest(query="a (b + c)*").is_conjunctive
        # A scalar label that merely *starts* with the letters MATCH is not
        # conjunctive syntax (the keyword needs trailing whitespace).
        assert not QueryRequest(query="MATCHBOX").is_conjunctive

    def test_source_accessor(self):
        assert QueryRequest(query="a", sources=("s",)).source == "s"
        assert QueryRequest(query="a").source is None
        with pytest.raises(ReproError, match="use .sources"):
            QueryRequest(query="a", sources=("s", "t")).source


# ---------------------------------------------------------------------------
# normalize lowering rules.
# ---------------------------------------------------------------------------
class TestNormalize:
    def test_scalar_string_with_source(self):
        request = normalize("a b", "s1")
        assert request == QueryRequest(query="a b", sources=("s1",))

    def test_scalar_keeps_expression_unparsed(self):
        # Engines parse scalar expressions themselves; normalize must not.
        request = normalize("a (b + c)*", sources=("s1", "s2"))
        assert request.query == "a (b + c)*"
        assert request.sources == ("s1", "s2")

    def test_source_and_sources_are_exclusive(self):
        with pytest.raises(ReproError, match="not both"):
            normalize("a", "s1", sources=("s2",))

    def test_conjunctive_text_is_parsed_and_source_folded(self):
        request = normalize(CRPQ_TEXT, "root")
        assert isinstance(request.query, ConjunctiveQuery)
        assert request.sources == ()  # folded into WHERE bindings
        assert request.query.bindings == (("x", "root"),)

    def test_conjunctive_rejects_multiple_sources(self):
        with pytest.raises(ReproError, match="at most one source"):
            normalize(CRPQ_TEXT, sources=("s1", "s2"))

    def test_crpq_request_folds_its_source(self):
        request = normalize(CRPQRequest(query=CRPQ_TEXT, source="root"))
        assert request.query == parse_crpq(CRPQ_TEXT).with_source("root")
        with pytest.raises(ReproError, match="already carries"):
            normalize(CRPQRequest(query=CRPQ_TEXT), "root2")

    def test_idempotent(self):
        for raw in ("a b", CRPQ_TEXT, CRPQRequest(query=CRPQ_TEXT, source="r")):
            once = normalize(raw, "s1") if isinstance(raw, str) else normalize(raw)
            assert normalize(once) == once

    def test_query_request_passthrough_rejects_conflicts(self):
        request = QueryRequest(query="a", sources=("s1",))
        with pytest.raises(ReproError, match="already carries sources"):
            normalize(request, "s2")
        with pytest.raises(ReproError, match="on the request itself"):
            normalize(QueryRequest(query="a"), limit=3)

    def test_query_request_conjunctive_body_is_canonicalized(self):
        request = normalize(QueryRequest(query=CRPQ_TEXT, sources=("root",)))
        assert isinstance(request.query, ConjunctiveQuery)
        assert request.sources == ()
        assert request.query.bindings == (("x", "root"),)

    def test_pagination_fields_thread_through(self):
        request = normalize("a", "s", limit=5, cursor=None)
        assert (request.limit, request.cursor, request.stream) == (5, None, False)
        streaming = normalize("a", "s", stream=True)
        assert streaming.stream


# ---------------------------------------------------------------------------
# The positional shims are gone: strings are refused, requests never warn.
# ---------------------------------------------------------------------------
class TestDeprecationShims:
    def test_positional_query_strings_are_refused(self):
        instance, _ = web()
        engine = Engine.open(instance)
        source = sorted(instance.objects, key=repr)[0]

        async def scenario():
            async with engine.as_server() as server:
                with pytest.raises(ReproError, match="QueryRequest"):
                    await server.submit("a (b + c)*", source)
                with pytest.raises(ReproError, match="QueryRequest"):
                    await server.submit_many("a b", [source])
                with pytest.raises(ReproError, match="QueryRequest"):
                    server.submit_nowait("a", source)
                with pytest.raises(ReproError, match="QueryRequest"):
                    server.submit_stream("a", source)
                return server.stats.submitted

        assert asyncio.run(scenario()) == 0

    def test_structured_requests_do_not_warn(self):
        import warnings

        instance, _ = web()
        engine = Engine.open(instance)
        source = sorted(instance.objects, key=repr)[0]

        async def scenario():
            async with engine.as_server() as server:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    return await server.submit(
                        QueryRequest(query="a", sources=(source,))
                    )

        asyncio.run(scenario())  # raises if any DeprecationWarning fired

    def test_engine_query_batch_accepts_requests_without_warning(self):
        import warnings

        instance, _ = web()
        engine = Engine.open(instance)
        sources = sorted(instance.objects, key=repr)[:3]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            classic = engine.query_batch("a b", sources)
            structured = engine.query_batch(
                QueryRequest(query="a b", sources=tuple(sources))
            )
        assert classic == structured

    def test_engine_query_batch_rejects_double_sources(self):
        instance, _ = web()
        engine = Engine.open(instance)
        request = QueryRequest(query="a", sources=("s",))
        with pytest.raises(ReproError, match="inside the QueryRequest"):
            engine.query_batch(request, ["s"])

    def test_engine_query_batch_rejects_conjunctive(self):
        instance, _ = web()
        engine = Engine.open(instance)
        with pytest.raises(ReproError, match="query_conjunctive"):
            engine.query_batch(QueryRequest(query=CRPQ_TEXT))
