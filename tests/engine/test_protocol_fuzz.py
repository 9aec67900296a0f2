"""Fuzz the sans-io line codec (``repro.engine.protocol``).

``parse_line`` must answer any text with exactly one result and never
raise; a v1 line and its V2 spelling must lower to equal requests; and the
codec must stay free of the event loop, threads and the serving layers.
CI runs this module again under ``--hypothesis-profile=deep``.
"""

import ast
import json
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.engine import protocol
from repro.engine.conjunctive import is_crpq_text
from repro.engine.protocol import ControlLine, ErrorLine, RequestLine, parse_line
from repro.engine.request import QueryRequest

NO_TABS = st.characters(blacklist_characters="\t\r\n", blacklist_categories=("Cs",))
TOKEN = st.text(st.sampled_from("abcxyz019-_"), min_size=1, max_size=6)
BODIES = st.one_of(
    st.sampled_from([
        "a", "a b", "(a + b)*", "((((", "", "%", "MATCH x -[a]-> y RETURN y",
        "MATCH x -[a b]-> y, y -[c]-> z RETURN x, z",
        "MATCH x -[a]-> y WHERE x = u RETURN y", "MATCH x -[((]-> y RETURN y",
        "MATCH", "MATCH x RETURN",
    ]),
    st.text(NO_TABS, max_size=12),
)


def wire_like_lines():
    """Lines shaped like requests: tab-joined fields, JSON payloads, verbs."""
    field = st.one_of(TOKEN, BODIES, st.sampled_from(["STREAM", "LIMIT 2", "LIMIT 1 CURSOR x"]))
    json_value = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=6,
    )
    payload = st.dictionaries(
        st.sampled_from(["id", "query", "crpq", "source", "sources", "limit",
                         "cursor", "stream", "other"]),
        json_value | BODIES,
        max_size=6,
    )
    return st.one_of(
        st.lists(field, min_size=1, max_size=5).map("\t".join),
        payload.map(lambda fields: "V2\t" + json.dumps(fields)),
        st.text(max_size=20).map(lambda rest: "V2\t" + rest),
        st.text(max_size=20).map(lambda rest: "!" + rest),
    )


@given(st.one_of(st.text(), wire_like_lines()))
def test_any_text_parses_to_exactly_one_result(line):
    parsed = parse_line(line)
    kinds = [kind for kind in (ControlLine, RequestLine, ErrorLine) if isinstance(parsed, kind)]
    assert len(kinds) == 1
    if isinstance(parsed, RequestLine):
        assert isinstance(parsed.request, QueryRequest)
        assert parsed.ident
    if isinstance(parsed, ErrorLine):
        assert "\terror: " in parsed


@st.composite
def v1_requests(draw):
    """A v1 line and the V2 line that spells the same request."""
    ident = draw(st.text(NO_TABS, min_size=1, max_size=6).filter(
        lambda text: text not in ("?", "V2") and not text.startswith("!")
    ))
    body = draw(BODIES)
    source = draw(st.one_of(st.just("-"), st.text(NO_TABS, max_size=4)))
    fields = {"id": ident, "query": body}
    if not (source == "-" and is_crpq_text(body)):  # "-": no MATCH binding
        fields["source"] = source
    line = f"{ident}\t{source}\t{body}"
    mode = draw(st.sampled_from(["plain", "stream", "limit", "cursor"]))
    if mode == "stream":
        line += "\tSTREAM"
        fields["stream"] = True
    elif mode != "plain":
        limit = draw(st.integers(-1, 4))
        line += f"\tLIMIT {limit}"
        fields["limit"] = limit
        if mode == "cursor":
            cursor = draw(TOKEN)
            line += f" CURSOR {cursor}"
            fields["cursor"] = cursor
    return line, "V2\t" + json.dumps(fields)


@given(v1_requests())
def test_a_v1_line_and_its_v2_spelling_lower_alike(pair):
    v1_line, v2_line = pair
    v1, v2 = parse_line(v1_line), parse_line(v2_line)
    assert type(v1) is type(v2), (v1, v2)
    if isinstance(v1, RequestLine):
        assert v1 == v2


def test_the_codec_imports_no_loop_thread_or_serving_layer():
    tree = ast.parse(Path(protocol.__file__).read_text(encoding="utf-8"))
    banned = {"asyncio", "threading", "serving", "session", "sharding"}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & banned, sorted(parts & banned)
