"""Conjunctive regular path queries (CRPQs) compiled to hash-join plans.

One scalar RPQ relates a source to the objects some path matches; a CRPQ
conjoins several such *atoms* over shared variables::

    MATCH x -[connection]-> y, y -[link* doc]-> z
    WHERE x = gateway
    RETURN y, z

Everything here is engine-agnostic and sans-io.  :func:`parse_crpq` turns
the surface text into a frozen :class:`ConjunctiveQuery`; :func:`plan_join`
picks a left-deep join order with cardinality estimates from
:func:`repro.optimize.estimate_cardinality` over per-label CSR degree
stats; :class:`PlanExecution` then runs the plan as a stepper that *asks*
for per-atom batch evaluations (``pending()`` → an expression plus the
source frontier) and is *fed* the resulting (source, target) pair map
(``feed()``).  The synchronous engines drive it with
``query_batch`` under one lock scope; the asyncio serving layer drives the
same object through its admission queue, so a CRPQ atom coalesces with
scalar traffic of the same admission key — one join implementation, two
drivers, no semantic drift.

Grammar (whitespace-insensitive between tokens)::

    crpq    = "MATCH" atom ("," atom)* ["WHERE" cond (("AND" | ",") cond)*]
              ["RETURN" var ("," var)*]
    atom    = var "-[" expression "]->" var
    cond    = var "=" constant
    var     = [A-Za-z_][A-Za-z0-9_]*
    constant= any non-whitespace token

``expression`` is the ordinary RPQ regex syntax (:mod:`repro.regex`); the
only extra restriction is that it may not contain the ``]->`` terminator.
``RETURN`` defaults to every variable in order of first appearance.
"""

from __future__ import annotations

import re
from collections.abc import Collection
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from ..exceptions import RegexSyntaxError, ReproError
from ..optimize.cost import DEFAULT_COST_MODEL, DegreeStats, estimate_cardinality
from ..regex import Regex, parse
from ..regex.printer import to_string
from .telemetry import DEFAULT_SIZE_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.instance import Instance, Oid
    from ..optimize.cost import CostModel

__all__ = [
    "ActiveDomain",
    "Atom",
    "AtomRequest",
    "ConjunctiveQuery",
    "ConjunctiveResult",
    "JoinPlan",
    "JoinStep",
    "PlanExecution",
    "PlannedAtom",
    "is_crpq_text",
    "nested_loop_rows",
    "parse_crpq",
    "plan_join",
    "record_join",
]


_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ATOM_RE = re.compile(
    r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*-\[(.*)\]->\s*([A-Za-z_][A-Za-z0-9_]*)\s*",
    re.DOTALL,
)
_COND_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S+)\s*")

#: Planner strategies accepted by :func:`plan_join`.
PLAN_STRATEGIES = ("optimized", "declared", "worst")


def is_crpq_text(text: str) -> bool:
    """True when ``text`` is conjunctive surface syntax (a ``MATCH`` clause).

    ``MATCH`` is not a reserved regex token, so a scalar expression starting
    with a *label* literally spelled ``MATCH`` must be parenthesized to
    escape detection — the README documents this as the one grammar overlap.
    """
    stripped = text.lstrip()
    return stripped.startswith("MATCH") and (
        len(stripped) == 5 or stripped[5].isspace()
    )


# --------------------------------------------------------------------------
# Surface syntax
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Atom:
    """One path atom ``source -[expression]-> target`` of a CRPQ."""

    source: str
    expression: Regex
    target: str

    def text(self) -> str:
        return f"{self.source} -[{to_string(self.expression)}]-> {self.target}"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A parsed CRPQ: atoms, equality bindings and the projection list.

    Frozen and hashable; ``bindings`` are canonicalized to sorted order and
    an empty ``returns`` means *all* variables in first-appearance order
    (the parser default), so structurally equal queries compare equal.
    """

    atoms: "tuple[Atom, ...]"
    bindings: "tuple[tuple[str, Oid], ...]" = ()
    returns: "tuple[str, ...]" = ()

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ReproError("a conjunctive query needs at least one atom")
        variables = self.variables
        bound: dict[str, "Oid"] = {}
        for var, value in self.bindings:
            if var not in variables:
                raise ReproError(f"WHERE binds unknown variable {var!r}")
            if var in bound and bound[var] != value:
                raise ReproError(
                    f"variable {var!r} bound to both {bound[var]!r} and {value!r}"
                )
            bound[var] = value
        object.__setattr__(
            self, "bindings", tuple(sorted(bound.items(), key=lambda kv: kv[0]))
        )
        if not self.returns:
            object.__setattr__(self, "returns", variables)
        else:
            for var in self.returns:
                if var not in variables:
                    raise ReproError(f"RETURN names unknown variable {var!r}")

    @property
    def variables(self) -> "tuple[str, ...]":
        """Every variable, in order of first appearance."""
        seen: dict[str, None] = {}
        for atom in self.atoms:
            seen.setdefault(atom.source)
            seen.setdefault(atom.target)
        return tuple(seen)

    def to_text(self) -> str:
        """Canonical surface form (atoms in declared order, sorted WHERE)."""
        parts = ["MATCH ", ", ".join(atom.text() for atom in self.atoms)]
        if self.bindings:
            parts.append(
                " WHERE "
                + " AND ".join(f"{var} = {value}" for var, value in self.bindings)
            )
        parts.append(" RETURN " + ", ".join(self.returns))
        return "".join(parts)

    def with_source(self, source: "Oid") -> "ConjunctiveQuery":
        """This query with its first variable bound to ``source``.

        The scalar line protocol and CLI carry one positional source; for a
        CRPQ that source binds the first ``MATCH`` variable (the natural
        reading of ``MATCH x -[r]-> y`` asked *from* an object).
        """
        first = self.variables[0]
        return ConjunctiveQuery(
            atoms=self.atoms,
            bindings=self.bindings + ((first, source),),
            returns=self.returns,
        )


def _expression_spans(text: str) -> "list[tuple[int, int]]":
    """Spans of the ``-[`` … ``]->`` expression slots inside ``text``."""
    spans = []
    cursor = 0
    while True:
        start = text.find("-[", cursor)
        if start < 0:
            return spans
        end = text.find("]->", start)
        if end < 0:
            raise ReproError(f"unterminated atom expression at offset {start}")
        spans.append((start, end + 3))
        cursor = end + 3


def _outside(spans: "list[tuple[int, int]]", index: int) -> bool:
    return all(not (start <= index < end) for start, end in spans)


def _split_outside(
    text: str, spans: "list[tuple[int, int]]", pattern: "re.Pattern[str]"
) -> "list[str]":
    """Split ``text`` on ``pattern`` matches that fall outside ``spans``."""
    pieces = []
    last = 0
    for match in pattern.finditer(text):
        if _outside(spans, match.start()):
            pieces.append(text[last : match.start()])
            last = match.end()
    pieces.append(text[last:])
    return pieces


_COMMA = re.compile(r",")
_AND_OR_COMMA = re.compile(r"\bAND\b|,")
_KEYWORD = re.compile(r"\bWHERE\b|\bRETURN\b")


def parse_crpq(text: str) -> ConjunctiveQuery:
    """Parse CRPQ surface syntax into a :class:`ConjunctiveQuery`."""
    stripped = text.strip()
    if not is_crpq_text(stripped):
        raise ReproError("a conjunctive query starts with the MATCH keyword")
    body = stripped[len("MATCH") :]
    spans = _expression_spans(body)

    match_part, where_part, return_part = body, "", ""
    keyword_hits = [m for m in _KEYWORD.finditer(body) if _outside(spans, m.start())]
    expected = ["WHERE", "RETURN"]
    cut = len(body)
    for hit in reversed(keyword_hits):
        if hit.group() not in expected:
            raise ReproError(f"misplaced {hit.group()} clause in conjunctive query")
        expected = expected[: expected.index(hit.group())]
        clause = body[hit.end() : cut]
        if hit.group() == "WHERE":
            where_part = clause
        else:
            return_part = clause
        cut = hit.start()
    match_part = body[:cut]

    atoms = []
    for chunk in _split_outside(match_part, spans, _COMMA):
        if not chunk.strip():
            raise ReproError("empty atom in MATCH clause")
        shaped = _ATOM_RE.fullmatch(chunk)
        if shaped is None:
            raise ReproError(
                f"malformed atom {chunk.strip()!r}: expected var -[expression]-> var"
            )
        source, expression_text, target = shaped.groups()
        try:
            expression = parse(expression_text)
        except RegexSyntaxError as error:
            raise ReproError(
                f"bad expression in atom {chunk.strip()!r}: {error}"
            ) from error
        atoms.append(Atom(source, expression, target))

    bindings = []
    if where_part.strip():
        for chunk in _split_outside(where_part, [], _AND_OR_COMMA):
            cond = _COND_RE.fullmatch(chunk)
            if cond is None:
                raise ReproError(
                    f"malformed WHERE condition {chunk.strip()!r}: expected var = constant"
                )
            bindings.append((cond.group(1), cond.group(2)))

    returns = []
    if return_part.strip():
        for chunk in return_part.split(","):
            name = chunk.strip()
            if not _VAR_RE.fullmatch(name):
                raise ReproError(f"malformed RETURN variable {name!r}")
            returns.append(name)

    return ConjunctiveQuery(
        atoms=tuple(atoms), bindings=tuple(bindings), returns=tuple(returns)
    )


# --------------------------------------------------------------------------
# Join planning
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PlannedAtom:
    """One atom with the expression the engine will actually evaluate."""

    atom: Atom
    prepared: object  # constraint-rewritten Regex (or the original query form)
    estimated_pairs: float
    estimated_cost: float


class ActiveDomain(Collection):
    """An instance's objects as a plan's domain: read through, never copied.

    The paper's instance may be infinite (Remark 2.1), so nothing a request
    does may enumerate the objects unless the query itself ranges over
    them.  ``oid in domain`` and ``len(domain)`` are the instance's own O(1)
    reads; iterating — which only :meth:`PlanExecution.pending` does, to
    seed an atom whose source no earlier atom bound — yields the objects
    sorted by ``repr``, as answered by ``sorted_objects`` (the session's
    per-``instance.version`` cache).
    """

    __slots__ = ("_instance", "_sorted_objects")

    def __init__(
        self, instance: "Instance", sorted_objects: "Callable[[], tuple[Oid, ...]]"
    ) -> None:
        self._instance = instance
        self._sorted_objects = sorted_objects

    def __contains__(self, oid: object) -> bool:
        return oid in self._instance

    def __len__(self) -> int:
        return len(self._instance)

    def __iter__(self) -> "Iterator[Oid]":
        return iter(self._sorted_objects())


@dataclass(frozen=True)
class JoinPlan:
    """A left-deep join order over a CRPQ's atoms.

    ``acyclic`` records whether the variable graph (distinct endpoint pairs
    as edges) is a forest — the semantic-tree-width-friendly case where a
    connected ear ordering exists and no step needs a cartesian product.
    ``domain`` is the active domain the planner assumed — a session's plan
    carries an :class:`ActiveDomain` view, a hand-made one any collection —
    and execution seeds unbound-source atoms from it; ``num_nodes`` is the
    domain size the cardinality estimates were made against.
    """

    query: ConjunctiveQuery
    order: "tuple[PlannedAtom, ...]"
    acyclic: bool
    estimated_cost: float
    strategy: str
    domain: "Collection[Oid]" = ()
    num_nodes: int = 1

    def describe(self) -> "list[dict]":
        """JSON-ready per-step view (CLI ``--plan``, bench artifacts)."""
        return [
            {
                "atom": planned.atom.text(),
                "prepared": query_text(planned.prepared),
                "estimated_pairs": planned.estimated_pairs,
                "estimated_cost": planned.estimated_cost,
            }
            for planned in self.order
        ]


def query_text(prepared: object) -> str:
    """Printable form of a prepared expression (Regex, query or string)."""
    if isinstance(prepared, Regex):
        return to_string(prepared)
    expression = getattr(prepared, "expression", None)
    if isinstance(expression, Regex):
        return to_string(expression)
    return str(prepared)


def _is_acyclic(query: ConjunctiveQuery) -> bool:
    parent: dict[str, str] = {}

    def find(var: str) -> str:
        root = var
        while parent.setdefault(root, root) != root:
            root = parent[root]
        parent[var] = root
        return root

    seen_pairs = set()
    for atom in query.atoms:
        if atom.source == atom.target:
            continue  # a self-loop atom is a unary hyperedge: never cyclic
        pair = frozenset((atom.source, atom.target))
        if pair in seen_pairs:
            continue  # parallel atoms join pairwise, no new cycle
        seen_pairs.add(pair)
        left, right = find(atom.source), find(atom.target)
        if left == right:
            return False
        parent[left] = right
    return True


def plan_join(
    query: ConjunctiveQuery,
    stats: DegreeStats,
    model: "CostModel | None" = None,
    *,
    strategy: str = "optimized",
    prepared: "Sequence[object] | None" = None,
    domain: "Collection[Oid]" = (),
) -> JoinPlan:
    """Choose a left-deep join order for ``query``.

    Greedy: at each step pick the atom whose evaluation is estimated
    cheapest given the variables already bound — a bound source restricts
    the batch to the current relation's endpoints (cost ≈ pairs / n per
    source), an unbound source evaluates from the whole domain (cost ≈ all
    pairs), and an atom disconnected from everything bound additionally
    cartesian-multiplies the intermediate relation.  ``strategy`` selects
    ``"optimized"`` (greedy-min, the default), ``"declared"`` (syntactic
    order) or ``"worst"`` (greedy-max — the benchmark's adversarial
    baseline).  ``prepared`` optionally supplies the constraint-rewritten
    expression per atom (same order as ``query.atoms``); estimates are
    computed on what will actually run.
    """
    if strategy not in PLAN_STRATEGIES:
        raise ReproError(f"unknown plan strategy {strategy!r}")
    model = model or DEFAULT_COST_MODEL
    atoms = query.atoms
    if prepared is None:
        prepared = [atom.expression for atom in atoms]
    if len(prepared) != len(atoms):
        raise ReproError("prepared expressions must align with query atoms")
    estimates = []
    for expr in prepared:
        expression = expr if isinstance(expr, (Regex, str)) else getattr(
            expr, "expression", expr
        )
        estimates.append(estimate_cardinality(expression, stats, model))

    nodes = max(1, stats.num_nodes)
    bound = {var for var, _value in query.bindings}
    rows_estimate = 1.0

    def step_cost(index: int) -> float:
        atom = atoms[index]
        pairs = estimates[index]
        if atom.source in bound:
            return max(1.0, rows_estimate) * pairs / nodes
        cost = pairs  # evaluated from the full domain
        if atom.target not in bound and bound:
            cost *= max(1.0, rows_estimate)  # disconnected: cartesian join
        return cost

    remaining = list(range(len(atoms)))
    total = 0.0
    order: list[PlannedAtom] = []
    while remaining:
        if strategy == "declared":
            pick = remaining[0]
        else:
            ranked = sorted(
                remaining, key=lambda i: (step_cost(i), estimates[i], i)
            )
            pick = ranked[0] if strategy == "optimized" else ranked[-1]
        cost = step_cost(pick)
        total += cost
        atom = atoms[pick]
        order.append(
            PlannedAtom(
                atom=atom,
                prepared=prepared[pick],
                estimated_pairs=estimates[pick],
                estimated_cost=cost,
            )
        )
        joined = (atom.source in bound) or (atom.target in bound) or not bound
        grow = estimates[pick] / nodes
        if not joined:
            grow = estimates[pick]
        rows_estimate = max(1.0, rows_estimate * max(grow, 1.0 / nodes))
        bound.update((atom.source, atom.target))
        remaining.remove(pick)

    return JoinPlan(
        query=query,
        order=tuple(order),
        acyclic=_is_acyclic(query),
        estimated_cost=total,
        strategy=strategy,
        domain=domain,
        num_nodes=nodes,
    )


# --------------------------------------------------------------------------
# Sans-io execution
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AtomRequest:
    """One batch evaluation the execution needs next: run ``expression``
    from every object in ``sources`` and feed back the pair map."""

    step: PlannedAtom
    expression: object
    sources: "tuple[Oid, ...]"


@dataclass(slots=True)
class JoinStep:
    """Accounting for one executed join step (telemetry + plan reports).

    ``estimated_pairs`` is the planner's number for the quantity ``pairs``
    measures: :func:`~repro.optimize.estimate_cardinality`'s whole-domain
    estimate for the atom, scaled to the share of the domain this step
    actually evaluated from (``sources / num_nodes``).
    """

    atom: str
    sources: int
    pairs: int
    rows_in: int
    rows_out: int
    estimated_pairs: float = 0.0

    @property
    def q_error(self) -> float:
        """``max(est/act, act/est)`` with both sides floored at 1 — how many
        times off the estimate was, in whichever direction."""
        estimated = max(1.0, self.estimated_pairs)
        actual = max(1.0, float(self.pairs))
        return max(estimated / actual, actual / estimated)

    def span_attributes(self) -> "dict[str, object]":
        """What a ``crpq.join`` span says about this step."""
        return {
            "atom": self.atom,
            "pairs": self.pairs,
            "estimated_pairs": round(self.estimated_pairs, 1),
            "q_error": round(self.q_error, 2),
            "rows_out": self.rows_out,
        }


def record_join(registry, steps: "Sequence[JoinStep]") -> None:
    """Count one finished CRPQ in ``registry``: the ``crpq_*`` counters and
    one ``crpq_q_error`` observation per executed step."""
    registry.counter("crpq_queries", "conjunctive queries evaluated").inc()
    registry.counter(
        "crpq_atom_batches", "per-atom batch evaluations run for CRPQs"
    ).inc(len(steps))
    registry.counter(
        "crpq_join_rows", "rows produced across CRPQ join steps"
    ).inc(sum(step.rows_out for step in steps))
    q_error = registry.histogram(
        "crpq_q_error",
        "per join step, max(estimated/actual, actual/estimated) atom pairs",
        buckets=DEFAULT_SIZE_BUCKETS,
    )
    for step in steps:
        q_error.observe(step.q_error)


def _row_key(row: "tuple[Oid, ...]") -> "tuple[str, ...]":
    return tuple(repr(value) for value in row)


class PlanExecution:
    """Drives a :class:`JoinPlan` one atom at a time, engine-agnostic.

    Call :meth:`pending` for the next :class:`AtomRequest` (``None`` when
    done or the intermediate relation went empty — the short-circuit),
    evaluate it however the driver likes (``query_batch``, the serving
    admission queue, a naive evaluator), then :meth:`feed` the resulting
    ``{source: answer set}`` map.  Not thread-safe; each execution belongs
    to one driver.

    After every join the relation is projected down to the variables still
    needed (later atoms + ``RETURN``) and deduplicated — the classic
    acyclic-join economy, valid for cyclic plans too since the final result
    is a set-projection anyway.
    """

    def __init__(self, plan: JoinPlan, domain: "Collection[Oid] | None" = None):
        self.plan = plan
        self._domain = plan.domain if domain is None else domain
        self._columns: "tuple[str, ...]" = tuple(
            var for var, _value in plan.query.bindings
        )
        self._rows: "list[tuple[Oid, ...]]" = [
            tuple(value for _var, value in plan.query.bindings)
        ]
        # A WHERE constant naming no object matches nothing — filter it here
        # rather than letting a nullable atom manufacture a phantom ε
        # self-answer from a source the graph never held.  Membership only:
        # a bound query never enumerates the domain.
        if self._domain and any(
            value not in self._domain for value in self._rows[0]
        ):
            self._rows = []
        self._index = 0
        self.steps: "list[JoinStep]" = []
        # Variables still needed at step i: everything a later atom touches
        # plus the projection list.
        needed = set(plan.query.returns)
        self._needed_after: "list[frozenset[str]]" = [frozenset(needed)] * (
            len(plan.order) + 1
        )
        for i in range(len(plan.order) - 1, -1, -1):
            self._needed_after[i + 1] = frozenset(needed)
            needed.add(plan.order[i].atom.source)
            needed.add(plan.order[i].atom.target)
        self._needed_after[0] = frozenset(needed)

    @property
    def done(self) -> bool:
        return self._index >= len(self.plan.order) or not self._rows

    def pending(self) -> "AtomRequest | None":
        """The next batch evaluation, or ``None`` when the join is done."""
        if self.done:
            return None
        step = self.plan.order[self._index]
        source = step.atom.source
        if source in self._columns:
            at = self._columns.index(source)
            sources = tuple(
                sorted({row[at] for row in self._rows}, key=repr)
            )
        else:
            if not self._domain:
                raise ReproError(
                    f"atom {step.atom.text()!r} starts unbound and the plan "
                    "carries no domain to seed it from"
                )
            sources = tuple(self._domain)
        return AtomRequest(step=step, expression=step.prepared, sources=sources)

    def feed(self, pairs: "Mapping[Oid, Iterable[Oid]]") -> JoinStep:
        """Join the evaluated pair map for the current atom into the relation."""
        if self.done:
            raise ReproError("feed() called on a finished execution")
        step = self.plan.order[self._index]
        src, tgt = step.atom.source, step.atom.target
        columns = self._columns
        rows = self._rows
        si = columns.index(src) if src in columns else None
        ti = columns.index(tgt) if tgt in columns else None
        sets = {s: frozenset(ts) for s, ts in pairs.items()}

        out: "list[tuple[Oid, ...]]" = []
        if src == tgt:
            if si is not None:
                out = [r for r in rows if r[si] in sets.get(r[si], frozenset())]
                new_columns = columns
            else:
                loops = [s for s, ts in sets.items() if s in ts]
                out = [r + (s,) for r in rows for s in loops]
                new_columns = columns + (src,)
        elif si is not None and ti is not None:
            out = [r for r in rows if r[ti] in sets.get(r[si], frozenset())]
            new_columns = columns
        elif si is not None:
            out = [r + (t,) for r in rows for t in sets.get(r[si], frozenset())]
            new_columns = columns + (tgt,)
        elif ti is not None:
            reverse: "dict[Oid, list[Oid]]" = {}
            for s, ts in sets.items():
                for t in ts:
                    reverse.setdefault(t, []).append(s)
            out = [r + (s,) for r in rows for s in reverse.get(r[ti], ())]
            new_columns = columns + (src,)
        else:
            flat = [(s, t) for s, ts in sets.items() for t in ts]
            out = [r + pair for r in rows for pair in flat]
            new_columns = columns + (src, tgt)

        self._index += 1
        needed = self._needed_after[self._index]
        if any(var not in needed for var in new_columns):
            keep = [i for i, var in enumerate(new_columns) if var in needed]
            new_columns = tuple(new_columns[i] for i in keep)
            out = [tuple(r[i] for i in keep) for r in out]
        out = list(dict.fromkeys(out))

        report = JoinStep(
            atom=step.atom.text(),
            sources=len(sets),
            pairs=sum(len(ts) for ts in sets.values()),
            rows_in=len(rows),
            rows_out=len(out),
            estimated_pairs=step.estimated_pairs * len(sets) / self.plan.num_nodes,
        )
        self.steps.append(report)
        self._columns = new_columns
        self._rows = out
        return report

    def result_rows(self) -> "tuple[tuple[Oid, ...], ...]":
        """The final projected relation, deduplicated and sorted."""
        if not self.done:
            raise ReproError("execution still has pending atoms")
        if not self._rows:
            # Short-circuited: later atoms never joined their columns in,
            # so project off the (empty) relation without indexing them.
            return ()
        returns = self.plan.query.returns
        indices = [self._columns.index(var) for var in returns]
        projected = {tuple(row[i] for i in indices) for row in self._rows}
        return tuple(sorted(projected, key=_row_key))


@dataclass(frozen=True)
class ConjunctiveResult:
    """Answer relation of one CRPQ: ``variables`` names the columns of
    ``rows`` (sorted, duplicate-free), ``plan`` and ``steps`` record how
    the join ran."""

    variables: "tuple[str, ...]"
    rows: "tuple[tuple[Oid, ...], ...]"
    plan: JoinPlan
    steps: "tuple[JoinStep, ...]" = field(default=())

    def __len__(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> "list[dict[str, Oid]]":
        return [dict(zip(self.variables, row)) for row in self.rows]


# --------------------------------------------------------------------------
# Naive reference
# --------------------------------------------------------------------------


def nested_loop_rows(
    query: ConjunctiveQuery,
    instance: "Instance",
    evaluate_fn: "Callable[[Regex, Oid], set] | None" = None,
) -> "tuple[tuple[Oid, ...], ...]":
    """Spec-level reference: nested loops over per-atom ``evaluate`` answers.

    Enumerates variable assignments atom-by-atom in declared order with no
    planning, no batching and no pruning — exponential in the worst case,
    sized for tests and benchmark cross-checks only.  The differential
    suite pins every engine backend's ``query_conjunctive`` to this.
    """
    if evaluate_fn is None:
        from ..query.evaluation import evaluate as _evaluate

        def evaluate_fn(expression: Regex, source: "Oid") -> set:
            return set(_evaluate(expression, source, instance).answers)

    memo: "dict[tuple[int, Oid], set]" = {}

    def answers(atom_index: int, source: "Oid") -> set:
        key = (atom_index, source)
        if key not in memo:
            memo[key] = evaluate_fn(query.atoms[atom_index].expression, source)
        return memo[key]

    domain = sorted(instance.objects, key=repr)
    rows: "list[dict[str, Oid]]" = [dict(query.bindings)]
    for index, atom in enumerate(query.atoms):
        out: "list[dict[str, Oid]]" = []
        for row in rows:
            sources = [row[atom.source]] if atom.source in row else domain
            for source in sources:
                if source not in instance:
                    continue  # a WHERE constant naming no object matches nothing
                found = answers(index, source)
                if atom.source == atom.target:
                    if source in found:
                        out.append({**row, atom.source: source})
                elif atom.target in row:
                    if row[atom.target] in found:
                        out.append({**row, atom.source: source})
                else:
                    for target in found:
                        out.append({**row, atom.source: source, atom.target: target})
        rows = out
    projected = {tuple(row[var] for var in query.returns) for row in rows}
    return tuple(sorted(projected, key=_row_key))
