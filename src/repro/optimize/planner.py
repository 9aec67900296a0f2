"""End-to-end planning: rewrite, then evaluate, and account for the savings.

The planner ties the optimizer to the evaluators so that examples and
benchmarks can report the paper's bottom line: how much cheaper a query
becomes when the site's local path constraints are exploited.  Cost is
reported both by the static cost model and by dynamic counters from actual
evaluation (visited product pairs for the centralized evaluator, delivered
messages for the distributed one).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constraints.constraint import ConstraintSet
from ..distributed.coordinator import run_distributed_query
from ..graph.instance import Instance, Oid
from ..query.evaluation import evaluate_baseline
from ..regex import Regex, to_string
from .cost import DEFAULT_COST_MODEL, CostModel
from .rewriter import RewriteOutcome, rewrite_query


@dataclass
class PlanReport:
    """Everything the planner learned about one query at one site."""

    rewrite: RewriteOutcome
    answers: set[Oid]
    original_visited_pairs: int
    optimized_visited_pairs: int
    original_messages: int | None = None
    optimized_messages: int | None = None
    backend: str = "baseline"

    @property
    def pair_savings(self) -> int:
        return self.original_visited_pairs - self.optimized_visited_pairs

    @property
    def message_savings(self) -> int | None:
        if self.original_messages is None or self.optimized_messages is None:
            return None
        return self.original_messages - self.optimized_messages

    def summary(self) -> str:
        lines = [self.rewrite.summary()]
        if self.backend != "baseline":
            lines.append(f"backend: {self.backend}")
        lines.append(
            "visited (object, state) pairs: "
            f"{self.original_visited_pairs} -> {self.optimized_visited_pairs}"
        )
        if self.original_messages is not None:
            lines.append(
                f"messages: {self.original_messages} -> {self.optimized_messages}"
            )
        lines.append(f"answers: {len(self.answers)}")
        return "\n".join(lines)


def plan_and_evaluate(
    query: "Regex | str",
    source: Oid,
    instance: Instance,
    constraints: ConstraintSet,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    measure_distributed: bool = False,
    asker: Oid = "client",
    backend: str = "baseline",
) -> PlanReport:
    """Rewrite the query under the constraints, evaluate both versions, compare.

    ``backend`` selects the execution layer: ``"baseline"`` uses the
    product-automaton evaluator of ``query.evaluation``; ``"engine"`` runs
    both versions through one compiled :class:`repro.engine.Engine` session
    (shared CSR graph and query cache), which is the path a serving deployment
    would take.

    The answers of the original and optimized queries are required to agree on
    the given instance; a mismatch raises ``AssertionError`` because it would
    mean an unsound rewrite slipped through the implication check (this is the
    planner's last line of defense and is exercised by the integration tests).
    """
    outcome = rewrite_query(query, constraints, cost_model)

    if backend == "engine":
        from ..engine import Engine

        engine = Engine.open(instance)
        original_result = engine.query(outcome.original, source)
        optimized_result = engine.query(outcome.best, source)
    elif backend == "baseline":
        # Explicitly the reference BFS: evaluate()'s engine delegation would
        # make visited-pairs comparisons meaningless on large instances.
        original_result = evaluate_baseline(outcome.original, source, instance)
        optimized_result = evaluate_baseline(outcome.best, source, instance)
    else:
        raise ValueError(f"unknown planner backend: {backend!r}")
    if original_result.answers != optimized_result.answers:
        raise AssertionError(
            "unsound rewrite: "
            f"{to_string(outcome.original)} and {to_string(outcome.best)} disagree "
            "on the given instance"
        )

    original_messages = optimized_messages = None
    if measure_distributed:
        original_messages = run_distributed_query(
            outcome.original, source, instance, asker=asker
        ).messages_delivered
        optimized_messages = run_distributed_query(
            outcome.best, source, instance, asker=asker
        ).messages_delivered

    return PlanReport(
        rewrite=outcome,
        answers=set(original_result.answers),
        original_visited_pairs=original_result.visited_pairs,
        optimized_visited_pairs=optimized_result.visited_pairs,
        original_messages=original_messages,
        optimized_messages=optimized_messages,
        backend=backend,
    )
