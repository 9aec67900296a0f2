#!/usr/bin/env python3
"""The paper's motivating scenario: optimizing queries on a university web site.

The introduction of the paper uses paths like::

    CS-Department DB-group Ullman Classes cs345
    CS-Department Courses cs345

and the local constraint that both lead to the same page.  This example builds
such a site (with generated faculty and course names), verifies the structural
constraints, and shows the optimizer replacing the long "through the research
group" navigation by the short catalog lookup — then quantifies the savings in
visited pairs and in distributed protocol messages.

Run it with ``python examples/website_optimization.py``.
"""

from repro.optimize import plan_and_evaluate
from repro.constraints import satisfies_all
from repro.regex import to_string
from repro.workloads import cs_department_site


def main() -> None:
    workload = cs_department_site(group_count=2, faculty_per_group=2, courses_per_faculty=2)
    site, root = workload.instance, workload.root

    print(f"site: {len(site)} pages, {site.edge_count()} links")
    print(f"constraints known at {root!r}: {len(workload.constraints)}")
    print(f"all constraints hold: {satisfies_all(site, root, workload.constraints)}")

    faculty = workload.faculty_names[0]
    course = workload.course_ids[0]
    long_query = f"CS-Department DB-group {faculty} Classes {course}"
    print(f"\nuser query:\n  {long_query}")

    report = plan_and_evaluate(
        long_query,
        root,
        site,
        workload.constraints,
        measure_distributed=True,
    )

    print("\noptimizer outcome:")
    print(f"  rewritten to : {to_string(report.rewrite.best)}")
    print(f"  static cost  : {report.rewrite.original_cost:.1f} -> {report.rewrite.best_cost:.1f}")
    print(f"  answers      : {sorted(map(str, report.answers))}")
    print("\nevaluation cost (original -> optimized):")
    print(f"  visited (object, state) pairs : {report.original_visited_pairs} -> {report.optimized_visited_pairs}")
    print(f"  protocol messages             : {report.original_messages} -> {report.optimized_messages}")

    rewrite = report.rewrite
    print(
        f"\ncandidates: {rewrite.generated} generated, "
        f"{rewrite.skipped_by_cost} no cheaper than the query, "
        f"{rewrite.proofs_attempted} sent to the prover; proved:"
    )
    for candidate in rewrite.candidates:
        print(f"  - {candidate}")


if __name__ == "__main__":
    main()
