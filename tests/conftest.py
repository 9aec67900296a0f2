"""Shared fixtures and hypothesis configuration for the test suite.

The hypothesis *strategies* live in ``_strategies.py`` (importable absolutely
from any test module); this conftest keeps the pytest-specific pieces: the
hypothesis profile and the plain fixtures.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from repro.graph import figure2_graph, random_graph
from repro.workloads import cs_department_site

# ---------------------------------------------------------------------------
# Hypothesis profiles: keep property tests meaningful but fast enough to run
# as part of the normal suite.
# ---------------------------------------------------------------------------
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
# Ten times the examples, for one CI pass over the rewriter's differentials:
# ``pytest --hypothesis-profile=deep``.
settings.register_profile("deep", settings.get_profile("repro"), max_examples=400)
settings.load_profile("repro")


# ---------------------------------------------------------------------------
# Plain fixtures.
# ---------------------------------------------------------------------------
@pytest.fixture
def figure2():
    """The Figure 2 graph and its source ``o1``."""
    return figure2_graph()


@pytest.fixture
def cs_site():
    """The CS-department workload (graph, root, constraints)."""
    return cs_department_site()


@pytest.fixture
def medium_random_graph():
    """A deterministic 40-node random graph over {a, b, c}."""
    return random_graph(40, 3, ["a", "b", "c"], seed=7)


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture(scope="session")
def e2e_workloads():
    """The end-to-end benchmark's workload classes, by name.

    They live in ``benchmarks/e2e`` (a top-level ``workloads`` package that
    imports its ``harness``); tests read their generators and query texts.
    """
    e2e = str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e")
    sys.path.insert(0, e2e)
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(e2e)
    return WORKLOADS


# ---------------------------------------------------------------------------
# Lock-order witness mode (REPRO_LOCK_WITNESS=1): after the whole session,
# every lock acquisition order observed at runtime must be consistent with
# the statically derived graph — inversions or cycles fail the run.
# ---------------------------------------------------------------------------
def pytest_sessionfinish(session, exitstatus):
    from repro.engine.telemetry import lock_witness

    witness = lock_witness()
    if witness is None or not witness.edges():
        return
    from repro.analysis import engine_static_edges

    witness.assert_consistent(engine_static_edges())
