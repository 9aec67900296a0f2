"""Tier-1 smoke of the e2e benchmark: ``run.py --smoke`` at tiny sizes.

Checks the harness, not the numbers: every workload reports every metric of
BENCHMARK.json by name and unit, and no op fails.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric(trace, listed):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
    assert summary["claim"] is None
    units = {metric["name"]: metric["unit"] for metric in SPEC[listed]}
    assert list(summary["results"]) == [w["name"] for w in SPEC["workloads"]]
    for workload, result in summary["results"].items():
        assert NAME.fullmatch(workload)
        assert result["correct"] is True and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        assert reported == units, workload
        assert all(NAME.fullmatch(name) for name in reported)
        if not trace:  # end-to-end metrics are never 0
            assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_spec_shape():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert len(SPEC["workloads"]) == 5 and len(SPEC["end_to_end"]) == 6
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    # The driver's limits: no bound above 0.25, and set-up has the largest.
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
