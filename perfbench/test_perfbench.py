"""Fast self-test of the benchmark, at a reduced size.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
untraced and traced, that the oracles run and pass, and that they reject
a wrong answer.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_oracles_pass(workload, trace):
    result, report = run.run(workload, seed=5, seconds=0, trace=trace, size="smoke")
    assert result["failed"] == 0 and result["correct"], report["failures"]
    assert result["attempted"] >= 10
    assert not report["unsteady"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_oracle_values():
    P_H, P_c = workloads.ziegler2_events()
    assert abs(P_H - 2.076805) < 1e-6
    assert abs(P_c - 2.0) < 1e-12


def test_oracles_reject_a_wrong_model():
    lib = run.import_library()
    checks = workloads.Checks()
    wrong = lib.models.build_ziegler2(**{**workloads.ZIEGLER, "xi_m": 0.25})
    workloads.check_sweep(lib, checks, workloads.oracle_values(), wrong)
    assert any("P_H" in f for f in checks.failures)
    workloads.check_fom_rhs(checks, wrong, 2.1, np.full((2, 4), 0.1))
    assert any("FOM RHS" in f for f in checks.failures)
