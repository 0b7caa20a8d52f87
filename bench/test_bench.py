"""Tests of the benchmark itself: output contract and negative controls.

    PYTHONPATH=src python3 -m pytest bench -q

The short runs take about two minutes on a 2-core machine, because every
workload completes at least one full pass.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hardy_perturb as hp  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _short_run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric_with_unit(workload, trace):
    done = _short_run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    text = "\n".join(lines[:-1])
    for m in expected:
        assert m["name"] in text


def _pass(name: str, cases: list) -> list:
    workload = worker.Workload(name, 0)
    workload.cases = cases
    return workload.run_pass()


def test_corrupted_q0_fails_the_roundtrip_case(monkeypatch):
    case = next(c for c in wl.roundtrip_cases(0, 10) if not c.near_circle)
    assert _pass("model-roundtrip", [case])[0]["ok"]

    original = hp.s1_model

    def corrupted(a0, b0, theta):
        model = original(a0, b0, theta)
        q0 = hp.Polynomial(model.q[0].coeffs + np.array([0.0, 1e-3]))
        return hp.SubspaceModel(1, theta, model.p, (q0,))

    monkeypatch.setattr(wl.hp, "s1_model", corrupted)
    record = _pass("model-roundtrip", [case])[0]
    assert not record["ok"]
    assert record["error"] == "ModelInconsistencyError"


def test_wrong_expected_block_size_is_a_wrong_verdict():
    case = wl.operator_cases(0, 1)[0]
    wrong = dataclasses.replace(case, expected_block=case.n + 3)
    record = _pass("operator-algebra", [wrong])[0]
    assert not record["ok"]
    assert record["error"] == "WrongVerdict"
    doc = {"wrong_verdicts": 1, "attempted": 1, "failed": 1, "metrics": {}}
    assert json.loads(run.result_line(doc, 0))["correct"] is False


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    pct, value = worker._percentile_tail(samples)
    assert pct == 90
    assert sum(s > value for s in samples) >= 10
    assert worker._percentile_tail([1.0, 5.0, 2.0]) == (100, 5.0)


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _short_run("operator-algebra", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
