"""Smoke test of the benchmark at its smallest size: one round per workload,
untraced and traced. It checks the printed metric names and units against
BENCHMARK.json, the operation counts, and that every output check ran. It
makes no timing assertion. It takes about two minutes; run it with

    python3 -m pytest -q perfbench/check_smoke.py

(the file name keeps it out of the default test collection).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = {
    "instability": {
        "exit_code",
        "one_step_fixed_point",
        "candidate_tie_family",
        "perturbed_period_two",
        "probability_rows",
    },
    "frozenlake": {
        "exit_code",
        "step_zero_equals_max_q",
        "w1_bounds_q_error",
        "q_error_decreases",
        "probability_rows",
    },
    "learners": {
        "reference_fixed_point",
        "step_zero_equals_max_q",
        "w1_bounds_q_error",
        "os_w1_converges",
        "os_cdrl_means_agree",
        "probability_rows",
    },
    "verify": {"exit_code", "every_property_passes"},
}
# one CLI invocation; 2 modes x 2 algorithms x 3 seeds of run_learning
OPS_PER_ROUND = {"instability": 1, "frozenlake": 1, "learners": 12}


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smallest_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.001", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))

    details = json.loads((BENCH / "out" / workload / "result.json").read_text())
    assert len(details["rounds"]) == 1 and len(details["traced_round_s"]) == trace
    rounds = 1 + trace
    if workload == "verify":
        report = json.loads((BENCH / "out" / workload / "verify" / "report.json").read_text())
        per_round = len(report["properties"])
    else:
        per_round = OPS_PER_ROUND[workload]
    assert result["attempted"] == rounds * per_round
    assert set(details["checks_run"]) == CHECKS[workload]
    assert details["problems"] == []
    if trace:
        assert (BENCH / "out" / workload / "spans.csv").stat().st_size > 0
        assert "trace.overhead_s" in json.loads((BENCH / "out" / workload / "trace.json").read_text())["metrics"]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "learners", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
