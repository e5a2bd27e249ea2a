"""Fast self-tests of the benchmark: smoke-size runs and the checker's teeth.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "benchmarks")]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import job_self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int, seed: int = 5) -> tuple[int, dict]:
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return process.returncode, json.loads(process.stdout.strip().splitlines()[-1])


def test_spec_matches_the_metrics_the_command_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    code, result = _bench(workload, trace)
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_wrong_expected_value_is_caught_and_counted(monkeypatch, capsys):
    # The fault goes into the checker's table, never into the program.
    monkeypatch.setitem(reference.EXPECTED_VALUE, "church_sum", lambda n: 2 * n + 1)
    code = run.main(["--workload", "exec_towers", "--seed", "5", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_inputs_are_a_function_of_the_seed():
    assert inputs.generate("cold_families", 11) == inputs.generate("cold_families", 11)
    assert inputs.generate("cold_families", 11) != inputs.generate("cold_families", 12)


def test_self_times_cover_the_root_span():
    spans = [
        ["api", 0.0, 10.0, -1, "j"],
        ["cc.check", 1.0, 4.0, 0, "j"],
        ["kernel.intern", 2.0, 3.0, 1, "j"],
        ["cccc.verify", 5.0, 9.0, 0, "j"],
    ]
    root, selfs = job_self_times(spans, 0)
    assert root == 10.0
    assert selfs == {"api.self": 3.0, "cc.check": 2.0, "kernel.intern": 1.0, "cccc.verify": 4.0}
