"""Tests of the benchmark harness itself, on its smoke-sized workloads.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# lollipop-m5 is not in BENCHMARK.json, but the harness still runs it on request.
WORKLOADS = [w["name"] for w in DECLARED["workloads"]] + ["lollipop-m5"]
SMOKE = ["--smoke", "--seed", "3", "--seconds", "0.5"]


def harness(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc = harness("--workload", workload, "--trace", trace, *SMOKE)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines[:-1]), name
    assert any(line.startswith("error_rate 0 ratio") for line in lines[:-1])


@pytest.mark.parametrize(
    "workload, table, key, wrong",
    [
        ("lollipop-m5", "EXPECTED_RANKS", 3, (14, 5)),
        ("cli-suite", "EXPECTED_SUITE_CHECKS", "quick", 40),
    ],
)
def test_a_corrupted_expected_value_raises_the_error_rate(monkeypatch, capsys, workload, table, key, wrong):
    workloads = run.load_workloads()
    monkeypatch.setitem(getattr(workloads, table), key, wrong)
    code = run.main(["--workload", workload, "--trace", "0", *SMOKE])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    error_rate = next(line for line in lines if line.startswith("error_rate "))
    assert float(error_rate.split()[1]) > 0


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = harness("--workload", "wedge-witness", "--trace", "0", *SMOKE, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_repeated_op_gets_the_full_check_when_its_output_changes():
    workloads = run.load_workloads()
    calls = []

    def check(result):
        calls.append(result)
        return result == "right"

    once = workloads._once({}, "op", check)
    assert once("right") and once("right")
    assert not once("wrong")
    assert calls == ["right", "wrong"]


def test_every_op_gets_a_host_speed_factor():
    from calibration import Meter

    meter = Meter()
    for op_s in (0.0, 0.001, 0.2):
        meter.owe(time.perf_counter(), op_s)
    factors = meter.factors()
    assert len(factors) == 3 and all(f > 0 for f in factors)
