"""Tests of the benchmark harness itself, on the tiny ``smoke`` workload.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run as bench
from workloads import WORKLOADS, stage_configs

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    out = run_benchmark("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1 + 9
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = out.stdout.splitlines()
    for name, unit in expected.items():
        assert any(line.strip().startswith(f"{name} = ") and f" {unit}" in line
                   for line in lines), name


def test_stage_exiting_nonzero_is_counted_as_failed(monkeypatch):
    # unsorted FGSM rates are a validation error: exit code 2 from `attack` only
    config = json.loads(json.dumps(WORKLOADS["smoke"]))
    config["attack"] = {"epsilons": [0.5, 0.0]}
    monkeypatch.setitem(bench.WORKLOADS, "smoke-bad-attack", config)
    monkeypatch.setitem(bench.WALL_ESTIMATE_S, "smoke-bad-attack", bench.WALL_ESTIMATE_S["smoke"])
    report = bench.run("smoke-bad-attack", seed=1, seconds=1, trace=False)
    assert report["ops_attempted"] == bench.SETUP_REPEATS + len(bench.PIPELINE_STAGES)
    assert report["ops_failed"] == 1
    assert report["failures"] == [{"stage": "attack", "exit_code": 2, "mismatched": []}]
    assert report["timed_on_failures_only"] == ["attack_s"]
    assert not report["problems"]


def test_rerun_plan_fills_the_seconds_from_the_estimates_alone():
    estimate = {"a": 1.0, "b": 2.0, "c": 4.0}
    assert bench.rerun_plan(estimate, 7.0) == []
    assert bench.rerun_plan(estimate, 12.0) == [["a", "b"], ["a"], ["a"]]
    assert bench.rerun_plan(estimate, 12.0) == bench.rerun_plan(dict(estimate), 12.0)


def test_tampered_output_is_a_digest_mismatch(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(WORKLOADS["smoke"]), encoding="utf-8")
    configs = dict.fromkeys(stage_configs("smoke"), config_path)
    runner = bench.Runner(tmp_path, configs, seed=2, reference={},
                          deadline=time.monotonic() + 170)
    pretrain = ["pretrain", "--mode", "plain"]
    for name in ("a", "b"):
        assert not runner.invoke("synth", ["synth"], tmp_path / name).failed
    assert not runner.invoke("pretrain_plain", pretrain, tmp_path / "a").failed

    with (tmp_path / "b" / "ground_truth.json").open("a", encoding="utf-8") as fh:
        fh.write(" ")
    inv = runner.invoke("pretrain_plain", pretrain, tmp_path / "b")
    assert inv.exit_code == 0
    assert inv.mismatched == ["ground_truth.json"]
    assert inv.failed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run_benchmark("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
