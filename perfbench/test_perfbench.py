"""Smoke tests for the benchmark: quick mode on every workload, traced and
untraced, plus the refusal to run without the program's sources.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, generate, precheck  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_every_metric_and_passes_every_check(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        line = re.compile(rf"^{re.escape(metric['name'])} \S+ {re.escape(metric['unit'])}$")
        assert any(line.match(text) for text in lines[:-1]), metric["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_seeded_and_passes_its_precheck(workload):
    pools = [generate(workload, seed) for seed in (1, 1, 2)]
    assert [s.report for s in pools[0]] == [s.report for s in pools[1]]
    assert [s.report for s in pools[0]] != [s.report for s in pools[2]]
    for scenario in pools[2]:
        precheck(scenario)
