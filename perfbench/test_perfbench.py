"""Checks on the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload runs twice at one seed in traced mode; every count in
``run.EXACT`` must repeat exactly and every answer must be correct.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
)
def test_exact_counts_repeat_and_answers_are_right(workload):
    first, second = (_result(_run(workload, 5, 1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}
    for name in run.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_end_to_end_metrics_match_the_declaration():
    result = _result(_run("update_stream", 5, 0))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in declared["per_layer"]] == [n for n, _ in run.PER_LAYER]
    for metric in declared["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("query_mix", 1, 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
