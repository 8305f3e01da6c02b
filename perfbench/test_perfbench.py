"""Self-check for the benchmark: a tiny-size run of every workload.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Each run must pass its correctness oracle (zero failed ops, zero lost
acked writes, server exit 0 on SIGTERM) and print every metric that
``BENCHMARK.json`` names, with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parents[1]
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(CHECKOUT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr[-4000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_complete(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}
    for metric in expected:
        reported = metrics[metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float)), metric["name"]
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in (CHECKOUT / "perfbench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    completed = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "author",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
