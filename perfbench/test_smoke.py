"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and twice traced on one seed.  The test
checks that every metric of BENCHMARK.json is printed with its unit, that
no request fails, and that the traced counts repeat exactly.  It pins no
count value, so an optimisation may lower them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = (".calls_per_query", ".mean_dim", ".entries_per_check",
          "effect_algebra.homs.candidates", "effect_algebra.homs.found",
          "effect_algebra.homs.yield")


def bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def assert_metrics(result: dict, specs: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_failures(workload):
    text, result = bench(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    shares = [line.split() for line in text.splitlines() if line.startswith("failed_share")]
    assert shares == [["failed_share", "0", "ratio"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    _, first = bench(workload, 1)
    _, second = bench(workload, 1)
    assert_metrics(first, SPEC["per_layer"])
    assert first["correct"] is True and first["failed"] == 0
    counts = [name for name in first["metrics"] if name.endswith(COUNTS)]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
