"""Smoke test of the benchmark: tiny sizes, no timing assertions.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced at three samples or models. The
result line must carry exactly the metrics BENCHMARK.json names, with their
units, and the runs must pass their own output checks.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.2", "--trace", str(trace), "--size", "3"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_emits_every_metric_with_its_unit(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())

    stem = f"{workload}-seed{SEED}"
    record = json.loads((ROOT / ".bench_out" / f"{stem}-trace{trace}.json").read_text())
    assert record["provenance"]["seed"] == SEED
    assert {"git_commit", "nproc", "python", "numpy"} <= set(record["provenance"])
    if trace:
        spans = json.loads((ROOT / ".bench_out" / f"trace-{stem}.json").read_text())
        assert spans["span_fields"][:5] == ["name", "start_us", "end_us", "parent", "sample_id"]
        assert spans["spans"] and spans["layers"]


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = run_bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
