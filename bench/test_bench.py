"""Smoke test of the benchmark on tiny inputs, so the harness cannot rot.

    python3 -m pytest bench/test_bench.py -q

Every workload's code path runs with and without tracing on graphs of a few
dozen nodes; the printed metric names must match BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH))

import tracing  # noqa: E402


def _run(root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_on_tiny_input(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_trace_target_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "graph", ["parse_snap_renamed"])
    with pytest.raises(tracing.MissingTarget):
        tracing.install(tracing.Tracer())


def test_fails_without_the_source_tree():
    bare = BENCH / ".out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "--workload", "readme_simulate", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
