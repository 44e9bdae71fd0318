"""Benchmark of signedvoter, driven from outside through the library and the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs are generated from --seed with signedvoter.generate and
cached under bench/.cache, outside every timed region):

  epinions_longterm  Epinions-sized weakly connected graph (n=131,580,
                     m about 1.07M): classify every SCC, svim_l k=500, its
                     steady state, and short-term selection (svim_s average
                     t=30 k=500, then propagate t=30).  No Monte Carlo.
  readme_simulate    CLI `simulate` on the configs/weakly_connected.cfg graph
                     with the svim_l k=500 seeds: one full 8,192-trial batch.
                     Parse and Monte Carlo only, no structure analysis.
  compare_balanced   CLI `compare --objective longterm --k 500 --t 30
                     --trials 200` on the configs/balanced.cfg graph.

With --trace 0 one fresh process parses the edge file at least three times
and for at least two seconds (setup_s is the median), then repeats the
workload's pass until S seconds have passed, at least once.  The last line
of stdout is the result: {"correct", "attempted", "failed", "metrics"} with
setup_s, pass_s (median pass time) and peak_rss_mb.  Times are wall seconds
scaled to a reference host speed by a probe run around every timed call
(HostClock in bench/worker.py); the raw wall and probe seconds are kept in
the results file.

With --trace 1 two fresh processes each parse once and run one pass, the
second with every layer function wrapped (bench/tracing.py).  Their outputs
must be byte-identical; the metrics are per-layer calls, total and self
wall seconds, the Monte Carlo node-update rate and the tracing overhead
(traced minus untraced pass_s).

Details of each run (phase timings, input statistics, failures, machine
info) go to bench/.out/<workload>/trace<0|1>/results.json.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("epinions_longterm", "readme_simulate", "compare_balanced")
SETUP_REPEATS = 3     # parses at least this often ...
SETUP_SECONDS = 2.0   # ... and until this long, so small inputs get a steady median
CACHE_KEEP = 8        # cached inputs kept per workload; an Epinions input is ~16 MB
BUILD_TIMEOUT = 800   # the first build of a checkout may take long
MEASURE_BUDGET = 170  # seconds for all measuring processes of one run


def _worker(args: list, timeout: float) -> dict:
    """Run bench/worker.py in a fresh single-threaded process; parse its last line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _inputs(workload: str, seed: int, tiny: bool) -> Path:
    """Cached input directory for this workload seed, built on a miss."""
    family = BENCH / ".cache" / (f"tiny-{workload}" if tiny else workload)
    cache = family / f"seed{seed}"
    if not (cache / "meta.json").exists():
        shutil.rmtree(cache, ignore_errors=True)
        _worker(["build", "--workload", workload, "--seed", str(seed), "--cache", str(cache)]
                + (["--tiny"] if tiny else []), BUILD_TIMEOUT)
        old = sorted(family.iterdir(), key=lambda p: p.stat().st_mtime)[:-CACHE_KEEP]
        for path in old:
            shutil.rmtree(path, ignore_errors=True)
    return cache


def _measure(workload, seed, cache, out, tiny, deadline, *options) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    args = ["measure", "--workload", workload, "--seed", str(seed), "--cache", str(cache),
            "--out", str(out), *options]
    return _worker(args + (["--tiny"] if tiny else []), max(1.0, deadline - time.monotonic()))


def _machine() -> dict:
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count(), "note": "shared host; other tenants may load it"}
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        info["cpu"] = next(line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                           if line.startswith("model name"))
        meminfo = Path("/proc/meminfo").read_text().split()
        info["mem_total_mb"] = int(meminfo[meminfo.index("MemTotal:") + 1]) // 1024
    except (OSError, StopIteration, ValueError):
        pass
    return info


def end_to_end(res: dict) -> dict:
    return {
        "setup_s": {"value": statistics.median(res["setup_s"]), "unit": "s"},
        "pass_s": {"value": statistics.median(p["pass_s"] for p in res["passes"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(traced: dict, reference: dict) -> dict:
    metrics = {}
    for name, rec in traced["layers"].items():
        metrics[f"{name}.calls"] = {"value": rec["calls"], "unit": "count"}
        metrics[f"{name}.s"] = {"value": rec["s"], "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": rec["self_s"], "unit": "s"}
    updates = traced["counters"].get("simulate.node_updates", 0.0)
    mc_self = traced["layers"]["simulate.mc_run"]["self_s"]
    metrics["simulate.node_updates"] = {"value": updates, "unit": "count"}
    metrics["simulate.step_node_updates_per_s"] = {
        "value": updates / mc_self if mc_self > 0 else 0.0, "unit": "1/s"}
    metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": traced["passes"][0]["pass_s"] - reference["passes"][0]["pass_s"], "unit": "s"}
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool, tiny: bool = False) -> dict:
    cache = _inputs(workload, seed, tiny)
    out = BENCH / ".out" / (f"tiny-{workload}" if tiny else workload) / f"trace{int(trace)}"
    deadline = time.monotonic() + MEASURE_BUDGET
    if trace:
        reference = _measure(workload, seed, cache, out / "untraced", tiny, deadline)
        res = _measure(workload, seed, cache, out / "traced", tiny, deadline, "--trace")
        runs = [reference, res]
        metrics = per_layer(res, reference)
    else:
        res = _measure(workload, seed, cache, out / "untraced", tiny, deadline,
                       "--seconds", str(seconds), "--setups", str(SETUP_REPEATS),
                       "--setup-seconds", str(SETUP_SECONDS))
        runs = [res]
        metrics = end_to_end(res)
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    if trace and res["digest"] != reference["digest"]:
        failures.append("traced outputs differ from the untraced run")
    phases = {key: statistics.median(p[key] for p in res["passes"]) for key in res["passes"][0]}
    report = {
        "workload": workload, "seed": seed, "trace": trace, "inputs": res["stats"],
        "phases": phases, "passes": len(res["passes"]), "notes": res["notes"],
        "failed_ops_frac": len(failures) / attempted, "failures": failures,
        "machine": _machine(),
        "probe_s": statistics.median(probe for _, probe in res["wall_and_probe_s"]),
        "wall_and_probe_s": res["wall_and_probe_s"], "metrics": metrics,
    }
    (out / "results.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for key, value in report.items():
        if key not in ("wall_and_probe_s", "metrics"):
            print(f"{key}: {json.dumps(value)}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test inputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "signedvoter" / "__init__.py").is_file():
        print(f"no signedvoter source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"wall_s: {time.perf_counter() - started:.3f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
