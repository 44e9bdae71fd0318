"""One benchmark process: build a workload's cached inputs, or measure it once.

    python3 bench/worker.py build   --workload W --seed N --cache DIR [--tiny]
    python3 bench/worker.py measure --workload W --seed N --cache DIR --out DIR
                                    [--seconds S] [--setups R] [--setup-seconds T]
                                    [--trace] [--tiny]

The last line of stdout is one JSON object.  run.py starts a fresh process
for every call, so generation never runs inside a measured process and the
peak resident memory reported by `measure` covers that measurement alone.
The library is imported from the `src/` tree next to this directory, never
from an installed copy.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import signedvoter  # noqa: E402
from signedvoter import cli, dynamics, graph, maximize, structure  # noqa: E402
from signedvoter.generate import GeneratorConfig, generate  # noqa: E402

import tracing  # noqa: E402

K = 500             # seed budget of every selection
T_SHORT = 30        # short-term horizon (svim_s, propagate, compare table)
SHORT_REPEATS = 5   # the short-term step is sub-second: report its median
MC_TRIALS = 8192    # exactly one full simulate batch, the large-working-set case
MC_T = 4
COMPARE_TRIALS = 200
MC_Z = 5.0          # stderr multiple of the MC-vs-exact check, see _mc_check

# Recipes: the generator seed is replaced by the workload seed.
RECIPES = {
    # ROADMAP's Epinions-sized synthetic graph: n=131,580, m about 1.07M
    "epinions_longterm": GeneratorConfig(
        "weakly_connected", [6580, 15000, 35000, 25000, 50000], edges_per_node=6),
    # configs/weakly_connected.cfg
    "readme_simulate": GeneratorConfig(
        "weakly_connected", [500, 200, 800, 300, 2700], edges_per_node=8),
    # configs/balanced.cfg
    "compare_balanced": GeneratorConfig("balanced", [3000, 6500], edges_per_node=8),
}
# Same code paths on inputs small enough for the smoke test.
TINY_RECIPES = {
    "epinions_longterm": GeneratorConfig("weakly_connected", [12, 10, 10, 10, 10],
                                         edges_per_node=3),
    "readme_simulate": GeneratorConfig("weakly_connected", [8, 6, 6, 6, 6], edges_per_node=3),
    "compare_balanced": GeneratorConfig("slow_mixing", [12]),  # configs/slow_mixing.cfg
}


def _recipe(workload: str, seed: int, tiny: bool) -> GeneratorConfig:
    return dataclasses.replace((TINY_RECIPES if tiny else RECIPES)[workload], seed=seed)


def _structure_stats(G) -> dict:
    decomp = structure.decompose(G)
    kinds = {}
    for z in decomp.sinks:
        kind = (structure.classify_balance(z, G).kind.value
                if structure.is_aperiodic(z, G) else "periodic")
        kinds[kind] = kinds.get(kind, 0) + 1
    return {"sinks": kinds, "non_sink": int(decomp.non_sink.size)}


def build(workload: str, seed: int, cache: Path, tiny: bool) -> dict:
    """Generate the graph (and seed file) for one workload seed into `cache`."""
    cache.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    G = generate(_recipe(workload, seed, tiny))
    meta = {"workload": workload, "seed": seed, "tiny": tiny,
            "generate_s": time.perf_counter() - started,
            "n": G.n, "m": G.n_edges, "negative_edges": G.n_negative}
    (cache / "graph.edges").write_text(graph.serialize(G), encoding="utf-8")
    if workload == "readme_simulate":
        seeds = maximize.svim_l(G, K).nodes
        (cache / "seeds.txt").write_text(" ".join(map(str, seeds)) + "\n", encoding="utf-8")
    if workload != "epinions_longterm":
        # the Epinions pass classifies every component itself; doing it here
        # too would add about 10 s to every cache miss
        meta.update(_structure_stats(G))
    (cache / "meta.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return meta


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _in_unit_interval(name: str, x) -> list:
    x = np.asarray(x)
    if not np.all(np.isfinite(x)) or x.min() < 0.0 or x.max() > 1.0:
        return [f"{name} leaves [0, 1]"]
    return []


_PROBE_DATA = np.random.default_rng(0).random(1_000_000)
# typical probe() time on the shared 2-vCPU Xeon host the bounds were set on
REFERENCE_PROBE_S = 0.07


def probe() -> float:
    """Wall time of a fixed mix of interpreter, dict and NumPy work."""
    started = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    table = {i: i for i in range(120_000)}
    np.sort(_PROBE_DATA)
    del table
    return time.perf_counter() - started


class HostClock:
    """Times calls in seconds at the reference host speed.

    A shared 2-vCPU host ran the same code up to 1.7x slower for minutes at
    a time.  A probe runs before and after every timed call, and the call's
    wall time is scaled by REFERENCE_PROBE_S over the mean of the two probe
    times.  The library never runs during a probe, so a change to it moves
    the scaled time exactly as much as the wall time.  `log` keeps every
    (wall seconds, probe seconds) pair.
    """

    def __init__(self):
        self.last_probe = probe()
        self.log = []

    def time(self, fn):
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        before, self.last_probe = self.last_probe, probe()
        speed = (before + self.last_probe) / 2
        self.log.append((wall, speed))
        return wall * REFERENCE_PROBE_S / speed, result


# --- epinions_longterm: library calls only, no Monte Carlo -----------------

def pass_epinions(G, ctx) -> tuple[dict, dict]:
    def classify():
        decomp = structure.decompose(G)
        records = []
        for comp in decomp.components:
            aperiodic = structure.is_aperiodic(comp, G)
            kind = structure.classify_balance(comp, G).kind.value if aperiodic else "periodic"
            records.append((int(comp.size), kind))
        return decomp, records

    times = {}
    times["classify_s"], (decomp, records) = ctx["clock"].time(classify)
    times["longterm_select_s"], chosen = ctx["clock"].time(lambda: maximize.svim_l(G, K))
    times["steady_state_s"], ss = ctx["clock"].time(
        lambda: dynamics.steady_state(G, graph.indicator(G.n, chosen.nodes)))

    def shortterm():
        sv = maximize.svim_s(G, T_SHORT, K, mode="average")
        return sv, dynamics.propagate(G, graph.indicator(G.n, sv.nodes), T_SHORT)

    short = [ctx["clock"].time(shortterm) for _ in range(SHORT_REPEATS)]
    times["shortterm_s"] = statistics.median(s for s, _ in short)
    times["pass_s"] = (times["classify_s"] + times["longterm_select_s"]
                       + times["steady_state_s"] + times["shortterm_s"])
    out = {"decomp": decomp, "records": records, "ss": ss, "short": [r for _, r in short],
           "digest": _digest(records, chosen.nodes, chosen.value, ss.x_even.tobytes(),
                             ss.x_odd.tobytes(), short[0][1][0].nodes, short[0][1][0].value,
                             short[0][1][1].tobytes())}
    return times, out


def check_epinions(G, ctx, out) -> list:
    verdicts = []
    sink_kinds = sorted(out["records"][i][1] for i in out["decomp"].sink_index)
    problems = []
    if sink_kinds != ["balanced", "balanced"]:
        problems.append(f"sink kinds {sink_kinds}, expected two balanced sinks")
    if out["decomp"].non_sink.size != ctx["recipe"].sizes[0]:
        problems.append(f"|X|={out['decomp'].non_sink.size}, expected {ctx['recipe'].sizes[0]}")
    verdicts.append(("classify", problems))
    verdicts.append(("svim_l", []))
    ss = out["ss"]
    verdicts.append(("steady_state", _in_unit_interval("x_even", ss.x_even)
                     + _in_unit_interval("x_odd", ss.x_odd)))
    first = out["short"][0]
    expected = maximize.evaluate_seed_set(G, first[0].nodes, "average", t=T_SHORT)
    value_problem = []
    if abs(first[0].value - expected) > 1e-9 * max(1.0, abs(expected)):
        value_problem = [f"svim_s value {first[0].value!r} != trajectory gain {expected!r}"]
    for sv, traj in out["short"]:
        problems = list(value_problem) + _in_unit_interval("trajectory", traj)
        if sv.nodes != first[0].nodes or not np.array_equal(traj, first[1]):
            problems.append("repeat differs from the first short-term result")
        verdicts.append(("shortterm", problems))
    ctx["stats"].update({"sinks": {k: sink_kinds.count(k) for k in set(sink_kinds)},
                         "non_sink": int(out["decomp"].non_sink.size)})
    return verdicts


# --- readme_simulate: CLI `simulate` with the svim_l seeds ------------------

def pass_readme(G, ctx) -> tuple[dict, dict]:
    argv = ["simulate", "--graph", str(ctx["cache"] / "graph.edges"),
            "--seeds", str(ctx["cache"] / "seeds.txt"), "--t", str(MC_T),
            "--trials", str(MC_TRIALS), "--rng-seed", str(ctx["seed"]), "--out", str(ctx["out"])]
    elapsed, rc = ctx["clock"].time(lambda: cli.main(argv))
    times = {"simulate_s": elapsed, "pass_s": elapsed,
             "mc_node_updates_per_s": MC_TRIALS * MC_T * G.n / elapsed}
    return times, {"rc": rc, "digest": _output_digest(ctx["out"], "simulation.csv")}


def check_readme(G, ctx, out) -> list:
    if out["rc"] != 0:
        return [("simulate", [f"exit code {out['rc']}"])]
    seeds = [int(tok) for tok in (ctx["cache"] / "seeds.txt").read_text().split()]
    exact = dynamics.propagate(G, graph.indicator(G.n, seeds), MC_T).sum(axis=1)
    rows = list(csv.DictReader((ctx["out"] / "simulation.csv").open(encoding="utf-8")))
    mean = np.array([float(r["mean_white"]) for r in rows])
    stderr = np.array([float(r["stderr"]) for r in rows])
    if mean.size != MC_T + 1:
        return [("simulate", [f"{mean.size} rows, expected {MC_T + 1}"])]
    return [("simulate", _mc_check(np.abs(mean - exact), stderr, ctx["notes"]))]


# --- compare_balanced: CLI `compare`, optimal vs the four baselines ---------

def pass_compare(G, ctx) -> tuple[dict, dict]:
    argv = ["compare", "--graph", str(ctx["cache"] / "graph.edges"), "--objective", "longterm",
            "--k", str(K), "--t", str(T_SHORT), "--trials", str(COMPARE_TRIALS),
            "--rng-seed", str(ctx["seed"]), "--out", str(ctx["out"])]
    elapsed, rc = ctx["clock"].time(lambda: cli.main(argv))
    return ({"compare_s": elapsed, "pass_s": elapsed},
            {"rc": rc, "digest": _output_digest(ctx["out"], "compare.csv")})


def check_compare(G, ctx, out) -> list:
    if out["rc"] != 0:
        return [("compare", [f"exit code {out['rc']}"])]
    summary = json.loads((ctx["out"] / "summary.json").read_text(encoding="utf-8"))
    influence = {name: m["steady_state_influence"] for name, m in summary["methods"].items()}
    problems = [f"{name} influence {v!r} outside [0, n]"
                for name, v in influence.items() if not 0.0 <= v <= G.n]
    problems += [f"baseline {name} beats svim: {v!r} > {influence['svim']!r}"
                 for name, v in influence.items() if v > influence["svim"] + 1e-9]
    rows = list(csv.DictReader((ctx["out"] / "compare.csv").open(encoding="utf-8")))
    gaps, errs = [], []
    for name in influence:
        gaps += [abs(float(r[f"{name}_mc_mean"]) - float(r[f"{name}_exact"])) for r in rows]
        errs += [float(r[f"{name}_mc_stderr"]) for r in rows]
    problems += _mc_check(np.array(gaps), np.array(errs), ctx["notes"])
    return [("compare", problems)]


def _mc_check(gap, stderr, notes: dict) -> list:
    """MC mean vs exact totals: |gap| <= MC_Z * stderr + 1e-9 at every step.

    Acceptance test c01 uses 3 stderr, which is sound there because its
    seeds are fixed.  Over arbitrary workload seeds a 3-stderr miss comes
    by chance: about 1 run in 100 on readme_simulate's 5 steps and about 1
    in 3 on compare_balanced's 155 table points.  At 5 stderr a chance miss
    has probability below 1e-4 per run; c01's count is still reported.
    """
    live = stderr > 0
    notes["mc_points"] = int(gap.size)
    notes["mc_worst_z"] = float((gap[live] / stderr[live]).max()) if live.any() else 0.0
    notes["mc_points_over_3_stderr"] = int((gap > 3.0 * stderr + 1e-9).sum())
    bad = np.nonzero(gap > MC_Z * stderr + 1e-9)[0]
    if bad.size:
        return [f"MC mean off exact propagate by more than {MC_Z} stderr at points "
                f"{bad.tolist()}"]
    return []


def _output_digest(out: Path, table: str) -> str:
    # manifest.json carries the wall-clock duration, so it is left out
    return _digest((out / table).read_bytes(), (out / "summary.json").read_bytes())


PASSES = {
    "epinions_longterm": (pass_epinions, check_epinions),
    "readme_simulate": (pass_readme, check_readme),
    "compare_balanced": (pass_compare, check_compare),
}


def measure(args) -> dict:
    """Parse the input at least `setups` times and for `setup_seconds` of wall
    time, then run passes for `seconds` of wall time (at least one).

    Each timed call is one attempted operation; it fails when its output
    check finds a problem or its outputs differ from those of pass 0.
    Checks run after the timed region, with tracing paused.
    """
    cache, out = Path(args.cache), Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = json.loads((cache / "meta.json").read_text(encoding="utf-8"))
    ctx = {"cache": cache, "out": out, "seed": args.seed, "notes": {},
           "recipe": _recipe(args.workload, args.seed, args.tiny),
           "stats": {k: v for k, v in meta.items() if k not in ("workload", "seed", "tiny")}}
    run_pass, check = PASSES[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    clock = ctx["clock"] = HostClock()
    setup, parsed_ok = [], []
    started = time.perf_counter()
    while (len(setup) < max(1, args.setups)
           or time.perf_counter() - started < args.setup_seconds):
        seconds, parsed = clock.time(
            lambda: graph.parse_snap((cache / "graph.edges").read_text(encoding="utf-8")))
        setup.append(seconds)
        G = parsed.graph
        parsed_ok.append((G.n, G.n_edges, G.n_negative)
                         == (meta["n"], meta["m"], meta["negative_edges"]))

    passes, digests = [], []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        if tracer:
            tracer.run_id += 1
        times, last = run_pass(G, ctx)
        passes.append(times)
        digests.append(last["digest"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.enabled = False
        tracer.write_spans(out / "spans.jsonl")
    attempted = len(setup)
    failures = [f"setup {i}: parsed graph differs from the generated one"
                for i, ok in enumerate(parsed_ok) if not ok]
    verdicts = check(G, ctx, last)  # every pass gave the same outputs, checked below
    for i, digest in enumerate(digests):
        for name, problems in verdicts:
            attempted += 1
            if digest != digests[0]:
                problems = problems + ["outputs differ from pass 0"]
            if problems:
                failures.append(f"pass {i} {name}: {'; '.join(problems)}")
    result = {
        "setup_s": setup,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failures": failures,
        "digest": digests[0],
        "stats": ctx["stats"],
        "notes": ctx["notes"],
        "wall_and_probe_s": clock.log,
    }
    if tracer:
        result["layers"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        result["spans"] = len(tracer.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["build", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(RECIPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--setup-seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(signedvoter.__file__).resolve().parents:
        print(f"signedvoter imported from {signedvoter.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.mode == "build":
        result = build(args.workload, args.seed, Path(args.cache), args.tiny)
    else:
        result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
