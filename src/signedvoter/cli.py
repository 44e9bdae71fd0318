"""Command-line front end: reproducible experiment runs with CSV/JSON output.

Subcommands: generate, classify, dynamics, simulate, maximize, compare.
Every run writes a manifest.json recording the command, parameters, seeds,
tool version and wall-clock duration; deterministic subcommands reproduce
their output files byte-for-byte when replayed.  The steady-state outputs
and oscillation_seeds' score are BLAS dots, whose bits follow the OpenBLAS
thread count; OPENBLAS_NUM_THREADS=1 pins them.

Exit codes: 0 success, 1 usage error (including a negative --rng-seed where
the command draws random numbers; all usage errors but a seed id out of
range come before --out is made or a graph read), 2 data error (parsing, a
file that is not UTF-8, graph invariants, or running out of memory) or an
internal error (any other exception, reported as one
`internal error: <Type>: <message>` line), 3 numeric failure (no
convergence, slow mixing, left [0, 1]), 130 interrupted (Ctrl-C), 141
stdout closed before all of it was written (as by `| head`).  Each error is
one line on stderr.  `python -m signedvoter.cli` runs the same command line
as the `signedvoter` script.
"""

import argparse
import csv
import json
import os
import sys
import time
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import _trajectory, steady_state
from .errors import GraphDataError, NumericFailure, SignedVoterError, SlowMixing
from .generate import generate, parse_generator_config
from .graph import SignedDigraph, indicator, parse_snap, serialize
from .maximize import (
    _CONTRIBUTIONS,
    _HEURISTICS,
    _OBJECTIVES,
    _SHORT_TERM,
    contribution_longterm,  # not called here: a name that tests patch in every namespace
    heuristic_seeds,
    oscillation_seeds,
    select_top,
    svim_l,
    svim_s,
)
from .simulate import mc_run
from .structure import BalanceKind, decompose

SCHEMAS = {
    "trajectory.csv": "trajectory.v1",
    "simulation.csv": "simulation.v1",
    "compare.csv": "compare.v1",
    "components.jsonl": "components.v1",
}

_KIND_LABEL = {
    BalanceKind.BALANCED: "Balanced",
    BalanceKind.ANTI_BALANCED: "AntiBalanced",
    BalanceKind.STRICTLY_UNBALANCED: "StrictlyUnbalanced",
}

_ADAPTIVE_CAP = 10**6  # convergence can be exponentially slow; fail loudly instead


class UsageError(Exception):
    pass


class ClosedOutput(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="signedvoter", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", help="edge-list file (src dst sign, # comments)")
        p.add_argument("--generate", dest="config",
                       help="generator config file (key = value lines)")
        p.add_argument("--repair-dangling", action="store_true",
                       help="add unit self-loops to nodes without out-edges")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")

    p = sub.add_parser("generate", help="write a synthetic graph as an edge list")
    common(p)

    p = sub.add_parser("classify", help="condense into SCCs and classify balance")
    common(p)

    p = sub.add_parser("dynamics", help="exact propagation and steady state")
    common(p)
    p.add_argument("--seeds", default="", help="comma-separated ids or a file of ids")
    p.add_argument("--t", type=int, help="steps; omit to run to the adaptive horizon")
    p.add_argument("--per-node", action="store_true",
                   help="include per-node columns (requires --t)")

    p = sub.add_parser("simulate", help="Monte Carlo trajectories")
    common(p)
    p.add_argument("--seeds", default="")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--rng-seed", type=int, default=0)

    p = sub.add_parser("maximize", help="optimal or heuristic seed selection")
    common(p)
    p.add_argument("--objective", default="longterm", choices=_OBJECTIVES)
    p.add_argument("--t", type=int, default=10, help="horizon for short-term objectives")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--baseline", choices=_HEURISTICS,
                   help="use this heuristic instead of the optimal selection")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--contributions", action="store_true",
                   help="also write the full per-node contribution CSV")

    p = sub.add_parser("compare", help="optimal selection vs all four baselines")
    common(p)
    p.add_argument("--objective", default="longterm", choices=_CONTRIBUTIONS)
    p.add_argument("--t", type=int, default=30, help="table horizon in steps")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=200,
                   help="Monte Carlo trials per method (0 disables the MC columns)")
    p.add_argument("--rng-seed", type=int, default=0)
    return parser


def _read_text(path) -> str:
    """The text of a UTF-8 input file; a byte that does not decode is a data error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphDataError(f"{path}: not UTF-8 at byte offset {exc.start}") from None


def _check_usage(args) -> None:
    """Reject every usage error that needs no graph, before --out is made or a graph read."""
    low = {"k": 0, "trials": 1 if args.command == "simulate" else 0}
    if args.command != "maximize" or (args.baseline and _HEURISTICS[args.baseline] is None):
        low["rng_seed"] = 0  # among maximize runs only a baseline without a score draws
    if args.command != "maximize":  # maximize reads --t only for short-term objectives
        low["t"] = 0
    short_term = getattr(args, "objective", None) in _SHORT_TERM
    if short_term and not getattr(args, "baseline", None):
        low["t"] = 1
    for name, bound in low.items():
        value = getattr(args, name, None)
        if value is not None and value < bound:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {bound}, got {value}")
    if args.graph and args.config:
        raise UsageError("--graph and --generate are mutually exclusive")
    if args.command == "generate" and not args.config:
        raise UsageError("generate needs --generate CONFIG")
    if not (args.graph or args.config):
        raise UsageError("one of --graph or --generate is required")
    if getattr(args, "per_node", False) and args.t is None:
        raise UsageError("--per-node requires --t")
    args.seed_ids = _seed_ids(getattr(args, "seeds", ""))  # only their range waits for the graph


def _load_graph(args) -> SignedDigraph:
    if args.graph:
        return parse_snap(_read_text(args.graph), repair_dangling=args.repair_dangling).graph
    return generate(parse_generator_config(_read_text(args.config)))


def _seed_ids(value: str) -> list:
    """The sorted distinct ids of a --seeds list, or of the file it names."""
    value = value.strip()
    if not value:
        return []
    tokens = value.replace(",", " ").split()
    path = Path(value)
    if not all(tok.isdigit() for tok in tokens) and path.exists():  # an id list is never a path
        tokens = _read_text(path).split()
    try:
        return sorted({int(tok) for tok in tokens})
    except ValueError:
        raise UsageError(f"seed list {value!r} contains a non-integer") from None


def _seeds_in(args, n: int) -> list:
    if args.seed_ids and (args.seed_ids[0] < 0 or args.seed_ids[-1] >= n):
        raise UsageError(f"seed id out of range 0..{n - 1}")
    return args.seed_ids


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list, rows):
    """Write to a temporary file that replaces `path` only after the last row."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _cmd_generate(args, G: SignedDigraph, out: Path) -> None:
    (out / "graph.edges").write_text(serialize(G), encoding="utf-8")
    _write_json(out / "graph.json",
                {"n": G.n, "edges": G.n_edges, "negative_edges": G.n_negative})


def _balance_record(bal) -> dict:
    """Kind label and partition sizes of a BalanceClass (None: periodic)."""
    if bal is None:
        return {"kind": "Periodic", "s_size": 0, "sbar_size": 0}
    return {"kind": _KIND_LABEL[bal.kind], "s_size": bal.size_s, "sbar_size": bal.size_sbar}


def _cmd_classify(args, G: SignedDigraph, out: Path) -> None:
    decomp = decompose(G)
    sink_set = set(decomp.sink_index)
    records = []
    for cid, comp in enumerate(decomp.components):
        facts = decomp.analysis(cid)
        records.append({
            "component_id": cid,
            "size": int(comp.size),
            "sink": cid in sink_set,
            "aperiodic": facts.aperiodic,
            **_balance_record(facts.balance),
        })
    lines = [json.dumps(r, sort_keys=True) for r in records]
    (out / "components.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        raise ClosedOutput("stdout was closed before all records were written") from None


def _steady_record(G: SignedDigraph, x0) -> dict:
    ss = steady_state(G, x0)
    return {
        "kind": ss.kind,
        "n": G.n,
        "white_even_total": float(ss.x_even.sum()),
        "white_odd_total": float(ss.x_odd.sum()),
        "white_average_total": float(ss.average.sum()),
        "non_sink_size": int(ss.non_sink.size),
        "sinks": [
            {"size": int(sink.nodes.size), "alignment": align, **_balance_record(sink.balance)}
            for sink, align in zip(ss.sinks, ss.alignment)
        ],
    }


def _cmd_dynamics(args, G: SignedDigraph, out: Path) -> None:
    seeds = _seeds_in(args, G.n)
    x0 = indicator(G.n, seeds)
    # first: a periodic sink fails here, not after the adaptive loop's cap
    steady = _steady_record(G, x0)
    width = G.n if args.per_node else 0
    header = ["step", "total_white_expectation"] + [f"x{j}" for j in range(width)]
    _write_csv(out / "trajectory.csv", header, _trajectory_rows(G, x0, args.t, width))
    _write_json(out / "steady_state.json", steady)


def _trajectory_rows(G: SignedDigraph, x0, t, width: int):
    """Each row as its step is made: through step t, or to the same-parity test."""
    lag2 = lag1 = None
    for k, x in enumerate(_trajectory(G, x0)):
        yield [k, _fmt(x.sum()), *map(_fmt, x[:width])]
        if k == t or (t is None and k >= 2 and np.abs(x - lag2).max() <= 1e-9):
            return
        if t is None and k >= _ADAPTIVE_CAP:
            raise SlowMixing(f"dynamics: no convergence within {_ADAPTIVE_CAP} steps")
        lag2, lag1 = lag1, x


def _cmd_simulate(args, G: SignedDigraph, out: Path) -> None:
    seeds = _seeds_in(args, G.n)
    stats = mc_run(G, seeds, args.t, args.trials, args.rng_seed)
    rows = [[k, _fmt(stats.mean[k]), _fmt(stats.stderr[k])] for k in range(args.t + 1)]
    _write_csv(out / "simulation.csv", ["step", "mean_white", "stderr"], rows)
    _write_json(out / "summary.json", {
        "trials": stats.trials,
        "rng_seed": stats.rng_seed,
        "steps": stats.steps,
        "seed_count": len(seeds),
        "final_mean": float(stats.mean[-1]),
        "final_stderr": float(stats.stderr[-1]),
    })


def _cmd_maximize(args, G: SignedDigraph, out: Path) -> None:
    cv = None
    if args.baseline:
        chosen = heuristic_seeds(G, args.k, args.baseline, rng_seed=args.rng_seed)
    elif args.objective == "oscillation":
        chosen = oscillation_seeds(G, args.k)
    else:
        cv = _CONTRIBUTIONS[args.objective](G, args.t)
        chosen = select_top(cv, args.k)
    _write_json(out / "seeds.json", {
        "objective": chosen.objective,
        "k": args.k,
        "t": args.t if args.objective in _SHORT_TERM else None,
        "seeds": chosen.nodes,
        "count": len(chosen.nodes),
        "value": chosen.value,
    })
    if args.contributions and cv is not None:
        rows = [[i, _fmt(cv.c[i])] for i in range(G.n)]
        _write_csv(out / "contributions.csv", ["node", "contribution"], rows)


def _cmd_compare(args, G: SignedDigraph, out: Path) -> None:
    if args.objective == "longterm":
        svim = svim_l(G, args.k)
    else:
        svim = svim_s(G, args.t, args.k, mode=args.objective)
    methods = [("svim", svim)]
    for kind in _HEURISTICS:
        methods.append((kind, heuristic_seeds(G, args.k, kind, rng_seed=args.rng_seed)))

    exact = {}
    steady_influence = {}
    mc = {}
    for idx, (name, seed_set) in enumerate(methods):
        x0 = indicator(G.n, seed_set.nodes)
        exact[name] = [x.sum() for x in islice(_trajectory(G, x0), args.t + 1)]
        steady_influence[name] = float(steady_state(G, x0).average.sum())
        if args.trials > 0:
            mc[name] = mc_run(G, seed_set.nodes, args.t, args.trials, args.rng_seed + idx)

    header = ["step"] + [f"{n}_exact" for n in exact]
    header += [f"{name}_mc_{stat}" for name in mc for stat in ("mean", "stderr")]
    rows = [[k] + [_fmt(exact[name][k]) for name in exact]
            + [_fmt(v) for name in mc for v in (mc[name].mean[k], mc[name].stderr[k])]
            for k in range(args.t + 1)]
    _write_csv(out / "compare.csv", header, rows)
    _write_json(out / "summary.json", {
        "objective": args.objective,
        "k": args.k,
        "t": args.t,
        "trials": args.trials,
        "methods": {
            name: {
                "seed_count": len(seed_set.nodes),
                "value": seed_set.value,
                "steady_state_influence": steady_influence[name],
                "final_exact": float(exact[name][-1]),
            }
            for name, seed_set in methods
        },
    })


_COMMANDS = {
    "generate": _cmd_generate,
    "classify": _cmd_classify,
    "dynamics": _cmd_dynamics,
    "simulate": _cmd_simulate,
    "maximize": _cmd_maximize,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        _check_usage(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](args, _load_graph(args), out)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ClosedOutput as exc:
        # what stdout still buffers would fail again at exit, in a second message
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        print(f"output error: {exc}", file=sys.stderr)
        return 141
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, SignedVoterError) as exc:  # every other package error is about the input
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # the input asks for more memory than there is
        print("data error: out of memory", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: fail closed with one line, not a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    params = {k: v for k, v in vars(args).items() if k not in ("command", "out", "seed_ids")}
    _write_json(out / "manifest.json", {
        "command": args.command,
        "graph_source": params.get("graph") or params.get("config") or "",
        "parameters": params,
        "rng_seed": params.get("rng_seed"),
        "version": __version__,
        "duration_seconds": round(time.perf_counter() - started, 6),
        "schemas": SCHEMAS,
    })
    return 0


def run():  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
