"""CLI subcommands: outputs, schemas, manifests, reproducibility, exit codes."""

import contextlib
import gc
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signedvoter as sv
from signedvoter import cli, dynamics, maximize, structure
from signedvoter.cli import main

from helpers import random_graph, ring_graph

BAL_CFG = "family = balanced\nsizes = 6, 9\nedges_per_node = 3\nseed = 11\n"
WC_CFG = "family = weakly_connected\nsizes = 5, 4, 6, 4, 7\nedges_per_node = 2\nseed = 4\n"


@pytest.fixture
def bal_cfg(tmp_path):
    p = tmp_path / "bal.cfg"
    p.write_text(BAL_CFG)
    return str(p)


@pytest.fixture
def wc_graph(tmp_path):
    cfg = tmp_path / "wc.cfg"
    cfg.write_text(WC_CFG)
    out = tmp_path / "gen"
    assert main(["generate", "--generate", str(cfg), "--out", str(out)]) == 0
    return str(out / "graph.edges")


def test_generate_writes_graph_and_manifest(bal_cfg, tmp_path):
    out = tmp_path / "g"
    assert main(["generate", "--generate", bal_cfg, "--out", str(out)]) == 0
    edges = (out / "graph.edges").read_text()
    parsed = sv.parse_snap(edges)
    assert parsed.graph.n == 15
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["version"] == sv.__version__
    assert manifest["duration_seconds"] >= 0
    meta = json.loads((out / "graph.json").read_text())
    assert meta["n"] == 15 and meta["edges"] == parsed.graph.n_edges


def test_classify_records(wc_graph, tmp_path, capsys):
    out = tmp_path / "cls"
    assert main(["classify", "--graph", wc_graph, "--out", str(out)]) == 0
    records = [json.loads(line) for line in
               (out / "components.jsonl").read_text().splitlines()]
    assert len(records) == 3
    by_sink = {r["component_id"]: r for r in records}
    assert by_sink[0]["sink"] is False
    assert by_sink[0]["kind"] == "StrictlyUnbalanced"
    for cid in (1, 2):
        assert by_sink[cid]["sink"] is True
        assert by_sink[cid]["kind"] == "Balanced"
        assert by_sink[cid]["s_size"] + by_sink[cid]["sbar_size"] == by_sink[cid]["size"]


def test_dynamics_fixed_horizon(wc_graph, tmp_path):
    out = tmp_path / "dyn"
    assert main(["dynamics", "--graph", wc_graph, "--seeds", "0,5,9",
                 "--t", "8", "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "step,total_white_expectation"
    assert len(lines) == 10
    G = sv.parse_snap(Path(wc_graph).read_text()).graph
    expect = sv.propagate(G, sv.indicator(G.n, [0, 5, 9]), 8).sum(axis=1)
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(got, expect, atol=1e-9)
    record = json.loads((out / "steady_state.json").read_text())
    assert record["kind"] == "fixed"
    assert record["n"] == G.n
    ss = sv.steady_state(G, sv.indicator(G.n, [0, 5, 9]))
    assert record["white_average_total"] == pytest.approx(ss.average.sum())


def test_dynamics_adaptive_horizon(wc_graph, tmp_path):
    out = tmp_path / "dyn2"
    assert main(["dynamics", "--graph", wc_graph, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()[1:]
    G = sv.parse_snap(Path(wc_graph).read_text()).graph
    ss = sv.steady_state(G, np.zeros(G.n))
    final = float(lines[-1].split(",")[1])
    assert final == pytest.approx(ss.average.sum(), abs=1e-5)


def test_dynamics_per_node_requires_t(wc_graph, tmp_path):
    assert main(["dynamics", "--graph", wc_graph, "--per-node",
                 "--out", str(tmp_path / "x")]) == 1


def test_dynamics_per_node_columns_and_seed_file(wc_graph, tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0\n5\n9\n")
    out = tmp_path / "pn"
    assert main(["dynamics", "--graph", wc_graph, "--seeds", str(seeds),
                 "--t", "3", "--per-node", "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    G = sv.parse_snap(Path(wc_graph).read_text()).graph
    assert lines[0].split(",")[:2] == ["step", "total_white_expectation"]
    assert len(lines[0].split(",")) == 2 + G.n
    row0 = lines[1].split(",")
    assert [float(v) for v in row0[2:]] == sv.indicator(G.n, [0, 5, 9]).tolist()


def test_simulate_csv(wc_graph, tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--graph", wc_graph, "--seeds", "1,2", "--t", "5",
                 "--trials", "500", "--rng-seed", "9", "--out", str(out)]) == 0
    lines = (out / "simulation.csv").read_text().splitlines()
    assert lines[0] == "step,mean_white,stderr"
    assert len(lines) == 7
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 500 and summary["rng_seed"] == 9


def test_maximize_longterm_and_contributions(wc_graph, tmp_path):
    out = tmp_path / "mx"
    assert main(["maximize", "--graph", wc_graph, "--objective", "longterm",
                 "--k", "3", "--contributions", "--out", str(out)]) == 0
    payload = json.loads((out / "seeds.json").read_text())
    G = sv.parse_snap(Path(wc_graph).read_text()).graph
    expect = sv.svim_l(G, 3)
    assert payload["seeds"] == expect.nodes
    assert payload["value"] == pytest.approx(expect.value)
    rows = (out / "contributions.csv").read_text().splitlines()
    assert rows[0] == "node,contribution" and len(rows) == G.n + 1


def test_dynamics_strictly_unbalanced_settles_at_half(tmp_path):
    cfg = tmp_path / "su.cfg"
    cfg.write_text("family = strictly_unbalanced\nsizes = 8, 12\nedges_per_node = 3\nseed = 3\n")
    out = tmp_path / "su"
    assert main(["dynamics", "--generate", str(cfg), "--out", str(out)]) == 0
    final = float((out / "trajectory.csv").read_text().splitlines()[-1].split(",")[1])
    assert abs(final - 10.0) <= 1e-6 * 20


def test_maximize_oscillation_objective(tmp_path):
    cfg = tmp_path / "ab.cfg"
    cfg.write_text("family = anti_balanced\nsizes = 5, 8\nedges_per_node = 3\nseed = 2\n")
    out = tmp_path / "osc"
    assert main(["maximize", "--generate", str(cfg), "--objective", "oscillation",
                 "--k", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "seeds.json").read_text())
    assert payload["objective"] == "oscillation"
    assert payload["value"] > 0
    # non-oscillating graph: the objective is a data error
    bal = tmp_path / "bal2.cfg"
    bal.write_text(BAL_CFG)
    assert main(["maximize", "--generate", str(bal), "--objective", "oscillation",
                 "--k", "2", "--out", str(tmp_path / "osc2")]) == 2


def test_maximize_baseline(wc_graph, tmp_path):
    out = tmp_path / "mb"
    assert main(["maximize", "--graph", wc_graph, "--baseline", "out_degree",
                 "--k", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "seeds.json").read_text())
    assert payload["objective"] == "heuristic:out_degree"
    assert len(payload["seeds"]) == 2


def test_compare_table_and_summary(wc_graph, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--graph", wc_graph, "--objective", "longterm",
                 "--k", "3", "--t", "12", "--trials", "60",
                 "--rng-seed", "1", "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "step"
    for name in ("svim", "out_degree", "positive_out_degree", "degree_difference", "random"):
        assert f"{name}_exact" in header
        assert f"{name}_mc_mean" in header
    assert len(lines) == 14
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["methods"]) == {
        "svim", "out_degree", "positive_out_degree", "degree_difference", "random"}
    for record in summary["methods"].values():
        assert "steady_state_influence" in record


def test_replay_reproduces_outputs(bal_cfg, tmp_path):
    args = ["maximize", "--generate", bal_cfg, "--objective", "longterm", "--k", "4"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("seeds.json",):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # simulate is Monte Carlo but still byte-stable for a fixed seed
    sim = ["simulate", "--generate", bal_cfg, "--seeds", "2,3", "--t", "4",
           "--trials", "400", "--rng-seed", "5"]
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    assert main(sim + ["--out", str(s1)]) == 0
    assert main(sim + ["--out", str(s2)]) == 0
    assert (s1 / "simulation.csv").read_bytes() == (s2 / "simulation.csv").read_bytes()


def test_golden_dynamics_csv(tmp_path):
    # frozen bytes for a fixed tiny graph: schema changes must be deliberate
    graph = tmp_path / "tiny.edges"
    graph.write_text("0 1 1\n1 0 -1\n1 1 1\n")
    out = tmp_path / "gold"
    assert main(["dynamics", "--graph", str(graph), "--seeds", "0",
                 "--t", "3", "--out", str(out)]) == 0
    # hand-derived: x1 = [0, 0], x2 = [0, 1/2], x3 = [1/2, 3/4]
    golden = (
        "step,total_white_expectation\r\n"
        "0,1\r\n"
        "1,0\r\n"
        "2,0.5\r\n"
        "3,1.25\r\n"
    )
    assert (out / "trajectory.csv").read_bytes() == golden.encode()


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1 oops\n")
    assert main(["classify", "--graph", str(bad), "--out", str(tmp_path / "a")]) == 2
    assert main(["classify", "--out", str(tmp_path / "b")]) == 1
    assert main(["classify", "--graph", "x", "--badflag"]) == 1
    assert main(["classify", "--graph", str(tmp_path / "missing.edges"),
                 "--out", str(tmp_path / "m")]) == 2
    dangling = tmp_path / "dang.edges"
    dangling.write_text("0 1 1\n")
    assert main(["classify", "--graph", str(dangling), "--out", str(tmp_path / "c")]) == 2
    assert main(["classify", "--graph", str(dangling), "--repair-dangling",
                 "--out", str(tmp_path / "d")]) == 0
    # periodic sink component: long-term objective is a data error
    per = tmp_path / "per.edges"
    per.write_text("0 1 1\n1 2 1\n2 1 1\n")
    assert main(["maximize", "--graph", str(per), "--objective", "longterm",
                 "--k", "1", "--out", str(tmp_path / "e")]) == 2



def test_exit_code_numeric_failure(tmp_path, monkeypatch):
    # slow-mixing graph with a tightened cap: the numeric gate exits 3
    import signedvoter.cli as cli
    monkeypatch.setattr(cli, "_ADAPTIVE_CAP", 50)
    slow = tmp_path / "slow.edges"
    slow.write_text(sv.serialize(sv.slow_mixing(12)))
    assert main(["dynamics", "--graph", str(slow), "--seeds", "0",
                 "--out", str(tmp_path / "f")]) == 3


def test_dynamics_periodic_sink_fails_before_the_adaptive_loop(tmp_path, capsys):
    # a period-3 sink never passes the same-parity test; the steady state rejects it first
    cycle = tmp_path / "cycle.edges"
    cycle.write_text("0 1 1\n1 2 1\n2 0 1")
    out = tmp_path / "p"
    assert main(["dynamics", "--graph", str(cycle), "--seeds", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "data error: sink component containing node 0 is periodic\n"
    assert not (out / "trajectory.csv").exists()


def test_usage_error_on_bad_seeds(wc_graph, tmp_path):
    assert main(["dynamics", "--graph", wc_graph, "--seeds", "0,zap",
                 "--t", "2", "--out", str(tmp_path / "x")]) == 1
    assert main(["dynamics", "--graph", wc_graph, "--seeds", "999",
                 "--t", "2", "--out", str(tmp_path / "y")]) == 1


def test_compare_analyses_each_sink_once(tmp_path, monkeypatch):
    cfg = Path(__file__).parent.parent / "configs" / "weakly_connected.cfg"
    G = sv.generate(sv.parse_generator_config(cfg.read_text()))
    graph = tmp_path / "wc.edges"
    graph.write_text(sv.serialize(G))
    calls = {}
    for name in ("stationary", "classify_balance"):
        original = getattr(structure, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        for module in (structure, dynamics, maximize, cli):  # every importing namespace
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert main(["compare", "--graph", str(graph), "--k", "20", "--t", "3", "--trials", "0",
                 "--out", str(tmp_path / "out")]) == 0
    sinks = len(sv.decompose(G).sinks)
    assert calls == {"stationary": sinks, "classify_balance": sinks}


@pytest.mark.parametrize("argv", [
    ["maximize", "--k", "-1"],
    ["maximize", "--objective", "instant", "--t", "0", "--k", "2"],
    ["maximize", "--objective", "average", "--t", "0", "--k", "2"],
    ["compare", "--objective", "instant", "--t", "0", "--k", "2", "--trials", "0"],
    ["compare", "--objective", "average", "--t", "0", "--k", "2", "--trials", "0"],
    ["compare", "--t", "-1", "--k", "2", "--trials", "0"],
    ["compare", "--k", "-1", "--trials", "0"],
    ["compare", "--trials", "-3", "--k", "2", "--t", "2"],
    ["dynamics", "--t", "-2"],
    ["simulate", "--t", "-1", "--trials", "5"],
    ["simulate", "--t", "2", "--trials", "0"],
])
def test_out_of_range_numbers_are_usage_errors(wc_graph, tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--graph", wc_graph, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --") and err.count("\n") == 1
    assert not out.exists()  # rejected before any work or output


@pytest.mark.parametrize("argv", [
    ["maximize", "--objective", "longterm", "--t", "0", "--k", "2"],
    ["maximize", "--baseline", "out_degree", "--objective", "instant", "--t", "0", "--k", "2"],
    ["compare", "--t", "0", "--k", "2", "--trials", "3"],
    ["dynamics", "--t", "0"],
    ["simulate", "--t", "0", "--trials", "1"],
])
def test_boundary_numbers_stay_valid(wc_graph, tmp_path, argv):
    assert main(argv + ["--graph", wc_graph, "--out", str(tmp_path / "o")]) == 0


def test_seed_id_list_is_never_a_path(wc_graph, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "5").write_text("1 2\n")  # a file whose name is also an id list
    out_ids, out_file = tmp_path / "ids", tmp_path / "file"
    assert main(["dynamics", "--graph", wc_graph, "--seeds", "5", "--t", "0",
                 "--out", str(out_ids)]) == 0
    assert main(["dynamics", "--graph", wc_graph, "--seeds", "./5", "--t", "0",
                 "--out", str(out_file)]) == 0
    assert (out_ids / "trajectory.csv").read_text().splitlines()[1] == "0,1"
    assert (out_file / "trajectory.csv").read_text().splitlines()[1] == "0,2"


def test_unit_interval_escape_exits_numeric(wc_graph, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "apply_p", lambda G, v: v + 5.0)
    assert main(["dynamics", "--graph", wc_graph, "--seeds", "0", "--t", "2",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


def test_maximize_contributions_computed_once(wc_graph, tmp_path, monkeypatch):
    calls = []
    original = maximize.contribution_longterm

    def counted(G):
        calls.append(G)
        return original(G)

    for module in (cli, maximize):
        monkeypatch.setattr(module, "contribution_longterm", counted)
    out = tmp_path / "o"
    assert main(["maximize", "--graph", wc_graph, "--objective", "longterm", "--k", "3",
                 "--contributions", "--out", str(out)]) == 0
    assert len(calls) == 1
    G = sv.parse_snap(Path(wc_graph).read_text()).graph
    assert json.loads((out / "seeds.json").read_text())["seeds"] == sv.svim_l(G, 3).nodes
    assert len((out / "contributions.csv").read_text().splitlines()) == G.n + 1


# strictly unbalanced non-sink {0,1,2} feeding a balanced sink {3,4,5}, an
# anti-balanced sink {6,7,8} and a periodic sink {9,10}
MIXED_EDGES = """\
0 0 1
0 1 1
0 9 1
1 2 1
1 3 1
2 0 -1
2 6 -1
3 3 1
3 4 1
4 3 1
4 5 -1
5 4 -1
6 6 -1
6 7 -1
7 6 -1
7 8 1
8 7 1
9 10 1
10 9 1
"""


def test_golden_components_jsonl(tmp_path):
    graph = tmp_path / "mixed.edges"
    graph.write_text(MIXED_EDGES)
    out = tmp_path / "cls"
    assert main(["classify", "--graph", str(graph), "--out", str(out)]) == 0
    golden = (
        '{"aperiodic": true, "component_id": 0, "kind": "StrictlyUnbalanced", '
        '"s_size": 0, "sbar_size": 0, "sink": false, "size": 3}\n'
        '{"aperiodic": true, "component_id": 1, "kind": "Balanced", '
        '"s_size": 2, "sbar_size": 1, "sink": true, "size": 3}\n'
        '{"aperiodic": true, "component_id": 2, "kind": "AntiBalanced", '
        '"s_size": 2, "sbar_size": 1, "sink": true, "size": 3}\n'
        '{"aperiodic": false, "component_id": 3, "kind": "Periodic", '
        '"s_size": 0, "sbar_size": 0, "sink": true, "size": 2}\n'
    )
    assert (out / "components.jsonl").read_bytes() == golden.encode()


@pytest.mark.parametrize("argv", [
    ["simulate", "--t", "2", "--trials", "5", "--rng-seed", "-1"],
    ["compare", "--k", "2", "--t", "2", "--trials", "0", "--rng-seed", "-1"],
    ["maximize", "--baseline", "random", "--k", "2", "--rng-seed", "-1"],
])
def test_negative_rng_seed_is_usage_error(wc_graph, tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--graph", wc_graph, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: --rng-seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["maximize", "--k", "2", "--rng-seed", "-1"],
    ["maximize", "--baseline", "out_degree", "--k", "2", "--rng-seed", "-1"],
])
def test_negative_rng_seed_stays_valid_without_random_draws(wc_graph, tmp_path, argv):
    assert main(argv + ["--graph", wc_graph, "--out", str(tmp_path / "o")]) == 0


def test_unexpected_exception_is_one_line_internal_error(wc_graph, tmp_path, capsys,
                                                         monkeypatch):
    def broken(G):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(cli, "decompose", broken)
    assert main(["classify", "--graph", wc_graph, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "internal error: RuntimeError: broken invariant\n"


def test_oversized_id_is_a_data_error(tmp_path, capsys):
    graph = tmp_path / "big.edges"
    graph.write_text("0 1 1\n1 0 1\n99999999999999999999 1 1\n")
    assert main(["classify", "--graph", str(graph), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "data error: line 3: field outside the int64 range in '99999999999999999999 1 1'\n")


# MIXED_EDGES without its periodic sink: a strictly unbalanced non-sink
# {0,1,2} feeding a balanced sink {3,4,5} and an anti-balanced sink {6,7,8}
LONGTERM_EDGES = "".join(line + "\n" for line in MIXED_EDGES.splitlines()
                         if line not in ("0 9 1", "9 10 1", "10 9 1"))


def test_golden_longterm_outputs(tmp_path):
    # frozen bytes: their last bits come from the coupling solves
    graph = tmp_path / "longterm.edges"
    graph.write_text(LONGTERM_EDGES)
    runs = {
        "dyn": ["dynamics", "--seeds", "0,3,7"],
        "max": ["maximize", "--objective", "longterm", "--k", "2", "--contributions"],
        "cmp": ["compare", "--k", "2", "--t", "3", "--trials", "0"],
    }
    for name, argv in runs.items():
        assert main(argv + ["--graph", str(graph), "--out", str(tmp_path / name)]) == 0
    golden = {
        "dyn/steady_state.json": (
            '{\n'
            '  "kind": "oscillating",\n'
            '  "n": 9,\n'
            '  "non_sink_size": 3,\n'
            '  "sinks": [\n'
            '    {\n'
            '      "alignment": 0.10000000000000012,\n'
            '      "kind": "Balanced",\n'
            '      "s_size": 2,\n'
            '      "sbar_size": 1,\n'
            '      "size": 3\n'
            '    },\n'
            '    {\n'
            '      "alignment": 0.09999999999999995,\n'
            '      "kind": "AntiBalanced",\n'
            '      "s_size": 2,\n'
            '      "sbar_size": 1,\n'
            '      "size": 3\n'
            '    }\n'
            '  ],\n'
            '  "white_average_total": 4.66000000000002,\n'
            '  "white_even_total": 4.79636363636369,\n'
            '  "white_odd_total": 4.52363636363635\n'
            '}\n'
        ),
        "max/seeds.json": (
            '{\n'
            '  "count": 2,\n'
            '  "k": 2,\n'
            '  "objective": "longterm",\n'
            '  "seeds": [\n'
            '    3,\n'
            '    4\n'
            '  ],\n'
            '  "t": null,\n'
            '  "value": 1.2800000000001597\n'
            '}\n'
        ),
        "max/contributions.csv": (
            'node,contribution\r\n'
            '0,0\r\n'
            '1,0\r\n'
            '2,0\r\n'
            '3,0.64\r\n'
            '4,0.64\r\n'
            '5,-0.32\r\n'
            '6,0\r\n'
            '7,0\r\n'
            '8,0\r\n'
        ),
        "cmp/summary.json": (
            '{\n'
            '  "k": 2,\n'
            '  "methods": {\n'
            '    "degree_difference": {\n'
            '      "final_exact": 4.125,\n'
            '      "seed_count": 2,\n'
            '      "steady_state_influence": 4.01999999999994,\n'
            '      "value": 4.0\n'
            '    },\n'
            '    "out_degree": {\n'
            '      "final_exact": 4.125,\n'
            '      "seed_count": 2,\n'
            '      "steady_state_influence": 4.01999999999994,\n'
            '      "value": 4.0\n'
            '    },\n'
            '    "positive_out_degree": {\n'
            '      "final_exact": 4.125,\n'
            '      "seed_count": 2,\n'
            '      "steady_state_influence": 4.01999999999994,\n'
            '      "value": 4.0\n'
            '    },\n'
            '    "random": {\n'
            '      "final_exact": 3.0,\n'
            '      "seed_count": 2,\n'
            '      "steady_state_influence": 3.6999999999999003,\n'
            '      "value": 0.0\n'
            '    },\n'
            '    "svim": {\n'
            '      "final_exact": 5.625,\n'
            '      "seed_count": 2,\n'
            '      "steady_state_influence": 5.3000000000001,\n'
            '      "value": 1.2800000000001597\n'
            '    }\n'
            '  },\n'
            '  "objective": "longterm",\n'
            '  "t": 3,\n'
            '  "trials": 0\n'
            '}\n'
        ),
    }
    for path, text in golden.items():
        assert (tmp_path / path).read_bytes() == text.encode(), path


def _many_sinks_edges(m=300, dangling=300, s=60):
    """A feeder SCC of m nodes (a ring with chords) with one out-edge to each
    of `dangling` nodes that have none, repaired into singleton sinks, and a
    balanced, aperiodic sink of s nodes that every tenth feeder node reaches
    by three edges.  No sink has over 10,000 nodes, so every dot of the
    steady state is one BLAS call on one thread."""
    rng = np.random.default_rng(13)
    edges = [(v, (v + off) % m, 1 if rng.random() < 0.7 else -1)
             for v in range(m) for off in (1, 2, 5)]
    edges += [(j % m, m + j, 1 if rng.random() < 0.8 else -1) for j in range(dangling)]
    base = m + dangling  # the sink's even nodes are S, its odd ones S-bar
    edges += [(base + i, base + (i + off) % s, 1 if off == 2 else -1)
              for i in range(s) for off in (1, 2)]
    edges += [(v, base + int(i), 1 if rng.random() < 0.6 else -1)
              for v in range(0, m, 10) for i in rng.choice(s, 3, replace=False)]
    return sv.serialize(sv.from_edge_list(edges, repair_dangling=True))


def test_golden_many_sinks_outputs(tmp_path):
    """Frozen bytes on 301 sinks, 300 of them repaired singletons: the coupling
    blocks cut per sink and the solves over them."""
    graph = tmp_path / "many_sinks.edges"
    graph.write_text(_many_sinks_edges())
    d = sv.decompose(sv.parse_snap(graph.read_text()).graph)
    assert len(d.sinks) == 301 and d.non_sink.size == 300
    runs = {
        "dyn": ["dynamics", "--seeds", "0,7,300,601,610", "--t", "30"],
        "max": ["maximize", "--objective", "longterm", "--k", "20", "--contributions"],
        "cmp": ["compare", "--k", "20", "--t", "5", "--trials", "0"],
    }
    for name, argv in runs.items():
        assert main(argv + ["--graph", str(graph), "--out", str(tmp_path / name)]) == 0
    golden = {
        "max/seeds.json":
            "a830c91c27a4f0f180218c3924bc23999d0855695ffc614332aa2db766484bd2",
        "max/contributions.csv":
            "0bf8d49356db5cb38d4420fc33252621381b51aefb9fd1240aef09a28a910db4",
        "dyn/steady_state.json":
            "af65b55571e171a9a06d594c8e928945a415e4098a455928633e9f599af3d2e4",
        "cmp/summary.json":
            "04e89f939ea4130012500be432ccf995a0ae23ab155d8496986dfa8261ae151f",
        "cmp/compare.csv":
            "a969a2eb026017554246e977d7615eb3858b897f80b5372fa0cc738139921a3d",
    }
    for path, digest in golden.items():
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == digest, path


def test_generate_rejects_two_graph_sources(bal_cfg, wc_graph, tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["generate", "--graph", wc_graph, "--generate", bal_cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: --graph and --generate are mutually exclusive\n"
    assert not (out / "graph.edges").exists()


def test_generate_needs_a_config(wc_graph, tmp_path, capsys):
    """generate writes the graph a config makes; a graph file alone is a usage error."""
    out = tmp_path / "g"
    assert main(["generate", "--graph", wc_graph, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: generate needs --generate CONFIG\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["classify"], "one of --graph or --generate is required"),
    (["classify", "--graph", "{graph}", "--generate", "{config}"],
     "--graph and --generate are mutually exclusive"),
    (["generate", "--graph", "{graph}"], "generate needs --generate CONFIG"),
    (["dynamics", "--graph", "{graph}", "--per-node"], "--per-node requires --t"),
])
def test_usage_errors_come_before_any_file_is_read_or_written(tmp_path, capsys, monkeypatch,
                                                               argv, message):
    graph, config, out = tmp_path / "g.edges", tmp_path / "g.cfg", tmp_path / "o"
    graph.write_text("0 1 1\n1 0 1\n")
    config.write_text(BAL_CFG)

    def no_input(*args, **kwargs):
        raise AssertionError("the input was read before the usage check")

    monkeypatch.setattr(cli, "parse_snap", no_input)
    monkeypatch.setattr(cli, "generate", no_input)
    argv = [a.format(graph=graph, config=config) for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_stalled_edge_sampling_is_a_data_error(tmp_path, capsys):
    # 20 cross edges between two parts of 3 nodes, which have 9 pairs each way
    cfg = tmp_path / "dense.cfg"
    cfg.write_text("family = balanced\nsizes = 3, 3\nedges_per_node = 2\n"
                   "cross_edges = 20\nretries = 1\n")
    out = tmp_path / "o"
    assert main(["generate", "--generate", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("data error: retries exhausted: edge sampling stalled; "
                                       "graph too dense for request\n")
    assert not (out / "graph.edges").exists()


@pytest.mark.parametrize("line, message", [
    ("seed = -1", "seed must be >= 0, got -1"),
    ("cross_edges = -5", "cross_edges must be >= 0, got -5"),
    ("link_edges = -1", "link_edges must be >= 0, got -1"),
    ("retries = 0", "retries must be >= 1, got 0"),
])
def test_out_of_range_config_values_are_data_errors(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(WC_CFG + line + "\n")
    assert main(["generate", "--generate", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


@pytest.mark.parametrize("which", ["graph", "config", "seeds"])
def test_file_that_is_not_utf8_is_a_data_error(wc_graph, tmp_path, capsys, which):
    bad = tmp_path / "bad.txt"
    good = {"graph": Path(wc_graph).read_bytes(), "config": WC_CFG.encode(), "seeds": b"0\n1\n"}
    bad.write_bytes(good[which] + b"\xff\n")
    argv = {
        "graph": ["classify", "--graph", str(bad)],
        "config": ["classify", "--generate", str(bad)],
        "seeds": ["dynamics", "--graph", wc_graph, "--seeds", str(bad), "--t", "1"],
    }[which]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"data error: {bad}: not UTF-8 at byte offset {len(good[which])}\n")


def test_out_of_memory_is_a_one_line_data_error(wc_graph, tmp_path, capsys, monkeypatch):
    def exhausted(G, x0):
        raise MemoryError

    monkeypatch.setattr(cli, "_trajectory", exhausted)
    assert main(["dynamics", "--graph", wc_graph, "--t", "3",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "data error: out of memory\n"


def test_compare_average_objective_end_to_end(wc_graph, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--graph", wc_graph, "--objective", "average", "--k", "3",
                 "--t", "6", "--trials", "0", "--out", str(out)]) == 0
    G = sv.parse_snap(Path(wc_graph).read_text()).graph
    expect = sv.svim_s(G, 6, 3, mode="average")
    svim = json.loads((out / "summary.json").read_text())["methods"]["svim"]
    assert svim["seed_count"] == len(expect.nodes) and svim["value"] == expect.value
    x0 = sv.indicator(G.n, expect.nodes)
    rows = (out / "compare.csv").read_text().splitlines()
    column = rows[0].split(",").index("svim_exact")
    got = [row.split(",")[column] for row in rows[1:]]
    assert got == [cli._fmt(v) for v in sv.propagate(G, x0, 6).sum(axis=1)]
    assert svim["steady_state_influence"] == float(sv.steady_state(G, x0).average.sum())


# the fuzz property's inputs: valid edge lines on nodes 0..2 and complete
# small configs, spoiled now and then by a bad line or a byte that is not
# UTF-8; a bad value is drawn for about one option in four
_FUZZ_EDGES = [f"{s} {t} {g}".encode() for s in range(3) for t in range(3) for g in (1, -1)]
_FUZZ_BAD_EDGE_LINES = [b"# c", b"", b"0 1", b"0 1 x", b"0 1 0", b"1_0 2 1", b"\xff\xfe",
                        b"99999999999999999999 1 1", b"3 0 1\r", b"7 7 1"]
_FUZZ_CONFIGS = [b"family = balanced\nsizes = 3, 4\nedges_per_node = 2\nseed = 5",
                 b"family = weakly_connected\nsizes = 3, 3, 3, 3, 3\nedges_per_node = 2",
                 b"family = anti_balanced\nsizes = 3, 3\nedges_per_node = 2",
                 b"family = slow_mixing\nsizes = 3"]
_FUZZ_BAD_CONFIG_LINES = [b"sizes = 3", b"sizes = x", b"seed = -1", b"retries = 0",
                          b"cross_edges = -5", b"link_edges = -1", b"bogus = 1", b"\xc3",
                          b"family = nope", b"edges_per_node = 9"]
# (valid values, bad values); huge values only where they fail before any
# work starts: negative counts
_FUZZ_OPTIONS = {
    "--t": (["0", "1", "3"], ["-1", "-1000000000000"]),
    "--k": (["0", "1", "2", "5"], ["-1", "-1000000000000"]),
    "--trials": (["1", "7"], ["0", "-1", "-1000000000000"]),
    "--rng-seed": (["0", "3"], ["-1", "-1000000000000"]),
    "--seeds": (["", "0", "0,1", "2 1"], ["9", "-1", "x", "99999999999999999999"]),
    "--objective": (["instant", "average", "longterm"], ["oscillation", "bogus"]),
    "--baseline": (["out_degree", "degree_difference", "random"], ["bogus"]),
}


@st.composite
def cli_invocations(draw):
    """A subcommand with drawn options, and the bytes of its input file."""
    rarely = st.sampled_from([False, False, False, True])  # the first value is drawn most

    def spoiled(lines, bad):
        if draw(rarely):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(bad)))
        return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n", b"\r\n"]))

    command = draw(st.sampled_from(
        ["generate", "classify", "dynamics", "simulate", "maximize", "compare"]))
    use_config = command == "generate" or draw(rarely)
    if use_config:
        data = spoiled([draw(st.sampled_from(_FUZZ_CONFIGS))], _FUZZ_BAD_CONFIG_LINES)
    else:
        data = spoiled(draw(st.lists(st.sampled_from(_FUZZ_EDGES), min_size=1, max_size=8,
                                     unique=True)), _FUZZ_BAD_EDGE_LINES)
    argv = [command, "--generate" if use_config else "--graph", "{input}"]
    if draw(st.booleans()):
        argv.append("--repair-dangling")

    def option(name, optional=True):
        if optional and draw(st.booleans()):
            return
        good, bad = _FUZZ_OPTIONS[name]
        argv.extend([name, draw(st.sampled_from(bad if draw(rarely) else good))])

    if command in ("dynamics", "simulate"):
        option("--seeds")
        option("--t", optional=command == "dynamics")
    if command == "dynamics" and draw(st.booleans()):
        argv.append("--per-node")
    if command in ("simulate", "compare"):
        option("--trials", optional=False)
    if command in ("maximize", "compare"):
        option("--objective")
        option("--t")
        option("--k", optional=False)
    if command == "maximize":
        option("--baseline")
        if draw(st.booleans()):
            argv.append("--contributions")
    if command in ("simulate", "maximize", "compare"):
        option("--rng-seed")
    return argv, data


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cli_invocations())
def test_cli_fuzz_ends_in_a_documented_exit_code(invocation):
    argv, data = invocation
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_ADAPTIVE_CAP", 200)  # a periodic graph would run to 10**6 steps
        source = Path(tmp) / "input"
        source.write_bytes(data)
        argv = [str(source) if a == "{input}" else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(Path(tmp) / "out")])
    err = err.getvalue()
    assert code in (0, 1, 2, 3), err
    assert err.count("\n") <= 1 and "internal error:" not in err, err
    assert (code == 0) == (err == ""), err


def test_dynamics_adaptive_loop_validates_once(wc_graph, tmp_path, monkeypatch):
    """The adaptive loop steps rows it clipped itself: _validated runs once for the
    steady state and once for the trajectory, however many rows are written, and
    the totals are those of stepping with the public step, bit for bit."""
    G = sv.parse_snap(Path(wc_graph).read_text()).graph
    want = [sv.indicator(G.n, [0, 5, 9])]
    want.append(sv.step(G, want[0]))
    while True:
        want.append(sv.step(G, want[-1]))
        if np.abs(want[-1] - want[-3]).max() <= 1e-9:
            break
    calls = []
    validated = dynamics._validated
    monkeypatch.setattr(dynamics, "_validated", lambda *a: calls.append(a) or validated(*a))
    out = tmp_path / "ad"
    assert main(["dynamics", "--graph", wc_graph, "--seeds", "0,5,9", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()[1:]]
    assert rows == [[str(k), cli._fmt(x.sum())] for k, x in enumerate(want)]
    assert len(rows) > 10 and len(calls) == 2


def _traced_peak(argv) -> int:
    tracemalloc.start()  # NumPy reports its array buffers to tracemalloc
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_memory_does_not_grow_with_t(tmp_path):
    """compare keeps each method's per-step totals, not a (t+1) x n trajectory
    (200 more steps on 10,000 nodes took 12 MB more)."""
    graph = tmp_path / "ring.edges"
    graph.write_text(sv.serialize(ring_graph(10_000)))
    peaks = [_traced_peak(["compare", "--graph", str(graph), "--k", "20", "--t", str(t),
                           "--trials", "0", "--out", str(tmp_path / f"c{t}")])
             for t in (5, 205)]
    assert peaks[1] - peaks[0] < 2 * 2**20, peaks


def test_compare_frees_its_graph_when_it_returns(wc_graph, tmp_path, monkeypatch):
    """The graph's decomposition and its component analyses hold the graph
    weakly, so the graph and its cached operators go with its last
    reference, without the cyclic collector (four in-process compares once
    left three graphs alive)."""
    graphs = []
    parse_snap = cli.parse_snap

    def parse(*args, **kwargs):
        parsed = parse_snap(*args, **kwargs)
        graphs.append(weakref.ref(parsed.graph))
        return parsed

    monkeypatch.setattr(cli, "parse_snap", parse)
    gc.collect()
    gc.disable()
    try:
        assert main(["compare", "--graph", wc_graph, "--k", "3", "--t", "4", "--trials", "20",
                     "--out", str(tmp_path / "c")]) == 0
        assert len(graphs) == 1 and graphs[0]() is None
    finally:
        gc.enable()


def test_dynamics_per_node_memory_grows_by_one_float_row_per_step(tmp_path):
    """dynamics --t --per-node formats and writes each step's row as the step
    is made, holding neither the (t+1) x n floats of propagate (8 bytes a
    value) nor every formatted row (about 70 bytes a value).  The name is kept
    from when the bound allowed one float row of growth per step."""
    n = 2_000
    graph = tmp_path / "ring.edges"
    graph.write_text(sv.serialize(ring_graph(n)))
    peaks = [_traced_peak(["dynamics", "--graph", str(graph), "--seeds", "0,5", "--t", str(t),
                           "--per-node", "--out", str(tmp_path / f"d{t}")])
             for t in (5, 105)]
    assert peaks[1] - peaks[0] < 2**20, peaks


def test_dynamics_memory_does_not_grow_with_t(tmp_path):
    """dynamics --t writes each total as its step is made instead of holding the
    (t+1) x n floats of propagate (400 more steps on 10,000 nodes took 27 MB more)."""
    graph = tmp_path / "ring.edges"
    graph.write_text(sv.serialize(ring_graph(10_000)))
    peaks = [_traced_peak(["dynamics", "--graph", str(graph), "--seeds", "0,5", "--t", str(t),
                           "--out", str(tmp_path / f"d{t}")])
             for t in (5, 405)]
    assert peaks[1] - peaks[0] < 2**20, peaks


def test_dynamics_adaptive_memory_does_not_grow_with_its_rows(tmp_path):
    """The adaptive horizon writes each row as its step is made instead of holding
    every formatted row (about 170 bytes a row: the 9,869 rows of slow_mixing(10)
    took 1.2 MB more than the 2,669 of slow_mixing(8))."""
    peaks, rows = [], []
    for m in (8, 10):
        graph = tmp_path / f"slow{m}.edges"
        graph.write_text(sv.serialize(sv.slow_mixing(m)))
        out = tmp_path / f"s{m}"
        peaks.append(_traced_peak(["dynamics", "--graph", str(graph), "--seeds", "0",
                                   "--out", str(out)]))
        rows.append(len((out / "trajectory.csv").read_text().splitlines()) - 1)
    assert rows == [2669, 9869]
    assert peaks[1] - peaks[0] < 2**19, peaks


def test_dynamics_failing_mid_trajectory_leaves_no_file(wc_graph, tmp_path, monkeypatch):
    """Rows already written go to a temporary file: a run that fails after them
    leaves neither trajectory.csv nor that file."""
    slow = tmp_path / "slow.edges"
    slow.write_text(sv.serialize(sv.slow_mixing(12)))
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_ADAPTIVE_CAP", 50)
        assert main(["dynamics", "--graph", str(slow), "--seeds", "0",
                     "--out", str(tmp_path / "cap")]) == 3
    monkeypatch.setattr(dynamics, "apply_p", lambda G, v: v + 5.0)
    assert main(["dynamics", "--graph", wc_graph, "--seeds", "0", "--t", "2", "--per-node",
                 "--out", str(tmp_path / "escape")]) == 3
    for out in ("cap", "escape"):
        assert list((tmp_path / out).iterdir()) == []


def test_dynamics_fixed_horizon_ignores_the_adaptive_cap(wc_graph, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_ADAPTIVE_CAP", 5)
    out = tmp_path / "t20"
    assert main(["dynamics", "--graph", wc_graph, "--seeds", "0", "--t", "20",
                 "--out", str(out)]) == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 21


def test_dynamics_rows_are_propagate_bits(tmp_path):
    """dynamics --t sums each step as it is made: its rows must be _fmt of the rows
    of propagate and of their sum(axis=1), bit for bit."""
    rng = np.random.default_rng(24)
    checked = 0
    for trial in range(10):
        n = int(rng.integers(3, 300))
        G = random_graph(rng, n, n_edges=int(rng.integers(n + 1, 5 * n)))
        if not sv.is_aperiodic(np.arange(n), G):  # dynamics rejects a periodic sink
            continue
        graph = tmp_path / f"g{trial}.edges"
        graph.write_text(sv.serialize(G))
        G = sv.parse_snap(graph.read_text()).graph
        seeds = sorted(rng.choice(n, size=int(rng.integers(0, min(n, 6) + 1)), replace=False))
        out = tmp_path / f"d{trial}"
        assert main(["dynamics", "--graph", str(graph), "--seeds", ",".join(map(str, seeds)),
                     "--t", "25", "--per-node", "--out", str(out)]) == 0
        traj = sv.propagate(G, sv.indicator(n, seeds), 25)
        want = [[str(k), cli._fmt(total), *map(cli._fmt, row)]
                for k, (total, row) in enumerate(zip(traj.sum(axis=1), traj))]
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert [row.split(",") for row in rows] == want
        checked += 1
    assert checked >= 8


def _cli_process(*argv) -> subprocess.Popen:
    """`python -m signedvoter.cli` with `argv`, in a fresh process."""
    src = Path(sv.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-m", "signedvoter.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_python_m_runs_the_cli(bal_cfg, tmp_path):
    out = tmp_path / "cls"
    proc = _cli_process("classify", "--generate", bal_cfg, "--out", str(out))
    stdout, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (0, "")
    assert stdout == (out / "components.jsonl").read_text()
    assert (out / "manifest.json").exists()


def test_closed_stdout_is_a_one_line_output_error(bal_cfg, tmp_path):
    # the reader is gone before the first record is written, as when
    # `| head` has already taken what it wanted
    proc = _cli_process("classify", "--generate", bal_cfg, "--out", str(tmp_path / "cls"))
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert stderr.splitlines() == [
        "output error: stdout was closed before all records were written"]


def test_interrupt_is_one_line_and_stops_every_thread(bal_cfg, tmp_path):
    # 10**7 steps of 8,192 trials would take hours: the process ends in time
    # only if every worker thread stops at the interrupt
    out = tmp_path / "sim"
    proc = _cli_process("simulate", "--generate", bal_cfg, "--seeds", "0", "--t", "10000000",
                        "--trials", "8192", "--out", str(out))
    deadline = time.monotonic() + 60
    while not out.exists():  # main makes --out before the command runs
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.02)
    time.sleep(0.5)  # into the Monte Carlo steps
    proc.send_signal(signal.SIGINT)
    try:
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, stdout, stderr) == (130, "", "interrupted\n")
    assert list(out.iterdir()) == []
