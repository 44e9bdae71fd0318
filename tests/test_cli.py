"""CLI subcommands: outputs, schemas, manifests, reproducibility, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

import signedvoter as sv
from signedvoter import cli, dynamics, maximize, structure
from signedvoter.cli import main

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


def test_generate_rejects_two_graph_sources(bal_cfg, wc_graph, tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["generate", "--graph", wc_graph, "--generate", bal_cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: --graph and --generate are mutually exclusive\n"
    assert not (out / "graph.edges").exists()
