"""Synthetic family generator: determinism, verified structure, config parsing."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import signedvoter as sv
from signedvoter.errors import GenerationFailed, InvalidConfig
from signedvoter.structure import BalanceKind


def test_config_parsing():
    cfg = sv.parse_generator_config(
        "# demo\nfamily = balanced\nsizes = 6, 9\nedges_per_node = 3\nseed = 4\n"
    )
    assert cfg.family == "balanced" and cfg.sizes == [6, 9] and cfg.seed == 4
    with pytest.raises(InvalidConfig):
        sv.parse_generator_config("family = nope\nsizes = 3\n")
    with pytest.raises(InvalidConfig):
        sv.parse_generator_config("sizes = 3, 4\n")
    with pytest.raises(InvalidConfig):
        sv.parse_generator_config("family = balanced\nsizes = 6, 9\nmystery = 1\n")
    with pytest.raises(InvalidConfig):
        sv.parse_generator_config("family = balanced\nsizes = 6\n")


def test_generate_deterministic():
    cfg = sv.GeneratorConfig("balanced", [6, 9], edges_per_node=3, seed=11)
    a, b = sv.generate(cfg), sv.generate(cfg)
    assert sv.graphs_equal(a, b)
    c = sv.generate(sv.GeneratorConfig("balanced", [6, 9], edges_per_node=3, seed=12))
    assert not sv.graphs_equal(a, c)


def test_generate_balanced_partition_sizes():
    cfg = sv.GeneratorConfig("balanced", [6, 9], edges_per_node=3, seed=0)
    G = sv.generate(cfg)
    assert G.n == 15
    # edges: 3 per node within parts plus 3 * min(sizes) across
    assert G.n_edges == 3 * 15 + 3 * 6
    bal = sv.classify_balance(np.arange(15), G)
    assert bal.kind is BalanceKind.BALANCED
    assert {bal.size_s, bal.size_sbar} == {6, 9}
    assert sv.is_aperiodic(np.arange(15), G)


def test_generate_anti_balanced_is_negated_balanced():
    cfg = sv.GeneratorConfig("anti_balanced", [5, 7], edges_per_node=3, seed=2)
    G = sv.generate(cfg)
    bal = sv.classify_balance(np.arange(12), G)
    assert bal.kind is BalanceKind.ANTI_BALANCED
    assert {bal.size_s, bal.size_sbar} == {5, 7}


def test_generate_strictly_unbalanced():
    cfg = sv.GeneratorConfig("strictly_unbalanced", [5, 7], edges_per_node=3, seed=3)
    G = sv.generate(cfg)
    bal = sv.classify_balance(np.arange(12), G)
    assert bal.kind is BalanceKind.STRICTLY_UNBALANCED


def test_generate_weakly_connected_layout():
    cfg = sv.GeneratorConfig("weakly_connected", [5, 4, 6, 4, 7], edges_per_node=2, seed=4)
    G = sv.generate(cfg)
    d = sv.decompose(G)
    assert d.non_sink.tolist() == list(range(5))
    assert [z.tolist() for z in d.sinks] == [list(range(5, 15)), list(range(15, 26))]
    for z in d.sinks:
        assert sv.classify_balance(z, G).kind is BalanceKind.BALANCED
    assert sv.classify_balance(d.non_sink, G).kind is BalanceKind.STRICTLY_UNBALANCED
    # part 1 only sends edges outward
    out_of_x = (d.scc_id[G.sources] != d.scc_id[G.targets])
    assert np.all(np.isin(G.sources[out_of_x], d.non_sink))


def test_generate_disconnected_three_sinks():
    cfg = sv.GeneratorConfig("disconnected", [5, 4, 6, 4, 7], edges_per_node=2, seed=5)
    G = sv.generate(cfg)
    d = sv.decompose(G)
    assert d.n_components == 3
    assert d.non_sink.size == 0
    kinds = [sv.classify_balance(z, G).kind for z in d.sinks]
    assert kinds.count(BalanceKind.BALANCED) == 2
    assert kinds.count(BalanceKind.STRICTLY_UNBALANCED) == 1


def test_generate_disconnected_with_wcc():
    cfg = sv.GeneratorConfig("disconnected_with_wcc", [5, 6, 4, 4, 5, 4, 6],
                             edges_per_node=2, seed=6)
    G = sv.generate(cfg)
    d = sv.decompose(G)
    assert len(d.sinks) == 3
    assert d.non_sink.size == 4  # the wcc feeder part
    kinds = sorted(sv.classify_balance(z, G).kind.value for z in d.sinks)
    assert kinds == ["balanced", "balanced", "balanced"]


def test_slow_mixing_shape():
    G = sv.slow_mixing(3)
    assert G.n == 6
    assert np.all(G.weights == 1.0) and np.all(G.signs == 1)
    # the left tail has exactly two out-edges: the left hub and the right hub's head
    sl = G.out_slice(2)
    assert sorted(G.targets[sl].tolist()) == [0, 3]
    assert sv.is_aperiodic(np.arange(6), G)
    with pytest.raises(InvalidConfig):
        sv.slow_mixing(2)


def test_generate_via_cross_edges_override():
    cfg = sv.GeneratorConfig("balanced", [6, 9], edges_per_node=3, cross_edges=10, seed=7)
    G = sv.generate(cfg)
    assert G.n_edges == 3 * 15 + 10


# sha256 of serialize(generate(cfg)) for the shipped configs, recorded before
# the structure checks moved behind Decomposition.analysis
CONFIG_DIGESTS = {
    "balanced.cfg": "5d5c64e4c0d8fc7d90530b5b00026ec586e67476ec22ea6893f4a0df2f4ecbc8",
    "slow_mixing.cfg": "d1bd41a19f05050aa137e0f46d0ca1a195e3b0ad413976f9e9ad0bdd6bca528e",
    "strictly_unbalanced.cfg": "eb54e2423de82cdb87fd5a8407d16007773cbcfa15c8adb7e41939fad52d48f2",
    "weakly_connected.cfg": "45bed898bf80e02c259c386f951e51f8bfded970ba799f6d71b6ea74974c2da0",
}


@pytest.mark.parametrize("name", sorted(CONFIG_DIGESTS))
def test_config_graphs_are_frozen(name):
    path = Path(__file__).parent.parent / "configs" / name
    G = sv.generate(sv.parse_generator_config(path.read_text()))
    assert hashlib.sha256(sv.serialize(G).encode()).hexdigest() == CONFIG_DIGESTS[name]


# the same for the families no shipped config builds, recorded before the
# family table took over from FAMILIES, validate's size table and the
# family branches of _build_once
FAMILY_DIGESTS = {
    ("anti_balanced", (5, 8), 3, 2):
        "ef8fd3e58ae3b6a98b4dea920ff9b2175c47a5d9e07fb82550c56e2e5d920469",
    ("disconnected", (5, 4, 6, 4, 7), 2, 4):
        "b5d91d4c1783151556034f2665e6cf33b9144c630e297880b4f0442469cc0cec",
    ("disconnected_with_wcc", (4, 5, 5, 4, 6, 4, 7), 2, 4):
        "286cc38591607479ff080735ca3f9ab070dedef838ce1f24ddd2fccd651d6fe0",
}


@pytest.mark.parametrize("family, sizes, edges_per_node, seed", sorted(FAMILY_DIGESTS))
def test_other_family_graphs_are_frozen(family, sizes, edges_per_node, seed):
    cfg = sv.GeneratorConfig(family, list(sizes), edges_per_node=edges_per_node, seed=seed)
    digest = hashlib.sha256(sv.serialize(sv.generate(cfg)).encode()).hexdigest()
    assert digest == FAMILY_DIGESTS[family, sizes, edges_per_node, seed]


def test_layout_check_rejects_a_wrong_sink_flag():
    # without links, part 1 of a weakly connected graph is a sink of its own
    cfg = sv.GeneratorConfig("weakly_connected", [5, 4, 5, 4, 6], edges_per_node=3,
                             link_edges=0, retries=3)
    with pytest.raises(GenerationFailed, match="wrong sink flag"):
        sv.generate(cfg)


def test_layout_check_redraws_a_wrong_kind():
    # the first draw for this seed gives part 1 a balance partition
    cfg = sv.GeneratorConfig("weakly_connected", [3, 3, 3, 3, 3], edges_per_node=2, seed=9)
    kind = sv.classify_balance(np.arange(3), sv.generate(cfg)).kind
    assert kind is BalanceKind.STRICTLY_UNBALANCED
    cfg.retries = 1
    with pytest.raises(GenerationFailed, match="is not strictly_unbalanced"):
        sv.generate(cfg)
