"""Monte Carlo simulator: determinism, unbiasedness, polarization absorption,
and the exact random stream, pinned by digests of every statistic."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import signedvoter as sv

from helpers import random_graph, small_family


def test_mc_step_absorbing_all_white():
    rng = np.random.default_rng(0)
    G = random_graph(rng, 10, neg_prob=0.0)
    colors = np.ones(10, dtype=bool)
    assert sv.mc_step(G, colors, rng).all()


def test_mc_step_deterministic_flips():
    rng = np.random.default_rng(1)
    loop = sv.from_edge_list([(0, 0, -1)])
    c = np.array([True])
    for expect in (False, True, False):
        c = sv.mc_step(loop, c, rng)
        assert c[0] == expect
    cyc = sv.from_edge_list([(0, 1, 1), (1, 0, 1)])
    out = sv.mc_step(cyc, np.array([True, False]), rng)
    assert out.tolist() == [False, True]


def test_mc_run_seeds_every_batch_from_a_one_shot_iterator():
    G = random_graph(np.random.default_rng(11), 6)
    a = sv.mc_run(G, iter([0, 4]), t=3, trials=8192 + 5, rng_seed=2)
    b = sv.mc_run(G, [0, 4], t=3, trials=8192 + 5, rng_seed=2)
    assert a.mean[0] == 2.0 and np.array_equal(a.mean, b.mean)


def test_mc_run_all_seeds_all_positive():
    rng = np.random.default_rng(2)
    G = random_graph(rng, 12, neg_prob=0.0)
    stats = sv.mc_run(G, range(12), t=6, trials=500, rng_seed=3)
    assert np.array_equal(stats.mean, np.full(7, 12.0))
    assert np.array_equal(stats.stderr, np.zeros(7))


def test_mc_run_determinism():
    rng = np.random.default_rng(3)
    G = random_graph(rng, 15)
    a = sv.mc_run(G, [1, 5], t=8, trials=3000, rng_seed=17, track_nodes=True)
    b = sv.mc_run(G, [1, 5], t=8, trials=3000, rng_seed=17, track_nodes=True)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)
    assert np.array_equal(a.node_freq, b.node_freq)
    c = sv.mc_run(G, [1, 5], t=8, trials=3000, rng_seed=18)
    assert not np.array_equal(a.mean, c.mean)


def test_mc_run_unbiased_against_exact_propagation():
    rng = np.random.default_rng(4)
    for _ in range(4):
        n = int(rng.integers(8, 25))
        G = random_graph(rng, n)
        seeds = rng.choice(n, size=3, replace=False)
        t = 12
        stats = sv.mc_run(G, seeds, t=t, trials=20000, rng_seed=int(rng.integers(2**31)),
                          track_nodes=True)
        exact = sv.propagate(G, sv.indicator(n, seeds), t)
        totals = exact.sum(axis=1)
        z = np.abs(stats.mean - totals) / np.maximum(stats.stderr, 1e-9)
        assert z[1:].max() <= 4.0
        # ~1000 binomial comparisons across nodes/steps/graphs: the expected
        # max of that many z-scores sits near 3.3, so gate at 4 sigma
        sigma = np.sqrt(exact * (1 - exact) / stats.trials)
        assert np.all(np.abs(stats.node_freq - exact) <= 4.0 * sigma + 5e-4)


def test_mc_alias_respects_weights():
    # two positive out-edges with weights 3:1 toward a white and a black node
    G = sv.from_edge_list([(0, 1, 3), (0, 2, 1), (1, 0, 1), (2, 0, 1)])
    stats = sv.mc_run(G, [1], t=1, trials=40000, rng_seed=5, track_nodes=True)
    # node 0 is white iff it picked the heavier edge to white node 1
    p = stats.node_freq[1, 0]
    assert abs(p - 0.75) <= 3 * np.sqrt(0.75 * 0.25 / 40000)


def test_mc_polarize_absorbs_and_matches_theory():
    rng = np.random.default_rng(6)
    G = small_family(rng, "balanced")
    bal = sv.classify_balance(np.arange(G.n), G)
    pi = sv.stationary(np.arange(G.n), G)
    seeds = [0, 2, 9]
    pol = sv.mc_polarize(G, bal.in_s, seeds, trials=4000, rng_seed=7)
    assert pol.unabsorbed == 0
    assert pol.s_white + pol.s_black == 4000
    fractions = [f for _, f in pol.checkpoints]
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    pihat = np.where(bal.in_s, pi, -pi)
    p_theory = float(pihat @ (sv.indicator(G.n, seeds) - 0.5)) + 0.5
    p_hat = pol.s_white / 4000
    sigma = np.sqrt(p_theory * (1 - p_theory) / 4000)
    assert abs(p_hat - p_theory) <= 3.5 * sigma


def test_mc_polarized_state_is_absorbing():
    rng = np.random.default_rng(8)
    G = small_family(rng, "balanced")
    bal = sv.classify_balance(np.arange(G.n), G)
    colors = bal.in_s.copy()
    for _ in range(5):
        colors = sv.mc_step(G, colors, rng)
        assert np.array_equal(colors, bal.in_s)


def test_mc_run_polarization_counters():
    rng = np.random.default_rng(9)
    G = small_family(rng, "balanced")
    bal = sv.classify_balance(np.arange(G.n), G)
    stats = sv.mc_run(G, [0, 1], t=400, trials=300, rng_seed=10, partition=bal.in_s)
    assert stats.s_white is not None and stats.s_black is not None
    assert stats.s_white + stats.s_black <= 300
    assert stats.s_white + stats.s_black >= 290  # nearly all absorbed by t=400


def _balanced(sizes, seed):
    return sv.generate(sv.GeneratorConfig("balanced", sizes=sizes, edges_per_node=3, seed=seed))


def _golden_graph(case):
    """Balanced, aperiodic graphs whose alias tables cover each kind of node.

    unit: unit weights, n = 53 (does not divide any power-of-two block).
    weighted: weights from {0.25, ..., 3}, so alias tables are not the identity.
    degree49: node 0 has 49 unit-weight out-edges, where (1/49)*49 != 1.0.
    """
    if case == "unit":
        return _balanced([23, 30], 11)
    if case == "weighted":
        base = _balanced([20, 24], 12)
        rng = np.random.default_rng(13)
        return sv.from_edge_list(
            (int(s), int(t), int(g) * float(rng.choice([0.25, 0.5, 1.0, 1.5, 3.0])))
            for s, t, g in zip(base.sources, base.targets, base.signs))
    wide = _balanced([30, 30], 14)
    in_s = sv.classify_balance(np.arange(wide.n), wide).in_s
    edges = [(int(s), int(t), int(g)) for s, t, g in zip(wide.sources, wide.targets, wide.signs)]
    have = {t for s, t, _ in edges if s == 0}
    extra = [t for t in range(1, wide.n) if t not in have][:49 - len(have)]
    edges += [(0, t, 1 if in_s[t] == in_s[0] else -1) for t in extra]
    return sv.from_edge_list(edges)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# mc_run: (digest of mean, stderr and node_freq, s_white, s_black), then
# mc_polarize: (s_white, s_black, unabsorbed, steps, digest of checkpoints)
GOLDEN = {
    "unit": (("067505a7a9bb7696f9d99fd205615c4a32e2bd97540d0c4d81768ba126832ef2", 236, 3),
             (5288, 2941, 0, 510,
              "2378f3d08cf10413a1f82fa2f4d9e8388fa34b16b9a043f67ae62b8128f488ec")),
    "weighted": (("934a04f8902e80078fbcb4b8946aa55b8e4110cb37f87e7085adacfe793ab656", 229, 24),
                 (4970, 3259, 0, 415,
                  "12017374c8e43fd8a4703b0083646620c27fe7938aa226fd7390de024cd87918")),
    "degree49": (("ba10ee46c3b69289d06f6ee5e31523cd7443870e6934ca0504fb358be97e0108", 21, 2),
                 (4452, 3777, 0, 666,
                  "961f569d0de90a47e5007deb203b67aa33b9b812809765f023a6a849c74ef86c")),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_mc_random_stream_is_pinned(case):
    G = _golden_graph(case)
    in_s = sv.classify_balance(np.arange(G.n), G).in_s
    trials = 8192 + 37  # one full batch and one partial
    run = sv.mc_run(G, [0, 3, 7], t=12, trials=trials, rng_seed=21, track_nodes=True,
                    partition=in_s)
    pol = sv.mc_polarize(G, in_s, [0, 3, 7], trials=trials, rng_seed=22)
    got_run = (_digest(run.mean, run.stderr, run.node_freq), run.s_white, run.s_black)
    got_pol = (pol.s_white, pol.s_black, pol.unabsorbed, pol.steps,
               _digest(np.array(pol.checkpoints)))
    assert (got_run, got_pol) == GOLDEN[case]


def test_mc_run_memory_is_two_color_batches_plus_one_block():
    G = _balanced([1000, 1000], 15)
    trials = 8192
    colors_bytes = trials * G.n  # one boolean batch
    tracemalloc.start()  # NumPy reports its array buffers to tracemalloc
    try:
        sv.mc_run(G, [0, 1], t=1, trials=trials, rng_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * colors_bytes + 32 * 2**20


def test_mc_polarize_memory_does_not_grow_with_trials():
    # one batch runs to absorption before the next starts, so a fourfold
    # trial count reuses the same two color arrays
    G = _balanced([50, 50], 3)
    in_s = sv.classify_balance(np.arange(G.n), G).in_s
    peaks = []
    for trials in (8192, 32768):
        tracemalloc.start()
        try:
            pol = sv.mc_polarize(G, in_s, np.flatnonzero(in_s)[1:], trials=trials, rng_seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert pol.unabsorbed == 0 and len(pol.checkpoints) > 1
    assert peaks[1] <= peaks[0] + 2**18


@pytest.mark.parametrize("run, message", [
    (lambda G: sv.mc_run(G, [-1], t=0, trials=3, rng_seed=0), "seed id out of range"),
    (lambda G: sv.mc_run(G, [3], t=0, trials=3, rng_seed=0), "seed id out of range"),
    (lambda G: sv.mc_polarize(G, np.ones(3, dtype=bool), [-1], trials=3, rng_seed=0),
     "seed id out of range"),
    (lambda G: sv.mc_polarize(G, np.ones(3, dtype=bool), [3], trials=3, rng_seed=0),
     "seed id out of range"),
    (lambda G: sv.mc_run(G, [0], t=-1, trials=3, rng_seed=0), "t must be >= 0"),
], ids=["mc_run-seed-1", "mc_run-seed-n", "mc_polarize-seed-1", "mc_polarize-seed-n",
        "mc_run-t-1"])
def test_mc_rejects_out_of_range_seeds_and_horizon(run, message):
    # seed -1 must not wrap around to node n-1, and seed n must not end in an IndexError
    G = sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    with pytest.raises(ValueError, match=message):
        run(G)
