"""Contribution vectors, seed selection, heuristics, brute-force agreement."""

import itertools
import tracemalloc

import numpy as np
import pytest

import signedvoter as sv
from signedvoter import dynamics
from signedvoter.errors import TooLarge, WrongKind
from signedvoter.maximize import ContributionVector
from signedvoter.structure import BalanceKind

from helpers import build_shape, dense_p, random_graph, ring_graph, small_family


def test_contribution_instant_against_dense_and_definition():
    rng = np.random.default_rng(0)
    for _ in range(8):
        n = int(rng.integers(4, 11))
        G = random_graph(rng, n)
        t = int(rng.integers(1, 5))
        c = sv.contribution_instant(G, t).c
        assert np.allclose(c, np.ones(n) @ np.linalg.matrix_power(dense_p(G), t), atol=1e-12)
        # definition: marginal final white mass of seeding node i alone
        for i in range(n):
            assert c[i] == pytest.approx(sv.evaluate_seed_set(G, [i], "instant", t=t), abs=1e-10)


def test_contribution_instant_signs():
    G = sv.from_edge_list([(0, 1, -1), (1, 0, -1)])
    assert np.allclose(sv.contribution_instant(G, 1).c, [-1.0, -1.0])
    rng = np.random.default_rng(1)
    allpos = random_graph(rng, 8, neg_prob=0.0)
    assert np.all(sv.contribution_instant(allpos, 1).c > 0)


def test_contribution_average_matches_mean_of_instants():
    rng = np.random.default_rng(2)
    G = random_graph(rng, 10)
    t = 5
    instants = [np.ones(10)] + [sv.contribution_instant(G, i).c for i in range(1, t + 1)]
    expect = np.mean(instants, axis=0)
    assert np.allclose(sv.contribution_average(G, t).c, expect, atol=1e-12)
    for i in range(10):
        assert expect[i] == pytest.approx(
            sv.evaluate_seed_set(G, [i], "average", t=t), abs=1e-10)


def test_contribution_average_cesaro_direction():
    # all-positive ergodic graph: the average converges toward n * pi
    rng = np.random.default_rng(3)
    G = random_graph(rng, 9, neg_prob=0.0)
    pi = sv.stationary(np.arange(9), G)
    cbar = sv.contribution_average(G, 400).c
    assert np.abs(cbar - 9 * pi).max() <= 0.1


def test_contribution_longterm_zero_cases():
    rng = np.random.default_rng(4)
    strict = small_family(rng, "strictly_unbalanced")
    assert np.array_equal(sv.contribution_longterm(strict).c, np.zeros(strict.n))
    anti = small_family(rng, "anti_balanced")
    assert np.array_equal(sv.contribution_longterm(anti).c, np.zeros(anti.n))
    # balanced with equal sides: the (|S| - |Sbar|) factor vanishes
    even = build_shape(rng, 0, [("balanced", (4, 4))])
    bal = sv.classify_balance(np.arange(even.n), even)
    if bal.size_s == bal.size_sbar:
        assert np.abs(sv.contribution_longterm(even).c).max() <= 1e-12


def test_contribution_longterm_balanced_structure():
    rng = np.random.default_rng(5)
    G = build_shape(rng, 5, [("balanced", (3, 4)), ("strictly_unbalanced", (4,))])
    d = sv.decompose(G)
    cv = sv.contribution_longterm(G)
    assert np.array_equal(cv.c[d.non_sink], np.zeros(d.non_sink.size))
    kinds = {i: sv.classify_balance(z, G).kind for i, z in enumerate(d.sinks)}
    for i, z in enumerate(d.sinks):
        if kinds[i] is not BalanceKind.BALANCED:
            assert np.array_equal(cv.c[z], np.zeros(z.size))
            continue
        bal = sv.classify_balance(z, G)
        pi = sv.stationary(z, G)
        ub = sv.solve_u(G, d, i, bal.in_s, "balanced")
        scale = ub.sum() + bal.size_s - bal.size_sbar
        expect = scale * np.where(bal.in_s, pi, -pi)
        assert np.abs(cv.c[z] - expect).max() <= 1e-10


def test_contribution_longterm_matches_cesaro_oracle():
    rng = np.random.default_rng(6)
    G = build_shape(rng, 4, [("balanced", (3, 3))])
    c = sv.contribution_longterm(G).c
    for i in range(G.n):
        oracle = sv.evaluate_seed_set(G, [i], "longterm")
        assert c[i] == pytest.approx(oracle, abs=1e-6)


def test_select_top():
    empty = sv.select_top(ContributionVector(np.zeros(6), "instant", 1), 5)
    assert empty.nodes == [] and empty.value == 0.0
    s = sv.select_top(ContributionVector(np.array([3.0, -1.0, 2.0]), "instant", 1), 2)
    assert s.nodes == [0, 2] and s.value == pytest.approx(5.0)
    ties = sv.select_top(ContributionVector(np.ones(3), "instant", 1), 2)
    assert ties.nodes == [0, 1]
    grow_small = sv.select_top(ContributionVector(np.array([3.0, -1.0, 2.0, 0.5]), "x", 1), 1)
    grow_big = sv.select_top(ContributionVector(np.array([3.0, -1.0, 2.0, 0.5]), "x", 4), 4)
    assert grow_big.value >= grow_small.value
    assert grow_big.nodes == [0, 2, 3]  # negative entry never selected


def test_linearity_of_contribution_over_sets():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(5, 50))
        G = random_graph(rng, n)
        t = int(rng.integers(1, 11))
        w = rng.choice(n, size=int(rng.integers(1, min(6, n))), replace=False)
        whole = sv.evaluate_seed_set(G, w, "instant", t=t)
        parts = sum(sv.evaluate_seed_set(G, [i], "instant", t=t) for i in w)
        assert whole == pytest.approx(parts, abs=1e-10)


def test_svim_s_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(4, 11))
        G = random_graph(rng, n, n_edges=int(rng.integers(n + 2, 3 * n)))
        t = int(rng.integers(1, 6))
        k = int(rng.integers(0, 4))
        for mode in ("instant", "average"):
            chosen = sv.svim_s(G, t, k, mode)
            brute = sv.brute_force_opt(G, mode, k, t=t)
            achieved = sv.evaluate_seed_set(G, chosen.nodes, mode, t=t)
            assert achieved == pytest.approx(brute.value, abs=1e-9)


def test_svim_s_star_hub():
    # star with every spoke pointing at the hub: hub dominates c_1
    edges = [(i, 0, 1) for i in range(1, 8)] + [(0, 1, 1)]
    G = sv.from_edge_list(edges)
    assert sv.svim_s(G, 1, 1, "instant").nodes == [0]
    assert sv.svim_s(G, 1, 0, "instant").nodes == []


def test_svim_l_balanced_picks_larger_side_by_pi():
    rng = np.random.default_rng(9)
    G = small_family(rng, "balanced")
    bal = sv.classify_balance(np.arange(G.n), G)
    pi = sv.stationary(np.arange(G.n), G)
    big = np.nonzero(bal.in_s if bal.size_s > bal.size_sbar else ~bal.in_s)[0]
    k = 3
    chosen = sv.svim_l(G, k)
    assert set(chosen.nodes) <= set(big.tolist())
    order = big[np.lexsort((big, -pi[big]))][:k]
    assert sorted(chosen.nodes) == sorted(int(i) for i in order)


def test_svim_l_strictly_unbalanced_empty():
    rng = np.random.default_rng(10)
    G = small_family(rng, "strictly_unbalanced")
    chosen = sv.svim_l(G, 4)
    assert chosen.nodes == [] and chosen.value == 0.0


def test_svim_l_matches_brute_force_weakly_connected():
    rng = np.random.default_rng(11)
    G = build_shape(rng, 3, [("balanced", (1, 1)), ("balanced", (3, 3))], links_per_x=2)
    assert G.n <= 12
    chosen = sv.svim_l(G, 2)
    brute = sv.brute_force_opt(G, "longterm", 2)
    achieved = sv.evaluate_seed_set(G, chosen.nodes, "longterm")
    assert achieved == pytest.approx(brute.value, abs=1e-6)


def test_brute_force_full_budget_takes_all_positive():
    rng = np.random.default_rng(12)
    G = random_graph(rng, 7)
    t = 3
    brute = sv.brute_force_opt(G, "instant", 7, t=t)
    c = sv.contribution_instant(G, t).c
    assert brute.value == pytest.approx(c[c > 0].sum(), abs=1e-9)
    with pytest.raises(TooLarge):
        sv.brute_force_opt(random_graph(rng, 21), "instant", 2, t=1)


def test_oscillation_seeds_symmetric_sides():
    # |S| == |Sbar| kills the amplitude for every seed set
    rng = np.random.default_rng(16)
    G = build_shape(rng, 0, [("anti_balanced", (3, 3))])
    bal = sv.classify_balance(np.arange(G.n), G)
    assert bal.size_s == bal.size_sbar
    chosen = sv.oscillation_seeds(G, 1)
    assert chosen.value == pytest.approx(0.0, abs=1e-12)
    assert len(chosen.nodes) == 1


def test_oscillation_seeds_all_negative_prefers_empty():
    # S = V here, so the empty set maximizes |pihat (e_W - 1/2)|: from all
    # black the whole graph flips color every step, the largest swing possible
    G = sv.from_edge_list([(0, 1, -1), (1, 0, -1), (0, 0, -1), (1, 1, -1)])
    chosen = sv.oscillation_seeds(G, 1)
    assert chosen.nodes == [] and chosen.value == pytest.approx(1.0, abs=1e-12)


def test_oscillation_seeds_brute_force_amplitude():
    rng = np.random.default_rng(13)
    G = build_shape(rng, 0, [("anti_balanced", (4, 2))])
    bal = sv.classify_balance(np.arange(G.n), G)
    assert bal.kind is BalanceKind.ANTI_BALANCED
    k = 2
    chosen = sv.oscillation_seeds(G, k)

    def amplitude(nodes):
        ss = sv.steady_state(G, sv.indicator(G.n, nodes))
        return sv.oscillation_amplitude(G, ss)

    assert chosen.value == pytest.approx(amplitude(chosen.nodes), abs=1e-12)
    import itertools
    best = 0.0
    for size in range(k + 1):
        for w in itertools.combinations(range(G.n), size):
            best = max(best, amplitude(list(w)))
    assert chosen.value == pytest.approx(best, abs=1e-10)


def test_oscillation_seeds_k0_formula():
    rng = np.random.default_rng(14)
    G = build_shape(rng, 0, [("anti_balanced", (4, 2))])
    bal = sv.classify_balance(np.arange(G.n), G)
    pi = sv.stationary(np.arange(G.n), G)
    chosen = sv.oscillation_seeds(G, 0)
    pihat = np.where(bal.in_s, pi, -pi)
    expect = abs(bal.size_s - bal.size_sbar) * abs(pihat @ (np.zeros(G.n) - 0.5))
    assert chosen.nodes == [] and chosen.value == pytest.approx(expect, abs=1e-12)


def test_oscillation_seeds_weakly_connected_sink():
    rng = np.random.default_rng(17)
    G = build_shape(rng, 3, [("anti_balanced", (4, 2))], links_per_x=2)
    chosen = sv.oscillation_seeds(G, 2)

    def amplitude(nodes):
        ss = sv.steady_state(G, sv.indicator(G.n, nodes))
        return sv.oscillation_amplitude(G, ss)

    import itertools
    best = 0.0
    for size in range(3):
        for w in itertools.combinations(range(G.n), size):
            best = max(best, amplitude(list(w)))
    assert chosen.value == pytest.approx(amplitude(chosen.nodes), abs=1e-12)
    assert chosen.value == pytest.approx(best, abs=1e-10)
    # optimal seeds live inside the sink
    sink = set(sv.decompose(G).sinks[0].tolist())
    assert set(chosen.nodes) <= sink


def test_oscillation_seeds_wrong_kind():
    rng = np.random.default_rng(15)
    with pytest.raises(WrongKind):
        sv.oscillation_seeds(small_family(rng, "balanced"), 2)


def test_heuristic_seeds():
    G = sv.from_edge_list([
        (0, 1, 2), (0, 2, 3), (1, 0, 3), (2, 0, 4), (2, 1, 5),
        (0, 0, -1), (1, 1, -2), (2, 2, -3),
    ])
    # d = [6, 5, 12]; d+ = [5, 3, 9]; d+ - d- = [4, 1, 6]
    assert sv.heuristic_seeds(G, 1, "out_degree").nodes == [2]
    assert sv.heuristic_seeds(G, 1, "positive_out_degree").nodes == [2]
    assert sv.heuristic_seeds(G, 2, "degree_difference").nodes == [0, 2]
    allneg = sv.from_edge_list([(0, 1, -1), (1, 0, -1)])
    assert len(sv.heuristic_seeds(allneg, 2, "degree_difference").nodes) == 2
    r1 = sv.heuristic_seeds(G, 2, "random", rng_seed=5)
    r2 = sv.heuristic_seeds(G, 2, "random", rng_seed=5)
    assert r1.nodes == r2.nodes and len(r1.nodes) == 2


@pytest.mark.parametrize("objective", ["instant", "average"])
def test_evaluate_seed_set_short_term_needs_t(objective):
    G = sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    with pytest.raises(ValueError, match="short-term objectives need t"):
        sv.evaluate_seed_set(G, [0], objective)
    assert sv.evaluate_seed_set(G, [0], objective, t=0) == 1.0  # t = 0 is the seeded start


def _propagate_totals(G, x0, objective, t):
    """Objective totals the way they read off a whole trajectory from propagate."""
    traj = sv.propagate(G, x0, t)
    return traj[t].sum(axis=0) if objective == "instant" else traj.sum(axis=1).mean(axis=0)


def test_streamed_totals_equal_propagate_sums_bit_for_bit():
    """The short-term objectives sum each step as it is made: a 1-D x.sum() and an
    (n, k) x.sum(axis=0) must give the bits of propagate's 2-D and 3-D sum(axis=1)."""
    rng = np.random.default_rng(21)
    for _ in range(12):
        n = int(rng.integers(3, 300))
        G = random_graph(rng, n, n_edges=int(rng.integers(n + 1, 5 * n)))
        t = int(rng.integers(1, 25))
        for x0 in (rng.random(n), rng.random((n, 1)), rng.random((n, 2)), rng.random((n, 33))):
            want = sv.propagate(G, x0, t).sum(axis=1)
            rows = itertools.islice(dynamics._trajectory(G, x0), t + 1)
            got = [x.sum() if x.ndim == 1 else x.sum(axis=0) for x in rows]  # as the callers do
            assert np.array_equal(np.array(got), want)
        nodes = rng.choice(n, size=int(rng.integers(0, min(n, 6) + 1)), replace=False).tolist()
        x0 = np.stack([sv.indicator(n, nodes), np.zeros(n)], axis=1)
        for objective in ("instant", "average"):
            totals = _propagate_totals(G, x0, objective, t)
            assert sv.evaluate_seed_set(G, nodes, objective, t) == float(totals[0] - totals[1])


@pytest.mark.parametrize("objective", ["instant", "average"])
def test_brute_force_opt_keeps_propagate_bits_and_ties(objective):
    """brute_force_opt breaks exact ties by order, so its streamed totals must be
    propagate's bits; each graph is scored against a propagate-based search."""
    rng = np.random.default_rng(22)
    for trial in range(10):
        n = int(rng.integers(3, 9))
        # unsigned two-cycles make many exact ties; random graphs make few
        G = (sv.from_edge_list([(i, i ^ 1, 1) for i in range(n - n % 2)]) if trial % 3 == 0
             else random_graph(rng, n))
        n, k, t = G.n, int(rng.integers(1, 4)), int(rng.integers(1, 6))
        sets = [()] + [w for size in range(1, k + 1)
                       for w in itertools.combinations(range(n), size)]
        x0 = np.zeros((n, len(sets)))
        for j, w in enumerate(sets):
            x0[list(w), j] = 1.0
        values = _propagate_totals(G, x0, objective, t)
        values = values - values[0]
        best = 0
        for j in range(1, len(sets)):
            if values[j] > values[best]:
                best = j
        got = sv.brute_force_opt(G, objective, k, t)
        assert (got.nodes, got.value) == (list(sets[best]), float(values[best]))


def test_evaluate_seed_set_memory_does_not_grow_with_t():
    """The average objective holds (t+1) x 2 totals, not a (t+1) x n x 2 trajectory
    (100 more steps on 25,000 nodes took 38 MB more)."""
    G = ring_graph(25_000)
    peaks = []
    for t in (5, 105):
        tracemalloc.start()
        try:
            sv.evaluate_seed_set(G, [0, 5, 9], "average", t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20, peaks
