"""Propagation, steady states, and the supporting matrix identities."""

import numpy as np
import pytest

import signedvoter as sv
from signedvoter import dynamics
from signedvoter.errors import PeriodicComponent, SlowMixing, WrongKind
from signedvoter.structure import BalanceKind

from helpers import (
    build_shape,
    dense_ground,
    dense_p,
    dense_trajectory,
    random_graph,
    small_family,
)


def test_step_absorbing_all_white():
    rng = np.random.default_rng(0)
    G = random_graph(rng, 10, neg_prob=0.0)
    x = np.ones(10)
    assert np.allclose(sv.step(G, x), 1.0)


def test_step_all_negative_two_cycle():
    G = sv.from_edge_list([(0, 1, -1), (1, 0, -1)])
    assert np.allclose(sv.step(G, [1.0, 0.0]), [1.0, 0.0])
    assert np.allclose(sv.step(G, [1.0, 1.0]), [0.0, 0.0])


def test_step_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(3, 13))
        G = random_graph(rng, n)
        P, g = dense_p(G), dense_ground(G)
        x = rng.random(n)
        assert np.allclose(sv.step(G, x), P @ x + g, atol=1e-12)


def test_propagate_trajectory():
    rng = np.random.default_rng(2)
    G = random_graph(rng, 12)
    x0 = rng.random(12)
    assert sv.propagate(G, x0, 0).shape == (1, 12)
    traj = sv.propagate(G, x0, 15)
    ref = dense_trajectory(dense_p(G), dense_ground(G), x0, 15)
    assert np.abs(traj - ref).max() <= 1e-10
    assert traj.min() >= 0.0 and traj.max() <= 1.0


def test_propagate_periodic_two_cycle():
    # short-term dynamics stay exact on periodic graphs
    G = sv.from_edge_list([(0, 1, 1), (1, 0, 1)])
    traj = sv.propagate(G, [1.0, 0.0], 4)
    assert np.allclose(traj, [[1, 0], [0, 1], [1, 0], [0, 1], [1, 0]])


def test_even_step_negation_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(4, 100))
        G = random_graph(rng, n, n_edges=int(rng.integers(n + 1, 4 * n)))
        x0 = rng.random(n)
        t = int(rng.integers(1, 51))
        a = sv.propagate(G, x0, 2 * t)
        b = sv.propagate(sv.negate_signs(G), x0, 2 * t)
        assert np.abs(a[2 * t] - b[2 * t]).max() <= 1e-10
        assert np.abs(a[2 * t - 2] - b[2 * t - 2]).max() <= 1e-10


def test_propagate_limit_slow_mixing_cap():
    G = sv.slow_mixing(9)
    with pytest.raises(SlowMixing):
        sv.propagate_limit(G, sv.indicator(18, [0]), tol=1e-12, max_steps=40)


def test_solve_u_single_node():
    # one X node with a single unit edge into the sink's S side
    G = sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 1)])
    d = sv.decompose(G)
    bal = sv.classify_balance(d.sinks[0], G)
    u = sv.solve_u(G, d, 0, bal.in_s, "balanced")
    assert np.allclose(u, [1.0])
    Gneg = sv.from_edge_list([(0, 1, -1), (1, 2, 1), (2, 1, 1), (1, 1, 1)])
    dneg = sv.decompose(Gneg)
    u = sv.solve_u(Gneg, dneg, 0, sv.classify_balance(dneg.sinks[0], Gneg).in_s, "balanced")
    assert np.allclose(u, [-1.0])


def test_solve_u_matches_dense_solve():
    rng = np.random.default_rng(4)
    for _ in range(10):
        G = build_shape(rng, int(rng.integers(3, 8)), [("balanced", (3, 4))])
        d = sv.decompose(G)
        bal = sv.classify_balance(d.sinks[0], G)
        P = dense_p(G)
        x, z = d.non_sink, d.sinks[0]
        shat = np.where(bal.in_s, 1.0, -1.0)
        for mode, sign in (("balanced", +1), ("anti_balanced", -1)):
            u = sv.solve_u(G, d, 0, bal.in_s, mode)
            ref = np.linalg.solve(np.eye(x.size) - sign * P[np.ix_(x, x)],
                                  P[np.ix_(x, z)] @ shat)
            assert np.abs(u - ref).max() <= 1e-9


def test_steady_state_strictly_unbalanced_is_half():
    rng = np.random.default_rng(5)
    G = small_family(rng, "strictly_unbalanced")
    for x0 in (np.zeros(G.n), np.ones(G.n), rng.random(G.n)):
        ss = sv.steady_state(G, x0)
        assert ss.kind == "uniform_half"
        assert np.abs(ss.x - 0.5).max() <= 1e-12


def test_steady_state_balanced_polarized_equilibrium():
    rng = np.random.default_rng(6)
    G = small_family(rng, "balanced")
    bal = sv.classify_balance(np.arange(G.n), G)
    x0 = bal.in_s.astype(float)  # seed exactly S: already polarized
    ss = sv.steady_state(G, x0)
    assert ss.kind == "fixed"
    assert np.abs(ss.x - x0).max() <= 1e-12


def test_steady_state_matches_long_propagation_all_shapes():
    rng = np.random.default_rng(7)
    shapes = [
        (0, [("balanced", (3, 4))]),
        (0, [("anti_balanced", (3, 4))]),
        (0, [("strictly_unbalanced", (5,))]),
        (5, [("balanced", (3, 3))]),
        (5, [("anti_balanced", (3, 3))]),
        (4, [("strictly_unbalanced", (4,))]),
        (6, [("balanced", (1, 1)), ("anti_balanced", (3, 3)), ("strictly_unbalanced", (4,))]),
        (0, [("balanced", (3, 4)), ("balanced", (1, 1)), ("strictly_unbalanced", (4,))]),
    ]
    for x_size, specs in shapes:
        G = build_shape(rng, x_size, specs)
        x0 = rng.random(G.n).round()
        ss = sv.steady_state(G, x0)
        xe, xo, _ = sv.propagate_limit(G, x0, tol=1e-12)
        assert np.abs(ss.x_even - xe).max() <= 1e-9
        assert np.abs(ss.x_odd - xo).max() <= 1e-9


def test_steady_state_weakly_connected_zero_seed_closed_form():
    rng = np.random.default_rng(8)
    G = build_shape(rng, 5, [("balanced", (3, 3))])
    d = sv.decompose(G)
    bal = sv.classify_balance(d.sinks[0], G)
    pi = sv.stationary(d.sinks[0], G)
    pihat = np.where(bal.in_s, pi, -pi)
    ub = sv.solve_u(G, d, 0, bal.in_s, "balanced")
    ss = sv.steady_state(G, np.zeros(G.n))
    z = d.sinks[0]
    a = float(pihat @ (np.zeros(z.size) - 0.5))
    assert np.abs(ss.x_even[z] - (np.where(bal.in_s, 1.0, -1.0) * a + 0.5)).max() <= 1e-12
    assert np.abs(ss.x_even[d.non_sink] - (0.5 + ub * a)).max() <= 1e-12


def test_steady_state_computes_pi_only_where_a_closed_form_reads_it(monkeypatch):
    # a strictly unbalanced sink settles at 1/2 whatever x0, so its
    # stationary law is never needed
    rng = np.random.default_rng(5)
    G = build_shape(rng, 4, [("balanced", (3, 3)), ("strictly_unbalanced", (4,)),
                             ("anti_balanced", (3, 2))])
    x0 = rng.random(G.n)
    original = sv.structure.stationary
    kinds = []

    def recorded(nodes, graph, *args, **kwargs):
        kinds.append(sv.classify_balance(nodes, graph).kind)
        return original(nodes, graph, *args, **kwargs)

    monkeypatch.setattr(sv.structure, "stationary", recorded)
    ss = sv.steady_state(G, x0)
    assert sorted(kind.value for kind in kinds) == ["anti_balanced", "balanced"]

    d = sv.decompose(G)
    assert ss.sinks is not d.sink_analysis and len(ss.sinks) == len(d.sink_analysis) == 3
    assert all(a is b for a, b in zip(ss.sinks, d.sink_analysis))
    for sink, align in zip(ss.sinks, ss.alignment):
        bal = sink.balance
        if bal.kind is BalanceKind.STRICTLY_UNBALANCED:
            assert align == 0.0 and bal.signs is None
        else:
            assert align == float(np.where(bal.in_s, sink.pi, -sink.pi) @ (x0[bal.nodes] - 0.5))
    xe, xo, _ = sv.propagate_limit(G, x0, tol=1e-12)
    assert np.abs(ss.x_even - xe).max() <= 1e-9 and np.abs(ss.x_odd - xo).max() <= 1e-9


def test_coupling_dense_fallback_matches_propagation(monkeypatch):
    # a 200-node non-sink cycle leaks half its mass per turn through node 0
    # into a balanced 3-node sink: the series needs about 8,000 iterations,
    # past its cap of 2,500, so the dense solve takes over
    m = 200
    edges = [(i, (i + 1) % m, -1 if i % 7 == 0 else 1) for i in range(m)]
    edges += [(0, m, 1), (m, m, 1), (m, m + 1, 1), (m + 1, m + 2, -1), (m + 2, m, -1)]
    G = sv.from_edge_list(edges)
    dense_calls = []
    original = sv.structure.Block.dense

    def counted(block):
        dense_calls.append(block.nrows)
        return original(block)

    monkeypatch.setattr(sv.structure.Block, "dense", counted)
    x0 = np.random.default_rng(3).random(G.n)
    ss = sv.steady_state(G, x0)
    assert dense_calls == [m]
    xe, xo, _ = sv.propagate_limit(G, x0, tol=1e-12)
    assert np.abs(ss.x_even - xe).max() <= 1e-8 and np.abs(ss.x_odd - xo).max() <= 1e-8


def test_steady_state_rejects_periodic_sink():
    G = sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 1, 1)])  # sink {1,2} is a 2-cycle
    with pytest.raises(PeriodicComponent):
        sv.steady_state(G, np.zeros(3))


def test_oscillation_amplitude():
    rng = np.random.default_rng(9)
    G = small_family(rng, "anti_balanced")
    bal = sv.classify_balance(np.arange(G.n), G)
    pi = sv.stationary(np.arange(G.n), G)
    x0 = bal.in_s.astype(float)
    ss = sv.steady_state(G, x0)
    assert ss.kind == "oscillating"
    assert np.abs(ss.x_even + ss.x_odd - 1.0).max() <= 1e-12
    amp = sv.oscillation_amplitude(G, ss)
    pihat = np.where(bal.in_s, pi, -pi)
    expect = abs(bal.size_s - bal.size_sbar) * abs(pihat @ (x0 - 0.5))
    assert amp == pytest.approx(expect, abs=1e-10)
    # and against exact propagation at a far even/odd step pair
    traj = sv.propagate(G, x0, 401)
    assert amp == pytest.approx(abs(traj[400].sum() - traj[401].sum()) / 2, abs=1e-6)
    fixed = sv.steady_state(G, np.full(G.n, 0.5))
    assert sv.oscillation_amplitude(G, fixed) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(WrongKind):
        sv.oscillation_amplitude(G, sv.steady_state(small_family(rng, "balanced"),
                                                    np.zeros(13 * 1)))


def test_matrix_identity_centered_powers():
    # (Pbar - 1 pi^T)^t == Pbar^t - 1 pi^T for ergodic unsigned chains
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        G = random_graph(rng, n, neg_prob=0.0)
        if not sv.is_aperiodic(np.arange(n), G):
            continue
        pbar = dense_p(G)
        pi = sv.stationary(np.arange(n), G)
        centered = pbar - np.outer(np.ones(n), pi)
        lhs = np.eye(n)
        pk = np.eye(n)
        for _ in range(1, 11):
            lhs = lhs @ centered
            pk = pk @ pbar
            assert np.abs(lhs - (pk - np.outer(np.ones(n), pi))).max() <= 1e-10


def test_matrix_power_series_limits():
    # sum X^i -> (I-X)^-1 and the mixed sum X^i Y Z^(t-1-i) -> 0; nonnegative
    # blocks keep the dominant eigenvalue real so the decay is clean
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))

        def contraction(k):
            M = rng.random((k, k))
            return M * (0.6 / max(np.abs(np.linalg.eigvals(M))))

        X, Z = contraction(n), contraction(m)
        Y = rng.random((n, m))
        geo = np.zeros((n, n))
        pk = np.eye(n)
        for _ in range(400):
            geo += pk
            pk = pk @ X
        assert np.abs(geo - np.linalg.inv(np.eye(n) - X)).max() <= 1e-8
        norms = []
        for t in range(1, 61):
            s = np.zeros((n, m))
            xi = np.eye(n)
            zs = [np.linalg.matrix_power(Z, j) for j in range(t)]
            for i in range(t):
                s += xi @ Y @ zs[t - 1 - i]
                xi = xi @ X
            norms.append(np.abs(s).max())
        # decays to ~0, monotonically beyond the burn-in (the peak)
        peak = max(norms)
        assert norms[-1] <= 1e-6 * peak + 1e-12
        tail = norms[norms.index(peak):]
        assert all(b <= a + 1e-12 * peak for a, b in zip(tail, tail[1:]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda G, x: sv.step(G, x),
    lambda G, x: sv.propagate(G, x, 0),
    lambda G, x: sv.propagate(G, x, 2),
    lambda G, x: sv.propagate_limit(G, x),
    lambda G, x: sv.steady_state(G, x),
], ids=["step", "propagate-t0", "propagate-t2", "propagate_limit", "steady_state"])
def test_non_finite_distributions_are_rejected_before_any_step(monkeypatch, call, bad):
    # a NaN fails every comparison, so a range test of the form x < lo or
    # x > hi would let it through
    G = sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 0, 1)])

    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(dynamics, "apply_p", no_step)
    with pytest.raises(ValueError, match="^color distribution entries must be finite$"):
        call(G, np.array([0.5, bad, 0.0]))


def test_propagate_validates_its_input_once(monkeypatch):
    """propagate and propagate_limit check x0, then step through rows they
    clipped themselves; the trajectory is the public step's, bit for bit."""
    rng = np.random.default_rng(11)
    G = random_graph(rng, 40)
    x0 = rng.random((40, 3))
    want = [x0.copy()]
    for _ in range(30):
        want.append(sv.step(G, want[-1]))
    even, odd = want[0], sv.step(G, want[0])
    while True:
        nxt_even = sv.step(G, odd)
        nxt_odd = sv.step(G, nxt_even)
        delta = max(np.abs(nxt_even - even).max(), np.abs(nxt_odd - odd).max())
        even, odd = nxt_even, nxt_odd
        if delta <= 1e-9:
            break
    calls = []
    validated = dynamics._validated
    monkeypatch.setattr(dynamics, "_validated", lambda *a: calls.append(a) or validated(*a))
    assert np.array_equal(sv.propagate(G, x0, 30), np.stack(want))
    assert len(calls) == 1
    got_even, got_odd, _ = sv.propagate_limit(G, x0)
    assert np.array_equal(got_even, even) and np.array_equal(got_odd, odd)
    assert len(calls) == 2


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2), (2, 1, 3), (1, 2)],
                         ids=["scalar", "length-3", "n-2-2", "n-1-3", "row"])
@pytest.mark.parametrize("call", [
    lambda G, x: sv.step(G, x),
    lambda G, x: sv.propagate(G, x, 3),
    lambda G, x: sv.propagate_limit(G, x),
    lambda G, x: sv.steady_state(G, x),
    lambda G, x: sv.apply_p(G, x),
    lambda G, x: sv.apply_p_transpose(G, x),
], ids=["step", "propagate", "propagate_limit", "steady_state", "apply_p", "apply_p_transpose"])
def test_only_vectors_and_column_batches_are_distributions(call, shape):
    """(n,) and (n, k) are the documented shapes; a scalar raised IndexError, and
    an (n, 2, 2) batch on this 2-edge graph broadcast into a wrong trajectory."""
    G = sv.from_edge_list([(0, 1, 1), (1, 0, -1)])
    want = r"^(distribution|vector) of shape .*: want \(n,\) or \(n, k\)$"
    with pytest.raises(ValueError, match=want):
        call(G, np.full(shape, 0.5))


@pytest.mark.parametrize("call", [
    lambda G, x: sv.step(G, x),
    lambda G, x: sv.propagate(G, x, 2),
], ids=["step", "propagate"])
def test_finite_distributions_outside_the_unit_interval_are_rejected(call):
    G = sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 0, 1)])
    with pytest.raises(ValueError, match=r"^color distribution entries outside \[0, 1\]$"):
        call(G, np.array([0.5, 1.5, 0.0]))
