"""Monte Carlo simulator: determinism, unbiasedness, polarization absorption,
and the exact random stream, pinned by digests of every statistic."""

import collections
import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import signedvoter as sv
from signedvoter import simulate

from helpers import random_graph, reference_step_batch, small_family


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


def _mc_run_peak(G, t, trials):
    tracemalloc.start()
    try:
        sv.mc_run(G, [0, 1], t=t, trials=trials, rng_seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_run_memory_does_not_grow_with_trials(monkeypatch):
    # each worker holds two tiles and one block of scratch, not a batch of colors:
    # 8,192 trials take at most one block of rows per tile, 64 trials 22 rows
    monkeypatch.setattr(simulate, "_threads", lambda: 3)
    G = _balanced([1000, 1000], 15)
    assert _mc_run_peak(G, 1, 8192) - _mc_run_peak(G, 1, 64) < 4 * 2**20


def test_mc_run_memory_does_not_grow_with_steps():
    # a (t + 1) x trials array of int64 white counts would take 131 MB
    G = sv.from_edge_list([(0, 1, 1), (1, 0, -1)])
    assert _mc_run_peak(G, 2_000, 8192) < 4 * 2**20


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


def test_batches_start_without_listing_every_batch():
    # 10**6 full batches: the first is ready before any later one is made
    G = sv.from_edge_list([(0, 1, 1), (1, 0, 1)])
    tracemalloc.start()
    try:
        rng, colors, spare = next(simulate._batches(G, [0], 8192 * 10**6, rng_seed=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert colors.shape == spare.shape == (8192, 2)
    assert colors[:, 0].all() and not colors[:, 1].any()
    first = np.random.default_rng(np.random.SeedSequence(4).spawn(1)[0])
    assert rng.bit_generator.state == first.bit_generator.state
    assert peak < 2**20


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


def test_mc_run_rejects_seed_ids_that_are_not_integers_before_any_step(monkeypatch):
    # a cast to int64 would seed node 0 for 0.7
    G = sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 0, 1)])

    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(simulate._Stepper, "_run", no_step)
    with pytest.raises(ValueError, match="^seed ids must be integers, got dtype float64$"):
        sv.mc_run(G, [0.7], t=5, trials=3, rng_seed=0)


@pytest.mark.parametrize("run", [
    lambda G, p: sv.mc_run(G, [0], t=5, trials=3, rng_seed=0, partition=p),
    lambda G, p: sv.mc_polarize(G, p, [0], trials=3, rng_seed=0),
], ids=["mc_run", "mc_polarize"])
def test_mc_rejects_a_partition_of_the_wrong_length_before_any_step(monkeypatch, run):
    G = sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 0, 1)])

    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(simulate._Stepper, "_run", no_step)
    with pytest.raises(ValueError, match=r"^partition must have n = 3 entries, got 2$"):
        run(G, np.ones(2, dtype=bool))


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_mc_random_stream_is_pinned_at_every_thread_count(monkeypatch, case, threads):
    # blocks of 2^12 node-updates: a full 8,192-row batch splits among all
    # three workers of mc_run, while mc_polarize steps every batch on the
    # calling thread; the 37-row batch stays on one thread
    monkeypatch.setattr(simulate, "_BLOCK", 1 << 12)
    monkeypatch.setattr(simulate, "_threads", lambda: threads)
    test_mc_random_stream_is_pinned(case)


def test_mc_run_memory_bound_holds_at_three_threads(monkeypatch):
    # each worker owns one block of scratch; three of them fit the same bound
    monkeypatch.setattr(simulate, "_threads", lambda: 3)
    test_mc_run_memory_is_two_color_batches_plus_one_block()


def _same_state(a, b):
    """Equality of bit generator states, whose fields may be arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _blocked_step_check(monkeypatch, rng, oracle_rng):
    """mc_step in blocks of two rows against the one-shot oracle."""
    G = _balanced([5, 5], 3)
    monkeypatch.setattr(simulate, "_BLOCK", 2 * G.n)  # two rows per block
    colors = np.random.default_rng(4).random((9, G.n)) < 0.5
    got = sv.mc_step(G, colors, rng)
    want = reference_step_batch(G, simulate.build_alias_tables(G), colors, oracle_rng)
    assert np.array_equal(got, want)
    assert _same_state(rng.bit_generator.state, oracle_rng.bit_generator.state)


def test_step_keeps_a_buffered_32_bit_value(monkeypatch):
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    rng.random(dtype=np.float32)  # leaves half of a 64-bit output buffered
    oracle_rng.random(dtype=np.float32)
    assert rng.bit_generator.state["has_uint32"] == 1
    _blocked_step_check(monkeypatch, rng, oracle_rng)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_step_on_other_bit_generators_matches_one_shot_draw(monkeypatch, bit_generator):
    rng = np.random.Generator(bit_generator(6))
    oracle_rng = np.random.Generator(bit_generator(6))
    _blocked_step_check(monkeypatch, rng, oracle_rng)


def test_repeated_steps_match_one_shot_draws(monkeypatch):
    # five steps of the same colors in blocks of three rows, each drawing
    # where the last one left the stream, while the interpreter switches
    # threads as often as it allows
    G = _golden_graph("weighted")
    monkeypatch.setattr(simulate, "_BLOCK", 3 * G.n)
    colors = np.random.default_rng(7).random((400, G.n)) < 0.5
    rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [sv.mc_step(G, colors, rng) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    tables = simulate.build_alias_tables(G)
    for step in got:
        assert np.array_equal(step, reference_step_batch(G, tables, colors, oracle_rng))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_tile_runner_under_fast_thread_switching(monkeypatch):
    # five workers on tiles of one row add into the same sums of two steps
    # while the interpreter switches threads as often as it allows; a lost
    # update would change a statistic of the one-thread run
    G = _golden_graph("weighted")
    in_s = sv.classify_balance(np.arange(G.n), G).in_s
    monkeypatch.setattr(simulate, "_BLOCK", G.n)

    def run(threads):
        monkeypatch.setattr(simulate, "_threads", lambda: threads)
        stats = sv.mc_run(G, [0, 3, 7], t=1, trials=3000, rng_seed=9, track_nodes=True,
                          partition=in_s)
        return (_digest(stats.mean, stats.stderr, stats.node_freq), stats.s_white, stats.s_black)

    want = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run(5)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_row_counts_stay_exact_where_a_tile_passes_int32(monkeypatch):
    # about 14,400 of 16,000 nodes white: a default tile of 16 rows has
    # w @ w near 3.3e9, past 2**31, while a one-row tile stays near 2.1e8;
    # NumPy < 2 on Windows sums booleans in int32 unless told otherwise
    G = random_graph(np.random.default_rng(31), 16_000, neg_prob=0.0)
    seeds = np.flatnonzero(np.arange(G.n) % 10)
    monkeypatch.setattr(simulate, "_threads", lambda: 1)

    def run(block):
        monkeypatch.setattr(simulate, "_BLOCK", block)
        return sv.mc_run(G, seeds, t=1, trials=32, rng_seed=5)

    rows = simulate._BLOCK // G.n
    tiles, one_row = run(simulate._BLOCK), run(G.n)
    # premises, read from the one-row run: some default tile's mean white
    # count is at least the overall mean, so its w @ w is at least
    # rows * mean**2; and rows differ, so a wrapped sum of squares is not
    # merely clamped to a variance of 0
    assert rows * one_row.mean[1] ** 2 > 2**31
    assert one_row.stderr[1] > 0
    assert tiles.mean.tobytes() == one_row.mean.tobytes()
    assert tiles.stderr.tobytes() == one_row.stderr.tobytes()


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_mc_calls_leave_no_thread_running(monkeypatch, fail):
    G = _balanced([5, 5], 3)
    in_s = sv.classify_balance(np.arange(G.n), G).in_s
    monkeypatch.setattr(simulate, "_BLOCK", 2 * G.n)
    monkeypatch.setattr(simulate, "_threads", lambda: 3)
    caller, seen = threading.get_ident(), set()
    run = simulate._Stepper._run

    def worker_run(self, *args):
        seen.add(threading.get_ident())
        if fail and threading.get_ident() != caller:
            raise RuntimeError("worker failed")
        run(self, *args)

    monkeypatch.setattr(simulate._Stepper, "_run", worker_run)
    before = threading.active_count()
    calls = [lambda: sv.mc_run(G, [0, 1], t=3, trials=50, rng_seed=1)]
    if not fail:  # mc_polarize has no worker thread to fail
        calls.append(lambda: sv.mc_polarize(G, in_s, [0, 1], trials=50, rng_seed=1))
    for call in calls:
        if fail:
            with pytest.raises(RuntimeError, match="worker failed"):
                call()
        else:
            call()
        assert threading.active_count() == before
    assert len(seen) > 1  # worker threads stepped rows, not only the calling thread


def test_each_walk_joins_its_workers_before_it_returns(monkeypatch):
    # three batches of 16, 16 and 8 trials on three threads: a pool that
    # lived across the batches would still hold its threads when the first
    # two walks return
    G = _balanced([5, 5], 3)
    monkeypatch.setattr(simulate, "_BATCH", 16)
    monkeypatch.setattr(simulate, "_BLOCK", 2 * G.n)
    monkeypatch.setattr(simulate, "_threads", lambda: 3)
    seen, counts = set(), []
    run, walk = simulate._Stepper._run, simulate._Stepper.walk

    def recorded_run(self, *args):
        seen.add(threading.get_ident())
        run(self, *args)

    def recorded_walk(self, *args):
        sums = walk(self, *args)
        counts.append(threading.active_count())
        return sums

    monkeypatch.setattr(simulate._Stepper, "_run", recorded_run)
    monkeypatch.setattr(simulate._Stepper, "walk", recorded_walk)
    before = threading.active_count()
    sv.mc_run(G, [0, 1], t=3, trials=40, rng_seed=1)
    assert counts == [before] * 3
    assert len(seen) > 1  # worker threads stepped rows, not only the calling thread


@pytest.mark.parametrize("call", ["mc_polarize", "mc_step"])
def test_polarize_and_step_run_on_the_calling_thread(monkeypatch, call):
    # three threads allowed and blocks of two rows, so a batch spans many
    # blocks: every block still steps on the calling thread, and no thread
    # starts during the call
    G = _balanced([5, 5], 3)
    in_s = sv.classify_balance(np.arange(G.n), G).in_s
    monkeypatch.setattr(simulate, "_BLOCK", 2 * G.n)
    monkeypatch.setattr(simulate, "_threads", lambda: 3)
    seen, counts, spans = set(), set(), []
    run = simulate._Stepper._run

    def recorded_run(self, buf, colors, *args):
        seen.add(threading.get_ident())
        counts.add(threading.active_count())
        spans.append(colors.shape[0] > buf.rows)
        run(self, buf, colors, *args)

    monkeypatch.setattr(simulate._Stepper, "_run", recorded_run)
    before = threading.active_count()
    if call == "mc_polarize":
        sv.mc_polarize(G, in_s, [0, 1], trials=50, rng_seed=1)
    else:
        sv.mc_step(G, np.random.default_rng(2).random((50, G.n)) < 0.5,
                   np.random.default_rng(3))
    assert any(spans)  # the premise: some call stepped more than one block
    assert seen == {threading.get_ident()}
    assert counts == {before} and threading.active_count() == before


def test_walk_gives_every_thread_an_equal_share(monkeypatch):
    # 200 trials in blocks of 27 rows on two threads: tiles of 27 rows dealt
    # in turn would leave one thread 108 rows of every step and the other 92
    G = _balanced([5, 5], 3)
    monkeypatch.setattr(simulate, "_BLOCK", 27 * G.n)
    monkeypatch.setattr(simulate, "_threads", lambda: 2)
    rows = collections.Counter()
    run = simulate._Stepper._run

    def counted_run(self, buf, colors, *args):
        rows[threading.get_ident()] += colors.shape[0]  # each thread its own key
        run(self, buf, colors, *args)

    monkeypatch.setattr(simulate._Stepper, "_run", counted_run)
    t = 3
    sv.mc_run(G, [0, 1], t=t, trials=200, rng_seed=1)
    assert len(rows) == 2 and sum(rows.values()) == 200 * t
    assert max(rows.values()) <= 100 * t


def test_walk_workers_stop_when_the_calling_thread_is_interrupted(monkeypatch):
    # Ctrl-C reaches only the calling thread; the other worker must stop at
    # its next tile-step rather than run its rows through all t steps
    G = _balanced([5, 5], 3)
    monkeypatch.setattr(simulate, "_BLOCK", 2 * G.n)
    monkeypatch.setattr(simulate, "_threads", lambda: 2)
    caller, stepping = threading.get_ident(), threading.Event()
    worker_steps = []
    run = simulate._Stepper._run

    def worker_run(self, *args):
        if threading.get_ident() == caller:
            assert stepping.wait(timeout=30)
            raise KeyboardInterrupt
        worker_steps.append(1)
        stepping.set()
        run(self, *args)

    monkeypatch.setattr(simulate._Stepper, "_run", worker_run)
    before = threading.active_count()
    t = 100_000
    with pytest.raises(KeyboardInterrupt):
        sv.mc_run(G, [0, 1], t=t, trials=4, rng_seed=1)
    assert threading.active_count() == before
    assert 0 < len(worker_steps) < t // 10
