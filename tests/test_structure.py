"""Condensation, aperiodicity, balance classification, stationary law."""

import sys

import numpy as np
import pytest

import signedvoter as sv
from signedvoter import structure
from signedvoter.errors import NoConvergence, NotStronglyConnected, PeriodicComponent, WrongKind
from signedvoter.structure import BalanceKind, _restrict

from helpers import (build_shape, copy_graph, dense_p, products_in_parts, random_graph,
                     reference_classify_balance, small_family)


def test_decompose_strongly_connected():
    rng = np.random.default_rng(0)
    G = random_graph(rng, 20)
    d = sv.decompose(G)
    assert d.n_components == 1
    assert d.sink_index == [0]
    assert d.non_sink.size == 0
    assert np.array_equal(d.components[0], np.arange(20))


def test_decompose_weakly_connected_family():
    G = sv.generate(sv.GeneratorConfig("weakly_connected", [5, 4, 5, 4, 6],
                                       edges_per_node=2, seed=1))
    d = sv.decompose(G)
    assert [z.tolist() for z in d.sinks] == [list(range(5, 14)), list(range(14, 24))]
    assert d.non_sink.tolist() == list(range(5))


def test_sinks_are_built_once():
    """py(i) and pz(i) read d.sinks on every call: a list rebuilt on each access
    made every long-term routine quadratic in the number of sinks."""
    d = sv.decompose(sv.generate(sv.GeneratorConfig("weakly_connected", [5, 4, 5, 4, 6],
                                                    edges_per_node=2, seed=1)))
    assert d.sinks is d.sinks


def test_decompose_chain_brute_force_reachability():
    # hand-built condensation: 0,1 -> sink {2,3}; singleton sink {4}
    edges = [(0, 1, 1), (1, 0, 1), (1, 2, -1), (2, 3, 1), (3, 2, 1), (3, 3, 1), (4, 4, 1)]
    G = sv.from_edge_list(edges)
    d = sv.decompose(G)
    assert [c.tolist() for c in d.components] == [[0, 1], [2, 3], [4]]
    assert d.sink_index == [1, 2]
    assert d.non_sink.tolist() == [0, 1]
    # every edge lands in exactly one block
    blocks = [d.px()] + [d.py(i) for i in range(2)] + [d.pz(i) for i in range(2)]
    assert sum(b.rows.size for b in blocks) == G.n_edges


def test_decompose_matches_reachability_oracle():
    # sinks = SCCs whose forward-reachable set stays inside the SCC
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(6, 40))
        edges = {}
        for _ in range(3 * n):
            s, t = int(rng.integers(n)), int(rng.integers(n))
            edges[(s, t)] = 1
        # give every node an out-edge
        for s in range(n):
            edges.setdefault((s, (s + 1) % n), 1)
        G = sv.from_edge_list([(s, t, w) for (s, t), w in edges.items()])
        d = sv.decompose(G)
        reach = np.zeros((n, n), dtype=bool)
        np.fill_diagonal(reach, True)
        for _ in range(n):
            nxt = reach.copy()
            for (s, t) in edges:
                nxt[s] |= reach[t]
            if np.array_equal(nxt, reach):
                break
            reach = nxt
        for comp_id, comp in enumerate(d.components):
            mutual = reach[comp[0]] & reach[:, comp[0]]
            assert np.array_equal(np.sort(np.nonzero(mutual)[0]), comp)
            is_sink = all(
                reach[comp[0], t] <= (t in set(comp.tolist()))
                for t in range(n)
            ) or not np.any(reach[comp[0]] & ~np.isin(np.arange(n), comp))
            assert (comp_id in d.sink_index) == bool(is_sink)


def test_decompose_deep_path_needs_no_recursion():
    # 0 -> 1 -> ... -> 49,999 -> 49,998: the DFS goes 50,000 nodes deep
    n = 50_000
    assert n > sys.getrecursionlimit()
    G = sv.from_edge_list([(v, v + 1, 1) for v in range(n - 1)] + [(n - 1, n - 2, 1)])
    d = sv.decompose(G)
    assert d.n_components == n - 1
    assert [c.tolist() for c in d.components[:-1]] == [[v] for v in range(n - 2)]
    assert d.components[-1].tolist() == [n - 2, n - 1]
    assert np.array_equal(d.scc_id, np.minimum(np.arange(n), n - 2))
    assert d.sink_index == [n - 2]
    assert np.array_equal(d.non_sink, np.arange(n - 2))


def test_block_views_tile_the_transition_matrix():
    # px/py/pz dense views must reassemble the permuted dense operator exactly
    rng = np.random.default_rng(11)
    edges = [(0, 1, 1), (1, 0, -1), (0, 2, 1), (1, 3, -2),
             (2, 3, 1), (3, 2, -1), (3, 3, 1), (4, 4, 1), (2, 4, 1)]
    G = sv.from_edge_list(edges)
    d = sv.decompose(G)
    P = dense_p(G)
    x = d.non_sink
    assert np.array_equal(d.px().dense(), P[np.ix_(x, x)])
    for i, z in enumerate(d.sinks):
        assert np.array_equal(d.py(i).dense(), P[np.ix_(x, z)])
        assert np.array_equal(d.pz(i).dense(), P[np.ix_(z, z)])
    total = d.px().rows.size + sum(
        d.py(i).rows.size + d.pz(i).rows.size for i in range(len(d.sinks)))
    assert total == G.n_edges


def test_px_and_every_py_read_the_rows_of_x_once(monkeypatch):
    """px and every py(j) are sliced out of one read of X's CSR rows: a ring
    feeder with B repaired singleton sinks reads them once, where a cut per
    block read them B + 1 times."""
    m, B = 5, 40
    edges = [(v, (v + 1) % m, 1) for v in range(m)]
    edges += [(j % m, m + j, -1 if j % 3 else 1) for j in range(B)]
    G = sv.from_edge_list(edges, repair_dangling=True)
    d = sv.decompose(G)
    assert len(d.sinks) == B and d.non_sink.tolist() == list(range(m))
    original, calls = structure._ranges, []

    def counted(start, count):
        calls.append(count.size)
        return original(start, count)

    monkeypatch.setattr(structure, "_ranges", counted)
    blocks = [d.px()] + [d.py(j) for j in range(B)] + [d.px(), d.py(0)]
    assert calls == [m]
    assert sum(blk.rows.size for blk in blocks[:B + 1]) == m + B
    assert all(d.py(j).rows.tolist() == [j % m] for j in range(B))


def test_py_and_pz_index_like_the_list_of_sinks():
    """py(j) and pz(j) take j as `sinks[j]` does: one past the last sink is
    an IndexError, and -1 is the last sink's block itself."""
    G = sv.from_edge_list([(0, 1, 1), (1, 0, -1), (0, 2, 1), (1, 3, -1), (2, 2, 1), (3, 3, 1)])
    d = sv.decompose(G)
    B = len(d.sinks)
    assert B == 2
    for block in (d.py, d.pz):
        with pytest.raises(IndexError):
            block(B)
        assert block(-1) is block(B - 1)


def test_is_aperiodic():
    # 2-cycle and 3-cycle sharing node 0: gcd(2, 3) = 1
    G = sv.from_edge_list([(0, 1, 1), (1, 0, 1), (0, 2, 1), (2, 3, 1), (3, 0, 1)])
    assert sv.is_aperiodic(np.arange(4), G)
    # pure directed 4-cycle has period 4
    C4 = sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    assert not sv.is_aperiodic(np.arange(4), C4)
    assert sv.is_aperiodic(np.arange(6), sv.slow_mixing(3))
    with pytest.raises(NotStronglyConnected):
        sv.is_aperiodic([0, 1], sv.from_edge_list([(0, 1, 1), (1, 1, 1)]))


@pytest.mark.parametrize("nodes", [[0, 1], [0, 1, 2, 3, 4], [0, 1, 2, 2], [3, 3]])
def test_node_set_that_is_not_one_scc_is_rejected(nodes):
    # SCCs {0, 1, 2} and {3, 4}: a strict subset, a union, repeated ids
    G = sv.from_edge_list([(0, 1, 1), (1, 2, -1), (2, 0, 1), (2, 3, 1), (3, 4, -1), (4, 3, -1)])
    for fn in (sv.is_aperiodic, sv.classify_balance, sv.stationary, reference_classify_balance):
        name = fn.__name__.removeprefix("reference_")
        with pytest.raises(NotStronglyConnected, match=f"^{name}: node set is not a single SCC$"):
            fn(nodes, G)


@pytest.mark.parametrize("nodes", [[], [3], [-1]])
def test_empty_or_out_of_range_node_set_is_rejected(nodes):
    # on a 3-node graph: no node, an id past the last node, a negative id
    G = sv.from_edge_list([(0, 1, 1), (1, 2, -1), (2, 0, 1)])
    for fn in (sv.is_aperiodic, sv.classify_balance, sv.stationary):
        with pytest.raises(NotStronglyConnected,
                           match=f"^{fn.__name__}: node set is not a single SCC$"):
            fn(nodes, G)


@pytest.mark.parametrize("nodes", [np.array([0.4, 1.7]), [0.0, 1.0], [2.5], [True, False],
                                   np.array([True])])
def test_node_ids_that_are_not_integers_are_rejected(nodes):
    # SCCs {0, 1} and {2}: a cast to int64 would answer for {0, 1} given
    # [0.4, 1.7] or [True, False], and for node 2 given [2.5]
    G = sv.from_edge_list([(0, 1, 1), (1, 0, -1), (1, 2, 1), (2, 2, 1)])
    for fn in (sv.is_aperiodic, sv.classify_balance, sv.stationary):
        with pytest.raises(ValueError, match=f"^{fn.__name__}: node ids must be integers"):
            fn(nodes, G)


def test_each_component_is_cut_out_of_the_graph_once(monkeypatch):
    """Both checks and analysis(i) on every component, and stationary and
    pz(i) on every sink, read one cached edge view per component: its edges
    are cut out of G once, where each read cut them again before (3 times
    per component, 5 per sink)."""
    G = copy_graph(build_shape(np.random.default_rng(3), 4, [("balanced", (3, 4)),
                                                             ("anti_balanced", (2, 3)),
                                                             ("strictly_unbalanced", (5,))]))
    d = sv.decompose(G)
    assert d.n_components == 4
    cuts = [0] * d.n_components
    restrict, into = structure._restrict, structure.Decomposition._into

    def counted_restrict(graph, rows, cols):
        for i, comp in enumerate(d.components):
            cuts[i] += np.array_equal(rows, comp) and np.array_equal(cols, comp)
        return restrict(graph, rows, cols)

    def counted_into(self, rows, i):
        cuts[i] += np.array_equal(rows, self.components[i])
        return into(self, rows, i)

    monkeypatch.setattr(structure, "_restrict", counted_restrict)
    monkeypatch.setattr(structure.Decomposition, "_into", counted_into)
    for i, comp in enumerate(d.components):
        sv.is_aperiodic(comp, G)
        sv.classify_balance(comp, G)
        d.analysis(i)
    for j, sink in enumerate(d.sinks):
        sv.stationary(sink, G)
        d.pz(j)
    assert cuts == [1] * d.n_components


def test_component_checks_run_one_bfs_each(monkeypatch):
    # an SCC of the cached decomposition needs no BFS to prove it is one
    G = small_family(np.random.default_rng(7), "balanced")
    original = structure._bfs_levels
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(structure, "_bfs_levels", counted)
    for fn, want in ((sv.is_aperiodic, 1), (sv.classify_balance, 1), (sv.stationary, 0)):
        calls = 0
        fn(np.arange(G.n), G)
        assert calls == want, fn.__name__


def test_analysis_runs_one_bfs_per_component(monkeypatch):
    """analysis(i) hands one directed BFS to both checks instead of letting
    each run its own: the aperiodic components took two BFS each before."""
    G = build_shape(np.random.default_rng(3), 4, [("balanced", (3, 4)),
                                                  ("anti_balanced", (2, 3)),
                                                  ("strictly_unbalanced", (5,))])
    original = structure._bfs_levels
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(structure, "_bfs_levels", counted)
    d = sv.decompose(G)
    kinds = []
    for i in range(d.n_components):
        calls = 0
        a = d.analysis(i)
        assert calls == 1, i
        if a.aperiodic:
            kinds.append(a.balance.kind)
    assert set(kinds) == set(BalanceKind)


def test_classify_balanced_even_negative_cycle():
    # 3-cycle with two negative edges, plus a chord for aperiodicity
    G = sv.from_edge_list([(0, 1, -1), (1, 2, -1), (2, 0, 1), (1, 0, -1)])
    bal = sv.classify_balance(np.arange(3), G)
    assert bal.kind is BalanceKind.BALANCED
    assert bal.in_s.tolist() == [True, False, True]


def test_classify_strictly_unbalanced_parallel_mixed_pair():
    # one negative edge in the triangle plus a positive reverse chord
    G = sv.from_edge_list([(0, 1, -1), (1, 2, 1), (2, 0, 1), (1, 0, 1)])
    assert sv.is_aperiodic(np.arange(3), G)
    bal = sv.classify_balance(np.arange(3), G)
    assert bal.kind is BalanceKind.STRICTLY_UNBALANCED
    assert bal.in_s is None
    # exhaustive check over all bipartitions: none is consistent either way
    signs = {(0, 1): -1, (1, 2): 1, (2, 0): 1, (1, 0): 1}
    for mask in range(8):
        side = [(mask >> i) & 1 for i in range(3)]
        ok_bal = all((sign > 0) == (side[a] == side[b]) for (a, b), sign in signs.items())
        ok_anti = all((sign < 0) == (side[a] == side[b]) for (a, b), sign in signs.items())
        assert not ok_bal and not ok_anti


def test_classify_all_negative_is_anti_balanced():
    rng = np.random.default_rng(2)
    G = random_graph(rng, 9, neg_prob=1.0)
    if not sv.is_aperiodic(np.arange(9), G):
        pytest.skip("unlucky periodic draw")
    bal = sv.classify_balance(np.arange(9), G)
    assert bal.kind is BalanceKind.ANTI_BALANCED
    assert bal.in_s.all()  # S = V: all internal edges negative


def test_classify_negation_swaps_kinds():
    rng = np.random.default_rng(3)
    for family, flipped in (("balanced", BalanceKind.ANTI_BALANCED),
                            ("anti_balanced", BalanceKind.BALANCED),
                            ("strictly_unbalanced", BalanceKind.STRICTLY_UNBALANCED)):
        G = small_family(rng, family)
        nodes = np.arange(G.n)
        bal = sv.classify_balance(nodes, G)
        neg = sv.classify_balance(nodes, sv.negate_signs(G))
        assert neg.kind is flipped
        if bal.in_s is not None:
            assert np.array_equal(bal.in_s, neg.in_s)


def test_classify_never_both():
    # on an aperiodic SCC the second 2-coloring must fail when the first works
    rng = np.random.default_rng(4)
    for family in ("balanced", "anti_balanced"):
        for _ in range(5):
            G = small_family(rng, family)
            nodes = np.arange(G.n)
            bal = sv.classify_balance(nodes, G)
            anti = sv.classify_balance(nodes, sv.negate_signs(G))
            assert {bal.kind, anti.kind} == {BalanceKind.BALANCED, BalanceKind.ANTI_BALANCED}


def test_balanced_partition_sign_pattern():
    # one edge scan: inside S / inside Sbar positive, across negative
    rng = np.random.default_rng(5)
    G = small_family(rng, "balanced")
    bal = sv.classify_balance(np.arange(G.n), G)
    assert bal.kind is BalanceKind.BALANCED
    src = G.sources
    same = bal.in_s[src] == bal.in_s[G.targets]
    assert np.array_equal(same, G.signs > 0)
    assert bal.in_s[0]  # canonical: node 0 in S


def test_stationary_simple_cases():
    G = sv.from_edge_list([(0, 1, 1), (1, 0, 1)])
    assert np.allclose(sv.stationary([0, 1], G), [0.5, 0.5])
    chain = sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert np.allclose(sv.stationary([0, 1, 2], chain), [1 / 3] * 3, atol=1e-10)


def test_stationary_residual_and_scaling_invariance():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(4, 25))
        G = random_graph(rng, n)
        pi = sv.stationary(np.arange(n), G)
        assert pi.min() >= 0 and abs(pi.sum() - 1) <= 1e-12
        pbar = np.abs(dense_p(G))
        assert np.abs(pi @ pbar - pi).max() <= 1e-10
        # uniform weight scaling leaves the chain unchanged
        scaled = sv.from_edge_list(
            [(int(s), int(t), 7.0 * w * g) for s, t, w, g in
             zip(G.sources, G.targets, G.weights, G.signs)]
        )
        assert np.allclose(sv.stationary(np.arange(n), scaled), pi, atol=1e-10)


def test_stationary_slow_mixing_formula():
    for m in (3, 5, 8):
        G = sv.slow_mixing(m)
        pi = sv.stationary(np.arange(2 * m), G)
        rho = 2 ** (m - 1) / (3 * 2 ** (m - 2) - 1)
        expect = np.array([rho / 4] + [rho / 2 ** i for i in range(2, m + 1)])
        assert np.allclose(pi[:m], expect, atol=1e-10)
        assert np.allclose(pi[m:], expect, atol=1e-10)


def test_stationary_rejects_open_component():
    G = sv.from_edge_list([(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 2, 1)])
    with pytest.raises(NotStronglyConnected):
        sv.stationary([0, 1], G)  # SCC, but leaks into node 2


def test_decomposition_and_sink_analysis_cached_on_graph():
    rng = np.random.default_rng(12)
    G = small_family(rng, "weakly_connected")
    d = sv.decompose(G)
    assert sv.decompose(G) is d
    assert d.sink_analysis is d.sink_analysis
    for z, sink in zip(d.sinks, d.sink_analysis):
        bal = sv.classify_balance(z, G)
        assert sink.balance.kind is bal.kind
        assert np.array_equal(sink.balance.nodes, z)
        assert np.array_equal(sink.balance.in_s, bal.in_s)
        assert np.array_equal(sink.pi, sv.stationary(z, G))
        assert not sink.pi.flags.writeable and not sink.balance.in_s.flags.writeable
    first = sv.steady_state(G, np.ones(G.n))
    again = sv.steady_state(G, np.ones(G.n))
    assert np.array_equal(first.x_even, again.x_even)
    # a new graph object with the same arrays starts from an empty cache
    assert sv.decompose(sv.negate_signs(sv.negate_signs(G))) is not d


def test_sink_analysis_rejects_periodic_sink():
    C4 = sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    with pytest.raises(PeriodicComponent):
        sv.decompose(C4).sink_analysis


def test_stationary_computed_only_where_needed(monkeypatch):
    """svim_l needs pi only on balanced sinks; oscillation_seeds only after its kind check."""
    rng = np.random.default_rng(5)
    G = build_shape(rng, 4, [("balanced", (3, 3)), ("strictly_unbalanced", (4,)),
                             ("anti_balanced", (3, 2))])
    fresh = sv.negate_signs(sv.negate_signs(G))  # same graph, empty cache
    expect = sv.contribution_longterm(fresh).c
    original = sv.structure.stationary

    def balanced_only(nodes, graph, *args, **kwargs):
        if sv.classify_balance(nodes, graph).kind is not BalanceKind.BALANCED:
            raise NoConvergence("stationary must not run on this sink")
        return original(nodes, graph, *args, **kwargs)

    monkeypatch.setattr(sv.structure, "stationary", balanced_only)
    assert np.array_equal(sv.contribution_longterm(G).c, expect)
    assert sv.svim_l(G, 3).nodes == sv.svim_l(fresh, 3).nodes

    B = build_shape(rng, 2, [("balanced", (3, 3))])
    monkeypatch.setattr(sv.structure, "stationary", lambda *a, **kw: 1 / 0)
    with pytest.raises(WrongKind):
        sv.oscillation_seeds(B, 2)


@pytest.mark.parametrize("seed", range(4))
def test_restrict_matches_edge_mask(seed):
    # local src, local dst and edge ids in global edge order, for node sets
    # from one node to all of them, against a per-edge membership test
    rng = np.random.default_rng(seed)
    n = 1500
    G = random_graph(rng, n)
    edges = list(zip(G.sources.tolist(), G.targets.tolist()))
    for rows_size, cols_size in ((1, n), (3, 3), (5, 900), (60, 60), (700, 5), (n, n)):
        rows = np.sort(rng.choice(n, rows_size, replace=False))
        cols = np.sort(rng.choice(n, cols_size, replace=False))
        row_of = {v: i for i, v in enumerate(rows.tolist())}
        col_of = {v: i for i, v in enumerate(cols.tolist())}
        want = [(row_of[s], col_of[t], e) for e, (s, t) in enumerate(edges)
                if s in row_of and t in col_of]
        src, dst, eid = _restrict(G, rows, cols)
        assert list(zip(src.tolist(), dst.tolist(), eid.tolist())) == want


def test_shared_cached_arrays_are_read_only():
    # 0 -> 1 -> {2, 3} (balanced sink) and 1 -> 6 (anti-balanced sink), fed
    # by the periodic two-cycle {4, 5}: a write into any array the cache
    # hands out would change every later answer, as a write of 3 into
    # steady_state(G, x0).non_sink once made the next call leave [0, 1]
    G = sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 1), (3, 3, 1),
                           (4, 5, 1), (5, 4, 1), (5, 0, 1), (1, 6, 1), (6, 6, -1)])
    x0 = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
    d = sv.decompose(G)
    first = sv.steady_state(G, x0)
    sv.contribution_longterm(G)
    sv.contribution_average(G, 3)
    shared = {"scc_id": d.scc_id, "non_sink": d.non_sink, "steady non_sink": first.non_sink}
    for i, comp in enumerate(d.components):
        facts = d.analysis(i)
        shared[f"components[{i}]"] = comp
        shared[f"analysis({i}).nodes"] = facts.nodes
        if facts.balance is not None:
            for name in ("nodes", "in_s", "signs"):
                shared[f"analysis({i}).balance.{name}"] = getattr(facts.balance, name)
    for i, sink in enumerate(d.sink_analysis):
        shared[f"sink {i} pi"] = sink.pi
        for name, blk in (("px", d.px()), (f"py({i})", d.py(i)), (f"pz({i})", d.pz(i))):
            for field in ("rows", "cols", "coef"):
                shared[f"{name}.{field}"] = getattr(blk, field)
    assert not any(d.analysis(i).aperiodic for i in range(d.n_components)
                   if 4 in d.components[i])  # a periodic component is covered too

    def partitions(name, H):  # the partitions of H's products, made on first use
        dh = sv.decompose(H)
        operators = {"transpose": H._transpose_parts}
        for i in range(len(dh.sinks)):
            for blk_name, blk in (("px", dh.px()), (f"py({i})", dh.py(i)), (f"pz({i})", dh.pz(i))):
                operators[blk_name], operators[f"{blk_name}.t"] = blk._parts, blk._t_parts
        shared[f"{name} row cuts"] = H._row_cuts
        for op, parts in operators.items():
            for j, part in enumerate(parts):
                for k, a in enumerate(part[2:]):
                    shared[f"{name} {op} part {j}[{k}]"] = a

    partitions("G", G)  # one part: the arrays themselves
    with products_in_parts(2):
        parted = copy_graph(G)
        partitions("parted", parted)
    assert len(parted._transpose_parts) == 2
    writable = [name for name, a in shared.items() if a is not None and a.flags.writeable]
    assert writable == []
    with pytest.raises(ValueError, match="read-only"):
        first.non_sink[:] = 3
    again = sv.steady_state(G, x0)
    assert again.x_even.tobytes() == first.x_even.tobytes()
    assert again.x_odd.tobytes() == first.x_odd.tobytes()


def test_every_layout_array_is_read_only():
    """The jagged-diagonal layouts of every product, apply_p's among them,
    are cached and shared by every caller, in one part and in two, tails
    (rows of over 129 edges, both ways through the hub) and rows without
    edges included."""
    n = 200
    G = sv.from_edge_list([(0, v, 1) for v in range(1, n)] + [(v, 0, -1) for v in range(1, n)]
                          + [(v, v % (n - 1) + 1, 1) for v in range(1, n)])
    for k in (1, 2):
        with products_in_parts(k):
            H = copy_graph(G)
            d = sv.decompose(H)
            blocks = [d.px()] + [blk for i in range(len(d.sinks)) for blk in (d.py(i), d.pz(i))]
            blocks.append(structure.Block(H.sources, H.targets, H.transition_coef, n, n))
            sparse = slice(0, 400, 80)  # rows without edges: the layout keeps `rows`, not `slot`
            blocks.append(structure.Block(H.sources[sparse], H.targets[sparse],
                                          H.transition_coef[sparse], n, n))
            layouts = H._row_parts + H._transpose_parts
            layouts += tuple(p for blk in blocks for p in blk._parts + blk._t_parts)
        assert len(H._row_parts) == k and len(H._transpose_parts) == k
        assert any(p.rows is not None for p in layouts) and H._row_parts[0].rows is None
        assert H._row_parts[0].tail_starts.size == 1 and H._transpose_parts[0].slot[0] >= 1
        arrays = [a for p in layouts for a in p[2:] if a is not None]
        # one of out_local and tail_starts is None, and one of slot and rows
        assert len(arrays) == 5 * len(layouts)
        assert [a for a in arrays if a.flags.writeable] == []


def test_a_decomposition_outlives_its_graph_with_a_one_line_error():
    G = sv.from_edge_list([(0, 1, 1), (1, 0, -1), (1, 2, 1), (2, 2, 1)])
    d = sv.decompose(G)
    facts = d.analysis(0)
    del G  # no cycle holds it: the decomposition and its analyses hold it weakly
    for read in (d.px, lambda: d.analysis(1), lambda: facts.graph):
        with pytest.raises(ReferenceError, match="no longer exists") as err:
            read()
        assert "\n" not in str(err.value)


def test_a_steady_state_keeps_its_sinks_usable():
    """steady_state returns its sinks' shared analyses, which hold the graph
    weakly; the steady state holds it, so a strictly unbalanced sink's pi,
    never computed by steady_state, can still be read from it alone."""
    edges = [(0, 1, 1), (1, 2, 1), (2, 0, -1), (0, 0, 1), (3, 0, 1), (3, 4, 1), (4, 4, 1)]
    G = sv.from_edge_list(edges)
    want = [structure.stationary(np.array(nodes), G) for nodes in ([0, 1, 2], [4])]
    st = sv.steady_state(sv.from_edge_list(edges), np.full(5, 0.25))
    kinds = [s.balance.kind for s in st.sinks]
    assert kinds == [BalanceKind.STRICTLY_UNBALANCED, BalanceKind.BALANCED]
    assert [s.pi.tobytes() for s in st.sinks] == [pi.tobytes() for pi in want]


@pytest.mark.parametrize("family", ["balanced", "anti_balanced", "strictly_unbalanced",
                                    "disconnected_with_wcc"])
def test_checks_read_a_component_given_in_any_order(family):
    """A component's ids reversed or shuffled give the sorted ids' answers,
    and `stationary` the same bytes: the checks sort what they are given."""
    rng = np.random.default_rng(8)
    G = small_family(rng, family)
    d = sv.decompose(G)
    for i, comp in enumerate(d.components):
        sink = i in d.sink_index
        aperiodic, bal = sv.is_aperiodic(comp, G), sv.classify_balance(comp, G)
        pi = sv.stationary(comp, G) if sink else None
        for nodes in (comp[::-1], rng.permutation(comp)):
            assert sv.is_aperiodic(nodes, G) == aperiodic
            got = sv.classify_balance(nodes, G)
            assert got.kind == bal.kind and np.array_equal(got.nodes, comp)
            assert (got.in_s is None) == (bal.in_s is None)
            assert bal.in_s is None or np.array_equal(got.in_s, bal.in_s)
            if sink:
                assert sv.stationary(nodes, G).tobytes() == pi.tobytes()
