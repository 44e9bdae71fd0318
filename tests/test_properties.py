"""Property tests of the component checks and operators against oracles.

Random signed digraphs of at most 8 nodes; every SCC is checked, and every
transition-matrix product is compared with the dense matrix.  Examples are
derandomized, so every run tests the same graphs.
"""

import math
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import signedvoter as sv
from signedvoter.structure import BalanceKind

from helpers import dense_p

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def signed_digraphs(draw):
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=4 * n, unique=True))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(pairs), max_size=len(pairs)))
    edges = [(s, t, w) for (s, t), w in zip(pairs, signs)]
    return sv.from_edge_list(edges, repair_dangling=True)


def _internal_edges(G, comp):
    inside = set(comp.tolist())
    return [(int(s), int(t), int(g)) for s, t, g in zip(G.sources, G.targets, G.signs)
            if s in inside and t in inside]


def _partitions(comp, edges, inside_sign):
    """Every side assignment (smallest node on side S) where an edge stays
    inside one side exactly when its sign is `inside_sign`."""
    found = []
    for rest in product([True, False], repeat=comp.size - 1):
        side = dict(zip(comp.tolist(), (True,) + rest))
        if all((g == inside_sign) == (side[s] == side[t]) for s, t, g in edges):
            found.append([side[v] for v in comp.tolist()])
    return found


def _period_gcd(G, comp):
    """gcd of the lengths of all closed walks of length <= 2k inside comp."""
    k = comp.size
    loc = {v: i for i, v in enumerate(comp.tolist())}
    a = np.zeros((k, k), dtype=bool)
    for s, t, _ in _internal_edges(G, comp):
        a[loc[s], loc[t]] = True
    walk, g = np.eye(k, dtype=bool), 0
    for length in range(1, 2 * k + 1):
        walk = (walk.astype(int) @ a.astype(int)) > 0
        if walk.diagonal().any():
            g = math.gcd(g, length)
    return g


@PROPERTY_SETTINGS
@given(signed_digraphs())
def test_classify_balance_matches_exhaustive_bipartitions(G):
    for comp in sv.decompose(G).components:
        edges = _internal_edges(G, comp)
        balanced, anti = _partitions(comp, edges, 1), _partitions(comp, edges, -1)
        bal = sv.classify_balance(comp, G)
        if balanced:
            assert bal.kind is BalanceKind.BALANCED
            assert balanced == [bal.in_s.tolist()]
        elif anti:
            assert bal.kind is BalanceKind.ANTI_BALANCED
            assert anti == [bal.in_s.tolist()]
        else:
            assert bal.kind is BalanceKind.STRICTLY_UNBALANCED and bal.in_s is None


@PROPERTY_SETTINGS
@given(signed_digraphs())
def test_is_aperiodic_matches_closed_walk_gcd(G):
    for comp in sv.decompose(G).components:
        assert sv.is_aperiodic(comp, G) == (_period_gcd(G, comp) == 1)


@PROPERTY_SETTINGS
@given(signed_digraphs())
def test_negation_swaps_balanced_and_anti_balanced(G):
    swapped = {BalanceKind.BALANCED: BalanceKind.ANTI_BALANCED,
               BalanceKind.ANTI_BALANCED: BalanceKind.BALANCED,
               BalanceKind.STRICTLY_UNBALANCED: BalanceKind.STRICTLY_UNBALANCED}
    negated = sv.negate_signs(G)
    for comp in sv.decompose(G).components:
        if not sv.is_aperiodic(comp, G):
            continue  # a periodic component can be balanced and anti-balanced at once
        bal, neg = sv.classify_balance(comp, G), sv.classify_balance(comp, negated)
        assert neg.kind is swapped[bal.kind]
        if bal.in_s is not None:
            assert np.array_equal(neg.in_s, bal.in_s)


@st.composite
def graphs_with_vectors(draw):
    """A random graph plus 2n finite entries to fill test vectors with."""
    G = draw(signed_digraphs())
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    values = draw(st.lists(entries, min_size=2 * G.n, max_size=2 * G.n))
    return G, np.array(values).reshape(G.n, 2)


def _dense_blocks(G):
    """(name, Block, dense block of P) for px, every py and every pz."""
    d, P = sv.decompose(G), dense_p(G)
    x = d.non_sink
    yield "px", d.px(), P[np.ix_(x, x)]
    for i, z in enumerate(d.sinks):
        yield f"py{i}", d.py(i), P[np.ix_(x, z)]
        yield f"pz{i}", d.pz(i), P[np.ix_(z, z)]


@PROPERTY_SETTINGS
@given(graphs_with_vectors())
def test_operators_match_dense_p(case):
    G, V = case
    P = dense_p(G)
    for v in (V[:, 0], V):  # one vector and a batch of two columns
        assert np.allclose(sv.apply_p(G, v), P @ v, rtol=0, atol=1e-12)
        assert np.allclose(sv.apply_p_transpose(G, v), P.T @ v, rtol=0, atol=1e-12)
    for name, block, M in _dense_blocks(G):
        for v in (V[:M.shape[1], 0], V[:M.shape[1]]):
            assert np.allclose(block.apply(v), M @ v, rtol=0, atol=1e-12), name
        for w in (V[:M.shape[0], 0], V[:M.shape[0]]):
            assert np.allclose(block.apply_t(w), M.T @ w, rtol=0, atol=1e-12), name


@PROPERTY_SETTINGS
@given(signed_digraphs())
def test_component_analysis_matches_primitives(G):
    d = sv.decompose(G)
    for i, comp in enumerate(d.components):
        facts = d.analysis(i)
        assert d.analysis(i) is facts
        assert np.array_equal(facts.nodes, comp)
        assert facts.aperiodic == sv.is_aperiodic(comp, G)
        if not facts.aperiodic:
            assert facts.balance is None
            continue
        bal = sv.classify_balance(comp, G)
        assert facts.balance.kind is bal.kind
        assert np.array_equal(facts.balance.nodes, bal.nodes)
        if bal.in_s is None:
            assert facts.balance.in_s is None
        else:
            assert np.array_equal(facts.balance.in_s, bal.in_s)
