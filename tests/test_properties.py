"""Property tests of the component checks against brute-force oracles.

Random signed digraphs of at most 8 nodes; every SCC is checked.  Examples
are derandomized, so every run tests the same graphs.
"""

import math
from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import signedvoter as sv
from signedvoter.structure import BalanceKind

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
