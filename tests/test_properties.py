"""Property tests of the component checks, operators, parser and MC step
against oracles.

Random signed digraphs of at most 8 nodes; every SCC is checked, and every
transition-matrix product is compared with the dense matrix, and run in up
to four parts against its bits in one.  Balance classes of
planted-partition graphs of up to 60 nodes are compared with a 2-coloring
of the signed double cover.  Random edge-list texts, bad lines
included, are parsed by parse_snap and by a line-by-line reference parser,
and so are serialized graphs with one line-level mutation each.
Alias tables are compared with a node-by-node build, and the blocked MC
step with a step drawn in one shot.  The condensation of graphs of up to 60
nodes with planted SCC shapes is compared with a NumPy-scalar Tarjan.  On
graphs of up to 8 nodes whose sinks are aperiodic and of every balance
class, the closed-form steady state is compared with propagation to the
limit, the selection values with brute force, and the negated graph's
trajectory and steady state with the original's.  Examples are
derandomized, so every run tests the same inputs.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import signedvoter as sv
from signedvoter import graph, simulate, structure
from signedvoter.structure import BalanceKind

from helpers import (_parse_outcome, _reference_bfs_levels, assert_parses_like_reference, copy_graph,
                     dense_p, products_in_parts, reference_build_alias_tables, reference_classify_balance,
                     reference_decompose, reference_mc_run, reference_parse_snap,
                     reference_step_batch)

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
def planted_partition_digraphs(draw):
    """One SCC of up to 60 nodes, closed by a drawn Hamiltonian cycle, with
    signs planted by a node partition: balanced or anti-balanced, optionally
    with one sign flipped.  Self-loops of either sign occur."""
    n = draw(st.integers(1, 60))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    node = st.integers(0, n - 1)
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    pairs += draw(st.lists(st.tuples(node, node), min_size=n // 2, max_size=3 * n, unique=True))
    pairs = list(dict.fromkeys(pairs))
    planted = draw(st.sampled_from([1, -1]))  # -1: anti-balanced
    signs = [planted if side[s] == side[t] else -planted for s, t in pairs]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(pairs) - 1))
        signs[i] = -signs[i]
    return sv.from_edge_list([(s, t, g) for (s, t), g in zip(pairs, signs)])


@PROPERTY_SETTINGS
@given(planted_partition_digraphs())
# anti-balanced with S = {0, 2}; node 3 is one undirected hop from node 0 but
# three directed hops, so the directed BFS tree differs from the undirected one
@example(sv.from_edge_list([(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1),
                            (1, 0, 1), (2, 0, -1)]))
def test_classify_balance_matches_double_cover_oracle(G):
    nodes = np.arange(G.n)
    got, want = sv.classify_balance(nodes, G), reference_classify_balance(nodes, G)
    assert got.kind is want.kind and np.array_equal(got.nodes, want.nodes)
    assert (None if got.in_s is None else got.in_s.tobytes()) == \
        (None if want.in_s is None else want.in_s.tobytes())


@st.composite
def parallel_edge_lists(draw):
    """Up to 12 nodes and random signed edges, some repeated with either sign,
    in ascending source order (the order _restrict gives _bfs_levels)."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=4 * n))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    order = np.argsort(src, kind="stable")
    return n, src[order], dst[order], np.array(bits, dtype=bool)[order]


@PROPERTY_SETTINGS
@given(parallel_edge_lists())
# two parallel edges of opposite sign reach node 1, which has an out-edge
@example((3, np.array([0, 0, 1]), np.array([1, 1, 2]), np.array([False, True, False])))
def test_bfs_levels_claims_each_node_once(case):
    """Levels equal the reference BFS, each reached node's parity follows one
    edge from the level above, and each reached node is expanded once however
    many frontier edges hit it."""
    k, src, dst, bit = case
    expanded = 0

    def counted(start, count):
        nonlocal expanded
        expanded += int(count.sum())
        return original(start, count)

    original = structure._ranges
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_ranges", counted)
        level, parity = structure._bfs_levels(k, src, dst, bit)
    assert np.array_equal(level, _reference_bfs_levels(k, src, dst))
    assert level[0] == 0 and not parity[0]
    for v in np.flatnonzero(level > 0):
        into = np.flatnonzero((dst == v) & (level[src] == level[v] - 1))
        assert (parity[src[into]] ^ bit[into] == parity[v]).any(), v
    assert expanded == np.count_nonzero(level[src] >= 0)


@st.composite
def condensation_digraphs(draw):
    """Up to 60 nodes: random edges, one Hamiltonian-cycle SCC plus chords, or
    a chain of blocks (singletons, 2-cycles, or cycles of 1 to 4 nodes) with
    extra edges only from earlier to later blocks; then random self-loops and
    a random relabeling, so the smallest node of a component can be anywhere.
    A one-node block is a singleton SCC, with a self-loop only if one is drawn."""
    n = draw(st.integers(1, 60))
    node = st.integers(0, n - 1)
    shape = draw(st.sampled_from(["random", "one_scc", "singletons", "two_cycles", "small_sccs"]))
    if shape == "random":
        pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    elif shape == "one_scc":
        pairs = [(v, (v + 1) % n) for v in range(n)] + draw(st.lists(st.tuples(node, node),
                                                                     max_size=2 * n))
    else:
        size = {"singletons": st.just(1), "two_cycles": st.just(2)}.get(shape, st.integers(1, 4))
        starts = np.cumsum([0] + draw(st.lists(size, min_size=n, max_size=n)))
        bounds = [int(b) for b in starts if b < n] + [n]
        block_of = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        pairs = [(v, v + 1 if v + 1 < b else a) for a, b in zip(bounds, bounds[1:]) if b - a > 1
                 for v in range(a, b)]
        pairs += [(b - 1, b) for b in bounds[1:-1]]
        pairs += [(s, t) for s, t in draw(st.lists(st.tuples(node, node), max_size=2 * n))
                  if block_of[s] < block_of[t]]
    pairs += [(v, v) for v in draw(st.lists(node, max_size=n // 4))] + [(n - 1, n - 1)]
    label = draw(st.permutations(range(n)))
    edges = sorted({(label[s], label[t]) for s, t in pairs})
    return sv.from_edge_list([(s, t, 1) for s, t in edges], repair_dangling=True)


@PROPERTY_SETTINGS
@given(condensation_digraphs())
def test_decompose_matches_reference_tarjan(G):
    got, want = sv.decompose(G), reference_decompose(G)
    assert got.scc_id.dtype == want.scc_id.dtype and np.array_equal(got.scc_id, want.scc_id)
    assert [c.tolist() for c in got.components] == [c.tolist() for c in want.components]
    assert got.sink_index == want.sink_index
    assert np.array_equal(got.non_sink, want.non_sink)


@st.composite
def signed_condensations(draw):
    """A condensation_digraphs graph with a sign drawn for each edge."""
    G = draw(condensation_digraphs())
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=G.n_edges, max_size=G.n_edges))
    return sv.from_edge_list(list(zip(G.sources.tolist(), G.targets.tolist(), signs)))


@PROPERTY_SETTINGS
@given(st.one_of(signed_digraphs(), signed_condensations()))
def test_edge_view_equals_the_restriction(G):
    """Every component's cached edge view, and every py block cut through
    `scc_id` and `rank`, equal `_restrict` element for element, with dtypes;
    repaired singleton sinks and graphs of many components included."""
    d = sv.decompose(G)
    assert not d.rank.flags.writeable
    for i, comp in enumerate(d.components):
        assert np.array_equal(d.rank[comp], np.arange(comp.size))
        view = d.view(i)
        assert view is d.view(i) and view.nodes is comp
        for got, want in zip(view.edges(), structure._restrict(G, comp, comp)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(view.neg, G.signs[view.eid] < 0)
        assert [name for name, a in view._asdict().items() if a.flags.writeable] == []
    for j, sink in enumerate(d.sinks):
        src, dst, eid = structure._restrict(G, d.non_sink, sink)
        blk = d.py(j)
        assert np.array_equal(blk.rows, src) and np.array_equal(blk.cols, dst)
        assert np.array_equal(blk.coef, G.transition_coef[eid])


@PROPERTY_SETTINGS
@given(st.one_of(signed_digraphs(), signed_condensations()))
@example(sv.from_edge_list([(0, 1, 1), (1, 0, -1), (1, 1, 1)]))  # one SCC: X is empty
def test_px_equals_the_restriction(G):
    """px, cut with every py from one read of X's out-edges, equals
    `_restrict(G, non_sink, non_sink)` element for element, with dtypes;
    graphs with an empty X included."""
    d = sv.decompose(G)
    x, blk = d.non_sink, d.px()
    src, dst, eid = structure._restrict(G, x, x)
    for got, want in zip((blk.rows, blk.cols, blk.coef), (src, dst, G.transition_coef[eid])):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (blk.nrows, blk.ncols) == (x.size, x.size)


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


def _star(n: int, inward: bool):
    """Every edge enters node 0 (inward), or node 0 sends one to every node
    and gets one back: a transpose with one nonempty range, or a row of
    about half the edges."""
    edges = [(v, 0, -1 if v % 2 else 1) for v in range(n)]
    if not inward:
        edges += [(0, v, 1) for v in range(1, n)]
    return sv.from_edge_list(edges)


def _products(G, V):
    """Every product of G's operators on one vector and on a batch of three."""
    d = sv.decompose(G)
    blocks = [structure.Block(G.sources, G.targets, G.transition_coef, G.n, G.n), d.px()]
    blocks += [blk for i in range(len(d.sinks)) for blk in (d.py(i), d.pz(i))]
    out = []
    for v in (V[:, 0], V):
        out += [sv.apply_p(G, v), sv.apply_p_transpose(G, v)]
        for blk in blocks:
            out += [blk.apply(v[:blk.ncols]), blk.apply_t(v[:blk.nrows])]
    return out


@PROPERTY_SETTINGS
@given(st.one_of(signed_digraphs(), st.builds(_star, st.integers(1, 8), st.booleans())),
       st.integers(1, 4), st.data())
def test_products_in_parts_keep_the_bits_of_one_part(G, k, data):
    values = data.draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                                min_size=3 * G.n, max_size=3 * G.n), label="entries")
    V = np.array(values).reshape(G.n, 3)
    want = _products(G, V)  # small graphs run in one part
    assert len(G._transpose_parts) == 1 and G._row_cuts.size == 2
    with products_in_parts(k):
        parted = copy_graph(G)
        got = _products(parted, V)
        parts = parted._transpose_parts
    assert len(parts) == min(k, G.n_edges)
    # the ranges tile 0..n, and every edge lies in the range of its target
    assert [p[0] for p in parts[1:]] == [p[1] for p in parts[:-1]] and parts[-1][1] == G.n
    assert sum(p[2].size for p in parts) == G.n_edges
    assert all(np.all(p[2] < p[1] - p[0]) for p in parts)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _summands(rng, size):
    """Coefficients of ±0.0 and of magnitudes from 1e-300 to 1e300, either
    sign: times entries of v in [-1, 1], no sum of 300 of them overflows."""
    coef = rng.choice([1.0, -1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
    coef[rng.random(size) < 0.1] = 0.0
    coef[rng.random(size) < 0.1] = -0.0
    return coef


@PROPERTY_SETTINGS
@given(st.lists(st.one_of(st.integers(0, 20), st.integers(0, 300)), min_size=1, max_size=12),
       st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
@example([130, 0, 9, 300, 1, 17], 2, True, 0)  # the tail, an empty row, both sum rules
@example([129, 128, 136, 17, 16, 9, 8, 2], 3, False, 1)  # the pairwise sum's boundaries
def test_diagonal_sums_keep_the_bits_of_reduceat_and_bincount(degrees, k, shuffle, seed):
    """The premise of the jagged-diagonal products, pinned against NumPy
    itself: each row's sum has the bits of np.add.reduceat over its CSR
    slice (rows with an edge) and of np.bincount (any row), on 1-D vectors
    and (n, 3) batches, in k parts."""
    rng = np.random.default_rng(seed)
    deg = np.array(degrees)
    n, m = deg.size, int(deg.sum())
    in_idx = rng.integers(0, n, m)
    coef = _summands(rng, m)
    V = rng.uniform(-1.0, 1.0, (n, 3))
    V[rng.random((n, 3)) < 0.2] = rng.choice([0.0, -0.0])
    out_idx = np.repeat(np.arange(n), deg)
    if shuffle:
        out_idx = rng.permutation(out_idx)
    with products_in_parts(k):
        scatter_parts = graph.partition(out_idx, in_idx, coef, n)
        got = [graph.scatter(scatter_parts, x) for x in (V[:, 0], V)]
        rows = np.flatnonzero(deg)
        indptr = np.concatenate(([0], np.cumsum(deg[rows])))
        csr = np.argsort(out_idx, kind="stable")  # CSR order of the rows with an edge
        cuts = graph._cuts(indptr, graph._parts(m))
        row_parts = graph.row_partition(indptr, in_idx[csr], coef[csr], cuts)
        got += [graph.reduce_rows(row_parts, x) for x in (V[:, 0], V)]
    assert len(scatter_parts) == min(k, m) or m == 0
    want = [np.bincount(out_idx, weights=coef * V[in_idx, 0], minlength=n),
            np.stack([np.bincount(out_idx, weights=coef * V[in_idx, c], minlength=n)
                      for c in range(3)], axis=1)]
    if m:
        w = coef[csr, None] * V[in_idx[csr]]
        want += [np.add.reduceat(w[:, 0], indptr[:-1]), np.add.reduceat(w, indptr[:-1], axis=0)]
    else:
        want += [np.zeros(0), np.zeros((0, 3))]
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY_SETTINGS
@given(st.lists(st.integers(0, 4), min_size=1, max_size=40), st.integers(0, 45))
def test_select_top_prefilter_keeps_the_unfiltered_choice(scores, k):
    """select_top keeps only the scores at or above the k-th largest before
    its sort; the seeds and value are those of sorting every positive score,
    ties at the k-th score included (scores 0-4: many ties, some not positive)."""
    c = np.array(scores, dtype=np.float64) / 4.0
    got = sv.select_top(sv.ContributionVector(c, "instant", 1), k)
    positive = np.flatnonzero(c > 0)
    chosen = positive[np.lexsort((positive, -c[positive]))][:k]
    assert got.nodes == sorted(chosen.tolist())
    assert got.value == float(c[chosen].sum())


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


_IDS = ["0", "1", "2", "3", "5", "12", "-1", "-7", "+2", "1_0", "007", "\uff13"]
_SIGNS = ["1", "-1", "+1", "2", "-3", "1_0"]
_BLANKS = [" ", "\t", "  ", " \t", "\xa0"]
_FILLER = ["", "   ", "\t", "# comment", "  # indented 1 2 3", "#", "\t#0 1 1"]
_BAD_LINES = [
    "1 2", "1 2 1 1", "3", "0 1 x", "a b 1", "1.5 2 1", "0x1 2 1", "1__0 2 1", "0 1 0",
    "2 3 -0", "0 1 1 # trailing comment", ";", "; 1 2 3", "1 2 ;", "0 ; 1",
]


@st.composite
def edge_lines(draw):
    u, v, s = (draw(st.sampled_from(pool)) for pool in (_IDS, _IDS, _SIGNS))
    a, b, c, d = (draw(st.sampled_from(_BLANKS + [""])) for _ in range(4))
    return f"{a}{u}{b or ' '}{v}{c or ' '}{s}{d}"


@st.composite
def edge_list_texts(draw):
    """Edge lines, comments and blank lines, then up to three bad lines."""
    lines = draw(st.lists(st.one_of(edge_lines(), st.sampled_from(_FILLER)), max_size=12))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BAD_LINES)))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@PROPERTY_SETTINGS
@given(edge_list_texts(), st.booleans())
@example("1 2\n1 2 1 1\n2 1 1\n", False)  # a 2- and a 4-field line: 9 fields in 3 lines
@example("0 1 1\r\n1 2\r\n1 0 1 1\r\n", True)
@example("1 2\n; 3 4 5\n", True)  # a ";" field where the separator would be
@example("# header\n\n   \n", False)
@example("".join(f"0 {v} 1\n" for v in range(1, 7)), False)  # six dangling nodes
# the byte path's boundaries: which skip applies, and which texts it hands on
@example("1 0 1\n0 1 -1\n", False)  # verbatim ids, unsorted edges
@example("1 2 1\n2 1 -1\n", False)  # sorted edges, ids from 1
@example("0 1 1\n0 1 -1\n1 0 1\n1 0 1\n", False)  # duplicate lines
@example("0 1 +1\n1 0 1\n", False)
@example("0 1_000 1\n1_000 0 1\n", False)
@example("007 1 1\n1 007 -1\n", False)
@example("0 1 1\r\n1 0 -1\r\n", False)
@example("0 1 1\r1 0 -1\r", False)  # lone \r line ends
@example("0 1\r1\n1 0 1\n", False)  # a \r in the middle of a line
@example("0\t1\t1\n1\t0\t-1\n", False)
@example("0 1 100000000000000000\n1 0 -999999999999999999\n", False)  # 18 digits
@example("999999999999999999 0 1\n0 999999999999999999 1\n", False)
@example("0 1 1000000000000000000\n1 0 -1\n", False)  # 19 digits
@example("9223372036854775807 -9223372036854775808 1\n"
         "-9223372036854775808 9223372036854775807 -1\n", False)
@example("0 1 1\n# note 1 2 3\n1 0 -1\n", False)  # a comment between edges
@example("0 1 1\n  # note\n1 0 -1\n", False)  # an indented comment
@example("# caf\u00e9\n0 1 1\n1 0 1\n", False)  # a non-ASCII comment
@example("# a\u20281 0 1\n0 1 1\n", False)  # a line separator inside a comment
@example("0 1 1\x0c1 0 1\n", False)  # a form feed ends a line
@example("0 1 1\n1 0 -1", False)  # no final newline
@example("0 - 1\n1 0 1\n", False)
@example("0 1-2 1\n1 0 1\n", False)
@example("0 1 --1\n1 0 1\n", False)
@example("0 1 1\n1 0 -0\n", False)  # a zero sign on line 2
@example("-0 1 1\n1 0 1\n", False)  # -0 is the id 0
@example("0 1 1\n1 2 -1\n", False)  # canonical but for a dangling node
@example("0 1 1\n1 2 -1\n", True)
@example("0 1000000000000 1\n1000000000000 0 1\n", False)  # no bincount of 10**12 ids
@example("1 2 1\n" + " ".join(["3"] * 259) + "\n2 1 1\n", False)  # 259 fields: 3 in uint8
@example("0000000000000000000001 0 1\n0 1 -1\n", False)  # 22 digits, all but one leading zeros
def test_parse_snap_matches_reference_parser(text, repair):
    got = _parse_outcome(sv.parse_snap, text, repair)
    want = _parse_outcome(reference_parse_snap, text, repair)
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert sv.graphs_equal(got.graph, want.graph)
    for name in ("indptr", "targets", "weights", "signs", "out_weight"):
        assert getattr(got.graph, name).dtype == getattr(want.graph, name).dtype, name
    assert got.node_ids.dtype == want.node_ids.dtype
    assert np.array_equal(got.node_ids, want.node_ids)
    assert ((got.file_edges, got.file_negative, got.parsed_edges, got.parsed_negative)
            == (want.file_edges, want.file_negative, want.parsed_edges, want.parsed_negative))


_MUTATIONS = ["swap", "repeat", "offset", "tabs", "crlf", "comment", "no final newline"]


@PROPERTY_SETTINGS
@given(signed_digraphs(), st.sampled_from(_MUTATIONS), st.data())
def test_parse_snap_matches_reference_on_mutated_canonical_files(G, mutation, data):
    """A serialized graph with one change: each of the byte path's skips
    (no id remap, no edge sort) is crossed from both sides."""
    header, *lines = sv.serialize(G).splitlines(keepends=True)
    index = st.integers(0, len(lines) - 1)
    if mutation == "swap":  # verbatim ids, edges out of order
        i, j = data.draw(index), data.draw(index)
        lines[i], lines[j] = lines[j], lines[i]
    elif mutation == "repeat":  # a duplicate pair
        lines.insert(data.draw(index), lines[data.draw(index)])
    elif mutation == "offset":  # sorted edges, ids not verbatim
        offset = data.draw(st.sampled_from([1, 3, 10**12]))
        lines = [" ".join(str(int(f) + offset) for f in line.split()[:2])
                 + f" {line.split()[2]}\n" for line in lines]
    elif mutation == "comment":
        lines.insert(data.draw(st.integers(0, len(lines))), "# note 0 1 1\n")
    text = header + "".join(lines)
    if mutation == "tabs":
        text = text.replace(" ", "\t")
    elif mutation == "crlf":
        text = text.replace("\n", "\r\n")
    elif mutation == "no final newline":
        text = text[:-1]
    assert sv.graph._plain_fields(text) is not None  # every mutation stays plain
    assert_parses_like_reference(text, data.draw(st.booleans()))


@PROPERTY_SETTINGS
@given(signed_digraphs())
def test_serialize_parse_round_trip(G):
    parsed = sv.parse_snap(sv.serialize(G))
    assert sv.graphs_equal(parsed.graph, G)
    assert np.array_equal(parsed.node_ids, np.arange(G.n))
    assert parsed.file_edges == parsed.parsed_edges == G.n_edges
    assert parsed.file_negative == parsed.parsed_negative == G.n_negative


@st.composite
def weighted_digraphs(draw):
    """A random signed digraph of at most 12 nodes, with unit weights or with
    weights from a few ties and arbitrary floats."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=4 * n, unique=True))
    size = len(pairs)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=size, max_size=size))
    magnitude = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]), st.floats(1e-3, 1e3))
    weights = draw(st.one_of(st.just([1.0] * size),
                             st.lists(magnitude, min_size=size, max_size=size)))
    edges = [(s, t, g * w) for (s, t), g, w in zip(pairs, signs, weights)]
    return sv.from_edge_list(edges, repair_dangling=True)


@PROPERTY_SETTINGS
@given(weighted_digraphs())
def test_alias_tables_match_node_by_node_build(G):
    got, want = simulate.build_alias_tables(G), reference_build_alias_tables(G)
    for name in ("accept", "alias", "degree", "negative"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@PROPERTY_SETTINGS
@given(weighted_digraphs(), st.sampled_from(["0", "1", "uneven"]),
       st.sampled_from(["default", "1", "7", "n+3"]), st.integers(0, 2**32 - 1))
def test_blocked_step_matches_one_shot_draw(G, rows, block, seed):
    size = {"default": simulate._BLOCK, "1": 1, "7": 7, "n+3": G.n + 3}[block]
    per_block = max(1, size // G.n)
    n_rows = {"0": 0, "1": 1, "uneven": 2 * per_block + 1}[rows]
    colors = np.random.default_rng(seed).random((n_rows, G.n)) < 0.5
    tables = simulate.build_alias_tables(G)
    rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BLOCK", size)
        step = simulate._Stepper(G, tables)
        assert step.rows == per_block
        got = step(colors, rng, np.empty_like(colors))
    want = reference_step_batch(G, tables, colors, oracle_rng)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@PROPERTY_SETTINGS
@given(weighted_digraphs(), st.sampled_from(["0", "1", "uneven"]),
       st.sampled_from(["default", "1", "7", "n+3"]), st.sampled_from([2, 3]),
       st.integers(0, 2**32 - 1))
def test_threaded_step_matches_one_shot_draw(G, rows, block, threads, seed):
    size = {"default": simulate._BLOCK, "1": 1, "7": 7, "n+3": G.n + 3}[block]
    per_block = max(1, size // G.n)
    n_rows = {"0": 0, "1": 1, "uneven": 2 * per_block + 1}[rows]
    colors = np.random.default_rng(seed).random((n_rows, G.n)) < 0.5
    tables = simulate.build_alias_tables(G)
    rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BLOCK", size)
        mp.setattr(simulate, "_threads", lambda: threads)
        with simulate._Stepper(G, tables) as step:
            got = step(colors, rng, np.empty_like(colors))
    want = reference_step_batch(G, tables, colors, oracle_rng)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@PROPERTY_SETTINGS
@given(weighted_digraphs(), st.sampled_from([1, 2, 3]),
       st.sampled_from(["default", "1", "7", "n+3"]), st.sampled_from([0, 1, 5]),
       st.sampled_from([4, 7, 11]), st.data())
def test_tile_major_mc_run_matches_step_major_oracle(G, threads, block, t, batch, data):
    # a full batch and a partial one; tiles of min(block rows, ceil(size / threads))
    # rows, so most batches end in a partial tile, and the default block splits
    # each batch below one block
    trials = batch + data.draw(st.integers(1, batch - 1), label="partial batch")
    seeds = data.draw(st.lists(st.integers(0, G.n - 1), unique=True, max_size=G.n), label="seeds")
    initial = sv.indicator(G.n, seeds) > 0
    # the seed mask and its complement are hit at t = 0 by every trial
    partition = data.draw(st.one_of(
        st.sampled_from([initial, ~initial]),
        st.lists(st.booleans(), min_size=G.n, max_size=G.n).map(np.array)), label="partition")
    rng_seed = data.draw(st.integers(0, 2**32 - 1), label="rng_seed")
    size = {"default": simulate._BLOCK, "1": 1, "7": 7, "n+3": G.n + 3}[block]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BLOCK", size)
        mp.setattr(simulate, "_BATCH", batch)
        mp.setattr(simulate, "_threads", lambda: threads)
        got = sv.mc_run(G, seeds, t, trials, rng_seed, track_nodes=True, partition=partition)
    want = reference_mc_run(G, seeds, t, trials, rng_seed, batch, partition)
    for name in ("mean", "stderr", "node_freq"):
        a, b = getattr(got, name), want[name]
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (got.s_white, got.s_black) == (want["s_white"], want["s_black"])


@st.composite
def sink_digraphs(draw):
    """At most 8 nodes: up to three aperiodic sinks of 1 to 3 nodes, each with
    balanced, anti-balanced or random signs, fed by up to three non-sink
    nodes, then randomly relabeled.  A sink is a cycle through its nodes plus
    a self-loop and chords; every non-sink node has an edge to a later
    non-sink node or into a sink, so each one reaches a sink.  Returns the
    graph and a start vector."""
    x_size = draw(st.integers(0, 3))
    sinks, free = [], 8 - x_size
    while free and (not sinks or (len(sinks) < 3 and draw(st.booleans()))):
        size = draw(st.integers(1, min(3, free)))
        sinks.append(np.arange(size) + 8 - free)
        free -= size
    n = 8 - free
    edges = []
    for z in sinks:
        side = dict(zip(z.tolist(), draw(st.lists(st.booleans(), min_size=z.size,
                                                  max_size=z.size))))
        pairs = [(int(z[i]), int(z[(i + 1) % z.size])) for i in range(z.size)]
        pairs += [(int(z[0]), int(z[0]))]
        pairs += draw(st.lists(st.tuples(st.sampled_from(z.tolist()),
                                         st.sampled_from(z.tolist())), max_size=z.size))
        planted = draw(st.sampled_from([1, -1, 0]))  # 0: random signs
        for s, t in dict.fromkeys(pairs):
            sign = draw(st.sampled_from([1, -1])) if planted == 0 else \
                planted if side[s] == side[t] else -planted
            edges.append((s, t, sign))
    sign = st.sampled_from([1, -1])
    for v in range(x_size):
        pairs = [(v, draw(st.integers(v + 1, n - 1)))]
        pairs += draw(st.lists(st.tuples(st.just(v), st.integers(0, n - 1)), max_size=2))
        edges += [(s, t, draw(sign)) for s, t in dict.fromkeys(pairs)]
    label = draw(st.permutations(range(n)))
    G = sv.from_edge_list([(label[s], label[t], g) for s, t, g in edges])
    x0 = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return G, np.array(x0)


# a strictly unbalanced non-sink {0,1,2} feeding a balanced sink {3,4,5} and
# an anti-balanced sink {6,7}; then a non-sink {0} feeding a strictly
# unbalanced sink {1,2,3}
_COUPLED = sv.from_edge_list([(0, 0, 1), (0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 0, -1), (2, 6, -1),
                              (3, 3, 1), (3, 4, 1), (4, 3, 1), (4, 5, -1), (5, 4, -1),
                              (6, 6, -1), (6, 7, -1), (7, 6, -1)])
_UNBALANCED_SINK = sv.from_edge_list([(0, 1, 1), (0, 0, -1), (1, 1, 1), (1, 2, 1), (2, 3, -1),
                                      (3, 1, 1), (3, 2, 1)])


def _kinds(G):
    return sorted(s.balance.kind.value for s in sv.decompose(G).sink_analysis)


def test_coupled_examples_have_the_drawn_sink_kinds():
    assert _kinds(_COUPLED) == ["anti_balanced", "balanced"]
    assert sv.decompose(_COUPLED).non_sink.tolist() == [0, 1, 2]
    assert _kinds(_UNBALANCED_SINK) == ["strictly_unbalanced"]
    assert sv.decompose(_UNBALANCED_SINK).non_sink.tolist() == [0]


@PROPERTY_SETTINGS
@given(sink_digraphs())
@example((_COUPLED, np.linspace(0.0, 1.0, 8)))
@example((_UNBALANCED_SINK, np.array([1.0, 0.0, 0.25, 1.0])))
def test_steady_state_matches_propagate_limit(case):
    G, x0 = case
    ss = sv.steady_state(G, x0)
    even, odd, _ = sv.propagate_limit(G, x0, tol=1e-13)
    assert np.abs(ss.x_even - even).max() <= 1e-9
    assert np.abs(ss.x_odd - odd).max() <= 1e-9


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(sink_digraphs(), st.integers(0, 3), st.integers(1, 4))
@example((_COUPLED, None), 2, 3)
def test_selection_values_match_brute_force(case, k, t):
    G = case[0]
    for mode in ("instant", "average"):
        want = sv.brute_force_opt(G, mode, k, t).value
        assert abs(sv.svim_s(G, t, k, mode=mode).value - want) <= 1e-9, mode
    assert abs(sv.svim_l(G, k).value - sv.brute_force_opt(G, "longterm", k).value) <= 1e-7


@PROPERTY_SETTINGS
@given(sink_digraphs())
@example((_COUPLED, np.linspace(0.0, 1.0, 8)))
def test_negation_keeps_even_steps_and_mirrors_odd_steps(case):
    # P -> -P and g -> 1 - g: two steps give back P^2 x + P g + g, one step 1 - (P x + g)
    G, x0 = case
    neg = sv.negate_signs(G)
    a, b = sv.propagate(G, x0, 7), sv.propagate(neg, x0, 7)
    assert np.abs(a[::2] - b[::2]).max() <= 1e-12
    assert np.abs(a[1::2] - (1.0 - b[1::2])).max() <= 1e-12
    ss, ss_neg = sv.steady_state(G, x0), sv.steady_state(neg, x0)
    assert np.abs(ss.x_even - ss_neg.x_even).max() <= 1e-9
    assert np.abs(ss.x_odd - (1.0 - ss_neg.x_odd)).max() <= 1e-9
