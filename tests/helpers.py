"""Shared test utilities: independent dense oracles and random instance builders.

The dense routines rebuild matrices straight from the raw storage arrays and
never call the matrix-free kernels they are used to check.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import signedvoter as sv
from signedvoter import graph
from signedvoter.errors import (DanglingNode, GenerationFailed, MalformedLine,
                                NotStronglyConnected, SignedVoterError, ZeroWeightEdge)
from signedvoter.simulate import AliasTables
from signedvoter.structure import BalanceClass, BalanceKind, Decomposition, _ranges, _restrict

DENSE_GATE = 50


@contextmanager
def products_in_parts(threads: int, part_edges: int = 1):
    """Within the block, the products of every operator first used there run
    in min(threads, m // part_edges) parts, on a worker pool of their own
    that is shut down when the block ends."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_threads", lambda: threads)
        mp.setattr(graph, "_PART_EDGES", part_edges)
        mp.setattr(graph, "_pool", None)
        try:
            yield
        finally:
            if graph._pool is not None:
                graph._pool.shutdown(wait=True)


def copy_graph(G):
    """A graph on G's arrays with none of G's cached operators."""
    return sv.SignedDigraph(G.n, G.indptr, G.targets, G.weights, G.signs, G.out_weight)


def dense_p(G):
    """Dense signed transition matrix, reconstructed from raw edge storage."""
    assert G.n <= DENSE_GATE, "dense reference path is gated to small graphs"
    P = np.zeros((G.n, G.n))
    for i in range(G.n):
        sl = slice(int(G.indptr[i]), int(G.indptr[i + 1]))
        d = G.weights[sl].sum()
        P[i, G.targets[sl]] = G.signs[sl] * G.weights[sl] / d
    return P


def dense_ground(G):
    assert G.n <= DENSE_GATE
    g = np.zeros(G.n)
    for i in range(G.n):
        sl = slice(int(G.indptr[i]), int(G.indptr[i + 1]))
        neg = G.weights[sl][G.signs[sl] < 0].sum()
        g[i] = neg / G.weights[sl].sum()
    return g


def dense_trajectory(P, g, x0, t):
    """Iterate x <- P x + g with dense arithmetic; returns steps 0..t."""
    out = [np.asarray(x0, dtype=float)]
    for _ in range(t):
        out.append(P @ out[-1] + g)
    return np.stack(out)


def random_edges(rng, n, n_edges, neg_prob=0.4, allow_self=False):
    """Random distinct directed edges on a guaranteed-covering cycle."""
    n_edges = min(n_edges, n * (n - 1) + (n if allow_self else 0))
    perm = rng.permutation(n)
    taken = set()
    edges = []
    for i in range(n):
        key = (int(perm[i]), int(perm[(i + 1) % n]))
        taken.add(key)
        edges.append(key)
    while len(edges) < n_edges:
        s, t = int(rng.integers(n)), int(rng.integers(n))
        if (s == t and not allow_self) or (s, t) in taken:
            continue
        taken.add((s, t))
        edges.append((s, t))
    return [(s, t, -1 if rng.random() < neg_prob else 1) for s, t in edges]


def random_graph(rng, n, n_edges=None, neg_prob=0.4):
    """Generic random signed digraph (strongly connected, mixed signs)."""
    if n_edges is None:
        n_edges = 3 * n
    return sv.from_edge_list(random_edges(rng, n, n_edges, neg_prob))


def ring_graph(n, offsets=(1, 2, 3, 7), seed=5):
    """n nodes, each with unit edges to i + offset (mod n) of random sign: one
    aperiodic SCC, built from arrays so that large n stays cheap."""
    src = np.repeat(np.arange(n), len(offsets))
    dst = (src + np.tile(offsets, n)) % n
    sign = np.random.default_rng(seed).choice([-1, 1], size=src.size)
    return sv.from_edge_list(zip(src.tolist(), dst.tolist(), sign.tolist()))


def small_family(rng, family, scale=1):
    """One small instance of a generator family with a fresh random seed."""
    seed = int(rng.integers(2**31))
    sizes = {
        "balanced": [5 * scale, 8 * scale],
        "anti_balanced": [5 * scale, 8 * scale],
        "strictly_unbalanced": [5 * scale, 8 * scale],
        "weakly_connected": [5, 4, 5, 4, 6],
        "disconnected": [5, 4, 5, 4, 6],
        "disconnected_with_wcc": [5, 6, 5, 4, 5, 4, 6],
    }[family]
    cfg = sv.GeneratorConfig(family, sizes=sizes, edges_per_node=3, seed=seed)
    return sv.generate(cfg)


def _part(rng, nodes, taken, epn=2):
    """Edges making `nodes` strongly connected: size-1 gets a self-loop."""
    if nodes.size == 1:
        key = (int(nodes[0]), int(nodes[0]))
        taken.add(key)
        return [key]
    perm = rng.permutation(nodes)
    edges = [(int(perm[i]), int(perm[(i + 1) % perm.size])) for i in range(perm.size)]
    taken.update(edges)
    want = epn * nodes.size
    guard = 0
    while len(edges) < want:
        guard += 1
        if guard > 50 * want:
            break
        s, t = int(nodes[rng.integers(nodes.size)]), int(nodes[rng.integers(nodes.size)])
        if s == t or (s, t) in taken:
            continue
        taken.add((s, t))
        edges.append((s, t))
    return edges


def _cross(rng, a, b, count, taken):
    pairs = []
    guard = 0
    while len(pairs) < count and guard < 100 * count + 100:
        guard += 1
        s, t = int(a[rng.integers(a.size)]), int(b[rng.integers(b.size)])
        if (s, t) in taken:
            continue
        taken.add((s, t))
        pairs.append((s, t))
    return pairs


def _sink_edges(rng, kind, parts, taken):
    if kind == "strictly_unbalanced":
        assert len(parts) == 1
        plain = _part(rng, parts[0], taken)
        return [(s, t, int(rng.integers(0, 2) * 2 - 1)) for s, t in plain]
    a, b = parts
    edges = [(s, t, 1) for s, t in _part(rng, a, taken)]
    edges += [(s, t, 1) for s, t in _part(rng, b, taken)]
    cross = max(2, min(a.size, b.size) * 2)
    half = cross // 2
    edges += [(s, t, -1) for s, t in _cross(rng, a, b, half, taken)]
    edges += [(s, t, -1) for s, t in _cross(rng, b, a, cross - half, taken)]
    if kind == "anti_balanced":
        edges = [(s, t, -x) for s, t, x in edges]
    return edges


def build_shape(rng, x_size, sink_specs, links_per_x=3, retries=60):
    """Graph with an optional non-sink part feeding sinks of chosen classes.

    sink_specs is a list of (kind, sizes) with kind one of 'balanced',
    'anti_balanced', 'strictly_unbalanced'; balanced kinds take two part
    sizes (1s allowed), strictly unbalanced takes one size >= 3.  x_size = 0
    yields a disconnected union of ergodic components.  The decomposition
    and every classification are re-verified, retrying on bad luck.
    """
    for _ in range(retries):
        taken = set()
        edges = []
        offset = 0
        if x_size:
            x_nodes = np.arange(x_size)
            plain = _part(rng, x_nodes, taken)
            edges += [(s, t, int(rng.integers(0, 2) * 2 - 1)) for s, t in plain]
            offset = x_size
        sink_nodes = []
        for kind, sizes in sink_specs:
            parts = []
            for size in sizes:
                parts.append(np.arange(offset, offset + size))
                offset += size
            edges += _sink_edges(rng, kind, parts, taken)
            sink_nodes.append(np.concatenate(parts))
        if x_size:
            pool = np.concatenate(sink_nodes)
            for s, t in _cross(rng, np.arange(x_size), pool, links_per_x * x_size, taken):
                edges.append((s, t, int(rng.integers(0, 2) * 2 - 1)))
        G = sv.from_edge_list(edges)
        decomp = sv.decompose(G)
        got = sorted(sorted(z.tolist()) for z in decomp.sinks)
        want = sorted(sorted(z.tolist()) for z in sink_nodes)
        if got != want or decomp.non_sink.size != x_size:
            continue
        ok = True
        for z in decomp.sinks:
            if not sv.is_aperiodic(z, G):
                ok = False
                break
        if not ok:
            continue
        kinds = {tuple(z.tolist()): sv.classify_balance(z, G).kind.value for z in decomp.sinks}
        for z, (kind, _) in zip(sink_nodes, sink_specs):
            if kinds[tuple(sorted(z.tolist()))] != kind:
                ok = False
        if ok:
            return G
    raise GenerationFailed("build_shape: retries exhausted")


def balance_partition(G, nodes=None):
    """Convenience: classify the (single-component) graph and return its class."""
    if nodes is None:
        nodes = np.arange(G.n)
    return sv.classify_balance(nodes, G)


def reference_parse_snap(text, repair_dangling=False):
    """Line-by-line edge-list parser: the oracle for sv.parse_snap.

    One dict remaps ids in first-appearance order, one set drops repeated
    (src, dst) pairs, and the CSR arrays are formed from per-node Python
    lists, without the package's graph builders.  Fields outside int64 are
    not supported here (an id overflows in node_ids).
    """
    remap = {}
    src, dst, w = [], [], []
    seen = set()
    raw_edges = 0
    negative = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MalformedLine(f"line {lineno}: expected 'src dst sign', got {raw!r}")
        try:
            u, v, s = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise MalformedLine(f"line {lineno}: non-integer field in {raw!r}") from None
        if s == 0:
            raise ZeroWeightEdge(f"line {lineno}: zero sign")
        raw_edges += 1
        if s < 0:
            negative += 1
        for node in (u, v):
            if node not in remap:
                remap[node] = len(remap)
        if (u, v) in seen:
            continue
        seen.add((u, v))
        src.append(u)
        dst.append(v)
        w.append(1 if s > 0 else -1)
    if not remap:
        raise MalformedLine("no edges in input")
    if min(remap) == 0 and max(remap) == len(remap) - 1:
        remap = {node: node for node in remap}
    node_ids = np.empty(len(remap), dtype=np.int64)
    for original, compact in remap.items():
        node_ids[compact] = original

    n = len(remap)
    rows = [[] for _ in range(n)]  # (target, sign) per source node
    for u, v, s in zip(src, dst, w):
        rows[remap[u]].append((remap[v], s))
    missing = [u for u in range(n) if not rows[u]]
    if missing and not repair_dangling:
        raise DanglingNode(
            f"{len(missing)} node(s) without out-edges (first: {missing[:5]}); "
            "pass repair_dangling=True to add unit self-loops"
        )
    for u in missing:
        rows[u].append((u, 1))
    for row in rows:
        row.sort()
    edges = [e for row in rows for e in row]
    graph = sv.SignedDigraph(
        n,
        np.array([0] + [len(row) for row in rows], dtype=np.int64).cumsum(),
        np.array([v for v, _ in edges], dtype=np.int64),
        np.ones(len(edges)),
        np.array([s for _, s in edges], dtype=np.int8),
        np.array([float(len(row)) for row in rows]),
    )
    return sv.ParsedSnap(graph, node_ids, raw_edges, negative,
                         len(src), sum(1 for s in w if s < 0))


def _parse_outcome(parse, text, repair):
    try:
        return parse(text, repair_dangling=repair)
    except SignedVoterError as exc:
        return type(exc), str(exc)


def assert_parses_like_reference(text, repair=False):
    """parse_snap and reference_parse_snap raise the same error, or give the
    same graph, array dtypes, node ids and edge counts."""
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


def reference_build_alias_tables(G):
    """Vose's alias method run node by node: the oracle for build_alias_tables."""
    accept = np.ones(G.n_edges)
    alias = np.arange(G.n_edges, dtype=np.int64)
    degree = np.diff(G.indptr).astype(np.int64)
    for i in range(G.n):
        lo, hi = G.indptr[i], G.indptr[i + 1]
        k = hi - lo
        if k == 1:
            continue
        scaled = (G.weights[lo:hi] / G.out_weight[i]) * k
        small = [j for j in range(k) if scaled[j] < 1.0]
        large = [j for j in range(k) if scaled[j] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            g = large.pop()
            accept[lo + s] = scaled[s]
            alias[lo + s] = lo + g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            (small if scaled[g] < 1.0 else large).append(g)
        for j in small + large:
            accept[lo + j] = 1.0
            alias[lo + j] = lo + j
    return AliasTables(accept, alias, degree, G.signs < 0)


def reference_step_batch(G, tables, colors, rng):
    """One synchronous MC step of a (rows, n) color batch from a single
    (rows, n) uniform draw: the oracle for the blocked kernel of simulate."""
    y = rng.random(colors.shape) * tables.degree
    slot = y.astype(np.int64)
    frac = y - slot
    e0 = G.indptr[:-1] + slot
    e = np.where(frac < tables.accept[e0], e0, tables.alias[e0])
    picked = np.take_along_axis(colors, G.targets[e], axis=1)
    return picked ^ tables.negative[e]


def reference_mc_run(G, seeds, t, trials, rng_seed, batch, partition):
    """mc_run stepped a whole batch at a time, each step one (rows, n) draw
    (reference_step_batch): the step-major oracle for the tile runner of
    simulate.  Returns mean, stderr, node_freq, s_white and s_black."""
    tables = reference_build_alias_tables(G)
    initial = sv.indicator(G.n, seeds) > 0
    in_s = np.asarray(partition, dtype=bool)
    children = np.random.SeedSequence(rng_seed).spawn(-(-trials // batch))
    sum_w, sum_w2, node_sum = np.zeros(t + 1), np.zeros(t + 1), np.zeros((t + 1, G.n))
    s_white = s_black = 0
    for start, child in zip(range(0, trials, batch), children):
        rng = np.random.default_rng(child)
        colors = np.repeat(initial[None, :], min(batch, trials - start), axis=0)
        for k in range(t + 1):
            if k:
                colors = reference_step_batch(G, tables, colors, rng)
            w = colors.sum(axis=1)
            sum_w[k] += w.sum()
            sum_w2[k] += np.square(w, dtype=np.float64).sum()
            node_sum[k] += colors.sum(axis=0)
        mismatches = (colors != in_s).sum(axis=1)
        s_white += int((mismatches == 0).sum())
        s_black += int((mismatches == G.n).sum())
    stderr = np.zeros(t + 1)
    if trials > 1:
        var = np.maximum(sum_w2 - sum_w**2 / trials, 0.0) / (trials - 1)
        stderr = np.sqrt(var / trials)
    return {"mean": sum_w / trials, "stderr": stderr, "node_freq": node_sum / trials,
            "s_white": s_white, "s_black": s_black}


def _reference_bfs_levels(k, src, dst):
    """Hop distance from local node 0 along edges src -> dst; -1 where unreached."""
    adj = dst[np.argsort(src, kind="stable")]
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=k), out=indptr[1:])
    level = np.full(k, -1, dtype=np.int64)
    level[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        start = indptr[frontier]
        reached = adj[_ranges(start, indptr[frontier + 1] - start)]
        frontier = np.unique(reached[level[reached] < 0])
        level[frontier] = depth
    return level


def _reference_two_color(k, src, dst, want_same):
    """2-color the undirected sign skeleton; None when inconsistent.

    want_same[e] is True when edge e constrains its endpoints to equal
    colors.  The BFS runs on the signed double cover: node v has a copy
    v + k, an edge wanting equal colors joins like copies and one wanting
    opposite colors joins unlike copies, in both directions.  The skeleton
    is connected, so a coloring exists iff node 0's copy is unreachable;
    the color of v is whether v itself is reached, so node 0 is colored 1.
    """
    flip = np.where(want_same, 0, k)
    a = np.concatenate([src, src + k])
    b = np.concatenate([dst + flip, dst + k - flip])
    reached = _reference_bfs_levels(2 * k, np.concatenate([a, b]), np.concatenate([b, a])) >= 0
    return None if reached[k] else reached[:k]


def reference_classify_balance(nodes, G):
    """SCC check by BFS both ways and balance by two 2-colorings of the
    signed double cover: the oracle for sv.classify_balance."""
    nodes = np.sort(np.asarray(nodes, dtype=np.int64))
    src, dst, eid = _restrict(G, nodes, nodes)
    k = nodes.size
    if (_reference_bfs_levels(k, src, dst).min() < 0
            or _reference_bfs_levels(k, dst, src).min() < 0):
        raise NotStronglyConnected("classify_balance: node set is not a single SCC")
    positive = G.signs[eid] > 0
    for kind, want_same in ((BalanceKind.BALANCED, positive),
                            (BalanceKind.ANTI_BALANCED, ~positive)):
        in_s = _reference_two_color(k, src, dst, want_same)
        if in_s is not None:
            return BalanceClass(kind, nodes, in_s)
    return BalanceClass(BalanceKind.STRICTLY_UNBALANCED, nodes, None)


def reference_decompose(G):
    """Tarjan condensation over NumPy scalars, numbered by a sort on each
    component's smallest node: the oracle for sv.decompose.  Not cached."""
    n = G.n
    index = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    comp_of = np.full(n, -1, dtype=np.int64)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, G.indptr[root])]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, ptr = work[-1]
            if ptr < G.indptr[v + 1]:
                work[-1] = (v, ptr + 1)
                w = int(G.targets[ptr])
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, G.indptr[w]))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp_of[w] = len(components)
                        comp.append(w)
                        if w == v:
                            break
                    components.append(comp)

    order = sorted(range(len(components)), key=lambda c: min(components[c]))
    renumber = np.empty(len(components), dtype=np.int64)
    renumber[order] = np.arange(len(components))
    scc_id = renumber[comp_of]
    comps = [np.sort(np.array(components[c], dtype=np.int64)) for c in order]

    has_out = np.zeros(len(comps), dtype=bool)
    cross = scc_id[G.sources] != scc_id[G.targets]
    has_out[scc_id[G.sources[cross]]] = True
    sink_index = [i for i in range(len(comps)) if not has_out[i]]
    non_sink = np.nonzero(has_out[scc_id])[0]
    rank = np.empty(G.n, dtype=np.int64)
    for c in comps:
        rank[c] = np.arange(c.size)
    return Decomposition(G, scc_id, comps, sink_index, non_sink, rank)
