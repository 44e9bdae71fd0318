"""Condensation into SCCs, sink detection, balance classification, stationary law.

`decompose` runs once per graph and is cached on it.  Its `analysis(i)` is
the one place that asks whether component i is aperiodic and balanced,
anti-balanced or strictly unbalanced; `classify`, `generate` and the
long-term routines all read it.  Both questions read one directed BFS from
the component's smallest node, which `analysis(i)` runs once and hands to
both checks; called on their own, the checks test a node set against the
cached decomposition in O(k) and run that BFS themselves.  The stationary
law needs no BFS.  Each component's internal edges are cut out of the graph
once, on first use, into a read-only `EdgeView` that both checks, the
analysis, `stationary` and the sink block `pz` all read; `px` and every
`py` are sliced out of one read of the non-sink rows.  A node set handed to
a check or to `stationary` must be one component, and reads its view.
`_restrict` is only the tests' reference for the views and blocks.
"""

import math
import weakref
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NotStronglyConnected, PeriodicComponent
from .graph import SignedDigraph, _offsets, _ranges, _sources, _stable_order, partition, scatter


class BalanceKind(Enum):
    BALANCED = "balanced"
    ANTI_BALANCED = "anti_balanced"
    STRICTLY_UNBALANCED = "strictly_unbalanced"


@dataclass
class BalanceClass:
    """Balance verdict for one ergodic component.

    `nodes` are the component's node ids in ascending order; `in_s` marks the
    partition side S aligned with `nodes`, and `signs` is +1 on S and -1 on
    Sbar (both None for strictly unbalanced).  S is canonical: the smallest
    node id of the component lies in S.
    """

    kind: BalanceKind
    nodes: np.ndarray
    in_s: np.ndarray | None

    @cached_property
    def signs(self) -> np.ndarray | None:
        if self.in_s is None:
            return None
        signs = np.where(self.in_s, 1.0, -1.0)
        signs.setflags(write=False)
        return signs

    @property
    def size_s(self) -> int:
        return int(self.in_s.sum()) if self.in_s is not None else 0

    @property
    def size_sbar(self) -> int:
        return len(self.nodes) - self.size_s if self.in_s is not None else 0


class _WeakGraph:
    """Holds its graph by a weak reference: the graph caches what holds it
    (its decomposition, and that its analyses), so a strong one would keep
    the graph and its cached operators alive until the cyclic GC runs."""

    def _hold(self, graph: SignedDigraph) -> None:
        self._graph_ref = weakref.ref(graph)

    @property
    def graph(self) -> SignedDigraph:
        graph = self._graph_ref()
        if graph is None:
            raise ReferenceError(f"the graph of this {type(self).__name__} no longer exists")
        return graph


@dataclass
class ComponentAnalysis(_WeakGraph):
    """Long-term facts of one SCC: aperiodicity, balance class, stationary law.

    `balance` is None on a periodic component.  `pi` (sinks only) is aligned
    with `nodes` and computed on first access.  The balance arrays and `pi`
    are shared by every caller and therefore read-only.  The analysis holds
    its graph weakly: once the graph is gone, `graph` and a `pi` not yet
    computed raise ReferenceError (`dynamics.SteadyState` holds the graph
    of the analyses it returns).
    """

    of_graph: InitVar[SignedDigraph]
    nodes: np.ndarray
    aperiodic: bool
    balance: BalanceClass | None

    def __post_init__(self, of_graph):
        self._hold(of_graph)

    @cached_property
    def pi(self) -> np.ndarray:
        pi = stationary(self.nodes, self.graph)
        pi.setflags(write=False)
        return pi

    def alignment(self, x: np.ndarray) -> float:
        """The inner product of the signed stationary law with x - 1/2 on the
        nodes of this balanced or anti-balanced sink: the weight of its
        polarized limit from the white probabilities x."""
        bal = self.balance
        return float((bal.signs * self.pi) @ (x[bal.nodes] - 0.5))


class Block:
    """Matrix-free view of one block of the signed transition matrix.

    Rows/cols are local indices; coef holds sign*w/d[src] per edge.  Never
    materialized except through dense(), used only by small direct solves.
    """

    def __init__(self, rows, cols, coef, nrows, ncols):
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.coef = np.asarray(coef, dtype=np.float64)
        for a in (self.rows, self.cols, self.coef):
            a.setflags(write=False)  # a cached block is shared by every caller
        self.nrows = nrows
        self.ncols = ncols

    @cached_property
    def _parts(self) -> tuple:
        return partition(self.rows, self.cols, self.coef, self.nrows)

    @cached_property
    def _t_parts(self) -> tuple:
        return partition(self.cols, self.rows, self.coef, self.ncols)

    def apply(self, v) -> np.ndarray:
        return scatter(self._parts, np.asarray(v, dtype=np.float64))

    def apply_t(self, v) -> np.ndarray:
        return scatter(self._t_parts, np.asarray(v, dtype=np.float64))

    def dense(self) -> np.ndarray:
        m = np.zeros((self.nrows, self.ncols))
        m[self.rows, self.cols] = self.coef
        return m


class EdgeView(NamedTuple):
    """One component's internal edges, cut out of G once and read-only.

    A local CSR over `nodes`: row r's edges are `indptr[r]:indptr[r + 1]`,
    `dst` holds their targets' local indices, `eid` their global edge ids
    and `neg` whether their sign is negative, in global edge order.
    `edges()` equals `_restrict(G, nodes, nodes)` element for element; its
    local sources are rebuilt from `indptr` on each call, not cached.
    """

    nodes: np.ndarray
    indptr: np.ndarray
    dst: np.ndarray
    eid: np.ndarray
    neg: np.ndarray

    def edges(self) -> tuple:
        """(src, dst, edge ids), as `_restrict` gives them."""
        return _sources(self.indptr), self.dst, self.eid


@dataclass
class Decomposition(_WeakGraph):
    """Condensation of a graph into SCCs with sink bookkeeping.

    Components are numbered by their smallest contained node id; each
    component array is sorted ascending, and `rank` is each node's index in
    its component.  Sinks are components with no outgoing condensation edge;
    `non_sink` is everything else, sorted.  `view(i)` holds component i's
    internal edges, cut out of the graph once and read by both checks,
    `analysis(i)`, `stationary` and `pz`.  Block views restrict the signed
    transition matrix to non-sink rows (px), non-sink-to-sink couplings (py,
    cut with px from one read of those rows) and each sink (pz), indexed
    like `sinks`; `analysis(i)` holds the long-term facts of component i.
    All three are built on first use.  The decomposition holds its graph
    weakly, as the graph caches it: once the graph is gone, what is not yet
    built raises ReferenceError.
    """

    of_graph: InitVar[SignedDigraph]
    scc_id: np.ndarray
    components: list
    sink_index: list
    non_sink: np.ndarray
    rank: np.ndarray
    _pz: dict = field(default_factory=dict, repr=False)
    _analyses: dict = field(default_factory=dict, repr=False)
    _views: dict = field(default_factory=dict, repr=False)

    def __post_init__(self, of_graph):
        self._hold(of_graph)

    @cached_property
    def sinks(self) -> list:
        return [self.components[i] for i in self.sink_index]

    @property
    def n_components(self) -> int:
        return len(self.components)

    def analysis(self, i: int) -> ComponentAnalysis:
        """Aperiodicity and balance class of component i, computed on first use."""
        if i not in self._analyses:
            G, comp = self.graph, self.components[i]
            bfs = _walk(self.view(i))
            aperiodic = is_aperiodic(comp, G, _bfs=bfs)
            bal = None
            if aperiodic:
                bal = classify_balance(comp, G, _bfs=bfs)
                if bal.in_s is not None:
                    bal.in_s.setflags(write=False)
            self._analyses[i] = ComponentAnalysis(G, comp, aperiodic, bal)
        return self._analyses[i]

    @cached_property
    def sink_analysis(self) -> list:
        """ComponentAnalysis of every sink, in `sinks` order.

        Raises PeriodicComponent on a periodic sink, where the long-term
        closed forms do not apply.
        """
        out = [self.analysis(i) for i in self.sink_index]
        for a in out:
            if not a.aperiodic:
                raise PeriodicComponent(f"sink component containing node {a.nodes[0]} is periodic")
        return out

    def view(self, i: int) -> EdgeView:
        """Internal edges of component i, cut out of the graph on first use."""
        if i not in self._views:
            comp = self.components[i]
            indptr, dst, eid = self._into(comp, i)
            neg = self.graph.signs[eid] < 0
            for a in (indptr, dst, eid, neg):
                a.setflags(write=False)  # shared by every check of the component
            self._views[i] = EdgeView(comp, indptr, dst, eid, neg)
        return self._views[i]

    def _into(self, rows: np.ndarray, i: int) -> tuple:
        """Edges from `rows` (sorted node ids) into component i as a local
        CSR: (indptr over rows, dst ranks in component i, edge ids), in
        global edge order.  Reads the rows' CSR and `scc_id` and `rank` at
        their targets, no n-sized array of its own."""
        G = self.graph
        start = G.indptr[rows]
        count = G.indptr[rows + 1] - start
        eid = _ranges(start, count)
        target = G.targets[eid]
        ends = _offsets(count)
        if rows is self.components[i] and self._sink_number[i] < len(self.sink_index):
            return ends, self.rank[target], eid  # every out-edge of a sink stays inside it
        keep = self.scc_id[target] == i  # kept edges before each row's end give its pointer
        return _offsets(keep)[ends], self.rank[target[keep]], eid[keep]

    @cached_property
    def _sink_number(self) -> np.ndarray:
        """Each component's index in `sinks`, or len(sinks) if it is not a sink."""
        number = np.full(self.n_components, len(self.sink_index), dtype=np.int64)
        number[self.sink_index] = np.arange(len(self.sink_index))
        return number

    @cached_property
    def _x_blocks(self) -> tuple:
        """(px, [py(0), py(1), ...]) from one read of the out-edges of X, the
        non-sink rows, each keyed by the sink its target lies in, X's own last:
        a stable order of the keys keeps global edge order inside each block."""
        G, x, n_sinks = self.graph, self.non_sink, len(self.sink_index)
        count = G.indptr[x + 1] - G.indptr[x]
        eid = _ranges(G.indptr[x], count)
        key = self._sink_number[self.scc_id[G.targets[eid]]]
        order = _stable_order(key, n_sinks + 1)
        col = self.rank.copy()  # a target's column: its rank in its sink, or its place in X
        col[x] = np.arange(x.size)
        rows, eid = _sources(_offsets(count))[order], eid[order]
        cols, coef = col[G.targets[eid]], G.transition_coef[eid]
        ends = _offsets(np.bincount(key, minlength=n_sinks + 1)).tolist()
        blocks = [Block(rows[a:b], cols[a:b], coef[a:b], x.size, k) for a, b, k
                  in zip(ends, ends[1:], [sink.size for sink in self.sinks] + [x.size])]
        return blocks[-1], blocks[:-1]

    def px(self) -> Block:
        return self._x_blocks[0]

    def py(self, sink: int) -> Block:
        return self._x_blocks[1][sink]

    def pz(self, sink: int) -> Block:
        i = self.sink_index[sink]
        if i not in self._pz:
            (src, dst, eid), k = self.view(i).edges(), self.components[i].size
            self._pz[i] = Block(src, dst, self.graph.transition_coef[eid], k, k)
        return self._pz[i]


def decompose(G: SignedDigraph) -> Decomposition:
    """Iterative Tarjan condensation on Python ints, numbered by smallest node.

    A work stack of (node, next edge) pairs replaces recursion; a node's pair
    goes back on it only when the scan of its out-edges descends.  The graph
    is immutable, so the result is cached on it: every later call returns the
    same Decomposition.
    """
    if G._decomposition is not None:
        return G._decomposition
    n = G.n
    # a memoryview item is a Python int, like a list item, without the list's copy
    indptr, targets = memoryview(G.indptr), memoryview(G.targets)
    index, low, on_stack, comp_of = [-1] * n, [0] * n, [False] * n, [0] * n
    stack: list[int] = []
    counter = n_comps = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, indptr[root])]
        while work:
            v, ptr = work.pop()
            end = indptr[v + 1]
            while ptr < end:
                w = targets[ptr]
                ptr += 1
                if index[w] == -1:
                    work.append((v, ptr))
                    work.append((w, indptr[w]))
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:  # no break: every out-edge of v is scanned, v is finished
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp_of[w] = n_comps
                        if w == v:
                            break
                    n_comps += 1

    comp_of = np.array(comp_of, dtype=np.int64)
    _, first = np.unique(comp_of, return_index=True)  # smallest node of each label
    renumber = np.empty(n_comps, dtype=np.int64)
    renumber[np.argsort(first)] = np.arange(n_comps)
    scc_id = renumber[comp_of]
    order = np.argsort(scc_id, kind="stable")
    order.setflags(write=False)  # so is every component, a view of it
    sizes = np.bincount(scc_id)
    starts = _offsets(sizes)[:-1]
    comps = np.split(order, starts[1:])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - np.repeat(starts, sizes)

    has_out = np.zeros(n_comps, dtype=bool)
    src = G.sources
    cross = scc_id[src] != scc_id[G.targets]
    has_out[scc_id[src[cross]]] = True
    sink_index = np.flatnonzero(~has_out).tolist()
    non_sink = np.nonzero(has_out[scc_id])[0]
    for a in (scc_id, non_sink, rank):
        a.setflags(write=False)  # shared by every caller of the cached decomposition
    G._decomposition = Decomposition(G, scc_id, comps, sink_index, non_sink, rank)
    return G._decomposition


def _restrict(G: SignedDigraph, rows: np.ndarray, cols: np.ndarray):
    """Edges from `rows` into `cols` (sorted node ids) as (src, dst, edge ids).

    src and dst are local indices into rows and cols, in global edge order.
    Only the CSR rows of `rows` are read: the cost follows their out-degree.
    """
    start = G.indptr[rows]
    count = G.indptr[rows + 1] - start
    eid = _ranges(start, count)
    loc = np.full(G.n, -1, dtype=np.int64)
    loc[cols] = np.arange(cols.size)
    dst = loc[G.targets[eid]]
    keep = dst >= 0
    src = np.repeat(np.arange(rows.size, dtype=np.int64), count)
    return src[keep], dst[keep], eid[keep]


def _bfs_levels(k: int, src: np.ndarray, dst: np.ndarray, bit: np.ndarray,
                indptr: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Hop distance from local node 0 along edges src -> dst (-1 where
    unreached, int32), and the xor of `bit` along each node's BFS-tree path.

    `src` must be ascending, as `_restrict` returns it, so the edges already
    form a local CSR; `indptr` is that CSR's row pointer, built from `src`
    when not given.  Level-synchronous: each step expands the whole
    frontier at once.  Every edge into a new node writes its index into the
    node's claim slot and the one that stays becomes the tree edge, so each
    node joins the next frontier once; the xor is therefore only meaningful
    where every path agrees.
    """
    if indptr is None:
        indptr = _offsets(np.bincount(src, minlength=k))
    level = np.full(k, -1, dtype=np.int32)  # a depth is below k
    level[0] = 0
    parity = np.zeros(k, dtype=bool)
    claim = np.empty(k, dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        start = indptr[frontier]
        pos = _ranges(start, indptr[frontier + 1] - start)
        pos = pos[level[dst[pos]] < 0]
        reached = dst[pos]
        claim[reached] = np.arange(pos.size)
        pos = pos[claim[reached] == np.arange(pos.size)]
        frontier = dst[pos]
        level[frontier] = depth
        parity[frontier] = parity[src[pos]] ^ bit[pos]
    return level, parity


def _component(G: SignedDigraph, nodes, what: str) -> EdgeView:
    """The edge view of a node set; raises unless the set is one SCC of the
    cached decomposition, that is, unless it is non-empty, its smallest id
    is a node, and the sorted set equals that node's component.  Ids must
    be integers: a cast would answer for 1 given 1.7, or for 0 given False."""
    nodes = np.asarray(nodes)
    if nodes.size and not np.issubdtype(nodes.dtype, np.integer):
        raise ValueError(f"{what}: node ids must be integers, got dtype {nodes.dtype}")
    if nodes.ndim == 1 and (nodes[1:] < nodes[:-1]).any():
        nodes = np.sort(nodes)
    d = decompose(G)
    if (nodes.ndim != 1 or nodes.size == 0 or not 0 <= nodes[0] < G.n
            or not np.array_equal(nodes, d.components[d.scc_id[nodes[0]]])):
        raise NotStronglyConnected(f"{what}: node set is not a single SCC")
    return d.view(int(d.scc_id[nodes[0]]))


def _walk(view: EdgeView) -> tuple:
    """(view, src, level, parity): an SCC's edge view, its local sources and
    the one directed BFS from its smallest node that both checks read."""
    src = _sources(view.indptr)
    return (view, src, *_bfs_levels(view.nodes.size, src, view.dst, view.neg, view.indptr))


def is_aperiodic(nodes, G: SignedDigraph, *, _bfs: tuple | None = None) -> bool:
    """True iff the SCC's cycle-length gcd is 1, via BFS level labeling.

    The gcd runs over the distinct gaps level[u] + 1 - level[v] only."""
    view, src, level, _ = _bfs or _walk(_component(G, nodes, "is_aperiodic"))
    gaps = np.abs(level[src] + 1 - level[view.dst])
    return bool(np.gcd.reduce(np.flatnonzero(np.bincount(gaps))) == 1)


def classify_balance(nodes, G: SignedDigraph, *, _bfs: tuple | None = None) -> BalanceClass:
    """Classify an ergodic component as balanced, anti-balanced, or neither.

    Balanced means a node partition exists with positive edges inside the
    parts and negative edges across; anti-balanced is the same after
    negating every sign.  Both tests read the directed BFS from local node 0
    that `is_aperiodic` runs, giving each node its depth d and the parity p
    of negative edges on its BFS-tree path.  The component is balanced iff
    p[u] ^ p[v] == neg(e) on every edge e = (u, v); otherwise it is
    anti-balanced iff q = p ^ (d & 1) satisfies q[u] ^ q[v] == 1 - neg(e).

    Balance ignores edge directions, and the directed tree spans the SCC, so
    it serves as well as a BFS tree of the undirected skeleton.  Where a
    partition exists, p[v] is 1 exactly when v lies across from node 0,
    whichever path is read; in the anti-balanced case q[v] is, because a
    path of length d changes sides once per positive edge.  So p and q, the
    verdict and S do not depend on the tree.  A 2-coloring of a connected graph is unique
    up to a swap, so taking S as the nodes colored like node 0 makes it
    canonical.
    """
    view, src, level, p = _bfs or _walk(_component(G, nodes, "classify_balance"))
    nodes, dst, neg = view.nodes, view.dst, view.neg
    if np.array_equal(p[src] ^ p[dst], neg):
        return BalanceClass(BalanceKind.BALANCED, nodes, ~p)
    q = p ^ (level & 1).astype(bool)
    if np.array_equal(q[src] ^ q[dst], ~neg):
        return BalanceClass(BalanceKind.ANTI_BALANCED, nodes, ~q)
    return BalanceClass(BalanceKind.STRICTLY_UNBALANCED, nodes, None)


def _power_iteration_cap(k: int) -> int:
    return max(100, int(10 * k * math.log(k + 1)))


_STATIONARY_TOL = 1e-12  # per-entry change that stops the power iteration
_STATIONARY_RESIDUAL_TOL = 1e-10  # accepted ||pi^T Pbar - pi^T||_inf
_DENSE_SOLVE_NODES = 2000  # the most nodes solved densely where an iteration stalls


def stationary(nodes, G: SignedDigraph) -> np.ndarray:
    """Stationary distribution of the unsigned chain on a closed component.

    Power iteration on the transpose of the unsigned transition matrix with
    a per-entry change threshold; falls back to a direct solve of
    (Pbar^T - I) pi = 0, sum(pi) = 1 for components of at most
    _DENSE_SOLVE_NODES when the iteration cap is hit.  The result is
    checked against ||pi^T Pbar - pi^T||_inf <= _STATIONARY_RESIDUAL_TOL.
    """
    view = _component(G, nodes, "stationary")
    nodes, (src, dst, eid) = view.nodes, view.edges()
    k = nodes.size
    if eid.size != (G.indptr[nodes + 1] - G.indptr[nodes]).sum():
        raise NotStronglyConnected("stationary: component has edges leaving the set")
    blk = Block(src, dst, np.abs(G.transition_coef[eid]), k, k)

    pi = np.full(k, 1.0 / k)
    for _ in range(_power_iteration_cap(k)):
        nxt = blk.apply_t(pi)
        nxt /= nxt.sum()
        delta = np.abs(nxt - pi).max()
        pi = nxt
        if delta <= _STATIONARY_TOL:
            break
    residual = np.abs(blk.apply_t(pi) - pi).max()
    if residual > _STATIONARY_RESIDUAL_TOL:
        # cap hit, or a small spectral gap stalled the per-entry change
        # before the iterate was accurate: direct solve for small components
        if k > _DENSE_SOLVE_NODES:
            raise NoConvergence(
                f"stationary: residual {residual:.3e} on component of {k} nodes"
            )
        a = np.vstack([blk.dense().T - np.eye(k), np.ones((1, k))])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.maximum(pi, 0.0)
        pi /= pi.sum()
        residual = np.abs(blk.apply_t(pi) - pi).max()
    if residual > _STATIONARY_RESIDUAL_TOL:
        raise NoConvergence(
            f"stationary: residual {residual:.3e} above {_STATIONARY_RESIDUAL_TOL:.1e}")
    return pi
