"""Condensation into SCCs, sink detection, balance classification, stationary law.

`decompose` runs once per graph and is cached on it.  Its `analysis(i)` is
the one place that asks whether component i is aperiodic and balanced,
anti-balanced or strictly unbalanced; `classify`, `generate` and the
long-term routines all read it.  Both questions read one directed BFS from
the component's smallest node, which `analysis(i)` runs once and hands to
both checks; called on their own, the checks test a node set against the
cached decomposition in O(k) and run that BFS themselves.  The stationary
law needs no BFS.  The checks and every block of P read edges through
`_restrict`, which touches only the CSR rows of the node set.
"""

import math
import weakref
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import NoConvergence, NotStronglyConnected, PeriodicComponent
from .graph import SignedDigraph, _ranges, partition, scatter


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


@dataclass
class Decomposition(_WeakGraph):
    """Condensation of a graph into SCCs with sink bookkeeping.

    Components are numbered by their smallest contained node id; each
    component array is sorted ascending.  Sinks are components with no
    outgoing condensation edge; `non_sink` is everything else, sorted.
    Block views restrict the signed transition matrix to non-sink rows
    (px), non-sink-to-sink couplings (py) and each sink (pz); `analysis(i)`
    holds the long-term facts of component i.  Both are built on first use.
    The decomposition holds its graph weakly, as the graph caches it: once
    the graph is gone, what is not yet built raises ReferenceError.
    """

    of_graph: InitVar[SignedDigraph]
    scc_id: np.ndarray
    components: list
    sink_index: list
    non_sink: np.ndarray
    _blocks: dict = field(default_factory=dict, repr=False)
    _analyses: dict = field(default_factory=dict, repr=False)

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
            bfs = _walk(G, comp, *_restrict(G, comp, comp))
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

    def px(self) -> Block:
        return self._block("x", self.non_sink, self.non_sink)

    def py(self, sink: int) -> Block:
        return self._block(("y", sink), self.non_sink, self.sinks[sink])

    def pz(self, sink: int) -> Block:
        return self._block(("z", sink), self.sinks[sink], self.sinks[sink])

    def _block(self, key, rows: np.ndarray, cols: np.ndarray) -> Block:
        if key not in self._blocks:
            G = self.graph
            src, dst, eid = _restrict(G, rows, cols)
            self._blocks[key] = Block(src, dst, G.transition_coef[eid], rows.size, cols.size)
        return self._blocks[key]


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
    comps = np.split(order, np.cumsum(np.bincount(scc_id))[:-1])

    has_out = np.zeros(n_comps, dtype=bool)
    src = G.sources
    cross = scc_id[src] != scc_id[G.targets]
    has_out[scc_id[src[cross]]] = True
    sink_index = np.flatnonzero(~has_out).tolist()
    non_sink = np.nonzero(has_out[scc_id])[0]
    for a in (scc_id, non_sink):
        a.setflags(write=False)  # shared by every caller of the cached decomposition
    G._decomposition = Decomposition(G, scc_id, comps, sink_index, non_sink)
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
    src = np.repeat(np.arange(rows.size), count)
    return src[keep], dst[keep], eid[keep]


def _bfs_levels(k: int, src: np.ndarray, dst: np.ndarray,
                bit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hop distance from local node 0 along edges src -> dst (-1 where
    unreached), and the xor of `bit` along each node's BFS-tree path.

    `src` must be ascending, as `_restrict` returns it, so the edges already
    form a local CSR.  Level-synchronous: each step expands the whole
    frontier at once.  Every edge into a new node writes its index into the
    node's claim slot and the one that stays becomes the tree edge, so each
    node joins the next frontier once; the xor is therefore only meaningful
    where every path agrees.
    """
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=k), out=indptr[1:])
    level = np.full(k, -1, dtype=np.int64)
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


def _component(G: SignedDigraph, nodes, what: str):
    """Sorted nodes and internal edges (local src, dst, edge ids) of a node
    set; raises unless the set is one SCC of the cached decomposition, that
    is, unless it is non-empty, its smallest id is a node, and the sorted set
    equals that node's component."""
    nodes = np.sort(np.asarray(nodes, dtype=np.int64))
    d = decompose(G)
    if (nodes.size == 0 or not 0 <= nodes[0] < G.n
            or not np.array_equal(nodes, d.components[d.scc_id[nodes[0]]])):
        raise NotStronglyConnected(f"{what}: node set is not a single SCC")
    return (nodes, *_restrict(G, nodes, nodes))


def _walk(G: SignedDigraph, nodes, src, dst, eid) -> tuple:
    """(nodes, src, dst, neg, level, parity): an SCC's internal edges and the
    one directed BFS from its smallest node that both component checks read."""
    neg = G.signs[eid] < 0
    return (nodes, src, dst, neg, *_bfs_levels(nodes.size, src, dst, neg))


def is_aperiodic(nodes, G: SignedDigraph, *, _bfs: tuple | None = None) -> bool:
    """True iff the SCC's cycle-length gcd is 1, via BFS level labeling."""
    _, src, dst, _, level, _ = _bfs or _walk(G, *_component(G, nodes, "is_aperiodic"))
    return bool(np.gcd.reduce(np.abs(level[src] + 1 - level[dst])) == 1)


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
    nodes, src, dst, neg, level, p = _bfs or _walk(G, *_component(G, nodes, "classify_balance"))
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


def stationary(nodes, G: SignedDigraph) -> np.ndarray:
    """Stationary distribution of the unsigned chain on a closed component.

    Power iteration on the transpose of the unsigned transition matrix with
    a per-entry change threshold; falls back to a direct solve of
    (Pbar^T - I) pi = 0, sum(pi) = 1 for components of at most 2000 nodes
    when the iteration cap is hit.  The result is checked against
    ||pi^T Pbar - pi^T||_inf <= _STATIONARY_RESIDUAL_TOL.
    """
    nodes, src, dst, eid = _component(G, nodes, "stationary")
    k = nodes.size
    if eid.size != np.diff(G.indptr)[nodes].sum():
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
        if k > 2000:
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
