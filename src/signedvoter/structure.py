"""Condensation into SCCs, sink detection, balance classification, stationary law.

`decompose` runs once per graph and is cached on it.  Its `analysis(i)` is
the one place that asks whether component i is aperiodic and balanced,
anti-balanced or strictly unbalanced; `classify`, `generate` and the
long-term routines all read it.  The checks test a node set against the
cached decomposition in O(k); aperiodicity takes one forward BFS, both
balance tests one parity BFS, and the stationary law none.  They and every
block of P read edges through `_restrict`, which touches only the CSR rows
of the node set.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import NoConvergence, NotStronglyConnected, PeriodicComponent
from .graph import SignedDigraph, scatter


class BalanceKind(Enum):
    BALANCED = "balanced"
    ANTI_BALANCED = "anti_balanced"
    STRICTLY_UNBALANCED = "strictly_unbalanced"


@dataclass
class BalanceClass:
    """Balance verdict for one ergodic component.

    `nodes` are the component's node ids in ascending order; `in_s` marks the
    partition side S aligned with `nodes` (None for strictly unbalanced).
    S is canonical: the smallest node id of the component lies in S.
    """

    kind: BalanceKind
    nodes: np.ndarray
    in_s: np.ndarray | None

    @property
    def size_s(self) -> int:
        return int(self.in_s.sum()) if self.in_s is not None else 0

    @property
    def size_sbar(self) -> int:
        return len(self.nodes) - self.size_s if self.in_s is not None else 0


@dataclass
class ComponentAnalysis:
    """Long-term facts of one SCC: aperiodicity, balance class, stationary law.

    `balance` is None on a periodic component.  `pi` (sinks only) is aligned
    with `nodes` and computed on first access.  The balance arrays and `pi`
    are shared by every caller and therefore read-only.
    """

    graph: SignedDigraph = field(repr=False)
    nodes: np.ndarray
    aperiodic: bool
    balance: BalanceClass | None

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
        self.nrows = nrows
        self.ncols = ncols

    def apply(self, v) -> np.ndarray:
        return scatter(self.rows, self.cols, self.coef, np.asarray(v, dtype=np.float64), self.nrows)

    def apply_t(self, v) -> np.ndarray:
        return scatter(self.cols, self.rows, self.coef, np.asarray(v, dtype=np.float64), self.ncols)

    def dense(self) -> np.ndarray:
        m = np.zeros((self.nrows, self.ncols))
        m[self.rows, self.cols] = self.coef
        return m


@dataclass
class Decomposition:
    """Condensation of a graph into SCCs with sink bookkeeping.

    Components are numbered by their smallest contained node id; each
    component array is sorted ascending.  Sinks are components with no
    outgoing condensation edge; `non_sink` is everything else, sorted.
    Block views restrict the signed transition matrix to non-sink rows
    (px), non-sink-to-sink couplings (py) and each sink (pz); `analysis(i)`
    holds the long-term facts of component i.  Both are built on first use.
    """

    graph: SignedDigraph
    scc_id: np.ndarray
    components: list
    sink_index: list
    non_sink: np.ndarray
    _blocks: dict = field(default_factory=dict, repr=False)
    _analyses: dict = field(default_factory=dict, repr=False)

    @property
    def sinks(self) -> list:
        return [self.components[i] for i in self.sink_index]

    @property
    def n_components(self) -> int:
        return len(self.components)

    def analysis(self, i: int) -> ComponentAnalysis:
        """Aperiodicity and balance class of component i, computed on first use."""
        if i not in self._analyses:
            comp = self.components[i]
            aperiodic = is_aperiodic(comp, self.graph)
            bal = None
            if aperiodic:
                bal = classify_balance(comp, self.graph)
                for a in (bal.nodes, bal.in_s):
                    if a is not None:
                        a.setflags(write=False)
            self._analyses[i] = ComponentAnalysis(self.graph, comp, aperiodic, bal)
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
            src, dst, eid = _restrict(self.graph, rows, cols)
            self._blocks[key] = Block(src, dst, self.graph.transition_coef[eid],
                                      rows.size, cols.size)
        return self._blocks[key]


def decompose(G: SignedDigraph) -> Decomposition:
    """Tarjan condensation with deterministic component numbering.

    The graph is immutable, so the result is cached on it: every later call
    returns the same Decomposition.
    """
    if G._decomposition is not None:
        return G._decomposition
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
    G._decomposition = Decomposition(G, scc_id, comps, sink_index, non_sink)
    return G._decomposition


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The index ranges start[i] : start[i] + count[i], concatenated."""
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)


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

    Level-synchronous: each step expands the whole frontier at once through
    a local CSR of the edges.  Any edge into a new node may become its tree
    edge, so the xor is only meaningful where every path agrees.
    """
    order = np.argsort(src, kind="stable")
    adj, adj_bit = dst[order], bit[order]
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=k), out=indptr[1:])
    level = np.full(k, -1, dtype=np.int64)
    level[0] = 0
    parity = np.zeros(k, dtype=bool)
    frontier = np.zeros(1, dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        start = indptr[frontier]
        count = indptr[frontier + 1] - start
        pos = _ranges(start, count)
        reached = adj[pos]
        new = level[reached] < 0
        parity[reached[new]] = (np.repeat(parity[frontier], count) ^ adj_bit[pos])[new]
        frontier = np.unique(reached[new])
        level[frontier] = depth
    return level, parity


def _component(G: SignedDigraph, nodes, what: str):
    """Sorted nodes and internal edges (local src, dst, edge ids) of a node
    set; raises unless the set is one SCC of the cached decomposition, that
    is, unless the sorted set equals the component of its first node."""
    nodes = np.sort(np.asarray(nodes, dtype=np.int64))
    d = decompose(G)
    if not np.array_equal(nodes, d.components[d.scc_id[nodes[0]]]):
        raise NotStronglyConnected(f"{what}: node set is not a single SCC")
    return (nodes, *_restrict(G, nodes, nodes))


def is_aperiodic(nodes, G: SignedDigraph) -> bool:
    """True iff the SCC's cycle-length gcd is 1, via BFS level labeling."""
    nodes, src, dst, eid = _component(G, nodes, "is_aperiodic")
    level, _ = _bfs_levels(nodes.size, src, dst, G.signs[eid] < 0)
    return bool(np.gcd.reduce(np.abs(level[src] + 1 - level[dst])) == 1)


def classify_balance(nodes, G: SignedDigraph) -> BalanceClass:
    """Classify an ergodic component as balanced, anti-balanced, or neither.

    Balanced means a node partition exists with positive edges inside the
    parts and negative edges across; anti-balanced is the same after
    negating every sign.  Both tests read one BFS over the undirected sign
    skeleton, giving each node its depth d and the parity p of negative
    edges on its BFS-tree path.  The component is balanced iff
    p[u] ^ p[v] == neg(e) on every edge e = (u, v); otherwise it is
    anti-balanced iff q = p ^ (d & 1) satisfies q[u] ^ q[v] == 1 - neg(e).
    A 2-coloring of a connected graph is unique up to a swap, so taking S
    as the nodes colored like node 0 makes it canonical.
    """
    nodes, src, dst, eid = _component(G, nodes, "classify_balance")
    neg = G.signs[eid] < 0
    level, p = _bfs_levels(nodes.size, np.concatenate([src, dst]),
                           np.concatenate([dst, src]), np.concatenate([neg, neg]))
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
