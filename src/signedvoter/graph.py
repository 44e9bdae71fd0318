"""Signed directed graphs and the matrix-free signed transition operator.

A graph holds, per node, a list of weighted signed out-edges stored in flat
CSR-style arrays sorted by target id.  The signed transition matrix
P = D^-1 A (D = diagonal of total absolute out-weights) is never
materialized; `apply_p` and `apply_p_transpose` apply it edge by edge, which
keeps every product at O(|E|) regardless of n.  `scatter` is the one
edge-list kernel behind the transpose and every block of P in `structure`.

A product of at least _PART_EDGES edges runs in k = min(_threads(),
m // _PART_EDGES) parts, each over a contiguous range of output nodes: part
0 on the calling thread, the others on one pool of at most _threads() - 1
worker threads, made on first use and kept for the life of the process.
`apply_p` cuts the CSR rows into ranges of about m/k edges.  `scatter` reads
a partition made once per operator on the calling thread: its edges split
stably by ranges of the output index, which costs a copy of the edge
arrays, or of the output index alone where it already ascends.  Each
output entry is summed by the same kernel over the same edges in the same
order as in one part, so the bits do not depend on k.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DanglingNode, DuplicateEdge, MalformedLine, NonFiniteWeight, ZeroWeightEdge

_OUT_WEIGHT_RTOL = 1e-12  # relative slack of validate()'s out_weight check
_MAX_THREADS = 4  # threads of one product or one MC step, at most
# Edges per part of a product, at least.  On a shared 2-vCPU host (NumPy
# 2.4, min of 7 x 40 calls), two parts made the 100k-edge products of
# configs/balanced.cfg slower, apply_p 0.54 -> 0.62 ms and the transpose
# 0.49 -> 0.57 ms, since handing a part over costs more than it saves; on
# an Epinions-sized graph of 1.07M edges they took apply_p 5.4-6.6 ->
# 3.2-4.3 ms and the transpose 4.9-5.8 -> 3.3-3.5 ms.
_PART_EDGES = 1 << 18


def _threads() -> int:
    """Threads a product or an MC step may use: the cores this process may run on, capped."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return max(1, min(_MAX_THREADS, cores))


def _parts(m: int) -> int:
    """The number of parts of a product over m edges."""
    return max(1, min(_threads(), m // _PART_EDGES))


def _cuts(starts: np.ndarray, k: int) -> np.ndarray:
    """Cuts c_0 = 0 <= ... <= c_k = starts.size - 1 of the output entries,
    where entry i's edges start at starts[i] and the last ones end at
    starts[-1], into k ranges of about starts[-1] / k edges each."""
    cuts = np.searchsorted(starts, np.arange(k + 1) * starts[-1] // k)
    cuts[-1] = starts.size - 1  # past trailing entries that have no edges
    return cuts


_pool = None  # the product workers, made on first use
_pool_lock = threading.Lock()


def _workers() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _threads() - 1), thread_name_prefix="signedvoter")
        return _pool


def _in_parts(run, k: int) -> list:
    """[run(0), ..., run(k - 1)]: run(0) on the calling thread, the others on
    the pool.  Returns or raises only once every part has finished; raises
    the exception of the first part, in part order, that raised one."""
    if k == 1:
        return [run(0)]
    jobs = [_workers().submit(run, j) for j in range(1, k)]
    try:
        first = run(0)
    finally:
        wait(jobs)
    return [first] + [job.result() for job in jobs]


def _joined(pieces: list) -> np.ndarray:
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


@dataclass(eq=False, repr=False)
class SignedDigraph:
    """Weighted signed digraph with per-node out-edge arrays.

    Node i's out-edges occupy slots indptr[i]:indptr[i+1] of `targets`,
    `weights` (strictly positive) and `signs` (+1/-1), sorted by target id
    with no duplicate (source, target) pairs.  `out_weight[i]` is the total
    absolute out-weight d_i and is always positive: every node must have at
    least one out-edge.  Instances are immutable after construction and safe
    to share across worker threads/processes.  Derived data (the cached
    properties below and structure.decompose's result) is computed on first
    use and kept for the life of the graph.
    """

    n: int
    indptr: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    signs: np.ndarray
    out_weight: np.ndarray
    _decomposition: object = field(default=None, init=False)

    def __post_init__(self):
        for a in (self.indptr, self.targets, self.weights, self.signs, self.out_weight):
            a.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return int(self.targets.shape[0])

    @property
    def n_negative(self) -> int:
        return int(np.count_nonzero(self.signs < 0))

    @property
    def sources(self) -> np.ndarray:
        """Per-edge source node id (the CSR row expanded), made on each use:
        only cold paths read it, and a transposed product reads the copy in
        its partition."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        src.setflags(write=False)
        return src

    @cached_property
    def transition_coef(self) -> np.ndarray:
        """Per-edge entry of the signed transition matrix: sign * w / d[src]."""
        coef = self.signs * self.weights / self.out_weight[self.sources]
        coef.setflags(write=False)
        return coef

    @cached_property
    def _row_cuts(self) -> np.ndarray:
        """apply_p's parts: row ranges cuts[j]:cuts[j + 1] of about m/k edges."""
        cuts = _cuts(self.indptr, _parts(self.n_edges))
        cuts.setflags(write=False)
        return cuts

    @cached_property
    def _transpose_parts(self) -> tuple:
        """apply_p_transpose's partition (see `partition`)."""
        return partition(self.targets, self.sources, self.transition_coef, self.n)

    @cached_property
    def ground(self) -> np.ndarray:
        """Weighted fraction of outgoing negative edges per node."""
        neg = np.where(self.signs < 0, self.weights, 0.0)
        g = np.bincount(self.sources, weights=neg, minlength=self.n) / self.out_weight
        g.setflags(write=False)
        return g

    def out_slice(self, i: int) -> slice:
        return slice(self.indptr[i], self.indptr[i + 1])

    def __repr__(self):
        return f"SignedDigraph(n={self.n}, edges={self.n_edges}, negative={self.n_negative})"

    def validate(self) -> None:
        """Recheck all structural invariants; raises GraphDataError on failure."""
        if not np.all(np.isfinite(self.weights)):
            raise NonFiniteWeight("NaN or infinite edge weight present")
        if np.any(self.weights <= 0):
            raise ZeroWeightEdge("non-positive edge weight present")
        if not np.all(np.abs(self.signs) == 1):
            raise MalformedLine("signs must be +1 or -1")
        deg = np.diff(self.indptr)
        if np.any(deg == 0):
            raise DanglingNode(f"nodes without out-edges: {np.nonzero(deg == 0)[0][:10]}")
        src = self.sources
        bad = np.nonzero((src[1:] == src[:-1]) & (np.diff(self.targets) <= 0))[0]
        if bad.size:
            raise DuplicateEdge(f"node {src[bad[0]]} has unsorted or duplicate targets")
        d = np.bincount(src, weights=self.weights, minlength=self.n)
        # written so that a NaN out_weight fails too
        if not np.all(np.abs(d - self.out_weight) <= _OUT_WEIGHT_RTOL * np.maximum(d, 1.0)):
            raise MalformedLine("out_weight inconsistent with edge weights")


def from_edge_list(edges, repair_dangling: bool = False) -> SignedDigraph:
    """Build a graph from (src, dst, signed_weight) triples.

    The sign of each edge is the sign of its weight; the stored weight is the
    absolute value.  Duplicate (src, dst) pairs, zero weights and NaN or
    infinite weights are rejected.  Nodes with no outgoing edge raise
    DanglingNode unless `repair_dangling` is set, in which case a positive
    unit self-loop is added (this changes the dynamics; off by default).
    """
    edges = list(edges)
    if not edges:
        raise MalformedLine("empty edge list")
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=np.float64)
    if np.any(src < 0) or np.any(dst < 0):
        raise MalformedLine("negative node id")
    bad = np.nonzero(~np.isfinite(w))[0]
    if bad.size:
        i = int(bad[0])
        raise NonFiniteWeight(f"edge ({src[i]}, {dst[i]}) has weight {w[i]}")
    zero = np.nonzero(w == 0)[0]
    if zero.size:
        i = int(zero[0])
        raise ZeroWeightEdge(f"edge ({src[i]}, {dst[i]}) has zero weight")
    n = int(max(src.max(), dst.max())) + 1
    return _build(n, src, dst, w, repair_dangling)[0]


def _build(n: int, src, dst, w, repair_dangling: bool, dedupe: bool = False):
    """The graph on nodes 0..n-1 with edges src -> dst of signed weight w,
    and the number of repair self-loops added.

    The inputs are trusted: ids in range, weights finite and nonzero, arrays
    contiguous and owned by the graph from here on.  Edges are sorted by
    (src, dst) unless they already ascend strictly, which also rules out a
    repeated pair.  Of a repeated pair, `dedupe` keeps the first in input
    order and drops the rest; otherwise it raises DuplicateEdge.
    """
    missing = np.nonzero(np.bincount(src, minlength=n) == 0)[0]
    if repair_dangling:
        src = np.concatenate([src, missing])
        dst = np.concatenate([dst, missing])
        w = np.concatenate([w, np.ones(missing.size)])
    step = np.diff(src)
    if not np.all((step > 0) | ((step == 0) & (np.diff(dst) > 0))):
        order = np.lexsort((dst, src))  # stable: a repeated pair keeps its input order
        src, dst, w = src[order], dst[order], w[order]
        first = np.ones(src.size, dtype=bool)  # the first edge of each (src, dst) pair
        first[1:] = (np.diff(src) != 0) | (np.diff(dst) != 0)
        if not (dedupe or first.all()):
            i = int(np.argmin(first))
            raise DuplicateEdge(f"duplicate edge ({src[i]}, {dst[i]})")
        src, dst, w = src[first], dst[first], w[first]
    if missing.size and not repair_dangling:
        raise DanglingNode(
            f"{missing.size} node(s) without out-edges (first: {missing[:5].tolist()}); "
            "pass repair_dangling=True to add unit self-loops"
        )
    indptr = np.searchsorted(src, np.arange(n + 1))
    signs = np.where(w > 0, 1, -1).astype(np.int8)
    weights = np.abs(w)
    out_weight = np.bincount(src, weights=weights, minlength=n)
    graph = SignedDigraph(n, indptr, dst, weights, signs, out_weight)
    return graph, missing.size  # nonzero only when repairing


@dataclass
class ParsedSnap:
    """parse_snap result: the graph, the id remap, and edge counts.

    `node_ids[k]` is the original id of compacted node k (first-appearance
    order).  `file_edges` / `file_negative` count the raw edge lines;
    `parsed_edges` / `parsed_negative` count distinct (src, dst) pairs, i.e.
    what the graph holds before any dangling-node repair.
    """

    graph: SignedDigraph
    node_ids: np.ndarray
    file_edges: int
    file_negative: int
    parsed_edges: int
    parsed_negative: int


def parse_snap(text: str, repair_dangling: bool = False) -> ParsedSnap:
    """Parse a whitespace-separated `src dst sign` edge list.

    A line whose first non-blank character is `#` is a comment; blank lines
    are skipped.  Every other line holds exactly three fields in Python
    integer syntax that fit in int64, so an edge line with a trailing
    `# ...` is malformed.  The first bad line in file order is reported.
    The sign field may be any nonzero integer and is taken as a signed unit
    weight.  Repeated (src, dst) lines keep the first occurrence, matching
    how public sign datasets carry the occasional duplicate vote.  Node ids
    are compacted to 0..n-1 preserving first-appearance order; an id set
    that is already exactly {0..n-1} is kept verbatim, so serialize
    round-trips exactly.
    """
    src, dst, sign = _plain_fields(text) or _checked_fields(text)
    top = int(max(src.max(), dst.max()))
    # at most 2m ids are used, so a larger top id (perhaps a huge one) is never verbatim
    if (min(src.min(), dst.min()) == 0 and top < 2 * sign.size
            and np.all(np.bincount(src, minlength=top + 1) + np.bincount(dst, minlength=top + 1))):
        node_ids = np.arange(top + 1, dtype=np.int64)
    else:
        ends = np.stack((src, dst), axis=1).ravel()  # src and dst of each line, in file order
        ids, first, inverse = np.unique(ends, return_index=True, return_inverse=True)
        order = np.argsort(first)
        node_ids = ids[order]
        compact = np.argsort(order)  # the compact id of each sorted id
        src, dst = compact[inverse[0::2]], compact[inverse[1::2]]
    graph, repaired = _build(node_ids.size, src, dst, np.where(sign > 0, 1.0, -1.0),
                             repair_dangling, dedupe=True)
    # repair self-loops are positive, so every negative edge is a parsed one
    return ParsedSnap(graph, node_ids, sign.size, int(np.count_nonzero(sign < 0)),
                      graph.n_edges - repaired, graph.n_negative)


_COMMENT_BYTES = np.zeros(256, dtype=bool)  # printable ASCII, tab, and the \r of a \r\n
_COMMENT_BYTES[list(range(0x20, 0x7F)) + list(b"\t\r")] = True


def _plain_fields(text: str):
    r"""The src, dst and sign fields of every edge line of a plain text, in
    file order, as three int64 arrays; None when the text is not plain.

    A plain text, encoded as UTF-8, holds only digits, `-`, space, tab, `\n`
    and `\r` directly before `\n`, outside comment lines that start with `#`
    in column 0 and hold printable ASCII.  Each non-blank line has three
    fields of an optional leading `-` and digits, each of magnitude below
    10**18, and no sign is zero.  The comments are blanked, the fields of
    each line counted from the bytes where a field starts, and every field
    read by NumPy's C text reader in one call.  Any text this rejects,
    `_checked_fields` reads line by line.
    """
    raw = text.encode("utf-8", "surrogatepass")
    # a blank before the text, so every field starts after a blank, and a final newline
    buf = np.empty(len(raw) + 2, dtype=np.uint8)
    buf[0], buf[-1] = ord(" "), ord("\n")
    buf[1:-1] = np.frombuffer(raw, dtype=np.uint8)
    del raw
    cr = np.flatnonzero(buf == ord("\r"))
    if np.any(buf[cr + 1] != ord("\n")):  # in range: the last byte is a \n
        return None
    newline = np.flatnonzero(buf == ord("\n"))
    before = np.concatenate(([0], newline[:-1]))  # the byte before each line
    comment = before[buf[before + 1] == ord("#")] + 1
    if comment.size:  # each comment's bytes up to its \n, found in time linear in them
        length = newline[np.searchsorted(newline, comment)] - comment
        in_comment = _ranges(comment, length)
        if not np.all(_COMMENT_BYTES[buf[in_comment]]):
            return None
        buf[in_comment] = ord(" ")
    del newline, comment
    blanked = buf.tobytes()  # what bytes.translate and np.fromstring read
    buf = np.frombuffer(blanked, dtype=np.uint8)  # a view, so one copy of the text stays
    if blanked.translate(None, b"0123456789- \t\r\n"):
        return None
    minus = np.flatnonzero(buf == ord("-"))  # in range: the text starts and ends blank
    if np.any(buf[minus - 1] > ord(" ")) or np.any(buf[minus + 1] < ord("0")):
        return None  # a - that does not start a field, or is not followed by a digit
    solid = buf > ord(" ")
    first = solid[1:] > solid[:-1]  # first[i]: a field starts at byte i + 1
    del solid
    fields = np.count_nonzero(first)
    # field starts per line; a line of 256 or more wraps in uint8, so the total is checked too
    per_line = np.add.reduceat(first.view(np.uint8), before, dtype=np.uint8)
    del first, before
    lines = np.count_nonzero(per_line)
    if not fields or 3 * lines != fields or np.count_nonzero(per_line == 3) != lines:
        return None
    values = np.fromstring(blanked, dtype=np.int64, sep=" ")
    # 19 or more significant digits, or past int64, which the reader clamps, are not plain
    if values.size != fields or values.min() <= -10**18 or values.max() >= 10**18:
        return None
    if not np.all(values[2::3]):
        return None  # a zero sign is reported, with its line, by `_checked_fields`
    return tuple(values[c::3].copy() for c in range(3))  # contiguous: the graph keeps dst


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The index ranges start[i] : start[i] + count[i], concatenated."""
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)


def _checked_fields(text: str) -> tuple:
    """The src, dst and sign fields of every edge line, read line by line.
    Runs only when `_plain_fields` rejects the text, and raises on the first
    bad line."""
    fields = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 3:
            raise MalformedLine(f"line {lineno}: expected 'src dst sign', got {raw!r}")
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise MalformedLine(f"line {lineno}: non-integer field in {raw!r}") from None
        if values[2] == 0:
            raise ZeroWeightEdge(f"line {lineno}: zero sign")
        if not all(-2**63 <= x < 2**63 for x in values):
            raise MalformedLine(f"line {lineno}: field outside the int64 range in {raw!r}")
        fields += values
    if not fields:
        raise MalformedLine("no edges in input")
    return tuple(np.array(fields[c::3], dtype=np.int64) for c in range(3))


def serialize(G: SignedDigraph) -> str:
    """Render a unit-weight graph in the `src dst sign` edge-list format.

    The file format carries signs only, so graphs with non-unit weights are
    refused; round-tripping through parse_snap reproduces the graph exactly.
    """
    if not np.all(G.weights == 1.0):
        raise ValueError("edge-list format stores signs only; graph has non-unit weights")
    rows = zip(G.sources.tolist(), G.targets.tolist(), G.signs.tolist())
    return "# signed edge list: src dst sign\n" + "".join(f"{s} {t} {g}\n" for s, t, g in rows)


def ground_vector(G: SignedDigraph) -> np.ndarray:
    """g(i) = (sum of node i's negative out-weights) / d_i, entries in [0, 1]."""
    return G.ground.copy()


def _check_input(G: SignedDigraph, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] != G.n:
        raise ValueError(f"vector of shape {v.shape} against n={G.n}: want (n,) or (n, k)")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite entries")
    return v


def partition(out_idx, in_idx, coef, size: int) -> tuple:
    """The edge list out_idx, in_idx, coef, with out_idx < size, split stably
    by ranges of out_idx into `_parts(m)` parts of about m/k edges.

    Part j is (a, b, out_idx - a, in_idx, coef) over the edges with
    a <= out_idx < b, in their order; the ranges tile 0..size, and a range
    may hold no edge.  A single part is the arrays themselves; where out_idx
    ascends, in_idx and coef are sliced, not copied.  Every array is
    read-only.
    """
    m = out_idx.size
    k = _parts(m)
    if k == 1:
        return ((0, size, out_idx, in_idx, coef),)
    starts = np.zeros(size + 1, dtype=np.int64)  # edges into bins below i
    np.cumsum(np.bincount(out_idx, minlength=size), out=starts[1:])
    ascending = bool(np.all(out_idx[1:] >= out_idx[:-1]))
    cuts = _cuts(starts, k).tolist()
    parts = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if ascending:
            edges = slice(starts[a], starts[b])
        else:
            edges = np.flatnonzero((out_idx >= a) & (out_idx < b))
        part = (out_idx[edges] - a, in_idx[edges], coef[edges])
        for arr in part:
            arr.setflags(write=False)
        parts.append((a, b, *part))
    return tuple(parts)


def scatter(parts: tuple, v) -> np.ndarray:
    """Edge-list product: result[out_idx[e]] += coef[e] * v[in_idx[e]] over
    the edges of a `partition`, each part writing its own range.

    `v` is a vector or a batch of columns.  A batch runs column by column:
    one flattened bincount gives the same bits but measured 2-4x slower.
    """
    def run(j):
        a, b, out_idx, in_idx, coef = parts[j]
        sums = []
        for col in ([v] if v.ndim == 1 else v.T):
            weights = col[in_idx]
            np.multiply(coef, weights, out=weights)
            sums.append(np.bincount(out_idx, weights=weights, minlength=b - a))
        return sums[0] if v.ndim == 1 else np.stack(sums, axis=1)

    return _joined(_in_parts(run, len(parts)))


def apply_p(G: SignedDigraph, v) -> np.ndarray:
    """Apply the signed transition matrix: (Pv)(i) = sum_j sign*w_ij/d_i * v(j).

    Accepts a vector of shape (n,) or a batch of columns of shape (n, k).
    Rows are contiguous CSR slices, so this sums them with reduceat rather
    than `scatter`: the two add in different orders, and `scatter` here
    changes the last bits of the trajectories and summaries the CLI writes.
    """
    v = _check_input(G, v)
    coef = G.transition_coef if v.ndim == 1 else G.transition_coef[:, None]
    indptr, targets, cuts = G.indptr, G.targets, G._row_cuts

    def run(j):
        a, b = cuts[j], cuts[j + 1]
        lo, hi = indptr[a], indptr[b]
        w = v[targets[lo:hi]]
        np.multiply(coef[lo:hi], w, out=w)
        # no out=: reduceat into a given out holds the GIL
        return np.add.reduceat(w, indptr[a:b] - lo, axis=0)

    return _joined(_in_parts(run, cuts.size - 1))


def apply_p_transpose(G: SignedDigraph, v) -> np.ndarray:
    """Apply the transpose of the signed transition matrix, edge by edge."""
    return scatter(G._transpose_parts, _check_input(G, v))


def negate_signs(G: SignedDigraph) -> SignedDigraph:
    """Same topology and weights, every edge sign flipped (an involution)."""
    return SignedDigraph(
        G.n, G.indptr, G.targets, G.weights, (-G.signs).astype(np.int8), G.out_weight
    )


def graphs_equal(a: SignedDigraph, b: SignedDigraph) -> bool:
    return (
        a.n == b.n
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.targets, b.targets)
        and np.array_equal(a.weights, b.weights)
        and np.array_equal(a.signs, b.signs)
        and np.array_equal(a.out_weight, b.out_weight)
    )


def indicator(n: int, seeds) -> np.ndarray:
    """White-probability vector that is 1 on `seeds` and 0 elsewhere."""
    x = np.zeros(n)
    seeds = np.asarray(list(seeds))
    if seeds.size:
        # a cast to int64 would truncate 1.5 to node 1; bools are not ids either
        if not np.issubdtype(seeds.dtype, np.integer):
            raise ValueError(f"seed ids must be integers, got dtype {seeds.dtype}")
        if seeds.min() < 0 or seeds.max() >= n:
            raise ValueError("seed id out of range")
        x[seeds] = 1.0
    return x
