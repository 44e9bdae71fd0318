"""Signed directed graphs and the matrix-free signed transition operator.

A graph holds, per node, a list of weighted signed out-edges stored in flat
CSR-style arrays sorted by target id.  The signed transition matrix
P = D^-1 A (D = diagonal of total absolute out-weights) is never
materialized; `apply_p` and `apply_p_transpose` apply it edge by edge, which
keeps every product at O(|E|) regardless of n.

Every product reads one jagged-diagonal `Layout` per part, made once per
operator on the calling thread and cached with it: the part's rows sorted
by edge count, descending, and diagonal j the j-th edge of every row that
has more than j, stored one diagonal after the other.  Summing a row's edges
one per diagonal adds them in their order, so one NumPy add over the
leading rows of each diagonal does the work of a per-row loop without its
cost per row.  Two rules sum them, each with the bits of the NumPy call it
replaces: `scatter` (the transpose and every block of P in `structure`) that
of np.bincount, and `reduce_rows` (`apply_p`) that of np.add.reduceat over
each CSR row.  Rows of over _DIAGONAL_EDGES edges, the tail, are summed by
those calls themselves.  A layout holds 16 bytes per edge (the gathered
index and the coefficient) and 8 per row that has an edge (where its sum
is written), and a bincount-rule layout 8 more per edge (each edge's place
in the sums, which the tail reads).

A product of at least _PART_EDGES edges runs in k = min(_threads(),
m // _PART_EDGES) parts, each over a contiguous range of output nodes: part
0 on the calling thread, the others on one pool of at most _threads() - 1
worker threads, made on first use and kept for the life of the process;
`parse_snap` reads the runs of lines of a text on the same threads.
`row_partition` cuts the CSR rows into ranges of about m/k edges;
`partition` splits an edge list stably by ranges of the output index.  Each
output entry is summed over the same edges in the same order as in one
part, so the bits do not depend on k.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from .errors import DanglingNode, DuplicateEdge, MalformedLine, NonFiniteWeight, ZeroWeightEdge

_OUT_WEIGHT_RTOL = 1e-12  # relative slack of validate()'s out_weight check
_MAX_THREADS = 4  # threads of one product or one mc_run, at most
# Edges per part of a product, at least.  On a shared 2-vCPU host (NumPy
# 2.4, min of 7 x 40 calls), two parts made the 100k-edge products of
# configs/balanced.cfg slower, apply_p 0.54 -> 0.62 ms and the transpose
# 0.49 -> 0.57 ms, since handing a part over costs more than it saves; on
# an Epinions-sized graph of 1.07M edges they took apply_p 5.4-6.6 ->
# 3.2-4.3 ms and the transpose 4.9-5.8 -> 3.3-3.5 ms.
_PART_EDGES = 1 << 18
# A row of at most this many edges is summed diagonal by diagonal: its first
# term and one pairwise block of NumPy's reduce, 128 terms (see _diagonal_reduceat).
_DIAGONAL_EDGES = 129
# Products of a batch held at once by one part of a product (8 bytes each).
_BATCH_ENTRIES = 1 << 20
_MAX_NODES = math.isqrt(2**63 - 1)  # nodes, at most: the edge key src * n + dst fits int64


def _threads() -> int:
    """Threads a product or an mc_run may use: the cores this process may run on, capped."""
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


_pool = None  # the workers of products and of `_run_fields`, made on first use
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


def _offsets(count) -> np.ndarray:
    """The int64 row pointer of a local CSR whose row r holds count[r]
    entries: 0, then the running totals of count."""
    ptr = np.zeros(len(count) + 1, dtype=np.int64)
    np.cumsum(count, out=ptr[1:])
    return ptr


def _sources(indptr: np.ndarray) -> np.ndarray:
    """The source row of each entry of a local CSR, the row pointer expanded."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


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
        src = _sources(self.indptr)
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
    def _row_parts(self) -> tuple:
        """apply_p's parts (see `row_partition`)."""
        return row_partition(self.indptr, self.targets, self.transition_coef, self._row_cuts)

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
    return _build(n, src, dst, np.abs(w), _signs(w), repair_dangling)[0]


def _signs(x: np.ndarray) -> np.ndarray:
    """The int8 sign, +1 or -1, of each nonzero entry of x."""
    signs = (x > 0).view(np.int8) * np.int8(2)  # np.where takes 12 times as long
    signs -= 1
    return signs


def _build(n: int, src, dst, weights, signs, repair_dangling: bool, dedupe: bool = False,
           count=None):
    """The graph on nodes 0..n-1 with edges src -> dst of weight `weights`
    (None: every weight 1.0) and int8 sign `signs`, and the number of repair
    self-loops added.

    The inputs are trusted: ids in range, weights finite and positive, signs
    +1 or -1, arrays contiguous and owned by the graph from here on.
    `count` is np.bincount(src, minlength=n), where the caller has it.
    Edges are sorted by their key src * n + dst unless it already ascends
    strictly, which also rules out a repeated pair.  Of a repeated pair,
    `dedupe` keeps the first in input order and drops the rest; otherwise
    it raises DuplicateEdge.
    """
    if n > _MAX_NODES:  # before any n-sized array
        raise MalformedLine(f"{n} nodes: the int64 edge key allows at most {_MAX_NODES}")
    if count is None:
        count = np.bincount(src, minlength=n)
    missing = np.flatnonzero(count == 0)
    if repair_dangling and missing.size:
        src = np.concatenate([src, missing])
        dst = np.concatenate([dst, missing])
        signs = np.concatenate([signs, np.ones(missing.size, dtype=np.int8)])
        if weights is not None:
            weights = np.concatenate([weights, np.ones(missing.size)])
        count = np.maximum(count, 1)  # one self-loop for each node that had no edge
    key = src * n + dst
    if not np.all(key[1:] > key[:-1]):
        order = np.argsort(key, kind="stable")  # a repeated pair keeps its input order
        src, dst = src[order], dst[order]
        first = np.diff(key[order], prepend=-1) != 0  # the first edge of each (src, dst) pair
        if not first.all():
            if not dedupe:
                i = int(np.argmin(first))
                raise DuplicateEdge(f"duplicate edge ({src[i]}, {dst[i]})")
            order, src, dst = order[first], src[first], dst[first]
            count = np.bincount(src, minlength=n)
        signs = signs[order]
        if weights is not None:
            weights = weights[order]
    if missing.size and not repair_dangling:
        raise DanglingNode(
            f"{missing.size} node(s) without out-edges (first: {missing[:5].tolist()}); "
            "pass repair_dangling=True to add unit self-loops"
        )
    indptr = _offsets(count)  # src ascends, so each row follows the last
    if weights is None:  # a count of unit weights has np.bincount(src, weights=ones)'s bits
        weights, out_weight = np.ones(src.size), count.astype(np.float64)
    else:
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
    src, dst, sign = _run_fields(text)
    signs = _signs(sign)
    del sign
    top = int(max(src.max(), dst.max()))
    # at most 2m ids are used, so a larger top id (perhaps a huge one) is never verbatim
    verbatim = min(src.min(), dst.min()) == 0 and top < 2 * signs.size
    if verbatim:  # the ids in use are 0..top; an id with no out-edge may be a target
        count = np.bincount(src, minlength=top + 1)
        verbatim = count.all() or np.all(count + np.bincount(dst, minlength=top + 1))
    if verbatim:
        node_ids = np.arange(top + 1, dtype=np.int64)
    else:
        ends = np.stack((src, dst), axis=1).ravel()  # src and dst of each line, in file order
        ids, first, inverse = np.unique(ends, return_index=True, return_inverse=True)
        order = np.argsort(first)
        node_ids = ids[order]
        compact = np.argsort(order)  # the compact id of each sorted id
        src, dst = compact[inverse[0::2]], compact[inverse[1::2]]
        count = None
    graph, repaired = _build(node_ids.size, src, dst, None, signs, repair_dangling,
                             dedupe=True, count=count)
    # repair self-loops are positive, so every negative edge is a parsed one
    return ParsedSnap(graph, node_ids, signs.size, int(np.count_nonzero(signs < 0)),
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
    read by NumPy's C text reader in one call.  `_checked_fields` reads
    any run of lines this rejects.
    """
    raw = text.encode("utf-8", "surrogatepass")
    # a blank before the text, so every field starts after a blank, and a final newline
    buf = np.empty(len(raw) + 2, dtype=np.uint8)
    buf[0], buf[-1] = ord(" "), ord("\n")
    buf[1:-1] = np.frombuffer(raw, dtype=np.uint8)
    del raw
    if "\r" in text:
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


# Characters of a run of `_run_fields`, at least.  Each run has a fixed cost,
# partly under the GIL, on which two threads serialize.  On an Epinions-sized
# file (15.5 MB, 1.07M edges; shared 2-vCPU host, medians of 7) two threads
# read in 172 ms with runs of 64 KiB, 147 with 128 KiB, 135 with 256 KiB,
# 133 with 512 KiB and 143 with 1 MiB; one thread in 183-225 ms at each size.
_RUN_CHARS = 1 << 18


def _run_fields(text: str) -> tuple:
    r"""The src, dst and sign fields of every edge line, in file order, as
    three int64 arrays, read in runs of whole lines.

    Each run is the shortest prefix of the rest of the text that holds
    _RUN_CHARS characters or more and ends after a `\n` (or with the text).
    `_plain_fields` reads the runs in k = min(_threads(), runs) parts of
    consecutive runs, through `_in_parts`.  Then, on the calling thread and
    in file order, `_checked_fields` reads each run it rejected, so a
    non-plain line costs its run, not the text, and raises on the first bad
    line.  `str.splitlines` ends a line at each `\n`, and a cut after one
    never splits a `\r\n`, so the lines of the runs before add up to the
    number of the line a run starts on.
    """
    ends, end = [], 0
    while end < len(text):
        end = text.find("\n", end + _RUN_CHARS - 1) + 1 or len(text)
        ends.append(end)
    runs = list(pairwise([0] + ends))
    k = max(1, min(_threads(), len(runs)))
    cuts = [len(runs) * j // k for j in range(k + 1)]  # part j reads runs cuts[j]:cuts[j + 1]
    parts = _in_parts(lambda j: [_plain_fields(text[a:b]) for a, b in runs[cuts[j]:cuts[j + 1]]], k)
    pieces = [fields for part in parts for fields in part]
    lines, counted = 0, 0
    for i, (start, end) in enumerate(runs):
        if pieces[i] is None:
            run = text[start:end]
            lines += text.count("\n", counted, start)  # plain runs end their lines at \n only
            pieces[i] = _checked_fields(run, lines)
            lines += len(run.splitlines())
            counted = end
    if not any(sign.size for _, _, sign in pieces):
        raise MalformedLine("no edges in input")
    return tuple(_joined([p[c] for p in pieces]) for c in range(3))


def _checked_fields(text: str, before: int) -> tuple:
    """The src, dst and sign fields of every edge line, read line by line,
    of a text that `before` lines precede.  Runs only on what
    `_plain_fields` rejects, and raises on the first bad line."""
    fields = []
    for lineno, raw in enumerate(text.splitlines(), start=before + 1):
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


class Layout(NamedTuple):
    """One part of an edge product, writing out[a:b], in jagged-diagonal form.

    The part sums each of its rows (outputs - a) that has an edge into a
    place, its slot: first the rows with 1 to _DIAGONAL_EDGES edges, by
    edge count, descending and stable, then the tail, the rows with more
    edges, in ascending order.  Where every row has an edge, slot[r] is row
    r's slot, and the output is one gather; otherwise rows[s] is the row
    summed in slot s, the output is a scatter, and a row without edges is
    0.0.  One of slot and rows is None.  Diagonal j holds the j-th edge,
    in summation order, of each of the first rows that has more than j:
    edges diags[j]:diags[j + 1] of in_idx and coef, one per row in slot
    order.  The tail's edges follow, row by row.  A bincount-rule part
    keeps each edge's slot in out_local, and a reduceat-rule part the first
    edge of each tail row after the diagonals in tail_starts; each leaves
    the other None.  Every array is read-only.
    """

    a: int
    b: int
    out_local: np.ndarray | None
    in_idx: np.ndarray
    coef: np.ndarray
    slot: np.ndarray | None
    rows: np.ndarray | None
    diags: np.ndarray
    tail_starts: np.ndarray | None


def _stable_order(keys: np.ndarray, size: int) -> np.ndarray:
    """argsort(keys, kind="stable") for 0 <= keys < size, by stable passes
    over 16-bit digits, which NumPy sorts by radix."""
    order = keys.astype(np.uint16).argsort(kind="stable")  # the cast keeps the low digit
    shift = 16
    while size > 1 << shift:
        order = order[(keys[order] >> shift).astype(np.uint16).argsort(kind="stable")]
        shift += 16
    return order


def _layout(a: int, b: int, ptr, order, in_idx, coef, reduceat: bool) -> Layout:
    """The `Layout` of rows a..b - 1, whose edges take the places
    ptr[r - a]:ptr[r - a + 1] of the edge list, row by row, each row's in
    summation order.

    The edge at place p is edge p of in_idx and coef, or edge order[p]
    where `order` is given.  `reduceat` picks the rule the tail is kept for.
    """
    size = b - a
    deg = np.diff(ptr)
    tail = deg > _DIAGONAL_EDGES
    # the row in each slot: the rows with an edge by edge count descending, then the tail
    rows = np.flatnonzero(deg)
    by_count = np.where(tail[rows], _DIAGONAL_EDGES, _DIAGONAL_EDGES - deg[rows]).astype(np.uint8)
    rows = rows[by_count.argsort(kind="stable")]
    r0 = rows.size - int(np.count_nonzero(tail))
    # diagonal j holds the rows with more than j edges, a prefix of the slots
    longer = (r0 - np.cumsum(np.bincount(deg[rows[:r0]]))[:-1]).tolist()
    diags = _offsets(longer or [0])  # one diagonal, empty, at least
    # the place in the edge list of each edge of the layout
    place = np.empty(int(ptr[-1] - ptr[0]), dtype=np.int64)
    start = ptr[rows[:r0]]
    for j, c in enumerate(longer):
        np.add(start[:c], j, out=place[diags[j]:diags[j] + c])
    tail_deg = deg[rows[r0:]]
    place[diags[-1]:] = _ranges(ptr[rows[r0:]], tail_deg)
    if order is not None:
        place = order[place]
    tail_starts = out = None
    if reduceat:
        tail_starts = _offsets(tail_deg)[:-1]
    else:
        out = np.concatenate([np.arange(c) for c in longer]
                             + [np.repeat(np.arange(r0, rows.size), tail_deg)])
    slot = None
    if rows.size == size:  # a gather writes the output faster than a scatter
        slot = np.empty(size, dtype=np.int64)
        slot[rows] = np.arange(size)
        rows = None
    part = Layout(a, b, out, in_idx[place], coef[place], slot, rows, diags, tail_starts)
    for arr in part[2:]:
        if arr is not None:
            arr.setflags(write=False)
    return part


def partition(out_idx, in_idx, coef, size: int) -> tuple:
    """The edge list out_idx, in_idx, coef, with out_idx < size, split stably
    by ranges of out_idx into `_parts(m)` parts of about m/k edges, each a
    bincount-rule `Layout`.

    Part j covers the edges with a <= out_idx < b, in their order; the
    ranges tile 0..size, and a range may hold no edge.
    """
    starts = _offsets(np.bincount(out_idx, minlength=size))  # edges into bins below i
    ascending = bool(np.all(out_idx[1:] >= out_idx[:-1]))
    order = None if ascending else _stable_order(out_idx, size)
    return tuple(_layout(a, b, starts[a:b + 1], order, in_idx, coef, reduceat=False)
                 for a, b in pairwise(_cuts(starts, _parts(out_idx.size)).tolist()))


def row_partition(indptr, in_idx, coef, cuts: np.ndarray) -> tuple:
    """The CSR rows indptr, in_idx, coef cut at `cuts` (see `_cuts`), each
    a reduceat-rule `Layout`."""
    return tuple(_layout(a, b, indptr[a:b + 1], None, in_idx, coef, reduceat=True)
                 for a, b in pairwise(cuts.tolist()))


def _diagonal_bincount(w: np.ndarray, diags: list) -> np.ndarray:
    """bincount's sums of the diagonal rows, from 0.0 and each row's edges
    in order, made in place in w: they end up as its first diagonal."""
    acc = w[:diags[1]]
    np.add(acc, 0.0, out=acc)
    for lo, hi in zip(diags[1:-1], diags[2:]):
        head = acc[:hi - lo]
        np.add(head, w[lo:hi], out=head)
    return acc


def _diagonal_reduceat(w: np.ndarray, diags: list) -> np.ndarray:
    """reduceat's sums of the diagonal rows, made in place in w: they end up
    as its first diagonal.

    A 1-D reduceat segment is its first term plus NumPy's pairwise sum of
    the r terms after it.  For r < 8 that sum adds them in order from -0.0;
    for 8 <= r <= 128 it keeps 8 accumulators, acc[i] the sum in order of
    the terms i, i + 8, ... below 8 * (r // 8), adds them up as
    ((acc0 + acc1) + (acc2 + acc3)) + ((acc4 + acc5) + (acc6 + acc7)) and
    then adds the terms left, in order.  Rows come by edge count,
    descending, so each group of rows is a range of each diagonal.  The
    accumulators are diagonals 1 to 8; the sum of the terms after the first
    is made in diagonal 1.
    """
    count = [hi - lo for lo, hi in zip(diags[:-1], diags[1:])] + [0] * 9

    def blocked(j):  # the rows whose term j (j >= 1) goes to an accumulator
        return count[8 * ((j - 1) // 8 + 1)]

    def add(j, lo, hi, into):  # terms lo:hi of diagonal j into those of diagonal `into`
        acc = w[diags[into] + lo:diags[into] + hi]
        np.add(acc, w[diags[j] + lo:diags[j] + hi], out=acc)

    width, n8 = len(diags) - 1, count[8]
    for j in range(9, width):
        add(j, 0, blocked(j), (j - 1) % 8 + 1)
    if n8:
        acc = [w[diags[i]:diags[i] + n8] for i in range(1, 9)]
        np.add((acc[0] + acc[1]) + (acc[2] + acc[3]), (acc[4] + acc[5]) + (acc[6] + acc[7]),
               out=acc[0])
    # the terms left over; a sum from -0.0 holds its first term exactly already
    for j in range(2, width):
        if count[j] > blocked(j):
            add(j, blocked(j), count[j], 1)
    add(1, 0, count[1], 0)  # the first term plus the sum of the rest
    return w[:count[0]]


def _placed(p: Layout, sums: np.ndarray, vals: np.ndarray | None) -> np.ndarray:
    """out[a:b] from the diagonal rows' sums and `vals`, the sums of every
    slot that hold the tail's (None: no tail)."""
    if vals is None:
        vals = sums
    else:
        vals[:sums.shape[0]] = sums
    if p.slot is not None:
        return vals[p.slot]
    out = np.zeros((p.b - p.a,) + vals.shape[1:])
    out[p.rows] = vals
    return out


def _slots(p: Layout) -> int:
    return p.b - p.a if p.rows is None else p.rows.size


def _bincount_sums(p: Layout, w: np.ndarray) -> np.ndarray:
    diags = p.diags.tolist()
    t0, vals = diags[-1], None
    if t0 < w.shape[0]:
        out_local, size = p.out_local[t0:], _slots(p)
        if w.ndim == 1:
            vals = np.bincount(out_local, weights=w[t0:], minlength=size)
        else:  # bincount takes one column at a time
            vals = np.empty((size, w.shape[1]))
            for c in range(w.shape[1]):
                vals[:, c] = np.bincount(out_local, weights=w[t0:, c], minlength=size)
    return _placed(p, _diagonal_bincount(w, diags), vals)


def _reduceat_sums(p: Layout, w: np.ndarray) -> np.ndarray:
    diags = p.diags.tolist()
    t0, r0, vals = diags[-1], diags[1], None
    if t0 < w.shape[0]:
        vals = np.empty((_slots(p),) + w.shape[1:])
        vals[r0:] = np.add.reduceat(w[t0:], p.tail_starts, axis=0)
    return _placed(p, _diagonal_reduceat(w, diags), vals)


def _run_parts(sums, parts: tuple, v: np.ndarray) -> np.ndarray:
    """Every part's row sums of its edges' products coef * v[in_idx].

    A batch runs in blocks of columns, each holding at most _BATCH_ENTRIES
    products (one column, at least): every add of the sums is elementwise,
    so a column's bits do not depend on the columns beside it.
    """
    def block(p, cols):
        w = cols[p.in_idx]
        np.multiply(p.coef if cols.ndim == 1 else p.coef[:, None], w, out=w)
        return sums(p, w)

    def run(j):
        p = parts[j]
        width = max(1, _BATCH_ENTRIES // max(1, p.in_idx.size))
        if v.ndim == 1 or v.shape[1] <= width:
            return block(p, v)
        out = np.empty((p.b - p.a, v.shape[1]))
        for c in range(0, v.shape[1], width):
            out[:, c:c + width] = block(p, v[:, c:c + width])
        return out

    return _joined(_in_parts(run, len(parts)))


def scatter(parts: tuple, v) -> np.ndarray:
    """Edge-list product: result[out_idx[e]] += coef[e] * v[in_idx[e]] over
    the edges of a `partition`, with np.bincount's bits.

    `v` is a vector or a batch of columns; each column has the bits of its
    own bincount.
    """
    return _run_parts(_bincount_sums, parts, v)


def reduce_rows(parts: tuple, v) -> np.ndarray:
    """CSR product: result[i] sums coef[e] * v[in_idx[e]] over row i's edges
    of a `row_partition`, with the bits of np.add.reduceat over its slice.

    `v` is a vector or a batch of columns; each column has the bits of a
    2-D reduceat over the batch.
    """
    return _run_parts(_reduceat_sums, parts, v)


def apply_p(G: SignedDigraph, v) -> np.ndarray:
    """Apply the signed transition matrix: (Pv)(i) = sum_j sign*w_ij/d_i * v(j).

    Accepts a vector of shape (n,) or a batch of columns of shape (n, k).
    Each row is summed with the bits of np.add.reduceat over its CSR slice,
    not with `scatter`'s: the two add in different orders, and `scatter`
    here changes the last bits of the trajectories and summaries the CLI
    writes.
    """
    return reduce_rows(G._row_parts, _check_input(G, v))


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
