"""Monte Carlo realization of the signed voter model.

Every node synchronously samples one out-neighbor with probability
proportional to edge weight and copies its current color through positive
edges, the opposite color through negative edges.  Sampling uses one alias
table per node; trials run vectorized in fixed-size batches, each batch on
its own spawned RNG stream, so results are reproducible for a fixed seed
and independent of how batches would be scheduled.

A step draws a batch's uniforms in the C order of one (rows, n) draw per
step.  A float64 draw takes exactly one PCG64 output, so any row of any
step can start from a copy of the batch generator advanced to its first
draw (_seek), and results do not depend on how rows are split among the
up to _threads() worker threads.  Only mc_run splits rows among threads,
and it is tile-major: each worker takes an equal share of a batch's rows
and runs it in row tiles, at most one block of node-updates each, through
all t steps, counts them into sums of its own as it goes and returns the
sums when it is joined.  A worker owns its scratch, its two tile arrays
and its sums, so memory does not grow with the number of trials, and
workers share only read-only inputs.  With track_nodes, each worker's
sums include one (t + 1) x n count array, at most graph._MAX_THREADS of
them.
mc_step and mc_polarize step on the calling thread.  mc_polarize is
step-major, stepping a whole batch at a time in two color arrays of the
batch: it drops absorbed rows after each step, so where a row draws from
depends on how many rows earlier steps dropped.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import SignedDigraph, _threads, indicator

_BATCH = 8192  # fixed so batching (and therefore RNG usage) depends only on `trials`
_BLOCK = 1 << 18  # node-updates per block of the MC step: bounds its scratch memory
_POLARIZE_MAX_STEPS = 50_000  # mc_polarize gives up on trials still unabsorbed here
_POLARIZE_CHECKPOINT_EVERY = 64  # steps between mc_polarize's absorbed-fraction records


@dataclass
class AliasTables:
    """O(1) weighted out-neighbor sampling, one table per node, flat arrays."""

    accept: np.ndarray  # per edge-slot acceptance probability
    alias: np.ndarray   # per edge-slot fallback edge index (global)
    degree: np.ndarray  # out-degree per node
    negative: np.ndarray  # per-edge boolean sign mask


def build_alias_tables(G: SignedDigraph) -> AliasTables:
    accept = np.ones(G.n_edges)
    alias = np.arange(G.n_edges, dtype=np.int64)
    degree = np.diff(G.indptr).astype(np.int64)
    src = G.sources
    scaled = np.abs(G.transition_coef) * degree[src]
    # a node whose scaled weights are all < 1 or all >= 1 keeps the identity
    # table; Vose's pairing runs only where they straddle 1
    n_small = np.bincount(src[scaled < 1.0], minlength=G.n)
    for i in np.flatnonzero((n_small > 0) & (n_small < degree)):
        lo, hi = G.indptr[i], G.indptr[i + 1]
        k = hi - lo
        node = scaled[lo:hi].copy()
        small = [j for j in range(k) if node[j] < 1.0]
        large = [j for j in range(k) if node[j] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            accept[lo + s] = node[s]
            alias[lo + s] = lo + g
            node[g] = (node[g] + node[s]) - 1.0
            (small if node[g] < 1.0 else large).append(g)
        for j in small + large:
            accept[lo + j] = 1.0
            alias[lo + j] = lo + j
    return AliasTables(accept, alias, degree, G.signs < 0)


class _Scratch:
    """The buffers of one block of the MC step, allocated once per worker."""

    def __init__(self, rows: int, n: int, weighted: bool):
        self.rows = rows
        self.y = np.empty((rows, n))
        self.e = np.empty((rows, n), dtype=np.intp)
        self.both = np.empty((rows, 2 * n), dtype=bool)  # each row's colors, then their complement
        if weighted:
            self.slot_accept = np.empty((rows, n))
            self.slot_alias = np.empty((rows, n), dtype=np.intp)
            self.use_alias = np.empty((rows, n), dtype=bool)


def _seek(bits: np.random.PCG64, state: dict, row: int, n: int) -> None:
    """Set `bits` to where a PCG64 in `state` stands after `row` rows of n
    float64 draws: `state` advanced by row * n outputs.  advance() drops a
    buffered 32-bit value, which the float64 draws of walk neither use nor
    change."""
    bits.state = state
    bits.advance(row * n)


class _Stepper:
    """The synchronous MC step of one graph, run over rows in row blocks.

    A block holds about _BLOCK node-updates in whole rows, and its scratch
    arrays are allocated once per worker.  Its uniforms are drawn in place,
    in the C order of a single rng.random((rows, n)) draw, so a batch
    consumes the same stream whatever the block size, and a step allocates
    nothing of size rows x n.  Each uniform u picks slot floor(u * degree)
    of its node's out-edges; on weighted tables the slot's alias is taken
    when the fraction left over reaches the slot's accept probability.
    The new color is then one gather: each row's colors are copied into
    the worker's `both` buffer followed by their complement, and an edge
    reads position target there, or target + n when it is negative.

    A step (__call__) runs on the calling thread.  Inside a `with` block,
    up to _threads() workers share a walk, each with its own block of
    scratch, and a worker's rows draw from a copy of the generator moved to
    their first draw (_seek).  A walk splits its rows evenly among the
    workers, so no worker runs more than ceil(rows / workers) of them.  The
    worker threads end with the `with` block; when it ends in an exception,
    the workers of a walk stop at their next tile-step instead of finishing
    their share.
    """

    def __init__(self, G: SignedDigraph, tables: AliasTables):
        rows = max(1, _BLOCK // G.n)
        self.rows = rows
        self.n = G.n
        self.degree = tables.degree.astype(np.float64)
        self.starts = G.indptr[:-1]
        # where each edge reads in a row of `both`
        self.source = (G.targets + G.n * tables.negative).astype(np.intp)
        self.offsets = np.arange(rows)[:, None] * (2 * G.n)  # row starts of a flat `both` block
        # None on unit-weight tables: with every accept at 1.0 the fraction
        # left over always falls below it, and the slot is the edge
        self.tables = None if np.all(tables.accept == 1.0) else tables
        self.scratch = []
        self.threads, self.pool = 1, None
        self.stop = threading.Event()

    def _buffers(self, workers: int) -> list:
        """One block of scratch for each of `workers` workers.  No tile holds
        more than ceil(_BATCH / threads) rows, so neither does a block."""
        rows = min(self.rows, -(-_BATCH // self.threads))
        while len(self.scratch) < workers:
            self.scratch.append(_Scratch(rows, self.n, self.tables is not None))
        return self.scratch

    def __enter__(self):
        self.threads = _threads()
        self.stop.clear()
        if self.threads > 1:
            self.pool = ThreadPoolExecutor(self.threads - 1)
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:
            self.stop.set()  # no result will be read: the workers may end early
        if self.pool is not None:
            self.pool.shutdown(wait=True)  # joins every worker thread
        self.threads, self.pool = 1, None

    def __call__(self, colors: np.ndarray, rng: np.random.Generator,
                 out: np.ndarray) -> np.ndarray:
        """Write the step of C-contiguous boolean `colors` into `out`; `rng`
        ends where one rng.random(colors.shape) draw leaves it."""
        self._run(self._buffers(1)[0], colors, rng, out)
        return out

    def walk(self, rng: np.random.Generator, size: int, initial: np.ndarray, t: int,
             track_nodes: bool, in_s) -> list:
        """Run `size` trials from the `initial` colors through t steps, tile
        by tile, drawing what stepping all of them at once with `rng`, a
        PCG64 generator, would draw, and return each worker's sums.

        Worker w takes rows cuts[w]:cuts[w + 1], an equal share of at most
        ceil(size / workers) rows, so a batch of fewer blocks than threads
        still uses every thread and no worker waits on another's extra
        tile.  It runs its share in tiles of at most one block each through
        all t steps in two tile arrays of its own.  At step k, the tile of
        rows a:b draws from `rng` moved past k - 1 whole steps and a rows,
        where the step of all `size` rows draws them.  A worker's sums are
        its rows' white counts per step (k = 0: the start state) and their
        squares, as Python ints; per step and node, its white counts when
        `track_nodes` is set, in one (t + 1) x n array; and, when `in_s` is
        given, how many of its rows end exactly S white and exactly S black.
        """
        workers = min(self.threads, size)
        cuts = [w * size // workers for w in range(workers + 1)]
        rows = min(self.rows, -(-size // workers))
        scratch = self._buffers(workers)
        start = rng.bit_generator.state

        def run(w: int) -> tuple | None:
            buf = scratch[w]
            jumped = np.random.Generator(np.random.PCG64())
            pair = np.empty((2, rows, self.n), dtype=bool)
            white, squares = [0] * (t + 1), [0] * (t + 1)
            nodes = np.zeros((t + 1, self.n), dtype=np.int64) if track_nodes else None
            s_white = s_black = 0
            end = cuts[w + 1]
            for a in range(cuts[w], end, rows):
                colors, spare = pair[:, :min(rows, end - a)]
                colors[:] = initial
                for k in range(t + 1):
                    if k:
                        if self.stop.is_set():
                            return None
                        _seek(jumped.bit_generator, start, (k - 1) * size + a, self.n)
                        self._run(buf, colors, jumped, spare)
                        colors, spare = spare, colors
                    # a row count is at most n, and a uint32 sum of booleans
                    # runs twice as fast as an int64 one; w @ w needs int64
                    # on every platform, past 2**31 on one block of a
                    # 9,500-node graph
                    w_k = colors.sum(axis=1, dtype=np.uint32).astype(np.int64)
                    white[k] += int(w_k.sum())
                    squares[k] += int(w_k @ w_k)
                    if nodes is not None:
                        nodes[k] += colors.sum(axis=0)
                if in_s is not None:
                    hit_white, hit_black = _polarized(colors, in_s, spare)
                    s_white += int(hit_white.sum())
                    s_black += int(hit_black.sum())
            return white, squares, nodes, s_white, s_black

        jobs = [self.pool.submit(run, w) for w in range(1, workers)]
        # on a failure, __exit__ stops the other workers and waits for them
        return [run(0)] + [job.result() for job in jobs]

    def _run(self, buf: _Scratch, colors: np.ndarray, rng: np.random.Generator,
             out: np.ndarray) -> None:
        """Step `colors` into `out` block by block in the buffers of `buf`."""
        # take(out=) copies through a temporary under mode="raise"; every
        # index here is in range by construction, so "clip" never clips
        n = self.n
        for r0 in range(0, colors.shape[0], buf.rows):
            old = colors[r0:r0 + buf.rows]
            r = old.shape[0]
            y, e, both = buf.y[:r], buf.e[:r], buf.both[:r]
            rng.random(out=y)
            y *= self.degree
            np.copyto(e, y, casting="unsafe")  # truncation, as astype
            if self.tables is not None:
                y -= e  # the fraction left over
                e += self.starts
                np.take(self.tables.accept, e, out=buf.slot_accept[:r], mode="clip")
                np.greater_equal(y, buf.slot_accept[:r], out=buf.use_alias[:r])
                np.take(self.tables.alias, e, out=buf.slot_alias[:r], mode="clip")
                np.copyto(e, buf.slot_alias[:r], where=buf.use_alias[:r])
            else:
                e += self.starts
            # take reads each index before it writes that slot, so e can
            # turn from edge ids into positions in place
            np.take(self.source, e, out=e, mode="clip")
            e += self.offsets[:r]
            both[:, :n] = old
            np.logical_not(old, out=both[:, n:])
            np.take(both.ravel(), e, out=out[r0:r0 + r], mode="clip")


def mc_step(G: SignedDigraph, colors, rng: np.random.Generator) -> np.ndarray:
    """One synchronous update of a boolean color state (True = white).

    All nodes update simultaneously from the pre-update state, matching the
    exact recurrence of the propagation module.
    """
    colors = np.ascontiguousarray(colors, dtype=bool)
    single = colors.ndim == 1
    if single:
        colors = colors[None, :]
    out = _Stepper(G, build_alias_tables(G))(colors, rng, np.empty_like(colors))
    return out[0] if single else out


@dataclass
class SimStats:
    """Per-step white-count statistics over independent trials.

    mean/stderr have length steps+1 (step 0 is the initial state).
    node_freq, when tracked, holds per-node white frequencies per step.
    Polarization counters are filled only when a partition is supplied:
    s_white counts trials that ended with exactly S white, s_black the
    mirror state.
    """

    steps: int
    trials: int
    rng_seed: int
    mean: np.ndarray
    stderr: np.ndarray
    node_freq: np.ndarray | None = None
    s_white: int | None = None
    s_black: int | None = None


def _streams(trials: int, rng_seed: int):
    """Each batch's size and generator, in batch order.

    Batch b holds up to _BATCH trials and draws from the b-th spawn of
    SeedSequence(rng_seed), spawned when the batch starts: successive
    spawn(1) calls give the children of one spawn(k).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    root = np.random.SeedSequence(rng_seed)
    return ((min(_BATCH, trials - start), np.random.default_rng(root.spawn(1)[0]))
            for start in range(0, trials, _BATCH))


def _batches(G: SignedDigraph, seeds, trials: int, rng_seed: int):
    """Yield each batch's generator (see _streams) and its two color arrays,
    the first set to the start state: white on `seeds`, black elsewhere.
    Every batch reuses the same pair of arrays."""
    streams = _streams(trials, rng_seed)
    initial = indicator(G.n, seeds) > 0
    pair = np.empty((2, min(trials, _BATCH), G.n), dtype=bool)
    for size, rng in streams:
        colors, spare = pair[0, :size], pair[1, :size]
        colors[:] = initial
        yield rng, colors, spare


def _partition_mask(G: SignedDigraph, partition) -> np.ndarray:
    """`partition` as a boolean mask of the n nodes."""
    in_s = np.asarray(partition, dtype=bool)
    if in_s.shape != (G.n,):
        raise ValueError(f"partition must have n = {G.n} entries, got {in_s.size}")
    return in_s


def _polarized(colors: np.ndarray, in_s: np.ndarray, scratch: np.ndarray):
    """Masks of the rows that are exactly S white and of those exactly S black."""
    mism = np.not_equal(colors, in_s, out=scratch).sum(axis=1)
    return mism == 0, mism == colors.shape[1]


def mc_run(G: SignedDigraph, seeds, t: int, trials: int, rng_seed: int,
           track_nodes: bool = False, partition=None) -> SimStats:
    """Run `trials` independent t-step trajectories from white-on-seeds.

    Identical arguments always produce identical statistics: trials are
    split into fixed-size batches and batch b consumes the b-th spawn of
    SeedSequence(rng_seed), each step of a batch drawing as one
    rng.random((rows, n)) call, whatever the thread count.  Each batch's
    white counts and their squares are summed exactly, as integers, and
    added to the float64 totals once per batch and step; that equals a
    float64 sum over the batch's rows whenever batch rows * n**2 < 2**53,
    that is n below about 1.05M at 8,192 rows.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    in_s = None if partition is None else _partition_mask(G, partition)
    streams = _streams(trials, rng_seed)
    initial = indicator(G.n, seeds) > 0
    sum_w, sum_w2 = np.zeros(t + 1), np.zeros(t + 1)
    node_sum = np.zeros((t + 1, G.n), dtype=np.int64) if track_nodes else None
    s_white = s_black = 0
    with _Stepper(G, build_alias_tables(G)) as step:
        for size, rng in streams:
            white, squares, nodes, hits_white, hits_black = zip(
                *step.walk(rng, size, initial, t, track_nodes, in_s))
            # per step, the workers' exact ints first, then one float64 conversion
            sum_w += np.array([sum(at_k) for at_k in zip(*white)], dtype=np.float64)
            sum_w2 += np.array([sum(at_k) for at_k in zip(*squares)], dtype=np.float64)
            if track_nodes:
                node_sum += sum(nodes)
            s_white += sum(hits_white)
            s_black += sum(hits_black)

    mean = sum_w / trials
    if trials > 1:
        var = np.maximum(sum_w2 - sum_w**2 / trials, 0.0) / (trials - 1)
        stderr = np.sqrt(var / trials)
    else:
        stderr = np.zeros(t + 1)
    freq = node_sum / trials if track_nodes else None
    return SimStats(t, trials, rng_seed, mean, stderr, freq,
                    s_white if in_s is not None else None,
                    s_black if in_s is not None else None)


@dataclass
class PolarizeStats:
    """Outcome of running trials until absorption in a polarized state.

    The two polarized states of a balanced graph are absorbing, so absorbed
    trials are frozen and removed from simulation; counts stay exact.
    checkpoints holds (step, polarized_fraction) pairs and is
    non-decreasing in the fraction.
    """

    trials: int
    steps: int
    s_white: int
    s_black: int
    unabsorbed: int
    rng_seed: int
    checkpoints: list

    @property
    def polarized_fraction(self) -> float:
        return (self.s_white + self.s_black) / self.trials


def mc_polarize(G: SignedDigraph, partition, seeds, trials: int, rng_seed: int) -> PolarizeStats:
    """Run trials on a balanced graph until every one reaches a polarized state.

    `partition` is the boolean S-side mask of the balanced graph.  In a
    polarized state every node deterministically keeps its color, so a trial
    that matches the partition (or its complement) exactly is finished.
    """
    in_s = _partition_mask(G, partition)
    absorbed = np.zeros(_POLARIZE_MAX_STEPS + 1, dtype=np.int64)  # per step, over all batches
    s_white = s_black = steps = 0
    step = _Stepper(G, build_alias_tables(G))
    for rng, colors, spare in _batches(G, seeds, trials, rng_seed):
        # a batch draws only from its own stream, so running each batch to
        # absorption in turn draws what stepping all batches together would
        k = 0
        while colors.shape[0] and k < _POLARIZE_MAX_STEPS:
            k += 1
            colors, spare = step(colors, rng, spare), colors
            hit_white, hit_black = _polarized(colors, in_s, spare)
            done = hit_white | hit_black
            if done.any():
                s_white += int(hit_white.sum())
                s_black += int(hit_black.sum())
                absorbed[k] += int(done.sum())
                live = np.flatnonzero(~done)
                colors, spare = (np.take(colors, live, axis=0, out=spare[:live.size],
                                         mode="clip"),
                                 colors[:live.size])
        steps = max(steps, k)
    total = np.cumsum(absorbed[:steps + 1])
    ks = np.arange(1, steps + 1)
    ks = ks[(ks % _POLARIZE_CHECKPOINT_EVERY == 0) | (total[1:] == trials)]
    checkpoints = [(int(k), int(total[k]) / trials) for k in ks]
    unabsorbed = trials - s_white - s_black
    return PolarizeStats(trials, steps, s_white, s_black, unabsorbed, rng_seed, checkpoints)
