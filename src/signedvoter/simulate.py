"""Monte Carlo realization of the signed voter model.

Every node synchronously samples one out-neighbor with probability
proportional to edge weight and copies its current color through positive
edges, the opposite color through negative edges.  Sampling uses one alias
table per node; trials run vectorized in fixed-size batches, each batch on
its own spawned RNG stream, so results are reproducible for a fixed seed
and independent of how batches would be scheduled.  A step walks its batch
in blocks of a fixed number of node-updates, reusing one set of block
buffers, and writes into a second color array: mc_run and mc_polarize
hold two color arrays of one batch plus one block.
"""

from dataclasses import dataclass

import numpy as np

from .graph import SignedDigraph, indicator

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


class _Stepper:
    """The synchronous MC step of one graph, run over a batch in row blocks.

    A block holds about _BLOCK node-updates in whole rows, and all of its
    scratch arrays are allocated once.  Its uniforms are drawn in place, in
    the C order of a single rng.random((rows, n)) draw, so a batch consumes
    the same stream whatever the block size, and a step allocates nothing
    of size rows x n.  Each uniform u picks slot floor(u * degree) of its
    node's out-edges; on weighted tables the slot's alias is taken when
    the fraction left over reaches the slot's accept probability.
    """

    def __init__(self, G: SignedDigraph, tables: AliasTables):
        rows = max(1, _BLOCK // G.n)
        self.rows = rows
        self.degree = tables.degree.astype(np.float64)
        self.starts = G.indptr[:-1]
        # target << 1 | negative: one gather gives both the node and the sign
        dtype = np.int32 if G.n < 2**30 else np.int64
        self.signed = (G.targets.astype(dtype) << 1) | tables.negative
        self.offsets = np.arange(rows)[:, None] * G.n  # row starts of a flat block
        self.y = np.empty((rows, G.n))
        self.e = np.empty((rows, G.n), dtype=np.intp)
        self.s = np.empty((rows, G.n), dtype=dtype)
        # None on unit-weight tables: with every accept at 1.0 the fraction
        # left over always falls below it, and the slot is the edge
        self.tables = None if np.all(tables.accept == 1.0) else tables
        if self.tables is not None:
            self.slot_accept = np.empty((rows, G.n))
            self.slot_alias = np.empty((rows, G.n), dtype=np.intp)
            self.use_alias = np.empty((rows, G.n), dtype=bool)

    def __call__(self, colors: np.ndarray, rng: np.random.Generator,
                 out: np.ndarray) -> np.ndarray:
        """Write the step of C-contiguous boolean `colors` into `out`."""
        # take(out=) copies through a temporary under mode="raise"; every
        # index here is in range by construction, so "clip" never clips
        for r0 in range(0, colors.shape[0], self.rows):
            old = colors[r0:r0 + self.rows]
            r = old.shape[0]
            y, e, s = self.y[:r], self.e[:r], self.s[:r]
            rng.random(out=y)
            y *= self.degree
            np.copyto(e, y, casting="unsafe")  # truncation, as astype
            if self.tables is not None:
                y -= e  # the fraction left over
                e += self.starts
                np.take(self.tables.accept, e, out=self.slot_accept[:r], mode="clip")
                np.greater_equal(y, self.slot_accept[:r], out=self.use_alias[:r])
                np.take(self.tables.alias, e, out=self.slot_alias[:r], mode="clip")
                np.copyto(e, self.slot_alias[:r], where=self.use_alias[:r])
            else:
                e += self.starts
            np.take(self.signed, e, out=s, mode="clip")
            np.right_shift(s, 1, out=e)
            e += self.offsets[:r]
            new = out[r0:r0 + r]
            np.take(old.ravel(), e, out=new, mode="clip")
            s &= 1
            np.not_equal(new, s, out=new)  # XOR with the sign bit
        return out


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


def _batches(G: SignedDigraph, seeds, trials: int, rng_seed: int):
    """Yield each batch's generator and its two color arrays, the first set
    to the start state: white on `seeds`, black elsewhere.

    Batch b holds up to _BATCH trials and draws from the b-th spawn of
    SeedSequence(rng_seed).  Every batch reuses the same pair of arrays.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    initial = indicator(G.n, seeds) > 0
    sizes = [_BATCH] * (trials // _BATCH)
    if trials % _BATCH:
        sizes.append(trials % _BATCH)
    pair = np.empty((2, sizes[0], G.n), dtype=bool)
    for size, stream in zip(sizes, np.random.SeedSequence(rng_seed).spawn(len(sizes))):
        colors, spare = pair[0, :size], pair[1, :size]
        colors[:] = initial
        yield np.random.default_rng(stream), colors, spare


def mc_run(G: SignedDigraph, seeds, t: int, trials: int, rng_seed: int,
           track_nodes: bool = False, partition=None) -> SimStats:
    """Run `trials` independent t-step trajectories from white-on-seeds.

    Identical arguments always produce identical statistics: trials are
    split into fixed-size batches and batch b consumes the b-th spawn of
    SeedSequence(rng_seed).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    step = _Stepper(G, build_alias_tables(G))
    sum_w = np.zeros(t + 1)
    sum_w2 = np.zeros(t + 1)
    node_sum = np.zeros((t + 1, G.n)) if track_nodes else None
    in_s = None if partition is None else np.asarray(partition, dtype=bool)
    s_white = s_black = 0
    for rng, colors, spare in _batches(G, seeds, trials, rng_seed):
        for k in range(t + 1):
            if k:
                colors, spare = step(colors, rng, spare), colors
            w = colors.sum(axis=1)
            sum_w[k] += w.sum()
            sum_w2[k] += np.square(w, dtype=np.float64).sum()
            if track_nodes:
                node_sum[k] += colors.sum(axis=0)
        if in_s is not None:
            mism = np.not_equal(colors, in_s, out=spare).sum(axis=1)
            s_white += int((mism == 0).sum())
            s_black += int((mism == G.n).sum())

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
    in_s = np.asarray(partition, dtype=bool)
    step = _Stepper(G, build_alias_tables(G))
    absorbed = np.zeros(_POLARIZE_MAX_STEPS + 1, dtype=np.int64)  # per step, over all batches
    s_white = s_black = steps = 0
    for rng, colors, spare in _batches(G, seeds, trials, rng_seed):
        # a batch draws only from its own stream, so running each batch to
        # absorption in turn draws what stepping all batches together would
        k = 0
        while colors.shape[0] and k < _POLARIZE_MAX_STEPS:
            k += 1
            colors, spare = step(colors, rng, spare), colors
            mism = np.not_equal(colors, in_s, out=spare).sum(axis=1)
            hit_white = mism == 0
            hit_black = mism == G.n
            done = hit_white | hit_black
            if done.any():
                s_white += int(hit_white.sum())
                s_black += int(hit_black.sum())
                absorbed[k] += int(done.sum())
                live = np.flatnonzero(~done)
                colors, spare = (np.take(colors, live, axis=0, out=spare[:live.size], mode="clip"),
                                 colors[:live.size])
        steps = max(steps, k)
    total = np.cumsum(absorbed[:steps + 1])
    ks = np.arange(1, steps + 1)
    ks = ks[(ks % _POLARIZE_CHECKPOINT_EVERY == 0) | (total[1:] == trials)]
    checkpoints = [(int(k), int(total[k]) / trials) for k in ks]
    unabsorbed = trials - s_white - s_black
    return PolarizeStats(trials, steps, s_white, s_black, unabsorbed, rng_seed, checkpoints)
