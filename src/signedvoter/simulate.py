"""Monte Carlo realization of the signed voter model.

Every node synchronously samples one out-neighbor with probability
proportional to edge weight and copies its current color through positive
edges, the opposite color through negative edges.  Sampling uses one alias
table per node; trials run vectorized in fixed-size batches, each batch on
its own spawned RNG stream, so results are reproducible for a fixed seed
and independent of how batches would be scheduled.
"""

from dataclasses import dataclass

import numpy as np

from .graph import SignedDigraph

_BATCH = 8192  # fixed so batching (and therefore RNG usage) depends only on `trials`
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


def _sample_edges(G: SignedDigraph, tables: AliasTables, rng: np.random.Generator,
                  shape) -> np.ndarray:
    """Draw one out-edge per (trial, node) using the single-uniform alias trick."""
    y = rng.random(shape) * tables.degree
    slot = y.astype(np.int64)
    frac = y - slot
    e0 = G.indptr[:-1] + slot
    return np.where(frac < tables.accept[e0], e0, tables.alias[e0])


def _step_batch(G: SignedDigraph, tables: AliasTables, colors: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    e = _sample_edges(G, tables, rng, colors.shape)
    picked = np.take_along_axis(colors, G.targets[e], axis=1)
    return picked ^ tables.negative[e]


def mc_step(G: SignedDigraph, colors, rng: np.random.Generator) -> np.ndarray:
    """One synchronous update of a boolean color state (True = white).

    All nodes update simultaneously from the pre-update state, matching the
    exact recurrence of the propagation module.
    """
    colors = np.asarray(colors, dtype=bool)
    single = colors.ndim == 1
    if single:
        colors = colors[None, :]
    out = _step_batch(G, build_alias_tables(G), colors, rng)
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


def _batch_sizes(trials: int):
    sizes = [_BATCH] * (trials // _BATCH)
    if trials % _BATCH:
        sizes.append(trials % _BATCH)
    return sizes


def _init_colors(G: SignedDigraph, seeds, rows: int) -> np.ndarray:
    base = np.zeros(G.n, dtype=bool)
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if seeds.size:
        base[seeds] = True
    return np.broadcast_to(base, (rows, G.n)).copy()


def mc_run(G: SignedDigraph, seeds, t: int, trials: int, rng_seed: int,
           track_nodes: bool = False, partition=None) -> SimStats:
    """Run `trials` independent t-step trajectories from white-on-seeds.

    Identical arguments always produce identical statistics: trials are
    split into fixed-size batches and batch b consumes the b-th spawn of
    SeedSequence(rng_seed).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tables = build_alias_tables(G)
    sizes = _batch_sizes(trials)
    streams = np.random.SeedSequence(rng_seed).spawn(len(sizes))
    sum_w = np.zeros(t + 1)
    sum_w2 = np.zeros(t + 1)
    node_sum = np.zeros((t + 1, G.n)) if track_nodes else None
    in_s = None if partition is None else np.asarray(partition, dtype=bool)
    s_white = s_black = 0

    for size, stream in zip(sizes, streams):
        rng = np.random.default_rng(stream)
        colors = _init_colors(G, seeds, size)
        w = colors.sum(axis=1)
        sum_w[0] += w.sum()
        sum_w2[0] += np.square(w, dtype=np.float64).sum()
        if track_nodes:
            node_sum[0] += colors.sum(axis=0)
        for k in range(1, t + 1):
            colors = _step_batch(G, tables, colors, rng)
            w = colors.sum(axis=1)
            sum_w[k] += w.sum()
            sum_w2[k] += np.square(w, dtype=np.float64).sum()
            if track_nodes:
                node_sum[k] += colors.sum(axis=0)
        if in_s is not None:
            mism = (colors ^ in_s).sum(axis=1)
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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    in_s = np.asarray(partition, dtype=bool)
    tables = build_alias_tables(G)
    sizes = _batch_sizes(trials)
    streams = np.random.SeedSequence(rng_seed).spawn(len(sizes))
    batches = []
    for size, stream in zip(sizes, streams):
        batches.append([_init_colors(G, seeds, size), np.random.default_rng(stream)])

    s_white = s_black = 0
    checkpoints = []
    steps = 0
    for k in range(1, _POLARIZE_MAX_STEPS + 1):
        active = 0
        for b in batches:
            colors, rng = b
            if colors.shape[0] == 0:
                continue
            colors = _step_batch(G, tables, colors, rng)
            mism = (colors ^ in_s).sum(axis=1)
            hit_white = mism == 0
            hit_black = mism == G.n
            done = hit_white | hit_black
            if done.any():
                s_white += int(hit_white.sum())
                s_black += int(hit_black.sum())
                colors = colors[~done]
            b[0] = colors
            active += colors.shape[0]
        steps = k
        if k % _POLARIZE_CHECKPOINT_EVERY == 0 or active == 0:
            checkpoints.append((k, (s_white + s_black) / trials))
        if active == 0:
            break
    unabsorbed = trials - s_white - s_black
    return PolarizeStats(trials, steps, s_white, s_black, unabsorbed, rng_seed, checkpoints)
