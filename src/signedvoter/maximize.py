"""Influence contributions and optimal seed selection.

A node's contribution is the expected extra white mass it generates over
the no-seed (ground) run.  Contributions are additive over seed sets, so
the exact optimum for a budget k is the top-k positive entries of the
contribution vector: transpose power products give the short-term vectors,
while the long-term vector is closed-form from the sink structure (only
balanced sinks contribute; everything else is exactly zero).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    oscillation_amplitude,
    propagate,
    propagate_limit,
    solve_coupling,
    steady_state,
)
from .errors import TooLarge, WrongKind
from .graph import SignedDigraph, apply_p_transpose, indicator
from .structure import BalanceKind, decompose


@dataclass
class ContributionVector:
    """Per-node influence contributions for one objective.

    kind is 'instant', 'average' (both at horizon t) or 'longterm'.  The
    long-term vector vanishes on every non-sink node and on anti-balanced
    and strictly unbalanced sinks.
    """

    c: np.ndarray
    kind: str
    t: int | None = None


@dataclass
class SeedSet:
    """Selected seeds (sorted by node id) and the objective value they attain."""

    nodes: list
    value: float
    objective: str

    def __len__(self):
        return len(self.nodes)


def _transpose_powers(G: SignedDigraph, t: int):
    """(P^T)^t 1 and the running sum of (P^T)^k 1 over k = 0..t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    c = np.ones(G.n)
    acc = np.ones(G.n)
    for _ in range(t):
        c = apply_p_transpose(G, c)
        acc += c
    return c, acc


def contribution_instant(G: SignedDigraph, t: int) -> ContributionVector:
    """Contribution to the white count at exactly step t, via t transpose products."""
    return ContributionVector(_transpose_powers(G, t)[0], "instant", t)


def contribution_average(G: SignedDigraph, t: int) -> ContributionVector:
    """Contribution to the average white count over steps 0..t.

    A seed contributes itself at step 0, so the running sum starts at the
    all-ones vector and is normalized by t+1.
    """
    return ContributionVector(_transpose_powers(G, t)[1] / (t + 1), "average", t)


def contribution_longterm(G: SignedDigraph) -> ContributionVector:
    """Closed-form long-run contributions; zero outside balanced sinks.

    On a balanced sink with partition S the vector is the signed stationary
    distribution scaled by (1^T u_b + |S| - |Sbar|), where u_b couples the
    sink's polarized state into the non-sink nodes.  The shared
    (I_X - P_X) system is solved once for all balanced sinks.
    """
    decomp = decompose(G)
    c = np.zeros(G.n)
    balanced = [(i, sink) for i, sink in enumerate(decomp.sink_analysis)
                if sink.balance.kind is BalanceKind.BALANCED]
    if not balanced:
        return ContributionVector(c, "longterm")

    nx = decomp.non_sink.size
    ub_mass = np.zeros(len(balanced))
    if nx:
        rhs = np.stack(
            [decomp.py(i).apply(np.where(sink.balance.in_s, 1.0, -1.0)) for i, sink in balanced],
            axis=1,
        )
        ub = solve_coupling(decomp, rhs, +1)
        ub_mass = ub.sum(axis=0)
    for col, (_, sink) in enumerate(balanced):
        bal, pi = sink.balance, sink.pi
        scale = ub_mass[col] + bal.size_s - bal.size_sbar
        c[bal.nodes] = scale * np.where(bal.in_s, pi, -pi)
    return ContributionVector(c, "longterm")


def _top(ids: np.ndarray, score: np.ndarray, k: int) -> np.ndarray:
    """The first k of `ids` by descending `score` (aligned), ties to the smaller id."""
    return ids[np.lexsort((ids, -score))][:k]


def select_top(cv: ContributionVector, k: int) -> SeedSet:
    """Top min(k, #positive) nodes by contribution, ties broken by node id."""
    if k < 0:
        raise ValueError("k must be >= 0")
    c = cv.c
    positive = np.nonzero(c > 0)[0]
    chosen = _top(positive, c[positive], k)
    value = float(c[chosen].sum())
    return SeedSet(sorted(int(i) for i in chosen), value, cv.kind)


def svim_s(G: SignedDigraph, t: int, k: int, mode: str = "instant") -> SeedSet:
    """Exact short-term seed selection for the instant or average objective."""
    if mode == "instant":
        cv = contribution_instant(G, t)
    elif mode == "average":
        cv = contribution_average(G, t)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return select_top(cv, k)


def svim_l(G: SignedDigraph, k: int) -> SeedSet:
    """Exact long-term seed selection over the closed-form contributions."""
    return select_top(contribution_longterm(G), k)


def oscillation_seeds(G: SignedDigraph, k: int) -> SeedSet:
    """Seeds maximizing the oscillation amplitude of an anti-balanced sink.

    Requires the graph to be ergodic anti-balanced, or weakly connected with
    its single sink anti-balanced.  The two candidates are the top-pi nodes
    inside S and inside Sbar; the winner maximizes the signed-stationary
    alignment and the reported value is the resulting amplitude.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    decomp = decompose(G)
    if len(decomp.sinks) != 1:
        raise WrongKind("oscillation objective needs exactly one sink component")
    sink = decomp.sink_analysis[0]
    bal = sink.balance
    if bal.kind is not BalanceKind.ANTI_BALANCED:
        raise WrongKind(f"sink is {bal.kind.value}, not anti_balanced")
    z, pi = bal.nodes, sink.pi
    pihat = np.where(bal.in_s, pi, -pi)

    def candidate(side_mask) -> list:
        side = np.nonzero(side_mask)[0]
        return [int(z[j]) for j in _top(side, pi[side], k)]

    best_nodes, best_score = None, -1.0
    for nodes in (candidate(bal.in_s), candidate(~bal.in_s)):
        e = np.zeros(z.size)
        e[np.searchsorted(z, nodes)] = 1.0
        score = abs(float(pihat @ (e - 0.5)))
        if score > best_score:
            best_nodes, best_score = nodes, score
    amp = oscillation_amplitude(G, steady_state(G, indicator(G.n, best_nodes)))
    return SeedSet(sorted(best_nodes), amp, "oscillation")


_HEURISTICS = ("out_degree", "positive_out_degree", "degree_difference", "random")


def heuristic_seeds(G: SignedDigraph, k: int, kind: str, rng_seed: int | None = None) -> SeedSet:
    """Baseline selections by degree scores or uniformly at random.

    Always returns exactly min(k, n) nodes regardless of score sign; value
    is the sum of the scores of the chosen nodes (0 for 'random').
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if kind not in _HEURISTICS:
        raise ValueError(f"unknown heuristic {kind!r}")
    k = min(k, G.n)
    if kind == "random":
        rng = np.random.default_rng(rng_seed)
        chosen = rng.choice(G.n, size=k, replace=False)
        return SeedSet(sorted(int(i) for i in chosen), 0.0, "heuristic:random")
    pos = np.bincount(G.sources, weights=np.where(G.signs > 0, G.weights, 0.0), minlength=G.n)
    neg = G.out_weight - pos
    score = {
        "out_degree": G.out_weight,
        "positive_out_degree": pos,
        "degree_difference": pos - neg,
    }[kind]
    order = _top(np.arange(G.n), score, k)
    return SeedSet(sorted(int(i) for i in order), float(score[order].sum()), f"heuristic:{kind}")


def _objective_totals(G: SignedDigraph, x0: np.ndarray, objective: str, t: int | None):
    """Objective total of each column of x0, by exact propagation."""
    if objective == "instant":
        return propagate(G, x0, t)[t].sum(axis=0)
    if objective == "average":
        return propagate(G, x0, t).sum(axis=1).mean(axis=0)
    if objective == "longterm":
        even, odd, _ = propagate_limit(G, x0)
        return 0.5 * (even + odd).sum(axis=0)
    raise ValueError(f"unknown objective {objective!r}")


def evaluate_seed_set(G: SignedDigraph, nodes, objective: str, t: int | None = None) -> float:
    """Objective value of a seed set by direct propagation (no additivity used).

    The seeded and the ground (no-seed) runs propagate as two columns.
    """
    x0 = np.stack([indicator(G.n, nodes), np.zeros(G.n)], axis=1)
    totals = _objective_totals(G, x0, objective, t)
    return float(totals[0] - totals[1])


def brute_force_opt(G: SignedDigraph, objective: str, k: int, t: int | None = None) -> SeedSet:
    """Exhaustive optimum over all seed sets of size <= k (n <= 20 enforced).

    Candidate sets are evaluated by exact forward propagation batched over
    initial columns, never through per-node contributions, so this is an
    independent check of the selection rules.  Ties go to the smallest set,
    then lexicographic order within a size.
    """
    if G.n > 20:
        raise TooLarge(f"brute force gated to n <= 20, got n={G.n}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if objective in ("instant", "average") and (t is None or t < 1):
        raise ValueError("short-term objectives need t >= 1")
    sets = [()]
    for size in range(1, min(k, G.n) + 1):
        sets.extend(itertools.combinations(range(G.n), size))
    x0 = np.zeros((G.n, len(sets)))
    for j, w in enumerate(sets):
        x0[list(w), j] = 1.0

    totals = _objective_totals(G, x0, objective, t)
    values = totals - totals[0]  # column 0 is the empty set: the ground run

    best = 0
    for j in range(1, len(sets)):
        if values[j] > values[best]:
            best = j
    return SeedSet(list(sets[best]), float(values[best]), objective)
