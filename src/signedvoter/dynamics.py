"""Exact short-term propagation and closed-form long-term steady states.

The white-probability vector evolves as x' = P x + g, where P is the signed
transition matrix and g the per-node negative-out-edge fraction.  Long-term
behavior is governed by the ergodic sink components: balanced sinks polarize,
anti-balanced sinks oscillate between the two polarized states, strictly
unbalanced sinks forget the initial condition entirely and settle at 1/2.
Non-sink nodes sit at 1/2 plus one coupling term per balanced/anti-balanced
sink, transmitted through u = (I_X -/+ P_X)^-1 P_Y s, where s is the signed
partition indicator of that sink.

Every exact trajectory steps through one iterator that validates x0 once.
Only public `propagate` holds a whole one, (t+1) x n floats, and nothing in
the package calls it: the limit, the CLI and the objectives hold a few rows.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import LeftUnitInterval, NoConvergence, SlowMixing, WrongKind
from .graph import SignedDigraph, apply_p
from .structure import _DENSE_SOLVE_NODES, BalanceKind, Decomposition, decompose

# Violations of [0, 1] beyond this are a bug in the graph invariants, not
# roundoff, and raise instead of being clamped away.
_CLAMP_SLACK = 1e-12
_COUPLING_TOL = 1e-12  # change that stops the coupling series


def _validated(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"distribution of shape {x.shape} against n={n}: want (n,) or (n, k)")
    # written so that a NaN, which fails every comparison, fails the test
    if x.size and not (x.min() >= -_CLAMP_SLACK and x.max() <= 1.0 + _CLAMP_SLACK):
        if not np.isfinite(x).all():
            raise ValueError("color distribution entries must be finite")
        raise ValueError("color distribution entries outside [0, 1]")
    return np.clip(x, 0.0, 1.0)


def step(G: SignedDigraph, x) -> np.ndarray:
    """One synchronous update of the white-probability vector: P x + g.

    Each entry is a convex combination of v and 1-v values, so the result
    stays in [0, 1] up to roundoff; it is asserted and clamped.
    """
    return _step(G, _validated(x, G.n))


def _step(G: SignedDigraph, x: np.ndarray) -> np.ndarray:
    """`step` on a validated float64 x: its own rows need no second check."""
    g = G.ground if x.ndim == 1 else G.ground[:, None]
    y = apply_p(G, x)
    y += g
    lo, hi = y.min(), y.max()
    if lo < -_CLAMP_SLACK or hi > 1.0 + _CLAMP_SLACK:
        raise LeftUnitInterval(f"propagated distribution escaped [0,1] by {max(-lo, hi - 1.0):.3e}")
    return np.clip(y, 0.0, 1.0, out=y)


def _trajectory(G: SignedDigraph, x0):
    """x0, validated once, then each step of x' = P x + g, without end."""
    x = _validated(x0, G.n)
    while True:
        yield x
        x = _step(G, x)


def propagate(G: SignedDigraph, x0, t: int) -> np.ndarray:
    """Exact trajectory of length t+1; row k is the distribution at step k."""
    if t < 0:
        raise ValueError("t must be >= 0")
    rows = _trajectory(G, x0)
    x = next(rows)
    out = np.empty((t + 1,) + x.shape)
    out[0] = x
    for k in range(1, t + 1):
        out[k] = next(rows)
    return out


def propagate_limit(G: SignedDigraph, x0, tol: float = 1e-9, max_steps: int = 10**6):
    """Iterate until same-parity change is below tol; returns (x_even, x_odd, steps).

    Comparing steps of equal parity lets oscillating graphs terminate too.
    Convergence can be exponentially slow on adversarial graphs, so the step
    cap raises SlowMixing instead of spinning.  Accepts a batch of initial
    columns of shape (n, k); the convergence test is then over all columns.
    """
    rows = _trajectory(G, x0)
    even, odd = next(rows), next(rows)
    for steps in range(3, max_steps + 2, 2):
        last_even, last_odd = even, odd
        even, odd = next(rows), next(rows)
        if max(np.abs(even - last_even).max(), np.abs(odd - last_odd).max()) <= tol:
            return even, odd, steps
    raise SlowMixing(f"no same-parity convergence within {max_steps} steps")


def _series_cap(k: int) -> int:
    return 500 + 10 * k


def solve_coupling(decomp: Decomposition, rhs: np.ndarray, op_sign: int) -> np.ndarray:
    """Solve (I_X - op_sign * P_X) u = rhs by the convergent series iteration.

    P_X^t -> 0 because every non-sink node leaks probability into some sink,
    so u <- rhs + op_sign * P_X u converges; on cap hit a direct dense solve
    takes over for |X| <= _DENSE_SOLVE_NODES.  rhs may carry multiple columns.
    """
    px = decomp.px()
    nx = decomp.non_sink.size
    u = rhs.astype(np.float64, copy=True)
    for _ in range(_series_cap(nx)):
        nxt = rhs + op_sign * px.apply(u)
        delta = np.abs(nxt - u).max()
        u = nxt
        if delta <= _COUPLING_TOL:
            return u
    if nx <= _DENSE_SOLVE_NODES:
        return np.linalg.solve(np.eye(nx) - op_sign * px.dense(), rhs)
    raise NoConvergence(f"coupling series did not converge on |X|={nx}")


def solve_u(G: SignedDigraph, decomp: Decomposition, sink: int, in_s: np.ndarray,
            mode: str) -> np.ndarray:
    """Coupling vector from sink `sink` into the non-sink nodes.

    mode 'balanced' solves (I_X - P_X) u = P_Y s, mode 'anti_balanced'
    solves (I_X + P_X) u = P_Y s, with s = +1 on S and -1 on the rest of
    the sink's nodes.
    """
    if mode not in ("balanced", "anti_balanced"):
        raise ValueError(f"unknown mode {mode!r}")
    if decomp.non_sink.size == 0:
        raise ValueError("graph has no non-sink nodes")
    s = np.where(np.asarray(in_s, dtype=bool), 1.0, -1.0)
    rhs = decomp.py(sink).apply(s)
    return solve_coupling(decomp, rhs, +1 if mode == "balanced" else -1)


@dataclass
class SteadyState:
    """Limit of the dynamics: kind is 'fixed', 'oscillating' or 'uniform_half'.

    For fixed kinds x_even == x_odd; oscillating graphs alternate between
    the two.  `average` is the long-run mean, which exists in every case.
    `sinks` holds the shared ComponentAnalysis of every sink, in the
    decomposition's order, and `alignment` the inner product of each sink's
    signed stationary law with (x0 - 1/2) on its nodes (0.0 on a strictly
    unbalanced sink, whose limit does not depend on x0).  It holds its
    graph, which the analyses in `sinks` hold only weakly, so they stay
    usable (a sink's `pi` included) for as long as the steady state.
    """

    kind: str
    x_even: np.ndarray
    x_odd: np.ndarray
    sinks: list
    non_sink: np.ndarray
    alignment: list
    graph: SignedDigraph = field(repr=False, compare=False)

    @property
    def x(self) -> np.ndarray:
        if self.kind == "oscillating":
            raise WrongKind("oscillating steady state has x_even/x_odd, not a single x")
        return self.x_even

    @property
    def average(self) -> np.ndarray:
        return 0.5 * (self.x_even + self.x_odd)


def steady_state(G: SignedDigraph, x0) -> SteadyState:
    """Closed-form limit of the dynamics started from x0.

    Every sink component must be ergodic (PeriodicComponent otherwise).
    Per sink: balanced sinks polarize along their partition with weight
    given by the alignment; strictly unbalanced sinks go to 1/2; an
    anti-balanced sink alternates between the two polarized limits.  Every
    non-sink node sits at 1/2 plus the superposed coupling terms of all
    balanced and anti-balanced sinks.  The sink analysis comes from the
    graph's cached decomposition; a strictly unbalanced sink's stationary
    law is never computed.
    """
    x0 = _validated(x0, G.n)
    if x0.ndim != 1:
        raise ValueError("steady_state expects a single distribution")
    decomp = decompose(G)
    x_even = np.full(G.n, 0.5)
    x_odd = np.full(G.n, 0.5)
    xs = decomp.non_sink
    alignment = []
    oscillating = False
    for i, sink in enumerate(decomp.sink_analysis):
        bal = sink.balance
        if bal.kind is BalanceKind.STRICTLY_UNBALANCED:
            alignment.append(0.0)
            continue
        # an anti-balanced sink inverts its own nodes on odd steps and its
        # coupling term on even steps
        anti = bal.kind is BalanceKind.ANTI_BALANCED
        oscillating |= anti
        z = bal.nodes
        align = sink.alignment(x0)
        alignment.append(align)
        xz = bal.signs * align + 0.5
        x_even[z] = xz
        x_odd[z] = 1.0 - xz if anti else xz
        if xs.size:
            term = solve_u(G, decomp, i, bal.in_s, bal.kind.value) * align
            x_even[xs] += -term if anti else term
            x_odd[xs] += term

    # slack scales with the coupling-solver tolerance, not bare roundoff:
    # several iterative solves superpose on the non-sink nodes
    for arr in (x_even, x_odd):
        lo, hi = arr.min(), arr.max()
        if lo < -1e-9 or hi > 1.0 + 1e-9:
            raise LeftUnitInterval(f"steady state escaped [0,1] by {max(-lo, hi - 1.0):.3e}")
        np.clip(arr, 0.0, 1.0, out=arr)

    if oscillating:
        kind = "oscillating"
    elif np.abs(x_even - 0.5).max() <= _CLAMP_SLACK:
        kind = "uniform_half"
    else:
        kind = "fixed"
    return SteadyState(kind, x_even, x_odd, list(decomp.sink_analysis), xs, alignment, G)


def oscillation_amplitude(G: SignedDigraph, steady: SteadyState) -> float:
    """Half the gap between odd- and even-step total white expectations."""
    if steady.kind != "oscillating":
        raise WrongKind(f"steady state of kind {steady.kind!r} does not oscillate")
    return abs(steady.x_odd.sum() - steady.x_even.sum()) / 2.0
