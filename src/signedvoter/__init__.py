"""Voter-model opinion dynamics and influence maximization on signed digraphs."""

__version__ = "0.1.0"

from . import errors
from .dynamics import (
    SteadyState,
    oscillation_amplitude,
    propagate,
    propagate_limit,
    solve_u,
    steady_state,
    step,
)
from .generate import GeneratorConfig, generate, parse_generator_config, slow_mixing
from .graph import (
    ParsedSnap,
    SignedDigraph,
    apply_p,
    apply_p_transpose,
    from_edge_list,
    graphs_equal,
    ground_vector,
    indicator,
    negate_signs,
    parse_snap,
    serialize,
)
from .maximize import (
    ContributionVector,
    SeedSet,
    brute_force_opt,
    contribution_average,
    contribution_instant,
    contribution_longterm,
    evaluate_seed_set,
    heuristic_seeds,
    oscillation_seeds,
    select_top,
    svim_l,
    svim_s,
)
from .simulate import PolarizeStats, SimStats, mc_polarize, mc_run, mc_step
from .structure import (
    BalanceClass,
    BalanceKind,
    Decomposition,
    classify_balance,
    decompose,
    is_aperiodic,
    stationary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
