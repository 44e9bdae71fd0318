"""Public error paths: each rejected argument raises its documented type with
its exact message."""

import re

import numpy as np
import pytest

import signedvoter as sv
from signedvoter.errors import InvalidConfig, MalformedLine, WrongKind

# an aperiodic 2-node sink: every node is a sink node
CYCLE = [(0, 0, 1), (0, 1, 1), (1, 0, 1)]
# a negative self-loop is anti-balanced, so its steady state oscillates
FLIP = [(0, 0, -1)]


def _cycle():
    return sv.from_edge_list(CYCLE)


def _config(**fields):
    return sv.GeneratorConfig(**{"family": "balanced", "sizes": [5, 5], **fields}).validate()


CASES = {
    "propagate-t": (lambda: sv.propagate(_cycle(), [1.0, 0.0], t=-1),
                    ValueError, "t must be >= 0"),
    # node 2 feeds the sink {0, 1}, so the graph has a non-sink node
    "solve_u-mode": (lambda: sv.solve_u(G := sv.from_edge_list(CYCLE + [(2, 0, 1), (2, 2, 1)]),
                                        sv.decompose(G), 0, np.ones(2, dtype=bool), "neutral"),
                     ValueError, "unknown mode 'neutral'"),
    "solve_u-no-non-sink": (lambda: sv.solve_u(G := _cycle(), sv.decompose(G), 0,
                                               np.ones(2, dtype=bool), "balanced"),
                            ValueError, "graph has no non-sink nodes"),
    "steady_state-2d": (lambda: sv.steady_state(_cycle(), np.ones((2, 3))),
                        ValueError, "steady_state expects a single distribution"),
    "steady_state-x-oscillating": (lambda: sv.steady_state(sv.from_edge_list(FLIP), [1.0]).x,
                                   WrongKind,
                                   "oscillating steady state has x_even/x_odd, not a single x"),
    "select_top-k": (lambda: sv.select_top(sv.contribution_longterm(_cycle()), -1),
                     ValueError, "k must be >= 0"),
    "oscillation_seeds-k": (lambda: sv.oscillation_seeds(sv.from_edge_list(FLIP), -1),
                            ValueError, "k must be >= 0"),
    "oscillation_seeds-two-sinks": (
        lambda: sv.oscillation_seeds(sv.from_edge_list([(0, 0, -1), (1, 1, -1)]), 1),
        WrongKind, "oscillation objective needs exactly one sink component"),
    "heuristic_seeds-k": (lambda: sv.heuristic_seeds(_cycle(), -1, "out_degree"),
                          ValueError, "k must be >= 0"),
    "heuristic_seeds-kind": (lambda: sv.heuristic_seeds(_cycle(), 1, "in_degree"),
                             ValueError, "unknown heuristic 'in_degree'"),
    "brute_force_opt-k": (lambda: sv.brute_force_opt(_cycle(), "longterm", -1),
                          ValueError, "k must be >= 0"),
    "brute_force_opt-t": (lambda: sv.brute_force_opt(_cycle(), "instant", 1, t=0),
                          ValueError, "short-term objectives need t >= 1"),
    "svim_s-mode": (lambda: sv.svim_s(_cycle(), 3, 1, mode="final"),
                    ValueError, "unknown mode 'final'"),
    "evaluate_seed_set-objective": (lambda: sv.evaluate_seed_set(_cycle(), [0], "total"),
                                    ValueError, "unknown objective 'total'"),
    "contribution_instant-t": (lambda: sv.contribution_instant(_cycle(), 0),
                               ValueError, "t must be >= 1"),
    "from_edge_list-empty": (lambda: sv.from_edge_list([]),
                             MalformedLine, "empty edge list"),
    "from_edge_list-negative-id": (lambda: sv.from_edge_list([(0, -1, 1)]),
                                   MalformedLine, "negative node id"),
    "apply_p-nan": (lambda: sv.apply_p(_cycle(), [np.nan, 0.0]),
                    ValueError, "non-finite entries"),
    "mc_polarize-trials": (lambda: sv.mc_polarize(_cycle(), np.array([True, True]), [0],
                                                  trials=0, rng_seed=0),
                           ValueError, "trials must be >= 1"),
    "config-line-without-equals": (
        lambda: sv.parse_generator_config("family = balanced\nsizes\n"),
        InvalidConfig, "line 2: expected 'key = value', got 'sizes'"),
    "config-bad-sizes": (lambda: sv.parse_generator_config("sizes = 5 five"),
                         InvalidConfig, "line 1: bad sizes '5 five'"),
    "config-non-integer": (lambda: sv.parse_generator_config("seed = 1.5"),
                           InvalidConfig, "line 1: seed must be an integer"),
    "GeneratorConfig-empty-sizes": (lambda: _config(sizes=[]), InvalidConfig,
                                    "sizes must be a non-empty list of positive ints"),
    "GeneratorConfig-slow_mixing-sizes": (lambda: _config(family="slow_mixing", sizes=[4, 4]),
                                          InvalidConfig,
                                          "slow_mixing takes sizes=[m] with m >= 3"),
    "GeneratorConfig-edges_per_node": (lambda: _config(edges_per_node=1), InvalidConfig,
                                       "edges_per_node must be >= 2"),
}


@pytest.mark.parametrize("case", CASES)
def test_public_error_paths_raise_their_type_and_message(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
