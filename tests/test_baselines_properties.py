"""Property test of SMC's normalizing-constant estimate on random small graphs.

SMC's estimate of Z (exp of log_z_estimate) is unbiased, with and without
resampling: over many run seeds its mean must lie within 4 standard errors
of the exact Z. Graphs have up to 4 variables of up to 3 states, random extra
factors and a shuffled depth ordering.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treesample.baselines import smc
from treesample.exact import solve_exact
from treesample.prior import HeuristicPrior

from conftest import make_random_graph

NUM_RUNS = 150

graphs = st.fixed_dictionaries({
    "graph_seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 4),
    "k": st.integers(2, 3),
    "extra_factors": st.integers(0, 3),
    "particles": st.integers(4, 12),
})


@settings(max_examples=25, deadline=None, derandomize=True)
@given(graphs)
def test_smc_z_estimate_is_unbiased(p):
    rng = np.random.default_rng(p["graph_seed"])
    extra = p["extra_factors"] if p["n"] > 1 else 0  # extra factors span 2+ variables
    graph = make_random_graph(rng, p["n"], p["k"], num_extra_factors=extra, shuffle_ordering=True)
    z = math.exp(solve_exact(graph).log_z)
    budget = p["particles"] * graph.num_variables
    for threshold in (0.0, 0.6):
        estimates = np.array([
            math.exp(smc(graph, HeuristicPrior(), budget, resample_threshold=threshold,
                         seed=s).log_z_estimate)
            for s in range(NUM_RUNS)
        ])
        se = estimates.std(ddof=1) / math.sqrt(NUM_RUNS)
        # the rounding allowance covers targets where every weight is equal
        assert abs(estimates.mean() - z) <= 4 * se + 1e-9 * z
