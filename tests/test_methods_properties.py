"""Property test of the budget contract across all five inference methods.

On random small graphs with -inf table entries, under both cost modes, every
method either returns an approximation or raises a ValueError (a budget too
small for one unit of work, a zero-mass BP marginal, all particles of zero
weight). A returned approximation has spent at most its budget, and its
exact KL is never NaN. The suite turns every RuntimeWarning into an error.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treesample.cli import METHODS, RunConfig, pick_oracle, run_method
from treesample.logmath import ZeroMassError
from treesample.metrics import evaluate_method
from treesample.model import COST_MODES

from conftest import make_random_graph


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), k=st.integers(2, 3),
       extra_factors=st.integers(0, 4), neg_inf_frac=st.sampled_from([0.0, 0.2, 0.5]),
       cost_mode=st.sampled_from(COST_MODES), budget=st.integers(0, 1000),
       run_seed=st.integers(0, 100))
def test_every_method_keeps_the_budget_contract(graph_seed, n, k, extra_factors, neg_inf_frac,
                                                cost_mode, budget, run_seed):
    rng = np.random.default_rng(graph_seed)
    graph = make_random_graph(rng, n, k, num_extra_factors=extra_factors if n > 1 else 0,
                              neg_inf_frac=neg_inf_frac, shuffle_ordering=True)
    try:
        oracle = pick_oracle(graph, cap=10**6)
    except ZeroMassError:
        oracle = None  # no target to score against; the budget still binds
    for method in METHODS:
        config = RunConfig(method=method, budget=budget, cost_mode=cost_mode, run_seed=run_seed,
                           num_gibbs_sweeps=2, num_message_rounds=2, metric_samples=20)
        try:
            approx = run_method(graph, config)
        except ValueError:
            continue
        assert approx.budget_spent <= budget
        if oracle is not None:
            report = evaluate_method(method, approx, graph, oracle=oracle, num_samples=20,
                                     seed=run_seed + 1, budget=budget)
            assert not math.isnan(report.kl)
