"""Property tests of the search tree on random small graphs.

Graphs have up to 5 variables of up to 3 states, random extra factors with
-inf table entries and a shuffled depth ordering; budgets run from empty to
past exhaustive, under both cost modes. For every tree: the ledger never
overruns, the tree density sums to 1 over all K^N configurations, a complete
root's value equals the exact log Z, and sample_batch's log q equals
log_density exactly.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treesample.exact import solve_exact
from treesample.logmath import NEG_INF
from treesample.model import COST_MODES
from treesample.prior import HeuristicPrior
from treesample.search import build_tree

from conftest import all_configs, make_random_graph

trees = st.fixed_dictionaries({
    "graph_seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 5),
    "k": st.integers(2, 3),
    "extra_factors": st.integers(0, 4),
    "neg_inf_frac": st.sampled_from([0.0, 0.2, 0.5, 0.9]),
    "budget": st.integers(0, 400),
    "cost_mode": st.sampled_from(COST_MODES),
    "c": st.sampled_from([0.5, 2.0]),
    "seed": st.integers(0, 100),
})


def _build(p):
    rng = np.random.default_rng(p["graph_seed"])
    extra = p["extra_factors"] if p["n"] > 1 else 0  # extra factors span 2+ variables
    graph = make_random_graph(rng, p["n"], p["k"], num_extra_factors=extra,
                              neg_inf_frac=p["neg_inf_frac"], shuffle_ordering=True)
    tree = build_tree(graph, HeuristicPrior(), p["budget"], c=p["c"],
                      cost_mode=p["cost_mode"])
    return graph, tree


@settings(max_examples=200, deadline=None, derandomize=True)
@given(trees)
def test_search_invariants(p):
    graph, tree = _build(p)
    assert tree.ledger.spent <= p["budget"]

    if tree.root_complete():
        log_z = solve_exact(graph).log_z
        if log_z == NEG_INF:
            assert tree.root_value() == NEG_INF
        else:
            assert abs(tree.root_value() - log_z) <= 1e-9

    if tree.root is not None and max(tree.root.q) == NEG_INF:
        return  # a complete zero-mass root: nothing to sample
    configs = list(all_configs(graph.num_variables, graph.num_states))
    total = sum(math.exp(tree.log_density(x)) for x in configs)
    assert abs(total - 1.0) <= 1e-12

    xs, log_q = tree.sample_batch(50, np.random.default_rng(p["seed"]))
    assert log_q.tolist() == [tree.log_density(tuple(x)) for x in xs.tolist()]
