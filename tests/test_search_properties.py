"""Property tests of the search tree on random small graphs.

Graphs have up to 5 variables of up to 3 states, random extra factors with
-inf table entries and a shuffled depth ordering; budgets run from empty to
past exhaustive, under both cost modes. For every tree: the ledger never
overruns, the tree density sums to 1 over all K^N configurations, a complete
root's value equals the exact log Z, and sample_batch's log q equals
log_density exactly. On random two-child nodes, q_uct_select's unrolled
binary choice equals the generic scoring loop's.
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
from treesample.search import TreeNode, build_tree, q_uct_select

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


def reference_select(node: TreeNode) -> int:
    """The generic scoring loop of q_uct_select at one node: the first
    maximum of q + bonus * sqrt(visits) / (1 + eta) over incomplete children
    (a score must beat the starting -inf), else the first incomplete child.
    Returns the 1-based action."""
    done = node.complete_children
    sqrt_visits = math.sqrt(node.visits)
    best, a = NEG_INF, -1
    for i in range(len(done)):
        if not done[i]:
            score = node.q[i] + node.bonus[i] * sqrt_visits / (1.0 + node.eta[i])
            if score > best:
                best, a = score, i
    return (done.index(False) if a < 0 else a) + 1


# few distinct values, so that equal scores, -inf, +-0.0 and zero visits
# come up often; an infinite bonus (an overflowing c * prior) makes NaN
# scores at zero visits or with a -inf q
q_entries = st.sampled_from([NEG_INF, -1.0, -0.0, 0.0, 0.5, 1.0]) | st.floats(-50.0, 50.0)
bonus_entries = st.sampled_from([0.0, -0.0, 0.2, 1.0, math.inf]) | st.floats(0.0, 10.0)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(q=st.lists(q_entries, min_size=2, max_size=2),
       bonus=st.lists(bonus_entries, min_size=2, max_size=2),
       eta=st.lists(st.integers(0, 3), min_size=2, max_size=2),
       complete=st.sampled_from([(False, False), (True, False), (False, True)]))
def test_binary_choice_equals_scoring_loop(q, bonus, eta, complete):
    node = TreeNode(0.0, q, bonus, list(complete), False)
    node.eta[:] = eta
    node.visits = sum(eta)
    path, actions = q_uct_select(node)
    assert path == [node]
    assert actions == [reference_select(node)]
