"""Property tests of the search tree on random small graphs.

Graphs have up to 5 variables of up to 3 states, random extra factors with
-inf table entries and a shuffled depth ordering; budgets run from empty to
past exhaustive, under both cost modes. For every tree: the ledger never
overruns, the tree density sums to 1 over all K^N configurations, a complete
root's value equals the exact log Z, and sample_batch's log q equals
log_density exactly. sample_batch also equals the node-at-a-time reference
walk bit for bit, for K of 2 to 10, both priors, empty to complete trees
and 0 to 300 samples. With the exact-value prior (the oracle's Q*, the
scale the tree reads), the tree's KL to the target is 0 at every budget. On
random two-child nodes, q_uct_select's unrolled binary choice equals the
generic scoring loop's, and backup's inline soft value gives an edge the
child's reward plus logsumexp_list of its values, bit for bit, at signed
zeros, -inf, equal entries and wide gaps. The softmax draw of G rows gathered by an index
equals the draw of the materialised rows, and a shared row's binary-search
draw equals the count over the materialised (S, K) array, bit for bit.
After builds at K of 2 to 11 with an MLP prior, every node's soft value
is logsumexp_list of its child values, and every edge holds its child's
reward plus that soft value, bit for bit. Builds of 1, 2 and 8
leaves per round, under the heuristic and an MLP prior, keep the ledger,
density and log Z invariants, raise no RuntimeWarning, and leave every
completeness flag and open count as the backups set them: each close made
while a round collects is undone. Every node's visits equal the sum of its
eta, and each eta the number of nodes below that child. Under MLP priors
at 2, 3, 8 and 32 leaves per round, backing a round up once gives the tree
that backing its leaves up one at a time gives, bit for bit.
"""

from __future__ import annotations

import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treesample.exact import solve_exact
from treesample.logmath import (NEG_INF, ZeroMassError, draw_softmax_rows, logsumexp_list,
                                sample_softmax_rows)
from treesample.model import COST_MODES, REWARD_EVAL
from treesample.prior import HeuristicPrior, MLPValueFunction
from treesample.search import TreeNode, backup, build_tree, q_uct_select

from conftest import (ExactValuePrior, all_configs, kl_by_enumeration, make_random_graph,
                      reference_leaf_by_leaf_build_tree, reference_sample_batch,
                      reference_solve_exact)

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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=trees, leaf_batch=st.sampled_from([1, 2, 8]), mlp=st.booleans())
def test_rounds_keep_the_invariants(p, leaf_batch, mlp):
    rng = np.random.default_rng(p["graph_seed"])
    n, k = p["n"], p["k"]
    graph = make_random_graph(rng, n, k, num_extra_factors=p["extra_factors"] if n > 1 else 0,
                              neg_inf_frac=p["neg_inf_frac"], shuffle_ordering=True)
    prior = (MLPValueFunction(n * (k + 1), k, hidden_units=8, num_hidden_layers=1,
                              seed=p["seed"]) if mlp else HeuristicPrior())
    prior.leaf_batch = leaf_batch
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tree = build_tree(graph, prior, p["budget"], c=p["c"], cost_mode=p["cost_mode"])
        assert tree.ledger.spent <= p["budget"]
        subtree = dict.fromkeys(tree.nodes, 0)  # nodes at or below each prefix
        for prefix in tree.nodes:
            for d in range(len(prefix) + 1):
                subtree[prefix[:d]] += 1
        for prefix, node in tree.nodes.items():
            # every leaf a round backs up passes each edge of its path once
            assert node.visits == sum(node.eta)
            assert node.eta == [subtree.get(prefix + (a,), 0) for a in range(1, k + 1)]
            assert node.open == node.complete_children.count(False)
            if len(prefix) < n:  # a flag is set exactly when its child is complete
                assert node.complete_children == [child is not None and child.complete
                                                  for child in node.children]
        if tree.root_complete():
            log_z = solve_exact(graph).log_z
            if log_z == NEG_INF:
                assert tree.root_value() == NEG_INF
            else:
                assert abs(tree.root_value() - log_z) <= 1e-9
        if tree.root is not None and max(tree.root.q) == NEG_INF:
            return  # a complete zero-mass root: nothing to sample
        configs = all_configs(n, k)
        assert abs(sum(math.exp(tree.log_density(x)) for x in configs) - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), k=st.integers(2, 4),
       extra_factors=st.integers(0, 4), neg_inf_frac=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
       cost_mode=st.sampled_from(COST_MODES), budget_frac=st.floats(0.0, 1.2),
       leaf_batch=st.sampled_from([2, 3, 8, 32]), c=st.sampled_from([0.5, 2.0]),
       seed=st.integers(0, 100))
def test_round_backup_equals_leaf_by_leaf_bitwise(graph_seed, n, k, extra_factors, neg_inf_frac,
                                                  cost_mode, budget_frac, leaf_batch, c, seed):
    """Backing a round up once, each edge of the union of its paths after
    every leaf below it, gives the tree that backing its leaves up one at a
    time gives: every q, eta and flag, and the JSON text, unlike ==, tells
    -0.0 from 0.0. Budgets run from 0 to past the exhaustive one."""
    rng = np.random.default_rng(graph_seed)
    graph = make_random_graph(rng, n, k, num_extra_factors=extra_factors if n > 1 else 0,
                              neg_inf_frac=neg_inf_frac, shuffle_ordering=True)
    exhaustive = (sum(k**d for d in range(1, n + 1)) if cost_mode == REWARD_EVAL
                  else graph.num_factors * k**n)
    budget = int(budget_frac * exhaustive)
    trees = []
    for build in (build_tree, reference_leaf_by_leaf_build_tree):
        prior = MLPValueFunction(n * (k + 1), k, hidden_units=8, num_hidden_layers=1, seed=seed)
        prior.leaf_batch = leaf_batch
        trees.append(build(graph, prior, budget, c=c, cost_mode=cost_mode))
    tree, ref = trees
    assert json.dumps(tree.dump_json_dict()) == json.dumps(ref.dump_json_dict())
    assert [node.visits for node in tree.nodes.values()] == [ref.nodes[p].visits
                                                              for p in tree.nodes]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graph_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       k=st.sampled_from([2, 3, 8, 10]), extra_factors=st.integers(0, 4),
       neg_inf_frac=st.sampled_from([0.0, 0.2, 0.5, 0.9]), cost_mode=st.sampled_from(COST_MODES),
       budget=st.sampled_from([0, 5, 40, 300, None]), mlp=st.booleans(),
       num_samples=st.sampled_from([0, 1, 2, 300]), seed=st.integers(0, 100))
def test_sample_batch_equals_reference_walk_bitwise(graph_seed, n, k, extra_factors,
                                                    neg_inf_frac, cost_mode, budget, mlp,
                                                    num_samples, seed):
    """One draw per depth for all in-tree particles gives what one draw per
    node gives: K >= 8 reduces each row pairwise, K < 8 column by column,
    and either way a row's bits do not depend on the rows stacked with it.
    A budget of None builds the complete tree, 0 leaves the root None."""
    rng = np.random.default_rng(graph_seed)
    graph = make_random_graph(rng, n, k, num_extra_factors=extra_factors if n > 1 else 0,
                              neg_inf_frac=neg_inf_frac, shuffle_ordering=True)
    prior = (MLPValueFunction(n * (k + 1), k, hidden_units=8, num_hidden_layers=1, seed=seed)
             if mlp else HeuristicPrior())
    if budget is None:
        budget = (sum(k**d for d in range(1, n + 1)) if cost_mode == REWARD_EVAL
                  else graph.num_factors * k**n)
    tree = build_tree(graph, prior, budget, cost_mode=cost_mode)
    try:
        expected = reference_sample_batch(tree, num_samples, np.random.default_rng(seed))
    except ZeroMassError:
        with pytest.raises(ZeroMassError):
            tree.sample_batch(num_samples, np.random.default_rng(seed))
        return
    xs, log_q = tree.sample_batch(num_samples, np.random.default_rng(seed))
    assert xs.dtype == expected[0].dtype and xs.tolist() == expected[0].tolist()
    assert log_q.tobytes() == expected[1].tobytes()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(graph_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       k=st.sampled_from([2, 3, 4, 7, 8, 10, 11]), extra_factors=st.integers(0, 4),
       neg_inf_frac=st.sampled_from([0.2, 0.5, 0.9]), cost_mode=st.sampled_from(COST_MODES),
       budget=st.sampled_from([1, 40, 300]), seed=st.integers(0, 100))
def test_node_values_equal_logsumexp_list_bitwise(graph_seed, n, k, extra_factors, neg_inf_frac,
                                                  cost_mode, budget, seed):
    """After a build with -inf entries and a random MLP prior, every node's
    value() is logsumexp_list of its q, and every edge to a node in the tree
    holds the node's reward plus that value, bit for bit: backup's inline
    two-child form and its early stop leave no edge that a full backup would
    set to other bits."""
    rng = np.random.default_rng(graph_seed)
    graph = make_random_graph(rng, n, k, num_extra_factors=extra_factors if n > 1 else 0,
                              neg_inf_frac=neg_inf_frac, shuffle_ordering=True)
    prior = MLPValueFunction(n * (k + 1), k, hidden_units=16, num_hidden_layers=2, seed=seed)
    tree = build_tree(graph, prior, budget, cost_mode=cost_mode)
    for prefix, node in tree.nodes.items():
        value = node.value()
        assert struct.pack("<d", value) == struct.pack("<d", logsumexp_list(node.q))
        if prefix:
            edge = tree.nodes[prefix[:-1]].q[prefix[-1] - 1]
            assert struct.pack("<d", edge) == struct.pack("<d", node.reward + value)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graph_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), k=st.integers(2, 3),
       extra_factors=st.integers(0, 4), neg_inf_frac=st.sampled_from([0.0, 0.2, 0.5]),
       cost_mode=st.sampled_from(COST_MODES))
def test_exact_value_prior_gives_zero_kl_at_every_budget(graph_seed, n, k, extra_factors,
                                                         neg_inf_frac, cost_mode):
    """Backups of exact values reproduce them, so a tree started from Q*
    samples the target exactly however far it has grown."""
    rng = np.random.default_rng(graph_seed)
    graph = make_random_graph(rng, n, k, num_extra_factors=extra_factors if n > 1 else 0,
                              neg_inf_frac=neg_inf_frac, shuffle_ordering=True)
    oracle = reference_solve_exact(graph)
    if oracle.log_z == NEG_INF:
        return  # no target distribution to compare with
    prior = ExactValuePrior(oracle)
    if cost_mode == REWARD_EVAL:
        exhaustive = sum(k**d for d in range(1, n + 1))
    else:
        exhaustive = graph.num_factors * k**n
    for budget in sorted({int(b) for b in np.linspace(0, exhaustive, 10)}):
        tree = build_tree(graph, prior, budget, cost_mode=cost_mode)
        assert abs(kl_by_enumeration(tree.log_density, oracle, graph)) <= 1e-9


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


# -inf, signed zeros, equal entries and gaps past exp's range (a term of
# 0.0) and within it come up often
pair_entries = (st.sampled_from([NEG_INF, -0.0, 0.0, 1.0, -700.0, 700.0, 5e-324])
                | st.floats(-5.0, 5.0) | st.floats(-800.0, 800.0))
edge_rewards = st.sampled_from([0.0, -0.0, -1.5, NEG_INF]) | st.floats(-50.0, 50.0)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(q=st.lists(pair_entries, min_size=2, max_size=2), reward=edge_rewards,
       equal=st.booleans())
@example(q=[-0.0, NEG_INF], reward=-0.0, equal=False)  # log(1.0) makes -0.0 into 0.0
@example(q=[NEG_INF, -0.0], reward=-0.0, equal=False)
@example(q=[NEG_INF, NEG_INF], reward=0.0, equal=False)
def test_binary_backup_equals_logsumexp_list_bitwise(q, reward, equal):
    """backup's inline two-child soft value gives the edge the bits of the
    child's reward plus logsumexp_list of its child values."""
    if equal:
        q = [q[0], q[0]]
    child = TreeNode(reward, list(q), [0.0, 0.0], [False, False], False)
    parent = TreeNode(0.0, [0.0, 0.0], [0.0, 0.0], [False, False], False)
    backup([([parent, child], [1])], [])
    expected = reward + logsumexp_list(q)
    assert struct.pack("<d", parent.q[0]) == struct.pack("<d", expected)


# -inf, signed zeros and ties come up often; K spans both sides of
# PAIRWISE_SUM_MIN (8)
softmax_entries = st.sampled_from([NEG_INF, -0.0, 0.0, -1.0, 2.0]) | st.floats(-30.0, 30.0)
softmax_widths = st.sampled_from([2, 3, 7, 8, 10, 16])


def _draw_both(q, u, which=None):
    """(draws, m, total, log q) of q at u, or ZeroMassError's type."""
    try:
        a, m, total = draw_softmax_rows(q, u, which)
        a2, logp = sample_softmax_rows(q, u, which)
    except ZeroMassError as exc:
        return type(exc)
    assert a.tobytes() == a2.tobytes()
    return a.tobytes(), m.tobytes(), total.tobytes(), logp.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(k=softmax_widths, data=st.data())
def test_row_gather_equals_materialised_rows_bitwise(k, data):
    # every row is drawn at least once, as sample_batch guarantees, so an
    # all -inf row raises in both forms; a stride-0 q is one shared row
    g = data.draw(st.integers(1, 5))
    q = np.array(data.draw(st.lists(st.lists(softmax_entries, min_size=k, max_size=k),
                                    min_size=g, max_size=g)))
    if data.draw(st.booleans()):
        q = np.broadcast_to(q[0], (g, k))
    extra = data.draw(st.lists(st.integers(0, g - 1), max_size=20))
    which = np.array(data.draw(st.permutations(list(range(g)) + extra)), dtype=np.int64)
    uniforms = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True)
    u = np.array(data.draw(st.lists(uniforms, min_size=len(which), max_size=len(which))))
    gathered = _draw_both(q, u, which)
    materialised = _draw_both(q[which], u)
    if gathered is ZeroMassError or materialised is ZeroMassError:
        assert gathered is materialised is ZeroMassError
        return
    a, m, total, logp = gathered
    full_a, full_m, full_total, full_logp = materialised
    assert a == full_a and logp == full_logp
    # the per-row reductions, gathered, are the materialised rows' own
    rows = 1 if q.strides[0] == 0 else g
    m, total = np.frombuffer(m), np.frombuffer(total)
    index = np.zeros_like(which) if rows == 1 else which
    assert m[index].tobytes() == full_m and total[index].tobytes() == full_total


@settings(max_examples=400, deadline=None, derandomize=True)
@given(k=softmax_widths, data=st.data())
def test_shared_row_draw_equals_materialised_count_bitwise(k, data):
    # a shared row draws by binary search from PAIRWISE_SUM_MIN columns on;
    # uniforms equal to the row's own cumulative probabilities test the
    # side of the search
    row = np.array(data.draw(st.lists(softmax_entries, min_size=k, max_size=k)))
    if row.max() == NEG_INF:
        row[data.draw(st.integers(0, k - 1))] = -0.0
    e = np.exp(row - row.max())
    cdf = (e / e.sum()).cumsum()
    s = data.draw(st.integers(1, 30))
    u = np.array(data.draw(st.lists(st.sampled_from(cdf[cdf < 1.0].tolist() + [0.0])
                                    | st.floats(0.0, 1.0, exclude_max=True),
                                    min_size=s, max_size=s)))
    shared = row[None, :]
    full = np.repeat(shared, s, axis=0)
    a, m, total, logp = _draw_both(shared, u)
    full_a, full_m, full_total, full_logp = _draw_both(full, u)
    assert a == full_a and logp == full_logp
    assert m == np.frombuffer(full_m)[:1].tobytes()
    assert total == np.frombuffer(full_total)[:1].tobytes()
    view = _draw_both(np.broadcast_to(row, (s, k)), u)
    assert view == (a, m, total, logp)
