import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from treesample import search
from treesample.generators import GeneratorSpec, generate
from treesample.logmath import NEG_INF, ZeroMassError, logsumexp_list, sample_softmax_rows
from treesample.model import FACTOR_EVAL, REWARD_EVAL, BudgetLedger
from treesample.prior import HeuristicPrior, MLPValueFunction
from treesample.search import SearchTree, TreeNode, backup, build_tree, expand, q_uct_select

from conftest import (ExactValuePrior, all_configs, kl_by_enumeration, log_joint, make_graph,
                      make_random_graph, q_values, reference_sample_batch, reference_solve_exact,
                      uniform_graph)


def _node(q, bonus, eta, complete):
    node = TreeNode(
        reward=0.0,
        q=[float(v) for v in q],
        bonus=[float(v) for v in bonus],
        complete_children=[bool(v) for v in complete],
        complete=False,
    )
    node.eta[:] = eta
    node.visits = sum(eta)
    return node


class _FixedPrior:
    """A prior that returns the same child values after every prefix."""

    leaf_batch = 1

    def __init__(self, values):
        self.values = values

    def evaluate(self, graph, prefix):
        return [float(v) for v in self.values]


def _heuristic_row(graph, prefix):
    """HeuristicPrior's row at prefix, the one expand takes; None at a
    complete prefix, which has none."""
    if len(prefix) == graph.num_variables:
        return None
    return HeuristicPrior().evaluate(graph, prefix)


def exhaustive_budget(graph, cost_mode=REWARD_EVAL):
    n, k = graph.num_variables, graph.num_states
    if cost_mode == REWARD_EVAL:
        return sum(k**d for d in range(1, n + 1))
    return graph.num_factors * k**n


class TestQUctSelect:
    def test_symmetric_tie_breaks_low(self):
        node = _node([0.0, 0.0], [0.2, 0.2], [0, 0], [False, False])
        assert q_uct_select(node) == ([node], [1])

    def test_worked_scores(self):
        # bonus = c * prior = 2 * 0.5; visits = 4
        # scores: 1.0 + 1.0*sqrt(4)/(1+3) = 1.5 and 1.2 + 1.0*2/(1+1) = 2.2
        node = _node([1.0, 1.2], [1.0, 1.0], [3, 1], [False, False])
        assert q_uct_select(node) == ([node], [2])

    def test_score_operation_order(self):
        # child 1 scores 0.0 + 2.997 * sqrt(7) / (1 + 10) = 0.7208469708418708,
        # which child 2's bare q equals: the tie goes to child 1. Rounding
        # sqrt(7) / 11 first would score child 1 one ulp lower, and child 2
        # would win.
        node = _node([0.0, 0.7208469708418708], [2.997, 0.0], [10, 0], [False, False])
        node.visits = 7
        assert q_uct_select(node) == ([node], [1])

    def test_complete_children_excluded(self):
        node = _node([100.0, -5.0], [2.0, 2.0], [0, 0], [True, False])
        assert q_uct_select(node) == ([node], [2])

    def test_complete_children_excluded_when_scored(self):
        node = _node([100.0, -5.0, -6.0], [2.0, 2.0, 2.0], [3, 2, 1], [True, False, False])
        assert q_uct_select(node) == ([node], [2])

    def test_epsilon_floor_applies(self):
        # prior below epsilon uses epsilon in the bonus: equal Q, equal eta,
        # bonus then ties and action 1 wins
        node = expand(uniform_graph(3, 2), (), [-3.0, 0.01], 0, BudgetLedger(budget=1), c=1.0,
                      epsilon=0.1)
        assert node.bonus == [0.1, 0.1]
        node.q[:] = [0.5, 0.5]
        node.eta[:] = [1, 1]
        node.visits = 9
        assert q_uct_select(node) == ([node], [1])

    def test_all_incomplete_neg_inf_picks_first_incomplete(self):
        # every incomplete child scores -inf: the complete child must not win
        node = _node([0.0, NEG_INF, NEG_INF], [0.2, 0.2, 0.2], [1, 0, 0],
                     [True, False, False])
        assert q_uct_select(node) == ([node], [2])

    def test_exact_conditional_prior_with_neg_inf_entries(self):
        # the exact conditionals put -inf on zero-mass children, so whole
        # rows of incomplete children score -inf during the build
        for seed in range(40):
            g = make_random_graph(np.random.default_rng(seed), 4, 3, neg_inf_frac=0.4)
            tree = build_tree(g, ExactValuePrior(reference_solve_exact(g)), 60)
            total = sum(math.exp(tree.log_density(x)) for x in all_configs(4, 3))
            assert abs(total - 1.0) <= 1e-12

    def test_all_complete_is_contract_violation(self):
        node = _node([0.0, 0.0], [0.2, 0.2], [1, 1], [True, True])
        with pytest.raises(RuntimeError):
            q_uct_select(node)

    def test_walks_to_first_missing_child(self):
        # root picks 2 (2.2 against 1.5), the child picks 1 (tie), and the
        # grandchild's child 1 is not in the tree yet
        root = _node([1.0, 1.2], [1.0, 1.0], [3, 1], [False, False])
        child = _node([0.0, 0.0], [0.2, 0.2], [0, 0], [False, False])
        grandchild = _node([0.0, -1.0], [0.2, 0.2], [0, 0], [False, False])
        root.children[1] = child
        child.children[0] = grandchild
        assert q_uct_select(root) == ([root, child, grandchild], [2, 1, 1])

    def test_complete_node_below_root_is_contract_violation(self):
        root = _node([0.0, 0.0], [0.2, 0.2], [0, 0], [False, True])
        root.children[0] = _node([0.0, 0.0], [0.2, 0.2], [1, 1], [True, True])
        with pytest.raises(RuntimeError):
            q_uct_select(root)


class TestExpand:
    def test_leaf_children(self):
        g = uniform_graph(2, 3)
        ledger = BudgetLedger(budget=10)
        node = expand(g, (1, 2), _heuristic_row(g, (1, 2)), 1, ledger, c=2.0, epsilon=0.1)
        assert np.allclose(node.q, -math.log(3))
        assert node.value() == pytest.approx(0.0, abs=1e-12)
        assert node.complete
        assert ledger.spent == 1

    def test_root_uses_heuristic(self):
        g = uniform_graph(10, 5)
        node = expand(g, (), _heuristic_row(g, ()), 0, BudgetLedger(budget=10), c=2.0, epsilon=0.1)
        assert np.allclose(node.q, 9 * math.log(5))
        assert node.q[0] == pytest.approx(14.485, abs=1e-3)
        assert node.bonus == [2.0 * node.q[0]] * 5
        assert not node.complete

    def test_root_is_free(self):
        g = uniform_graph(3, 2)
        ledger = BudgetLedger(budget=5)
        expand(g, (), _heuristic_row(g, ()), 0, ledger, c=2.0, epsilon=0.1)
        assert ledger.spent == 0

    def test_dead_end_marked_complete(self):
        g = make_graph(2, 2, [((1,), [0.0, -np.inf]), ((2,), [0.0, 0.0])])
        node = expand(g, (2,), _heuristic_row(g, (2,)), 1, BudgetLedger(budget=5), c=2.0,
                      epsilon=0.1)
        assert node.reward == NEG_INF
        assert node.complete

    def test_factor_eval_cost(self):
        g = make_graph(2, 2, [((1,), np.zeros(2)), ((1, 2), np.zeros(4)), ((2,), np.zeros(2))])
        ledger = BudgetLedger(budget=10, cost_mode=FACTOR_EVAL)
        expand(g, (1, 2), _heuristic_row(g, (1, 2)), g.reward_cost(2, FACTOR_EVAL), ledger, c=2.0,
               epsilon=0.1)
        assert ledger.spent == 2  # both the pair factor and the unary resolve at depth 2

    def test_overrun_raises(self):
        g = uniform_graph(2, 2)
        ledger = BudgetLedger(budget=0)
        with pytest.raises(RuntimeError, match="internal accounting error"):
            expand(g, (1,), _heuristic_row(g, (1,)), 1, ledger, c=2.0, epsilon=0.1)
        assert ledger.spent == 0


class TestBackup:
    def test_fresh_leaf_gives_reward(self):
        g = make_graph(2, 2, [((1,), np.zeros(2)), ((1, 2), np.array([0.7, 0.0, 0.0, 0.0]))])
        ledger = BudgetLedger(budget=10)
        root = expand(g, (), _heuristic_row(g, ()), 0, ledger, c=2.0, epsilon=0.1)
        child = expand(g, (1,), _heuristic_row(g, (1,)), 1, ledger, c=2.0, epsilon=0.1)
        root.children[0] = child
        leaf = expand(g, (1, 1), _heuristic_row(g, (1, 1)), 1, ledger, c=2.0, epsilon=0.1)
        child.children[0] = leaf
        backup([root, child, leaf], [1, 1])
        assert child.q[0] == pytest.approx(0.7)  # leaf reward + V=0
        assert child.eta[0] == 1
        assert root.eta[0] == 1

    def test_logsumexp_of_children(self):
        parent = _node([0.0, 0.0], [0.2, 0.2], [0, 0], [False, False])
        child = _node([0.0, 0.0], [0.2, 0.2], [0, 0], [False, False])
        child.reward = -1.0
        backup([parent, child], [1])
        assert parent.q[0] == pytest.approx(-1.0 + math.log(2), abs=1e-12)
        assert parent.q[0] == pytest.approx(-0.3069, abs=1e-4)

    def test_neg_inf_child_ignored_in_value(self):
        parent = _node([0.0, 0.0], [0.2, 0.2], [0, 0], [False, False])
        child = _node([NEG_INF, 0.0], [0.2, 0.2], [0, 0], [False, False])
        child.reward = 0.0
        backup([parent, child], [2])
        assert parent.q[1] == pytest.approx(0.0, abs=1e-12)

    def test_completeness_propagates(self):
        parent = _node([0.0, 0.0], [0.2, 0.2], [0, 0], [False, True])
        child = _node([0.0, 0.0], [0.2, 0.2], [0, 0], [True, True])
        child.reward = 0.0
        backup([parent, child], [1])
        assert child.complete
        assert parent.complete_children[0]
        assert parent.complete


class TestBuildTree:
    def test_exhaustive_budget_reaches_exact(self):
        rng = np.random.default_rng(101)
        for trial in range(5):
            g = make_random_graph(rng, 3, 2, num_extra_factors=2, shuffle_ordering=True)
            sol = reference_solve_exact(g)
            for cost_mode in (REWARD_EVAL, FACTOR_EVAL):
                tree = build_tree(
                    g, HeuristicPrior(), exhaustive_budget(g, cost_mode), cost_mode=cost_mode
                )
                assert tree.root_complete()
                assert tree.root_value() == pytest.approx(sol.log_z, abs=1e-9)
                kl = kl_by_enumeration(tree.log_density, sol, g)
                assert kl == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("name", ["c", "epsilon"])
    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
    def test_bad_search_params_rejected_before_any_spend(self, name, value, monkeypatch):
        g = generate(GeneratorSpec(family="fg1", n=8, k=2, seed=0))
        charges = []
        monkeypatch.setattr(BudgetLedger, "charge", lambda ledger, amount: charges.append(amount))
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            build_tree(g, HeuristicPrior(), 200, **{name: value})
        assert charges == []

    def test_zero_budget_tree_is_prior(self):
        g = uniform_graph(3, 2)
        tree = build_tree(g, HeuristicPrior(), 0)
        assert len(tree.nodes) == 0
        assert tree.root_value() is None
        for x in all_configs(3, 2):
            assert tree.log_density(x) == pytest.approx(-3 * math.log(2), abs=1e-12)
        rng = np.random.default_rng(5)
        counts = np.zeros(8)
        for _ in range(4000):
            x = tree.sample(rng)
            counts[(x[0] - 1) * 4 + (x[1] - 1) * 2 + x[2] - 1] += 1
        assert counts.min() > 0.5 * 4000 / 8
        xs, log_q = tree.sample_batch(100, rng)
        assert xs.shape == (100, 3)
        assert np.allclose(log_q, -3 * math.log(2), atol=1e-12)

    def test_hand_run_two_level_uniform(self):
        g = uniform_graph(2, 2)
        tree = build_tree(g, HeuristicPrior(), 6)
        assert tree.ledger.spent == 6
        assert len(tree.nodes) == 7  # root plus six charged expansions
        assert tree.root_complete()
        assert np.allclose(tree.root.q, math.log(2), atol=1e-12)
        for a in (1, 2):
            assert np.allclose(tree.nodes[(a,)].q, 0.0, atol=1e-12)
        assert tree.root_value() == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_budget_never_exceeded_and_exact_accounting(self):
        rng = np.random.default_rng(107)
        for trial in range(10):
            g = make_random_graph(rng, 4, 2, num_extra_factors=3)
            budget = int(rng.integers(0, 40))
            tree = build_tree(g, HeuristicPrior(), budget)
            assert tree.ledger.spent <= budget
            # every charged unit is one reward evaluation at a non-root node
            assert tree.ledger.spent == len(tree.nodes) - (1 if () in tree.nodes else 0)

    def test_determinism(self):
        rng = np.random.default_rng(109)
        g = make_random_graph(rng, 4, 3, num_extra_factors=3)
        t1 = build_tree(g, HeuristicPrior(), 50, c=1.5, epsilon=0.1)
        t2 = build_tree(g, HeuristicPrior(), 50, c=1.5, epsilon=0.1)
        assert t1.nodes.keys() == t2.nodes.keys()
        for prefix, node in t1.nodes.items():
            other = t2.nodes[prefix]
            assert np.array_equal(node.q, other.q)
            assert np.array_equal(node.eta, other.eta)

    def test_complete_edges_match_exact_values(self):
        # Interrupt construction at random budgets: flagged-complete edges
        # must carry the exact optimal value of their subtree.
        rng = np.random.default_rng(113)
        checked = 0
        for trial in range(10):
            g = make_random_graph(
                rng, 4, 2, num_extra_factors=3, neg_inf_frac=0.1, shuffle_ordering=True
            )
            sol = reference_solve_exact(g)
            budget = int(rng.integers(5, exhaustive_budget(g) + 5))
            tree = build_tree(g, HeuristicPrior(), budget)
            for prefix, node in tree.nodes.items():
                if len(prefix) == g.num_variables:
                    continue
                exact_q = q_values(sol, prefix)
                for a in range(g.num_states):
                    if node.complete_children[a]:
                        if exact_q[a] == NEG_INF:
                            assert node.q[a] == NEG_INF
                        else:
                            assert node.q[a] == pytest.approx(exact_q[a], abs=1e-9)
                        checked += 1
        assert checked > 50

    def test_dead_end_branch_never_sampled(self):
        g = make_graph(2, 2, [((1,), [0.0, -np.inf]), ((2,), [0.3, -0.2])])
        tree = build_tree(g, HeuristicPrior(), 100)
        assert tree.root_complete()
        assert tree.root.q[1] == NEG_INF
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert tree.sample(rng)[0] == 1
        assert tree.log_density((2, 1)) == NEG_INF

    def test_zero_mass_target_raises_on_sample(self):
        g = make_graph(1, 2, [((1,), [-np.inf, -np.inf])])
        tree = build_tree(g, HeuristicPrior(), 10)
        with pytest.raises(ZeroMassError):
            tree.sample(np.random.default_rng(0))


class _PerLevelNode:
    """The former TreeNode: the raw prior per child instead of the bonus."""

    def __init__(self, reward, q, prior, complete_children, complete):
        self.reward = reward
        self.q = list(q)
        self.eta = [0] * len(self.q)
        self.prior = list(prior)
        self.complete_children = list(complete_children)
        self.children = [None] * len(self.q)
        self.complete = complete
        self.visits = 0
        self.open = self.complete_children.count(False)

    def value(self):
        return logsumexp_list(self.q)


def _per_level_select(node, parent_visits, c, epsilon):
    """The former q_uct_select: one node's choice, every child scored."""
    if not node.open:
        raise RuntimeError("q_uct_select called with all children complete")
    sqrt_visits = math.sqrt(parent_visits)
    scores = [
        NEG_INF if done else q + c * max(prior, epsilon) * sqrt_visits / (1.0 + eta)
        for q, prior, eta, done in zip(node.q, node.prior, node.eta, node.complete_children)
    ]
    best = max(scores)
    if best == NEG_INF:
        return node.complete_children.index(False) + 1
    return scores.index(best) + 1


def _per_level_expand(graph, prefix, prior, ledger):
    n, k = len(prefix), graph.num_states
    cost = 0 if n == 0 else graph.reward_cost(n, ledger.cost_mode)
    ledger.charge(cost)
    reward = 0.0 if n == 0 else graph.reward(prefix)
    if n == graph.num_variables:
        return _PerLevelNode(reward, [-math.log(k)] * k, [0.0] * k, [True] * k, True)
    prior_q = np.asarray(prior.evaluate(graph, prefix), dtype=np.float64).tolist()
    return _PerLevelNode(reward, prior_q, prior_q, [False] * k, reward == NEG_INF)


def _per_level_backup(nodes, actions):
    for i in range(len(actions) - 1, -1, -1):
        child, parent, a = nodes[i + 1], nodes[i], actions[i] - 1
        child.complete = child.complete or not child.open
        parent.q[a] = child.reward + child.value()
        if child.complete and not parent.complete_children[a]:
            parent.complete_children[a] = True
            parent.open -= 1
        parent.eta[a] += 1
        parent.visits += 1
    root = nodes[0]
    root.complete = root.complete or not root.open


def _per_level_build_tree(graph, prior, budget, c, epsilon, cost_mode):
    """The former build_tree: one selection call per level of every traversal
    and a soft value through logsumexp_list at every edge of the path. It
    stops where build_tree stops, since the comparison is of descent and
    backup."""
    ledger = BudgetLedger(budget=budget, cost_mode=cost_mode)
    tree = SearchTree(graph=graph, prior=prior, ledger=ledger)
    worst_cost = max(graph.reward_cost(d, cost_mode) for d in range(1, graph.num_variables + 1))
    while ledger.remaining >= worst_cost and not tree.root_complete():
        if tree.root is None:
            tree.root = _per_level_expand(graph, (), prior, ledger)
            tree.nodes[()] = tree.root
            continue
        nodes, actions, node = [tree.root], [], tree.root
        while True:
            a = _per_level_select(node, node.visits, c, epsilon)
            actions.append(a)
            child = node.children[a - 1]
            if child is None:
                new = _per_level_expand(graph, tuple(actions), prior, ledger)
                node.children[a - 1] = new
                tree.nodes[tuple(actions)] = new
                nodes.append(new)
                _per_level_backup(nodes, actions)
                break
            node = child
            nodes.append(node)
    return tree


class TestBuildMatchesPerLevelReference:
    """build_tree's one-call descent, soft value and early-stopping backup
    give the same tree, bit for bit, as the per-level loop with a full
    backup that they replaced (kept above as reference). The reference
    builds one leaf at a time, so the MLP priors here do too."""

    def _assert_same_tree(self, g, prior, budget, c=2.0, epsilon=0.1, cost_mode=REWARD_EVAL):
        tree = build_tree(g, prior, budget, c=c, epsilon=epsilon, cost_mode=cost_mode)
        ref = _per_level_build_tree(g, prior, budget, c, epsilon, cost_mode)
        # the JSON text, unlike ==, tells -0.0 from 0.0
        assert json.dumps(tree.dump_json_dict()) == json.dumps(ref.dump_json_dict())
        return tree

    def test_stopped_backup_stores_the_recomputed_zero(self):
        # a leaf's soft value on a zero graph is 0.0, which equals the
        # prior's -0.0 that it replaces: the backup stops at that edge, but
        # it stores 0.0 there, as a full backup does
        g = uniform_graph(3, 2)
        for budget in range(2, exhaustive_budget(g) + 1):
            tree = self._assert_same_tree(g, _FixedPrior([-0.0, -0.0]), budget)
        assert '"q": [0.0, 0.0]' in json.dumps(tree.dump_json_dict())

    def test_backup_stops_early_with_fewer_soft_values(self, monkeypatch):
        # under factor_eval, fg2 (K = 2) and fg1 with K = 3 have depths
        # without factors, where a new node's soft value often equals the
        # heuristic value it replaces, so the backup stops there and forms
        # no soft value above. backup forms a two-child soft value with one
        # math.exp call when a child value is finite, and a wider one with
        # one logsumexp_list call; the reference forms one per edge of every
        # path.
        calls = {"backup": 0, "reference": 0}

        def counted(f, key):
            def wrapper(*args):
                calls[key] += 1
                return f(*args)
            return wrapper

        counting_math = SimpleNamespace(**vars(math))
        counting_math.exp = counted(math.exp, "backup")
        monkeypatch.setattr(search, "math", counting_math)
        monkeypatch.setattr(search, "logsumexp_list", counted(logsumexp_list, "backup"))
        monkeypatch.setattr(_PerLevelNode, "value", counted(_PerLevelNode.value, "reference"))
        for family, n, k in (("fg2", 8, 2), ("fg1", 6, 3)):
            for seed in (0, 1):
                g = generate(GeneratorSpec(family=family, n=n, k=k, seed=seed))
                for budget in (300, exhaustive_budget(g, FACTOR_EVAL)):
                    calls.update(dict.fromkeys(calls, 0))
                    tree = self._assert_same_tree(g, HeuristicPrior(), budget,
                                                  cost_mode=FACTOR_EVAL)
                    assert all(max(node.q) > NEG_INF for node in tree.nodes.values())
                    assert 0 < calls["backup"] < calls["reference"], (family, seed, budget)
                assert tree.root_complete()

    def test_random_graphs_with_neg_inf_entries(self):
        rng = np.random.default_rng(173)
        for trial in range(48):
            n, k = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            g = make_random_graph(rng, n, k, num_extra_factors=int(rng.integers(1, 5)),
                                  neg_inf_frac=float(rng.choice([0.1, 0.3, 0.6])),
                                  shuffle_ordering=bool(trial % 2))
            cost_mode = (REWARD_EVAL, FACTOR_EVAL)[trial % 2]
            prior = (HeuristicPrior(), ExactValuePrior(reference_solve_exact(g)),
                     _small_mlp(g, seed=trial, leaf_batch=1))[trial % 3]
            full = exhaustive_budget(g, cost_mode)
            for budget in (int(rng.integers(1, full)), full):
                tree = self._assert_same_tree(g, prior, budget, c=float(rng.choice([0.5, 2.0])),
                                              epsilon=float(rng.choice([0.0, 0.1, 1.0])),
                                              cost_mode=cost_mode)
            assert tree.root_complete()

    def test_wide_nodes_match_the_reference(self):
        # K of 8 and 10, where numpy's logsumexp would add pairwise, sum
        # left to right as every other width does
        rng = np.random.default_rng(179)
        for k in (8, 10):
            g = make_random_graph(rng, 3, k, num_extra_factors=2, neg_inf_frac=0.3)
            for prior in (HeuristicPrior(), ExactValuePrior(reference_solve_exact(g)),
                          _small_mlp(g, leaf_batch=1)):
                for budget in (60, 400, exhaustive_budget(g)):
                    tree = self._assert_same_tree(g, prior, budget)
                assert tree.root_complete()


class TestSampleAndDensity:
    def test_density_normalizes_on_partial_trees(self):
        rng = np.random.default_rng(127)
        for budget in (0, 1, 3, 7, 20):
            g = make_random_graph(rng, 3, 3, num_extra_factors=2)
            tree = build_tree(g, HeuristicPrior(), budget)
            total = sum(math.exp(tree.log_density(x)) for x in all_configs(3, 3))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_full_tree_matches_target(self):
        rng = np.random.default_rng(131)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        sol = reference_solve_exact(g)
        tree = build_tree(g, HeuristicPrior(), exhaustive_budget(g))
        for x in all_configs(3, 2):
            assert tree.log_density(x) == pytest.approx(log_joint(sol, x), abs=1e-9)

    def test_sampling_frequencies_track_target(self):
        rng = np.random.default_rng(137)
        g = make_random_graph(rng, 3, 2, num_extra_factors=1)
        sol = reference_solve_exact(g)
        tree = build_tree(g, HeuristicPrior(), exhaustive_budget(g))
        draws = 20000
        counts: dict = {}
        for _ in range(draws):
            x = tree.sample(rng)
            counts[x] = counts.get(x, 0) + 1
        for x in all_configs(3, 2):
            p = math.exp(log_joint(sol, x))
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(counts.get(tuple(x), 0) / draws - p) < 5 * se + 1e-3

    def test_dump_round_trip(self, tmp_path):
        g = uniform_graph(2, 2)
        tree = build_tree(g, HeuristicPrior(), 6)
        path = tmp_path / "tree.json"
        tree.dump(path)
        import json

        data = json.loads(path.read_text())
        assert data["num_nodes"] == 7
        assert data["root_complete"] is True
        roots = [n for n in data["nodes"] if n["prefix"] == []]
        assert len(roots) == 1


def _small_mlp(graph, seed=0, leaf_batch=None):
    """A 2 x 16 MLP prior; leaf_batch, if given, replaces the class's
    leaves per round on this instance."""
    dim = graph.num_variables * (graph.num_states + 1)
    mlp = MLPValueFunction(dim, graph.num_states, hidden_units=16, num_hidden_layers=2, seed=seed)
    if leaf_batch is not None:
        mlp.leaf_batch = leaf_batch
    return mlp


def _one_row_calls(tree, num, seed):
    rng = np.random.default_rng(seed)
    rows = [tree.sample(rng) for _ in range(num)]
    return rows, [tree.log_density(x) for x in rows]


class TestSampleBatch:
    """sample_batch equals successive one-row sample() calls and log_density,
    bit for bit, at the same seed, under a prior whose batch rows equal
    evaluate (the heuristic). Under an MLP prior the off-tree rows of a
    depth come from one product, so sample_batch equals the node-at-a-time
    reference walk, which passes the same rows, bit for bit, and the
    one-row calls to 1e-12."""

    def _assert_golden(self, tree, num=120, seed=11):
        xs, log_q = tree.sample_batch(num, np.random.default_rng(seed))
        rows, densities = _one_row_calls(tree, num, seed)
        assert xs.dtype.kind == "i" and xs.shape == (num, tree.graph.num_variables)
        assert [tuple(x) for x in xs.tolist()] == rows
        if isinstance(tree.prior, MLPValueFunction):
            ref_xs, ref_log_q = reference_sample_batch(tree, num, np.random.default_rng(seed))
            assert xs.tolist() == ref_xs.tolist() and log_q.tobytes() == ref_log_q.tobytes()
            np.testing.assert_allclose(log_q, densities, rtol=1e-12, atol=0)
        else:
            assert log_q.tolist() == densities

    def test_partial_trees_with_neg_inf_entries(self):
        rng = np.random.default_rng(151)
        for trial in range(4):
            g = make_random_graph(rng, 5, 3, num_extra_factors=4, neg_inf_frac=0.25,
                                  shuffle_ordering=True)
            for cost_mode in (REWARD_EVAL, FACTOR_EVAL):
                for budget in (0, 4, 40, 400):
                    tree = build_tree(g, HeuristicPrior(), budget, cost_mode=cost_mode)
                    self._assert_golden(tree, seed=trial)

    def test_mlp_prior(self):
        rng = np.random.default_rng(157)
        for trial in range(3):
            g = make_random_graph(rng, 5, 3, num_extra_factors=3, neg_inf_frac=0.2)
            for budget in (0, 15, 60):
                tree = build_tree(g, _small_mlp(g, seed=trial), budget)
                self._assert_golden(tree, seed=trial)

    def test_complete_tree(self):
        rng = np.random.default_rng(163)
        g = make_random_graph(rng, 3, 3, num_extra_factors=2, neg_inf_frac=0.3)
        tree = build_tree(g, HeuristicPrior(), exhaustive_budget(g))
        assert tree.root_complete()
        self._assert_golden(tree, num=1000)

    @pytest.mark.parametrize("k", [8, 10])
    def test_wide_nodes(self, k):
        # K >= 8 draws through numpy's pairwise row sum inside the tree too;
        # at budget 400 dozens of nodes share one depth
        rng = np.random.default_rng(173 + k)
        g = make_random_graph(rng, 4, k, num_extra_factors=4, neg_inf_frac=0.2,
                              shuffle_ordering=True)
        for prior in (HeuristicPrior(), _small_mlp(g, seed=k)):
            for budget in (0, 30, 400):
                tree = build_tree(g, prior, budget)
                if budget == 400:
                    assert max(sum(len(p) == d for p in tree.nodes) for d in range(5)) >= 20
                self._assert_golden(tree, num=300, seed=k)
                xs, log_q = tree.sample_batch(300, np.random.default_rng(k))
                ref_xs, ref_log_q = reference_sample_batch(tree, 300, np.random.default_rng(k))
                assert xs.tolist() == ref_xs.tolist() and log_q.tobytes() == ref_log_q.tobytes()

    def test_one_draw_call_per_depth(self, monkeypatch):
        # a partial tree with dozens of nodes per depth: one draw for all
        # in-tree particles and one for the off-tree ones at each depth, and
        # every particle drawn once per depth
        g = generate(GeneratorSpec(family="chains", n=6, k=3, seed=2))
        tree = build_tree(g, HeuristicPrior(), 400)
        assert max(sum(len(p) == d for p in tree.nodes) for d in range(7)) >= 50
        draws = []

        def counted(q, u, which=None):
            draws.append(len(u))
            return sample_softmax_rows(q, u, which)

        monkeypatch.setattr(search, "sample_softmax_rows", counted)
        xs, log_q = tree.sample_batch(500, np.random.default_rng(3))
        assert len(draws) <= 2 * g.num_variables and sum(draws) == 500 * g.num_variables
        ref_xs, ref_log_q = reference_sample_batch(tree, 500, np.random.default_rng(3))
        assert xs.tolist() == ref_xs.tolist() and log_q.tobytes() == ref_log_q.tobytes()

    def test_zero_draws(self):
        tree = build_tree(uniform_graph(3, 2), HeuristicPrior(), 3)
        xs, log_q = tree.sample_batch(0, np.random.default_rng(0))
        assert xs.shape == (0, 3) and log_q.shape == (0,)

    def test_zero_mass_raises_like_one_row_path(self):
        g = make_graph(1, 2, [((1,), [-np.inf, -np.inf])])
        tree = build_tree(g, HeuristicPrior(), 10)
        with pytest.raises(ZeroMassError):
            tree.sample_batch(50, np.random.default_rng(0))

    def test_drawn_mass_agrees_with_enumeration(self):
        rng = np.random.default_rng(167)
        g = make_random_graph(rng, 3, 3, num_extra_factors=3, neg_inf_frac=0.2)
        tree = build_tree(g, HeuristicPrior(), 12)
        exact = {x: tree.log_density(x) for x in all_configs(3, 3)}
        assert sum(math.exp(v) for v in exact.values()) == pytest.approx(1.0, abs=1e-10)
        draws = 20000
        xs, log_q = tree.sample_batch(draws, np.random.default_rng(5))
        drawn: dict = {}
        for x, lq in zip(map(tuple, xs.tolist()), log_q.tolist()):
            assert drawn.setdefault(x, lq) == lq == exact[x]
        drawn_mass = sum(math.exp(v) for v in drawn.values())
        missing_mass = sum(math.exp(v) for x, v in exact.items() if x not in drawn)
        assert drawn_mass + missing_mass == pytest.approx(1.0, abs=1e-10)
        assert missing_mass < 0.01
        counts = {x: 0 for x in drawn}
        for x in map(tuple, xs.tolist()):
            counts[x] += 1
        for x, lq in drawn.items():
            p = math.exp(lq)
            assert abs(counts[x] / draws - p) < 5 * math.sqrt(p * (1 - p) / draws) + 1e-3
