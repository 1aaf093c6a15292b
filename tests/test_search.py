import math

import numpy as np
import pytest

from treesample.exact import kl_by_enumeration, solve_exact
from treesample.logmath import NEG_INF, ZeroMassError
from treesample.model import FACTOR_EVAL, REWARD_EVAL, BudgetLedger, Factor, FactorGraph
from treesample.prior import HeuristicPrior, MLPValueFunction
from treesample.search import TreeNode, backup, build_tree, expand, q_uct_select

from conftest import all_configs, make_random_graph


def _graph(n, k, factors, ordering=None):
    return FactorGraph(
        num_variables=n,
        num_states=k,
        factors=tuple(
            Factor(id=i, scope=s, table=np.asarray(t, dtype=float)) for i, (s, t) in enumerate(factors)
        ),
        ordering=tuple(ordering or range(1, n + 1)),
    )


def _uniform_graph(n, k):
    return _graph(n, k, [((v,), np.zeros(k)) for v in range(1, n + 1)])


def _node(q, prior, eta, complete):
    node = TreeNode(
        reward=0.0,
        q=np.asarray(q, dtype=float),
        prior=np.asarray(prior, dtype=float),
        complete_children=np.asarray(complete, dtype=bool),
        complete=False,
    )
    node.eta[:] = eta
    return node


def exhaustive_budget(graph, cost_mode=REWARD_EVAL):
    n, k = graph.num_variables, graph.num_states
    if cost_mode == REWARD_EVAL:
        return sum(k**d for d in range(1, n + 1))
    return graph.num_factors * k**n


class TestQUctSelect:
    def test_symmetric_tie_breaks_low(self):
        node = _node([0.0, 0.0], [0.0, 0.0], [0, 0], [False, False])
        assert q_uct_select(node, 0, c=2.0, epsilon=0.1) == 1

    def test_worked_scores(self):
        # scores: 1.0 + 2*0.5*sqrt(4)/(1+3) = 1.5 and 1.2 + 2*0.5*2/(1+1) = 2.2
        node = _node([1.0, 1.2], [0.5, 0.5], [3, 1], [False, False])
        assert q_uct_select(node, 4, c=2.0, epsilon=0.1) == 2

    def test_complete_children_excluded(self):
        node = _node([100.0, -5.0], [1.0, 1.0], [0, 0], [True, False])
        assert q_uct_select(node, 7, c=2.0, epsilon=0.1) == 2

    def test_epsilon_floor_applies(self):
        # prior below epsilon uses epsilon in the bonus: equal Q, equal eta,
        # bonus then ties and action 1 wins
        node = _node([0.5, 0.5], [-3.0, 0.01], [1, 1], [False, False])
        assert q_uct_select(node, 9, c=1.0, epsilon=0.1) == 1

    def test_all_complete_is_contract_violation(self):
        node = _node([0.0, 0.0], [0.0, 0.0], [1, 1], [True, True])
        with pytest.raises(RuntimeError):
            q_uct_select(node, 2, c=2.0, epsilon=0.1)


class TestExpand:
    def test_leaf_children(self):
        g = _uniform_graph(2, 3)
        ledger = BudgetLedger(budget=10)
        node = expand(g, (1, 2), HeuristicPrior(), ledger)
        assert np.allclose(node.q, -math.log(3))
        assert node.value() == pytest.approx(0.0, abs=1e-12)
        assert node.complete
        assert ledger.spent == 1

    def test_root_uses_heuristic(self):
        g = _uniform_graph(10, 5)
        node = expand(g, (), HeuristicPrior(), BudgetLedger(budget=10))
        assert np.allclose(node.q, 9 * math.log(5))
        assert node.q[0] == pytest.approx(14.485, abs=1e-3)
        assert not node.complete

    def test_root_is_free(self):
        g = _uniform_graph(3, 2)
        ledger = BudgetLedger(budget=5)
        expand(g, (), HeuristicPrior(), ledger)
        assert ledger.spent == 0

    def test_dead_end_marked_complete(self):
        g = _graph(2, 2, [((1,), [0.0, -np.inf]), ((2,), [0.0, 0.0])])
        node = expand(g, (2,), HeuristicPrior(), BudgetLedger(budget=5))
        assert node.reward == NEG_INF
        assert node.complete

    def test_factor_eval_cost(self):
        g = _graph(2, 2, [((1,), np.zeros(2)), ((1, 2), np.zeros(4)), ((2,), np.zeros(2))])
        ledger = BudgetLedger(budget=10, cost_mode=FACTOR_EVAL)
        expand(g, (1, 2), HeuristicPrior(), ledger)
        assert ledger.spent == 2  # both the pair factor and the unary resolve at depth 2

    def test_exhaustion_signal(self):
        g = _uniform_graph(2, 2)
        ledger = BudgetLedger(budget=0)
        assert expand(g, (1,), HeuristicPrior(), ledger) is None
        assert ledger.spent == 0


class TestBackup:
    def test_fresh_leaf_gives_reward(self):
        g = _graph(2, 2, [((1,), np.zeros(2)), ((1, 2), np.array([0.7, 0.0, 0.0, 0.0]))])
        ledger = BudgetLedger(budget=10)
        root = expand(g, (), HeuristicPrior(), ledger)
        child = expand(g, (1,), HeuristicPrior(), ledger)
        root.children[0] = child
        leaf = expand(g, (1, 1), HeuristicPrior(), ledger)
        child.children[0] = leaf
        backup([root, child, leaf], [1, 1])
        assert child.q[0] == pytest.approx(0.7)  # leaf reward + V=0
        assert child.eta[0] == 1
        assert root.eta[0] == 1

    def test_logsumexp_of_children(self):
        parent = _node([0.0, 0.0], [0.0, 0.0], [0, 0], [False, False])
        child = _node([0.0, 0.0], [0.0, 0.0], [0, 0], [False, False])
        child.reward = -1.0
        backup([parent, child], [1])
        assert parent.q[0] == pytest.approx(-1.0 + math.log(2), abs=1e-12)
        assert parent.q[0] == pytest.approx(-0.3069, abs=1e-4)

    def test_neg_inf_child_ignored_in_value(self):
        parent = _node([0.0, 0.0], [0.0, 0.0], [0, 0], [False, False])
        child = _node([NEG_INF, 0.0], [0.0, 0.0], [0, 0], [False, False])
        child.reward = 0.0
        backup([parent, child], [2])
        assert parent.q[1] == pytest.approx(0.0, abs=1e-12)

    def test_completeness_propagates(self):
        parent = _node([0.0, 0.0], [0.0, 0.0], [0, 0], [False, True])
        child = _node([0.0, 0.0], [0.0, 0.0], [0, 0], [True, True])
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
            sol = solve_exact(g)
            for cost_mode in (REWARD_EVAL, FACTOR_EVAL):
                tree = build_tree(
                    g, HeuristicPrior(), exhaustive_budget(g, cost_mode), seed=1, cost_mode=cost_mode
                )
                assert tree.root_complete()
                assert tree.root_value() == pytest.approx(sol.log_z, abs=1e-9)
                kl = kl_by_enumeration(tree.log_density, sol, g)
                assert kl == pytest.approx(0.0, abs=1e-9)

    def test_zero_budget_tree_is_prior(self):
        g = _uniform_graph(3, 2)
        tree = build_tree(g, HeuristicPrior(), 0, seed=3)
        assert tree.num_expansions == 0
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
        g = _uniform_graph(2, 2)
        tree = build_tree(g, HeuristicPrior(), 6, seed=0)
        assert tree.ledger.spent == 6
        assert tree.num_expansions == 7  # root plus six charged expansions
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
            tree = build_tree(g, HeuristicPrior(), budget, seed=trial)
            assert tree.ledger.spent <= budget
            # every charged unit is one reward evaluation at a non-root node
            assert tree.ledger.spent == tree.num_expansions - (1 if () in tree.nodes else 0)

    def test_determinism(self):
        rng = np.random.default_rng(109)
        g = make_random_graph(rng, 4, 3, num_extra_factors=3)
        t1 = build_tree(g, HeuristicPrior(), 50, c=1.5, epsilon=0.1, seed=9)
        t2 = build_tree(g, HeuristicPrior(), 50, c=1.5, epsilon=0.1, seed=9)
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
            sol = solve_exact(g)
            budget = int(rng.integers(5, exhaustive_budget(g) + 5))
            tree = build_tree(g, HeuristicPrior(), budget, seed=trial)
            for prefix, node in tree.nodes.items():
                if len(prefix) == g.num_variables:
                    continue
                exact_q = sol.q_values(prefix)
                for a in range(g.num_states):
                    if node.complete_children[a]:
                        if exact_q[a] == NEG_INF:
                            assert node.q[a] == NEG_INF
                        else:
                            assert node.q[a] == pytest.approx(exact_q[a], abs=1e-9)
                        checked += 1
        assert checked > 50

    def test_dead_end_branch_never_sampled(self):
        g = _graph(2, 2, [((1,), [0.0, -np.inf]), ((2,), [0.3, -0.2])])
        tree = build_tree(g, HeuristicPrior(), 100, seed=2)
        assert tree.root_complete()
        assert tree.root.q[1] == NEG_INF
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert tree.sample(rng)[0] == 1
        assert tree.log_density((2, 1)) == NEG_INF

    def test_zero_mass_target_raises_on_sample(self):
        g = _graph(1, 2, [((1,), [-np.inf, -np.inf])])
        tree = build_tree(g, HeuristicPrior(), 10, seed=0)
        with pytest.raises(ZeroMassError):
            tree.sample(np.random.default_rng(0))


class TestSampleAndDensity:
    def test_density_normalizes_on_partial_trees(self):
        rng = np.random.default_rng(127)
        for budget in (0, 1, 3, 7, 20):
            g = make_random_graph(rng, 3, 3, num_extra_factors=2)
            tree = build_tree(g, HeuristicPrior(), budget, seed=1)
            total = sum(math.exp(tree.log_density(x)) for x in all_configs(3, 3))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_full_tree_matches_target(self):
        rng = np.random.default_rng(131)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        sol = solve_exact(g)
        tree = build_tree(g, HeuristicPrior(), exhaustive_budget(g), seed=4)
        for x in all_configs(3, 2):
            assert tree.log_density(x) == pytest.approx(sol.log_joint(x), abs=1e-9)

    def test_sampling_frequencies_track_target(self):
        rng = np.random.default_rng(137)
        g = make_random_graph(rng, 3, 2, num_extra_factors=1)
        sol = solve_exact(g)
        tree = build_tree(g, HeuristicPrior(), exhaustive_budget(g), seed=4)
        draws = 20000
        counts: dict = {}
        for _ in range(draws):
            x = tree.sample(rng)
            counts[x] = counts.get(x, 0) + 1
        for x in all_configs(3, 2):
            p = math.exp(sol.log_joint(x))
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(counts.get(tuple(x), 0) / draws - p) < 5 * se + 1e-3

    def test_dump_round_trip(self, tmp_path):
        g = _uniform_graph(2, 2)
        tree = build_tree(g, HeuristicPrior(), 6, seed=0)
        path = tmp_path / "tree.json"
        tree.dump(path)
        import json

        data = json.loads(path.read_text())
        assert data["num_nodes"] == 7
        assert data["root_complete"] is True
        roots = [n for n in data["nodes"] if n["prefix"] == []]
        assert len(roots) == 1


def _small_mlp(graph, seed=0):
    dim = graph.num_variables * (graph.num_states + 1)
    return MLPValueFunction(dim, graph.num_states, hidden_units=16, num_hidden_layers=2, seed=seed)


def _one_row_calls(tree, num, seed):
    rng = np.random.default_rng(seed)
    rows = [tree.sample(rng) for _ in range(num)]
    return rows, [tree.log_density(x) for x in rows]


class TestSampleBatch:
    """sample_batch equals successive one-row sample() calls and log_density,
    bit for bit, at the same seed."""

    def _assert_golden(self, tree, num=120, seed=11):
        xs, log_q = tree.sample_batch(num, np.random.default_rng(seed))
        rows, densities = _one_row_calls(tree, num, seed)
        assert xs.dtype.kind == "i" and xs.shape == (num, tree.graph.num_variables)
        assert [tuple(x) for x in xs.tolist()] == rows
        assert log_q.tolist() == densities

    def test_partial_trees_with_neg_inf_entries(self):
        rng = np.random.default_rng(151)
        for trial in range(4):
            g = make_random_graph(rng, 5, 3, num_extra_factors=4, neg_inf_frac=0.25,
                                  shuffle_ordering=True)
            for cost_mode in (REWARD_EVAL, FACTOR_EVAL):
                for budget in (0, 4, 40, 400):
                    tree = build_tree(g, HeuristicPrior(), budget, seed=trial, cost_mode=cost_mode)
                    self._assert_golden(tree, seed=trial)

    def test_mlp_prior(self):
        rng = np.random.default_rng(157)
        for trial in range(3):
            g = make_random_graph(rng, 5, 3, num_extra_factors=3, neg_inf_frac=0.2)
            for budget in (0, 15, 60):
                tree = build_tree(g, _small_mlp(g, seed=trial), budget, seed=trial)
                self._assert_golden(tree, seed=trial)

    def test_complete_tree(self):
        rng = np.random.default_rng(163)
        g = make_random_graph(rng, 3, 3, num_extra_factors=2, neg_inf_frac=0.3)
        tree = build_tree(g, HeuristicPrior(), exhaustive_budget(g), seed=1)
        assert tree.root_complete()
        self._assert_golden(tree, num=1000)

    def test_seed_none_uses_tree_seed(self):
        g = _uniform_graph(3, 2)
        tree = build_tree(g, HeuristicPrior(), 3, seed=8)
        xs, _ = tree.sample_batch(5)
        assert np.array_equal(xs, tree.sample_batch(5, np.random.default_rng(8))[0])

    def test_zero_draws(self):
        tree = build_tree(_uniform_graph(3, 2), HeuristicPrior(), 3, seed=0)
        xs, log_q = tree.sample_batch(0, np.random.default_rng(0))
        assert xs.shape == (0, 3) and log_q.shape == (0,)

    def test_zero_mass_raises_like_one_row_path(self):
        g = _graph(1, 2, [((1,), [-np.inf, -np.inf])])
        tree = build_tree(g, HeuristicPrior(), 10, seed=0)
        with pytest.raises(ZeroMassError):
            tree.sample_batch(50, np.random.default_rng(0))

    def test_drawn_mass_agrees_with_enumeration(self):
        rng = np.random.default_rng(167)
        g = make_random_graph(rng, 3, 3, num_extra_factors=3, neg_inf_frac=0.2)
        tree = build_tree(g, HeuristicPrior(), 12, seed=3)
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
