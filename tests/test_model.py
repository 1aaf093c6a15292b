import json
import math

import numpy as np
import pytest

from treesample.model import (
    BudgetLedger,
    FACTOR_EVAL,
    Factor,
    FactorGraph,
    REWARD_EVAL,
    graph_from_json_dict,
    graph_to_json_dict,
    load_graph,
    save_graph,
)

from conftest import all_configs, make_random_graph


def _graph(n, k, factors, ordering=None):
    return FactorGraph(
        num_variables=n,
        num_states=k,
        factors=tuple(Factor(id=i, scope=s, table=np.asarray(t, dtype=float)) for i, (s, t) in enumerate(factors)),
        ordering=tuple(ordering or range(1, n + 1)),
    )


class TestReward:
    def test_empty_depth_is_zero(self):
        # depth 2 carries no factor: (1,) resolves at depth 1, (2,3) at depth 3
        g = _graph(3, 2, [((1,), [0.1, 0.2]), ((2, 3), np.arange(4.0))])
        assert g.reward((1, 2)) == 0.0
        assert g.reward((2, 1)) == 0.0

    def test_unary_lookup(self):
        g = _graph(1, 2, [((1,), [0.3, -0.7])])
        assert g.reward((2,)) == pytest.approx(-0.7)

    def test_partition_sums_to_density(self):
        # psi_a(x1,x3), psi_b(x2): M_1 empty, M_2={b}, M_3={a}; checked by
        # exhaustive enumeration of all 8 configurations.
        rng = np.random.default_rng(7)
        g = _graph(3, 2, [((1, 3), rng.normal(size=4)), ((2,), rng.normal(size=2))])
        assert g.factors_at_depth(1) == ()
        assert len(g.factors_at_depth(2)) == 1
        assert len(g.factors_at_depth(3)) == 1
        for x in all_configs(3, 2):
            direct = sum(
                f.value([x[v - 1] for v in f.scope], g.num_states) for f in g.factors
            )
            via_rewards = sum(g.reward(x[:d]) for d in range(1, 4))
            assert via_rewards == pytest.approx(direct, abs=1e-12)

    def test_out_of_range_value_rejected(self):
        g = _graph(2, 2, [((1,), [0.0, 0.0]), ((2,), [0.0, 0.0])])
        with pytest.raises(ValueError):
            g.reward((3,))
        with pytest.raises(ValueError):
            g.reward(())

    def test_neg_inf_propagates(self):
        g = _graph(2, 2, [((1,), [-np.inf, 0.0]), ((1, 2), np.ones(4))])
        assert g.reward((1,)) == -np.inf
        assert g.log_unnormalized_density((1, 1)) == -np.inf


class TestRewardCost:
    def test_factor_eval_counts_factors(self):
        g = _graph(2, 2, [((2,), [0.0, 0.0]), ((1, 2), np.zeros(4)), ((1, 2), np.zeros(4)), ((1,), [0.0, 0.0])])
        assert g.reward_cost(2, FACTOR_EVAL) == 3
        assert g.reward_cost(2, REWARD_EVAL) == 1
        assert g.reward_cost(1, FACTOR_EVAL) == 1

    def test_empty_depth_factor_eval_is_free(self):
        # depth 2 resolves no factor: (1,) at depth 1, (2,3) and (1,2,3) at depth 3
        g = _graph(3, 2, [((1,), [0.0, 0.0]), ((2, 3), np.zeros(4)), ((1, 2, 3), np.zeros(8))])
        assert g.reward_cost(2, FACTOR_EVAL) == 0
        assert g.reward_cost(2, REWARD_EVAL) == 1
        assert g.reward_cost(3, FACTOR_EVAL) == 2


class TestLogUnnormalizedDensity:
    def test_all_zero_factors(self):
        g = _graph(3, 2, [((1,), np.zeros(2)), ((2,), np.zeros(2)), ((3,), np.zeros(2))])
        for x in all_configs(3, 2):
            assert g.log_unnormalized_density(x) == 0.0

    def test_neg_inf_entry(self):
        t = np.zeros(4)
        t[0] = -np.inf
        g = _graph(2, 2, [((1, 2), t)])
        assert g.log_unnormalized_density((1, 1)) == -np.inf
        assert g.log_unnormalized_density((2, 2)) == 0.0

    def test_equals_reward_sum_random(self):
        rng = np.random.default_rng(11)
        g = make_random_graph(rng, 4, 3, num_extra_factors=4, shuffle_ordering=True)
        for _ in range(100):
            x = tuple(rng.integers(1, 4, size=4).tolist())
            direct = g.log_unnormalized_density(x)
            summed = sum(g.reward(x[:d]) for d in range(1, 5))
            assert summed == pytest.approx(direct, abs=1e-12)

    def test_incomplete_rejected(self):
        g = _graph(2, 2, [((1,), np.zeros(2)), ((2,), np.zeros(2))])
        with pytest.raises(ValueError):
            g.log_unnormalized_density((1,))


class TestLogUnnormalizedDensityBatch:
    def test_rows_equal_scalar_bit_for_bit(self):
        rng = np.random.default_rng(71)
        for trial in range(6):
            g = make_random_graph(rng, 4, 3, num_extra_factors=4, neg_inf_frac=0.2,
                                  shuffle_ordering=True)
            xs = np.array(list(all_configs(4, 3)))
            expected = [g.log_unnormalized_density(tuple(x)) for x in xs.tolist()]
            assert g.log_unnormalized_density_batch(xs).tolist() == expected

    def test_empty_batch(self):
        g = _graph(2, 2, [((1, 2), [0.0, 1.0, 2.0, 3.0])])
        assert g.log_unnormalized_density_batch(np.zeros((0, 2), dtype=int)).shape == (0,)

    def test_bad_rows_rejected(self):
        g = _graph(2, 2, [((1, 2), [0.0, 1.0, 2.0, 3.0])])
        for xs in ([[1]], [[1, 3]], [[0, 1]], [1, 2]):
            with pytest.raises(ValueError):
                g.log_unnormalized_density_batch(xs)


class TestPartitionProperty:
    def test_each_factor_at_exactly_one_depth(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            g = make_random_graph(rng, 5, 2, num_extra_factors=5, shuffle_ordering=True)
            seen = []
            for d in range(1, 6):
                seen.extend(cf.factor.id for cf in g.factors_at_depth(d))
            assert sorted(seen) == list(range(g.num_factors))

    def test_depth_equals_max_ordering_position(self):
        g = _graph(3, 2, [((1, 3), np.zeros(4)), ((2,), np.zeros(2)), ((1,), np.zeros(2))], ordering=(3, 2, 1))
        # positions: var3->1, var2->2, var1->3; factor (1,3) resolves at depth 3
        assert [cf.factor.id for cf in g.factors_at_depth(3)] == [0, 2]
        assert [cf.factor.id for cf in g.factors_at_depth(2)] == [1]


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            _graph(1, 2, [((1,), [np.nan, 0.0])])

    def test_pos_inf_rejected(self):
        with pytest.raises(ValueError):
            _graph(1, 2, [((1,), [np.inf, 0.0])])

    def test_bad_scope(self):
        with pytest.raises(ValueError):
            _graph(2, 2, [((2, 1), np.zeros(4)), ((1,), np.zeros(2))])
        with pytest.raises(ValueError):
            _graph(2, 2, [((0,), np.zeros(2)), ((1,), np.zeros(2)), ((2,), np.zeros(2))])

    def test_wrong_table_length(self):
        with pytest.raises(ValueError):
            _graph(2, 3, [((1, 2), np.zeros(8)), ((1,), np.zeros(3)), ((2,), np.zeros(3))])

    def test_uncovered_variable(self):
        with pytest.raises(ValueError):
            _graph(2, 2, [((1,), np.zeros(2))])

    def test_bad_ordering(self):
        with pytest.raises(ValueError):
            _graph(2, 2, [((1,), np.zeros(2)), ((2,), np.zeros(2))], ordering=(1, 1))


class TestBudgetLedger:
    def test_charge_to_limit(self):
        led = BudgetLedger(budget=10, spent=9)
        assert led.charge(1)
        assert led.spent == 10

    def test_exhaustion_leaves_spent(self):
        led = BudgetLedger(budget=10, spent=10)
        assert not led.charge(1)
        assert led.spent == 10

    def test_zero_charge(self):
        led = BudgetLedger(budget=10)
        assert led.charge(0)
        assert led.spent == 0

    def test_total_equals_sum_of_charges(self):
        rng = np.random.default_rng(0)
        led = BudgetLedger(budget=50)
        total = 0
        for _ in range(100):
            amt = int(rng.integers(0, 4))
            if led.charge(amt):
                total += amt
            assert led.spent == total
            assert led.spent <= led.budget

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            BudgetLedger(budget=1).charge(-1)


class TestJsonRoundTrip:
    def test_bit_exact_finite_and_neg_inf(self, tmp_path):
        rng = np.random.default_rng(5)
        g = make_random_graph(rng, 4, 3, num_extra_factors=3, shuffle_ordering=True, neg_inf_frac=0.2)
        data = graph_to_json_dict(g)
        text = json.dumps(data)
        g2 = graph_from_json_dict(json.loads(text))
        assert g2.num_variables == g.num_variables
        assert g2.num_states == g.num_states
        assert g2.ordering == g.ordering
        for f, f2 in zip(g.factors, g2.factors):
            assert f.scope == f2.scope
            assert np.array_equal(f.table, f2.table)  # bit-exact incl -inf

        path = tmp_path / "g.json"
        save_graph(g, path)
        g3 = load_graph(path)
        for f, f3 in zip(g.factors, g3.factors):
            assert np.array_equal(f.table, f3.table)

    def test_neg_inf_encoded_as_string(self):
        t = np.array([0.5, -np.inf])
        g = _graph(1, 2, [((1,), t)])
        data = graph_to_json_dict(g)
        assert data["factors"][0]["log_table"] == [0.5, "-inf"]
