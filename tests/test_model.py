import json
import math

import numpy as np
import pytest

from treesample.generators import GeneratorSpec, generate
from treesample.logmath import NEG_INF
from treesample.model import (
    BudgetLedger,
    BudgetTooSmallError,
    FACTOR_EVAL,
    Factor,
    FactorGraph,
    REWARD_EVAL,
    graph_from_json_dict,
    graph_to_json_dict,
    load_graph,
    save_graph,
)

from conftest import all_configs, make_graph, make_random_graph, reference_factor_sums


def _density_by_lookup(g, x):
    """Sum of every factor's row-major table entry at the configuration x
    (depth order), one scalar add per factor in the batch routine's order:
    depth by depth."""
    total = 0.0
    for depth in range(g.num_variables + 1):
        for cf in g.factors_at_depth(depth):
            idx = 0
            for v in cf.factor.scope:
                idx = idx * g.num_states + (x[g.depth_of(v) - 1] - 1)
            total += float(cf.factor.table[idx])
    return total


class TestReward:
    def test_empty_depth_is_zero(self):
        # depth 2 carries no factor: (1,) resolves at depth 1, (2,3) at depth 3
        g = make_graph(3, 2, [((1,), [0.1, 0.2]), ((2, 3), np.arange(4.0))])
        assert g.reward((1, 2)) == 0.0
        assert g.reward((2, 1)) == 0.0

    def test_unary_lookup(self):
        g = make_graph(1, 2, [((1,), [0.3, -0.7])])
        assert g.reward((2,)) == pytest.approx(-0.7)

    def test_partition_sums_to_density(self):
        # psi_a(x1,x3), psi_b(x2): M_1 empty, M_2={b}, M_3={a}; checked by
        # exhaustive enumeration of all 8 configurations.
        rng = np.random.default_rng(7)
        g = make_graph(3, 2, [((1, 3), rng.normal(size=4)), ((2,), rng.normal(size=2))])
        assert g.factors_at_depth(1) == ()
        assert len(g.factors_at_depth(2)) == 1
        assert len(g.factors_at_depth(3)) == 1
        for x in all_configs(3, 2):
            direct = _density_by_lookup(g, x)
            via_rewards = sum(g.reward(x[:d]) for d in range(1, 4))
            assert via_rewards == pytest.approx(direct, abs=1e-12)

    def test_out_of_range_value_rejected(self):
        g = make_graph(2, 2, [((1,), [0.0, 0.0]), ((2,), [0.0, 0.0])])
        for prefix in [(3,), (0,), (1, 3), (0, 1), (), (1, 1, 1)]:
            with pytest.raises(ValueError):
                g.reward(prefix)

    def test_value_at_reads_every_table_cell(self):
        # the scalar lookup's Python-int indices and list copy give the
        # table entry itself, -inf included, as a Python float
        rng = np.random.default_rng(19)
        for trial in range(12):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            g = make_random_graph(rng, n, k, num_extra_factors=3, shuffle_ordering=bool(trial % 2),
                                  neg_inf_frac=0.3)
            for depth in range(1, n + 1):
                for cf in g.factors_at_depth(depth):
                    seen = set()
                    for x in all_configs(depth, k):
                        idx = 0
                        for v in cf.factor.scope:
                            idx = idx * k + (x[g.depth_of(v) - 1] - 1)
                        got = cf.value_at(x)
                        assert type(got) is float
                        assert got == float(cf.factor.table[idx])
                        seen.add(idx)
                    assert seen == set(range(len(cf.factor.table)))

    def test_neg_inf_propagates(self):
        g = make_graph(2, 2, [((1,), [-np.inf, 0.0]), ((1, 2), np.ones(4))])
        assert g.reward((1,)) == -np.inf
        assert g.log_unnormalized_density((1, 1)) == -np.inf


class TestRewardCost:
    def test_factor_eval_counts_factors(self):
        g = make_graph(2, 2, [((2,), [0.0, 0.0]), ((1, 2), np.zeros(4)), ((1, 2), np.zeros(4)), ((1,), [0.0, 0.0])])
        assert g.reward_cost(2, FACTOR_EVAL) == 3
        assert g.reward_cost(2, REWARD_EVAL) == 1
        assert g.reward_cost(1, FACTOR_EVAL) == 1

    def test_empty_depth_factor_eval_is_free(self):
        # depth 2 resolves no factor: (1,) at depth 1, (2,3) and (1,2,3) at depth 3
        g = make_graph(3, 2, [((1,), [0.0, 0.0]), ((2, 3), np.zeros(4)), ((1, 2, 3), np.zeros(8))])
        assert g.reward_cost(2, FACTOR_EVAL) == 0
        assert g.reward_cost(2, REWARD_EVAL) == 1
        assert g.reward_cost(3, FACTOR_EVAL) == 2

    @pytest.mark.parametrize("depth", [0, 3])
    def test_depth_out_of_range_rejected(self, depth):
        g = make_graph(2, 2, [((1, 2), np.zeros(4))])
        with pytest.raises(ValueError, match="depth out of range"):
            g.reward_cost(depth)

    def test_unknown_cost_mode_rejected(self):
        g = make_graph(2, 2, [((1, 2), np.zeros(4))])
        with pytest.raises(ValueError, match="unknown cost mode 'bogus'"):
            g.reward_cost(1, "bogus")


class TestLogUnnormalizedDensity:
    def test_all_zero_factors(self):
        g = make_graph(3, 2, [((1,), np.zeros(2)), ((2,), np.zeros(2)), ((3,), np.zeros(2))])
        for x in all_configs(3, 2):
            assert g.log_unnormalized_density(x) == 0.0

    def test_neg_inf_entry(self):
        t = np.zeros(4)
        t[0] = -np.inf
        g = make_graph(2, 2, [((1, 2), t)])
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
        g = make_graph(2, 2, [((1,), np.zeros(2)), ((2,), np.zeros(2))])
        with pytest.raises(ValueError):
            g.log_unnormalized_density((1,))


class TestLogUnnormalizedDensityBatch:
    def test_rows_equal_scalar_bit_for_bit(self):
        rng = np.random.default_rng(71)
        for trial in range(6):
            g = make_random_graph(rng, 4, 3, num_extra_factors=4, neg_inf_frac=0.2,
                                  shuffle_ordering=True)
            xs = np.array(list(all_configs(4, 3)))
            expected = [_density_by_lookup(g, x) for x in xs.tolist()]
            assert g.log_unnormalized_density_batch(xs).tolist() == expected
            assert [g.log_unnormalized_density(x) for x in xs.tolist()] == expected

    def test_empty_batch(self):
        g = make_graph(2, 2, [((1, 2), [0.0, 1.0, 2.0, 3.0])])
        assert g.log_unnormalized_density_batch(np.zeros((0, 2), dtype=int)).shape == (0,)

    def test_bad_rows_rejected(self):
        g = make_graph(2, 2, [((1, 2), [0.0, 1.0, 2.0, 3.0])])
        for xs in ([[1]], [[1, 3]], [[0, 1]], [1, 2]):
            with pytest.raises(ValueError):
                g.log_unnormalized_density_batch(xs)


class TestRewardBatch:
    def test_rows_equal_scalar_bit_for_bit(self):
        rng = np.random.default_rng(73)
        for trial in range(6):
            g = make_random_graph(rng, 4, 3, num_extra_factors=4, neg_inf_frac=0.2,
                                  shuffle_ordering=True)
            xs = np.array(list(all_configs(4, 3)))
            for depth in range(1, 5):
                expected = [g.reward(tuple(x)) for x in xs[:, :depth].tolist()]
                assert g.reward_batch(xs[:, :depth]).tolist() == expected

    def test_empty_batch(self):
        g = make_graph(2, 2, [((1, 2), [0.0, 1.0, 2.0, 3.0])])
        assert g.reward_batch(np.zeros((0, 1), dtype=int)).shape == (0,)

    def test_bad_rows_rejected(self):
        g = make_graph(2, 2, [((1, 2), [0.0, 1.0, 2.0, 3.0])])
        for xs in (np.zeros((1, 0), dtype=int), [[1, 1, 1]], [[1, 3]], [[0, 1]], [1, 2]):
            with pytest.raises(ValueError):
                g.reward_batch(xs)


class TestFactorGather:
    """reward_batch at every depth and log_unnormalized_density_batch equal
    conftest.reference_factor_sums byte for byte, signed zeros included, on
    graphs of all four families and on random graphs."""

    @staticmethod
    def _assert_gathers_match(g, rng):
        n, k = g.num_variables, g.num_states
        for s in (1, 2, 57):
            xs = rng.integers(1, k + 1, size=(s, n))
            got = g.log_unnormalized_density_batch(xs)
            assert got.tobytes() == reference_factor_sums(g, xs).tobytes()
            for depth in range(1, n + 1):
                got = g.reward_batch(xs[:, :depth])
                assert got.tobytes() == reference_factor_sums(g, xs, depth).tobytes()

    @staticmethod
    def _with_special_entries(g, rng):
        """g with about a third of its table entries made -inf, 0.0 or -0.0."""
        factors = []
        for f in g.factors:
            table = f.table.copy()
            hit = rng.random(len(table)) < 0.35
            table[hit] = rng.choice([NEG_INF, 0.0, -0.0], size=int(hit.sum()))
            factors.append(Factor(scope=f.scope, table=table))
        return FactorGraph(g.num_variables, g.num_states, tuple(factors), g.ordering)

    @pytest.mark.parametrize("family, n, k", [("fg1", 7, 3), ("fg2", 8, 2), ("chains", 6, 4),
                                              ("permuted_chains", 7, 3)])
    def test_families_match_the_scalar_loop(self, family, n, k):
        rng = np.random.default_rng(79)
        for seed in range(3):
            g = generate(GeneratorSpec(family=family, n=n, k=k, seed=seed))
            self._assert_gathers_match(g, rng)
            self._assert_gathers_match(self._with_special_entries(g, rng), rng)

    def test_random_graphs_match_the_scalar_loop(self):
        # shuffled orderings, scopes of up to four variables, so factors of
        # mixed arity share the padded block
        rng = np.random.default_rng(83)
        for trial in range(10):
            g = make_random_graph(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)),
                                  num_extra_factors=int(rng.integers(0, 6)), max_scope=4,
                                  shuffle_ordering=True, neg_inf_frac=0.3)
            self._assert_gathers_match(self._with_special_entries(g, rng), rng)


class TestPartitionProperty:
    def test_each_factor_at_exactly_one_depth(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            g = make_random_graph(rng, 5, 2, num_extra_factors=5, shuffle_ordering=True)
            seen = []
            for d in range(1, 6):
                seen.extend(g.factors.index(cf.factor) for cf in g.factors_at_depth(d))
            assert sorted(seen) == list(range(g.num_factors))

    def test_depth_equals_max_ordering_position(self):
        g = make_graph(3, 2, [((1, 3), np.zeros(4)), ((2,), np.zeros(2)), ((1,), np.zeros(2))], ordering=(3, 2, 1))
        # positions: var3->1, var2->2, var1->3; factor (1,3) resolves at depth 3
        assert [g.factors.index(cf.factor) for cf in g.factors_at_depth(3)] == [0, 2]
        assert [g.factors.index(cf.factor) for cf in g.factors_at_depth(2)] == [1]


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            make_graph(1, 2, [((1,), [np.nan, 0.0])])

    def test_pos_inf_rejected(self):
        with pytest.raises(ValueError):
            make_graph(1, 2, [((1,), [np.inf, 0.0])])

    def test_bad_scope(self):
        with pytest.raises(ValueError):
            make_graph(2, 2, [((2, 1), np.zeros(4)), ((1,), np.zeros(2))])
        with pytest.raises(ValueError):
            make_graph(2, 2, [((0,), np.zeros(2)), ((1,), np.zeros(2)), ((2,), np.zeros(2))])

    def test_wrong_table_length(self):
        with pytest.raises(ValueError):
            make_graph(2, 3, [((1, 2), np.zeros(8)), ((1,), np.zeros(3)), ((2,), np.zeros(3))])

    def test_uncovered_variable(self):
        with pytest.raises(ValueError):
            make_graph(2, 2, [((1,), np.zeros(2))])

    def test_bad_ordering(self):
        with pytest.raises(ValueError):
            make_graph(2, 2, [((1,), np.zeros(2)), ((2,), np.zeros(2))], ordering=(1, 1))


class TestBudgetLedger:
    def test_charge_to_limit(self):
        led = BudgetLedger(budget=10, spent=9)
        led.charge(1)
        assert led.spent == 10

    def test_exhaustion_leaves_spent(self):
        # a charge past the budget is an accounting bug: it raises, and
        # spent keeps its value
        led = BudgetLedger(budget=10, spent=10)
        with pytest.raises(RuntimeError, match="internal accounting error"):
            led.charge(1)
        assert led.spent == 10
        led = BudgetLedger(budget=10, spent=9)
        with pytest.raises(RuntimeError, match="internal accounting error"):
            led.charge(2)
        assert led.spent == 9

    def test_zero_charge(self):
        led = BudgetLedger(budget=10)
        led.charge(0)
        assert led.spent == 0

    def test_total_equals_sum_of_charges(self):
        rng = np.random.default_rng(0)
        led = BudgetLedger(budget=50)
        total = 0
        for _ in range(100):
            amt = int(rng.integers(0, 4))
            if amt <= led.remaining:
                led.charge(amt)
                total += amt
            else:
                with pytest.raises(RuntimeError):
                    led.charge(amt)
            assert led.spent == total
            assert led.spent <= led.budget

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            BudgetLedger(budget=1).charge(-1)

    def test_negative_budget_and_unknown_cost_mode_rejected(self):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            BudgetLedger(budget=-1)
        with pytest.raises(ValueError, match="cost_mode must be one of"):
            BudgetLedger(budget=1, cost_mode="bogus")

    def test_count_sizes_the_work_or_raises(self):
        led = BudgetLedger(budget=10)
        assert led.count(3, "one sample") == 3
        assert led.count(10, "one sample") == 1
        with pytest.raises(BudgetTooSmallError, match=r"budget 10 cannot pay for one rollout "
                                                       r"\(cost 11\)"):
            led.count(11, "one rollout")
        assert led.spent == 0


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

    @pytest.mark.parametrize("entry, value, name", [
        ("n", 2.0, "n"), ("n", True, "n"), ("k", "2", "k"),
        ("ordering", [1.0, 2], "ordering entry"), ("scope", [True, 2], "factor 0 scope entry"),
    ])
    def test_integer_entry_of_another_type_rejected(self, entry, value, name):
        # Python's int() would truncate 2.9, parse "2" and take True as 1
        data = graph_to_json_dict(make_graph(2, 2, [((1, 2), np.zeros(4))]))
        if entry == "scope":
            data["factors"][0]["scope"] = value
        else:
            data[entry] = value
        with pytest.raises(TypeError, match=f"^{name} must be of type int$"):
            graph_from_json_dict(data)

    def test_neg_inf_encoded_as_string(self):
        t = np.array([0.5, -np.inf])
        g = make_graph(1, 2, [((1,), t)])
        data = graph_to_json_dict(g)
        assert data["factors"][0]["log_table"] == [0.5, "-inf"]
