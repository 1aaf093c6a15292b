import math

import numpy as np
import pytest

from treesample.exact import solve_exact
from treesample.model import Factor, FactorGraph
from treesample.prior import (
    Adam,
    HeuristicPrior,
    MLPValueFunction,
    ReplayBuffer,
    TrainConfig,
    encode_batch,
    load_checkpoint,
    save_checkpoint,
    train_loop,
    train_step,
)
from treesample.search import build_tree

from conftest import all_configs, q_values


def _uniform_graph(n, k, ordering=None):
    return FactorGraph(
        num_variables=n,
        num_states=k,
        factors=tuple(Factor(scope=(v,), table=np.zeros(k)) for v in range(1, n + 1)),
        ordering=tuple(ordering or range(1, n + 1)),
    )


class TestHeuristicPrior:
    def test_last_variable_is_zero(self):
        g = _uniform_graph(4, 3)
        assert np.array_equal(HeuristicPrior().evaluate(g, (1, 2, 3)), np.zeros(3))

    def test_first_variable_value(self):
        g = _uniform_graph(10, 5)
        q = HeuristicPrior().evaluate(g, ())
        assert np.allclose(q, 9 * math.log(5))

    def test_equals_exact_on_uniform_graph(self):
        g = _uniform_graph(5, 3)
        sol = solve_exact(g)
        h = HeuristicPrior()
        for prefix in [(), (1,), (2, 3), (1, 1, 1), (3, 2, 1, 3)]:
            assert np.array_equal(q_values(sol, prefix), h.evaluate(g, prefix))

    def test_complete_prefix_rejected(self):
        g = _uniform_graph(2, 2)
        with pytest.raises(ValueError):
            HeuristicPrior().evaluate(g, (1, 2))


def encode_one(graph, prefix):
    return encode_batch(graph, [prefix])[0]


class TestEncodePrefix:
    def test_empty_prefix(self):
        g = _uniform_graph(2, 2)
        assert np.array_equal(encode_one(g, ()), [0, 0, 1, 0, 0, 1])

    def test_partial_prefix(self):
        g = _uniform_graph(2, 2)
        assert np.array_equal(encode_one(g, (2,)), [0, 1, 0, 0, 0, 1])

    def test_complete_prefix_has_no_flags(self):
        g = _uniform_graph(3, 2)
        enc = encode_one(g, (1, 2, 1)).reshape(3, 3)
        assert np.all(enc[:, 2] == 0)

    def test_respects_ordering(self):
        g = _uniform_graph(2, 2, ordering=(2, 1))
        # depth-1 value assigns variable 2
        assert np.array_equal(encode_one(g, (1,)), [0, 0, 1, 1, 0, 0])

    def test_array_rows(self):
        g = _uniform_graph(3, 2, ordering=(2, 3, 1))
        rows = np.array([[1, 2], [2, 1]])
        assert np.array_equal(encode_batch(g, rows), [[0, 0, 1, 1, 0, 0, 0, 1, 0],
                                                      [0, 0, 1, 0, 1, 0, 1, 0, 0]])

    def test_injective(self):
        g = _uniform_graph(3, 2)
        seen = set()
        prefixes = [()]
        for n in range(1, 4):
            prefixes.extend(all_configs(n, 2))
        for p in prefixes:
            seen.add(tuple(encode_one(g, tuple(p)).tolist()))
        assert len(seen) == len(prefixes)


def _mixed_prefixes(n, k):
    prefixes = [()]
    for length in range(1, n):
        prefixes.extend(all_configs(length, k))
    return prefixes


class TestBatchEvaluation:
    """Batch calls equal the per-prefix calls bit for bit."""

    def test_encode_batch_rows_match_single_prefixes(self):
        g = _uniform_graph(4, 3, ordering=(3, 1, 4, 2))
        prefixes = _mixed_prefixes(4, 3)
        expected = np.stack([encode_one(g, p) for p in prefixes])
        assert np.array_equal(encode_batch(g, prefixes), expected)
        same_length = np.array(list(all_configs(2, 3)))
        expected = np.stack([encode_one(g, tuple(p)) for p in same_length.tolist()])
        assert np.array_equal(encode_batch(g, same_length), expected)

    def test_empty_batch(self):
        g = _uniform_graph(3, 2)
        assert encode_batch(g, []).shape == (0, 9)
        assert HeuristicPrior().evaluate_batch(g, np.zeros((0, 1), dtype=int)).shape == (0, 2)

    def test_heuristic_batch_matches_evaluate(self):
        g = _uniform_graph(4, 3)
        h = HeuristicPrior()
        prefixes = _mixed_prefixes(4, 3)
        expected = np.stack([h.evaluate(g, p) for p in prefixes])
        assert np.array_equal(h.evaluate_batch(g, prefixes), expected)
        rows = np.array(list(all_configs(2, 3)))
        out = h.evaluate_batch(g, rows)
        assert np.array_equal(out, np.stack([h.evaluate(g, (1, 1))] * 9))
        # an equal-length array gives one read-only row, broadcast
        assert out.strides[0] == 0 and not out.flags.writeable

    def test_heuristic_batch_calls_evaluate_once_per_length(self, monkeypatch):
        g = _uniform_graph(4, 3)
        calls = []
        evaluate = HeuristicPrior.evaluate

        def counted(prior, graph, prefix):
            calls.append(len(prefix))
            return evaluate(prior, graph, prefix)

        monkeypatch.setattr(HeuristicPrior, "evaluate", counted)
        HeuristicPrior().evaluate_batch(g, [(), (1,), (2,), (1, 2, 3), (3,)])
        assert sorted(calls) == [0, 1, 3]
        calls.clear()
        HeuristicPrior().evaluate_batch(g, np.ones((7, 2), dtype=np.int64))
        assert calls == [2]

    def test_mlp_batch_matches_evaluate(self):
        g = _uniform_graph(4, 3, ordering=(2, 4, 1, 3))
        mlp = MLPValueFunction(16, 3, hidden_units=32, num_hidden_layers=3, seed=5)
        prefixes = _mixed_prefixes(4, 3)
        expected = np.stack([mlp.evaluate(g, p) for p in prefixes])
        assert np.array_equal(mlp.evaluate_batch(g, prefixes), expected)


class TestMlp:
    def test_zero_parameters_give_zero(self):
        mlp = MLPValueFunction(4, 2, hidden_units=8, num_hidden_layers=2, seed=0)
        mlp.set_flat(np.zeros(mlp.num_parameters()))
        assert np.array_equal(mlp.forward(np.ones((3, 4))), np.zeros((3, 2)))

    def test_single_unit_analytic(self):
        mlp = MLPValueFunction(1, 1, hidden_units=1, num_hidden_layers=1, seed=0)
        # out = w2 * relu(w1*x + b1) + b2 with w1=2, b1=-1, w2=3, b2=0.5
        mlp.set_flat(np.array([2.0, -1.0, 3.0, 0.5]))
        x = np.array([[2.0], [-1.0]])
        out = mlp.forward(x)
        assert out[0, 0] == pytest.approx(3.0 * max(2.0 * 2.0 - 1.0, 0.0) + 0.5)
        assert out[1, 0] == pytest.approx(0.5)  # relu clips the negative branch

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        for trial in range(3):
            mlp = MLPValueFunction(5, 3, hidden_units=7, num_hidden_layers=2, seed=trial)
            x = rng.normal(size=(4, 5))
            y = rng.normal(size=(4, 3))
            _, grads = mlp.loss_and_gradients(x, y)
            flat_grad = np.concatenate([g.ravel() for g in grads])
            theta = mlp.get_flat()
            h = 1e-5
            idx = rng.choice(theta.size, size=40, replace=False)
            for i in idx:
                bump = np.zeros_like(theta)
                bump[i] = h
                mlp.set_flat(theta + bump)
                up, _ = mlp.loss_and_gradients(x, y)
                mlp.set_flat(theta - bump)
                down, _ = mlp.loss_and_gradients(x, y)
                mlp.set_flat(theta)
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(flat_grad[i]), 1e-8)
                assert abs(fd - flat_grad[i]) / denom < 1e-4

    def test_nan_parameters_hard_error(self):
        mlp = MLPValueFunction(2, 2, hidden_units=4, num_hidden_layers=1, seed=0)
        flat = mlp.get_flat()
        flat[0] = np.nan
        mlp.set_flat(flat)
        with pytest.raises(ValueError, match="NaN"):
            mlp.forward(np.ones((1, 2)))

    def test_prior_interface_shape(self):
        # evaluate: a list of K Python floats; evaluate_batch: an (R, K) array
        g = _uniform_graph(3, 2)
        mlp = MLPValueFunction(9, 2, hidden_units=8, num_hidden_layers=2, seed=1)
        for prior in (HeuristicPrior(), mlp):
            q = prior.evaluate(g, (1,))
            assert type(q) is list and len(q) == 2
            assert all(type(v) is float for v in q)
            batch = prior.evaluate_batch(g, [(), (1,), (2, 2)])
            assert isinstance(batch, np.ndarray)
            assert batch.shape == (3, 2) and batch.dtype == np.float64
            assert batch[1].tolist() == q


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3, input_dim=1, output_dim=1)
        for i in range(5):
            buf.add(np.array([float(i)]), np.array([float(i)]))
        assert len(buf) == 3
        kept = sorted(buf.inputs[:, 0].tolist())
        assert kept == [2.0, 3.0, 4.0]

    def test_uniform_sampling(self):
        buf = ReplayBuffer(capacity=4, input_dim=1, output_dim=1)
        for i in range(4):
            buf.add(np.array([float(i)]), np.array([0.0]))
        rng = np.random.default_rng(0)
        x, _ = buf.sample_batch(8000, rng)
        counts = np.bincount(x[:, 0].astype(int), minlength=4)
        assert counts.min() > 1800


class TestTrainStep:
    def test_perfect_targets_leave_parameters(self):
        mlp = MLPValueFunction(3, 2, hidden_units=8, num_hidden_layers=2, seed=3)
        buf = ReplayBuffer(capacity=4, input_dim=3, output_dim=2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=3)
        buf.add(x, mlp.forward(x[None, :])[0])
        adam = Adam(mlp.parameters())
        before = mlp.get_flat().copy()
        loss = train_step(mlp, buf, batch_size=1, adam=adam, rng=rng)
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert np.array_equal(mlp.get_flat(), before)  # zero gradient, zero update

    def test_overfits_single_example(self):
        mlp = MLPValueFunction(4, 3, hidden_units=32, num_hidden_layers=2, seed=4)
        buf = ReplayBuffer(capacity=1, input_dim=4, output_dim=3)
        rng = np.random.default_rng(5)
        buf.add(rng.normal(size=4), rng.normal(size=3))
        adam = Adam(mlp.parameters(), learning_rate=3e-4)
        losses = [train_step(mlp, buf, 1, adam, rng) for _ in range(5000)]
        assert losses[-1] < 1e-3
        assert losses[-1] < losses[0]

    def test_neg_inf_targets_clamped(self):
        mlp = MLPValueFunction(2, 2, hidden_units=4, num_hidden_layers=1, seed=6)
        buf = ReplayBuffer(capacity=1, input_dim=2, output_dim=2)
        buf.add(np.ones(2), np.array([-np.inf, 1.0]))
        adam = Adam(mlp.parameters())
        loss = train_step(mlp, buf, 1, adam, np.random.default_rng(0), clamp_floor=-50.0)
        assert math.isfinite(loss)

    def test_requires_enough_data(self):
        mlp = MLPValueFunction(2, 2, hidden_units=4, num_hidden_layers=1, seed=6)
        buf = ReplayBuffer(capacity=8, input_dim=2, output_dim=2)
        with pytest.raises(ValueError):
            train_step(mlp, buf, 4, Adam(mlp.parameters()), np.random.default_rng(0))


class TestTrainConfig:
    def test_search_params_validated(self):
        for key, value in (("c", float("nan")), ("c", -1.0), ("epsilon", -1.0),
                           ("epsilon", float("inf"))):
            with pytest.raises(ValueError, match=f"{key} must be finite and non-negative"):
                TrainConfig(**{key: value})
        TrainConfig(c=0.0, epsilon=0.0)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        mlp = MLPValueFunction(6, 2, hidden_units=8, num_hidden_layers=2, seed=7)
        adam = Adam(mlp.parameters(), learning_rate=1e-3)
        buf = ReplayBuffer(capacity=4, input_dim=6, output_dim=2)
        rng = np.random.default_rng(2)
        for _ in range(4):
            buf.add(rng.normal(size=6), rng.normal(size=2))
        for _ in range(10):
            train_step(mlp, buf, 2, adam, rng)
        config = TrainConfig(episodes=5, seed=7, learning_rate=1e-3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, adam, episode=3, config=config)
        mlp2, adam2, episode, config2 = load_checkpoint(path)
        assert episode == 3
        assert config2 == config
        assert np.array_equal(mlp.get_flat(), mlp2.get_flat())
        assert adam2.step_count == adam.step_count
        for a, b in zip(adam.m, adam2.m):
            assert np.array_equal(a, b)
        for a, b in zip(adam.v, adam2.v):
            assert np.array_equal(a, b)
        # the loaded moments take further steps in place, as the saved ones do
        train_step(mlp, buf, 2, adam, np.random.default_rng(3))
        train_step(mlp2, buf, 2, adam2, np.random.default_rng(3))
        assert np.array_equal(mlp.get_flat(), mlp2.get_flat())
        for a, b in zip(adam.m + adam.v, adam2.m + adam2.v):
            assert np.array_equal(a, b)

    def test_load_builds_the_network_from_the_blocks(self, tmp_path, monkeypatch):
        # no random initial weights are drawn, and the network computes
        # what the saved one does, bit for bit
        mlp = MLPValueFunction(6, 2, hidden_units=8, num_hidden_layers=3, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, Adam(mlp.parameters()), episode=0, config=TrainConfig())

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        mlp2 = load_checkpoint(path)[0]
        assert (mlp2.input_dim, mlp2.output_dim, mlp2.hidden_units, mlp2.num_hidden_layers) == \
            (6, 2, 8, 3)
        assert [p.shape for p in mlp2.parameters()] == [p.shape for p in mlp.parameters()]
        x = np.random.standard_normal((5, 6))
        assert np.array_equal(mlp2.forward(x), mlp.forward(x))

    def test_rejects_truncated_blocks(self, tmp_path):
        mlp = MLPValueFunction(6, 2, hidden_units=8, num_hidden_layers=2, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, Adam(mlp.parameters()), episode=0, config=TrainConfig())
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="block size"):
            load_checkpoint(path)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"format": "other"}\n')
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestPriorDistribution:
    """The distribution a prior induces is sampled by a tree with no expansions."""

    def test_heuristic_prior_is_uniform(self):
        g = _uniform_graph(3, 2)
        dist = build_tree(g, HeuristicPrior(), 0)
        for x in all_configs(3, 2):
            assert dist.log_density(x) == pytest.approx(-3 * math.log(2), abs=1e-12)
        rng = np.random.default_rng(0)
        assert len(dist.sample(rng)) == 3


class TestTrainLoop:
    def _small_mlp(self, graph):
        dim = graph.num_variables * (graph.num_states + 1)
        return MLPValueFunction(dim, graph.num_states, hidden_units=32, num_hidden_layers=2, seed=0)

    def test_learns_uniform_target(self):
        g = _uniform_graph(3, 2)
        config = TrainConfig(
            episodes=25, budget_per_episode=30, samples_per_episode=32, batch_size=32,
            learning_rate=3e-3, seed=1, metric_samples=64,
        )
        mlp, history = train_loop(g, "treesample", config, mlp=self._small_mlp(g))
        final = history[-1]
        log_z = 3 * math.log(2)
        # prior-alone KL = delta_kl_prior + log Z must approach zero
        assert final["delta_kl_prior"] + log_z < 0.1
        assert final["delta_kl"] + log_z < 0.1

    def test_tree_targets_reproduce_exact_values(self):
        rng = np.random.default_rng(3)
        from conftest import make_random_graph

        g = make_random_graph(rng, 3, 2, num_extra_factors=1)
        sol = solve_exact(g)
        config = TrainConfig(
            episodes=60, budget_per_episode=14, samples_per_episode=32, batch_size=32,
            learning_rate=3e-3, seed=2, metric_samples=8,
        )
        mlp, _ = train_loop(g, "treesample", config, mlp=self._small_mlp(g))
        got = mlp.evaluate(g, ())
        assert np.allclose(got, q_values(sol, ()), atol=0.05)

    def test_smc_algo_runs(self):
        g = _uniform_graph(3, 2)
        config = TrainConfig(
            episodes=3, budget_per_episode=30, samples_per_episode=16, batch_size=16,
            learning_rate=1e-3, seed=3, metric_samples=16,
        )
        mlp, history = train_loop(g, "smc", config, mlp=self._small_mlp(g))
        assert len(history) == 3
        assert all(math.isfinite(row["delta_kl"]) for row in history)

    def test_deterministic(self):
        g = _uniform_graph(3, 2)
        config = TrainConfig(
            episodes=4, budget_per_episode=20, samples_per_episode=8, batch_size=8,
            learning_rate=1e-3, seed=9, metric_samples=8,
        )
        _, h1 = train_loop(g, "treesample", config, mlp=self._small_mlp(g))
        _, h2 = train_loop(g, "treesample", config, mlp=self._small_mlp(g))
        assert h1 == h2

    def test_bad_algo(self):
        g = _uniform_graph(2, 2)
        with pytest.raises(ValueError):
            train_loop(g, "gibbs", TrainConfig(episodes=1), mlp=self._small_mlp(g))
