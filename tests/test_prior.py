import json
import math

import numpy as np
import pytest

from treesample.baselines import WeightedAtoms, smc
from treesample.exact import solve_exact
from treesample.generators import GeneratorSpec, generate
from treesample.logmath import logsumexp_rows
from treesample.prior import (
    CHECKPOINT_FORMAT,
    REPLAY_CAPACITY,
    Adam,
    HeuristicPrior,
    MLPValueFunction,
    ReplayBuffer,
    TrainConfig,
    _smc_value_targets,
    encode_batch,
    load_checkpoint,
    save_checkpoint,
    train_loop,
    train_step,
)
from treesample.search import build_tree

from conftest import all_configs, kl_by_enumeration, make_random_graph, q_values, uniform_graph


class TestHeuristicPrior:
    def test_last_variable_is_zero(self):
        g = uniform_graph(4, 3)
        assert np.array_equal(HeuristicPrior().evaluate(g, (1, 2, 3)), np.zeros(3))

    def test_first_variable_value(self):
        g = uniform_graph(10, 5)
        q = HeuristicPrior().evaluate(g, ())
        assert np.allclose(q, 9 * math.log(5))

    def test_equals_exact_on_uniform_graph(self):
        g = uniform_graph(5, 3)
        sol = solve_exact(g)
        h = HeuristicPrior()
        for prefix in [(), (1,), (2, 3), (1, 1, 1), (3, 2, 1, 3)]:
            assert np.array_equal(q_values(sol, prefix), h.evaluate(g, prefix))

    def test_complete_prefix_rejected(self):
        g = uniform_graph(2, 2)
        with pytest.raises(ValueError):
            HeuristicPrior().evaluate(g, (1, 2))


def encode_one(graph, prefix):
    return encode_batch(graph, [prefix])[0]


class TestEncodePrefix:
    def test_empty_prefix(self):
        g = uniform_graph(2, 2)
        assert np.array_equal(encode_one(g, ()), [0, 0, 1, 0, 0, 1])

    def test_partial_prefix(self):
        g = uniform_graph(2, 2)
        assert np.array_equal(encode_one(g, (2,)), [0, 1, 0, 0, 0, 1])

    def test_complete_prefix_has_no_flags(self):
        g = uniform_graph(3, 2)
        enc = encode_one(g, (1, 2, 1)).reshape(3, 3)
        assert np.all(enc[:, 2] == 0)

    def test_respects_ordering(self):
        g = uniform_graph(2, 2, ordering=(2, 1))
        # depth-1 value assigns variable 2
        assert np.array_equal(encode_one(g, (1,)), [0, 0, 1, 1, 0, 0])

    def test_array_rows(self):
        g = uniform_graph(3, 2, ordering=(2, 3, 1))
        rows = np.array([[1, 2], [2, 1]])
        assert np.array_equal(encode_batch(g, rows), [[0, 0, 1, 1, 0, 0, 0, 1, 0],
                                                      [0, 0, 1, 0, 1, 0, 1, 0, 0]])

    def test_injective(self):
        g = uniform_graph(3, 2)
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
    """Heuristic batch calls equal the per-prefix calls bit for bit; an MLP
    batch is one product, equal to evaluate bit for bit at one row and to
    about 1e-12 relative beyond."""

    def test_encode_batch_rows_match_single_prefixes(self):
        g = uniform_graph(4, 3, ordering=(3, 1, 4, 2))
        prefixes = _mixed_prefixes(4, 3)
        expected = np.stack([encode_one(g, p) for p in prefixes])
        assert np.array_equal(encode_batch(g, prefixes), expected)
        same_length = np.array(list(all_configs(2, 3)))
        expected = np.stack([encode_one(g, tuple(p)) for p in same_length.tolist()])
        assert np.array_equal(encode_batch(g, same_length), expected)

    def test_empty_batch(self):
        g = uniform_graph(3, 2)
        assert encode_batch(g, []).shape == (0, 9)
        assert HeuristicPrior().evaluate_batch(g, np.zeros((0, 1), dtype=int)).shape == (0, 2)

    def test_heuristic_batch_matches_evaluate(self):
        g = uniform_graph(4, 3)
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
        g = uniform_graph(4, 3)
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
        g = uniform_graph(4, 3, ordering=(2, 4, 1, 3))
        mlp = MLPValueFunction(16, 3, hidden_units=32, num_hidden_layers=3, seed=5)
        prefixes = _mixed_prefixes(4, 3)
        single = np.stack([mlp.evaluate(g, p) for p in prefixes])
        for i, prefix in enumerate(prefixes):
            assert mlp.evaluate_batch(g, [prefix]).tobytes() == single[i].tobytes()
        # every batch size up to all 40 prefixes, so that rows fall in full
        # and in partial gemm tiles, in both input forms
        for r in range(2, len(prefixes) + 1):
            out = mlp.evaluate_batch(g, prefixes[:r])
            assert out.tobytes() == mlp.forward(encode_batch(g, prefixes[:r])).tobytes()
            np.testing.assert_allclose(out, single[:r], rtol=1e-12, atol=0)
        rows = np.array(list(all_configs(2, 3)))
        out = mlp.evaluate_batch(g, rows)
        assert out.tobytes() == mlp.forward(encode_batch(g, rows)).tobytes()
        expected = np.stack([mlp.evaluate(g, tuple(p)) for p in rows.tolist()])
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)


class TestMlp:
    def test_zero_parameters_give_zero(self):
        mlp = MLPValueFunction(4, 2, hidden_units=8, num_hidden_layers=2, seed=0)
        mlp.flat[:] = 0.0
        assert np.array_equal(mlp.forward(np.ones((3, 4))), np.zeros((3, 2)))

    def test_single_unit_analytic(self):
        mlp = MLPValueFunction(1, 1, hidden_units=1, num_hidden_layers=1, seed=0)
        # out = w2 * relu(w1*x + b1) + b2 with w1=2, b1=-1, w2=3, b2=0.5
        mlp.flat[:] = [2.0, -1.0, 3.0, 0.5]
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
            theta = mlp.flat.copy()
            h = 1e-5
            idx = rng.choice(theta.size, size=40, replace=False)
            for i in idx:
                bump = np.zeros_like(theta)
                bump[i] = h
                mlp.flat[:] = theta + bump
                up, _ = mlp.loss_and_gradients(x, y)
                mlp.flat[:] = theta - bump
                down, _ = mlp.loss_and_gradients(x, y)
                mlp.flat[:] = theta
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(flat_grad[i]), 1e-8)
                assert abs(fd - flat_grad[i]) / denom < 1e-4

    def test_views_stay_views(self, tmp_path):
        # after construction, after a load and after training steps on both,
        # every layer is a view of flat, in the documented layout, and each
        # Adam moment is one vector of flat's size
        def assert_views(mlp, adam):
            assert len(mlp.parameters()) == 1 and mlp.parameters()[0] is mlp.flat
            for layer in mlp.weights + mlp.biases:
                assert np.shares_memory(layer, mlp.flat)
            layout = [np.concatenate([w.ravel(), b]) for w, b in zip(mlp.weights, mlp.biases)]
            assert np.array_equal(np.concatenate(layout), mlp.flat)
            for moment in (adam.m, adam.v):
                assert len(moment) == 1 and moment[0].shape == mlp.flat.shape

        mlp = MLPValueFunction(6, 2, hidden_units=8, num_hidden_layers=2, seed=7)
        adam = Adam(mlp.parameters())
        assert_views(mlp, adam)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, adam, episode=0, config=TrainConfig())
        mlp2, adam2, _, _ = load_checkpoint(path)
        assert_views(mlp2, adam2)
        buf = ReplayBuffer(capacity=4, input_dim=6, output_dim=2)
        rng = np.random.default_rng(2)
        for _ in range(4):
            buf.add(rng.normal(size=6), rng.normal(size=2))
        for net, opt in ((mlp, adam), (mlp2, adam2)):
            before = net.flat.copy()
            for _ in range(3):
                train_step(net, buf, 2, opt, rng)
            assert not np.array_equal(net.flat, before)
            assert_views(net, opt)

    def test_nan_parameters_hard_error(self):
        mlp = MLPValueFunction(2, 2, hidden_units=4, num_hidden_layers=1, seed=0)
        mlp.flat[0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            mlp.forward(np.ones((1, 2)))

    def test_evaluate_with_nan_parameters_hard_error(self):
        g = uniform_graph(3, 2)
        mlp = MLPValueFunction(3 * 3, 2, hidden_units=4, num_hidden_layers=1, seed=0)
        mlp.flat[-1] = np.nan  # the last output bias
        with pytest.raises(ValueError, match="NaN"):
            mlp.evaluate(g, (1,))

    @pytest.mark.parametrize("hidden_units, num_hidden_layers", [(0, 1), (1, 0), (-1, 2)])
    def test_sizes_below_one_rejected(self, hidden_units, num_hidden_layers):
        # load_checkpoint's rule: every saved network loads again
        with pytest.raises(ValueError, match="hidden_units >= 1 and num_hidden_layers >= 1"):
            MLPValueFunction(3, 2, hidden_units=hidden_units, num_hidden_layers=num_hidden_layers)

    def test_from_flat_of_the_wrong_length_rejected(self):
        size = MLPValueFunction(2, 2, hidden_units=4, num_hidden_layers=1).flat.size
        for wrong in (size + 1, size - 1):
            with pytest.raises(ValueError, match="flat parameter vector has the wrong length"):
                MLPValueFunction(2, 2, hidden_units=4, num_hidden_layers=1, flat=np.zeros(wrong))

    def test_prior_interface_shape(self):
        # evaluate: a list of K Python floats; evaluate_batch: an (R, K) array
        g = uniform_graph(3, 2)
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
        before = mlp.flat.copy()
        loss = train_step(mlp, buf, batch_size=1, adam=adam, rng=rng)
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert np.array_equal(mlp.flat, before)  # zero gradient, zero update

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
        loss = train_step(mlp, buf, 1, adam, np.random.default_rng(0))
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

    def test_resample_threshold_validated(self):
        for value in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"resample_threshold must lie in \[0, 1\]"):
                TrainConfig(resample_threshold=value)
        TrainConfig(resample_threshold=0.0)
        TrainConfig(resample_threshold=1.0)

    @pytest.mark.parametrize("name", ["episodes", "budget_per_episode", "samples_per_episode",
                                      "batch_size", "learning_rate", "metric_samples"])
    def test_non_positive_fields_rejected(self, name):
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                TrainConfig(**{name: value})

    def test_batch_above_replay_capacity_rejected(self):
        # replay never holds more pairs, so no Adam step could ever run
        with pytest.raises(ValueError, match=f"replay capacity, {REPLAY_CAPACITY}"):
            TrainConfig(batch_size=REPLAY_CAPACITY + 1)
        TrainConfig(batch_size=REPLAY_CAPACITY)

    @pytest.mark.parametrize("name", ["episodes", "seed", "learning_rate"])
    def test_bool_is_no_number(self, name):
        with pytest.raises(TypeError, match=f"{name} must be of type"):
            TrainConfig(**{name: True})


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
        assert np.array_equal(mlp.flat, mlp2.flat)
        assert adam2.step_count == adam.step_count
        for a, b in zip(adam.m, adam2.m):
            assert np.array_equal(a, b)
        for a, b in zip(adam.v, adam2.v):
            assert np.array_equal(a, b)
        # the loaded moments take further steps in place, as the saved ones do
        train_step(mlp, buf, 2, adam, np.random.default_rng(3))
        train_step(mlp2, buf, 2, adam2, np.random.default_rng(3))
        assert np.array_equal(mlp.flat, mlp2.flat)
        for a, b in zip(adam.m + adam.v, adam2.m + adam2.v):
            assert np.array_equal(a, b)

    def test_smallest_network_round_trip(self, tmp_path):
        mlp = MLPValueFunction(3, 2, hidden_units=1, num_hidden_layers=1, seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, Adam(mlp.parameters()), episode=0, config=TrainConfig())
        mlp2 = load_checkpoint(path)[0]
        assert (mlp2.hidden_units, mlp2.num_hidden_layers, mlp2.flat.size) == (1, 1, 4 + 2 * 2)
        assert np.array_equal(mlp2.flat, mlp.flat)

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
        assert [w.shape for w in mlp2.weights] == [w.shape for w in mlp.weights]
        assert [b.shape for b in mlp2.biases] == [b.shape for b in mlp.biases]
        x = np.random.standard_normal((5, 6))
        assert np.array_equal(mlp2.forward(x), mlp.forward(x))

    def test_rejects_truncated_blocks(self, tmp_path):
        mlp = MLPValueFunction(6, 2, hidden_units=8, num_hidden_layers=2, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, Adam(mlp.parameters()), episode=0, config=TrainConfig())
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="block size"):
            load_checkpoint(path)

    @pytest.mark.parametrize("layers", [10**8, 10**12, 2**63])
    def test_rejects_a_huge_size_before_allocating(self, tmp_path, layers):
        # the block size is counted in closed form, so a header claiming a
        # vast network is a ValueError, not a MemoryError or OverflowError
        mlp = MLPValueFunction(6, 2, hidden_units=8, num_hidden_layers=2, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, Adam(mlp.parameters()), episode=0, config=TrainConfig())
        header, blocks = path.read_bytes().split(b"\n", 1)
        data = json.loads(header)
        data["num_hidden_layers"] = layers
        path.write_bytes(json.dumps(data).encode() + b"\n" + blocks)
        with pytest.raises(ValueError, match="block size"):
            load_checkpoint(path)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        for fmt in ("other", "treesample-mlp-v1", "treesample-mlp-v2"):
            path.write_bytes(json.dumps({"format": fmt}).encode() + b"\n")
            with pytest.raises(ValueError, match="unrecognized checkpoint format"):
                load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("input_dim", 1.5), ("hidden_units", "8"),
                                            ("episode", -1), ("output_dim", 0),
                                            ("hidden_units", True), ("adam_step", False)])
    def test_rejects_non_integer_or_bad_sizes(self, tmp_path, key, value):
        mlp = MLPValueFunction(6, 2, hidden_units=8, num_hidden_layers=2, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, Adam(mlp.parameters()), episode=0, config=TrainConfig())
        header, blocks = path.read_bytes().split(b"\n", 1)
        data = json.loads(header)
        data[key] = value
        path.write_bytes(json.dumps(data).encode() + b"\n" + blocks)
        with pytest.raises(ValueError, match="must be integers"):
            load_checkpoint(path)

    def test_rejected_training_config_names_the_file(self, tmp_path):
        # a header config that TrainConfig rejects by value, such as a
        # resample threshold of 7.0, is a malformed header like a missing key
        mlp = MLPValueFunction(6, 2, hidden_units=8, num_hidden_layers=2, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, Adam(mlp.parameters()), episode=0, config=TrainConfig())
        header, blocks = path.read_bytes().split(b"\n", 1)
        data = json.loads(header)
        data["config"]["resample_threshold"] = 7.0
        path.write_bytes(json.dumps(data).encode() + b"\n" + blocks)
        with pytest.raises(ValueError, match="malformed checkpoint header in") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and "resample_threshold" in str(info.value)

    def test_header_records_the_algo(self, tmp_path):
        mlp = MLPValueFunction(6, 2, hidden_units=8, num_hidden_layers=2, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, Adam(mlp.parameters()), episode=0,
                        config=TrainConfig(algo="smc"))
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["format"] == CHECKPOINT_FORMAT == "treesample-mlp-v3"
        assert header["config"]["algo"] == "smc"
        assert load_checkpoint(path)[3].algo == "smc"


class TestPriorDistribution:
    """The distribution a prior induces is sampled by a tree with no expansions."""

    def test_heuristic_prior_is_uniform(self):
        g = uniform_graph(3, 2)
        dist = build_tree(g, HeuristicPrior(), 0)
        for x in all_configs(3, 2):
            assert dist.log_density(x) == pytest.approx(-3 * math.log(2), abs=1e-12)
        rng = np.random.default_rng(0)
        assert len(dist.sample(rng)) == 3


class TestTrainLoop:
    def _fresh(self, graph, config):
        """A small untrained network and its optimizer."""
        dim = graph.num_variables * (graph.num_states + 1)
        mlp = MLPValueFunction(dim, graph.num_states, hidden_units=32, num_hidden_layers=2, seed=0)
        return mlp, Adam(mlp.parameters(), learning_rate=config.learning_rate)

    def test_learns_uniform_target(self):
        g = uniform_graph(3, 2)
        config = TrainConfig(
            episodes=25, budget_per_episode=30, samples_per_episode=32, batch_size=32,
            learning_rate=3e-3, seed=1, metric_samples=64,
        )
        mlp, history = train_loop(g, config, *self._fresh(g, config))
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
        mlp, _ = train_loop(g, config, *self._fresh(g, config))
        got = mlp.evaluate(g, ())
        assert np.allclose(got, q_values(sol, ()), atol=0.05)

    def test_smc_algo_runs(self):
        g = uniform_graph(3, 2)
        config = TrainConfig(
            episodes=3, budget_per_episode=30, samples_per_episode=16, batch_size=16,
            learning_rate=1e-3, seed=3, metric_samples=16, algo="smc",
        )
        mlp, history = train_loop(g, config, *self._fresh(g, config))
        assert len(history) == 3
        assert all(math.isfinite(row["delta_kl"]) for row in history)

    def test_deterministic(self):
        g = uniform_graph(3, 2)
        config = TrainConfig(
            episodes=4, budget_per_episode=20, samples_per_episode=8, batch_size=8,
            learning_rate=1e-3, seed=9, metric_samples=8,
        )
        _, h1 = train_loop(g, config, *self._fresh(g, config))
        _, h2 = train_loop(g, config, *self._fresh(g, config))
        assert h1 == h2

    def test_bad_algo(self):
        with pytest.raises(ValueError, match="algo must be one of"):
            TrainConfig(episodes=1, algo="gibbs")


def _prefixes_below(n, k):
    """Every prefix of length 0..n-1."""
    return [p for d in range(n) for p in all_configs(d, k)]


class TestSmcValueTargets:
    """SMC's replay targets are soft values, the scale the tree reads."""

    @pytest.mark.parametrize("seed", range(5))
    def test_full_enumeration_gives_the_exact_values(self, seed):
        # every configuration as an atom, at its exact weight, with the
        # exact log Z and no smoothing: the targets are Q*
        g = make_random_graph(np.random.default_rng(seed), 5, 3, shuffle_ordering=True)
        sol = solve_exact(g)
        atoms = WeightedAtoms(atoms=list(all_configs(5, 3)),
                              weights=np.exp(sol.enumerate_log_joint()).tolist(),
                              log_z_estimate=sol.log_z)
        targets = _smc_value_targets(g, atoms, 0.0)
        assert sorted(targets) == sorted(_prefixes_below(5, 3))
        for prefix, target in targets.items():
            np.testing.assert_allclose(target, q_values(sol, prefix), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_softmax_is_the_smoothed_empirical_conditional(self, seed):
        # each row differs from the log of the prefix's smoothed, normalised
        # atom mass by a constant, so SIS and SMC draw from the same softmax
        g = make_random_graph(np.random.default_rng(seed), 6, 3, neg_inf_frac=0.2)
        result = smc(g, HeuristicPrior(), 150, seed=seed)
        smooth = 1.0 / (3 * result.num_particles)
        targets = _smc_value_targets(g, result, smooth)
        masses = {}
        for x, w in zip(result.atoms, result.weights):
            for d in range(6):
                masses.setdefault(x[:d], np.zeros(3))[x[d] - 1] += w
        assert sorted(targets) == sorted(masses)
        for prefix, mass in masses.items():
            p = mass + smooth
            row = targets[prefix]
            np.testing.assert_allclose(row - logsumexp_rows(row[None, :])[0], np.log(p / p.sum()),
                                       rtol=0, atol=1e-12)


class TestDistilledPrior:
    """The whole neural path on the value scale: Q* distilled into a small MLP
    through ReplayBuffer, train_step and Adam guides the tree far better
    than the heuristic prior."""

    @pytest.mark.parametrize("family, n, k, seed", [
        ("fg2", 8, 2, 1000), ("fg1", 8, 2, 1), ("chains", 6, 3, 1),
    ])
    def test_distilled_values_beat_the_heuristic(self, family, n, k, seed):
        g = generate(GeneratorSpec(family=family, n=n, k=k, seed=seed))
        sol = solve_exact(g)
        prefixes = _prefixes_below(n, k)
        replay = ReplayBuffer(len(prefixes), n * (k + 1), k)
        for x, prefix in zip(encode_batch(g, prefixes), prefixes):
            replay.add(x, q_values(sol, prefix))
        mlp = MLPValueFunction(n * (k + 1), k, hidden_units=32, num_hidden_layers=2, seed=0)
        adam = Adam(mlp.parameters(), learning_rate=3e-3)
        rng = np.random.default_rng(0)
        for _ in range(800):
            train_step(mlp, replay, 64, adam, rng)
        for budget in (0, 30):
            kl = {name: kl_by_enumeration(build_tree(g, prior, budget).log_density, sol, g)
                  for name, prior in (("mlp", mlp), ("heuristic", HeuristicPrior()))}
            assert 5 * kl["mlp"] < kl["heuristic"], (budget, kl)
