"""Golden digests of checkpoint bytes.

Each case trains a small network at fixed seeds, writes it with
save_checkpoint and hashes the file (the JSON header, then the parameter and
the two Adam moment blocks). The training cases also hash the train_loop
history rows. The digests were recorded before the network's parameters,
gradients and moments moved into single flat vectors, so they pin that the
storage change left every parameter, every optimizer step, every training
target and the file format bit-identical.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from treesample.generators import GeneratorSpec, generate
from treesample.prior import (Adam, MLPValueFunction, ReplayBuffer, TrainConfig,
                              save_checkpoint, train_loop, train_step)


def _train_steps(path):
    """Ten train_steps of a two-hidden-layer network on a four-row replay."""
    mlp = MLPValueFunction(6, 2, hidden_units=8, num_hidden_layers=2, seed=7)
    adam = Adam(mlp.parameters(), learning_rate=1e-3)
    replay = ReplayBuffer(capacity=4, input_dim=6, output_dim=2)
    rng = np.random.default_rng(2)
    for _ in range(4):
        replay.add(rng.normal(size=6), rng.normal(size=2))
    for _ in range(10):
        train_step(mlp, replay, 2, adam, rng)
    save_checkpoint(path, mlp, adam, episode=10, config=TrainConfig(learning_rate=1e-3))
    return b""


def _train_loop(algo):
    def run(path):
        graph = generate(GeneratorSpec(family="fg2", n=6, k=2, seed=3))
        config = TrainConfig(episodes=3, budget_per_episode=40, samples_per_episode=8,
                             batch_size=8, learning_rate=1e-3, seed=5, metric_samples=16,
                             algo=algo)
        dim = graph.num_variables * (graph.num_states + 1)
        mlp = MLPValueFunction(dim, graph.num_states, hidden_units=16, num_hidden_layers=2,
                               seed=1)
        adam = Adam(mlp.parameters(), learning_rate=config.learning_rate)
        mlp, history = train_loop(graph, config, mlp, adam)
        save_checkpoint(path, mlp, adam, episode=config.episodes, config=config)
        return json.dumps(history).encode()

    return run


CASES = {
    "train-step-x10": _train_steps,
    "fg2-n6/treesample": _train_loop("treesample"),
    "fg2-n6/smc": _train_loop("smc"),
}

GOLDEN = {
    "train-step-x10": "450243f1ad24e968965056dd18f9b38127ec3ef318e5193d20662bb985a9083e",
    "fg2-n6/treesample": "1832368a99fc1b219b54a9ca92d13056ae68b183180e2a67558063d2841afef3",
    "fg2-n6/smc": "c862b06479878813f0375c8e886c7802b20c199ce703a42039c802f695a863cf",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_checkpoint_bytes_match_golden(name, tmp_path):
    path = tmp_path / "model.ckpt"
    extra = CASES[name](path)
    digest = hashlib.sha256(path.read_bytes() + extra).hexdigest()
    assert digest == GOLDEN[name]
