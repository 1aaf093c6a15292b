"""Golden digests of checkpoint bytes.

Each case trains a small network at fixed seeds, writes it with
save_checkpoint and hashes the file (the JSON header, then the parameter and
the two Adam moment blocks). The training cases also hash the train_loop
history rows. The digests pin every parameter, every optimizer step, every
training target and the file format (treesample-mlp-v3) bit for bit.

The two train_loop digests were recorded again when the network's
evaluate_batch became one (R, D) product per layer, which SMC's proposals
and the trees' rounds of up to MLPValueFunction.leaf_batch leaves read.
They are specific to the BLAS numpy was built against (pytest prints it in
the header): a row's last bits depend on the gemm kernel that computes it.
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
    "train-step-x10": "0b6d7f2b3c1b17eba8c22640ab320c063e9fc700ae60463103fa26f9e008ee1b",
    "fg2-n6/treesample": "e04395ed23686fc772a9ba4502130bec118e58cb27a8f7cf215856b45c6da627",
    "fg2-n6/smc": "28efe920c521b839b20514fdfcf2ccafc0d64c6d7e35af11b2606f51b4ce6493",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_checkpoint_bytes_match_golden(name, tmp_path):
    path = tmp_path / "model.ckpt"
    extra = CASES[name](path)
    digest = hashlib.sha256(path.read_bytes() + extra).hexdigest()
    assert digest == GOLDEN[name]
