"""Golden digests of built trees and of their batch samples.

Each case builds one tree at fixed seeds and hashes two things: the tree's
JSON dump (every node's prefix, reward, child values, visit counts and
completeness flags) and sample_batch(500, seed)'s (xs, log_q) bytes. The
digests were recorded before the search layer moved from numpy arrays to
Python lists, so they pin that the representation change left every tree,
every draw and every log-probability bit-identical. The "bench/" cases and
the K = 17 wide case were recorded before the soft value of a two-child
node moved into backup and wide soft values began to sum as Python floats.
The tree dumps of "chains-n8-k10" and of the K = 5 to 17 wide cases were
re-recorded when the soft value moved from numpy's exp and summation order
to math.exp summed left to right: the same nodes, visit counts and flags,
with a few child values 1 or 2 ulps apart. Every other digest, the binary
trees' and "chains-n8-k10"'s draws included, was kept.

The MLP cases run twice. With leaf_batch = 1 set on the prior they build one
leaf per round, the traversal the digests were first recorded with, and keep
those digests. At the network's default width ("/rounds") each round takes
its prior rows from one (R, D) product, and the digests were recorded when
rounds came in. Those and the draws of every MLP tree leaving the tree are
specific to the BLAS numpy was built against (pytest prints it in the
header): a row's last bits depend on the gemm kernel that computes it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from treesample.model import FACTOR_EVAL, REWARD_EVAL
from treesample.prior import HeuristicPrior, MLPValueFunction
from treesample.search import build_tree

from conftest import make_random_graph, spec_graph

NUM_DRAWS = 500


def _neg_inf_graph():
    rng = np.random.default_rng(151)
    return make_random_graph(rng, 5, 3, num_extra_factors=4, neg_inf_frac=0.25,
                             shuffle_ordering=True)


def _mlp(graph):
    return MLPValueFunction(graph.num_variables * (graph.num_states + 1), graph.num_states, seed=0)


def _one_leaf_mlp(graph):
    mlp = _mlp(graph)
    mlp.leaf_batch = 1
    return mlp


# name -> (graph factory, prior factory, budget, cost mode, draw seed).
# The "/complete" case is the only one built until its root is complete.
# The "bench/" cases are the benchmark's tree-build and tree-eval instances
# (perfbench/workloads.py INSTANCE_SEEDS) at budget 300, so that the trees
# its timings are taken on are pinned here too.
CASES = {
    "fg1-n12-k2/reward_eval": (lambda: spec_graph("fg1", 12, 2, 3), None, 600, REWARD_EVAL, 7),
    "fg2-n12/factor_eval": (lambda: spec_graph("fg2", 12, 2, 5), None, 800, FACTOR_EVAL, 8),
    "chains-n8-k10": (lambda: spec_graph("chains", 8, 10, 7), None, 600, REWARD_EVAL, 12),
    "chains-n6-k3/complete": (lambda: spec_graph("chains", 6, 3, 13), None, 2000, REWARD_EVAL, 7),
    "neg-inf/reward_eval": (_neg_inf_graph, None, 120, REWARD_EVAL, 3),
    "neg-inf/factor_eval": (_neg_inf_graph, None, 200, FACTOR_EVAL, 3),
    "fg2-n10/mlp": (lambda: spec_graph("fg2", 10, 2, 5), _one_leaf_mlp, 300, REWARD_EVAL, 10),
    "fg2-n10/mlp/rounds": (lambda: spec_graph("fg2", 10, 2, 5), _mlp, 300, REWARD_EVAL, 10),
    "bench/fg1-n18/reward_eval": (lambda: spec_graph("fg1", 18, 2, 3), None, 300, REWARD_EVAL, 1),
    "bench/fg2-n18/factor_eval": (lambda: spec_graph("fg2", 18, 2, 5), None, 300, FACTOR_EVAL, 1),
    "bench/chains-n20-k10": (lambda: spec_graph("chains", 20, 10, 7), None, 300, REWARD_EVAL, 1),
}

GOLDEN = {
    "fg1-n12-k2/reward_eval": (
        "f59964d7693d27b6943c99e73accb981e26fe1ac0bb1e1cc1aec8bb473953f09",
        "88335cd2ee43199d3c171e99ed3de3d6b277b35e3eb1e77f5e087af1596a74a4",
    ),
    "fg2-n12/factor_eval": (
        "a1a4f31d0c96afea367076f3a3aa957e938c229a2a1dc9bd5bb8be8c3af77c6b",
        "8ef3198ef23168387c307d9c8526be620e2c330bbcac6f472354cc2241ab1c84",
    ),
    "chains-n8-k10": (
        "f4b8876c59026139c14c14e41aa5e0103b7caf0af24caf0a56915303f9c7d734",
        "e0231017b4ed6e67df1f501bd4728d2d58019a74c8eaa7ca769bf4212078cd9d",
    ),
    "chains-n6-k3/complete": (
        "8e42db83e8dafd3b5cbc1a0f0219bddbec2c3edcf8714affaa2fb79a35c1ad04",
        "9e6e725041ada99c5bfd5c9e02bb059e519dc8c24b68124a92e63e223018fe15",
    ),
    "neg-inf/reward_eval": (
        "78cef3a7c76ad37318c9d69ba29b63f7d2df935db5b5f4979dfbd57ef6911fa4",
        "2cb83233d31ea5f02b1bbc34296be7087ba0374eac43897ce90f3076f583333e",
    ),
    "neg-inf/factor_eval": (
        "b2021ca4ff85c1f6e595077333c78d0b610dca58932e3e20ca2a080f7dce86f7",
        "5794008f88084ef8af52fa2ed67e903b7a087ee1f01347514cb3591255bc7840",
    ),
    "fg2-n10/mlp": (
        "0135b00204992657a25fbbe4b27396b3bdacbf2bc330b3ed99a50d31a397aa7b",
        "d052bdd7bacdb2a5daba404ac393056544a0d2035b0ded12e0b0407263f989b2",
    ),
    "fg2-n10/mlp/rounds": (
        "627f6fb3c197e6bb2aac6cb635183916636ce280cdf11faf20329cf8c7e68065",
        "d6724cf8263e2c7d47b18b1820e57e08642e52dc823b5805d9da120fea713cb0",
    ),
    "bench/fg1-n18/reward_eval": (
        "b5e88b076bb9800eee41f0cc3b6af42ae219716e4e7f46a60b7e2207b91cef8a",
        "9a2b485882e4e0fe90055a635517076e385ec14bc94ba5d9b3b72c428b036fad",
    ),
    "bench/fg2-n18/factor_eval": (
        "314e470b16a9458a8df5c81de5d8c81eb0ec4683cc150d8011a766d03d4a41b1",
        "282abcc2b20d16c4787950fb99bba33921afba96e43a9e02d322cb54924ca7d4",
    ),
    "bench/chains-n20-k10": (
        "e0a189ea3705b5bf579c4f8dd182f8f39a8c6ae456b9f0c54f576b0dbf7c584f",
        "1dc2252ef036b5e39fc06a19b2b501bc2be54565ac787691f5a488a90b74571d",
    ),
}


def build_case(name):
    graph_of, prior_of, budget, cost_mode, _ = CASES[name]
    graph = graph_of()
    prior = HeuristicPrior() if prior_of is None else prior_of(graph)
    return build_tree(graph, prior, budget, cost_mode=cost_mode)


def digests(name, tree):
    """(sha256 of the sorted-key JSON dump, sha256 of the batch draws)."""
    dump = json.dumps(tree.dump_json_dict(), sort_keys=True).encode()
    xs, log_q = tree.sample_batch(NUM_DRAWS, np.random.default_rng(CASES[name][-1]))
    draws = np.ascontiguousarray(xs, dtype=np.int64).tobytes() + log_q.tobytes()
    return hashlib.sha256(dump).hexdigest(), hashlib.sha256(draws).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_tree_and_draws_match_golden(name):
    tree = build_case(name)
    assert digests(name, tree) == GOLDEN[name]
    assert tree.root_complete() == name.endswith("/complete")


# Trees of K = 3, 5, 8, 11 and 17 children per node, on random graphs with
# -inf table entries, built with a random 2 x 16 MLP prior so that no node
# starts from uniform child values. The plain cases build one leaf per
# round, the "/rounds" cases at the network's default width.
# name -> (K, graph seed, budget, leaf_batch or None for the default, sha256 of the dump).
WIDE_CASES = {
    "k3": (3, 31, 400, 1,
           "0b22ebf36bacf8f8ebd6784ae9343ea4fa3713f4340bb35b4dab94736f8d9cad"),
    "k5": (5, 32, 400, 1,
           "2fe41a7bb0d3b4c8c9b2396dc982357ed1eeb210d1fc2ba01af124342d403776"),
    "k8": (8, 33, 400, 1,
           "bb37934429129ab60f43914cb7d6be1ef9752f0750b51274d202ca7c57ba202b"),
    "k11": (11, 34, 400, 1,
            "25b18185470c7ea4db4a097ea07bb4dc79776a640b4cc85bb3b4fdb68ef9b685"),
    "k17": (17, 35, 400, 1,
            "ef5108602247ac656de5e594da4e18263e8c4ccc2ad8340aecaab4f32ce92b62"),
    "k3/rounds": (3, 31, 400, None,
                  "c036ac6147d98aa013d9e12a26e86034a8ead2cd41edf545b94c1aebae101b17"),
    "k5/rounds": (5, 32, 400, None,
                  "617984d90da0be2ea62ac133d65b78321eaedfafede211d01db9f41d4ba3eb69"),
    "k8/rounds": (8, 33, 400, None,
                  "bf2027c1f6533b5c1f6738bf41c0ed07de6f4aac9d6efc9a72bb4f6bdb1d8dde"),
    "k11/rounds": (11, 34, 400, None,
                   "0dee056a5e9bbdf7ad5c5b476294ef34a6c4e13063792cf716e65233e3b95822"),
}


def build_wide_case(name):
    k, seed, budget, leaf_batch, _ = WIDE_CASES[name]
    rng = np.random.default_rng(seed)
    graph = make_random_graph(rng, 6, k, num_extra_factors=5, neg_inf_frac=0.25,
                              shuffle_ordering=True)
    prior = MLPValueFunction(6 * (k + 1), k, hidden_units=16, num_hidden_layers=2, seed=seed)
    if leaf_batch is not None:
        prior.leaf_batch = leaf_batch
    return build_tree(graph, prior, budget)


@pytest.mark.parametrize("name", sorted(WIDE_CASES))
def test_wide_tree_matches_golden(name):
    dump = json.dumps(build_wide_case(name).dump_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == WIDE_CASES[name][-1]
