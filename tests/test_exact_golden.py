"""Golden digests of the exact oracles.

Each case solves one graph exactly and hashes what the metrics read from the
solution: for solve_exact the bytes of every q_levels array, log Z and the
entropy; for solve_chain the forward and backward messages, the step
conditionals, log Z and the entropy. The digests were recorded before the
oracles became array programs (broadcast level rewards, a row logsumexp
without a mask copy), so they pin that the rewrite left every value
bit-identical. On "exact/neg-inf" the recording also raised a RuntimeWarning
(-inf minus -inf in the entropy's prefix marginals); under the suite's
error::RuntimeWarning filter the case now also pins that no warning is left.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from treesample.exact import solve_chain, solve_exact

from conftest import log_step_conditionals, make_random_graph, spec_graph


def _neg_inf_graph(seed, n, k):
    rng = np.random.default_rng(seed)
    return make_random_graph(rng, n, k, num_extra_factors=6, max_scope=4, neg_inf_frac=0.3,
                             shuffle_ordering=True)


def _neg_inf_chain(seed, n, k):
    rng = np.random.default_rng(seed)
    graph = spec_graph("chains", n, k, seed)
    for f in graph.factors:
        f.table[rng.random(f.table.shape) < 0.2] = -np.inf
    return graph


# name -> (oracle, graph factory). K = 10 runs the pairwise branch of the row
# logsumexp (8 columns or more); the -inf graphs have zero-mass prefixes,
# whose q rows are all -inf.
CASES = {
    "exact/fg1-n14-k2": ("exact", lambda: spec_graph("fg1", 14, 2, 11)),
    "exact/fg2-n12": ("exact", lambda: spec_graph("fg2", 12, 2, 5)),
    "exact/neg-inf": ("exact", lambda: _neg_inf_graph(157, 7, 3)),
    "exact/chains-n5-k10": ("exact", lambda: spec_graph("chains", 5, 10, 3)),
    "chain/chains-n20-k10": ("chain", lambda: spec_graph("chains", 20, 10, 7)),
    "chain/neg-inf-n12-k9": ("chain", lambda: _neg_inf_chain(19, 12, 9)),
}

GOLDEN = {
    "chain/chains-n20-k10": "976952d8369c5c58a25d62d78ada3ce53b6056f6f1302dff232fd509f4edea6c",
    "chain/neg-inf-n12-k9": "70dc21e70a107ecdf1dae9187f424b9e49ff875b0c5f7366aa3d522a4e58ae07",
    "exact/chains-n5-k10": "423b3254ad2904aa79f079ddfe3ce19aac421bf407b35d88965568bb035df475",
    "exact/fg1-n14-k2": "29ebc537dc1d51c056b62fe32b9ebc30b179235a14a7abab0995f5d778441905",
    "exact/fg2-n12": "70c475ddb487a7c1efc6c8d42630fd0e44b58561e0d9677eecfe5674e0ae9710",
    "exact/neg-inf": "a3124548b68c9233a91befb8e1cf9c6fa805f4ddea5ee5ed0f7465ea5d8c8acc",
}


def _hash(arrays, floats) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    h.update(repr([float(x) for x in floats]).encode())
    return h.hexdigest()


def digest(name) -> str:
    oracle, make = CASES[name]
    graph = make()
    if oracle == "exact":
        sol = solve_exact(graph)
        return _hash(sol.q_levels, [sol.log_z, sol.entropy()])
    sol = solve_chain(graph)
    first, steps = log_step_conditionals(sol)
    return _hash([sol.alpha, sol.beta, first, steps], [sol.log_z, sol.entropy()])


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_matches_golden(name):
    assert digest(name) == GOLDEN[name]
