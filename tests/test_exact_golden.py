"""Golden digests of the exact oracle.

Each case solves one graph with solve_exact and hashes the two floats the
metrics read, log Z and the entropy. The "chain/" cases are chain graphs,
which a forward-backward solver used to take. The digests were recorded
when one backward pass over each level's frontier replaced the K^N solve
and forward-backward. log Z kept its bits on every case but
"chain/chains-n20-k10", where forward-backward had summed in another order
(1.2e-16 relative); the entropy moved by at most 5.4e-13 relative. On
"exact/neg-inf" the recording of the K^N solve raised a RuntimeWarning (-inf
minus -inf in the entropy's prefix marginals); under the suite's
error::RuntimeWarning filter the case pins that no warning is left.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from treesample.exact import solve_exact

from conftest import make_random_graph, spec_graph


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


# name -> graph factory. K = 10 runs the pairwise branch of the row
# logsumexp (8 columns or more); the -inf graphs have zero-mass prefixes,
# whose rows are all -inf.
CASES = {
    "exact/fg1-n14-k2": lambda: spec_graph("fg1", 14, 2, 11),
    "exact/fg2-n12": lambda: spec_graph("fg2", 12, 2, 5),
    "exact/neg-inf": lambda: _neg_inf_graph(157, 7, 3),
    "exact/chains-n5-k10": lambda: spec_graph("chains", 5, 10, 3),
    "chain/chains-n20-k10": lambda: spec_graph("chains", 20, 10, 7),
    "chain/neg-inf-n12-k9": lambda: _neg_inf_chain(19, 12, 9),
}

GOLDEN = {
    "chain/chains-n20-k10": "f9e9fe09901bdfe816eceb21928e63ac290b656329e9be4a3d07d292730e1ed6",
    "chain/neg-inf-n12-k9": "0d4e34747e8e012ebbf6109e736f306cca30fa1a7e053c248752be35132a9b79",
    "exact/chains-n5-k10": "f28e41d6cc894bf6515c9f8a9863e0a043c7756a4e06299151d57121afd91a42",
    "exact/fg1-n14-k2": "be6c973fbd06706be8c1f59d12a63bb265b80214343b12bb16dc58badc801f98",
    "exact/fg2-n12": "d8fb2342abafe54f55af82b52cbab91aa5c90306fabfa74757b5e43092d0314d",
    "exact/neg-inf": "36f889144c1ea79504e36055ba67f5b6cc6366f6fdbac47ebfadc2632afeda6c",
}


def digest(name) -> str:
    sol = solve_exact(CASES[name]())
    return hashlib.sha256(np.array([sol.log_z, sol.entropy]).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_matches_golden(name):
    assert digest(name) == GOLDEN[name]
