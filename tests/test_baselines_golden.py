"""Golden digests of the baseline samplers' outputs.

Each case runs one baseline (SIS, SMC, Gibbs or BP-guided sampling) at fixed
seeds and hashes what it returns: the atoms, the weights, the log Z estimate,
the budget spent and the Gibbs zero-conditional count. The digests were
recorded before the baselines became array programs (batched SMC rewards,
lockstep Gibbs chains, stacked BP messages), so they pin that the rewrite
left every atom and every weight bit-identical.

The one exception is ZERO_CONDITIONAL_CASE: a Gibbs site update whose full
conditional has zero mass now takes its uniform value from the site update's
own uniform instead of a fresh integer draw, so that case's digest was
recorded after the rewrite.

The MLP case, fg2-n10/smc/mlp, was recorded again when the network's
evaluate_batch became one (R, D) product per layer instead of one (1, D)
product per row. Its digest is specific to the BLAS numpy was built against
(pytest prints it in the header): a row's last bits depend on the gemm
kernel that computes it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from treesample.baselines import _LoopyBP, bp_sample, gibbs, sis, smc
from treesample.model import FACTOR_EVAL, REWARD_EVAL
from treesample.prior import HeuristicPrior, MLPValueFunction

from conftest import make_random_graph, spec_graph


def _neg_inf_graph(seed):
    rng = np.random.default_rng(seed)
    return make_random_graph(rng, 5, 3, num_extra_factors=4, neg_inf_frac=0.25,
                             shuffle_ordering=True)


def _mlp(graph):
    return MLPValueFunction(graph.num_variables * (graph.num_states + 1), graph.num_states, seed=0)


GRAPHS = {
    "fg1-n14-k2": lambda: spec_graph("fg1", 14, 2, 11),
    "chains-n20-k10": lambda: spec_graph("chains", 20, 10, 7),
    "fg2-n12": lambda: spec_graph("fg2", 12, 2, 5),
    "fg2-n10": lambda: spec_graph("fg2", 10, 2, 5),
    # -inf entries, and no Gibbs conditional of zero mass at these seeds
    "neg-inf": lambda: _neg_inf_graph(156),
    # -inf entries with many zero-mass Gibbs conditionals
    "neg-inf-zero-conditionals": lambda: _neg_inf_graph(151),
}


def _run_sis(graph, budget, seed, cost_mode):
    return sis(graph, HeuristicPrior(), budget, seed=seed, cost_mode=cost_mode)


def _run_smc(graph, budget, seed, cost_mode):
    return smc(graph, HeuristicPrior(), budget, resample_threshold=0.5, seed=seed,
               cost_mode=cost_mode)


def _run_smc_mlp(graph, budget, seed, cost_mode):
    return smc(graph, _mlp(graph), budget, resample_threshold=0.5, seed=seed, cost_mode=cost_mode)


def _runner_gibbs(sweeps):
    return lambda graph, budget, seed, cost_mode: gibbs(graph, sweeps, budget, seed=seed,
                                                        cost_mode=cost_mode)


def _runner_bp(rounds):
    return lambda graph, budget, seed, cost_mode: bp_sample(graph, rounds, budget, seed=seed)


# name -> (graph, runner, budget, cost mode, seed)
CASES = {
    "fg1-n14-k2/sis": ("fg1-n14-k2", _run_sis, 1_400, REWARD_EVAL, 6),
    "fg1-n14-k2/smc": ("fg1-n14-k2", _run_smc, 1_400, REWARD_EVAL, 6),
    "fg1-n14-k2/gibbs": ("fg1-n14-k2", _runner_gibbs(5), 2_800, REWARD_EVAL, 6),
    "fg1-n14-k2/bp": ("fg1-n14-k2", _runner_bp(3), 2_016, REWARD_EVAL, 6),
    "chains-n20-k10/sis": ("chains-n20-k10", _run_sis, 2_000, REWARD_EVAL, 7),
    "chains-n20-k10/smc": ("chains-n20-k10", _run_smc, 2_000, REWARD_EVAL, 7),
    "chains-n20-k10/gibbs": ("chains-n20-k10", _runner_gibbs(3), 6_000, REWARD_EVAL, 7),
    "chains-n20-k10/bp": ("chains-n20-k10", _runner_bp(2), 3_120, REWARD_EVAL, 7),
    "fg2-n12/sis/factor_eval": ("fg2-n12", _run_sis, 1_000, FACTOR_EVAL, 8),
    "fg2-n12/smc/factor_eval": ("fg2-n12", _run_smc, 1_000, FACTOR_EVAL, 8),
    "fg2-n12/gibbs/factor_eval": ("fg2-n12", _runner_gibbs(4), 4_000, FACTOR_EVAL, 8),
    "fg2-n12/bp/factor_eval": ("fg2-n12", _runner_bp(2), 1_000, FACTOR_EVAL, 8),
    "neg-inf/sis": ("neg-inf", _run_sis, 1_000, REWARD_EVAL, 3),
    "neg-inf/smc": ("neg-inf", _run_smc, 1_000, REWARD_EVAL, 3),
    "neg-inf/gibbs": ("neg-inf", _runner_gibbs(4), 3_000, REWARD_EVAL, 3),
    "neg-inf/gibbs/factor_eval": ("neg-inf", _runner_gibbs(4), 6_000, FACTOR_EVAL, 3),
    "neg-inf/bp": ("neg-inf", _runner_bp(2), 2_000, REWARD_EVAL, 3),
    "fg2-n10/smc/mlp": ("fg2-n10", _run_smc_mlp, 600, REWARD_EVAL, 9),
    "neg-inf-zero-conditionals/gibbs": ("neg-inf-zero-conditionals", _runner_gibbs(4), 3_000,
                                        REWARD_EVAL, 3),
}

ZERO_CONDITIONAL_CASE = "neg-inf-zero-conditionals/gibbs"

GOLDEN = {
    "chains-n20-k10/bp": "d8bbb3a256b1417bf0ff2c3d2e94d3995ee8b1f36a115190a6fb3ac7d20db891",
    "chains-n20-k10/gibbs": "2635423c719d99e80ae5823be35f872f3b120a3c18fc091339c56e7a649db2bb",
    "chains-n20-k10/sis": "501f6b9d69273cadba518dff48873ee7d11eb2b62d2592c3558ce260f8ceb60c",
    "chains-n20-k10/smc": "21378794464384104932e87f48710842a2c4a12727640a67d3a33847ffcb9f4a",
    "fg1-n14-k2/bp": "27d64f614f8aaedb4295b45ea0257da8849c1978a6fc917faf3c1737dadb7366",
    "fg1-n14-k2/gibbs": "6e03c953a506e1c1b4d517689c1cfcb0f7fed7cd54ba929fafe83461a44f5124",
    "fg1-n14-k2/sis": "beb8f354d0b8720564ea220eaf8121492b676a4115480a68a8cf04e70f340cb1",
    "fg1-n14-k2/smc": "958921de4ed344e40d1d63ac5ca1ef100ea65a8330ad00bb777d25bbc29fe1c8",
    "fg2-n10/smc/mlp": "f941a670305c4d08bd9d82f8a95407a4ed4f210cd9fdeb2187182a2d99519687",
    "fg2-n12/bp/factor_eval": "e9cadc5f821013713b983f5b10be251ddea1212d41ee8cd661907bcc1e9751ea",
    "fg2-n12/gibbs/factor_eval": "b750d5e8628ced86997ba626426f0eaafdf752226960ccb51c69ad4fc70109a7",
    "fg2-n12/sis/factor_eval": "7da0d39c4a89d85e42bd3d688ec0ff18c16ebfd9cad19c2b362326cbb85df5f8",
    "fg2-n12/smc/factor_eval": "5369b5a3d2a84623a1cd373fd7c473fda88af8cdee6987eb1f04f47128c62a6e",
    "neg-inf/bp": "e123bb44dae22c2a2922e7c366d55ef9517de106855cf8b7cb545eb33e4b1b71",
    "neg-inf/gibbs": "74e115fedc093617813c85b4c29e867265b89377b82d941fac2f5214275dbb45",
    "neg-inf/gibbs/factor_eval": "3e6e66346a908429aeb22669ad957e3a31504ca296fa94b6801fc37569e99bc6",
    "neg-inf/sis": "13dac3e2f3f97df5fd00e5b704eab48215331fd75dc8c5c9bfad7fdd3c8ac2cf",
    "neg-inf/smc": "70cabf7685d4444045ab84dd2b688f11fe49f1849cbe2b0c8ff53a9e7a4a435b",
    "neg-inf-zero-conditionals/gibbs": "1467340a93fc73512539dab6b67868888ef0e26d74d85ce31aef7b47cd3c3662",
}


def run_case(name):
    graph_key, runner, budget, cost_mode, seed = CASES[name]
    return runner(GRAPHS[graph_key](), budget, seed, cost_mode)


def digest(result) -> str:
    """sha256 of the atoms, weights, log Z estimate, budget spent and
    zero-conditional count (floats by repr, which round-trips exactly)."""
    record = [
        [list(x) for x in result.atoms],
        [repr(w) for w in result.weights],
        repr(result.log_z_estimate),
        result.budget_spent,
        result.zero_conditional_count,
    ]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_matches_golden(name):
    result = run_case(name)
    assert digest(result) == GOLDEN[name]
    assert (result.zero_conditional_count > 0) == (name == ZERO_CONDITIONAL_CASE)


# The loopy-BP messages themselves under bp_sample's schedule: per variable
# in index order, up to MESSAGE_ROUNDS rounds (stopping at an exact fixed
# point), then clamp the variable to its marginal's first maximum. The
# digests were first recorded while a round still reduced each
# factor->variable row along its own contiguous row, before the
# width-major layout, and kept through that change. They were recorded
# again when the factor->variable messages stopped being normalized: those
# messages are then each row's raw logsumexp, and the variable->factor
# messages and marginals normalize sums of them, so every message and
# marginal changes in its last bits. The atoms do not: the BP cases of
# GOLDEN above kept their digests. They were recorded a third time when a
# round moved to one padded block summed left to right and the
# variable->factor messages to normalization by their maxima: every
# variable->factor message then differs by its row's scale, and the other
# messages and the marginals in their last bits. The BP cases of GOLDEN
# again kept their digests.
MESSAGE_ROUNDS = 10

MESSAGE_GOLDEN = {
    "chains-n20-k10": "827f189f9e98c50ac73bcd204f94571118ebe335ab2f8c0f6acd8e708af04508",
    "fg1-n14-k2": "9b0f48081b4db0cc56c33b20397a5774521949a4dfd524e3661de6c57fa96ab5",
}


def message_digest(graph) -> str:
    """sha256 of msg_vf and msg_fv after every round and of every variable's
    log_marginal before each clamp."""
    state = _LoopyBP(graph)
    h = hashlib.sha256()
    for v in range(1, graph.num_variables + 1):
        for _ in range(MESSAGE_ROUNDS):
            fixed = state.round()
            h.update(state.msg_vf.tobytes())
            h.update(state.msg_fv.tobytes())
            if fixed:
                break
        for u in range(1, graph.num_variables + 1):
            h.update(state.log_marginal(u).tobytes())
        state.clamp(v, int(np.argmax(state.log_marginal(v))) + 1)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(MESSAGE_GOLDEN))
def test_bp_messages_match_golden(name):
    assert message_digest(GRAPHS[name]()) == MESSAGE_GOLDEN[name]
