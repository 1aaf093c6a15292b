"""Property tests of the baselines on random small graphs.

SMC's estimate of Z (exp of log_z_estimate) is unbiased, with and without
resampling: over many run seeds its mean must lie within 4 standard errors
of the exact Z. Graphs have up to 4 variables of up to 3 states, random extra
factors and a shuffled depth ordering.

Gibbs run in dependency waves equals the raw-index scan of
conftest.repeated_completion_gibbs: the same atoms, weights, spend and
zero-conditional count, on graphs with -inf entries, shuffled orderings,
factor scopes of up to 4 variables and variables whose only factor is
unary, in both cost modes. Its schedule puts no two sites that share a
factor in one wave, and each site's successive updates in increasing waves.

The tiled Gibbs schedule equals conftest.reference_gibbs_waves, the
schedule computed update by update for every sweep, on graphs with shuffled
orderings, variables whose only factor is unary and several connected
components.

The array merge of baselines.merge_particles equals the dict merge of
conftest.reference_merge_particles (the same atoms in the same order, the
same weight bits), and metrics' scoring of the merged atoms equals the
Python loop of conftest.reference_atoms_estimate (the same delta_kl, energy
and entropy bits, the sign of a zero included), on particles drawn from few
distinct rows or many, some or all log weights -inf, single atoms of weight
1.0, atoms of log-density -inf and empty approximations.

Loopy BP equals a message-at-a-time reference (conftest.MessageAtATimeBP)
up to each message's scale and rounding: bp_sample gives the atoms,
weights, spend and zero-mass count of reference_bp_sample over that
reference, on graphs with -inf entries, up to 8 variables, K up to 10 and
unary-only graphs included. Under the golden message schedule every
marginal agrees with the reference's to 1e-12 of max(1, |x|), with the same
-inf entries.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treesample.baselines import (WeightedAtoms, _gibbs_waves, _LoopyBP, bp_sample, gibbs,
                                  merge_particles, smc)
from treesample.exact import solve_exact
from treesample.metrics import _atoms_estimate
from treesample.model import FACTOR_EVAL, REWARD_EVAL
from treesample.prior import HeuristicPrior

from conftest import (MessageAtATimeBP, assert_log_close, make_random_graph, particle_record,
                      reference_atoms_estimate, reference_bp_sample, reference_gibbs_waves,
                      reference_merge_particles, repeated_completion_gibbs)

NUM_RUNS = 150

graphs = st.fixed_dictionaries({
    "graph_seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 4),
    "k": st.integers(2, 3),
    "extra_factors": st.integers(0, 3),
    "particles": st.integers(4, 12),
})


@settings(max_examples=25, deadline=None, derandomize=True)
@given(graphs)
def test_smc_z_estimate_is_unbiased(p):
    rng = np.random.default_rng(p["graph_seed"])
    extra = p["extra_factors"] if p["n"] > 1 else 0  # extra factors span 2+ variables
    graph = make_random_graph(rng, p["n"], p["k"], num_extra_factors=extra, shuffle_ordering=True)
    z = math.exp(solve_exact(graph).log_z)
    budget = p["particles"] * graph.num_variables
    for threshold in (0.0, 0.6):
        estimates = np.array([
            math.exp(smc(graph, HeuristicPrior(), budget, resample_threshold=threshold,
                         seed=s).log_z_estimate)
            for s in range(NUM_RUNS)
        ])
        se = estimates.std(ddof=1) / math.sqrt(NUM_RUNS)
        # the rounding allowance covers targets where every weight is equal
        assert abs(estimates.mean() - z) <= 4 * se + 1e-9 * z


gibbs_runs = st.fixed_dictionaries({
    "graph_seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 6),
    "k": st.integers(2, 4),
    "extra_factors": st.integers(0, 4),
    "max_scope": st.integers(2, 4),
    "neg_inf_frac": st.sampled_from([0.0, 0.3, 0.6]),
    "shuffle": st.booleans(),
    "cost_mode": st.sampled_from([REWARD_EVAL, FACTOR_EVAL]),
    "sweeps": st.integers(1, 3),
    "chains": st.integers(1, 12),
    "seed": st.integers(0, 2**16),
})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gibbs_runs)
def test_wave_gibbs_equals_the_scan(p):
    rng = np.random.default_rng(p["graph_seed"])
    n, sweeps = p["n"], p["sweeps"]
    extra = p["extra_factors"] if n > 1 else 0  # extra factors span 2+ variables
    graph = make_random_graph(rng, n, p["k"], num_extra_factors=extra, max_scope=p["max_scope"],
                              neg_inf_frac=p["neg_inf_frac"], shuffle_ordering=p["shuffle"])
    # enough for the chains in either cost mode; reward_eval buys more
    budget = p["chains"] * sweeps * p["k"] * sum(len(f.scope) for f in graph.factors)
    result = gibbs(graph, sweeps, budget, seed=p["seed"], cost_mode=p["cost_mode"])
    ref, _, _ = repeated_completion_gibbs(graph, sweeps, budget, p["seed"], p["cost_mode"])
    assert particle_record(result) == particle_record(ref)

    waves = _gibbs_waves(graph, sweeps)
    assert len(waves) == sweeps * n
    members: dict[int, list[int]] = {}
    for t, wave in enumerate(waves):
        members.setdefault(wave, []).append(t % n + 1)
    for sites in members.values():
        for f in graph.factors:
            assert len(set(f.scope) & set(sites)) <= 1
    for v in range(n):
        own = waves[v::n]
        assert all(a < b for a, b in zip(own, own[1:]))


def _bits(values) -> list[int]:
    """The float64 bit patterns of values: -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


merges = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 6),
    "k": st.integers(2, 4),
    "particles": st.integers(1, 300),
    "distinct": st.sampled_from([1, 2, 5, 40, None]),  # None: rows drawn uniformly
    "log_weight_scale": st.sampled_from([0.0, 1.0, 30.0]),
    "neg_inf_weights": st.sampled_from([0.0, 0.5, 0.95, 1.0]),
    "neg_inf_frac": st.sampled_from([0.0, 0.3]),
})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(merges)
@example({"seed": 1, "n": 3, "k": 2, "particles": 7, "distinct": 1, "log_weight_scale": 1.0,
          "neg_inf_weights": 0.0, "neg_inf_frac": 0.0})
@example({"seed": 2, "n": 2, "k": 3, "particles": 9, "distinct": None, "log_weight_scale": 1.0,
          "neg_inf_weights": 1.0, "neg_inf_frac": 0.0})
def test_array_merge_and_scoring_equal_dict_and_loop_bitwise(p):
    # the examples pin one atom of weight 1.0 (entropy 0.0, not -0.0) and an
    # empty approximation (every log weight -inf)
    rng = np.random.default_rng(p["seed"])
    n, k, num = p["n"], p["k"], p["particles"]
    graph = make_random_graph(rng, n, k, num_extra_factors=3 if n > 1 else 0,
                              neg_inf_frac=p["neg_inf_frac"], shuffle_ordering=True)
    if p["distinct"] is None:
        particles = rng.integers(1, k + 1, size=(num, n))
    else:
        pool = rng.integers(1, k + 1, size=(p["distinct"], n))
        particles = pool[rng.integers(0, len(pool), size=num)]
    log_weights = p["log_weight_scale"] * rng.normal(size=num)
    log_weights[rng.random(num) < p["neg_inf_weights"]] = -np.inf
    atoms, weights = merge_particles(particles, log_weights)
    ref_atoms, ref_weights = reference_merge_particles(particles, log_weights)
    assert atoms.shape == (len(ref_atoms), n) and atoms.dtype == np.int64
    assert atoms.tolist() == [list(x) for x in ref_atoms]
    assert _bits(weights) == _bits(ref_weights)
    est = _atoms_estimate(WeightedAtoms(atoms=atoms, weights=weights), graph)
    ref = reference_atoms_estimate(ref_atoms, ref_weights, graph)
    assert est.stderr == 0.0
    assert _bits([est.delta_kl, est.energy, est.entropy]) == _bits(ref)


wave_graphs = st.fixed_dictionaries({
    "graph_seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 10),
    "extra_factors": st.integers(0, 8),
    "max_scope": st.integers(2, 4),
    "sweeps": st.integers(1, 12),
})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wave_graphs)
def test_tiled_gibbs_waves_equal_the_full_schedule(p):
    rng = np.random.default_rng(p["graph_seed"])
    extra = p["extra_factors"] if p["n"] > 1 else 0  # extra factors span 2+ variables
    graph = make_random_graph(rng, p["n"], 2, num_extra_factors=extra,
                              max_scope=p["max_scope"], shuffle_ordering=True)
    assert _gibbs_waves(graph, p["sweeps"]).tolist() == reference_gibbs_waves(graph, p["sweeps"])


bp_runs = st.fixed_dictionaries({
    "graph_seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 8),
    "k": st.integers(2, 10),
    "extra_factors": st.integers(0, 5),
    "neg_inf_frac": st.sampled_from([0.0, 0.3]),
    "rounds": st.integers(1, 10),
    "samples": st.integers(1, 6),
    "seed": st.integers(0, 2**16),
})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bp_runs)
@example({"graph_seed": 1, "n": 1, "k": 3, "extra_factors": 0, "neg_inf_frac": 0.3,
          "rounds": 2, "samples": 4, "seed": 1})
@example({"graph_seed": 2, "n": 5, "k": 10, "extra_factors": 0, "neg_inf_frac": 0.0,
          "rounds": 3, "samples": 6, "seed": 2})
def test_unnormalized_factor_messages_keep_atoms_and_marginals(p):
    # the examples pin an N = 1 graph and a unary-only graph at K = 10
    rng = np.random.default_rng(p["graph_seed"])
    n, k, rounds = p["n"], p["k"], p["rounds"]
    extra = p["extra_factors"] if n > 1 else 0  # extra factors span 2+ variables
    graph = make_random_graph(rng, n, k, num_extra_factors=extra,
                              max_scope=4 if k <= 3 else 3, neg_inf_frac=p["neg_inf_frac"],
                              shuffle_ordering=True)
    budget = p["samples"] * n * rounds * graph.num_factors
    result = bp_sample(graph, rounds, budget, seed=p["seed"])
    ref = reference_bp_sample(graph, rounds, budget, seed=p["seed"], bp=MessageAtATimeBP)
    assert particle_record(result) == particle_record(ref)

    # each state runs its own rounds up to its own exact fixed point; both
    # clamp the value the reference's marginal puts first
    state, ref_state = _LoopyBP(graph), MessageAtATimeBP(graph)
    for v in range(1, n + 1):
        for s in (state, ref_state):
            for _ in range(rounds):
                if s.round():
                    break
        for u in range(1, n + 1):
            assert_log_close(state.log_marginal(u), ref_state.log_marginal(u))
        value = int(np.argmax(ref_state.log_marginal(v))) + 1
        state.clamp(v, value)
        ref_state.clamp(v, value)
