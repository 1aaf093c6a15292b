import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesample import baselines
from treesample.baselines import (
    DegenerateSampleError,
    WeightedAtoms,
    _LoopyBP,
    bp_sample,
    effective_sample_size,
    gibbs,
    merge_particles,
    sis,
    smc,
)
from treesample.exact import solve_chain, solve_exact
from treesample.generators import GeneratorSpec, generate
from treesample.logmath import NEG_INF, logsumexp, logsumexp_rows, sample_softmax_rows
from treesample.model import FACTOR_EVAL, REWARD_EVAL, BudgetTooSmallError
from treesample.prior import HeuristicPrior

from test_baselines_golden import digest as golden_digest

from conftest import (ExactValuePrior, MessageAtATimeBP, all_configs, assert_log_close,
                      assignment_to_prefix, log_step_conditionals, make_graph,
                      make_random_graph, max_shifted, reference_bp_sample,
                      repeated_completion_gibbs, uniform_graph, variable_marginals)


def make_random_chain(rng, n, k, scale=1.0):
    factors = [((v,), rng.normal(scale=scale, size=k)) for v in range(1, n + 1)]
    factors += [((v, v + 1), rng.normal(scale=scale, size=k * k)) for v in range(1, n)]
    return make_graph(n, k, factors)


class TestWeightedAtoms:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            WeightedAtoms(atoms=[(1,), (1,)], weights=[0.5, 0.5])
        with pytest.raises(ValueError):
            WeightedAtoms(atoms=[(1,), (2,)], weights=[0.7, 0.7])
        with pytest.raises(ValueError):
            WeightedAtoms(atoms=[(1,), (2,)], weights=[1.0, 0.0])

    def test_lists_must_be_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            WeightedAtoms(atoms=[(1,), (2,)], weights=[1.0])

    def test_json_lines_round_trip(self):
        wa = WeightedAtoms(atoms=[(1, 2), (2, 1)], weights=[0.25, 0.75])
        lines = [json.loads(line) for line in wa.to_json_lines().splitlines()]
        assert [tuple(d["x"]) for d in lines] == wa.atoms
        assert [d["weight"] for d in lines] == wa.weights


class TestEffectiveSampleSize:
    def test_uniform_is_count(self):
        assert effective_sample_size(np.full(32, 1 / 32)) == pytest.approx(32.0)
        assert effective_sample_size(np.full(32, 2.0)) == pytest.approx(32.0)

    def test_degenerate_is_one(self):
        w = np.zeros(16)
        w[0] = 1.0
        assert effective_sample_size(w) == pytest.approx(1.0)

    def test_all_zero(self):
        assert effective_sample_size(np.zeros(4)) == 0.0


class TestSis:
    def test_uniform_target_weights_are_multiplicities(self):
        g = uniform_graph(2, 2)
        result = sis(g, HeuristicPrior(), budget=40, seed=0)
        assert result.num_particles == 20
        for w in result.weights:
            assert (w * 20) == pytest.approx(round(w * 20), abs=1e-9)
        assert sum(result.weights) == pytest.approx(1.0, abs=1e-12)

    def test_exact_proposal_zero_variance(self):
        rng = np.random.default_rng(71)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        sol = solve_exact(g)
        result = sis(g, ExactValuePrior(sol), budget=600, seed=1)
        # every particle carries weight Z exactly, so the estimate is exact
        assert result.log_z_estimate == pytest.approx(sol.log_z, abs=1e-9)
        for w in result.weights:
            assert (w * result.num_particles) == pytest.approx(
                round(w * result.num_particles), abs=1e-6
            )

    def test_large_population_approaches_target(self):
        rng = np.random.default_rng(73)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        sol = solve_exact(g)
        result = sis(g, HeuristicPrior(), budget=3 * 10_000, seed=2)
        from treesample.metrics import delta_kl_atoms

        assert delta_kl_atoms(result, g) == pytest.approx(-sol.log_z, abs=0.05)

    def test_budget_respected(self):
        g = uniform_graph(3, 2)
        result = sis(g, HeuristicPrior(), budget=31, seed=0)
        assert result.num_particles == 10
        assert result.budget_spent == 30 <= 31

    def test_budget_too_small(self):
        g = uniform_graph(3, 2)
        with pytest.raises(BudgetTooSmallError):
            sis(g, HeuristicPrior(), budget=2, seed=0)

    def test_degenerate_signal(self):
        g = make_graph(1, 2, [((1,), [-np.inf, -np.inf])])
        with pytest.raises(DegenerateSampleError):
            sis(g, HeuristicPrior(), budget=10, seed=0)


class TestSmc:
    def test_threshold_zero_equals_sis_bitwise(self):
        rng = np.random.default_rng(79)
        g = make_random_chain(rng, 5, 3)
        a = sis(g, HeuristicPrior(), budget=200, seed=5)
        b = smc(g, HeuristicPrior(), budget=200, resample_threshold=0.0, seed=5)
        assert a.atoms == b.atoms
        assert a.weights == b.weights
        assert a.log_z_estimate == b.log_z_estimate

    @pytest.mark.parametrize("family,n,k,seed", [("fg1", 14, 2, 11), ("chains", 20, 10, 7)])
    def test_shared_heuristic_row_equals_materialised_rows(self, family, n, k, seed):
        # HeuristicPrior's broadcast row is reduced once per depth; a prior
        # handing SMC the same rows as a fresh C-contiguous array gives the
        # same bits (K = 2 takes the column path, K = 10 the row reduction)
        class MaterialisedPrior(HeuristicPrior):
            def evaluate_batch(self, graph, prefixes):
                return super().evaluate_batch(graph, prefixes).copy()

        g = generate(GeneratorSpec(family=family, n=n, k=k, seed=seed))
        for threshold in (0.0, 0.5):
            a = smc(g, HeuristicPrior(), budget=6000, resample_threshold=threshold, seed=3)
            b = smc(g, MaterialisedPrior(), budget=6000, resample_threshold=threshold, seed=3)
            assert (a.atoms, a.weights) == (b.atoms, b.weights)
            assert a.log_z_estimate == b.log_z_estimate

    def test_proposals_are_sample_softmax_rows_draws(self):
        # SIS replayed by hand: per depth, one sample_softmax_rows draw over
        # the prior's rows at the next uniforms of the run's stream
        n, k = 6, 3
        rng = np.random.default_rng(97)
        g = make_random_chain(rng, n, k, scale=2.0)
        prior = ExactValuePrior(solve_exact(make_random_chain(rng, n, k, scale=2.0)))
        result = sis(g, prior, budget=1200, seed=4)
        num = result.num_particles
        stream = np.random.default_rng(4)
        particles = np.zeros((num, n), dtype=np.int64)
        lw = np.zeros(num)
        for depth in range(1, n + 1):
            qs = prior.evaluate_batch(g, particles[:, : depth - 1])
            assert np.ptp(qs, axis=1).min() > 0.0  # the prior is not uniform
            actions, logq = sample_softmax_rows(qs, stream.random(num))
            particles[:, depth - 1] = actions + 1
            lw += np.array([g.reward(tuple(row[:depth])) for row in particles.tolist()]) - logq
        atoms, weights = merge_particles(particles, lw)
        assert result.atoms == atoms
        assert result.weights == weights
        assert result.log_z_estimate == logsumexp(lw) - math.log(num)

    def test_uniform_weights_never_resample(self):
        g = uniform_graph(4, 2)
        a = smc(g, HeuristicPrior(), budget=200, resample_threshold=1.0, seed=7)
        b = sis(g, HeuristicPrior(), budget=200, seed=7)
        assert a.atoms == b.atoms and a.weights == b.weights

    def test_resampling_changes_output_under_skew(self):
        rng = np.random.default_rng(83)
        g = make_random_chain(rng, 6, 3, scale=3.0)
        a = smc(g, HeuristicPrior(), budget=600, resample_threshold=0.9, seed=11)
        b = sis(g, HeuristicPrior(), budget=600, seed=11)
        assert a.atoms != b.atoms or a.weights != b.weights

    def test_unbiased_z_estimate(self):
        rng = np.random.default_rng(89)
        g = make_random_chain(rng, 4, 2)
        sol = solve_exact(g)
        z = math.exp(sol.log_z)
        for threshold in (0.0, 0.6):
            estimates = np.array(
                [
                    math.exp(
                        smc(
                            g, HeuristicPrior(), budget=80, resample_threshold=threshold, seed=s
                        ).log_z_estimate
                    )
                    for s in range(150)
                ]
            )
            se = estimates.std(ddof=1) / math.sqrt(len(estimates))
            assert abs(estimates.mean() - z) < 4 * se


class TestGibbs:
    def test_single_variable_exact(self):
        table = np.array([0.0, 1.0, -0.5])
        g = make_graph(1, 3, [((1,), table)])
        result = gibbs(g, num_sweeps=1, budget=9000, seed=3)
        probs = np.exp(table - logsumexp_rows(table[None, :])[0])
        got = np.zeros(3)
        for x, w in zip(result.atoms, result.weights):
            got[x[0] - 1] = w
        assert np.allclose(got, probs, atol=0.03)

    def test_uniform_target_uniform_marginals(self):
        g = uniform_graph(3, 2)
        result = gibbs(g, num_sweeps=2, budget=2 * 12 * 2500, seed=5)
        marg = np.zeros((3, 2))
        for x, w in zip(result.atoms, result.weights):
            for d, v in enumerate(x):
                marg[d][v - 1] += w
        assert np.allclose(marg, 0.5, atol=3 * 0.5 / math.sqrt(2500))

    def test_marginals_close_to_exact(self):
        rng = np.random.default_rng(101)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        sol = solve_exact(g)
        exact = variable_marginals(sol, g)
        result = gibbs(g, num_sweeps=50, budget=50 * 6 * 3000, seed=7)
        assert g.ordering == (1, 2, 3)  # so each atom is also the by-variable assignment
        marg = np.zeros((3, 2))
        for x, w in zip(result.atoms, result.weights):
            for v, val in enumerate(x, start=1):
                marg[v - 1][val - 1] += w
        tv = 0.5 * np.abs(marg - exact).sum(axis=1).max()
        assert tv < 0.02

    def test_zero_conditional_fallback(self):
        # only (1,1) has mass; chains starting at x=(2,2) see all-(-inf)
        # conditionals and must fall back to uniform site resampling
        table = np.array([0.0, -np.inf, -np.inf, -np.inf])
        g = make_graph(2, 2, [((1, 2), table)])
        result = gibbs(g, num_sweeps=2, budget=400, seed=11)
        assert result.zero_conditional_count > 0
        assert (1, 1) in result.atoms
        weight_11 = result.weights[result.atoms.index((1, 1))]
        assert weight_11 > 0.5

    def test_budget_respected(self):
        g = uniform_graph(3, 2)
        result = gibbs(g, num_sweeps=4, budget=100, seed=0)
        # one sample costs 4 sweeps * 3 sites * K=2 -> 24 units; 4 samples fit
        assert result.num_particles == 4
        assert result.budget_spent == 96
        with pytest.raises(ValueError, match="num_sweeps"):
            gibbs(g, num_sweeps=0, budget=100, seed=0)

    def test_site_updates_are_sample_softmax_rows_draws(self):
        # Gibbs replayed by hand: each chain's stream is its initial state and
        # then one uniform per site update; the chains advance in lockstep, one
        # sample_softmax_rows draw over their full conditionals per site update
        n, k, sweeps = 5, 3, 3
        g = make_random_graph(np.random.default_rng(131), n, k, num_extra_factors=3,
                              shuffle_ordering=True)
        result = gibbs(g, num_sweeps=sweeps, budget=40 * sweeps * n * k, seed=2)
        num = result.num_particles
        assert num == 40
        stream = np.random.default_rng(2)
        states, uniforms = [], []
        for _ in range(num):
            states.append(stream.integers(1, k + 1, size=n))
            uniforms.append(stream.random(sweeps * n))
        states, uniforms = np.array(states), np.array(uniforms)
        site_factors = {
            v: [cf for d in range(1, n + 1) for cf in g.factors_at_depth(d) if v in cf.factor.scope]
            for v in range(1, n + 1)
        }
        for t, v in enumerate(list(range(1, n + 1)) * sweeps):
            pos = g.depth_of(v)
            scores = np.zeros((num, k))
            for c, state in enumerate(states.tolist()):
                for val in range(1, k + 1):
                    state[pos - 1] = val
                    total = 0.0
                    for cf in site_factors[v]:
                        total += cf.value_at(state)
                    scores[c, val - 1] = total
            actions, _ = sample_softmax_rows(scores, uniforms[:, t])
            states[:, pos - 1] = actions + 1
        atoms, weights = merge_particles(states, np.zeros(num))
        assert result.atoms == atoms
        assert result.weights == weights
        assert result.zero_conditional_count == 0


class TestGibbsScores:
    """Every site update's gathered (chains, K) scores equal the former
    scoring of K repeated completions of every chain, factor by factor, bit
    for bit, zero-mass rows included."""

    @pytest.mark.parametrize("cost_mode", [REWARD_EVAL, FACTOR_EVAL])
    def test_scores_equal_repeated_completions(self, cost_mode, monkeypatch):
        rng = np.random.default_rng(137)
        recorded = []
        draw = baselines._draw_or_uniform

        def recording_draw(q, u):
            # one call per wave: its sites' (chains, K) blocks, one after another
            recorded.append((q.copy(), u.copy()))
            return draw(q, u)

        monkeypatch.setattr(baselines, "_draw_or_uniform", recording_draw)
        zero_seen = multi_site_waves = 0
        for trial in range(12):
            k = int(rng.integers(2, 5))
            g = make_random_graph(rng, 5, k, num_extra_factors=4, max_scope=3,
                                  neg_inf_frac=0.5 if trial % 2 else 0.0, shuffle_ordering=True)
            recorded.clear()
            result = gibbs(g, num_sweeps=3, budget=20_000, seed=trial, cost_mode=cost_mode)
            ref, ref_scores, uniforms = repeated_completion_gibbs(g, 3, 20_000, trial, cost_mode)
            assert (result.atoms, result.weights, result.budget_spent,
                    result.zero_conditional_count) == ref
            # a site block's uniforms are its update's column of the stream
            update_of = {uniforms[:, t].tobytes(): t for t in range(uniforms.shape[1])}
            seen = []
            num = result.num_particles
            for q, u in recorded:
                sites = len(u) // num
                multi_site_waves += sites > 1
                for block, block_u in zip(q.reshape(sites, num, k), u.reshape(sites, num)):
                    t = update_of[block_u.tobytes()]
                    seen.append(t)
                    assert block.tobytes() == ref_scores[t].tobytes()
            assert sorted(seen) == list(range(len(ref_scores)))
            zero_seen += result.zero_conditional_count > 0
        assert zero_seen >= 3
        assert multi_site_waves > 0


class TestBpSample:
    @staticmethod
    def every_round_bp_sample(graph, num_message_rounds, budget, seed):
        """bp_sample without the fixed-point rule: every round runs. A
        zero-mass marginal gives the uniform value of its uniform."""
        n, k = graph.num_variables, graph.num_states
        num = budget // (n * num_message_rounds * graph.num_factors)
        rng = np.random.default_rng(seed)
        state = _LoopyBP(graph)
        particles = np.zeros((num, n), dtype=np.int64)
        spent = zero_marginals = 0
        for i in range(num):
            state.reset()
            assignment = [0] * n
            for v in range(1, n + 1):
                for _ in range(num_message_rounds):
                    spent += graph.num_factors
                    state.round()
                marg = state.log_marginal(v)
                u = rng.random(1)
                if np.max(marg) == NEG_INF:
                    zero_marginals += 1
                    assignment[v - 1] = min(int(u[0] * k), k - 1) + 1
                else:
                    assignment[v - 1] = int(sample_softmax_rows(marg[None, :], u)[0][0]) + 1
                state.clamp(v, assignment[v - 1])
            particles[i] = assignment_to_prefix(graph, assignment)
        atoms, weights = merge_particles(particles, np.zeros(num))
        return atoms, weights, spent, zero_marginals

    def test_fixed_point_skip_equals_running_every_round(self):
        # random graphs with -inf entries: same atoms, weights, charge and
        # zero-mass count
        rng = np.random.default_rng(139)
        for trial in range(10):
            k = int(rng.integers(2, 5))
            g = make_random_graph(rng, 5, k, num_extra_factors=4, max_scope=3,
                                  neg_inf_frac=0.3 if trial % 2 else 0.0, shuffle_ordering=True)
            budget = 3 * 5 * 6 * g.num_factors
            ref = self.every_round_bp_sample(g, 6, budget, seed=trial)
            result = bp_sample(g, 6, budget, seed=trial)
            assert (result.atoms, result.weights, result.budget_spent,
                    result.zero_conditional_count) == ref

    def test_skipped_rounds_are_charged_on_fg1(self, monkeypatch):
        g = generate(GeneratorSpec(family="fg1", n=14, k=2, seed=11))
        ref = self.every_round_bp_sample(g, 10, 8000, seed=6)
        rounds_run = 0
        round_ = _LoopyBP.round

        def counted_round(state):
            nonlocal rounds_run
            rounds_run += 1
            return round_(state)

        monkeypatch.setattr(_LoopyBP, "round", counted_round)
        result = bp_sample(g, 10, 8000, seed=6)
        assert (result.atoms, result.weights, result.budget_spent,
                result.zero_conditional_count) == ref
        assert rounds_run < result.budget_spent // g.num_factors == 420

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), k=st.sampled_from([2, 3]),
           rounds=st.integers(1, 4), samples=st.integers(1, 12),
           neg_inf=st.sampled_from([0.0, 0.4, 0.8]))
    def test_trie_walk_equals_sample_at_a_time(self, seed, n, k, rounds, samples, neg_inf):
        # same atoms, weights, charge and zero-mass count
        rng = np.random.default_rng(seed)
        g = make_random_graph(rng, n, k, num_extra_factors=4 if n > 1 else 0,
                              neg_inf_frac=neg_inf, shuffle_ordering=True)
        per_sample = n * rounds * g.num_factors
        budget = samples * per_sample + int(rng.integers(0, per_sample))
        ref = reference_bp_sample(g, rounds, budget, seed=seed)
        result = bp_sample(g, rounds, budget, seed=seed)
        assert (result.atoms, result.weights) == (ref.atoms, ref.weights)
        assert (result.num_particles, result.budget_spent) == (samples, ref.budget_spent)
        assert result.zero_conditional_count == ref.zero_conditional_count

    def test_zero_mass_marginals_draw_a_uniform_value(self):
        # hard-constraint graphs on which a BP marginal of zero mass used to
        # end the run with ZeroMassError: every call returns its samples, with
        # no RuntimeWarning, and counts its zero-mass draws
        rng = np.random.default_rng(41)
        zero_seen = 0
        for trial in range(300):
            n, k = int(rng.integers(1, 7)), int(rng.integers(2, 4))
            g = make_random_graph(rng, n, k, num_extra_factors=4 if n > 1 else 0,
                                  neg_inf_frac=[0.0, 0.4, 0.8][trial % 3], shuffle_ordering=True)
            rounds, samples = int(rng.integers(1, 5)), int(rng.integers(1, 13))
            result = bp_sample(g, rounds, samples * n * rounds * g.num_factors, seed=trial)
            assert result.num_particles == samples
            assert 0 <= result.zero_conditional_count <= samples * n
            zero_seen += result.zero_conditional_count > 0
        assert zero_seen >= 50

    def test_zero_mass_marginals_golden(self):
        # a graph of positive total mass on which 39 of the 110 draws meet a
        # zero-mass marginal; the digest was recorded when bp_sample took the
        # uniform rule (the atoms, weights, log Z, charge and zero-mass count)
        g = make_random_graph(np.random.default_rng(29), 5, 3, num_extra_factors=4,
                              neg_inf_frac=0.4, shuffle_ordering=True)
        result = bp_sample(g, 2, 2000, seed=3)
        assert (result.num_particles, result.zero_conditional_count) == (22, 39)
        assert golden_digest(result) == (
            "cc57dddfc4d66dd785b8ad79e10df0253e0776a4370d986cbff7e6571c066f22")

    @pytest.mark.parametrize("seed", range(6, 12))
    def test_rounds_run_once_per_prefix_on_fg1(self, seed, monkeypatch):
        # the benchmark's fg1 n14 BP cell: the trie walk runs each distinct
        # assignment prefix's rounds once, where the sample-at-a-time loop
        # runs them once per sample, and charges what that loop charges
        g = generate(GeneratorSpec(family="fg1", n=14, k=2, seed=11))
        calls = []  # (sample, clamps since the last reset) of every round run
        sample, clamps = -1, ()
        reset, clamp, round_ = _LoopyBP.reset, _LoopyBP.clamp, _LoopyBP.round

        def counted_reset(state):
            nonlocal sample, clamps
            sample, clamps = sample + 1, ()
            reset(state)

        def counted_clamp(state, v, value):
            nonlocal clamps
            clamps += ((v, value),)
            clamp(state, v, value)

        def counted_round(state):
            calls.append((sample, clamps))
            return round_(state)

        monkeypatch.setattr(_LoopyBP, "reset", counted_reset)
        monkeypatch.setattr(_LoopyBP, "clamp", counted_clamp)
        monkeypatch.setattr(_LoopyBP, "round", counted_round)
        ref = reference_bp_sample(g, 10, 8000, seed=seed)
        first_visit = {}
        for i, prefix in calls:
            first_visit.setdefault(prefix, i)
        once_per_prefix = sum(first_visit[prefix] == i for i, prefix in calls)
        calls.clear()
        result = bp_sample(g, 10, 8000, seed=seed)
        assert (result.atoms, result.weights) == (ref.atoms, ref.weights)
        assert len(calls) == once_per_prefix < 315
        assert result.budget_spent == ref.budget_spent == 420 * g.num_factors

    def test_single_factor_graph_one_round(self):
        rng = np.random.default_rng(103)
        table = rng.normal(size=4)
        g = make_graph(2, 2, [((1, 2), table)])
        marg = bp_step_conditionals(g, num_message_rounds=1, prefix_values={})
        joint = np.exp(table.reshape(2, 2))
        ref = joint.sum(axis=1) / joint.sum()
        assert np.allclose(np.exp(marg), ref, atol=1e-9)

    def test_chain_conditionals_exact(self):
        rng = np.random.default_rng(107)
        g = make_random_chain(rng, 6, 3)
        chain = solve_chain(g)
        first, steps = log_step_conditionals(chain)
        got0 = bp_step_conditionals(g, num_message_rounds=6, prefix_values={})
        assert np.allclose(np.exp(got0), np.exp(first), atol=1e-6)
        got2 = bp_step_conditionals(g, num_message_rounds=6, prefix_values={1: 2})
        assert np.allclose(np.exp(got2), np.exp(steps[0][1]), atol=1e-6)
        got3 = bp_step_conditionals(g, num_message_rounds=6, prefix_values={1: 2, 2: 3})
        assert np.allclose(np.exp(got3), np.exp(steps[1][2]), atol=1e-6)

    def test_loopy_matches_reference_implementation(self):
        rng = np.random.default_rng(109)
        tables = [rng.normal(size=4) for _ in range(3)]
        g = make_graph(3, 2, [((1, 2), tables[0]), ((2, 3), tables[1]), ((1, 3), tables[2])])
        got = bp_step_conditionals(g, num_message_rounds=5, prefix_values={})
        ref = _reference_bp_marginal(g, rounds=5, clamped={}, target=1)
        assert np.allclose(np.exp(got), ref, atol=1e-9)
        got2 = bp_step_conditionals(g, num_message_rounds=5, prefix_values={1: 1})
        ref2 = _reference_bp_marginal(g, rounds=5, clamped={1: 1}, target=2)
        assert np.allclose(np.exp(got2), ref2, atol=1e-9)

    def test_budget_and_output_shape(self):
        rng = np.random.default_rng(113)
        g = make_random_chain(rng, 4, 2)
        # per sample: 4 variables * 2 rounds * 7 factors = 56
        result = bp_sample(g, num_message_rounds=2, budget=200, seed=1)
        assert result.num_particles == 3
        assert result.budget_spent == 168
        assert sum(result.weights) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(BudgetTooSmallError):
            bp_sample(g, num_message_rounds=2, budget=55, seed=1)
        with pytest.raises(ValueError, match="num_message_rounds"):
            bp_sample(g, num_message_rounds=0, budget=200, seed=1)

    def test_messages_equal_message_at_a_time_rounds(self):
        # the one-block rounds against one logsumexp_rows/logsumexp call per
        # message, with clamps, -inf entries and K up to 10: every message
        # row minus its maximum, and every marginal, within 1e-12 of
        # max(1, |x|), with the same -inf entries. The block sums its rows
        # in another order and normalizes the variable->factor messages by
        # their maxima, so the bits differ. Then two graphs whose padding
        # the random ones may miss: K = 3 with arities 1 to 3, whose width-3
        # rows are padded to 9, and K = 6 with arities 2 and 4, whose
        # width-6 rows are padded to 216
        rng = np.random.default_rng(127)
        graphs = []
        for trial in range(24):
            k = int(rng.integers(2, 11))
            graphs.append(make_random_graph(
                rng, 5, k, num_extra_factors=4, max_scope=4 if k <= 3 else 3,
                neg_inf_frac=0.3 if trial % 2 else 0.0, shuffle_ordering=True))
        for k, scopes in ((3, [(1, 2), (2, 3, 4), (3, 5), (1, 4, 5)]),
                          (6, [(1, 2, 3, 4), (4, 5), (2, 5)])):
            factors = [((v,), rng.normal(size=k)) for v in range(1, 6)]
            for scope in scopes:
                table = rng.normal(size=k ** len(scope))
                table[rng.random(table.shape) < 0.2] = NEG_INF
                factors.append((scope, table))
            graphs.append(make_graph(5, k, factors))
        for g in graphs:
            k = g.num_states
            state, ref = _LoopyBP(g), MessageAtATimeBP(g)
            for v in rng.permutation(np.arange(1, 6))[:3].tolist() + [None]:
                for _ in range(3):
                    state.round()
                    ref.round()
                    for got, expected in ((state.msg_fv, ref.msg_fv), (state.msg_vf, ref.msg_vf)):
                        assert_log_close(max_shifted(got), max_shifted(ref.stacked(expected)))
                for u in range(1, 6):
                    assert_log_close(state.log_marginal(u), ref.log_marginal(u))
                if v is not None:
                    value = int(rng.integers(1, k + 1))
                    state.clamp(v, value)
                    ref.clamp(v, value)

    @pytest.mark.parametrize("n, k", [(1, 2), (1, 10), (4, 3), (6, 9)])
    def test_unary_only_graphs_give_exact_marginals(self, n, k):
        # no factor spans two variables, so the block is empty: one round
        # gives each variable its exact marginal, the sum of its unary
        # tables minus its logsumexp, and bp_sample draws the reference's
        # atoms; -inf entries include a variable of zero mass at n = 6
        rng = np.random.default_rng(100 * n + k)
        tables = {v: [rng.normal(size=k) for _ in range(int(rng.integers(1, 4)))]
                  for v in range(1, n + 1)}
        for v_tables in tables.values():
            for table in v_tables:
                table[rng.random(k) < 0.3] = NEG_INF
        if n == 6:
            tables[6][0][:] = NEG_INF
        g = make_graph(n, k, [((v,), t) for v, v_tables in tables.items() for t in v_tables])
        state = _LoopyBP(g)
        state.round()
        for v, v_tables in tables.items():
            total = sum(v_tables, np.zeros(k))
            lse = logsumexp(total)
            assert_log_close(state.log_marginal(v), total - lse if lse > NEG_INF else total)
        budget = 5 * n * 2 * g.num_factors
        result = bp_sample(g, 2, budget, seed=k)
        ref = reference_bp_sample(g, 2, budget, seed=k, bp=MessageAtATimeBP)
        assert (result.atoms, result.weights, result.budget_spent,
                result.zero_conditional_count) == (ref.atoms, ref.weights, ref.budget_spent,
                                                   ref.zero_conditional_count)
        assert result.zero_conditional_count == (5 if n == 6 else 0)


def bp_step_conditionals(graph, num_message_rounds, prefix_values):
    """Log-marginal of the lowest-index unclamped variable after clamping the
    given variable->value map in index order, with the message rounds run
    before each clamp and once more at the end, as bp_sample schedules them."""
    state = _LoopyBP(graph)
    unsampled = [v for v in range(1, graph.num_variables + 1) if v not in prefix_values]
    for v in sorted(prefix_values):
        for _ in range(num_message_rounds):
            state.round()
        state.clamp(v, prefix_values[v])
    for _ in range(num_message_rounds):
        state.round()
    return state.log_marginal(unsampled[0])


def _reference_bp_marginal(graph, rounds, clamped, target):
    """Independent dense sum-product with the same synchronous schedule:
    factor->variable then variable->factor, normalized, uniform init."""
    k = graph.num_states
    scopes = [f.scope for f in graph.factors]
    tensors = [f.table.reshape((k,) * len(f.scope)) for f in graph.factors]
    msg_vf = {(v, fi): np.full(k, 1.0 / k) for fi, sc in enumerate(scopes) for v in sc}
    for v, val in clamped.items():
        atom = np.zeros(k)
        atom[val - 1] = 1.0
        for fi, sc in enumerate(scopes):
            if v in sc:
                msg_vf[(v, fi)] = atom
    msg_fv = {(fi, v): np.full(k, 1.0 / k) for fi, sc in enumerate(scopes) for v in sc}
    for _ in range(rounds):
        new_fv = {}
        for fi, sc in enumerate(scopes):
            pot = np.exp(tensors[fi])
            for axis, v in enumerate(sc):
                acc = pot.copy()
                for ax2, u in enumerate(sc):
                    if u == v:
                        continue
                    shape = [1] * len(sc)
                    shape[ax2] = k
                    acc = acc * msg_vf[(u, fi)].reshape(shape)
                vec = acc.sum(axis=tuple(ax for ax in range(len(sc)) if ax != axis))
                new_fv[(fi, v)] = vec / vec.sum()
        msg_fv = new_fv
        for (v, fi) in list(msg_vf):
            if v in clamped:
                continue
            prod = np.ones(k)
            for gi, sc in enumerate(scopes):
                if v in sc and gi != fi:
                    prod = prod * msg_fv[(gi, v)]
            msg_vf[(v, fi)] = prod / prod.sum()
    belief = np.ones(k)
    for fi, sc in enumerate(scopes):
        if target in sc:
            belief = belief * msg_fv[(fi, target)]
    return belief / belief.sum()

