import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from treesample.exact import (
    ChainSolution,
    StateSpaceCapError,
    exact_kl,
    is_chain,
    kl_by_enumeration,
    solve_chain,
    solve_exact,
)
from treesample.logmath import (
    NEG_INF,
    ZeroMassError,
    logsumexp,
    logsumexp_rows,
    sample_softmax,
    sample_softmax_rows,
)
from treesample.model import Factor, FactorGraph

from conftest import all_configs, brute_force_log_z, make_random_graph


def _graph(n, k, factors, ordering=None):
    return FactorGraph(
        num_variables=n,
        num_states=k,
        factors=tuple(
            Factor(id=i, scope=s, table=np.asarray(t, dtype=float)) for i, (s, t) in enumerate(factors)
        ),
        ordering=tuple(ordering or range(1, n + 1)),
    )


def make_random_chain(rng, n, k, scale=1.0):
    factors = [((v,), rng.normal(scale=scale, size=k)) for v in range(1, n + 1)]
    factors += [((v, v + 1), rng.normal(scale=scale, size=k * k)) for v in range(1, n)]
    return _graph(n, k, factors)


class TestLogsumexp:
    def test_all_neg_inf(self):
        assert logsumexp(np.array([NEG_INF, NEG_INF])) == NEG_INF
        rows = logsumexp_rows(np.array([[NEG_INF, NEG_INF], [0.0, NEG_INF]]))
        assert rows[0] == NEG_INF
        assert rows[1] == 0.0

    def test_overflow_safe(self):
        big = np.array([700.0, 701.0, 702.0])
        ref = 702.0 + math.log(math.exp(-2) + math.exp(-1) + 1)
        assert logsumexp(big) == pytest.approx(ref, rel=1e-15)
        assert math.isfinite(logsumexp(np.array([-1e308, 1e300])))

    def test_ignores_neg_inf_entries(self):
        assert logsumexp(np.array([0.0, NEG_INF])) == pytest.approx(0.0)


class TestSampleSoftmaxRows:
    """The row-wise draw equals sample_softmax and logsumexp bit for bit,
    for widths on both sides of numpy's 8-way and 128-block summation."""

    def test_rows_match_scalar_path(self):
        rng = np.random.default_rng(3)
        rows = 2000  # np.log differs from math.log on about 1 in 300 sums here
        for k in (2, 3, 8, 10, 17, 130):
            q = rng.normal(scale=3.0, size=(rows, k))
            q[rng.random(q.shape) < 0.3] = NEG_INF
            q[np.arange(rows), rng.integers(0, k, size=rows)] = rng.normal(size=rows)
            u = np.random.default_rng(k).random(rows)
            a, logp = sample_softmax_rows(q, u)
            replay = iter(u.tolist())
            scalar = SimpleNamespace(random=lambda: next(replay))
            for row, ai, lp in zip(q, a.tolist(), logp.tolist()):
                assert ai == sample_softmax(row, scalar)
                assert lp == float(row[ai]) - logsumexp(row)

    def test_shared_row(self):
        q = np.array([[0.5, NEG_INF, -1.0]])
        u = np.random.default_rng(0).random(50)
        a, logp = sample_softmax_rows(q, u)
        assert set(a.tolist()) == {0, 2}
        assert logp.tolist() == [float(q[0, i]) - logsumexp(q[0]) for i in a.tolist()]

    def test_zero_mass_row_raises(self):
        with pytest.raises(ZeroMassError):
            sample_softmax_rows(np.array([[0.0, 1.0], [NEG_INF, NEG_INF]]), np.zeros(2))


class TestSolveExact:
    def test_uniform_target(self):
        g = _graph(3, 2, [((v,), np.zeros(2)) for v in (1, 2, 3)])
        sol = solve_exact(g)
        assert sol.log_z == pytest.approx(3 * math.log(2), abs=1e-12)
        for n in range(3):
            expected = (3 - (n + 1)) * math.log(2)
            assert np.allclose(sol.q_levels[n], expected, atol=1e-12)

    def test_point_mass(self):
        table = np.full(8, -np.inf)
        table[0] = 0.0  # only x=(1,1,1) has mass
        g = _graph(3, 2, [((1, 2, 3), table)])
        sol = solve_exact(g)
        assert sol.log_z == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(sol.conditional(()), [1.0, 0.0])
        assert np.array_equal(sol.conditional((1,)), [1.0, 0.0])
        assert sol.log_joint((1, 1, 1)) == pytest.approx(0.0)
        assert sol.log_joint((2, 1, 1)) == NEG_INF

    def test_log_z_matches_enumeration(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            g = make_random_graph(rng, 4, 3, num_extra_factors=4, shuffle_ordering=True)
            sol = solve_exact(g)
            ref = brute_force_log_z(g)
            assert math.exp(sol.log_z) == pytest.approx(math.exp(ref), rel=1e-10)

    def test_conditionals_match_enumeration(self):
        # Obs-2-style identity: softmax of optimal values equals the target
        # conditional computed from the enumerated joint.
        rng = np.random.default_rng(29)
        g = make_random_graph(rng, 4, 2, num_extra_factors=3, neg_inf_frac=0.15)
        sol = solve_exact(g)
        joint = {x: g.log_unnormalized_density(x) for x in all_configs(4, 2)}
        for prefix_len in range(4):
            for prefix in all_configs(prefix_len, 2) if prefix_len else [()]:
                masses = np.zeros(2)
                for x, lp in joint.items():
                    if x[:prefix_len] == tuple(prefix) and lp > NEG_INF:
                        masses[x[prefix_len] - 1] += math.exp(lp)
                if masses.sum() == 0:
                    continue
                ref = masses / masses.sum()
                assert np.allclose(sol.conditional(tuple(prefix)), ref, atol=1e-9)

    def test_level_log_probs_normalized(self):
        rng = np.random.default_rng(31)
        g = make_random_graph(rng, 4, 3, num_extra_factors=2)
        sol = solve_exact(g)
        for level in sol.level_log_probs():
            assert np.exp(level).sum() == pytest.approx(1.0, abs=1e-10)

    def test_variable_marginals_match_enumeration(self):
        rng = np.random.default_rng(37)
        g = make_random_graph(rng, 4, 2, num_extra_factors=3, shuffle_ordering=True)
        sol = solve_exact(g)
        marg = sol.variable_marginals(g)
        probs = {x: math.exp(sol.log_joint(g.assignment_to_prefix(x))) for x in all_configs(4, 2)}
        for v in range(1, 5):
            for val in (1, 2):
                ref = sum(p for x, p in probs.items() if x[v - 1] == val)
                assert marg[v - 1][val - 1] == pytest.approx(ref, abs=1e-9)

    def test_cap(self):
        g = _graph(3, 2, [((v,), np.zeros(2)) for v in (1, 2, 3)])
        with pytest.raises(StateSpaceCapError):
            solve_exact(g, cap=7)

    def test_entropy_identity(self):
        rng = np.random.default_rng(41)
        g = make_random_graph(rng, 3, 3, num_extra_factors=2)
        sol = solve_exact(g)
        # H = log Z - E[sum psi], both sides computed independently here
        probs = np.exp(sol.enumerate_log_joint())
        lds = np.array([g.log_unnormalized_density(x) for x in all_configs(3, 3)])
        e_ref = float(np.sum(probs * lds))
        h_ref = float(-np.sum(probs[probs > 0] * np.log(probs[probs > 0])))
        assert sol.expected_log_density() == pytest.approx(e_ref, abs=1e-9)
        assert sol.entropy() == pytest.approx(h_ref, abs=1e-9)


class TestSolveChain:
    def test_uniform_chain(self):
        g = _graph(10, 5, [((v,), np.zeros(5)) for v in range(1, 11)] + [((v, v + 1), np.zeros(25)) for v in range(1, 10)])
        sol = solve_chain(g)
        assert sol.log_z == pytest.approx(10 * math.log(5), abs=1e-9)
        assert np.allclose(sol.position_marginals(), 0.2, atol=1e-12)

    def test_two_variable_marginals(self):
        rng = np.random.default_rng(43)
        g = make_random_chain(rng, 2, 3)
        sol = solve_chain(g)
        masses = np.zeros((3, 3))
        for x in all_configs(2, 3):
            masses[x[0] - 1, x[1] - 1] = math.exp(g.log_unnormalized_density(x))
        z = masses.sum()
        assert math.exp(sol.log_z) == pytest.approx(z, rel=1e-12)
        assert np.allclose(sol.position_marginals()[0], masses.sum(axis=1) / z, atol=1e-12)
        assert np.allclose(sol.position_marginals()[1], masses.sum(axis=0) / z, atol=1e-12)

    def test_agrees_with_solve_exact(self):
        rng = np.random.default_rng(47)
        for trial in range(5):
            g = make_random_chain(rng, 6, 3)
            chain = solve_chain(g)
            full = solve_exact(g)
            assert chain.log_z == pytest.approx(full.log_z, abs=1e-9)
            assert np.allclose(chain.variable_marginals(), full.variable_marginals(g), atol=1e-9)
            first, steps = chain.log_step_conditionals()
            assert np.allclose(np.exp(first), full.conditional(()), atol=1e-9)
            for prefix in [(1,), (2, 3), (3, 1, 2, 1)]:
                p = len(prefix)
                ref = full.conditional(prefix)
                got = np.exp(steps[p - 1][prefix[-1] - 1])
                assert np.allclose(got, ref, atol=1e-9)

    def test_log_joint_matches(self):
        rng = np.random.default_rng(53)
        g = make_random_chain(rng, 5, 2)
        chain = solve_chain(g)
        for x in all_configs(5, 2):
            ref = g.log_unnormalized_density(x) - chain.log_z
            assert chain.log_joint(x) == pytest.approx(ref, abs=1e-9)

    def test_non_chain_rejected(self):
        g = _graph(3, 2, [((1, 3), np.zeros(4)), ((2,), np.zeros(2))])
        assert not is_chain(g)
        with pytest.raises(ValueError):
            solve_chain(g)

    def test_reordered_chain_accepted(self):
        # scopes are non-consecutive in raw indices but consecutive under ordering
        g = _graph(
            3,
            2,
            [((1, 3), np.ones(4)), ((2, 3), np.ones(4)), ((1,), np.zeros(2)), ((2,), np.zeros(2))],
            ordering=(1, 3, 2),
        )
        assert is_chain(g)
        sol = solve_chain(g)
        assert sol.log_z == pytest.approx(brute_force_log_z(g), abs=1e-9)

    def test_expected_log_density(self):
        rng = np.random.default_rng(59)
        g = make_random_chain(rng, 4, 3)
        chain = solve_chain(g)
        full = solve_exact(g)
        assert chain.expected_log_density() == pytest.approx(full.expected_log_density(), abs=1e-9)
        assert chain.entropy() == pytest.approx(full.entropy(), abs=1e-9)

    def test_expected_log_density_with_neg_inf_entries(self):
        # zero-marginal entries meet -inf potentials; no 0 * -inf may be formed
        g = _graph(2, 2, [((1,), np.array([0.3, -np.inf])), ((2,), np.array([0.1, -0.4])),
                          ((1, 2), np.array([0.2, -np.inf, 0.5, 0.0]))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = solve_chain(g)
            full = solve_exact(g)
            assert chain.expected_log_density() == pytest.approx(full.expected_log_density(), abs=1e-12)
            assert chain.entropy() == pytest.approx(full.entropy(), abs=1e-12)
            assert math.isfinite(chain.expected_log_density())


class _Uniform:
    def __init__(self, n, k):
        self.n, self.k = n, k

    def sample(self, rng):
        return tuple(rng.integers(1, self.k + 1, size=self.n).tolist())

    def log_density(self, x):
        return -self.n * math.log(self.k)


class TestExactKl:
    def test_atoms_equal_target_gives_zero(self):
        rng = np.random.default_rng(61)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        sol = solve_exact(g)
        atoms = list(all_configs(3, 2))
        weights = [math.exp(sol.log_joint(x)) for x in atoms]
        approx = SimpleNamespace(atoms=atoms, weights=weights)
        assert exact_kl(approx, sol) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_approx_uniform_target(self):
        g = _graph(2, 2, [((1,), np.zeros(2)), ((2,), np.zeros(2))])
        sol = solve_exact(g)
        assert exact_kl(_Uniform(2, 2), sol, num_samples=50, seed=1) == pytest.approx(0.0, abs=1e-12)

    def test_support_mismatch_gives_inf(self):
        table = np.full(4, -np.inf)
        table[0] = 0.0
        g = _graph(2, 2, [((1, 2), table)])
        sol = solve_exact(g)
        assert exact_kl(_Uniform(2, 2), sol, num_samples=200, seed=2) == math.inf

    def test_enumeration_path(self):
        rng = np.random.default_rng(67)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        sol = solve_exact(g)
        kl = kl_by_enumeration(lambda x: -3 * math.log(2), sol, g)
        # uniform vs target: KL = log Z ... E_unif[log gamma-hat] - H(unif)
        ref = sum(
            (1 / 8) * (-3 * math.log(2) - sol.log_joint(x)) for x in all_configs(3, 2)
        )
        assert kl == pytest.approx(ref, abs=1e-12)
