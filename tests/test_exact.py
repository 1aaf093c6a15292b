import math
import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesample.exact import (
    ChainSolution,
    StateSpaceCapError,
    _level_rewards,
    is_chain,
    solve_chain,
    solve_exact,
)
from treesample.logmath import (
    NEG_INF,
    ZeroMassError,
    draw_softmax_rows,
    logsumexp,
    logsumexp_list,
    logsumexp_rows,
    sample_softmax_rows,
)
from treesample.model import Factor, FactorGraph

from conftest import (all_configs, brute_force_log_z, exact_kl, kl_by_enumeration, log_joint,
                      log_step_conditionals, make_random_graph, q_values,
                      reference_sample_softmax_rows, variable_marginals)


def _conditional(sol, prefix):
    """Target conditional of the next variable: the softmax of q_values."""
    q = q_values(sol, prefix)
    return np.exp(q - logsumexp(q))


def _graph(n, k, factors, ordering=None):
    return FactorGraph(
        num_variables=n,
        num_states=k,
        factors=tuple(
            Factor(scope=s, table=np.asarray(t, dtype=float)) for s, t in factors
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


def _mask_copy_logsumexp_rows(arr):
    """The former logsumexp_rows: a boolean-mask copy of the rows that are
    not all -inf, reduced along their contiguous last axis."""
    arr = np.asarray(arr, dtype=np.float64)
    m = np.max(arr, axis=-1)
    out = np.full(m.shape, NEG_INF)
    safe = m > NEG_INF
    if np.any(safe):
        shifted = arr[safe] - m[safe, None]
        out[safe] = m[safe] + np.log(np.sum(np.exp(shifted), axis=-1))
    return out


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLogsumexpRowsBitwise:
    """logsumexp_rows equals the former mask-copy routine bit for bit at
    every width from 2 to 130, on both sides of numpy's pairwise summation,
    with -inf entries and all -inf rows. The transposed inputs fail if the
    pairwise branch sums a Fortran-ordered array along its last axis."""

    @staticmethod
    def _rows(rng, rows, k):
        q = rng.normal(scale=3.0, size=(rows, k))
        q[rng.random(q.shape) < 0.3] = NEG_INF
        q[rng.random(rows) < 0.1] = NEG_INF
        return q

    def test_matches_mask_copy(self):
        rng = np.random.default_rng(71)
        for k in range(2, 131):
            q = self._rows(rng, 60, k)
            assert np.isneginf(q.max(axis=1)).any(), k
            assert _same_bits(logsumexp_rows(q), _mask_copy_logsumexp_rows(q)), k
            assert _same_bits(logsumexp_rows(q[7]), _mask_copy_logsumexp_rows(q[7])), k
            cube = q.reshape(3, 20, k)
            assert _same_bits(logsumexp_rows(cube), _mask_copy_logsumexp_rows(cube)), k

    def test_transposed_input(self):
        rng = np.random.default_rng(73)
        for k in range(2, 131):
            t = self._rows(rng, 60, k).T.copy().T  # Fortran order, same values
            assert not t.flags.c_contiguous
            assert _same_bits(logsumexp_rows(t), _mask_copy_logsumexp_rows(t)), k
            square = self._rows(rng, k, k).T
            assert _same_bits(logsumexp_rows(square), _mask_copy_logsumexp_rows(square)), k

    def test_all_neg_inf_rows_without_warning(self):
        for k in (2, 7, 8, 20):
            q = np.full((4, k), NEG_INF)
            q[1, 0] = 0.5
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = logsumexp_rows(q)
            assert out.tolist() == [NEG_INF, 0.5, NEG_INF, NEG_INF]


class TestSampleSoftmaxRows:
    """The row-wise draw equals sample_softmax and logsumexp bit for bit,
    for widths on both sides of numpy's 8-way and 128-block summation."""

    @staticmethod
    def sample_softmax(values, rng):
        """Reference draw: one 0-based index from softmax(values) at rng.random()."""
        p = np.exp(values - float(np.max(values)))
        p = p / p.sum()
        return int(np.searchsorted(np.cumsum(p), rng.random(), side="right").clip(0, len(p) - 1))

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
                assert ai == self.sample_softmax(row, scalar)
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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(k=st.integers(2, 10), rows=st.integers(1, 60), shared=st.booleans(),
           neg_inf=st.sampled_from([0.0, 0.3, 0.9]), ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_row_reduction_form_bitwise(self, k, rows, shared, neg_inf, ties, seed):
        # K from 2 to 10 (both sides of PAIRWISE_SUM_MIN), -inf entries,
        # +-0 ties for the maximum, u = 0 and a (1, K) row shared by all
        rng = np.random.default_rng(seed)
        q = rng.normal(scale=5.0, size=(1 if shared else rows, k))
        q[rng.random(q.shape) < neg_inf] = NEG_INF
        if ties:
            q = np.minimum(q, 0.0)
            zeros = rng.random(q.shape) < 0.5
            q[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        q[q.max(axis=1) == NEG_INF, rng.integers(0, k)] = -0.0
        u = rng.random(rows)
        u[rng.random(rows) < 0.2] = 0.0
        a, logp = sample_softmax_rows(q, u)
        ref_a, ref_logp = reference_sample_softmax_rows(q, u)
        assert a.dtype == ref_a.dtype and a.tolist() == ref_a.tolist()
        assert _same_bits(logp, ref_logp)


    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(k=st.sampled_from([2, 3, 10]), rows=st.integers(1, 40),
           neg_inf=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**32 - 1))
    def test_broadcast_row_equals_materialised_bitwise(self, k, rows, neg_inf, seed):
        # a row-stride-0 view is reduced once as the shared row; K = 10
        # takes the row-reduction path, K = 2 and 3 the column path
        rng = np.random.default_rng(seed)
        row = rng.normal(scale=5.0, size=k)
        row[rng.random(k) < neg_inf] = NEG_INF
        row[rng.integers(0, k)] = rng.normal()
        view = np.broadcast_to(row, (rows, k))
        assert view.strides[0] == 0
        full = view.copy()  # C-contiguous, as evaluate_batch used to fill it
        u = rng.random(rows)
        u[rng.random(rows) < 0.3] = 0.0
        a, m, total = draw_softmax_rows(view, u)
        full_a, full_m, full_total = draw_softmax_rows(full, u)
        assert a.dtype == full_a.dtype and a.tolist() == full_a.tolist()
        assert _same_bits(m, full_m[:1]) and _same_bits(total, full_total[:1])
        assert len(m) == len(total) == 1
        a, logp = sample_softmax_rows(view, u)
        full_a, full_logp = sample_softmax_rows(full, u)
        assert a.tolist() == full_a.tolist() and _same_bits(logp, full_logp)

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_broadcast_zero_mass_row_raises(self, k):
        view = np.broadcast_to(np.full(k, NEG_INF), (5, k))
        with pytest.raises(ZeroMassError):
            draw_softmax_rows(view, np.zeros(5))
        with pytest.raises(ZeroMassError):
            sample_softmax_rows(view, np.zeros(5))


    @pytest.mark.parametrize("k", [2, 3, 8, 10, 17])
    def test_fortran_ordered_rows_equal_c_ordered_bitwise(self, k):
        # from 8 columns on the row sum is numpy's pairwise sum along a row;
        # a Fortran-ordered q must be summed as its C-ordered copy is, not
        # column by column (one ulp off on some rows at K = 10)
        rng = np.random.default_rng(k)
        q = rng.normal(scale=5.0, size=(400, k))
        q[rng.random(q.shape) < 0.2] = NEG_INF
        q[np.arange(400), rng.integers(0, k, size=400)] = rng.normal(size=400)
        fortran = np.asfortranarray(q)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        u = rng.random(400)
        a, m, total = draw_softmax_rows(fortran, u)
        c_a, c_m, c_total = draw_softmax_rows(q, u)
        assert a.tolist() == c_a.tolist()
        assert _same_bits(m, c_m) and _same_bits(total, c_total)
        a, logp = sample_softmax_rows(fortran, u)
        c_a, c_logp = sample_softmax_rows(q, u)
        assert a.tolist() == c_a.tolist() and _same_bits(logp, c_logp)


class TestLogsumexpList:
    """The list path of the search tree's soft value equals logsumexp bit for
    bit at every width from 1 to 130, -inf entries and repeated maxima
    included. It fails if math.exp replaces np.exp (different last bits on
    some inputs) or if the Python loop sums 8 or more entries (numpy sums
    those pairwise)."""

    def test_matches_logsumexp_bitwise(self):
        rng = np.random.default_rng(5)
        for k in range(2, 131):
            # below 8 entries a math.exp summand moves about 1 result in 200
            rows = 2000 if k < 8 else 40
            q = rng.normal(scale=3.0, size=(rows, k))
            q[rng.random(q.shape) < 0.2] = NEG_INF
            q[np.arange(rows), rng.integers(0, k, size=rows)] = rng.normal(size=rows)
            for row in q:
                assert logsumexp_list(row.tolist()) == logsumexp(row), k

    def test_all_neg_inf(self):
        assert logsumexp_list([NEG_INF, NEG_INF]) == NEG_INF
        assert logsumexp_list([NEG_INF] * 9) == NEG_INF

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_logsumexp_bitwise_property(self, data):
        # lists of 1 to 40 entries up to +-700, with some entries raised to
        # the maximum (repeated maxima, each adding exactly 1.0 below 8
        # entries) and some set to -inf (skipped below 8 entries), or every
        # entry -inf
        values = data.draw(st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=40))
        positions = st.lists(st.integers(0, len(values) - 1), max_size=len(values))
        top = max(values)
        for i in data.draw(positions):
            values[i] = top
        for i in data.draw(positions):
            values[i] = NEG_INF
        if data.draw(st.integers(0, 19)) == 0:
            values = [NEG_INF] * len(values)
        expected = logsumexp(np.array(values))
        assert struct.pack("<d", logsumexp_list(values)) == struct.pack("<d", expected)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestLogsumexpListBinary:
    """Two entries take logsumexp_list's unrolled path. Each case is pinned
    bit for bit against logsumexp and against the sum the loop forms:
    a + log(1.0) when the smaller entry is -inf (which makes -0.0 into
    0.0), a + log(2.0) for equal entries, else a + log(1.0 + exp(b - a))."""

    XS = [0.0, -0.0, 1.5, -2.25, 700.0, -700.0, 1e-300, -1e-300, 5e-324]

    @staticmethod
    def _check(values, expected):
        got = logsumexp_list(values)
        assert _bits(got) == _bits(expected), values
        assert _bits(got) == _bits(logsumexp(np.array(values))), values

    def test_signed_zeros(self):
        self._check([-0.0, 0.0], -0.0 + math.log(2.0))
        self._check([0.0, -0.0], 0.0 + math.log(2.0))

    @pytest.mark.parametrize("x", XS)
    def test_one_neg_inf_entry(self, x):
        self._check([x, NEG_INF], x + math.log(1.0))
        self._check([NEG_INF, x], x + math.log(1.0))

    def test_neg_zero_beside_neg_inf_becomes_zero(self):
        assert _bits(logsumexp_list([-0.0, NEG_INF])) == _bits(0.0)
        assert _bits(logsumexp_list([NEG_INF, -0.0])) == _bits(0.0)

    @pytest.mark.parametrize("x", XS)
    def test_equal_entries(self, x):
        self._check([x, x], x + math.log(2.0))

    def test_both_neg_inf(self):
        self._check([NEG_INF, NEG_INF], NEG_INF)

    @pytest.mark.parametrize("x", XS)
    @pytest.mark.parametrize("y", [-3.0, -1e-12, 0.5, 699.0])
    def test_distinct_entries_in_either_order(self, x, y):
        a, b = max(x, y), min(x, y)
        expected = a + math.log(1.0 + float(np.exp(b - a)))
        self._check([x, y], expected)
        self._check([y, x], expected)


def _digit_gather_level_rewards(graph, depth):
    """The former _level_rewards: each prefix rank split into base-K digits,
    one integer array per scope position, and a gather from the table."""
    k = graph.num_states
    size = k**depth
    total = np.zeros(size, dtype=np.float64)
    ranks = np.arange(size, dtype=np.int64)
    for cf in graph.factors_at_depth(depth):
        idx = np.zeros(size, dtype=np.int64)
        for pos, stride in zip(cf.positions, cf.strides):
            digit = (ranks // (k ** (depth - pos))) % k
            idx += digit * stride
        total += cf.table[idx]
    return total


class TestLevelRewards:
    def test_matches_digit_gather(self):
        rng = np.random.default_rng(79)
        arities = set()
        for trial in range(60):
            n, k = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            g = make_random_graph(rng, n, k, num_extra_factors=5, max_scope=4,
                                  shuffle_ordering=True, neg_inf_frac=0.2)
            arities |= {len(f.scope) for f in g.factors}
            for depth in range(1, n + 1):
                got = _level_rewards(g, depth)
                assert _same_bits(got, _digit_gather_level_rewards(g, depth)), (trial, depth)
        assert arities == {1, 2, 3, 4}

    def test_matches_reward(self):
        rng = np.random.default_rng(83)
        g = make_random_graph(rng, 4, 3, num_extra_factors=4, max_scope=4,
                              shuffle_ordering=True, neg_inf_frac=0.2)
        for depth in range(1, 5):
            ref = [g.reward(x) for x in all_configs(depth, 3)]
            assert _level_rewards(g, depth).tolist() == ref


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
        assert np.array_equal(_conditional(sol, ()), [1.0, 0.0])
        assert np.array_equal(_conditional(sol, (1,)), [1.0, 0.0])
        assert log_joint(sol, (1, 1, 1)) == pytest.approx(0.0)
        assert log_joint(sol, (2, 1, 1)) == NEG_INF

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
                assert np.allclose(_conditional(sol, tuple(prefix)), ref, atol=1e-9)

    def test_enumerate_log_joint_matches_enumeration(self):
        rng = np.random.default_rng(31)
        g = make_random_graph(rng, 4, 3, num_extra_factors=2, neg_inf_frac=0.2)
        sol = solve_exact(g)
        logp = sol.enumerate_log_joint()
        ref = np.array([g.log_unnormalized_density(x) for x in all_configs(4, 3)]) - sol.log_z
        assert np.array_equal(logp == NEG_INF, ref == NEG_INF) and (ref == NEG_INF).any()
        assert np.allclose(logp[ref > NEG_INF], ref[ref > NEG_INF], atol=1e-10)
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-10)

    def test_variable_marginals_match_enumeration(self):
        rng = np.random.default_rng(37)
        g = make_random_graph(rng, 4, 2, num_extra_factors=3, shuffle_ordering=True)
        sol = solve_exact(g)
        marg = variable_marginals(sol, g)
        probs = {x: math.exp(log_joint(sol, g.assignment_to_prefix(x))) for x in all_configs(4, 2)}
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
        assert sol.log_z - sol.entropy() == pytest.approx(e_ref, abs=1e-9)
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
            by_depth = variable_marginals(full, g)[np.array(g.ordering) - 1]
            assert np.allclose(chain.position_marginals(), by_depth, atol=1e-9)
            first, steps = log_step_conditionals(chain)
            assert np.allclose(np.exp(first), _conditional(full, ()), atol=1e-9)
            for prefix in [(1,), (2, 3), (3, 1, 2, 1)]:
                p = len(prefix)
                ref = _conditional(full, prefix)
                got = np.exp(steps[p - 1][prefix[-1] - 1])
                assert np.allclose(got, ref, atol=1e-9)

    def test_log_joint_matches(self):
        rng = np.random.default_rng(53)
        g = make_random_chain(rng, 5, 2)
        chain = solve_chain(g)
        for x in all_configs(5, 2):
            ref = g.log_unnormalized_density(x) - chain.log_z
            assert log_joint(chain, x) == pytest.approx(ref, abs=1e-9)

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

    def test_position_marginals_follow_ordering(self):
        # position p holds variable ordering[p]: rows 1, 3, 2 of the exact marginals
        g = _graph(3, 2, [((1, 3), np.array([0.1, -0.7, 1.3, 0.4])),
                          ((2, 3), np.array([0.5, 0.2, -1.1, 0.9])),
                          ((1,), np.array([0.3, -0.2])), ((2,), np.array([1.0, 0.0]))],
                   ordering=(1, 3, 2))
        by_variable = variable_marginals(solve_exact(g), g)
        assert np.allclose(solve_chain(g).position_marginals(), by_variable[[0, 2, 1]], atol=1e-12)
        assert not np.allclose(by_variable[[0, 2, 1]], by_variable, atol=1e-3)

    def test_expected_log_density(self):
        rng = np.random.default_rng(59)
        g = make_random_chain(rng, 4, 3)
        chain = solve_chain(g)
        full = solve_exact(g)
        assert chain.expected_log_density() == pytest.approx(full.log_z - full.entropy(), abs=1e-9)
        assert chain.entropy() == pytest.approx(full.entropy(), abs=1e-9)

    def test_expected_log_density_with_neg_inf_entries(self):
        # zero-marginal entries meet -inf potentials; no 0 * -inf may be formed
        g = _graph(2, 2, [((1,), np.array([0.3, -np.inf])), ((2,), np.array([0.1, -0.4])),
                          ((1, 2), np.array([0.2, -np.inf, 0.5, 0.0]))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = solve_chain(g)
            full = solve_exact(g)
            assert chain.expected_log_density() == pytest.approx(full.log_z - full.entropy(),
                                                                 abs=1e-12)
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
        weights = [math.exp(log_joint(sol, x)) for x in atoms]
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
            (1 / 8) * (-3 * math.log(2) - log_joint(sol, x)) for x in all_configs(3, 2)
        )
        assert kl == pytest.approx(ref, abs=1e-12)
