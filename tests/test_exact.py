import math
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesample import logmath
from treesample.exact import StateSpaceCapError, _level_rewards, _level_scopes, solve_exact
from treesample.generators import GeneratorSpec, generate
from treesample.logmath import (
    NEG_INF,
    ZeroMassError,
    draw_softmax_rows,
    logsumexp,
    logsumexp_list,
    logsumexp_rows,
    sample_softmax_rows,
    shifted_exp_terms,
)

from conftest import (all_configs, assignment_to_prefix, brute_force_log_z, conditional, exact_kl,
                      kl_by_enumeration, log_joint, make_graph, make_random_chain,
                      make_random_graph, reference_entropy, reference_log_joint,
                      reference_sample_softmax_rows, reference_shifted_exp_terms,
                      reference_solve_exact, variable_marginals)


def _brute_force_energy_entropy(graph):
    """(E*[log-density], H[P*]) by enumerating the graph's K^N densities."""
    lds = np.array([graph.log_unnormalized_density(x)
                    for x in all_configs(graph.num_variables, graph.num_states)])
    live = lds > NEG_INF
    p = np.exp(lds[live] - brute_force_log_z(graph))
    return float(np.sum(p * lds[live])), float(-np.sum(p * np.log(p)))


def _assert_matches_reference(sol, ref):
    """log Z bit for bit (the same sums and row reductions), zero mass where
    the reference has it, and the entropy within 1e-12 relative."""
    assert _bits(sol.log_z) == _bits(ref.log_z)
    if ref.log_z == NEG_INF:
        assert sol.entropy == 0.0
    else:
        assert sol.entropy == pytest.approx(reference_entropy(ref), rel=1e-12, abs=0.0)


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


class TestShiftedExpTerms:
    """shifted_exp_terms, the one row reduction of logsumexp_rows, the
    softmax draws and BP's normalizer, equals numpy's own row reductions
    over a C-ordered copy (conftest.reference_shifted_exp_terms) bit for
    bit: every maximum, shift, term and row sum, at widths on both sides
    of PAIRWISE_SUM_MIN and of the 128-entry pairwise block, with -inf
    entries and all -inf rows, whatever the input's layout."""

    LAYOUTS = {
        "C": lambda x: x,
        "Fortran": np.asfortranarray,
        "column-contiguous": lambda x: np.ascontiguousarray(x.T).T,  # a transposed C array
        "stride-0": lambda x: np.broadcast_to(x[0], x.shape),
    }

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(width=st.integers(1, 9) | st.integers(120, 130) | st.integers(1, 130),
           rows=st.integers(1, 40), layout=st.sampled_from(sorted(LAYOUTS)),
           neg_inf=st.sampled_from([0.0, 0.3, 0.9]), zero_rows=st.booleans(), ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_numpy_row_reductions_bitwise(self, width, rows, layout, neg_inf, zero_rows,
                                                 ties, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=5.0, size=(rows, width))
        x[rng.random(x.shape) < neg_inf] = NEG_INF
        if zero_rows:
            x[rng.random(rows) < 0.5] = NEG_INF
        if ties:
            x = np.minimum(x, 0.0)
            zeros = rng.random(x.shape) < 0.5
            x[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        rows_in = self.LAYOUTS[layout](x)
        saved = rows_in.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, shift, total, terms = shifted_exp_terms(rows_in)
        ref_m, ref_shift, ref_total, ref_terms = reference_shifted_exp_terms(rows_in)
        assert _same_bits(rows_in, saved)
        if rows_in.flags.c_contiguous:
            assert _same_bits(m, ref_m) and _same_bits(shift, ref_shift)
        else:
            # the maximum of a row as it lies may differ in the sign of a zero
            assert np.array_equal(m, ref_m) and np.array_equal(shift, ref_shift)
        assert _same_bits(total, ref_total)
        if width < logmath.PAIRWISE_SUM_MIN:
            # the first K - 1 columns' terms; the last column's went into total
            assert len(terms) == width - 1
            for j, t in enumerate(terms):
                assert t.flags.c_contiguous and _same_bits(t, ref_terms[:, j])
        else:
            assert terms.flags.c_contiguous and _same_bits(terms, ref_terms)
        # total owns its memory, so a kept row sum never pins a block of terms
        assert total.base is None


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
    @given(k=st.integers(1, 10), rows=st.integers(1, 60), shared=st.booleans(),
           neg_inf=st.sampled_from([0.0, 0.3, 0.9]), ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_row_reduction_form_bitwise(self, k, rows, shared, neg_inf, ties, seed):
        # K from 1 to 10 (both sides of PAIRWISE_SUM_MIN), -inf entries,
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


def _lse_bound(values, expected):
    """The accuracy logsumexp_list keeps against logsumexp: 4 K ulps of 1.0,
    scaled by the result's magnitude when that exceeds 1."""
    return 4 * len(values) * 2.0**-52 * max(1.0, abs(expected))


def _assert_close_to_logsumexp(values):
    expected = logsumexp(np.array(values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logsumexp_list(values)
    if expected == NEG_INF:
        assert got == NEG_INF, values
    else:
        assert abs(got - expected) <= _lse_bound(values, expected), values


class TestLogsumexpList:
    """The search tree's soft value sums math.exp terms as Python floats left
    to right at every width. It agrees with logsumexp within 4 K ulps of
    max(1, |logsumexp|) at widths 1 to 300, with -inf entries, repeated
    maxima and values up to +-700, and raises no RuntimeWarning. An all -inf
    list, one finite entry and K equal entries give exact results."""

    def test_within_accuracy_bound(self):
        rng = np.random.default_rng(5)
        for k in range(1, 301):
            rows = 200 if k < 16 else 10
            q = rng.normal(scale=3.0, size=(rows, k))
            q[rng.random(q.shape) < 0.2] = NEG_INF
            q[np.arange(rows), rng.integers(0, k, size=rows)] = rng.normal(size=rows)
            for row in q:
                _assert_close_to_logsumexp(row.tolist())

    def test_all_neg_inf(self):
        assert logsumexp_list([NEG_INF]) == NEG_INF
        assert logsumexp_list([NEG_INF, NEG_INF]) == NEG_INF
        assert logsumexp_list([NEG_INF] * 9) == NEG_INF

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_within_accuracy_bound_property(self, data):
        # lists of 1 to 40 entries up to +-700, with some entries raised to
        # the maximum and some set to -inf, or every entry -inf
        values = data.draw(st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=40))
        positions = st.lists(st.integers(0, len(values) - 1), max_size=len(values))
        top = max(values)
        for i in data.draw(positions):
            values[i] = top
        for i in data.draw(positions):
            values[i] = NEG_INF
        if data.draw(st.integers(0, 19)) == 0:
            values = [NEG_INF] * len(values)
        _assert_close_to_logsumexp(values)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(width=st.sampled_from([1, 2, 7, 8, 15, 16, 17, 128, 129, 300]) | st.integers(1, 300),
           scale=st.sampled_from([1e-3, 1.0, 30.0, 700.0]),
           neg_inf_frac=st.sampled_from([0.0, 0.3, 0.9, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_within_accuracy_bound_at_every_width(self, width, scale, neg_inf_frac, seed):
        # -inf entries, and a tenth of the entries raised to the maximum
        rng = np.random.default_rng(seed)
        values = rng.normal(scale=scale, size=width)
        values[rng.random(width) < 0.1] = values.max()
        values[rng.random(width) < neg_inf_frac] = NEG_INF
        _assert_close_to_logsumexp(values.tolist())

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 17, 300])
    @pytest.mark.parametrize("x", [0.0, -0.0, 1.5, -2.25, 700.0, -700.0, 5e-324])
    def test_exact_cases(self, k, x):
        # one finite entry among -inf gives itself (-0.0 becomes 0.0), and
        # k equal entries give x + log(k)
        for i in range(k):
            values = [NEG_INF] * k
            values[i] = x
            assert _bits(logsumexp_list(values)) == _bits(x + 0.0)
        assert _bits(logsumexp_list([x] * k)) == _bits(x + math.log(k))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestLogsumexpListBinary:
    """Two entries, a binary node's soft value. With the pair ordered as
    a >= b, the loop's sum is 1.0 + exp(b - a) in either order, so each case
    is pinned bit for bit to a + log(1.0 + math.exp(b - a)): a + log(1.0)
    when the smaller entry is -inf (which makes -0.0 into 0.0), a + log(2.0)
    for equal entries."""

    XS = [0.0, -0.0, 1.5, -2.25, 700.0, -700.0, 1e-300, -1e-300, 5e-324]

    @staticmethod
    def _check(values, expected):
        assert _bits(logsumexp_list(values)) == _bits(expected), values

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
        expected = a + math.log(1.0 + math.exp(b - a))
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
    """_level_rewards on the full grid of depths 1..d, in depth order, is the
    level's K^d rewards in prefix-rank order."""

    def test_matches_digit_gather(self):
        rng = np.random.default_rng(79)
        arities = set()
        for trial in range(60):
            n, k = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            g = make_random_graph(rng, n, k, num_extra_factors=5, max_scope=4,
                                  shuffle_ordering=True, neg_inf_frac=0.2)
            arities |= {len(f.scope) for f in g.factors}
            for depth in range(1, n + 1):
                got = _level_rewards(g, depth, tuple(range(1, depth + 1))).reshape(-1)
                assert _same_bits(got, _digit_gather_level_rewards(g, depth)), (trial, depth)
        assert arities == {1, 2, 3, 4}

    def test_matches_reward(self):
        rng = np.random.default_rng(83)
        g = make_random_graph(rng, 4, 3, num_extra_factors=4, max_scope=4,
                              shuffle_ordering=True, neg_inf_frac=0.2)
        for depth in range(1, 5):
            ref = [g.reward(x) for x in all_configs(depth, 3)]
            assert _level_rewards(g, depth, tuple(range(1, depth + 1))).reshape(-1).tolist() == ref


class TestSolveExact:
    def test_uniform_target(self):
        g = make_graph(3, 2, [((v,), np.zeros(2)) for v in (1, 2, 3)])
        sol = solve_exact(g)
        assert sol.log_z == pytest.approx(3 * math.log(2), abs=1e-12)
        assert sol.entropy == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_point_mass(self):
        table = np.full(8, -np.inf)
        table[0] = 0.0  # only x=(1,1,1) has mass
        g = make_graph(3, 2, [((1, 2, 3), table)])
        sol = solve_exact(g)
        assert (sol.log_z, sol.entropy) == (0.0, 0.0)
        ref = reference_solve_exact(g)
        assert np.array_equal(conditional(ref, ()), [1.0, 0.0])
        assert np.array_equal(conditional(ref, (1,)), [1.0, 0.0])
        assert log_joint(ref, (1, 1, 1)) == pytest.approx(0.0)
        assert log_joint(ref, (2, 1, 1)) == NEG_INF

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
        sol = reference_solve_exact(g)
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
                assert np.allclose(conditional(sol, tuple(prefix)), ref, atol=1e-9)

    def test_enumerate_log_joint_matches_enumeration(self):
        rng = np.random.default_rng(31)
        g = make_random_graph(rng, 4, 3, num_extra_factors=2, neg_inf_frac=0.2)
        sol = reference_solve_exact(g)
        logp = reference_log_joint(sol)
        ref = np.array([g.log_unnormalized_density(x) for x in all_configs(4, 3)]) - sol.log_z
        assert np.array_equal(logp == NEG_INF, ref == NEG_INF) and (ref == NEG_INF).any()
        assert np.allclose(logp[ref > NEG_INF], ref[ref > NEG_INF], atol=1e-10)
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-10)

    def test_variable_marginals_match_enumeration(self):
        rng = np.random.default_rng(37)
        g = make_random_graph(rng, 4, 2, num_extra_factors=3, shuffle_ordering=True)
        sol = reference_solve_exact(g)
        marg = variable_marginals(sol, g)
        probs = {x: math.exp(log_joint(sol, assignment_to_prefix(g, x))) for x in all_configs(4, 2)}
        for v in range(1, 5):
            for val in (1, 2):
                ref = sum(p for x, p in probs.items() if x[v - 1] == val)
                assert marg[v - 1][val - 1] == pytest.approx(ref, abs=1e-9)

    def test_cap(self):
        # the cap bounds the widest level table, K to the widest scope: 2^1
        # with unary factors only, 2^3 under a factor over all three
        g = make_graph(3, 2, [((v,), np.zeros(2)) for v in (1, 2, 3)])
        assert solve_exact(g, cap=2).log_z == pytest.approx(3 * math.log(2))
        with pytest.raises(StateSpaceCapError):
            solve_exact(g, cap=1)
        g = make_graph(3, 2, [((1, 2, 3), np.zeros(8))])
        assert solve_exact(g, cap=8).log_z == pytest.approx(3 * math.log(2))
        with pytest.raises(StateSpaceCapError):
            solve_exact(g, cap=7)

    def test_entropy_identity(self):
        rng = np.random.default_rng(41)
        g = make_random_graph(rng, 3, 3, num_extra_factors=2)
        sol = solve_exact(g)
        # H = log Z - E[sum psi], both sides computed independently here
        e_ref, h_ref = _brute_force_energy_entropy(g)
        assert sol.log_z - sol.entropy == pytest.approx(e_ref, abs=1e-9)
        assert sol.entropy == pytest.approx(h_ref, abs=1e-9)


class TestLevelScopes:
    """Each level's scope is its own depth last, after the earlier depths
    that a factor of this depth or a deeper one reads."""

    def test_matches_definition(self):
        rng = np.random.default_rng(43)
        for trial in range(40):
            n = int(rng.integers(2, 9))
            g = make_random_graph(rng, n, 2, num_extra_factors=int(rng.integers(0, 6)),
                                  max_scope=4, shuffle_ordering=True)
            for depth, scope in enumerate(_level_scopes(g), start=1):
                frontier = {int(p) for d in range(depth, n + 1) for cf in g.factors_at_depth(d)
                            for p in cf.positions if p < depth}
                assert scope == (*sorted(frontier), depth)

    def test_chain_scopes_are_pairs(self):
        g = make_random_chain(np.random.default_rng(44), 7, 3)
        assert _level_scopes(g) == [(1,)] + [(d - 1, d) for d in range(2, 8)]


class TestStoredNormalisers:
    """Each level hands its soft values V on its frontier to the level above.
    Those are the K^N solve's row logsumexps, so solve_exact's log Z has the
    bits of conftest.reference_solve_exact's and its entropy agrees with
    reference_entropy, zero-mass prefixes (all -inf rows) included."""

    def test_zero_mass_prefixes(self):
        rng = np.random.default_rng(47)
        g = make_random_graph(rng, 5, 3, num_extra_factors=6, max_scope=3, neg_inf_frac=0.4,
                              shuffle_ordering=True)
        ref = reference_solve_exact(g)
        assert ref.log_z > NEG_INF
        assert any((v == NEG_INF).any() for v in ref.v_levels[1:])
        _assert_matches_reference(solve_exact(g), ref)

    @pytest.mark.parametrize("n, k, neg_inf_frac", [(17, 2, 0.0), (17, 2, 0.3), (11, 3, 0.3)])
    def test_entropy_over_several_blocks(self, n, k, neg_inf_frac):
        # graphs whose K^N joint the former entropy took in several blocks
        rng = np.random.default_rng(53)
        g = make_random_graph(rng, n, k, num_extra_factors=8, max_scope=3,
                              neg_inf_frac=neg_inf_frac, shuffle_ordering=True)
        _assert_matches_reference(solve_exact(g), reference_solve_exact(g))

    def test_no_mass_at_all(self):
        g = make_graph(2, 2, [((1, 2), np.full(4, -np.inf))])
        sol = solve_exact(g)
        assert (sol.log_z, sol.entropy) == (NEG_INF, 0.0)
        _assert_matches_reference(sol, reference_solve_exact(g))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(graph_seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           k=st.sampled_from([2, 3, 8, 10]), extra_factors=st.integers(0, 6),
           neg_inf_frac=st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    def test_equal_to_recomputed_bitwise(self, graph_seed, n, k, extra_factors, neg_inf_frac):
        # K = 8 and 10 reduce rows pairwise, K = 2 and 3 column by column
        if k >= 8:
            n = min(n, 4)
        rng = np.random.default_rng(graph_seed)
        g = make_random_graph(rng, n, k, num_extra_factors=extra_factors if n > 1 else 0,
                              max_scope=4, neg_inf_frac=neg_inf_frac, shuffle_ordering=True)
        _assert_matches_reference(solve_exact(g), reference_solve_exact(g))


# tracemalloc peaks in bytes of solve_exact(g) on the benchmark's fg1 n14
# instance (instance seed 11) and the K = 10 chains n5 instance of
# test_exact_golden.py (instance seed 3), measured with
# TestWidthMajorLevels.test_entropy_peak (numpy 2.4.6, Python 3.11.7). The
# K^N solve and its entropy had peaked at 683,568 and 2,405,448 bytes. The
# level tables make up nearly all of each peak, and the slack allows for
# Python objects. One more table of the widest level would add 8 KiB on fg1
# (2^10 entries) and 800 bytes on chains (10^2).
ENTROPY_PEAKS = {("fg1", 14, 2, 11): 24_544, ("chains", 5, 10, 3): 6_696}
PEAK_SLACK = 1024


class TestWidthMajorLevels:
    """solve_exact against the K^N levels of conftest.reference_solve_exact,
    built in rank order: log Z bit for bit, the entropy within 1e-12
    relative and zero mass exactly where the reference finds it, on random
    graphs with -inf entries and shuffled orderings, at K below 8 (the row
    reduction runs column by column) and from 8 on (pairwise)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(graph_seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), k=st.integers(2, 10),
           extra_factors=st.integers(0, 8), neg_inf_frac=st.sampled_from([0.0, 0.3]))
    def test_matches_rank_order_solve_bitwise(self, graph_seed, n, k, extra_factors,
                                              neg_inf_frac):
        # K^N is held to 10^5 entries (K = 10 up to N = 5, K = 2 up to N = 7)
        while k**n > 10**5:
            n -= 1
        rng = np.random.default_rng(graph_seed)
        g = make_random_graph(rng, n, k, num_extra_factors=extra_factors, max_scope=4,
                              shuffle_ordering=True, neg_inf_frac=neg_inf_frac)
        _assert_matches_reference(solve_exact(g), reference_solve_exact(g))

    @pytest.mark.parametrize("instance", sorted(ENTROPY_PEAKS),
                             ids=lambda inst: "{}-n{}-k{}".format(*inst))
    def test_entropy_peak(self, instance):
        family, n, k, seed = instance
        g = generate(GeneratorSpec(family=family, n=n, k=k, seed=seed))
        solve_exact(g)  # first calls may fill caches
        tracemalloc.start()
        try:
            solve_exact(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ENTROPY_PEAKS[instance] + PEAK_SLACK


class TestSolveChain:
    """The exact oracle on chain graphs, which a forward-backward solver took
    before: its widest table is K^2, and it agrees with the K^N reference
    and with brute force."""

    def test_uniform_chain(self):
        g = make_graph(10, 5, [((v,), np.zeros(5)) for v in range(1, 11)] + [((v, v + 1), np.zeros(25)) for v in range(1, 10)])
        sol = solve_exact(g, cap=25)
        assert sol.log_z == pytest.approx(10 * math.log(5), abs=1e-9)
        assert sol.entropy == pytest.approx(10 * math.log(5), abs=1e-9)

    def test_two_variable_marginals(self):
        rng = np.random.default_rng(43)
        g = make_random_chain(rng, 2, 3)
        masses = np.zeros((3, 3))
        for x in all_configs(2, 3):
            masses[x[0] - 1, x[1] - 1] = math.exp(g.log_unnormalized_density(x))
        z = masses.sum()
        assert math.exp(solve_exact(g).log_z) == pytest.approx(z, rel=1e-12)
        marg = variable_marginals(reference_solve_exact(g), g)
        assert np.allclose(marg[0], masses.sum(axis=1) / z, atol=1e-12)
        assert np.allclose(marg[1], masses.sum(axis=0) / z, atol=1e-12)

    def test_agrees_with_solve_exact(self):
        rng = np.random.default_rng(47)
        for trial in range(5):
            g = make_random_chain(rng, 6, 3)
            _assert_matches_reference(solve_exact(g, cap=9), reference_solve_exact(g))

    def test_log_joint_matches(self):
        rng = np.random.default_rng(53)
        g = make_random_chain(rng, 5, 2)
        sol = reference_solve_exact(g)
        for x in all_configs(5, 2):
            ref = g.log_unnormalized_density(x) - sol.log_z
            assert log_joint(sol, x) == pytest.approx(ref, abs=1e-9)

    def test_non_chain_rejected(self):
        # x1 - x3 skips a depth, so no chain: it carries depth 1 through
        # level 2, whose scope becomes (1, 2), and the widest table stays
        # 2^2; a factor over 1, 2, 3 makes level 3's table 2^3
        g = make_graph(3, 2, [((1, 3), np.zeros(4)), ((2,), np.zeros(2))])
        assert solve_exact(g, cap=4).log_z == pytest.approx(brute_force_log_z(g), abs=1e-9)
        g = make_graph(3, 2, [((1, 3), np.zeros(4)), ((1, 2, 3), np.zeros(8))])
        with pytest.raises(StateSpaceCapError):
            solve_exact(g, cap=4)

    def test_reordered_chain_accepted(self):
        # scopes are non-consecutive in raw indices but consecutive under ordering
        g = make_graph(
            3,
            2,
            [((1, 3), np.ones(4)), ((2, 3), np.ones(4)), ((1,), np.zeros(2)), ((2,), np.zeros(2))],
            ordering=(1, 3, 2),
        )
        sol = solve_exact(g, cap=4)
        assert sol.log_z == pytest.approx(brute_force_log_z(g), abs=1e-9)

    def test_position_marginals_follow_ordering(self):
        # position p holds variable ordering[p]; the marginals are by variable
        g = make_graph(3, 2, [((1, 3), np.array([0.1, -0.7, 1.3, 0.4])),
                          ((2, 3), np.array([0.5, 0.2, -1.1, 0.9])),
                          ((1,), np.array([0.3, -0.2])), ((2,), np.array([1.0, 0.0]))],
                   ordering=(1, 3, 2))
        by_variable = variable_marginals(reference_solve_exact(g), g)
        masses = np.zeros((3, 2))
        for x in all_configs(3, 2):  # x by variable
            p = math.exp(g.log_unnormalized_density(assignment_to_prefix(g, x)))
            for v in range(3):
                masses[v, x[v] - 1] += p
        assert np.allclose(by_variable, masses / masses[0].sum(), atol=1e-12)
        assert not np.allclose(by_variable[[0, 2, 1]], by_variable, atol=1e-3)

    def test_expected_log_density(self):
        rng = np.random.default_rng(59)
        g = make_random_chain(rng, 4, 3)
        sol = solve_exact(g)
        e_ref, h_ref = _brute_force_energy_entropy(g)
        assert sol.log_z - sol.entropy == pytest.approx(e_ref, abs=1e-9)
        assert sol.entropy == pytest.approx(h_ref, abs=1e-9)

    def test_expected_log_density_with_neg_inf_entries(self):
        # zero-probability entries meet -inf potentials; no 0 * -inf may be formed
        g = make_graph(2, 2, [((1,), np.array([0.3, -np.inf])), ((2,), np.array([0.1, -0.4])),
                          ((1, 2), np.array([0.2, -np.inf, 0.5, 0.0]))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_exact(g)
            e_ref, h_ref = _brute_force_energy_entropy(g)
        assert sol.log_z - sol.entropy == pytest.approx(e_ref, abs=1e-12)
        assert sol.entropy == pytest.approx(h_ref, abs=1e-12)
        assert math.isfinite(sol.entropy)


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
        sol = reference_solve_exact(g)
        atoms = list(all_configs(3, 2))
        weights = [math.exp(log_joint(sol, x)) for x in atoms]
        approx = SimpleNamespace(atoms=atoms, weights=weights)
        assert exact_kl(approx, sol) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_approx_uniform_target(self):
        g = make_graph(2, 2, [((1,), np.zeros(2)), ((2,), np.zeros(2))])
        sol = reference_solve_exact(g)
        assert exact_kl(_Uniform(2, 2), sol, num_samples=50, seed=1) == pytest.approx(0.0, abs=1e-12)

    def test_support_mismatch_gives_inf(self):
        table = np.full(4, -np.inf)
        table[0] = 0.0
        g = make_graph(2, 2, [((1, 2), table)])
        sol = reference_solve_exact(g)
        assert exact_kl(_Uniform(2, 2), sol, num_samples=200, seed=2) == math.inf

    def test_enumeration_path(self):
        rng = np.random.default_rng(67)
        g = make_random_graph(rng, 3, 2, num_extra_factors=2)
        sol = reference_solve_exact(g)
        kl = kl_by_enumeration(lambda x: -3 * math.log(2), sol, g)
        # uniform vs target: KL = log Z ... E_unif[log gamma-hat] - H(unif)
        ref = sum(
            (1 / 8) * (-3 * math.log(2) - log_joint(sol, x)) for x in all_configs(3, 2)
        )
        assert kl == pytest.approx(ref, abs=1e-12)
