"""Overflow-safe log-domain arithmetic.

All probability computations in this package stay in the log domain; -inf is a
first-class value meaning "zero mass". +inf and NaN are never legal inputs.

The array routines (logsumexp_rows, the softmax draws) give numpy's own bits
at every width. They reduce rows through one routine, shifted_exp_terms,
which returns the maxima, the shifted exp terms and their sums; the draws
read the terms. The exact oracle weights each level's rows by
exp(q - _shift(V)). Loopy BP reduces its width-major block with plain numpy
calls and shares with logsumexp_rows only the shift of an all -inf row and
the log of the sums (_shift, _log_sums); its messages are held to an
accuracy bound, not to numpy's row-sum bits. logsumexp_list, the search
tree's scalar soft value, works in Python floats and agrees with logsumexp
to a few ulps.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")


def json_float(v: float) -> float | str:
    """v as a JSON value: finite floats as they are, -inf, inf and NaN as the
    strings "-inf", "inf" and "nan" (JSON has no non-finite numbers)."""
    return v if math.isfinite(v) else str(v)


def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) with max-shift; all-(-inf) input yields -inf."""
    values = np.asarray(values, dtype=np.float64)
    m = float(np.max(values)) if values.size else NEG_INF
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(float(np.sum(np.exp(values - m))))


# numpy's float64 sum of n contiguous entries adds left to right below
# PAIRWISE_SUM_MIN entries and pairwise from there on; the column-by-column
# paths below PAIRWISE_SUM_MIN columns follow its left-to-right order.
PAIRWISE_SUM_MIN = 8


def logsumexp_list(values: list[float]) -> float:
    """logsumexp of a list of floats, in Python floats: the search tree's
    soft value.

    With m the maximum, the terms math.exp(v - m) are summed left to right
    and the result is m + math.log(sum); an all -inf list gives -inf. At a
    node's few entries this costs less than the fixed cost of numpy calls,
    and it stays cheaper up to at least 64 entries. The result agrees with
    logsumexp within 4 * len(values) ulps of max(1, |result|), not bit for
    bit: math.exp and np.exp differ in the last bit on some inputs, and
    from PAIRWISE_SUM_MIN entries on numpy adds pairwise. Exact cases: the
    maximum adds exp(0.0), exactly 1.0, and a -inf entry adds exp(-inf),
    exactly 0.0, so one finite entry gives itself (m + log(1.0) = m + 0.0,
    which makes -0.0 into 0.0) and K equal entries give m + log(K).
    """
    m = max(values)
    if m == NEG_INF:
        return NEG_INF
    total = 0.0
    for v in values:
        total += math.exp(v - m)
    return m + math.log(total)


def _shift(m: np.ndarray) -> np.ndarray:
    """The shift of rows whose maxima are m: m itself when no row is all
    -inf, else m with those rows' -inf made 0, so that their shifted terms
    are exp(-inf) = 0.0 instead of NaN."""
    return m if m.min() > NEG_INF else np.where(m > NEG_INF, m, 0.0)


def _log_sums(m: np.ndarray, shift: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Each row's logsumexp from its maximum, shift and sum of shifted
    terms: shift + log(total), and -inf on the all -inf rows. total is
    overwritten when no row is all -inf."""
    if shift is m:
        total = np.log(total, out=total)
        total += m
        return total
    safe = m > NEG_INF
    return np.where(safe, shift + np.log(np.where(safe, total, 1.0)), NEG_INF)


def shifted_exp_terms(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                   np.ndarray | list[np.ndarray]]:
    """(m, shift, total, terms) of a 2-D array: each row's maximum m, its
    shift (see _shift), each row's sum of exp(row - shift) and the shifted
    terms themselves, which the softmax draws read.

    Each row's sum runs in numpy's order for a row of that width. Below
    PAIRWISE_SUM_MIN columns that is left to right, done here column by
    column over the whole array: terms is then the list of the first K - 1
    columns' terms, each a contiguous vector, and total starts as the last
    column's terms, to which their left-to-right sum is added (a + b is
    b + a in floating point). From PAIRWISE_SUM_MIN on the sum is numpy's
    pairwise sum along a contiguous row, so terms is one (M, K) array
    written C-ordered whatever the layout of rows (a transposed array
    would be summed column by column, which rounds differently). total is
    never a view of the terms. For a rows that is not C-contiguous, m may
    differ from the maximum of a C-ordered copy in the sign of a zero,
    which changes no shifted term: exp(+-0.0) is 1.0.
    """
    k = rows.shape[1]
    if k < PAIRWISE_SUM_MIN:
        m = rows[:, 0].copy()
        for j in range(1, k):
            np.maximum(m, rows[:, j], out=m)
        shift = _shift(m)
        # the sums array comes before the terms: allocation order shows in
        # tree-build's peak_rss_mb, which read 1.3-1.4 MiB higher with the
        # sums allocated after the terms the draws keep (ROADMAP, Not planned)
        total = np.subtract(rows[:, k - 1], shift)
        np.exp(total, out=total)
        terms = []
        for j in range(k - 1):
            t = np.subtract(rows[:, j], shift)
            terms.append(np.exp(t, out=t))
        if terms:
            total += sum(terms[1:], terms[0])
    else:
        m = rows.max(axis=1)
        shift = _shift(m)
        terms = np.subtract(rows, shift[:, None], order="C")
        total = np.exp(terms, out=terms).sum(axis=1)
    return m, shift, total, terms


def logsumexp_rows(arr: np.ndarray) -> np.ndarray:
    """Row-wise logsumexp over the last axis; all-(-inf) rows yield -inf.

    The sums are shifted_exp_terms'; an all-(-inf) row is shifted by 0
    instead of its maximum. A column-contiguous (M, K) input, such as a
    transposed C array, is reduced without a copy: below PAIRWISE_SUM_MIN
    columns each column is one contiguous vector, and from PAIRWISE_SUM_MIN
    on the one (M, K) array of shifted terms is C-ordered. The result's
    log(sum) is at least +0.0, so a maximum of either zero sign gives the
    same bits.
    """
    arr = np.asarray(arr, dtype=np.float64)
    m, shift, total = shifted_exp_terms(arr.reshape(-1, arr.shape[-1]))[:3]
    return _log_sums(m, shift, total).reshape(arr.shape[:-1])


def log_each(values: np.ndarray) -> np.ndarray:
    """math.log of every entry of a 1-D array, as a float64 array.

    This is logsumexp's arithmetic; np.log can differ from math.log in the
    last bit.
    """
    return np.fromiter(map(math.log, values.tolist()), dtype=np.float64, count=len(values))


def draw_softmax_rows(q: np.ndarray, u: np.ndarray,
                      which: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 0-based draw from softmax of each row of q at its uniform in u.
    Returns the draws, each row's maximum m and each row's sum of
    exp(q - m). Raises ZeroMassError when a row is all -inf.

    q holds one row per uniform, or one (1, K) row shared by all, or, with
    which (shape (S,)), G rows of which uniform i draws from row which[i].
    A q with one row, or whose row stride is 0 (an np.broadcast_to view of
    one row), is a shared row, and which is then ignored. Each row of q is
    reduced once, so m and total have one entry per row of q (one for a
    shared row), and the draws equal those from the materialised q[which]
    (or np.array(q)) bit for bit: a row's reduction does not depend on its
    neighbours. Every row of an indexed q is reduced, so an all -inf row
    raises ZeroMassError even when no uniform draws from it. A caller that
    passes which must draw from every row at least once; the error then
    fires exactly when the materialised q[which] would raise it.

    The maxima, sums and shifted terms are shifted_exp_terms', in numpy's
    own row-reduction order at every width; for a q that is not C-ordered,
    a maximum may differ from a C-ordered copy's in the sign of a zero,
    which changes no term, draw or log probability. A draw is the first
    index whose cumulative probability exceeds u, or K - 1 when none does.
    Below PAIRWISE_SUM_MIN columns the cumulative sum and the count run
    column by column over the first K - 1 columns' terms, in the
    left-to-right order numpy's cumsum uses at those widths; the last
    column is never counted, since the cumulative sum never decreases and
    the draw is capped at K - 1. From PAIRWISE_SUM_MIN columns on, the
    cumulative sum is numpy's over the C-ordered terms, and a shared row
    counts by binary search: np.searchsorted(cdf, u, side="right") is the
    number of entries at most u, as the count is, since a cumulative sum
    of non-negative terms never decreases.
    """
    if len(q) == 1 or q.strides[0] == 0:
        q, which = q[:1], None
    m, shift, total, terms = shifted_exp_terms(q)
    if shift is not m:
        raise ZeroMassError("softmax of an all-(-inf) vector is undefined")
    k = q.shape[1]
    if k < PAIRWISE_SUM_MIN:
        # a width-1 row has no term to count: its one cumulative probability is 1.0
        cdf = terms[0] / total if terms else np.ones_like(total)
        a = ((cdf if which is None else cdf[which]) <= u).astype(np.int64)
        for t in terms[1:]:
            cdf += t / total
            a += (cdf if which is None else cdf[which]) <= u
        return a, m, total
    cdf = (terms / total[:, None]).cumsum(axis=1)
    if len(q) == 1:
        a = np.searchsorted(cdf[0], u, side="right")
    else:
        a = ((cdf if which is None else cdf[which]) <= u[:, None]).sum(axis=1)
    return np.minimum(a, k - 1), m, total


def sample_softmax_rows(q: np.ndarray, u: np.ndarray,
                        which: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """draw_softmax_rows' draws and the log probability of each draw; q,
    u and which are as there.

    The log probability is the row entry minus the row's logsumexp,
    m + math.log(total) in logsumexp's arithmetic, so it equals
    q[a] - logsumexp(q) bit for bit. The logsumexp is formed once per row
    that draw_softmax_rows reduced and then gathered by which; one maximum
    means q was reduced as a shared row.
    """
    a, m, total = draw_softmax_rows(q, u, which)
    lse = m + log_each(total)
    if len(m) == 1:
        return a, q[0, a] - lse
    if which is None:
        return a, q[np.arange(len(q)), a] - lse
    return a, q[which, a] - lse[which]


class ZeroMassError(ValueError):
    """The distribution being sampled or normalized has zero total mass."""
