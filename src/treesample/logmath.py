"""Overflow-safe log-domain arithmetic.

All probability computations in this package stay in the log domain; -inf is a
first-class value meaning "zero mass". +inf and NaN are never legal inputs.

The array routines (logsumexp_rows, logsumexp_cols, the softmax draws) give
numpy's own bits at every width. logsumexp_list, the search tree's scalar
soft value, works in Python floats and agrees with logsumexp to a few ulps.
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


# numpy's float64 sum of n contiguous entries (its pairwise sum): left to
# right below PAIRWISE_SUM_MIN entries; up to PAIRWISE_BLOCK entries into
# eight accumulators, one per position mod 8, joined pairwise, then the
# tail of n mod 8 entries left to right; above PAIRWISE_BLOCK the sums of
# two halves, split at a multiple of 8. pairwise_sum follows it at every
# width; the column-by-column paths below PAIRWISE_SUM_MIN columns match it
# there.
PAIRWISE_SUM_MIN = 8
PAIRWISE_BLOCK = 128


def pairwise_sum(addends: np.ndarray):
    """The sum of the entries or rows of an array in the order of numpy's
    float64 row sum, bit for bit: pairwise_sum(row) equals row.sum() for a
    1-D row, and pairwise_sum(rows.T) equals rows.sum(axis=1) for a
    C-contiguous 2-D rows.

    A 2-D array is the sequence of its rows, so a (w, R) width-major block
    sums to R row sums with one add per column, and its eight accumulators
    advance with one add per eight columns. numpy's sum starts from 0.0, so
    -0.0 addends alone sum to 0.0. addends is never written to.
    """
    n = len(addends)
    if n > PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % 8
        # (0.0 + a) + (0.0 + b) equals 0.0 + (a + b): only -0.0 + -0.0 is -0.0
        return pairwise_sum(addends[:half]) + pairwise_sum(addends[half:])
    if n < PAIRWISE_SUM_MIN:
        total = 0.0
        for x in addends:
            total += x  # 0.0 + x makes a new array, so later adds write only to it
        return total
    tail = n - n % 8
    r = addends[:8].copy()
    for i in range(8, tail, 8):
        r += addends[i:i + 8]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in addends[tail:]:
        total += x
    total += 0.0
    return total


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


def shifted_exp_sums(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, shift, total) of a 2-D array: each row's maximum m, its shift
    (m itself when no row is all -inf, else m with those rows' -inf made 0)
    and each row's sum of exp(row - shift).

    Each row's sum runs in numpy's order for a row of that width. Below
    PAIRWISE_SUM_MIN columns that is left to right, done here column by
    column over the whole array; from PAIRWISE_SUM_MIN on it is numpy's
    pairwise sum along a contiguous row, so the shifted terms are written
    C-ordered whatever the layout of rows (a transposed array would be
    summed column by column, which rounds differently). For a rows that is
    not C-contiguous, m may differ from the maximum of a C-ordered copy in
    the sign of a zero, which changes no shifted term: exp(+-0.0) is 1.0.
    """
    k = rows.shape[1]
    if k < PAIRWISE_SUM_MIN:
        m = rows[:, 0].copy()
        for j in range(1, k):
            np.maximum(m, rows[:, j], out=m)
        shift = m if m.min() > NEG_INF else np.where(m > NEG_INF, m, 0.0)
        total = np.subtract(rows[:, 0], shift)
        np.exp(total, out=total)
        term = np.empty_like(total)
        for j in range(1, k):
            np.subtract(rows[:, j], shift, out=term)
            np.exp(term, out=term)
            total += term
    else:
        m = rows.max(axis=1)
        shift = m if m.min() > NEG_INF else np.where(m > NEG_INF, m, 0.0)
        terms = np.subtract(rows, shift[:, None], order="C")
        total = np.exp(terms, out=terms).sum(axis=1)
    return m, shift, total


def logsumexp_rows(arr: np.ndarray) -> np.ndarray:
    """Row-wise logsumexp over the last axis; all-(-inf) rows yield -inf.

    The sums are shifted_exp_sums'; an all-(-inf) row is shifted by 0
    instead of its maximum. A column-contiguous (M, K) input, such as a
    transposed C array, is reduced without a copy: below PAIRWISE_SUM_MIN
    columns each column is one contiguous vector, and from PAIRWISE_SUM_MIN
    on the one (M, K) array of shifted terms is C-ordered. The result's
    log(sum) is at least +0.0, so a maximum of either zero sign gives the
    same bits.
    """
    arr = np.asarray(arr, dtype=np.float64)
    m, shift, total = shifted_exp_sums(arr.reshape(-1, arr.shape[-1]))
    if shift is m:
        total = np.log(total, out=total)
        total += m
    else:
        safe = m > NEG_INF
        total = np.where(safe, shift + np.log(np.where(safe, total, 1.0)), NEG_INF)
    return total.reshape(arr.shape[:-1])


def logsumexp_cols(cols: np.ndarray) -> np.ndarray:
    """logsumexp of each column of a (w, R) array: logsumexp_rows(cols.T)
    bit for bit, reduced width-major.

    One max and one exp run over the whole array, and pairwise_sum adds its
    w rows of R entries in the order numpy sums each length-w row, so at
    small w and large R the work is a few calls on long vectors instead of
    R short row reductions. The row maxima may differ from
    logsumexp_rows' in the sign of a zero, which changes no result: the
    shifted maximum is exp(+-0.0) = 1.0 either way, and the sum is then at
    least 1.0, so its log is never -0.0. cols is left as it is.
    """
    m = cols.max(axis=0)
    safe = m.min() > NEG_INF
    shift = m if safe else np.where(m > NEG_INF, m, 0.0)
    terms = cols - shift
    total = pairwise_sum(np.exp(terms, out=terms))
    if not safe:
        ok = m > NEG_INF
        return np.where(ok, shift + np.log(np.where(ok, total, 1.0)), NEG_INF)
    total = np.log(total, out=total)
    total += m
    return total


def log_each(values: np.ndarray) -> np.ndarray:
    """math.log of every entry of a 1-D array, as a float64 array.

    This is logsumexp's arithmetic; np.log can differ from math.log in the
    last bit.
    """
    return np.fromiter(map(math.log, values.tolist()), dtype=np.float64, count=len(values))


def _shared_row(q: np.ndarray, which: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """(q, which), or q's one row and no index when q has one row or its
    row stride is 0."""
    return (q[:1], None) if len(q) == 1 or q.strides[0] == 0 else (q, which)


def draw_softmax_rows(q: np.ndarray, u: np.ndarray,
                      which: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 0-based draw from softmax of each row of q at its uniform in u.
    Returns the draws, each row's maximum m and each row's sum of
    exp(q - m). Raises ZeroMassError when a row is all -inf.

    q holds one row per uniform, or one (1, K) row shared by all, or, with
    which (shape (S,)), G rows of which uniform i draws from row which[i].
    A q with one row, or whose row stride is 0 (an np.broadcast_to view of
    one row), is a shared row, and which is then ignored. Each row of q is
    reduced once, so m and total have one entry per row of q, and the
    draws equal those from the materialised q[which] (or np.array(q)) bit
    for bit: a row's reduction does not depend on its neighbours. Every
    row of an indexed q is reduced, so an all -inf row raises
    ZeroMassError even when no uniform draws from it. A caller that passes
    which must draw from every row at least once; the error then fires
    exactly when the materialised q[which] would raise it.

    A draw is the first index whose cumulative probability exceeds u, or
    K - 1 when none does. Below PAIRWISE_SUM_MIN columns the max, exp, sum,
    cumulative sum and count run column by column, in the left-to-right
    order numpy's row reductions use at those widths, so they give the
    same bits without a row reduction call; the count stops at column
    K - 2, since the cumulative sum never decreases and the draw is capped
    at K - 1. From PAIRWISE_SUM_MIN columns on, the row sum is numpy's
    pairwise sum, so the reductions stay numpy's own, over a C-contiguous
    copy of q (shifted_exp_sums writes its terms C-ordered for the same
    reason): a Fortran-ordered q would be summed column by column, one ulp
    off on some rows. There, a shared row counts by binary search:
    np.searchsorted(cdf, u, side="right") is the number of entries at most
    u, as the count is, since a cumulative sum of non-negative terms never
    decreases.
    """
    q, which = _shared_row(q, which)
    k = q.shape[1]
    if k < PAIRWISE_SUM_MIN:
        cols = [q[:, j] for j in range(k)]
        m = cols[0].copy()
        for col in cols[1:]:
            np.maximum(m, col, out=m)
        if m.min() == NEG_INF:
            raise ZeroMassError("softmax of an all-(-inf) vector is undefined")
        exps = [np.exp(col - m) for col in cols]
        total = exps[0].copy()
        for e in exps[1:]:
            total += e
        cdf = exps[0] / total
        a = ((cdf if which is None else cdf[which]) <= u).astype(np.int64)
        for e in exps[1:-1]:
            cdf += e / total
            a += (cdf if which is None else cdf[which]) <= u
        return a, m, total
    q = np.ascontiguousarray(q)
    m = q.max(axis=1)
    if m.min() == NEG_INF:
        raise ZeroMassError("softmax of an all-(-inf) vector is undefined")
    e = np.exp(q - m[:, None])
    total = e.sum(axis=1)
    cdf = (e / total[:, None]).cumsum(axis=1)
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
    of q and then gathered by which.
    """
    q, which = _shared_row(q, which)
    a, m, total = draw_softmax_rows(q, u, which)
    lse = m + log_each(total)
    if len(q) == 1:
        return a, q[0, a] - lse
    if which is None:
        return a, q[np.arange(len(q)), a] - lse
    return a, q[which, a] - lse[which]


class ZeroMassError(ValueError):
    """The distribution being sampled or normalized has zero total mass."""
