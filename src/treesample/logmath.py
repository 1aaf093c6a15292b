"""Overflow-safe log-domain arithmetic.

All probability computations in this package stay in the log domain; -inf is a
first-class value meaning "zero mass". +inf and NaN are never legal inputs.
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


# numpy's float64 sum adds left to right below 8 entries and pairwise (in
# blocks of 8) from 8 on; a Python loop matches it only below.
PAIRWISE_SUM_MIN = 8


def logsumexp_list(values: list[float]) -> float:
    """logsumexp of a list of floats, equal to logsumexp bit for bit.

    Below PAIRWISE_SUM_MIN entries the sum runs as a Python loop in numpy's
    order, which avoids the fixed cost of numpy array calls on a few
    entries. Its summands are what logsumexp adds: an entry equal to the
    maximum m adds exactly 1.0, since v - m is 0.0 and exp(0.0) is exactly
    1.0; a -inf entry adds exp(-inf) = 0.0, which leaves the running total
    (0.0 or positive) unchanged, so the entry is skipped. Every other
    entry adds np.exp of its float (np.exp of one float equals the array
    np.exp; math.exp differs in the last bit on some inputs), converted to
    a Python float so that the running sum and the log stay off numpy
    scalar arithmetic, which rounds alike but costs more.

    From PAIRWISE_SUM_MIN entries on, the sum is numpy's pairwise sum of
    exp(values - m), as in logsumexp: ndarray.sum and np.sum both run
    np.add.reduce over the same contiguous array, so they round alike, and
    calling the method skips np.sum's Python-level dispatch.
    """
    m = max(values)
    if m == NEG_INF:
        return NEG_INF
    if len(values) >= PAIRWISE_SUM_MIN:
        return m + math.log(np.exp(np.subtract(values, m)).sum())
    total = 0.0
    for v in values:
        if v == m:
            total += 1.0
        elif v != NEG_INF:
            total += float(np.exp(v - m))
    return m + math.log(total)


def logsumexp_rows(arr: np.ndarray) -> np.ndarray:
    """Row-wise logsumexp over the last axis; all-(-inf) rows yield -inf.

    Each row's sum runs in numpy's order for a row of that width. Below
    PAIRWISE_SUM_MIN columns that is left to right, done here column by
    column over the whole array; from PAIRWISE_SUM_MIN on it is numpy's
    pairwise sum along a contiguous row, so the array is made C-contiguous
    first (a transposed array would be summed column by column, which rounds
    differently). An all-(-inf) row is shifted by 0 instead of its maximum.
    """
    arr = np.asarray(arr, dtype=np.float64)
    rows = arr.reshape(-1, arr.shape[-1])
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
        rows = np.ascontiguousarray(rows)
        m = rows.max(axis=1)
        shift = m if m.min() > NEG_INF else np.where(m > NEG_INF, m, 0.0)
        terms = rows - shift[:, None]
        total = np.exp(terms, out=terms).sum(axis=1)
    if shift is m:
        total = np.log(total, out=total)
        total += m
    else:
        safe = m > NEG_INF
        total = np.where(safe, shift + np.log(np.where(safe, total, 1.0)), NEG_INF)
    return total.reshape(arr.shape[:-1])


def log_each(values: np.ndarray) -> np.ndarray:
    """math.log of every entry of a 1-D array, as a float64 array.

    This is logsumexp's arithmetic; np.log can differ from math.log in the
    last bit.
    """
    return np.fromiter(map(math.log, values.tolist()), dtype=np.float64, count=len(values))


def draw_softmax_rows(q: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 0-based draw from softmax of each row of q at its uniform in u; q
    may also be one (1, K) row shared by all. Returns the draws, each row's
    maximum m and each row's sum of exp(q - m). Raises ZeroMassError when a
    row is all -inf.

    A draw is the first index whose cumulative probability exceeds u, or
    K - 1 when none does. Below PAIRWISE_SUM_MIN columns the max, exp, sum,
    cumulative sum and count run column by column, in the left-to-right
    order numpy's row reductions use at those widths, so they give the
    same bits without a row reduction call; the count stops at column
    K - 2, since the cumulative sum never decreases and the draw is capped
    at K - 1. From PAIRWISE_SUM_MIN columns on, the row sum is numpy's
    pairwise sum, so the reductions stay numpy's own.
    """
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
        a = (cdf <= u).astype(np.int64)
        for e in exps[1:-1]:
            cdf += e / total
            a += cdf <= u
        return a, m, total
    m = q.max(axis=1)
    if m.min() == NEG_INF:
        raise ZeroMassError("softmax of an all-(-inf) vector is undefined")
    e = np.exp(q - m[:, None])
    total = e.sum(axis=1)
    cdf = (e / total[:, None]).cumsum(axis=1)
    return np.minimum((cdf <= u[:, None]).sum(axis=1), k - 1), m, total


def sample_softmax_rows(q: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """draw_softmax_rows' draws and the log probability of each draw.

    The log probability is the row entry minus the row's logsumexp,
    m + math.log(total) in logsumexp's arithmetic, so it equals
    q[a] - logsumexp(q) bit for bit.
    """
    a, m, total = draw_softmax_rows(q, u)
    picked = q[0, a] if len(q) == 1 else q[np.arange(len(q)), a]
    return a, picked - (m + log_each(total))


class ZeroMassError(ValueError):
    """The distribution being sampled or normalized has zero total mass."""
