"""Overflow-safe log-domain arithmetic.

All probability computations in this package stay in the log domain; -inf is a
first-class value meaning "zero mass". +inf and NaN are never legal inputs.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")


def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) with max-shift; all-(-inf) input yields -inf."""
    values = np.asarray(values, dtype=np.float64)
    m = float(np.max(values)) if values.size else NEG_INF
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(float(np.sum(np.exp(values - m))))


def logsumexp_rows(arr: np.ndarray) -> np.ndarray:
    """Row-wise logsumexp over the last axis; all-(-inf) rows yield -inf."""
    arr = np.asarray(arr, dtype=np.float64)
    m = np.max(arr, axis=-1)
    out = np.full(m.shape, NEG_INF)
    safe = m > NEG_INF
    if np.any(safe):
        shifted = arr[safe] - m[safe, None]
        out[safe] = m[safe] + np.log(np.sum(np.exp(shifted), axis=-1))
    return out


def log_softmax(values: np.ndarray) -> np.ndarray:
    """Per-entry log probability of softmax(values); -inf entries get -inf."""
    lse = logsumexp(values)
    if lse == NEG_INF:
        raise ZeroMassError("softmax of an all-(-inf) vector is undefined")
    return np.asarray(values, dtype=np.float64) - lse


def softmax(values: np.ndarray) -> np.ndarray:
    """Normalized probabilities exp(values)/sum; raises on all-(-inf)."""
    values = np.asarray(values, dtype=np.float64)
    m = float(np.max(values))
    if m == NEG_INF:
        raise ZeroMassError("softmax of an all-(-inf) vector is undefined")
    p = np.exp(values - m)
    return p / p.sum()


def sample_softmax(values: np.ndarray, rng: np.random.Generator) -> int:
    """Draw a 0-based index from softmax(values)."""
    p = softmax(values)
    return int(np.searchsorted(np.cumsum(p), rng.random(), side="right").clip(0, len(p) - 1))


def sample_softmax_rows(q: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sample_softmax of each row of q at its uniform in u, and the log
    probability of each draw; q may also be one (1, K) row shared by all.

    The arithmetic is sample_softmax's and logsumexp's, the log included
    (math.log, which can differ from np.log in the last bit), so each draw and
    each log probability equals the scalar path's bit for bit.
    """
    m = q.max(axis=1)
    if m.min() == NEG_INF:
        raise ZeroMassError("softmax of an all-(-inf) vector is undefined")
    e = np.exp(q - m[:, None])
    total = e.sum(axis=1)
    cdf = (e / total[:, None]).cumsum(axis=1)
    a = np.minimum((cdf <= u[:, None]).sum(axis=1), q.shape[1] - 1)
    lse = m + np.array([math.log(t) for t in total.tolist()])
    picked = q[0, a] if len(q) == 1 else q[np.arange(len(q)), a]
    return a, picked - lse


class ZeroMassError(RuntimeError):
    """The distribution being sampled or normalized has zero total mass."""
