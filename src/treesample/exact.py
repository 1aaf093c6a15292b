"""Ground-truth inference oracles for desk-scale graphs.

Two independent paths: exhaustive backward dynamic programming with
soft-Bellman recursions (any graph, capped state space), and linear-time
forward-backward on chain-structured graphs. Both stay in the log domain
end to end; the only exponentiations happen inside logsumexp and final
softmax normalizations. Both solutions index by depth (ordering position).
The exhaustive solution keeps every level's soft values next to its
state-action values, so its entropy enumerates the joint from the solve's
own normalisers instead of reducing every level a second time. It builds
each level width-major, with the level's own depth as the first axis, so
each q level is a transposed view whose K columns are contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .logmath import NEG_INF, logsumexp, logsumexp_rows
from .model import FactorGraph


# ExactSolution.entropy exponentiates this many log probabilities at a time
ENTROPY_BLOCK = 1 << 15


class StateSpaceCapError(ValueError):
    """The graph's K^N state space exceeds the configured oracle cap."""


def _level_rewards(graph: FactorGraph, depth: int) -> np.ndarray:
    """(K, K^(depth-1)) array of depth-`depth` rewards, width-major: row j
    holds the rewards of every (depth-1)-prefix, in rank order, extended by
    j + 1.

    The rewards live on a (K,) * depth grid whose first axis is depth
    `depth` and whose other axes are depths 1..depth-1, so each row is the
    grid's row-major order over the prefix and a factor's broadcast add
    runs long inner loops. Each factor's table is reshaped to its scope,
    its axes put in grid order, and broadcast onto the grid.
    """
    k = graph.num_states
    total = np.zeros((k,) * depth)
    for cf in graph.factors_at_depth(depth):
        axes = cf.positions % depth
        shape = np.ones(depth, dtype=np.intp)
        shape[axes] = k
        table = cf.table.reshape((k,) * len(axes)).transpose(np.argsort(axes))
        total += table.reshape(shape)
    return total.reshape(k, -1)


@dataclass
class ExactSolution:
    """Optimal state-action values for every prefix, level by level.

    q_levels[n-1] has shape (K^(n-1), K): row r holds the K values at the
    prefix whose base-K rank is r (depth 1 is the most significant digit).
    It is the transposed view of solve_exact's width-major (K, K^(n-1))
    level, so each of its K columns is contiguous.
    v_levels[n-1] has shape (K^(n-1),): entry r is the soft value V of that
    prefix, logsumexp_rows(q_levels[n-1]) as solve_exact computed it for
    the level above, kept so that the prefix marginals need no second
    reduction. So the oracle exponentiates only inside solve_exact's
    logsumexp_rows calls and in entropy's one np.exp of the joint.
    """

    log_z: float
    q_levels: list[np.ndarray]
    v_levels: list[np.ndarray]

    def enumerate_log_joint(self) -> np.ndarray:
        """log P*(x) for all K^N configurations, prefix-rank order.

        Built level by level from the prefix marginals:
        log P*(x_{<=n}) = log P*(x_{<n}) + (q - V) at the prefix's q row, with
        V read from v_levels. A zero-mass prefix (V = -inf) gives -inf
        children without -inf - -inf. Each of the K columns is one
        subtraction and one addition over all rows, against the contiguous
        V and log P*(x_{<n}) vectors: broadcasting a (rows, 1) operand instead
        would run numpy's inner loop only K entries long. Each entry still
        takes the same two roundings, (q - V) + log P*(x_{<n}).
        """
        logp = np.zeros(1)
        for q, v in zip(self.q_levels, self.v_levels):
            safe = v > NEG_INF
            if safe.all():
                cond, safe = np.empty(q.shape), True
            else:
                cond = np.full(q.shape, NEG_INF)
            for j in range(q.shape[1]):
                col = cond[:, j]
                np.subtract(q[:, j], v, out=col, where=safe)
                col += logp
            logp = cond.reshape(-1)
        return logp

    def entropy(self) -> float:
        """-sum p log p over the configurations of positive probability.

        The terms p log p overwrite the joint's log probabilities, and p is
        formed ENTROPY_BLOCK entries at a time, so the call holds one K^N
        array instead of two (at N = 18 and K = 2, 2 MiB instead of 4).
        A heap whose top glibc trims back to its threshold then still has
        room for the call, which otherwise grows the heap and faults in
        fresh pages on every call. Each term is the product p * log p, and the positive terms are
        summed by one np.sum over a contiguous array, as when p was one
        array, so the bits are the same. A zero p is never multiplied
        (0 * -inf would be NaN) and its entry is dropped before the sum.
        """
        terms = self.enumerate_log_joint()
        positive = np.empty(len(terms), dtype=bool)
        for start in range(0, len(terms), ENTROPY_BLOCK):
            logp = terms[start:start + ENTROPY_BLOCK]
            p = np.exp(logp)
            where = np.greater(p, 0.0, out=positive[start:start + ENTROPY_BLOCK])
            np.multiply(p, logp, out=logp, where=where)
        if not positive.all():
            terms = terms[positive]
        return float(-np.sum(terms))


def solve_exact(graph: FactorGraph, cap: int = 10**7) -> ExactSolution:
    """Backward soft-Bellman dynamic programming over the full prefix tree."""
    n, k = graph.num_variables, graph.num_states
    if k**n > cap:
        raise StateSpaceCapError(f"state space {k}^{n} exceeds cap {cap}")
    q_levels: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    v_levels: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    # V_{N+1} is identically zero, and adding it would change no reward (a sum
    # that starts from +0.0 is never -0.0), so the deepest level skips it
    v_next = None
    for depth in range(n, 0, -1):
        w = _level_rewards(graph, depth)
        if v_next is not None:
            w += v_next.reshape(-1, k).T
        q = q_levels[depth - 1] = w.T
        v_next = v_levels[depth - 1] = logsumexp_rows(q)
    log_z = float(v_next[0])
    return ExactSolution(log_z=log_z, q_levels=q_levels, v_levels=v_levels)


# ---------------------------------------------------------------------------
# Chain-structured graphs: forward-backward in linear time.
# ---------------------------------------------------------------------------


@dataclass
class ChainSolution:
    """Forward-backward quantities for a chain, indexed by ordering position."""

    log_z: float
    unary: np.ndarray  # (N, K) summed unary log-potentials per position
    pair: np.ndarray  # (N-1, K, K) summed pairwise log-potentials per step
    alpha: np.ndarray  # (N, K) forward messages
    beta: np.ndarray  # (N, K) backward messages

    def position_marginals(self) -> np.ndarray:
        """(N, K) marginal probabilities by ordering position."""
        log_m = self.alpha + self.beta - self.log_z
        return np.exp(log_m)

    def pairwise_marginals(self) -> np.ndarray:
        """(N-1, K, K) joint marginals of consecutive positions."""
        log_m = (
            self.alpha[:-1, :, None]
            + self.pair
            + self.unary[1:, None, :]
            + self.beta[1:, None, :]
            - self.log_z
        )
        return np.exp(log_m)

    def expected_log_density(self) -> float:
        """E_{P*}[sum of factors], from unary and pairwise marginals.

        Entries of zero marginal contribute 0 and are never multiplied, so a
        -inf potential does not meet 0 * -inf.
        """
        total = 0.0
        for marg, potential in ((self.position_marginals(), self.unary),
                                (self.pairwise_marginals(), self.pair)):
            terms = np.multiply(marg, potential, out=np.zeros_like(marg), where=marg > 0)
            total += float(np.sum(terms))
        return total

    def entropy(self) -> float:
        return self.log_z - self.expected_log_density()


def is_chain(graph: FactorGraph) -> bool:
    """True if all scopes have size <= 2 and binary scopes span consecutive depths."""
    for f in graph.factors:
        if len(f.scope) > 2:
            return False
        if len(f.scope) == 2:
            u, v = f.scope
            if abs(graph.depth_of(u) - graph.depth_of(v)) != 1:
                return False
    return True


def solve_chain(graph: FactorGraph) -> ChainSolution:
    """Exact log Z, forward-backward messages and marginals for a chain graph."""
    if not is_chain(graph):
        raise ValueError("graph is not chain-structured under its ordering")
    n, k = graph.num_variables, graph.num_states
    unary = np.zeros((n, k))
    pair = np.zeros((max(n - 1, 0), k, k))
    for f in graph.factors:
        if len(f.scope) == 1:
            unary[graph.depth_of(f.scope[0]) - 1] += f.table
        else:
            u, v = f.scope
            pu, pv = graph.depth_of(u), graph.depth_of(v)
            tbl = f.table.reshape(k, k)
            if pu < pv:
                pair[pu - 1] += tbl
            else:
                pair[pv - 1] += tbl.T

    # emit[p] = pair[p] + unary[p+1] along the successor axis; pair_t[p] is
    # pair[p] transposed, so the forward pass reduces contiguous rows
    emit = pair + unary[1:, None, :]
    pair_t = np.ascontiguousarray(pair.transpose(0, 2, 1))
    beta = np.zeros((n, k))
    for p in range(n - 2, -1, -1):
        beta[p] = logsumexp_rows(emit[p] + beta[p + 1])
    alpha = np.zeros((n, k))
    alpha[0] = unary[0]
    for p in range(n - 1):
        alpha[p + 1] = unary[p + 1] + logsumexp_rows(pair_t[p] + alpha[p])
    log_z = float(logsumexp(alpha[n - 1]))
    return ChainSolution(log_z=log_z, unary=unary, pair=pair, alpha=alpha, beta=beta)
