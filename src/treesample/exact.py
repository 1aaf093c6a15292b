"""Ground-truth inference oracles for desk-scale graphs.

Two independent paths: exhaustive backward dynamic programming with
soft-Bellman recursions (any graph, capped state space), and linear-time
forward-backward on chain-structured graphs. Both stay in the log domain
end to end; the only exponentiations happen inside logsumexp and final
softmax normalizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .logmath import NEG_INF, logsumexp, logsumexp_rows
from .model import FactorGraph, Prefix


class StateSpaceCapError(RuntimeError):
    """The graph's K^N state space exceeds the configured oracle cap."""


def _level_rewards(graph: FactorGraph, depth: int) -> np.ndarray:
    """Vector of depth-`depth` rewards over all K^depth prefixes, rank order."""
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


@dataclass
class ExactSolution:
    """Optimal state-action values for every prefix, level by level.

    q_levels[n-1] has shape (K^(n-1), K): row r holds the K values at the
    prefix whose base-K rank is r (depth 1 is the most significant digit).
    """

    log_z: float
    q_levels: list[np.ndarray]
    num_variables: int
    num_states: int

    def prefix_rank(self, prefix: Sequence[int]) -> int:
        r = 0
        for v in prefix:
            r = r * self.num_states + (v - 1)
        return r

    def q_values(self, prefix: Sequence[int]) -> np.ndarray:
        """K-vector of optimal values for the actions below this prefix."""
        n = len(prefix)
        if n >= self.num_variables:
            raise ValueError("no actions below a complete configuration")
        return self.q_levels[n][self.prefix_rank(prefix)]

    def value(self, prefix: Sequence[int]) -> float:
        """Optimal value of the subproblem below this prefix; 0 at full depth."""
        if len(prefix) == self.num_variables:
            return 0.0
        return float(logsumexp(self.q_values(prefix)))

    def conditional(self, prefix: Sequence[int]) -> np.ndarray:
        """Target conditional probabilities of the next variable given prefix."""
        q = self.q_values(prefix)
        v = logsumexp(q)
        if v == NEG_INF:
            raise ValueError("prefix has zero mass under the target")
        return np.exp(q - v)

    def log_joint(self, x: Sequence[int]) -> float:
        """Normalized log-probability of a complete configuration."""
        if len(x) != self.num_variables:
            raise ValueError("configuration must be complete")
        total = 0.0
        for n in range(self.num_variables):
            q = self.q_levels[n][self.prefix_rank(x[:n])]
            v = logsumexp(q)
            if q[x[n] - 1] == NEG_INF:
                return NEG_INF
            total += float(q[x[n] - 1]) - float(v)
        return total

    def level_log_probs(self) -> list[np.ndarray]:
        """Prefix marginals log P*(x_{<=n}) per level, rank order."""
        k = self.num_states
        out = [np.zeros(1)]
        logp = np.zeros(1)
        for n in range(self.num_variables):
            q = self.q_levels[n]
            v = logsumexp_rows(q)
            cond = np.where(v[:, None] > NEG_INF, q - v[:, None], NEG_INF)
            logp = (logp[:, None] + cond).reshape(-1)
            out.append(logp)
        return out

    def enumerate_log_joint(self) -> np.ndarray:
        """log P*(x) for all K^N configurations, prefix-rank order."""
        return self.level_log_probs()[-1]

    def expected_log_density(self) -> float:
        """E_{P*}[sum of factors] via level marginals and level rewards."""
        return self.log_z - self.entropy()

    def entropy(self) -> float:
        logp = self.enumerate_log_joint()
        p = np.exp(logp)
        mask = p > 0
        return float(-np.sum(p[mask] * logp[mask]))

    def variable_marginals(self, graph: FactorGraph) -> np.ndarray:
        """(N, K) marginal table indexed by variable (row v-1)."""
        k = self.num_states
        n = self.num_variables
        probs = np.exp(self.enumerate_log_joint()).reshape((k,) * n)
        out = np.zeros((n, k))
        for depth in range(1, n + 1):
            axes = tuple(d for d in range(n) if d != depth - 1)
            out[graph.ordering[depth - 1] - 1] = probs.sum(axis=axes)
        return out

    def to_json_dict(self) -> dict:
        return {"log_z": self.log_z, "n": self.num_variables, "k": self.num_states}


def solve_exact(graph: FactorGraph, cap: int = 10**7) -> ExactSolution:
    """Backward soft-Bellman dynamic programming over the full prefix tree."""
    n, k = graph.num_variables, graph.num_states
    if k**n > cap:
        raise StateSpaceCapError(f"state space {k}^{n} exceeds cap {cap}")
    q_levels: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    v_next = np.zeros(k**n)  # V_{N+1} is identically zero
    for depth in range(n, 0, -1):
        q = (_level_rewards(graph, depth) + v_next).reshape(-1, k)
        q_levels[depth - 1] = q
        v_next = logsumexp_rows(q)
    log_z = float(v_next[0])
    return ExactSolution(log_z=log_z, q_levels=q_levels, num_variables=n, num_states=k)


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
    ordering: tuple[int, ...]

    @property
    def num_positions(self) -> int:
        return self.unary.shape[0]

    def position_marginals(self) -> np.ndarray:
        """(N, K) marginal probabilities by ordering position."""
        log_m = self.alpha + self.beta - self.log_z
        return np.exp(log_m)

    def variable_marginals(self) -> np.ndarray:
        """(N, K) marginal probabilities by variable index (row v-1)."""
        by_pos = self.position_marginals()
        out = np.zeros_like(by_pos)
        for pos, v in enumerate(self.ordering):
            out[v - 1] = by_pos[pos]
        return out

    def pairwise_marginals(self) -> np.ndarray:
        """(N-1, K, K) joint marginals of consecutive positions."""
        n = self.num_positions
        out = np.zeros_like(self.pair)
        for p in range(n - 1):
            log_m = (
                self.alpha[p][:, None]
                + self.pair[p]
                + self.unary[p + 1][None, :]
                + self.beta[p + 1][None, :]
                - self.log_z
            )
            out[p] = np.exp(log_m)
        return out

    def log_step_conditionals(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, steps): log P*(x_1) of shape (K,) and log P*(x_{p+1}|x_p)
        of shape (N-1, K, K); rows for zero-mass predecessors stay -inf."""
        first = self.unary[0] + self.beta[0] - self.log_z
        n = self.num_positions
        steps = np.full_like(self.pair, NEG_INF)
        for p in range(n - 1):
            scores = self.pair[p] + self.unary[p + 1][None, :] + self.beta[p + 1][None, :]
            norms = logsumexp_rows(scores)
            ok = norms > NEG_INF
            steps[p][ok] = scores[ok] - norms[ok, None]
        return first, steps

    def log_joint(self, x: Sequence[int]) -> float:
        """Normalized log-probability of a complete prefix (depth order)."""
        first, steps = self.log_step_conditionals()
        total = float(first[x[0] - 1])
        for p in range(self.num_positions - 1):
            if total == NEG_INF:
                return NEG_INF
            total += float(steps[p][x[p] - 1, x[p + 1] - 1])
        return total

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
    """Exact log Z, marginals and step conditionals for a chain graph."""
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

    beta = np.zeros((n, k))
    for p in range(n - 2, -1, -1):
        beta[p] = logsumexp_rows(pair[p] + unary[p + 1][None, :] + beta[p + 1][None, :])
    alpha = np.zeros((n, k))
    alpha[0] = unary[0]
    for p in range(n - 1):
        alpha[p + 1] = unary[p + 1] + logsumexp_rows(
            (alpha[p][:, None] + pair[p]).T
        )
    log_z = float(logsumexp(alpha[n - 1]))
    return ChainSolution(
        log_z=log_z, unary=unary, pair=pair, alpha=alpha, beta=beta, ordering=graph.ordering
    )


# ---------------------------------------------------------------------------
# KL divergence against an oracle.
# ---------------------------------------------------------------------------


def exact_kl(approx, oracle, num_samples: int = 10_000, seed: int = 0) -> float:
    """D_KL[P_X || P*] against an exact oracle.

    Atom approximations are summed exactly; sampler approximations (objects
    with sample(rng) and log_density(x)) are estimated by Monte Carlo. A
    configuration with positive approx mass but zero target mass yields +inf.
    """
    atoms = getattr(approx, "atoms", None)
    if atoms is not None:
        total = 0.0
        for x, w in zip(atoms, approx.weights):
            target = oracle.log_joint(x)
            if target == NEG_INF:
                return math.inf
            total += w * (math.log(w) - target)
        return total
    rng = np.random.default_rng(seed)
    terms = np.empty(num_samples)
    for i in range(num_samples):
        x = approx.sample(rng)
        target = oracle.log_joint(x)
        if target == NEG_INF:
            return math.inf
        terms[i] = approx.log_density(x) - target
    return float(np.mean(terms))


def kl_by_enumeration(log_density_fn, oracle, graph: FactorGraph, cap: int = 10**6) -> float:
    """Exact D_KL[P_X || P*] by summing over the whole domain (small graphs)."""
    n, k = graph.num_variables, graph.num_states
    if k**n > cap:
        raise StateSpaceCapError(f"enumeration over {k}^{n} exceeds cap {cap}")
    total = 0.0
    for rank in range(k**n):
        x = _rank_to_prefix(rank, n, k)
        lp = log_density_fn(x)
        if lp == NEG_INF:
            continue
        target = oracle.log_joint(x)
        if target == NEG_INF:
            return math.inf
        total += math.exp(lp) * (lp - target)
    return total


def _rank_to_prefix(rank: int, n: int, k: int) -> Prefix:
    digits = []
    for _ in range(n):
        digits.append(rank % k + 1)
        rank //= k
    return tuple(reversed(digits))
