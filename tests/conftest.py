"""Shared helpers: small random graphs and brute-force reference quantities."""

from __future__ import annotations

import itertools
import math

import numpy as np

from treesample.exact import StateSpaceCapError
from treesample.logmath import NEG_INF
from treesample.model import Factor, FactorGraph, Prefix


def make_random_graph(
    rng: np.random.Generator,
    n: int,
    k: int,
    num_extra_factors: int = 3,
    max_scope: int = 3,
    shuffle_ordering: bool = False,
    neg_inf_frac: float = 0.0,
) -> FactorGraph:
    """Random dense-table graph with every variable covered by a unary factor."""
    factors = []
    for v in range(1, n + 1):
        factors.append(Factor(id=len(factors), scope=(v,), table=rng.normal(size=k)))
    for _ in range(num_extra_factors):
        size = int(rng.integers(2, min(max_scope, n) + 1))
        scope = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist()))
        table = rng.normal(size=k ** len(scope))
        if neg_inf_frac > 0:
            mask = rng.random(table.shape) < neg_inf_frac
            table[mask] = -np.inf
        factors.append(Factor(id=len(factors), scope=scope, table=table))
    ordering = np.arange(1, n + 1)
    if shuffle_ordering:
        rng.shuffle(ordering)
    return FactorGraph(
        num_variables=n, num_states=k, factors=tuple(factors), ordering=tuple(ordering.tolist())
    )


class ExactConditionalPrior:
    """Proposal equal to the target conditionals (zero-variance importance)."""

    def __init__(self, solution):
        self.solution = solution

    def evaluate(self, graph, prefix):
        return self.solution.q_values(prefix)

    def evaluate_batch(self, graph, prefixes):
        return np.stack([self.evaluate(graph, p) for p in prefixes])


def variable_marginals(solution, graph: FactorGraph) -> np.ndarray:
    """(N, K) marginal table of an ExactSolution, indexed by variable (row v-1)."""
    k, n = solution.num_states, solution.num_variables
    probs = np.exp(solution.enumerate_log_joint()).reshape((k,) * n)
    out = np.zeros((n, k))
    for depth in range(1, n + 1):
        axes = tuple(d for d in range(n) if d != depth - 1)
        out[graph.ordering[depth - 1] - 1] = probs.sum(axis=axes)
    return out


def all_configs(n: int, k: int):
    """All K^N complete prefixes in rank (row-major) order."""
    return itertools.product(range(1, k + 1), repeat=n)


def brute_force_log_z(graph: FactorGraph) -> float:
    """Direct enumeration of log sum exp of the unnormalized log-density."""
    vals = [
        graph.log_unnormalized_density(x)
        for x in all_configs(graph.num_variables, graph.num_states)
    ]
    vals = np.array(vals)
    m = vals.max()
    if m == -np.inf:
        return float("-inf")
    return float(m + np.log(np.sum(np.exp(vals - m))))


def exact_kl(approx, oracle, num_samples: int = 10_000, seed: int = 0) -> float:
    """D_KL[P_X || P*] against an exact oracle, through oracle.log_joint.

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
