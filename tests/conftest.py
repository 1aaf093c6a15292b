"""Shared helpers: small random graphs and brute-force reference quantities."""

from __future__ import annotations

import itertools
import math

import numpy as np

from treesample.baselines import WeightedAtoms, _LoopyBP, merge_particles
from treesample.exact import ChainSolution, StateSpaceCapError
from treesample.logmath import (NEG_INF, ZeroMassError, draw_softmax_rows, logsumexp,
                                logsumexp_rows)
from treesample.model import BudgetLedger, Factor, FactorGraph, Prefix


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
        factors.append(Factor(scope=(v,), table=rng.normal(size=k)))
    for _ in range(num_extra_factors):
        size = int(rng.integers(2, min(max_scope, n) + 1))
        scope = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist()))
        table = rng.normal(size=k ** len(scope))
        if neg_inf_frac > 0:
            mask = rng.random(table.shape) < neg_inf_frac
            table[mask] = -np.inf
        factors.append(Factor(scope=scope, table=table))
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
        return q_values(self.solution, prefix).tolist()

    def evaluate_batch(self, graph, prefixes):
        return np.stack([self.evaluate(graph, p) for p in prefixes])


def _prefix_rank(solution, prefix) -> int:
    """Base-K rank of a prefix: its row in an ExactSolution's q level."""
    k = solution.q_levels[0].shape[1]
    r = 0
    for v in prefix:
        r = r * k + (v - 1)
    return r


def q_values(solution, prefix) -> np.ndarray:
    """K-vector of an ExactSolution's optimal values for the actions below a prefix."""
    if len(prefix) >= len(solution.q_levels):
        raise ValueError("no actions below a complete configuration")
    return solution.q_levels[len(prefix)][_prefix_rank(solution, prefix)]


def log_step_conditionals(chain: ChainSolution) -> tuple[np.ndarray, np.ndarray]:
    """(first, steps): log P*(x_1) of shape (K,) and log P*(x_{p+1}|x_p)
    of shape (N-1, K, K); rows for zero-mass predecessors stay -inf."""
    first = chain.unary[0] + chain.beta[0] - chain.log_z
    scores = chain.pair + chain.unary[1:, None, :] + chain.beta[1:, None, :]
    norms = logsumexp_rows(scores)[..., None]
    steps = np.subtract(scores, norms, out=np.full_like(scores, NEG_INF),
                        where=norms > NEG_INF)
    return first, steps


def log_joint(solution, x) -> float:
    """Normalized log-probability of a complete configuration (depth order)
    under an ExactSolution or a ChainSolution."""
    if isinstance(solution, ChainSolution):
        first, steps = log_step_conditionals(solution)
        total = float(first[x[0] - 1])
        for p in range(len(steps)):
            if total == NEG_INF:
                return NEG_INF
            total += float(steps[p][x[p] - 1, x[p + 1] - 1])
        return total
    if len(x) != len(solution.q_levels):
        raise ValueError("configuration must be complete")
    total = 0.0
    for n in range(len(x)):
        q = solution.q_levels[n][_prefix_rank(solution, x[:n])]
        v = logsumexp(q)
        if q[x[n] - 1] == NEG_INF:
            return NEG_INF
        total += float(q[x[n] - 1]) - float(v)
    return total


def variable_marginals(solution, graph: FactorGraph) -> np.ndarray:
    """(N, K) marginal table of an ExactSolution, indexed by variable (row v-1)."""
    k, n = graph.num_states, graph.num_variables
    probs = np.exp(solution.enumerate_log_joint()).reshape((k,) * n)
    out = np.zeros((n, k))
    for depth in range(1, n + 1):
        axes = tuple(d for d in range(n) if d != depth - 1)
        out[graph.ordering[depth - 1] - 1] = probs.sum(axis=axes)
    return out


def reference_sample_softmax_rows(q: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row-reduction form of logmath.sample_softmax_rows, which the
    column-by-column path must equal bit for bit: numpy's axis-1 max, sum
    and cumsum, and one math.log per row sum."""
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


def reference_bp_sample(graph: FactorGraph, num_message_rounds: int, budget: int,
                        seed: int = 0) -> WeightedAtoms:
    """baselines.bp_sample as a sample-at-a-time loop, which its trie walk
    must equal: per sample, reset the messages; per variable, run rounds
    up to an exact fixed point (charging the skipped ones), draw from the
    marginal at the next rng.random(1) and clamp."""
    n = graph.num_variables
    round_cost = graph.num_factors
    num = budget // (n * num_message_rounds * round_cost)
    ledger = BudgetLedger(budget=budget)
    rng = np.random.default_rng(seed)
    state = _LoopyBP(graph)
    particles = np.zeros((num, n), dtype=np.int64)
    for i in range(num):
        state.reset()
        assignment = [0] * n
        for v in range(1, n + 1):
            for r in range(1, num_message_rounds + 1):
                assert ledger.charge(round_cost)
                if state.round():
                    assert ledger.charge((num_message_rounds - r) * round_cost)
                    break
            marg = state.log_marginal(v)
            if np.max(marg) == NEG_INF:
                raise ZeroMassError(f"BP marginal of variable {v} has zero mass")
            value = int(draw_softmax_rows(marg[None, :], rng.random(1))[0][0]) + 1
            assignment[v - 1] = value
            state.clamp(v, value)
        particles[i] = graph.assignment_to_prefix(assignment)
    atoms, weights = merge_particles(particles, np.zeros(num))
    return WeightedAtoms(atoms=atoms, weights=weights, num_particles=num,
                         budget_spent=ledger.spent)


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
    """D_KL[P_X || P*] against an exact oracle, through log_joint.

    Atom approximations are summed exactly; sampler approximations (objects
    with sample(rng) and log_density(x)) are estimated by Monte Carlo. A
    configuration with positive approx mass but zero target mass yields +inf.
    """
    atoms = getattr(approx, "atoms", None)
    if atoms is not None:
        total = 0.0
        for x, w in zip(atoms, approx.weights):
            target = log_joint(oracle, x)
            if target == NEG_INF:
                return math.inf
            total += w * (math.log(w) - target)
        return total
    rng = np.random.default_rng(seed)
    terms = np.empty(num_samples)
    for i in range(num_samples):
        x = approx.sample(rng)
        target = log_joint(oracle, x)
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
        target = log_joint(oracle, x)
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
