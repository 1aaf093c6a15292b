"""Budget-accounted baseline samplers: sequential importance sampling, SMC
with ESS-triggered resampling, Gibbs sweeps, and loopy-BP-guided sampling.

Every method returns a WeightedAtoms particle approximation and spends at
most the given budget under the same cost accounting as the tree search.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .logmath import (
    NEG_INF,
    ZeroMassError,
    logsumexp,
    logsumexp_rows,
    sample_softmax,
    sample_softmax_rows,
)
from .model import REWARD_EVAL, BudgetLedger, FactorGraph, Prefix


class BudgetTooSmallError(ValueError):
    """The budget cannot pay for even one unit of work."""


def _must_charge(ledger: "BudgetLedger", amount: int) -> None:
    if not ledger.charge(amount):
        raise RuntimeError("internal accounting error: planned charge exceeds budget")


class DegenerateSampleError(RuntimeError):
    """Every particle ended with zero weight; carries the empty result."""

    def __init__(self, message: str, result: "WeightedAtoms"):
        super().__init__(message)
        self.result = result


@dataclass
class WeightedAtoms:
    """Distinct complete configurations with normalized weights.

    num_particles, log_z_estimate, budget_spent and zero_conditional_count
    are run metadata, not part of the distribution itself.
    """

    atoms: list[Prefix]
    weights: list[float]
    num_particles: int | None = None
    log_z_estimate: float | None = None
    budget_spent: int | None = None
    zero_conditional_count: int = 0

    def __post_init__(self):
        if len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights must be parallel lists")
        if self.atoms:
            total = float(sum(self.weights))
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"weights sum to {total}, not 1")
            if len(set(self.atoms)) != len(self.atoms):
                raise ValueError("atoms must be pairwise distinct")
            if any(w <= 0 for w in self.weights):
                raise ValueError("weights must be positive after merging")

    def sample(self, rng) -> Prefix:
        i = int(np.searchsorted(np.cumsum(self.weights), rng.random(), side="right"))
        return self.atoms[min(i, len(self.atoms) - 1)]

    def to_json_lines(self) -> str:
        return "".join(
            json.dumps({"x": list(x), "weight": w}) + "\n"
            for x, w in zip(self.atoms, self.weights)
        )

    @staticmethod
    def from_json_lines(text: str) -> "WeightedAtoms":
        atoms, weights = [], []
        for line in text.splitlines():
            if not line.strip():
                continue
            d = json.loads(line)
            atoms.append(tuple(d["x"]))
            weights.append(float(d["weight"]))
        return WeightedAtoms(atoms=atoms, weights=weights)


def effective_sample_size(weights) -> float:
    """(sum w)^2 / sum w^2; equals the particle count for uniform weights."""
    w = np.asarray(weights, dtype=np.float64)
    total_sq = float(w.sum()) ** 2
    if total_sq == 0.0:
        return 0.0
    return total_sq / float(np.sum(w * w))


def merge_particles(particles: np.ndarray, log_weights: np.ndarray) -> tuple[list, list]:
    """Normalize, merge duplicate configurations, drop zero-mass particles."""
    m = float(np.max(log_weights))
    if m == NEG_INF:
        return [], []
    w = np.exp(log_weights - m)
    w /= w.sum()
    merged: dict[Prefix, float] = {}
    for row, wi in zip(particles, w):
        if wi <= 0.0:
            continue
        x = tuple(int(v) for v in row)
        merged[x] = merged.get(x, 0.0) + float(wi)
    atoms = list(merged.keys())
    weights = np.array([merged[x] for x in atoms])
    weights /= weights.sum()
    return atoms, weights.tolist()


def _propose_step(graph, prior, particles, depth, rng):
    """Vectorized draw of column `depth` from the prior softmax; returns the
    chosen 0-based actions and their log proposal probabilities."""
    qs = np.asarray(prior.evaluate_batch(graph, particles[:, : depth - 1]), dtype=np.float64)
    return sample_softmax_rows(qs, rng.random(len(particles)))


def smc(
    graph: FactorGraph,
    prior,
    budget: int,
    resample_threshold: float = 0.5,
    seed: int = 0,
    cost_mode: str = REWARD_EVAL,
    resampling: str = "multinomial",
) -> WeightedAtoms:
    """Ancestral particles from the prior softmax with importance reweighting;
    multinomial resampling whenever the effective sample size drops below
    threshold * I. A threshold of 0 never resamples and reproduces SIS."""
    if not 0.0 <= resample_threshold <= 1.0:
        raise ValueError("resample_threshold must lie in [0, 1]")
    n = graph.num_variables
    per_particle = graph.full_traversal_cost(cost_mode)
    num = budget // per_particle if per_particle > 0 else budget
    if num < 1:
        raise BudgetTooSmallError(
            f"budget {budget} cannot pay for one rollout (cost {per_particle})"
        )
    ledger = BudgetLedger(budget=budget, cost_mode=cost_mode)
    rng = np.random.default_rng(seed)
    particles = np.zeros((num, n), dtype=np.int64)
    lw = np.zeros(num)
    log_z = 0.0
    for depth in range(1, n + 1):
        actions, logq = _propose_step(graph, prior, particles, depth, rng)
        particles[:, depth - 1] = actions + 1
        _must_charge(ledger, num * graph.reward_cost(depth, cost_mode))
        rewards = np.fromiter(
            (graph.reward(tuple(int(v) for v in row[:depth])) for row in particles),
            dtype=np.float64,
            count=num,
        )
        lw += rewards - logq
        if depth < n and resample_threshold > 0.0 and np.max(lw) > NEG_INF:
            # ESS on max-shifted weights: exact (no division) for uniform weights
            shifted = np.exp(lw - np.max(lw))
            if effective_sample_size(shifted) < resample_threshold * num:
                wn = shifted / shifted.sum()
                log_z += logsumexp(lw) - math.log(num)
                if resampling == "systematic":
                    positions = (np.arange(num) + rng.random()) / num
                    idx = np.searchsorted(np.cumsum(wn), positions, side="right")
                    idx = np.minimum(idx, num - 1)
                else:
                    counts = rng.multinomial(num, wn)
                    idx = np.repeat(np.arange(num), counts)
                particles = particles[idx]
                lw[:] = 0.0
    log_z += logsumexp(lw) - math.log(num)
    atoms, weights = merge_particles(particles, lw)
    result = WeightedAtoms(
        atoms=atoms,
        weights=weights,
        num_particles=num,
        log_z_estimate=log_z,
        budget_spent=ledger.spent,
    )
    if not atoms:
        raise DegenerateSampleError("all particles have zero weight", result)
    return result


def sis(
    graph: FactorGraph,
    prior,
    budget: int,
    seed: int = 0,
    cost_mode: str = REWARD_EVAL,
) -> WeightedAtoms:
    """Sequential importance sampling: SMC with the resampling turned off."""
    return smc(graph, prior, budget, resample_threshold=0.0, seed=seed, cost_mode=cost_mode)


# ---------------------------------------------------------------------------
# Gibbs
# ---------------------------------------------------------------------------


def gibbs(
    graph: FactorGraph,
    num_sweeps: int,
    budget: int,
    seed: int = 0,
    cost_mode: str = REWARD_EVAL,
) -> WeightedAtoms:
    """Restarted Gibbs chains: uniform init, num_sweeps full sweeps over the
    variables in raw index order, emit the final state, repeat until the
    budget cannot pay another sample.

    One full-conditional update charges K reward-equivalents (it probes the K
    completions of the site's factors); under factor-level accounting it
    charges K times the number of factors touching the site.
    """
    n, k = graph.num_variables, graph.num_states
    site_factors = {v: [] for v in range(1, n + 1)}
    for depth_factors in (graph.factors_at_depth(d) for d in range(1, n + 1)):
        for cf in depth_factors:
            for v in cf.factor.scope:
                site_factors[v].append(cf)
    if cost_mode == REWARD_EVAL:
        site_cost = {v: k for v in site_factors}
    else:
        site_cost = {v: k * len(fs) for v, fs in site_factors.items()}
    per_sample = num_sweeps * sum(site_cost.values())
    num = budget // per_sample if per_sample > 0 else budget
    if num < 1:
        raise BudgetTooSmallError(
            f"budget {budget} cannot pay for one sample (cost {per_sample})"
        )
    ledger = BudgetLedger(budget=budget, cost_mode=cost_mode)
    rng = np.random.default_rng(seed)
    zero_conditionals = 0
    particles = np.zeros((num, n), dtype=np.int64)
    scores = np.empty(k)
    for i in range(num):
        state = rng.integers(1, k + 1, size=n).tolist()
        for _ in range(num_sweeps):
            for v in range(1, n + 1):
                pos = graph.depth_of(v)
                _must_charge(ledger, site_cost[v])
                for val in range(1, k + 1):
                    state[pos - 1] = val
                    total = 0.0
                    for cf in site_factors[v]:
                        total += cf.value_at(state)
                    scores[val - 1] = total
                if np.max(scores) == NEG_INF:
                    zero_conditionals += 1
                    state[pos - 1] = int(rng.integers(1, k + 1))
                else:
                    state[pos - 1] = sample_softmax(scores, rng) + 1
        particles[i] = state
    atoms, weights = merge_particles(particles, np.zeros(num))
    return WeightedAtoms(
        atoms=atoms,
        weights=weights,
        num_particles=num,
        budget_spent=ledger.spent,
        zero_conditional_count=zero_conditionals,
    )


# ---------------------------------------------------------------------------
# Loopy belief propagation with sequential clamping
# ---------------------------------------------------------------------------


class _BPState:
    """Log-domain sum-product messages on the bipartite factor graph."""

    def __init__(self, graph: FactorGraph):
        self.graph = graph
        k = graph.num_states
        self.k = k
        self.scopes = [f.scope for f in graph.factors]
        self.tensors = [
            f.table.reshape((k,) * len(f.scope)) for f in graph.factors
        ]
        self.var_factors: dict[int, list[int]] = {v: [] for v in range(1, graph.num_variables + 1)}
        for fi, scope in enumerate(self.scopes):
            for v in scope:
                self.var_factors[v].append(fi)
        self.reset()

    def reset(self):
        uniform = np.full(self.k, -math.log(self.k))
        self.msg_vf = {
            (v, fi): uniform.copy()
            for fi, scope in enumerate(self.scopes)
            for v in scope
        }
        self.msg_fv = {
            (fi, v): uniform.copy()
            for fi, scope in enumerate(self.scopes)
            for v in scope
        }
        self.clamped: dict[int, int] = {}

    def clamp(self, v: int, value: int):
        self.clamped[v] = value
        atom = np.full(self.k, NEG_INF)
        atom[value - 1] = 0.0
        for fi in self.var_factors[v]:
            self.msg_vf[(v, fi)] = atom.copy()

    @staticmethod
    def _normalize(vec: np.ndarray) -> np.ndarray:
        lse = logsumexp(vec)
        return vec - lse if lse > NEG_INF else vec

    def round(self):
        """One synchronous round: all factor->variable, then variable->factor."""
        new_fv = {}
        for fi, scope in enumerate(self.scopes):
            for axis, v in enumerate(scope):
                # sum incoming messages from the other scope variables only;
                # never subtract (-inf - -inf is undefined)
                arr = self.tensors[fi]
                for ax2, u in enumerate(scope):
                    if u == v:
                        continue
                    shape = [1] * len(scope)
                    shape[ax2] = self.k
                    arr = arr + self.msg_vf[(u, fi)].reshape(shape)
                vec = logsumexp_rows(np.moveaxis(arr, axis, 0).reshape(self.k, -1))
                new_fv[(fi, v)] = self._normalize(vec)
        self.msg_fv = new_fv
        for (v, fi), old in self.msg_vf.items():
            if v in self.clamped:
                continue
            total = np.zeros(self.k)
            for gi in self.var_factors[v]:
                if gi != fi:
                    total = total + self.msg_fv[(gi, v)]
            self.msg_vf[(v, fi)] = self._normalize(total)

    def log_marginal(self, v: int) -> np.ndarray:
        total = np.zeros(self.k)
        for fi in self.var_factors[v]:
            total = total + self.msg_fv[(fi, v)]
        return self._normalize(total)


def bp_sample(
    graph: FactorGraph,
    num_message_rounds: int,
    budget: int,
    seed: int = 0,
    cost_mode: str = REWARD_EVAL,
) -> WeightedAtoms:
    """Per sample: run message rounds, draw the next unsampled variable from
    its loopy-BP marginal, clamp it, and repeat through all variables in raw
    index order. One round charges one reward-equivalent per factor."""
    n = graph.num_variables
    round_cost = graph.num_factors
    per_sample = n * num_message_rounds * round_cost
    num = budget // per_sample if per_sample > 0 else budget
    if num < 1:
        raise BudgetTooSmallError(
            f"budget {budget} cannot pay for one sample (cost {per_sample})"
        )
    ledger = BudgetLedger(budget=budget, cost_mode=cost_mode)
    rng = np.random.default_rng(seed)
    state = _BPState(graph)
    particles = np.zeros((num, n), dtype=np.int64)
    for i in range(num):
        state.reset()
        assignment = [0] * n
        for v in range(1, n + 1):
            for _ in range(num_message_rounds):
                _must_charge(ledger, round_cost)
                state.round()
            marg = state.log_marginal(v)
            if np.max(marg) == NEG_INF:
                raise ZeroMassError(f"BP marginal of variable {v} has zero mass")
            value = sample_softmax(marg, rng) + 1
            assignment[v - 1] = value
            state.clamp(v, value)
        particles[i] = graph.assignment_to_prefix(assignment)
    atoms, weights = merge_particles(particles, np.zeros(num))
    return WeightedAtoms(
        atoms=atoms, weights=weights, num_particles=num, budget_spent=ledger.spent
    )


def bp_step_conditionals(
    graph: FactorGraph, num_message_rounds: int, prefix_values: dict[int, int]
) -> np.ndarray:
    """Log-marginal of the lowest-index unclamped variable after clamping the
    given variable->value map and running the message rounds. Test hook for
    checking BP conditionals against exact oracles."""
    state = _BPState(graph)
    unsampled = [v for v in range(1, graph.num_variables + 1) if v not in prefix_values]
    target = unsampled[0]
    for v in sorted(prefix_values):
        for _ in range(num_message_rounds):
            state.round()
        state.clamp(v, prefix_values[v])
    for _ in range(num_message_rounds):
        state.round()
    return state.log_marginal(target)
