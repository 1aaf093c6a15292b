"""Budget-accounted baseline samplers: sequential importance sampling, SMC
with ESS-triggered resampling, Gibbs sweeps, and loopy-BP-guided sampling.

Every method returns a WeightedAtoms particle approximation and spends at
most the given budget under the same cost accounting as the tree search.

Each sampler is an array program over all of its particles or messages:
- SMC keeps the particles as one (I, N) array and scores a depth for all of
  them with one FactorGraph.reward_batch call. Its proposal rows come from
  one prior.evaluate_batch call per depth; HeuristicPrior's depend on the
  depth alone and come back as one broadcast row, which
  sample_softmax_rows reduces once for all particles.
- Gibbs runs all chains in lockstep on one (chains, N) state array. A site
  update scores the K completions of every chain through the site's factors
  at once: per factor, one (chains,) table index from the factor's other
  scope positions, plus stride * (0..K-1) for the site, gathers a
  (chains, K) block of table entries, and the blocks add up in site-factor
  order. Each chain's value is drawn with draw_softmax_rows, which computes
  no log probability. Each site update reads exactly one uniform per chain:
  chain by chain, the stream holds the chain's initial state and then one
  uniform per site update, so the draws equal a chain-at-a-time loop that
  draws each site from its own softmax. A zero-mass conditional takes the
  uniform value min(int(u * K), K - 1) + 1 from that same uniform u.
- Loopy BP stores the messages as (edges, K) arrays, one edge per (factor,
  scope position), and a round reduces every factor->variable message of one
  arity in one pass. The sums and normalizers keep the order and arithmetic
  of the per-message logsumexp_rows/logsumexp calls, so the messages and
  the draws are bit-identical to a message-at-a-time implementation. A
  round is a function of the variable->factor messages and the clamps
  alone, so once a round returns those messages with the same bit patterns
  (an exact fixed point), the variable's remaining rounds are skipped. A
  skipped round is still charged num_factors units, so wall-clock work
  does not change what a budget buys. The samples share their prefixes'
  rounds: bp_sample walks the trie of sampled assignment prefixes depth
  first, runs each node's rounds once, and charges the node what its
  member samples would pay one by one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .logmath import (NEG_INF, ZeroMassError, draw_softmax_rows, log_each, logsumexp,
                      logsumexp_rows, sample_softmax_rows, shifted_exp_sums)
from .model import REWARD_EVAL, BudgetLedger, FactorGraph, Prefix


class BudgetTooSmallError(ValueError):
    """The budget cannot pay for even one unit of work."""


def _must_charge(ledger: "BudgetLedger", amount: int) -> None:
    if not ledger.charge(amount):
        raise RuntimeError("internal accounting error: planned charge exceeds budget")


class DegenerateSampleError(ValueError):
    """Every particle ended with zero weight."""


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

    def to_json_lines(self) -> str:
        return "".join(
            json.dumps({"x": list(x), "weight": w}) + "\n"
            for x, w in zip(self.atoms, self.weights)
        )


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
    for row, wi in zip(particles.tolist(), w.tolist()):
        if wi <= 0.0:
            continue
        x = tuple(row)
        merged[x] = merged.get(x, 0.0) + wi
    atoms = list(merged.keys())
    weights = np.array([merged[x] for x in atoms])
    weights /= weights.sum()
    return atoms, weights.tolist()


def smc(
    graph: FactorGraph,
    prior,
    budget: int,
    resample_threshold: float = 0.5,
    seed: int = 0,
    cost_mode: str = REWARD_EVAL,
) -> WeightedAtoms:
    """Ancestral particles from the prior softmax with importance reweighting;
    multinomial resampling whenever the effective sample size drops below
    threshold * I. A threshold of 0 never resamples and reproduces SIS.
    A particle costs reward_cost summed over depths 1..N. Raises
    DegenerateSampleError when every particle ends with zero weight."""
    if not 0.0 <= resample_threshold <= 1.0:
        raise ValueError("resample_threshold must lie in [0, 1]")
    n = graph.num_variables
    per_particle = sum(graph.reward_cost(d, cost_mode) for d in range(1, n + 1))
    num = budget // per_particle
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
        qs = np.asarray(prior.evaluate_batch(graph, particles[:, : depth - 1]), dtype=np.float64)
        actions, logq = sample_softmax_rows(qs, rng.random(num))
        particles[:, depth - 1] = actions + 1
        _must_charge(ledger, num * graph.reward_cost(depth, cost_mode))
        lw += graph.reward_batch(particles[:, :depth]) - logq
        if depth < n and resample_threshold > 0.0 and np.max(lw) > NEG_INF:
            # ESS on max-shifted weights: exact (no division) for uniform weights
            shifted = np.exp(lw - np.max(lw))
            if effective_sample_size(shifted) < resample_threshold * num:
                log_z += logsumexp(lw) - math.log(num)
                counts = rng.multinomial(num, shifted / shifted.sum())
                particles = particles[np.repeat(np.arange(num), counts)]
                lw[:] = 0.0
    log_z += logsumexp(lw) - math.log(num)
    atoms, weights = merge_particles(particles, lw)
    if not atoms:
        raise DegenerateSampleError("all particles have zero weight")
    return WeightedAtoms(
        atoms=atoms,
        weights=weights,
        num_particles=num,
        log_z_estimate=log_z,
        budget_spent=ledger.spent,
    )


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
    variables in raw index order, emit the final state; as many chains as the
    budget can pay for, run in lockstep.

    One full-conditional update charges K reward-equivalents (it probes the K
    completions of the site's factors); under factor-level accounting it
    charges K times the number of factors touching the site. Raises
    ValueError when num_sweeps is below 1.
    """
    if num_sweeps < 1:
        raise ValueError("num_sweeps must be at least 1")
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
    num = budget // per_sample
    if num < 1:
        raise BudgetTooSmallError(
            f"budget {budget} cannot pay for one sample (cost {per_sample})"
        )
    ledger = BudgetLedger(budget=budget, cost_mode=cost_mode)
    rng = np.random.default_rng(seed)
    # chain by chain: the initial state, then one uniform per site update
    states = np.empty((num, n), dtype=np.int64)
    uniforms = np.empty((num, num_sweeps * n))
    for i in range(num):
        states[i] = rng.integers(1, k + 1, size=n)
        uniforms[i] = rng.random(num_sweeps * n)
    x = states - 1  # 0-based values, the digits of a table index
    # per site factor: its table, the (column, stride) of its other scope
    # positions, and the index offsets stride * (0..K-1) of the site's values
    site_terms = {v: [] for v in site_factors}
    for v, factors in site_factors.items():
        depth = graph.depth_of(v)
        for cf in factors:
            terms = list(zip(cf.positions.tolist(), cf.strides.tolist()))
            others = [(pos - 1, stride) for pos, stride in terms if pos != depth]
            offsets = np.arange(k) * dict(terms)[depth]
            site_terms[v].append((cf.table, others, offsets))
    zero_conditionals = 0
    for t, v in enumerate(list(range(1, n + 1)) * num_sweeps):
        col = graph.depth_of(v) - 1
        _must_charge(ledger, num * site_cost[v])
        # scores[c, j]: the site's factors at chain c with the site set to j + 1
        scores = np.zeros((num, k))
        for table, others, offsets in site_terms[v]:
            base = np.zeros(num, dtype=np.int64)
            for c, stride in others:
                base += x[:, c] * stride
            scores += table[base[:, None] + offsets]
        u = uniforms[:, t]
        zero = scores.max(axis=1) == NEG_INF
        if zero.any():
            # zero-mass conditional: a uniform value read off the same uniform
            zero_conditionals += int(zero.sum())
            x[zero, col] = np.minimum((u[zero] * k).astype(np.int64), k - 1)
            live = ~zero
            if live.any():
                x[live, col] = draw_softmax_rows(scores[live], u[live])[0]
        else:
            x[:, col] = draw_softmax_rows(scores, u)[0]
    states = x + 1
    atoms, weights = merge_particles(states, np.zeros(num))
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


def _normalize_rows(vecs: np.ndarray) -> np.ndarray:
    """Subtract each row's logsumexp, in logsumexp's arithmetic (math.log);
    rows of all -inf stay as they are. The sums are shifted_exp_sums',
    column by column below PAIRWISE_SUM_MIN columns."""
    m, shift, total = shifted_exp_sums(vecs)
    if shift is not m:
        total[total == 0.0] = 1.0  # an all -inf row: shift 0, log 1
    return vecs - (shift + log_each(total))[:, None]


class _LoopyBP:
    """Log-domain sum-product messages on the bipartite factor graph.

    Edge e is one (factor, scope position) pair, numbered factor by factor;
    msg_vf[e] and msg_fv[e] are its (K,) messages. A factor->variable message
    is a logsumexp over rows of the factor's table plus the other positions'
    incoming messages. Those rows are laid out once, for every edge of every
    factor, in one flat array grouped by arity: a round gathers the incoming
    messages into it with one fancy index per scope position, then reduces
    one (rows, K^(arity-1)) block per arity.
    """

    def __init__(self, graph: FactorGraph):
        k = self.k = graph.num_states
        scopes = [f.scope for f in graph.factors]
        first = np.cumsum([0] + [len(s) for s in scopes])
        self.num_edges = num_edges = int(first[-1])
        self.var_edges: dict[int, list[int]] = {v: [] for v in range(1, graph.num_variables + 1)}
        for fi, scope in enumerate(scopes):
            for axis, v in enumerate(scope):
                self.var_edges[v].append(int(first[fi]) + axis)
        pad = num_edges * k  # index of an appended -0.0, which adds exactly nothing
        max_arity = max(len(s) for s in scopes)
        base, steps, edge_order, self.blocks = [], [[] for _ in range(max_arity - 1)], [], []
        offset = 0
        for arity in sorted({len(s) for s in scopes}):
            fis = [fi for fi, s in enumerate(scopes) if len(s) == arity]
            tables = np.stack([graph.factors[fi].table for fi in fis])  # (F, K^arity)
            edges = first[fis][:, None] + np.arange(arity)  # (F, arity)
            grid = np.arange(k**arity).reshape((k,) * arity)
            for axis in range(arity):
                # entry (j, l): the table index with this position at value j + 1
                # and the other positions enumerating l in row-major order
                others = [a for a in range(arity) if a != axis]
                cells = grid.transpose([axis] + others).reshape(k, -1)
                base.append(tables[:, cells].ravel())
                for step in range(max_arity - 1):
                    if step < len(others):
                        ax2 = others[step]
                        digit = cells // k ** (arity - 1 - ax2) % k
                        steps[step].append((edges[:, ax2, None, None] * k + digit).ravel())
                    else:
                        steps[step].append(np.full(len(fis) * cells.size, pad))
                edge_order.append(edges[:, axis])
            size = arity * len(fis) * k**arity
            self.blocks.append((offset, offset + size, k ** (arity - 1)))
            offset += size
        self.base = np.concatenate(base)
        self.steps = [np.concatenate(idx) for idx in steps]
        self.edge_order = np.concatenate(edge_order)
        # incoming[e]: the edges of the other factors at e's variable, in factor
        # order, padded with the index of an all -0.0 row
        incoming = [[] for _ in range(num_edges)]
        for edges in self.var_edges.values():
            for e in edges:
                incoming[e] = [g for g in edges if g != e]
        width = max(len(row) for row in incoming)
        self.incoming = np.array(
            [row + [num_edges] * (width - len(row)) for row in incoming], dtype=np.int64
        ).reshape(num_edges, width)
        self.reset()

    def reset(self):
        self.msg_vf = np.full((self.num_edges, self.k), -math.log(self.k))
        self.msg_fv = self.msg_vf.copy()
        self.clamped = np.zeros(self.num_edges, dtype=bool)

    def clamp(self, v: int, value: int):
        atom = np.full(self.k, NEG_INF)
        atom[value - 1] = 0.0
        self.msg_vf[self.var_edges[v]] = atom
        self.clamped[self.var_edges[v]] = True

    def round(self) -> bool:
        """One synchronous round: all factor->variable, then variable->factor.
        Returns whether it was an exact fixed point: every variable->factor
        message came out with the bit pattern it went in with.

        Each message adds the other incoming messages one at a time in scope
        or factor order (never subtracting: -inf - -inf is undefined), with
        the arithmetic of one logsumexp_rows and one logsumexp call per
        message, so every message equals the per-message computation bit
        for bit.
        """
        k = self.k
        vf = np.append(self.msg_vf.ravel(), -0.0)
        rows = self.base
        for idx in self.steps:
            rows = rows + vf[idx]
        fv = np.empty((self.num_edges + 1, k))
        fv[self.edge_order] = np.concatenate(
            [logsumexp_rows(rows[lo:hi].reshape(-1, width)) for lo, hi, width in self.blocks]
        ).reshape(-1, k)
        fv[:-1] = _normalize_rows(fv[:-1])
        fv[-1] = -0.0
        self.msg_fv = fv[:-1]
        total = np.zeros((self.num_edges, k))
        for j in range(self.incoming.shape[1]):
            total = total + fv[self.incoming[:, j]]
        msg_vf = np.where(self.clamped[:, None], self.msg_vf, _normalize_rows(total))
        # compared as int64, so that -0.0 and 0.0 differ
        fixed = np.array_equal(msg_vf.view(np.int64), self.msg_vf.view(np.int64))
        self.msg_vf = msg_vf
        return fixed

    def log_marginal(self, v: int) -> np.ndarray:
        total = np.zeros(self.k)
        for e in self.var_edges[v]:
            total = total + self.msg_fv[e]
        return _normalize_rows(total[None, :])[0]


def bp_sample(
    graph: FactorGraph,
    num_message_rounds: int,
    budget: int,
    seed: int = 0,
) -> WeightedAtoms:
    """Per sample: run message rounds, draw the next unsampled variable from
    its loopy-BP marginal, clamp it, and repeat through all variables in raw
    index order. Raises ValueError when num_message_rounds is below 1.

    A round charges num_factors units, one per factor it updates, which
    both cost modes count alike; so bp_sample takes no cost mode. A round
    is a function of the variable->factor messages and the clamps alone,
    so after an exact fixed point the variable's remaining rounds would
    repeat it: they are skipped, and still charged.

    The messages before a variable's rounds are a function of the values
    clamped before it, so the samples are walked as a trie of assignment
    prefixes, depth first: each node runs its variable's rounds once and
    draws every member sample's value from the one marginal, at that
    sample's own uniform; the members then split by value, in ascending
    order, and each branch starts from a copy of the node's messages. A
    node charges members * num_message_rounds * num_factors units, what
    its members would pay one by one. The uniforms are drawn up front as
    one (samples, N) block, the stream of one draw per sample and variable
    in that order, so the atoms, the charge and any ZeroMassError equal a
    sample-at-a-time loop's.
    """
    if num_message_rounds < 1:
        raise ValueError("num_message_rounds must be at least 1")
    n = graph.num_variables
    round_cost = graph.num_factors
    per_sample = n * num_message_rounds * round_cost
    num = budget // per_sample
    if num < 1:
        raise BudgetTooSmallError(
            f"budget {budget} cannot pay for one sample (cost {per_sample})"
        )
    ledger = BudgetLedger(budget=budget)
    uniforms = np.random.default_rng(seed).random((num, n))
    values = np.empty((num, n), dtype=np.int64)  # column v - 1: variable v
    state = _LoopyBP(graph)
    # a trie node: its variable v, its member samples, and the value of
    # v - 1 to clamp on entry (0 at the root) after restoring the parent's
    # saved (msg_vf, clamped), or None when the state is still the parent's
    stack = [(1, np.arange(num), 0, None)]
    while stack:
        v, members, value, saved = stack.pop()
        if saved is not None:
            state.msg_vf, state.clamped = saved[0].copy(), saved[1].copy()
        if value:
            state.clamp(v - 1, value)
        _must_charge(ledger, len(members) * num_message_rounds * round_cost)
        for _ in range(num_message_rounds):
            if state.round():
                break
        marg = state.log_marginal(v)
        if np.max(marg) == NEG_INF:
            raise ZeroMassError(f"BP marginal of variable {v} has zero mass")
        drawn = draw_softmax_rows(marg[None, :], uniforms[members, v - 1])[0] + 1
        values[members, v - 1] = drawn
        if v == n:
            continue
        branches = np.flatnonzero(np.bincount(drawn)).tolist()
        # the later branches restore msg_vf and clamped; msg_fv is not
        # saved, since a child's first round recomputes it
        saved = (state.msg_vf.copy(), state.clamped.copy()) if len(branches) > 1 else None
        for x in reversed(branches):  # pushed last, the lowest value runs first
            stack.append((v + 1, members[drawn == x], x, None if x == branches[0] else saved))
    particles = np.array([graph.assignment_to_prefix(row) for row in values.tolist()])
    atoms, weights = merge_particles(particles, np.zeros(num))
    return WeightedAtoms(
        atoms=atoms, weights=weights, num_particles=num, budget_spent=ledger.spent
    )
