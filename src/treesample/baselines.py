"""Budget-accounted baseline samplers: sequential importance sampling, SMC
with ESS-triggered resampling, Gibbs sweeps, and loopy-BP-guided sampling.

Every method returns a WeightedAtoms particle approximation and spends at
most the given budget under the same cost accounting as the tree search.

Each sampler is an array program over all of its particles or messages:
- SMC keeps the particles as one (I, N) array and scores a depth for all of
  them with one FactorGraph.reward_batch call, which gathers the depth's
  factors in one take. Its proposal rows come from one
  prior.evaluate_batch call per depth; HeuristicPrior's depend on the
  depth alone and come back as one broadcast row, which
  sample_softmax_rows reduces once for all particles (logmath's
  shifted_exp_terms, as every draw); from 8 columns on it draws by binary
  search.
- Gibbs runs all chains in lockstep on one (N, chains) state array, row c
  holding every chain's value at column c, and runs each call's sweeps as
  dependency waves. A site update goes into the wave after the latest one
  so far that updated the site itself or a variable sharing a factor with
  it. The waves, run in order, then read every value the raw-index scan
  reads, and the updates of one wave share no factor, so they run
  together: per term (site factor), one table index per (site, chain)
  from the factor's other scope positions, plus stride * (0..K-1) for the
  site, and one gather from the graph's _FactorBlock tables, plus one
  appended 0.0 pad, gives the wave's (terms, sites, chains, K) block. The
  terms come from the block's (factor, scope slot) pairs with a few array
  calls. A site with fewer terms than the wave's widest reads the pad, and
  the terms add up into 0.0 in site-factor order, pads last, so each score
  is the scan's bit for bit. Each site update reads exactly one uniform per
  chain: chain by chain, the stream holds the chain's initial state and
  then one uniform per site update, so the draws equal a chain-at-a-time
  loop that draws each site from its own softmax. A wave charges what its
  site updates would, one by one.
- Loopy BP stores the messages as (edges, K) arrays, one edge per (factor,
  scope position), in buffers allocated once. A unary factor's message is
  its table, whatever the other messages, so it is written once and rounds
  leave it out. A round reduces every other factor->variable message in one
  pass over one width-major block (see _LoopyBP), and sums every
  variable->factor message with one gather and one axis-0 sum. A
  sum-product message's scale is arbitrary, so the factor->variable
  messages stay unnormalized and each variable->factor sum has its maximum
  subtracted: those messages are at most 0.0, which bounds overflow. Only
  the marginals, which the draws read, subtract their logsumexp. The
  messages are held to an accuracy bound against a message-at-a-time
  implementation, not to its bits; the atoms are pinned by golden digests.
  A round is a function of the variable->factor messages and the clamps
  alone, so once a round returns those messages with the same bit patterns
  (an exact fixed point), the variable's remaining rounds are skipped. A
  skipped round is still charged num_factors units, so wall-clock work
  does not change what a budget buys. The samples share their prefixes'
  rounds: bp_sample walks the trie of sampled assignment prefixes depth
  first, runs each node's rounds once, and charges the node what its
  member samples would pay one by one. Each draw is written at its
  variable's depth column, so the samples come out as prefixes.

Gibbs and BP share one zero-mass rule: a conditional or marginal of all -inf
draws min(int(u * K), K - 1) + 1 off its own uniform u, and is counted.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .logmath import (NEG_INF, ZeroMassError, _log_sums, _shift, draw_softmax_rows, logsumexp,
                      sample_softmax_rows)
from .model import REWARD_EVAL, BudgetLedger, FactorGraph


class DegenerateSampleError(ValueError):
    """Every particle ended with zero weight."""


class BudgetTooLargeError(ValueError):
    """The budget pays for more samples than memory can hold."""


@contextmanager
def _budget_sized(budget: int, num: int, what: str):
    """Turn a failure to allocate the arrays of the num samples a budget
    pays for into BudgetTooLargeError, which names the budget: numpy raises
    MemoryError for an array that does not fit and ValueError for one whose
    size overflows."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise BudgetTooLargeError(f"budget {budget} pays for {num} {what}, more than memory "
                                  f"holds: {exc}") from None


@dataclass
class WeightedAtoms:
    """Distinct complete configurations with normalized weights: atoms is an
    (M, N) int64 array, one configuration per row in depth order, and
    weights the (M,) float64 vector of their probabilities. M = 0 is an
    empty approximation.

    num_particles, log_z_estimate, budget_spent and zero_conditional_count
    are run metadata, not part of the distribution itself.
    zero_conditional_count counts the draws made at zero mass: a chain's
    Gibbs site update or a sample's BP draw; SMC and SIS leave it 0.
    """

    atoms: np.ndarray
    weights: np.ndarray
    num_particles: int | None = None
    log_z_estimate: float | None = None
    budget_spent: int | None = None
    zero_conditional_count: int = 0

    def __post_init__(self):
        if self.atoms.ndim != 2 or self.weights.shape != self.atoms.shape[:1]:
            raise ValueError("atoms must be an (M, N) array and weights a parallel (M,) vector")
        if len(self.atoms):
            total = float(self.weights.sum())
            if not abs(total - 1.0) <= 1e-12:  # NaN fails this too
                raise ValueError(f"weights sum to {total}, not 1")
            if not _row_groups(self.atoms)[1].all():
                raise ValueError("atoms must be pairwise distinct")
            if (self.weights <= 0).any():
                raise ValueError("weights must be positive after merging")

    def to_json_lines(self) -> str:
        return "".join(json.dumps({"x": x, "weight": w}) + "\n"
                       for x, w in zip(self.atoms.tolist(), self.weights.tolist()))


def effective_sample_size(weights) -> float:
    """(sum w)^2 / sum w^2; equals the particle count for uniform weights."""
    w = np.asarray(weights, dtype=np.float64)
    total_sq = float(w.sum()) ** 2
    if total_sq == 0.0:
        return 0.0
    return total_sq / float(np.sum(w * w))


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexicographic order of the rows of a nonempty (I, N)
    array, and for each row in that order whether it differs from the one
    before it. Equal rows form one run in the order, in row-index order."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    return order, np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))


def merge_particles(particles: np.ndarray,
                    log_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize, merge duplicate configurations, drop zero-mass particles.

    Returns the distinct rows of the (I, N) particles that carry mass, as an
    (M, N) array in order of first occurrence, and their (M,) weights; every
    log weight -inf gives M = 0. The rows are grouped by one stable lexsort
    (_row_groups). bincount adds each atom's normalized weights into 0.0 in
    particle order, and the sums are divided by their total, so the weights
    have the bits of a dict merge in particle order.
    """
    m = float(np.max(log_weights))
    if m == NEG_INF:
        return particles[:0], np.zeros(0)
    w = np.exp(log_weights - m)
    w /= w.sum()
    particles, w = particles[w > 0.0], w[w > 0.0]
    order, new = _row_groups(particles)
    first = order[new]  # each atom's first particle
    by_first = np.argsort(first)
    # sorted order keeps each atom's particles in particle order
    weights = np.bincount(np.cumsum(new) - 1, weights=w[order])[by_first]
    weights /= weights.sum()
    return particles[first[by_first]], weights


def check_resample_threshold(resample_threshold: float) -> None:
    """The rule smc, RunConfig and TrainConfig share: a threshold in [0, 1]."""
    if not 0.0 <= resample_threshold <= 1.0:  # NaN fails this too
        raise ValueError("resample_threshold must lie in [0, 1]")


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
    DegenerateSampleError when every particle ends with zero weight, and
    BudgetTooLargeError when the particles the budget pays for do not fit
    in memory."""
    check_resample_threshold(resample_threshold)
    n = graph.num_variables
    costs = [graph.reward_cost(d, cost_mode) for d in range(1, n + 1)]
    ledger = BudgetLedger(budget=budget, cost_mode=cost_mode)
    num = ledger.count(sum(costs), "one rollout")
    rng = np.random.default_rng(seed)
    with _budget_sized(budget, num, "rollouts"):
        particles = np.zeros((num, n), dtype=np.int64)
        lw = np.zeros(num)
    log_z = 0.0
    for depth in range(1, n + 1):
        qs = np.asarray(prior.evaluate_batch(graph, particles[:, : depth - 1]), dtype=np.float64)
        actions, logq = sample_softmax_rows(qs, rng.random(num))
        particles[:, depth - 1] = actions + 1
        ledger.charge(num * costs[depth - 1])
        lw += graph.reward_batch(particles[:, :depth]) - logq
        if depth < n and resample_threshold > 0.0 and (m := float(np.max(lw))) > NEG_INF:
            # ESS on max-shifted weights: exact (no division) for uniform
            # weights; m + log(total) is logsumexp(lw), in its arithmetic
            shifted = np.exp(lw - m)
            total = float(shifted.sum())
            if effective_sample_size(shifted) < resample_threshold * num:
                log_z += m + math.log(total) - math.log(num)
                counts = rng.multinomial(num, shifted / total)
                particles = particles[np.repeat(np.arange(num), counts)]
                lw[:] = 0.0
    log_z += logsumexp(lw) - math.log(num)
    atoms, weights = merge_particles(particles, lw)
    if not len(atoms):
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


def _draw_or_uniform(q: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, int]:
    """draw_softmax_rows' 0-based draws (q may be one shared (1, K) row), but
    a row of all -inf takes min(int(u * K), K - 1) off its own uniform u.
    Returns the draws and the number of these zero-mass draws.

    The draw is tried first: it reduces each row once and raises
    ZeroMassError before it draws, so a q with no zero-mass row costs one
    pass, and only a q with one is reduced again to find its zero rows."""
    try:
        return draw_softmax_rows(q, u)[0], 0
    except ZeroMassError:
        pass
    zero = q.max(axis=1) == NEG_INF
    zero = np.broadcast_to(zero, u.shape)  # a shared row's zero mass is every draw's
    drawn = np.minimum((u * q.shape[1]).astype(np.int64), q.shape[1] - 1)
    if not zero.all():
        drawn[~zero] = draw_softmax_rows(q[~zero], u[~zero])[0]
    return drawn, int(zero.sum())


# ---------------------------------------------------------------------------
# Gibbs
# ---------------------------------------------------------------------------


def _gibbs_waves(graph: FactorGraph, num_sweeps: int) -> np.ndarray:
    """The wave of each of the num_sweeps * N site updates, in scan order
    (variables in raw index order, sweep after sweep).

    An update's wave is 1 + the latest wave so far of its own site (the
    self rule) or of any variable that shares a factor with it (the
    neighbour rule). So each update runs after every earlier update whose
    value it reads, and after the site's own previous update, and before
    every later update that reads its value: the neighbour relation is
    symmetric. No wave holds two sites that share a factor, or one site
    twice. The self rule matters only for a site whose factors are all
    unary; any other site has a neighbour updated between two of its own
    updates.

    A sweep's waves are a function of the latest waves before it, and
    adding a constant c to all of those adds c to every wave of the sweep
    (max and + commute with the shift). So once a sweep's waves are the
    previous sweep's plus one constant c, each later sweep is c more again,
    and the rest of the schedule is tiled from that sweep. A connected
    component's waves read only its own variables' waves, so the constant
    may differ between components: the check is that every variable's
    shift equals each neighbour's, one constant per connected component,
    and each variable is tiled with its own. The sweep at which this first
    happens depends on the graph, so every sweep is checked.
    """
    n = graph.num_variables
    near: list[set[int]] = [set() for _ in range(n + 1)]
    for f in graph.factors:
        for v in f.scope:
            near[v].update(u for u in f.scope if u != v)
    last = [0] * (n + 1)  # last[v]: the wave of v's latest update so far
    waves = []
    for sweep in range(1, num_sweeps + 1):
        before = last[1:]
        for v in range(1, n + 1):
            last[v] = wave = 1 + max([last[v]] + [last[u] for u in near[v]])
            waves.append(wave)
        shift = np.subtract(last[1:], before)
        if all(shift[u - 1] == shift[v - 1] for v in range(1, n + 1) for u in near[v]):
            later = np.arange(1, num_sweeps - sweep + 1)[:, None] * shift + last[1:]
            return np.concatenate([waves, later.ravel()])
    return np.array(waves)


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
    ValueError when num_sweeps is below 1, and BudgetTooLargeError when the
    chains the budget pays for do not fit in memory.

    The sweeps run as dependency waves (_gibbs_waves): a wave's site
    updates share no factor, so they read no value another of them writes,
    and every value they read is the one the raw-index scan reads. Each
    update draws every chain's value from the update's own uniform, so the
    atoms, the zero-conditional count and the spend equal the scan's. A
    wave scores all of its (site, chain) pairs with one gather from the
    graph's _FactorBlock tables plus one appended 0.0 pad; a site with
    fewer factors than the wave's widest reads the pad for each missing
    term. Each site's terms are added left to right into 0.0 in
    site-factor order, the pads last, and adding 0.0 to a sum that starts
    at 0.0 changes no bit (-inf included), so each score is the scan's. One
    _draw_or_uniform call draws every row of the wave and one store writes
    the values back. A wave charges the sum of its sites' charges for every
    chain.
    """
    if num_sweeps < 1:
        raise ValueError("num_sweeps must be at least 1")
    n, k = graph.num_variables, graph.num_states
    block = graph._block
    # one term per (factor, scope slot) of the block, factor by factor (a
    # pad slot's stride is 0, a real one's at least 1), then stably by the
    # slot's site: each site's terms in block order, which is site-factor order
    f, slot = np.nonzero(block.strides)
    term_site = np.asarray(graph.ordering)[block.columns[f, slot]] - 1
    by_site = np.argsort(term_site, kind="stable")
    f, slot, term_site = f[by_site], slot[by_site], term_site[by_site]
    num_terms = np.bincount(term_site, minlength=n)
    rank = np.arange(len(f)) - (np.cumsum(num_terms) - num_terms)[term_site]
    # a term reads its factor's row with its own slot's stride zeroed, from
    # its table's 0-based start plus own stride * (0..K-1); per site, the
    # terms are padded to the widest site's count with pad terms, whose
    # columns and strides are 0 and whose K indices all read the 0.0 pad
    own = block.strides[f, slot]
    others = block.strides[f]
    others[np.arange(len(f)), slot] = 0
    flat = np.append(block.tables, 0.0)
    width = int(num_terms.max())
    cols = np.zeros((n, width, block.columns.shape[1]), dtype=np.int64)
    strides = np.zeros_like(cols)
    offsets = np.full((n, width, k), len(block.tables), dtype=np.int64)
    cols[term_site, rank], strides[term_site, rank] = block.columns[f], others
    start = block.base[f] + block.strides[f].sum(axis=1)
    offsets[term_site, rank] = start[:, None] + own[:, None] * np.arange(k)
    site_costs = k * (np.ones(n, dtype=np.int64) if cost_mode == REWARD_EVAL else num_terms)
    ledger = BudgetLedger(budget=budget, cost_mode=cost_mode)
    num = ledger.count(num_sweeps * int(site_costs.sum()), "one sample")
    rng = np.random.default_rng(seed)
    # chain by chain: the initial state, then one uniform per site update
    with _budget_sized(budget, num, "chains"):
        states = np.empty((num, n), dtype=np.int64)
        uniforms = np.empty((num, num_sweeps * n))
    for i in range(num):
        states[i] = rng.integers(1, k + 1, size=n)
        uniforms[i] = rng.random(num_sweeps * n)
    # the updates in wave order, scan order within a wave; update t is site t % n
    waves = _gibbs_waves(graph, num_sweeps)
    order = np.argsort(waves, kind="stable")
    site = order % n
    starts = np.flatnonzero(np.diff(waves[order], prepend=0))
    bounds = zip(starts.tolist(), starts[1:].tolist() + [len(order)],
                 np.maximum.reduceat(num_terms[site], starts).tolist(),
                 (num * np.add.reduceat(site_costs[site], starts)).tolist())
    # per update in wave order: its terms' other columns and strides, each
    # (arity, width, updates), its terms' K table indices, (width, updates,
    # K), its column, and every chain's uniform, (updates, chains)
    cols, strides = cols[site].transpose(2, 1, 0), strides[site].transpose(2, 1, 0)[..., None]
    offsets = offsets[site].transpose(1, 0, 2)[:, :, None]
    column = np.array([graph.depth_of(v) - 1 for v in range(1, n + 1)])[site]
    uniforms = uniforms.T[order]
    xt = (states - 1).T.copy()  # row c: every chain's 0-based value at column c
    zero_conditionals = 0
    for lo, hi, w, charge in bounds:
        ledger.charge(charge)
        # entries[i, s, c, j]: the wave's s-th site's i-th term at chain c
        # with the site set to j + 1
        base = (xt[cols[:, :w, lo:hi]] * strides[:, :w, lo:hi]).sum(axis=0)
        entries = flat[base[..., None] + offsets[:w, lo:hi]]
        scores = 0.0 + entries[0]
        for term in entries[1:]:
            scores += term
        drawn, zeros = _draw_or_uniform(scores.reshape(-1, k), uniforms[lo:hi].ravel())
        xt[column[lo:hi]] = drawn.reshape(hi - lo, num)
        zero_conditionals += zeros
    atoms, weights = merge_particles(xt.T + 1, np.zeros(num))
    return WeightedAtoms(atoms=atoms, weights=weights, num_particles=num,
                         budget_spent=ledger.spent, zero_conditional_count=zero_conditionals)


# ---------------------------------------------------------------------------
# Loopy belief propagation with sequential clamping
# ---------------------------------------------------------------------------


class _LoopyBP:
    """Log-domain sum-product messages on the bipartite factor graph.

    Edge e is one (factor, scope position) pair, numbered factor by factor;
    msg_vf[e] and msg_fv[e] are its (K,) messages. A unary factor's
    factor->variable message is its table + 0.0 whatever the other
    messages, so reset() writes it and rounds leave it as it is. Every
    other factor->variable message is a logsumexp over rows of the factor's
    table plus the other positions' incoming messages, left unnormalized. A
    variable->factor message is the sum of the variable's other incoming
    messages minus the sum's maximum (an all -inf sum is shifted by 0), so
    it is at most 0.0. A factor->variable message is then at most the
    factor's largest entry plus the log of its row width, so a
    variable->factor sum of them can overflow only where the graph's own
    reward sums already do.

    The rows of every factor of arity 2 or more are laid out once in one
    width-major (w, R) block, w = K^(a - 1) for the largest arity a: entry
    j of every row in one contiguous run, so a round reduces the R rows
    with a few calls on length-R vectors whatever w is. A narrower row is
    padded with -inf table entries, whose gathers read the -0.0 pad, so
    they add exp(-inf) = 0.0 to its sum. A round gathers the incoming
    messages into the block with one fancy index per other scope position.
    A graph whose factors are all unary has no block.

    The messages are held to an accuracy bound, not to the bits of a
    message-at-a-time implementation: the block sums each row left to
    right, not in numpy's pairwise row order, and the variable->factor
    sums are normalized by their maxima, not their logsumexps. The atoms
    bp_sample draws are pinned by golden digests.

    Both message arrays are views of buffers that end in one -0.0 entry,
    the pad that padded gathers read: msg_vf of a flat buffer, msg_fv of an
    (edges + 1, K) one. A round writes into the buffers, and bp_sample
    restores saved messages into them.
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
        unary = [fi for fi, s in enumerate(scopes) if len(s) == 1]
        self.unary_edges = first[unary]
        self.unary_msgs = np.reshape([graph.factors[fi].table for fi in unary], (-1, k)) + 0.0
        pad = num_edges * k  # index of the -0.0 pad, which adds exactly nothing
        max_arity = max(len(s) for s in scopes)
        width = k ** (max_arity - 1)
        num_rows = k * sum(len(s) for s in scopes if len(s) > 1)
        # row r of the block: its table entries base[:, r], its gather index
        # at each other position steps[:, :, r], and its edge edge_order[r // K],
        # laid out arity by arity, then position by position
        self.base = np.full((width, num_rows), NEG_INF)
        steps = np.full((max_arity - 1, width, num_rows), pad)
        self.edge_order = np.empty(num_rows // k, dtype=np.int64)
        end = 0
        for arity in sorted({len(s) for s in scopes} - {1}):
            fis = [fi for fi, s in enumerate(scopes) if len(s) == arity]
            tables = np.stack([graph.factors[fi].table for fi in fis])  # (F, K^arity)
            edges = first[fis][:, None] + np.arange(arity)  # (F, arity)
            grid = np.arange(k**arity).reshape((k,) * arity)
            cols = k ** (arity - 1)
            for axis in range(arity):
                start, end = end, end + len(fis) * k
                # entry (j, l): the table index with this position at value j + 1
                # and the other positions enumerating l in row-major order
                others = [a for a in range(arity) if a != axis]
                cells = grid.transpose([axis] + others).reshape(k, -1)
                self.base[:cols, start:end] = tables[:, cells].reshape(-1, cols).T
                for step, other in enumerate(others):
                    digit = cells // k ** (arity - 1 - other) % k
                    steps[step, :cols, start:end] = (edges[:, other, None, None] * k
                                                     + digit).reshape(-1, cols).T
                self.edge_order[start // k:end // k] = edges[:, axis]
        self.steps = list(steps)
        # incoming[j, e]: the j-th edge of the other factors at e's variable, in
        # factor order, or the index of the all -0.0 row past the last edge
        incoming = [[] for _ in range(num_edges)]
        for edges in self.var_edges.values():
            for e in edges:
                incoming[e] = [g for g in edges if g != e]
        width = max(len(row) for row in incoming)
        self.incoming = np.array(
            [row + [num_edges] * (width - len(row)) for row in incoming], dtype=np.int64
        ).reshape(num_edges, width).T.copy()
        self.vf = np.empty(num_edges * k + 1)
        self.vf[-1] = -0.0
        self.msg_vf = self.vf[:-1].reshape(num_edges, k)
        self.fv = np.empty((num_edges + 1, k))
        self.fv[-1] = -0.0
        self.msg_fv = self.fv[:-1]
        self.clamped = np.zeros(num_edges, dtype=bool)
        self.reset()

    def reset(self):
        self.msg_vf[...] = -math.log(self.k)
        self.msg_fv[...] = -math.log(self.k)
        self.msg_fv[self.unary_edges] = self.unary_msgs
        self.clamped[...] = False

    def clamp(self, v: int, value: int):
        atom = np.full(self.k, NEG_INF)
        atom[value - 1] = 0.0
        self.msg_vf[self.var_edges[v]] = atom
        self.clamped[self.var_edges[v]] = True

    def round(self) -> bool:
        """One synchronous round: every factor->variable message of a factor
        of arity 2 or more, then every variable->factor message. Returns
        whether it was an exact fixed point: every variable->factor message
        came out with the bit pattern it went in with.

        The block adds its rows' gathered messages one position at a time,
        never subtracting (-inf - -inf is undefined); then one max, one
        shift, one exp and one axis-0 sum over the block, and one log, give
        every row's logsumexp, an all -inf row's being -inf. The
        variable->factor sums are one gather and one axis-0 sum of the
        incoming factor->variable messages, in factor order; each sum then
        has its maximum subtracted, and the clamped edges keep their
        messages.
        """
        fv = self.fv
        if self.edge_order.size:  # an all-unary graph has an empty block
            rows = self.base + self.vf[self.steps[0]]
            for idx in self.steps[1:]:
                rows += self.vf[idx]
            m = rows.max(axis=0)
            shift = _shift(m)
            rows -= shift
            total = np.exp(rows, out=rows).sum(axis=0)
            fv[self.edge_order] = _log_sums(m, shift, total).reshape(-1, self.k)
        msg_vf = fv[self.incoming].sum(axis=0)
        msg_vf -= _shift(msg_vf.max(axis=1))[:, None]
        np.copyto(msg_vf, self.msg_vf, where=self.clamped[:, None])
        # compared as int64, so that -0.0 and 0.0 differ
        fixed = np.array_equal(msg_vf.view(np.int64), self.msg_vf.view(np.int64))
        self.msg_vf[...] = msg_vf
        return fixed

    def log_marginal(self, v: int) -> np.ndarray:
        """The sum of v's incoming factor->variable messages minus its
        logsumexp, in logsumexp's arithmetic; an all -inf sum stays as it
        is. The draws read it."""
        total = np.zeros(self.k)
        for e in self.var_edges[v]:
            total = total + self.msg_fv[e]
        lse = logsumexp(total)
        return total - lse if lse > NEG_INF else total


def bp_sample(
    graph: FactorGraph,
    num_message_rounds: int,
    budget: int,
    seed: int = 0,
) -> WeightedAtoms:
    """Per sample: run message rounds, draw the next unsampled variable from
    its loopy-BP marginal, clamp it, and repeat through all variables in raw
    index order. Raises ValueError when num_message_rounds is below 1, and
    BudgetTooLargeError when the samples the budget pays for do not fit in
    memory.

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
    in that order, so the atoms, the charge and the zero-mass count equal a
    sample-at-a-time loop's. A marginal of zero mass gives each member the
    uniform value read off its own uniform, as a Gibbs site update does.

    The marginals agree with those of a message-at-a-time implementation to
    an accuracy bound, not bit for bit (see _LoopyBP); fixed seeds give the
    atoms the golden digests pin.
    """
    if num_message_rounds < 1:
        raise ValueError("num_message_rounds must be at least 1")
    n = graph.num_variables
    round_cost = graph.num_factors
    ledger = BudgetLedger(budget=budget)
    num = ledger.count(n * num_message_rounds * round_cost, "one sample")
    with _budget_sized(budget, num, "samples"):
        uniforms = np.random.default_rng(seed).random((num, n))
        values = np.empty((num, n), dtype=np.int64)  # the samples as prefixes
    state = _LoopyBP(graph)
    # a trie node: its variable v, its member samples, and the value of
    # v - 1 to clamp on entry (0 at the root) after restoring the parent's
    # saved (msg_vf, clamped), or None when the state is still the parent's
    stack = [(1, np.arange(num), 0, None)]
    zero_marginals = 0
    while stack:
        v, members, value, saved = stack.pop()
        if saved is not None:
            state.msg_vf[...], state.clamped[...] = saved
        if value:
            state.clamp(v - 1, value)
        ledger.charge(len(members) * num_message_rounds * round_cost)
        for _ in range(num_message_rounds):
            if state.round():
                break
        drawn, zeros = _draw_or_uniform(state.log_marginal(v)[None, :], uniforms[members, v - 1])
        drawn += 1
        zero_marginals += zeros
        values[members, graph.depth_of(v) - 1] = drawn
        if v == n:
            continue
        branches = np.flatnonzero(np.bincount(drawn)).tolist()
        # the later branches restore msg_vf and clamped; msg_fv is not
        # saved, since a child's first round recomputes it
        saved = (state.msg_vf.copy(), state.clamped.copy()) if len(branches) > 1 else None
        for x in reversed(branches):  # pushed last, the lowest value runs first
            stack.append((v + 1, members[drawn == x], x, None if x == branches[0] else saved))
    atoms, weights = merge_particles(values, np.zeros(num))
    return WeightedAtoms(atoms=atoms, weights=weights, num_particles=num,
                         budget_spent=ledger.spent, zero_conditional_count=zero_marginals)
