"""Shared helpers: small random graphs and brute-force reference quantities."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from treesample import search
from treesample.baselines import WeightedAtoms, _LoopyBP, merge_particles
from treesample.exact import StateSpaceCapError
from treesample.generators import GeneratorSpec, generate
from treesample.logmath import (NEG_INF, ZeroMassError, draw_softmax_rows, logsumexp,
                                logsumexp_rows, sample_softmax_rows)
from treesample.model import REWARD_EVAL, BudgetLedger, Factor, FactorGraph, Prefix


def pytest_report_header(config):
    """numpy's version, the CPU features its build dispatches on and the
    BLAS it was built against: the goldens and the bitwise tests depend on
    numpy's exp and summation order, which both may change with the first
    two, and the MLP goldens on the BLAS's gemm kernels."""
    umath = getattr(np, "_core", getattr(np, "core", None))._multiarray_umath
    features = sorted(name for name, on in umath.__cpu_features__.items() if on)
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    blas_keys = ("name", "version", "openblas configuration")
    return [f"numpy {np.__version__}", "cpu features: " + " ".join(features),
            "blas: " + " ".join(str(blas[key]) for key in blas_keys if key in blas)]


def make_graph(n: int, k: int, factors, ordering=None) -> FactorGraph:
    """The graph of (scope, table) pairs; the ordering defaults to 1..n."""
    return FactorGraph(
        num_variables=n,
        num_states=k,
        factors=tuple(Factor(scope=s, table=np.asarray(t, dtype=float)) for s, t in factors),
        ordering=tuple(ordering or range(1, n + 1)),
    )


def make_random_chain(rng: np.random.Generator, n: int, k: int, scale: float = 1.0) -> FactorGraph:
    """A chain 1 - 2 - ... - n with normal unary and pairwise tables."""
    factors = [((v,), rng.normal(scale=scale, size=k)) for v in range(1, n + 1)]
    factors += [((v, v + 1), rng.normal(scale=scale, size=k * k)) for v in range(1, n)]
    return make_graph(n, k, factors)


def uniform_graph(n: int, k: int, ordering=None) -> FactorGraph:
    """n variables of k states, each under one all-zero unary factor."""
    return make_graph(n, k, [((v,), np.zeros(k)) for v in range(1, n + 1)], ordering)


def spec_graph(family: str, n: int, k: int, seed: int) -> FactorGraph:
    """The instance the generator draws for one GeneratorSpec."""
    return generate(GeneratorSpec(family=family, n=n, k=k, seed=seed))


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


class ExactValuePrior:
    """The oracle's optimal values Q*, the soft-value scale the tree reads.
    As a softmax proposal they give the target conditionals
    (zero-variance importance sampling)."""

    leaf_batch = 1

    def __init__(self, solution):
        self.solution = solution

    def evaluate(self, graph, prefix):
        return q_values(self.solution, prefix).tolist()

    def evaluate_batch(self, graph, prefixes):
        return np.stack([self.evaluate(graph, p) for p in prefixes])


def _prefix_rank(solution, prefix) -> int:
    """Base-K rank of a prefix: its row in a ReferenceSolution's q level."""
    k = solution.q_levels[0].shape[1]
    r = 0
    for v in prefix:
        r = r * k + (v - 1)
    return r


def q_values(solution, prefix) -> np.ndarray:
    """K-vector of a ReferenceSolution's optimal values for the actions below a prefix."""
    if len(prefix) >= len(solution.q_levels):
        raise ValueError("no actions below a complete configuration")
    return solution.q_levels[len(prefix)][_prefix_rank(solution, prefix)]


def conditional(solution, prefix) -> np.ndarray:
    """Target conditional of the next variable: the softmax of q_values."""
    q = q_values(solution, prefix)
    return np.exp(q - logsumexp(q))


def log_joint(solution, x) -> float:
    """Normalized log-probability of a complete configuration (depth order)
    under a ReferenceSolution."""
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
    """(N, K) marginal table of a ReferenceSolution, indexed by variable (row v-1)."""
    k, n = graph.num_states, graph.num_variables
    probs = np.exp(reference_log_joint(solution)).reshape((k,) * n)
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


def reference_shifted_exp_terms(rows: np.ndarray):
    """logmath.shifted_exp_terms by numpy's own row reductions over a
    C-ordered copy of rows: (m, shift, total, terms) with every row's terms
    in one (M, K) array."""
    rows = np.ascontiguousarray(rows)
    m = rows.max(axis=1)
    shift = np.where(m > NEG_INF, m, 0.0)
    terms = np.exp(rows - shift[:, None])
    return m, shift, terms.sum(axis=1), terms


def reference_sample_batch(tree, num_samples: int, rng: np.random.Generator):
    """SearchTree.sample_batch as a node-at-a-time walk, which its one draw
    per depth must equal bit for bit: per depth, one sample_softmax_rows
    call on each occupied node's (1, K) q row, the particles split among its
    children in action order, and those whose child is missing added to the
    off-tree particles, scored by one prior.evaluate_batch call per depth.
    The off-tree rows go in sample_batch's order (those that left earlier
    first, then node by node, action by action), so an MLP prior, whose
    batch rows depend on their place in the product, gets the same bits."""
    n = tree.graph.num_variables
    u = rng.random((num_samples, n))
    xs = np.empty((num_samples, n), dtype=np.int64)
    log_q = np.zeros(num_samples)
    rows = np.arange(num_samples)
    groups = [] if tree.root is None else [(tree.root, rows)]
    off = rows if tree.root is None else rows[:0]
    for depth in range(n):
        next_groups, left = [], [off]
        for node, at in groups:
            a, step = sample_softmax_rows(np.array([node.q]), u[at, depth])
            xs[at, depth] = a + 1
            log_q[at] += step
            actions = np.flatnonzero(np.bincount(a)) if len(at) > 1 else a
            for action in actions.tolist():
                child = node.children[action]
                sel = at if len(actions) == 1 else at[a == action]
                if child is None:
                    left.append(sel)
                else:
                    next_groups.append((child, sel))
        if len(off):
            q = np.asarray(tree.prior.evaluate_batch(tree.graph, xs[off, :depth]),
                           dtype=np.float64)
            a, step = sample_softmax_rows(q, u[off, depth])
            xs[off, depth] = a + 1
            log_q[off] += step
        groups = next_groups
        off = np.concatenate(left) if len(left) > 1 else off
    return xs, log_q


def reference_leaf_by_leaf_build_tree(graph: FactorGraph, prior, budget: int, c: float = 2.0,
                                      epsilon: float = 0.1, cost_mode: str = REWARD_EVAL):
    """search.build_tree as it was before a round was backed up at once:
    each round's leaves (collect_leaves, batch_rows) are expanded and backed
    up one at a time, in collection order, each along its whole path (a
    one-leaf backup call per leaf). build_tree must give the same tree, bit
    for bit."""
    ledger = BudgetLedger(budget=budget, cost_mode=cost_mode)
    tree = search.SearchTree(graph=graph, prior=prior, ledger=ledger)
    n = graph.num_variables
    costs = [graph.reward_cost(d, cost_mode) for d in range(1, n + 1)]
    worst_cost = max(costs)
    width = prior.leaf_batch
    if ledger.remaining < worst_cost:
        return tree
    root = tree.root = search.expand(graph, (), prior.evaluate(graph, ()), 0, ledger, c, epsilon)
    nodes = tree.nodes
    nodes[()] = root
    while ledger.remaining >= worst_cost and not root.complete:
        leaves, shared = search.collect_leaves(root, width, ledger.remaining, costs, worst_cost)
        rows = search.batch_rows(graph, prior, leaves) if shared else None
        for path, actions in leaves:
            prefix = tuple(actions)
            d = len(prefix)
            if d == n:
                row = None
            else:
                row = prior.evaluate(graph, prefix) if rows is None else next(rows)
            new = search.expand(graph, prefix, row, costs[d - 1], ledger, c, epsilon)
            path[-1].children[actions[-1] - 1] = new
            nodes[prefix] = new
            path.append(new)
            search.backup([(path, actions)], [])
    return tree


def reference_factor_sums(graph: FactorGraph, xs: np.ndarray,
                          depth: int | None = None) -> np.ndarray:
    """FactorGraph.reward_batch of the rows of xs at one depth, or, with no
    depth, log_unnormalized_density_batch, as a scalar loop that the one
    factor gather must equal bit for bit: per row, each factor's value_at
    added to 0.0 one at a time, in depth order."""
    depths = range(graph.num_variables + 1) if depth is None else [depth]
    out = []
    for x in xs.tolist():
        total = 0.0
        for d in depths:
            for cf in graph.factors_at_depth(d):
                total += cf.value_at(x)
        out.append(total)
    return np.array(out, dtype=np.float64)


def reference_log_joint(solution) -> np.ndarray:
    """log P*(x) of a ReferenceSolution for all K^N configurations, in rank
    order, built level by level from the conditionals q - V; a zero-mass
    prefix (V = -inf) gives -inf children without -inf - -inf."""
    logp = np.zeros(1)
    for q, v in zip(solution.q_levels, solution.v_levels):
        v = v[:, None]
        cond = np.subtract(q, v, out=np.full(q.shape, NEG_INF), where=v > NEG_INF)
        cond += logp[:, None]
        logp = cond.reshape(-1)
    return logp


def reference_entropy(solution) -> float:
    """-sum p log p over the K^N configurations of positive probability of
    a ReferenceSolution; a zero p is never multiplied."""
    logp = reference_log_joint(solution)
    p = np.exp(logp)
    mask = p > 0
    return float(-np.sum(p[mask] * logp[mask]))


def reference_level_rewards(graph: FactorGraph, depth: int) -> np.ndarray:
    """The rank-order form of exact._level_rewards: the K^depth rewards on a
    (K,) * depth grid with one axis per depth in depth order, flattened, so
    that the level's own depth is the last, fastest axis."""
    k = graph.num_states
    total = np.zeros((k,) * depth)
    for cf in graph.factors_at_depth(depth):
        shape = [1] * depth
        for pos in cf.positions:
            shape[pos - 1] = k
        table = cf.table.reshape((k,) * len(cf.positions)).transpose(np.argsort(cf.positions))
        total += table.reshape(shape)
    return total.reshape(-1)


@dataclass
class ReferenceSolution:
    """The K^N oracle: Q* and the soft values V of every prefix, level by
    level. q_levels[n-1] has shape (K^(n-1), K): row r holds the K values
    at the prefix whose base-K rank is r (depth 1 is the most significant
    digit); v_levels[n-1] holds the rows' logsumexp. reference_entropy is
    its entropy."""

    log_z: float
    q_levels: list[np.ndarray]
    v_levels: list[np.ndarray]


def reference_solve_exact(graph: FactorGraph) -> ReferenceSolution:
    """Backward soft-Bellman dynamic programming over the full prefix tree,
    in rank order: each level's rewards as one flat rank-order vector, the
    soft values of the level below added, reshaped to C-ordered
    (K^(d-1), K) rows and reduced by logsumexp_rows. Its log Z has the bits
    of solve_exact's, whose levels hold the same sums on each frontier."""
    n, k = graph.num_variables, graph.num_states
    q_levels, v_levels = [None] * n, [None] * n
    v_next = None
    for depth in range(n, 0, -1):
        q = reference_level_rewards(graph, depth)
        if v_next is not None:
            q += v_next
        q = q_levels[depth - 1] = q.reshape(-1, k)
        v_next = v_levels[depth - 1] = logsumexp_rows(q)
    return ReferenceSolution(log_z=float(v_next[0]), q_levels=q_levels, v_levels=v_levels)


def assignment_to_prefix(graph: FactorGraph, assignment) -> Prefix:
    """Reorder a by-variable assignment (index v-1) into depth order."""
    return tuple(assignment[v - 1] for v in graph.ordering)


def reference_bp_sample(graph: FactorGraph, num_message_rounds: int, budget: int,
                        seed: int = 0, bp=_LoopyBP) -> WeightedAtoms:
    """baselines.bp_sample as a sample-at-a-time loop, which its trie walk
    must equal: per sample, reset the messages; per variable, run rounds
    up to an exact fixed point (charging the skipped ones), draw from the
    marginal at the next rng.random(1) and clamp. A zero-mass marginal
    gives the uniform value min(int(u * K), K - 1) + 1 of that uniform u,
    and is counted. bp is the message-passing state: _LoopyBP, or
    MessageAtATimeBP for a reference that shares none of its code."""
    n, k = graph.num_variables, graph.num_states
    round_cost = graph.num_factors
    num = budget // (n * num_message_rounds * round_cost)
    ledger = BudgetLedger(budget=budget)
    rng = np.random.default_rng(seed)
    state = bp(graph)
    particles = np.zeros((num, n), dtype=np.int64)
    zero_marginals = 0
    for i in range(num):
        state.reset()
        assignment = [0] * n
        for v in range(1, n + 1):
            for r in range(1, num_message_rounds + 1):
                ledger.charge(round_cost)
                if state.round():
                    ledger.charge((num_message_rounds - r) * round_cost)
                    break
            marg = state.log_marginal(v)
            u = rng.random(1)
            if np.max(marg) == NEG_INF:
                zero_marginals += 1
                value = min(int(u[0] * k), k - 1) + 1
            else:
                value = int(draw_softmax_rows(marg[None, :], u)[0][0]) + 1
            assignment[v - 1] = value
            state.clamp(v, value)
        particles[i] = assignment_to_prefix(graph, assignment)
    atoms, weights = merge_particles(particles, np.zeros(num))
    return WeightedAtoms(atoms=atoms, weights=weights, num_particles=num,
                         budget_spent=ledger.spent, zero_conditional_count=zero_marginals)


def _normalize(vec):
    lse = logsumexp(vec)
    return vec - lse if lse > NEG_INF else vec


class MessageAtATimeBP:
    """Reference loopy BP: one dict entry and one logsumexp_rows/logsumexp
    call per message, in the order of _LoopyBP's edges. A factor->variable
    message is its logsumexp_rows output as it is, unnormalized; the
    variable->factor messages and the marginals subtract their sums'
    logsumexp. round() returns whether every variable->factor message came
    out with the bits it went in with, as _LoopyBP.round does.

    _LoopyBP normalizes its variable->factor messages by their maxima and
    sums its rows in another order, so its messages agree with these up to
    each row's maximum and rounding (assert_log_close of max_shifted rows),
    and bp_sample's atoms equal reference_bp_sample's over this class."""

    def __init__(self, graph):
        k = self.k = graph.num_states
        self.scopes = [f.scope for f in graph.factors]
        self.tensors = [f.table.reshape((k,) * len(f.scope)) for f in graph.factors]
        self.var_factors = {v: [] for v in range(1, graph.num_variables + 1)}
        for fi, scope in enumerate(self.scopes):
            for v in scope:
                self.var_factors[v].append(fi)
        self.reset()

    def reset(self):
        edges = [(fi, v) for fi, scope in enumerate(self.scopes) for v in scope]
        self.msg_vf = {(v, fi): np.full(self.k, -math.log(self.k)) for fi, v in edges}
        self.msg_fv = {(fi, v): np.full(self.k, -math.log(self.k)) for fi, v in edges}
        self.clamped = set()

    def stacked(self, messages):
        return np.array(list(messages.values()))

    def clamp(self, v, value):
        self.clamped.add(v)
        atom = np.full(self.k, NEG_INF)
        atom[value - 1] = 0.0
        for fi in self.var_factors[v]:
            self.msg_vf[(v, fi)] = atom.copy()

    def round(self) -> bool:
        before = self.stacked(self.msg_vf).tobytes()
        new_fv = {}
        for fi, scope in enumerate(self.scopes):
            for axis, v in enumerate(scope):
                arr = self.tensors[fi]
                for ax2, u in enumerate(scope):
                    if u != v:
                        shape = [1] * len(scope)
                        shape[ax2] = self.k
                        arr = arr + self.msg_vf[(u, fi)].reshape(shape)
                rows = np.moveaxis(arr, axis, 0).reshape(self.k, -1)
                new_fv[(fi, v)] = logsumexp_rows(rows)
        self.msg_fv = new_fv
        for v, fi in self.msg_vf:
            if v not in self.clamped:
                total = np.zeros(self.k)
                for gi in self.var_factors[v]:
                    if gi != fi:
                        total = total + self.msg_fv[(gi, v)]
                self.msg_vf[(v, fi)] = _normalize(total)
        return self.stacked(self.msg_vf).tobytes() == before

    def log_marginal(self, v):
        total = np.zeros(self.k)
        for fi in self.var_factors[v]:
            total = total + self.msg_fv[(fi, v)]
        return _normalize(total)


def max_shifted(rows: np.ndarray) -> np.ndarray:
    """Each row minus its maximum; an all -inf row as it is."""
    m = rows.max(axis=1, keepdims=True)
    return rows - np.where(m > NEG_INF, m, 0.0)


def assert_log_close(got: np.ndarray, expected: np.ndarray, rel: float = 1e-12):
    """got has -inf at expected's -inf entries and agrees with expected
    elsewhere within rel * max(1, |expected|)."""
    finite = expected > NEG_INF
    assert np.array_equal(got > NEG_INF, finite)
    err = np.abs(got[finite] - expected[finite])
    assert np.all(err <= rel * np.maximum(1.0, np.abs(expected[finite])))


def repeated_completion_gibbs(graph: FactorGraph, num_sweeps: int, budget: int, seed: int,
                              cost_mode: str):
    """baselines.gibbs as the raw-index scan it must equal, one site update
    at a time, scored the former way: np.repeat(states, K), the site column
    set to 1..K, each site factor's entries read from its table reshaped to
    one axis per scope variable. Returns the WeightedAtoms (with the spend
    and the zero-conditional count), every site update's (chains, K) scores
    in scan order, zero-mass rows included, and the (chains, updates)
    uniforms."""
    n, k = graph.num_variables, graph.num_states
    site_factors = {v: [cf for d in range(1, n + 1) for cf in graph.factors_at_depth(d)
                        if v in cf.factor.scope] for v in range(1, n + 1)}
    cost = {v: k if cost_mode == REWARD_EVAL else k * len(fs) for v, fs in site_factors.items()}
    num = budget // (num_sweeps * sum(cost.values()))
    rng = np.random.default_rng(seed)
    states = np.empty((num, n), dtype=np.int64)
    uniforms = np.empty((num, num_sweeps * n))
    for i in range(num):
        states[i] = rng.integers(1, k + 1, size=n)
        uniforms[i] = rng.random(num_sweeps * n)
    recorded, zero_conditionals, spent = [], 0, 0
    for t, v in enumerate(list(range(1, n + 1)) * num_sweeps):
        col = graph.depth_of(v) - 1
        spent += num * cost[v]
        completions = np.repeat(states, k, axis=0)
        completions[:, col] = np.tile(np.arange(1, k + 1), num)
        scores = np.zeros(num * k)
        for cf in site_factors[v]:
            table = cf.table.reshape((k,) * len(cf.positions))
            scores += table[tuple(completions[:, cf.positions - 1].T - 1)]
        scores = scores.reshape(num, k)
        recorded.append(scores)
        u = uniforms[:, t]
        zero = scores.max(axis=1) == NEG_INF
        zero_conditionals += int(zero.sum())
        states[zero, col] = np.minimum((u[zero] * k).astype(np.int64), k - 1) + 1
        if (~zero).any():
            states[~zero, col] = sample_softmax_rows(scores[~zero], u[~zero])[0] + 1
    atoms, weights = merge_particles(states, np.zeros(num))
    return (WeightedAtoms(atoms=atoms, weights=weights, num_particles=num, budget_spent=spent,
                          zero_conditional_count=zero_conditionals), recorded, uniforms)


def reference_gibbs_waves(graph: FactorGraph, num_sweeps: int) -> list[int]:
    """baselines._gibbs_waves computed update by update for every sweep,
    without tiling: an update's wave is 1 + the latest wave so far of its
    own site or of any variable that shares a factor with it."""
    n = graph.num_variables
    last = [0] * (n + 1)
    waves = []
    for _ in range(num_sweeps):
        for v in range(1, n + 1):
            near = [u for f in graph.factors if v in f.scope for u in f.scope]
            last[v] = max(last[u] for u in near + [v]) + 1
            waves.append(last[v])
    return waves


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
        for x, w in zip(atoms.tolist(), approx.weights.tolist()):
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


def make_atoms(configs, weights, **metadata) -> WeightedAtoms:
    """WeightedAtoms of a nonempty sequence of configurations and their
    weights, as the (M, N) int64 and (M,) float64 arrays it holds."""
    return WeightedAtoms(atoms=np.array(configs, dtype=np.int64),
                         weights=np.array(weights, dtype=np.float64), **metadata)


def particle_record(result) -> list:
    """A particle result's atoms, weights, log Z estimate, budget spent and
    zero-conditional count as plain Python values, read by .tolist(): the
    floats by repr, which round-trips exactly and tells -0.0 from 0.0."""
    return [result.atoms.tolist(), [repr(w) for w in result.weights.tolist()],
            repr(result.log_z_estimate), result.budget_spent, result.zero_conditional_count]


def particle_digest(result) -> str:
    """sha256 of particle_record's JSON, what the golden digests pin."""
    return hashlib.sha256(json.dumps(particle_record(result)).encode()).hexdigest()


def reference_merge_particles(particles: np.ndarray, log_weights: np.ndarray) -> tuple[list, list]:
    """baselines.merge_particles as a dict of tuple rows: normalize, drop the
    particles of weight 0, add each row's weights in particle order into its
    first occurrence's entry, then divide by the sum of the entries."""
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


def reference_atoms_estimate(atoms: list, weights: list, graph: FactorGraph):
    """metrics._atoms_estimate's (delta_kl, energy, entropy) as one Python
    loop over the atoms, each sum starting at 0.0, the logs by math.log."""
    log_densities = graph.log_unnormalized_density_batch(atoms).tolist() if atoms else []
    delta_kl = energy = entropy = 0.0
    for w, ld in zip(weights, log_densities):
        log_w = math.log(w)
        delta_kl += w * (log_w - ld)
        energy += w * ld
        entropy -= w * log_w
    return delta_kl, energy, entropy
