"""Budgeted best-first tree construction with soft-Bellman backups.

The tree caches one node per evaluated prefix. Each traversal walks from the
root picking actions by a PUCT-style rule over value estimates plus an
exploration bonus scaled by the prior, expands exactly one new node (paying
its reward-evaluation cost), and backs the soft-Bellman recursion up the
path. Fully expanded subtrees are flagged complete and never revisited;
their values are exact. Sampling from the finished tree walks root to leaf
through softmax distributions, falling back to the prior once it leaves the
tree, and costs no budget. SearchTree.sample_batch draws many samples in one
pass, returning each one's log-probability with it; sample() is its one-row
case and log_density() the per-configuration reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .logmath import NEG_INF, logsumexp, sample_softmax_rows
from .model import REWARD_EVAL, BudgetLedger, FactorGraph, Prefix


class TreeNode:
    """Per-prefix cache: reward, child values/visits/priors/completeness."""

    __slots__ = ("reward", "q", "eta", "prior", "complete_children", "children", "complete")

    def __init__(self, reward, q, prior, complete_children, complete):
        self.reward = reward
        self.q = q
        self.eta = np.zeros(len(q), dtype=np.int64)
        self.prior = prior
        self.complete_children = complete_children
        self.children: list[TreeNode | None] = [None] * len(q)
        self.complete = complete

    def value(self) -> float:
        """Soft value of the subtree below this node (logsumexp of child values)."""
        return float(logsumexp(self.q))


@dataclass
class SearchTree:
    """Search tree over variable prefixes plus everything needed to sample it."""

    graph: FactorGraph
    prior: object
    ledger: BudgetLedger
    c: float
    epsilon: float
    seed: int
    root: TreeNode | None = None
    nodes: dict[Prefix, TreeNode] = field(default_factory=dict)

    @property
    def num_expansions(self) -> int:
        return len(self.nodes)

    def root_complete(self) -> bool:
        return self.root is not None and self.root.complete

    def root_value(self) -> float | None:
        """Estimate of log Z; exact once the root is complete. None if empty."""
        return None if self.root is None else self.root.value()

    def _as_rng(self, rng) -> np.random.Generator:
        if isinstance(rng, np.random.Generator):
            return rng
        return np.random.default_rng(self.seed if rng is None else rng)

    def sample(self, rng=None) -> Prefix:
        """One complete configuration: the one-row case of sample_batch."""
        xs, _ = self.sample_batch(1, rng)
        return tuple(xs[0].tolist())

    def sample_batch(self, num_samples: int, rng=None) -> tuple[np.ndarray, np.ndarray]:
        """(xs, log_q): num_samples configurations and their log-probabilities.

        xs is an (S, N) int array of values 1..K; log_q[i] equals
        log_density(xs[i]) bit for bit. The uniforms are drawn as one (S, N)
        block, the same stream as S*N scalar draws, so row i is what the i-th
        of S successive one-row calls would emit. The walk goes depth by
        depth: the particles at one tree node share one softmax and one
        vectorised draw; the particles that have left the tree are scored by
        one prior.evaluate_batch call per depth. Costs no budget.
        """
        rng = self._as_rng(rng)
        n, k = self.graph.num_variables, self.graph.num_states
        u = rng.random((num_samples, n))
        xs = np.empty((num_samples, n), dtype=np.int64)
        log_q = np.zeros(num_samples)
        rows = np.arange(num_samples)
        groups = [] if self.root is None else [(self.root, rows)]
        off = rows if self.root is None else rows[:0]
        for depth in range(n):
            next_groups, left = [], [off]
            for node, at in groups:
                a, step = sample_softmax_rows(node.q[None, :], u[at, depth])
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
                q = np.asarray(self.prior.evaluate_batch(self.graph, xs[off, :depth]), dtype=np.float64)
                a, step = sample_softmax_rows(q, u[off, depth])
                xs[off, depth] = a + 1
                log_q[off] += step
            groups = next_groups
            off = np.concatenate(left) if len(left) > 1 else off
        return xs, log_q

    def log_density(self, x) -> float:
        """Exact log-probability that sample() emits x; sums to 1 over the domain."""
        total = 0.0
        node = self.root
        for depth, a in enumerate(x):
            q = node.q if node is not None else self.prior.evaluate(self.graph, tuple(x[:depth]))
            if q[a - 1] == NEG_INF:
                return NEG_INF
            total += float(q[a - 1]) - logsumexp(q)
            node = node.children[a - 1] if node is not None else None
        return total

    def dump_json_dict(self) -> dict:
        def enc(v):
            return v if math.isfinite(v) else "-inf"

        nodes = []
        for prefix in sorted(self.nodes, key=lambda p: (len(p), p)):
            node = self.nodes[prefix]
            nodes.append(
                {
                    "prefix": list(prefix),
                    "reward": enc(node.reward),
                    "q": [enc(v) for v in node.q.tolist()],
                    "eta": node.eta.tolist(),
                    "complete": [bool(b) for b in node.complete_children],
                }
            )
        return {
            "num_nodes": len(nodes),
            "budget_spent": self.ledger.spent,
            "root_complete": self.root_complete(),
            "nodes": nodes,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump_json_dict(), fh)
            fh.write("\n")


def q_uct_select(node: TreeNode, parent_visits: int, c: float, epsilon: float) -> int:
    """Best incomplete child: value plus prior-scaled visit-count bonus.

    Ties break toward the smallest action; children flagged complete are
    excluded. Caller must ensure at least one child is incomplete.
    """
    bonus = c * np.maximum(node.prior, epsilon) * math.sqrt(parent_visits) / (1.0 + node.eta)
    scores = node.q + bonus
    scores[node.complete_children] = NEG_INF
    if not np.any(~node.complete_children):
        raise RuntimeError("q_uct_select called with all children complete")
    return int(np.argmax(scores)) + 1


def expand(graph: FactorGraph, prefix: Prefix, prior, ledger: BudgetLedger) -> TreeNode | None:
    """Evaluate and cache the reward at prefix; None signals budget exhaustion.

    Depth-N leaves initialize child values to -log K and are complete. A node
    whose own reward is -inf is complete immediately: its branch has zero mass,
    so its exact edge value at the parent is -inf regardless of descendants.
    """
    n, k = len(prefix), graph.num_states
    cost = 0 if n == 0 else graph.reward_cost(n, ledger.cost_mode)
    if not ledger.charge(cost):
        return None
    reward = 0.0 if n == 0 else graph.reward(prefix)
    if n == graph.num_variables:
        return TreeNode(
            reward=reward,
            q=np.full(k, -math.log(k)),
            prior=np.zeros(k),
            complete_children=np.ones(k, dtype=bool),
            complete=True,
        )
    prior_q = np.asarray(prior.evaluate(graph, prefix), dtype=np.float64)
    return TreeNode(
        reward=reward,
        q=prior_q.copy(),
        prior=prior_q,
        complete_children=np.zeros(k, dtype=bool),
        complete=(reward == NEG_INF),
    )


def backup(nodes: list[TreeNode], actions: list[int]) -> None:
    """Soft-Bellman backup along one traversal path, deepest edge first.

    nodes has one more entry than actions; nodes[i] --actions[i]--> nodes[i+1].
    """
    for i in range(len(actions) - 1, -1, -1):
        child, parent, a = nodes[i + 1], nodes[i], actions[i] - 1
        child.complete = child.complete or bool(np.all(child.complete_children))
        parent.q[a] = child.reward + child.value()
        parent.complete_children[a] = child.complete
        parent.eta[a] += 1
    root = nodes[0]
    root.complete = root.complete or bool(np.all(root.complete_children))


def build_tree(
    graph: FactorGraph,
    prior,
    budget: int,
    c: float = 2.0,
    epsilon: float = 0.1,
    seed: int = 0,
    cost_mode: str = REWARD_EVAL,
) -> SearchTree:
    """Run traversals until the root completes or the next one may not be payable.

    The loop guard reserves the worst-case cost of a single expansion (one
    reward evaluation, or all M factors under factor-level accounting), so a
    started traversal always completes and the ledger never overruns. The
    result is a deterministic function of all arguments.
    """
    ledger = BudgetLedger(budget=budget, cost_mode=cost_mode)
    tree = SearchTree(graph=graph, prior=prior, ledger=ledger, c=c, epsilon=epsilon, seed=seed)
    worst_cost = graph.num_factors if cost_mode != REWARD_EVAL else 1
    while ledger.remaining >= worst_cost and not tree.root_complete():
        if tree.root is None:
            tree.root = expand(graph, (), prior, ledger)
            tree.nodes[()] = tree.root
            continue
        prefix: list[int] = []
        nodes = [tree.root]
        actions: list[int] = []
        node = tree.root
        while True:
            a = q_uct_select(node, int(node.eta.sum()), c, epsilon)
            actions.append(a)
            prefix.append(a)
            child = node.children[a - 1]
            if child is None:
                new = expand(graph, tuple(prefix), prior, ledger)
                if new is None:  # unreachable under the guard; kept as a hard stop
                    return tree
                node.children[a - 1] = new
                tree.nodes[tuple(prefix)] = new
                nodes.append(new)
                backup(nodes, actions)
                break
            node = child
            nodes.append(node)
    return tree
