"""Budgeted best-first tree construction with soft-Bellman backups.

The tree caches one node per evaluated prefix. Each traversal walks from the
root picking actions by a PUCT-style rule over value estimates plus an
exploration bonus scaled by the prior, expands exactly one new node (paying
its reward-evaluation cost), and backs the soft-Bellman recursion up the
path. Fully expanded subtrees are flagged complete and never revisited;
their values are exact. Sampling from the finished tree walks root to leaf
through softmax distributions, falling back to the prior once it leaves the
tree, and costs no budget. SearchTree.sample_batch draws many samples in one
pass from a generator the caller passes, returning each one's
log-probability with it; sample() is its one-row case and log_density() the
per-configuration reference. The build itself draws no random numbers.

A node holds K-entry Python lists, not numpy arrays: a traversal touches
every node on its path, and at K of 2 to 10 the fixed cost of a numpy call
is many times the arithmetic it does. A traversal is three calls, whatever
its depth: q_uct_select walks the whole path down to the first missing
child, expand creates that child, and backup updates the path bottom-up
through TreeNode.value. The walk and the backup are scalar Python in the
same operation order as the array code they replaced, so the trees are the
same bit for bit. backup stops recomputing soft values at the first edge
whose value comes out unchanged and whose child is not newly complete: no
value above that edge can change, so above it only the visit counts grow.

Nodes with two children, every node of a binary factor graph, take an
unrolled path in both hot calls, chosen by the length of the node's lists:
q_uct_select scores the two children in the loop's operation order and takes
the second only when its score is strictly greater, the loop's first
maximum, and logmath.logsumexp_list orders the pair and forms the one sum
the loop would (see its docstring for why the bits agree). Wider nodes keep
the loops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .logmath import NEG_INF, json_float, logsumexp, logsumexp_list, sample_softmax_rows
from .model import REWARD_EVAL, BudgetLedger, FactorGraph, Prefix


class TreeNode:
    """Per-prefix cache: reward, and per child its value q, visit count eta,
    exploration coefficient bonus and completeness flag, each a K-entry
    Python list.

    bonus[a] is c * max(prior value, epsilon), fixed when expand creates the
    node, so q_uct_select scores a child as q + bonus * sqrt(visits) / (1 + eta).
    backup keeps two counters in step with the lists: visits, the sum of
    eta, and open, the number of children not yet flagged complete.
    """

    __slots__ = ("reward", "q", "eta", "bonus", "complete_children", "children", "complete",
                 "visits", "open")

    def __init__(self, reward, q, bonus, complete_children, complete):
        """Keeps the given lists, which the node then owns and mutates."""
        self.reward = reward
        self.q = q
        self.eta = [0] * len(q)
        self.bonus = bonus
        self.complete_children = complete_children
        self.children: list[TreeNode | None] = [None] * len(q)
        self.complete = complete
        self.visits = 0
        self.open = self.complete_children.count(False)

    def value(self) -> float:
        """Soft value of the subtree below this node (logsumexp of child
        values), equal to logmath.logsumexp of q bit for bit."""
        return logsumexp_list(self.q)


@dataclass
class SearchTree:
    """Search tree over variable prefixes plus everything needed to sample it."""

    graph: FactorGraph
    prior: object
    ledger: BudgetLedger
    root: TreeNode | None = None
    nodes: dict[Prefix, TreeNode] = field(default_factory=dict)

    def root_complete(self) -> bool:
        return self.root is not None and self.root.complete

    def root_value(self) -> float | None:
        """Estimate of log Z; exact once the root is complete. None if empty."""
        return None if self.root is None else self.root.value()

    def sample(self, rng: np.random.Generator) -> Prefix:
        """One complete configuration: the one-row case of sample_batch."""
        xs, _ = self.sample_batch(1, rng)
        return tuple(xs[0].tolist())

    def sample_batch(self, num_samples: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """(xs, log_q): num_samples configurations and their log-probabilities.

        xs is an (S, N) int array of values 1..K; log_q[i] equals
        log_density(xs[i]) bit for bit. The uniforms are drawn as one (S, N)
        block, the same stream as S*N scalar draws, so row i is what the i-th
        of S successive one-row calls would emit. The walk goes depth by
        depth: the particles at one tree node share one softmax and one
        vectorised draw; the particles that have left the tree are scored by
        one prior.evaluate_batch call per depth. A prior whose values depend
        on the depth alone (HeuristicPrior) returns one broadcast row there,
        which sample_softmax_rows reduces once. Costs no budget.
        """
        n = self.graph.num_variables
        u = rng.random((num_samples, n))
        xs = np.empty((num_samples, n), dtype=np.int64)
        log_q = np.zeros(num_samples)
        rows = np.arange(num_samples)
        groups = [] if self.root is None else [(self.root, rows)]
        off = rows if self.root is None else rows[:0]
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
        nodes = []
        for prefix in sorted(self.nodes, key=lambda p: (len(p), p)):
            node = self.nodes[prefix]
            nodes.append(
                {
                    "prefix": list(prefix),
                    "reward": json_float(node.reward),
                    "q": [json_float(v) for v in node.q],
                    "eta": node.eta,
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


def q_uct_select(root: TreeNode) -> tuple[list[TreeNode], list[int]]:
    """One traversal's descent: (path, actions) from root to the first
    missing child.

    path[i] --actions[i]--> path[i + 1], and the last action (1-based) names
    a child of path[-1] that is not in the tree yet. At each node the best
    incomplete child wins on q + bonus * sqrt(visits) / (1 + eta): ties break
    toward the smallest action, children flagged complete are excluded, and
    when every incomplete child scores -inf (a zero-mass prior entry) the
    first incomplete child wins. A node with one incomplete child takes it
    without scoring, which is the same choice. Raises RuntimeError at a node
    whose children are all complete; a root that is not complete has none.
    """
    path: list[TreeNode] = []
    actions: list[int] = []
    node = root
    while True:
        open_children = node.open
        if open_children == 1:
            a = node.complete_children.index(False)
        elif not open_children:
            raise RuntimeError("q_uct_select reached a node with all children complete")
        else:
            q, bonus, eta = node.q, node.bonus, node.eta
            sqrt_visits = math.sqrt(node.visits)
            if len(q) == 2:
                first = q[0] + bonus[0] * sqrt_visits / (1.0 + eta[0])
                second = q[1] + bonus[1] * sqrt_visits / (1.0 + eta[1])
                # both children are open (open_children >= 2); the loop's
                # choice, where a NaN first score (an overflowing bonus times
                # zero visits) never beats the loop's starting -inf
                a = 1 if second > first or (first != first and second > NEG_INF) else 0
            else:
                done = node.complete_children
                best, a = NEG_INF, -1
                for i in range(len(done)):
                    if not done[i]:
                        score = q[i] + bonus[i] * sqrt_visits / (1.0 + eta[i])
                        if score > best:  # strict: the first maximum, as np.argmax
                            best, a = score, i
                if a < 0:
                    a = done.index(False)
        path.append(node)
        actions.append(a + 1)
        node = node.children[a]
        if node is None:
            return path, actions


def expand(graph: FactorGraph, prefix: Prefix, prior, ledger: BudgetLedger, c: float,
           epsilon: float) -> TreeNode | None:
    """Evaluate and cache the reward at prefix; None signals budget exhaustion.

    The children's values start at the prior's and their exploration
    coefficients are c * max(prior value, epsilon). Depth-N leaves initialize
    child values to -log K and are complete, so their coefficients, never
    read, are 0. A node whose own reward is -inf is complete immediately:
    its branch has zero mass, so its exact edge value at the parent is -inf
    regardless of descendants.
    """
    n, k = len(prefix), graph.num_states
    cost = 0 if n == 0 else graph.reward_cost(n, ledger.cost_mode)
    if not ledger.charge(cost):
        return None
    reward = 0.0 if n == 0 else graph.reward(prefix)
    if n == graph.num_variables:
        return TreeNode(reward, [-math.log(k)] * k, [0.0] * k, [True] * k, True)
    prior_q = prior.evaluate(graph, prefix)
    # positional arguments: keywords make a K = 2 node's creation about 40% slower
    bonus = [c * (epsilon if epsilon > v else v) for v in prior_q]  # max(v, epsilon)
    return TreeNode(reward, prior_q, bonus, [False] * k, reward == NEG_INF)


def backup(nodes: list[TreeNode], actions: list[int]) -> None:
    """Soft-Bellman backup along one traversal path, deepest edge first.

    nodes has one more entry than actions; nodes[i] --actions[i]--> nodes[i+1].

    A node is flagged complete when it has no open child: the deepest node
    is checked on entry, and every other node where its last open child
    completes, since only that edge changes its count of open children.

    It stops recomputing at the first edge whose new value equals the old
    one and whose child is not newly complete. The node above that edge
    then holds the same q as before, up to the sign of a zero, and a soft
    value does not depend on the sign of a zero, so every edge further up
    would be recomputed to the bits it holds. Above that edge only eta and
    visits change. The edge itself still stores the new value, which may be
    the other zero.
    """
    child = nodes[-1]
    child.complete = child.complete or not child.open
    for i in range(len(actions) - 1, -1, -1):
        parent, a = nodes[i], actions[i] - 1
        value = child.reward + child.value()
        q = parent.q
        unchanged = value == q[a]
        q[a] = value
        if child.complete and not parent.complete_children[a]:
            parent.complete_children[a] = True
            parent.open -= 1
            parent.complete = parent.complete or not parent.open
        elif unchanged:
            for node, action in zip(nodes[: i + 1], actions):
                node.eta[action - 1] += 1
                node.visits += 1
            return
        parent.eta[a] += 1
        parent.visits += 1
        child = parent


def check_search_params(c: float, epsilon: float) -> None:
    """Raise ValueError unless c and epsilon are finite and non-negative."""
    for name, value in (("c", c), ("epsilon", epsilon)):
        if not 0.0 <= value < math.inf:  # NaN fails this too
            raise ValueError(f"{name} must be finite and non-negative")


def build_tree(
    graph: FactorGraph,
    prior,
    budget: int,
    c: float = 2.0,
    epsilon: float = 0.1,
    cost_mode: str = REWARD_EVAL,
) -> SearchTree:
    """Run traversals until the root completes or the next one may not be payable.

    The loop guard reserves the worst-case cost of a single expansion (the
    largest per-depth reward cost), so a started traversal always completes
    and the ledger never overruns. The build draws no random numbers: the
    tree is a deterministic function of the arguments.
    """
    ledger = BudgetLedger(budget=budget, cost_mode=cost_mode)
    tree = SearchTree(graph=graph, prior=prior, ledger=ledger)
    worst_cost = max(graph.reward_cost(d, cost_mode) for d in range(1, graph.num_variables + 1))
    while ledger.remaining >= worst_cost and not tree.root_complete():
        if tree.root is None:
            tree.root = expand(graph, (), prior, ledger, c, epsilon)
            tree.nodes[()] = tree.root
            continue
        path, actions = q_uct_select(tree.root)
        prefix = tuple(actions)
        new = expand(graph, prefix, prior, ledger, c, epsilon)
        if new is None:  # unreachable under the guard; kept as a hard stop
            return tree
        path[-1].children[actions[-1] - 1] = new
        tree.nodes[prefix] = new
        path.append(new)
        backup(path, actions)
    return tree
