"""Budgeted best-first tree construction with soft-Bellman backups.

The tree caches one node per evaluated prefix. The build runs rounds. A
round walks from the root up to prior.leaf_batch times, picking actions by a
PUCT-style rule over value estimates plus an exploration bonus scaled by the
prior, each walk ending at a different missing child. It takes the prior
rows of those leaves from one call, then expands each one (paying its
reward-evaluation cost) and backs the soft-Bellman recursion up its path.
Fully expanded subtrees are flagged complete and never revisited; their
values are exact. Sampling from the finished tree walks root to leaf
through softmax distributions, falling back to the prior once it leaves the
tree, and costs no budget. SearchTree.sample_batch draws many samples in one
pass from a generator the caller passes, returning each one's
log-probability with it; sample() is its one-row case and log_density() the
per-configuration reference. The pass goes depth by depth with at most two
draws per depth, one for every particle still in the tree and one for the
particles that have left it, however many nodes the depth holds. The
in-tree draw reduces each occupied node's row once and gathers it per
particle. The build itself draws no random numbers.

A node holds K-entry Python lists, not numpy arrays: a traversal touches
every node on its path, and at K of 2 to 10 the fixed cost of a numpy call
is many times the arithmetic it does. A leaf costs three calls, whatever
its depth, plus its share of the round's prior call: q_uct_select walks the
whole path down to the first missing child, expand creates that child from
its prior row, charging the cost build_tree hands it and scoring the prefix
without FactorGraph.reward's checks, and backup updates the path bottom-up,
forming each soft value itself (logmath.logsumexp_list for wide nodes).
While a round collects, collect_leaves flags each collected edge complete
for the rest of the round (virtual completion), so the next walk takes the
next-best open leaf, and it undoes every such flag before the first
expansion. Each later walk starts at the highest node whose flags
changed, since every choice above it is the previous walk's. A one-leaf
round (HeuristicPrior.leaf_batch) is one traversal: one q_uct_select,
prior.evaluate, expand and backup call. The walk is scalar Python in the
operation order of the array code it replaced. A soft value is
logsumexp_list's: Python floats summed left to right, which agrees with
logmath.logsumexp to a few ulps, not bit for bit. backup stops recomputing
soft values at the first edge whose value comes out unchanged and whose
child is not newly complete: no value above that edge can change, so above
it only the visit counts grow.

Nodes with two children, every node of a binary factor graph, take an
unrolled path in both hot calls. Every node of one tree has K children, so
each call reads the width once, not at every level: q_uct_select scores the
two children in the loop's operation order and takes the second only when
its score is strictly greater, the loop's first maximum, and backup orders
the pair and forms the one sum logsumexp_list's loop would, bit for bit
(see backup's docstring). Wider nodes keep the loops.
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
        """Soft value of the subtree below this node: logmath.logsumexp_list
        of its child values. backup forms the same value, bit for bit,
        without this call."""
        return logsumexp_list(self.q)


@dataclass
class SearchTree:
    """Search tree over variable prefixes plus everything needed to sample it."""

    graph: FactorGraph
    prior: object
    ledger: BudgetLedger
    root: TreeNode | None = None
    nodes: dict[Prefix, TreeNode] = field(default_factory=dict)

    @property
    def budget_spent(self) -> int:
        return self.ledger.spent

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

        xs is an (S, N) int array of values 1..K. The uniforms are drawn as
        one (S, N) block, the same stream as S*N scalar draws. For a prior
        whose batch rows equal evaluate bit for bit (HeuristicPrior),
        log_q[i] equals log_density(xs[i]) bit for bit and row i is what the
        i-th of S successive one-row calls would emit. An MLP's batch rows
        come from one product and may differ from evaluate in the last bits,
        so there the off-tree part of log_q agrees to about 1e-12 relative,
        and a draw can differ only when its uniform lies that close to a
        cumulative probability. The walk goes depth by depth, with one
        sample_softmax_rows call for all particles in the tree: the q rows
        of the depth's occupied nodes are stacked into a (G, K) array and
        passed with which, each particle's node. The call reduces the G rows
        once (logmath.shifted_exp_terms' max, exp and sum, then the
        cumulative sum and the log) and gathers the results per particle,
        so a depth costs G row reductions, not one per particle. That draw
        has the bits of one draw per node, since every step works row by
        row (see draw_softmax_rows): below 8 columns column by column over
        all G rows, and from 8 on along each C-ordered row. Every stacked
        node holds at least one particle, so
        an all -inf row raises ZeroMassError exactly when a per-node draw
        would. A depth with one occupied node draws from its row as a shared
        row. A stable sort on node * K + action then cuts the particles into
        runs that share a child, in node order, then action order, each run
        in its earlier order; a run whose child is missing leaves the tree.
        The particles that have left it are scored by one
        prior.evaluate_batch call per depth, on the same rows in the same
        order as one walk per node would pass. A prior whose values depend
        on the depth alone (HeuristicPrior) returns one broadcast row there,
        which sample_softmax_rows reduces once as a shared row; from 8
        columns on it draws by binary search. Costs no budget.
        """
        n, k = self.graph.num_variables, self.graph.num_states
        u = rng.random((num_samples, n))
        xs = np.empty((num_samples, n), dtype=np.int64)
        log_q = np.zeros(num_samples)
        rows = np.arange(num_samples)
        # the in-tree particles `at` sit at nodes[which]; `off` has left the tree
        if self.root is None:
            nodes, at, off = [], rows[:0], rows
        else:
            nodes, at, off = [self.root], rows, rows[:0]
        which = np.zeros_like(at)
        for depth in range(n):
            if len(off):
                q = np.asarray(self.prior.evaluate_batch(self.graph, xs[off, :depth]), dtype=np.float64)
                a, step = sample_softmax_rows(q, u[off, depth])
                xs[off, depth] = a + 1
                log_q[off] += step
            if not nodes:
                continue
            q = np.array([node.q for node in nodes])
            a, step = sample_softmax_rows(q, u[at, depth], which)
            xs[at, depth] = a + 1
            log_q[at] += step
            if depth + 1 == n:
                break
            # cut the particles into runs that share a child: node order,
            # then action order, each run in the order it had
            key = which * k + a
            order = np.argsort(key, kind="stable")
            key, at = key[order], at[order]
            first = np.empty(len(key), dtype=bool)
            first[:1] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            g, b = np.divmod(key[first], k)
            children = [nodes[i].children[j] for i, j in zip(g.tolist(), b.tolist())]
            nodes = [child for child in children if child is not None]
            present = np.array([child is not None for child in children], dtype=bool)
            run = np.cumsum(first) - 1
            if len(nodes) < len(children):
                stays = present[run]
                off = np.concatenate((off, at[~stays]))
                at, run = at[stays], run[stays]
            which = (np.cumsum(present) - 1)[run]
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
            "budget_spent": self.budget_spent,
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
    without scoring, which is the same choice. Every node of one tree has K
    children, so whether K is 2, and the two children are scored unrolled,
    is read once, from root. The descent may start below the tree's root
    (collect_leaves resumes there). Raises RuntimeError at a node whose
    children are all complete; a root that is not complete has none.
    """
    path: list[TreeNode] = []
    actions: list[int] = []
    node = root
    binary = len(root.q) == 2
    while True:
        open_children = node.open
        if open_children == 1:
            a = node.complete_children.index(False)
        elif not open_children:
            raise RuntimeError("q_uct_select reached a node with all children complete")
        else:
            q, bonus, eta = node.q, node.bonus, node.eta
            sqrt_visits = math.sqrt(node.visits)
            if binary:
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


def expand(graph: FactorGraph, prefix: Prefix, prior_q: list[float] | None, cost: int,
           ledger: BudgetLedger, c: float, epsilon: float) -> TreeNode:
    """Charge the ledger cost, the reward evaluation's cost at prefix,
    score the prefix and make the node from prior_q, the prior's row at
    prefix; a charge past the budget raises RuntimeError (see BudgetLedger).
    The root is free and has reward 0, so its cost is not read.

    The reward comes from FactorGraph.reward_unchecked, without reward's
    checks of the prefix: the search builds every prefix from its own
    actions, 1..K, at depths 1..N, so the checks could never fail here.

    The node keeps prior_q as its children's values, so the caller hands
    over a fresh list, and their exploration coefficients are
    c * max(prior value, epsilon). Depth-N leaves have no prior row (pass
    None): they initialize child values to -log K and are complete, so
    their coefficients, never read, are 0. A node whose own reward is -inf
    is complete immediately: its branch has zero mass, so its exact edge
    value at the parent is -inf regardless of descendants.
    """
    n, k = len(prefix), graph.num_states
    if n:
        ledger.charge(cost)
        reward = graph.reward_unchecked(prefix)
    else:
        reward = 0.0
    if n == graph.num_variables:
        return TreeNode(reward, [-math.log(k)] * k, [0.0] * k, [True] * k, True)
    # positional arguments: keywords make a K = 2 node's creation about 40% slower
    bonus = [c * (epsilon if epsilon > v else v) for v in prior_q]  # max(v, epsilon)
    return TreeNode(reward, prior_q, bonus, [False] * k, reward == NEG_INF)


def backup(nodes: list[TreeNode], actions: list[int]) -> None:
    """Soft-Bellman backup along one traversal path, deepest edge first.

    nodes has one more entry than actions; nodes[i] --actions[i]--> nodes[i+1].
    Each edge gets the child's reward plus its soft value, the logsumexp of
    its child values, equal to TreeNode.value bit for bit.

    Every node of one tree has K children, so the width is read once, from
    nodes[0]. Nodes with two children, every node of a binary factor graph,
    form the soft value inline, which costs less than calling
    logmath.logsumexp_list, and match its loop bit for bit. With the pair
    ordered as a >= b (a is the loop's maximum m, the first one on a tie),
    the loop adds exp(0.0) = 1.0 and exp(b - a) in list order, and one
    rounded addition does not depend on the order of its operands (and
    0.0 + x is x). So the soft value is a + log(1.0 + exp(b - a)); a -inf b
    adds exp(-inf) = 0.0, which gives a + log(1.0) and turns an a of -0.0
    into 0.0 as the loop does, and a == b gives a + log(2.0). When both
    entries are -inf it is -inf. Wider nodes call logsumexp_list.

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
    binary = len(nodes[0].q) == 2
    for i in range(len(actions) - 1, -1, -1):
        parent, a = nodes[i], actions[i] - 1
        if binary:
            x, y = child.q
            if x < y:
                x, y = y, x
            if x == NEG_INF:
                value = NEG_INF
            else:
                value = child.reward + (x + math.log(1.0 + math.exp(y - x)))
        else:
            value = child.reward + logsumexp_list(child.q)
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


def collect_leaves(root: TreeNode, width: int, room: int, costs: list[int],
                   worst_cost: int) -> list[tuple[list[TreeNode], list[int]]]:
    """One round's leaves: up to width q_uct_select descents (path, actions),
    each to a different missing child, in the order they were taken.

    room is what the ledger has left, at least worst_cost. A leaf at depth d
    reserves costs[d - 1], and collecting stops once room less the
    reservations could not pay worst_cost, so every collected leaf can be
    paid for. Between descents the collected edge is flagged complete
    (virtual completion): its node's open count drops, and a node left with
    no open child closes its own edge in its parent the same way, up to the
    root, so the next descent takes the next-best open leaf. Collecting also
    stops at a root with no open child. Every close is undone before
    returning, so the tree is left as it was.

    The next descent resumes at path[i], the node where the closes stopped,
    below the previous leaf's first i edges. During a round only the flags
    and open counts change, and only at path[i] and below, so a descent from
    the root would make the same choices down to path[i].
    """
    leaves = [q_uct_select(root)]
    closed = []
    while len(leaves) < width:
        path, actions = leaves[-1]
        room -= costs[len(actions) - 1]
        if room < worst_cost:
            break
        i = len(actions)
        while i:
            i -= 1
            node, a = path[i], actions[i] - 1
            node.complete_children[a] = True
            node.open -= 1
            closed.append((node, a))
            if node.open:
                break
        if not root.open:
            break
        tail, tail_actions = q_uct_select(path[i])
        leaves.append((path[:i] + tail, actions[:i] + tail_actions))
    for node, i in closed:
        node.complete_children[i] = False
        node.open += 1
    return leaves


def batch_rows(graph: FactorGraph, prior, leaves):
    """An iterator over the prior's rows, fresh lists, at the leaves'
    prefixes that are not complete, in leaf order, from one
    prior.evaluate_batch call; None when fewer than two need a row."""
    if len(leaves) < 2:  # a one-leaf round builds no prefix list
        return None
    n = graph.num_variables
    inner = [tuple(actions) for _, actions in leaves if len(actions) < n]
    return iter(prior.evaluate_batch(graph, inner).tolist()) if len(inner) > 1 else None


def build_tree(
    graph: FactorGraph,
    prior,
    budget: int,
    c: float = 2.0,
    epsilon: float = 0.1,
    cost_mode: str = REWARD_EVAL,
) -> SearchTree:
    """Run rounds until the root completes or the next leaf may not be payable.

    A round collects up to prior.leaf_batch missing children
    (collect_leaves), takes the prior rows of all of them from one
    evaluate_batch call (batch_rows), then expands and backs up each leaf in
    collection order. A round whose leaves need fewer than two rows calls
    prior.evaluate, so a one-leaf round is one traversal: one q_uct_select,
    prior.evaluate, expand and backup call each.
    Collecting reserves the cost of every collected leaf and stops when what
    is left could not pay one more worst-case expansion (the largest
    per-depth reward cost), so the ledger never overruns and a budget still
    counts reward evaluations. The build draws no random numbers: the tree
    is a deterministic function of the arguments. Raises ValueError unless c
    and epsilon are finite and non-negative.
    """
    check_search_params(c, epsilon)
    ledger = BudgetLedger(budget=budget, cost_mode=cost_mode)
    tree = SearchTree(graph=graph, prior=prior, ledger=ledger)
    n = graph.num_variables
    costs = [graph.reward_cost(d, cost_mode) for d in range(1, n + 1)]
    worst_cost = max(costs)
    width = prior.leaf_batch
    if ledger.remaining < worst_cost:
        return tree  # not even the first leaf is payable: no root
    root = tree.root = expand(graph, (), prior.evaluate(graph, ()), 0, ledger, c, epsilon)
    nodes = tree.nodes
    nodes[()] = root
    while ledger.remaining >= worst_cost and not root.complete:
        leaves = collect_leaves(root, width, ledger.remaining, costs, worst_cost)
        rows = batch_rows(graph, prior, leaves)
        for path, actions in leaves:
            prefix = tuple(actions)
            d = len(prefix)
            if d == n:
                row = None
            else:
                row = prior.evaluate(graph, prefix) if rows is None else next(rows)
            new = expand(graph, prefix, row, costs[d - 1], ledger, c, epsilon)
            path[-1].children[actions[-1] - 1] = new
            nodes[prefix] = new
            path.append(new)
            backup(path, actions)
    return tree
