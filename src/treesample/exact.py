"""The exact oracle: log Z and the entropy of the target, for scoring.

One backward soft-Bellman pass over the depths N..1. A level's soft values
depend only on its frontier: the earlier depths that a factor of this depth
or a deeper one reads. So each level is a table on its scope, the frontier
plus the level's own depth, in ascending depth order with the own depth
last. This is bucket elimination in reverse search order (Dechter 1999).
The level's factor tables are broadcast onto its scope and the level below's
soft values V are added; the rows of K are reduced by logsumexp_rows to the
level's V on its frontier. A second table per level holds the expected
reward of the depths from it on under P*, so the entropy comes from the same
pass, as in the first-order expectation semiring (Li & Eisner 2009):
H = log Z - E*[log-density].

The largest array the pass holds is K to the widest scope, K^2 on a chain,
and oracle_cap bounds it. Each entry of a V table is the same sum and the
same row reduction as on the full K^d prefix grid, so log Z has the bits of
the K^N solve (tests/conftest.py's reference_solve_exact).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .logmath import NEG_INF, _shift, logsumexp_rows
from .model import FactorGraph


# A -inf reward is raised to this before it is weighted by its probability,
# which is exactly 0, so the product is 0 and not 0 * -inf = NaN
LOWEST = -np.finfo(np.float64).max


class StateSpaceCapError(ValueError):
    """The widest level table of the graph exceeds the configured oracle cap."""


class ExactSolution(NamedTuple):
    """log Z and the entropy of P*, the two numbers the metrics read."""

    log_z: float
    entropy: float


def _level_scopes(graph: FactorGraph) -> list[tuple[int, ...]]:
    """scopes[d - 1]: the ascending depths of level d's table, d last.

    Level d reads the depths of its own factors and the frontier of level
    d + 1; its frontier is that scope without d.
    """
    scopes = [()] * graph.num_variables
    frontier: set[int] = set()
    for depth in range(graph.num_variables, 0, -1):
        for cf in graph.factors_at_depth(depth):
            frontier.update(cf.positions.tolist())
        frontier.discard(depth)
        scopes[depth - 1] = (*sorted(frontier), depth)
    return scopes


def _level_rewards(graph: FactorGraph, depth: int, scope: tuple[int, ...]) -> np.ndarray:
    """The depth-`depth` rewards on a (K,) * len(scope) grid whose axes are
    the scope's depths in order. Each factor's table is reshaped to its
    scope, its axes put in grid order, and broadcast onto the grid."""
    k = graph.num_states
    total = np.zeros((k,) * len(scope))
    for cf in graph.factors_at_depth(depth):
        positions = cf.positions.tolist()
        table = cf.table.reshape((k,) * len(positions))
        table = table.transpose(sorted(range(len(positions)), key=positions.__getitem__))
        total += table.reshape([k if d in positions else 1 for d in scope])
    return total


def solve_exact(graph: FactorGraph, cap: int = 10**7) -> ExactSolution:
    """log Z and the entropy of P*, from one backward pass over the levels.

    Raises StateSpaceCapError, before any table is built, when the widest
    level table has more than cap entries.

    A -inf entry of a level carries probability exactly 0 and expectation
    0: its reward is raised to LOWEST before it is weighted, so no
    0 * -inf is formed, and a zero-mass row (V = -inf) is shifted by 0, so
    no -inf - -inf is formed either. A zero-mass target gets log Z = -inf
    and entropy 0.0.
    """
    k = graph.num_states
    scopes = _level_scopes(graph)
    width = max(map(len, scopes))
    if k**width > cap:
        raise StateSpaceCapError(f"the widest level table, {k}^{width} entries, exceeds cap {cap}")
    # V and E below the deepest level are 0 on an empty frontier; adding a
    # +0.0 changes no reward, which a sum that starts from +0.0 never makes -0.0
    v = e = np.zeros(())
    below: tuple[int, ...] = ()
    for depth in range(graph.num_variables, 0, -1):
        scope = scopes[depth - 1]
        shape = tuple(k if d in below else 1 for d in scope)
        r = _level_rewards(graph, depth, scope)
        q = r + v.reshape(shape)
        r += e.reshape(shape)
        np.maximum(r, LOWEST, out=r)
        v = logsumexp_rows(q)
        p = np.exp(q - _shift(v)[..., None])
        e = np.einsum("...k,...k->...", p, r)
        below = scope[:-1]
    log_z = float(v)
    return ExactSolution(log_z, log_z - float(e) if log_z > NEG_INF else 0.0)


# perfbench/tracer.py's TARGETS still names exact.solve_chain; the
# benchmark-scope change of ROADMAP item 1 drops that entry and this name.
solve_chain = solve_exact
