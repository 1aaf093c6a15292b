"""Discrete factor graphs in the log domain, plus evaluation-budget accounting.

Variables are indexed 1..N and take values 1..K. A graph carries an ordering
(a permutation of the variables) that maps search depth d to the variable
assigned at that depth; prefixes are tuples of values read through that
ordering. Factor tables are dense log-values, -inf allowed, +inf/NaN rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .logmath import NEG_INF

REWARD_EVAL = "reward_eval"
FACTOR_EVAL = "factor_eval"
COST_MODES = (REWARD_EVAL, FACTOR_EVAL)

Prefix = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Factor:
    """One log-domain factor: ascending variable scope and a dense table.

    The table is flat with length K**len(scope), row-major over the scope's
    variable values (first scope variable is the slowest index).
    """

    id: int
    scope: tuple[int, ...]
    table: np.ndarray

    def value(self, values_by_scope: Sequence[int], num_states: int) -> float:
        """Table entry for 1-based values given in scope order."""
        idx = 0
        for v in values_by_scope:
            idx = idx * num_states + (v - 1)
        return float(self.table[idx])


class _CompiledFactor:
    """Factor with ordering positions and strides precomputed for fast lookup."""

    __slots__ = ("factor", "depth", "positions", "strides", "table")

    def __init__(self, factor: Factor, positions: np.ndarray, num_states: int):
        self.factor = factor
        self.positions = positions  # 1-based depth of each scope variable
        self.depth = int(positions.max())
        s = len(factor.scope)
        self.strides = num_states ** np.arange(s - 1, -1, -1, dtype=np.int64)
        self.table = factor.table

    def value_at(self, prefix: Sequence[int]) -> float:
        idx = 0
        for pos, stride in zip(self.positions, self.strides):
            idx += (prefix[pos - 1] - 1) * stride
        return float(self.table[idx])

    def values_at(self, xs: np.ndarray) -> np.ndarray:
        """Table entries for every row of an (S, >= depth) array of prefixes."""
        idx = np.zeros(len(xs), dtype=np.int64)
        for pos, stride in zip(self.positions, self.strides):
            idx += (xs[:, pos - 1] - 1) * stride
        return self.table[idx]


@dataclass(frozen=True, eq=False)
class FactorGraph:
    """Immutable factor graph over num_variables K-state variables."""

    num_variables: int
    num_states: int
    factors: tuple[Factor, ...]
    ordering: tuple[int, ...]

    # derived, filled in __post_init__
    _position: np.ndarray = field(init=False, repr=False, compare=False)
    _depth_factors: tuple[tuple[_CompiledFactor, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n, k = self.num_variables, self.num_states
        if n < 1:
            raise ValueError("num_variables must be positive")
        if k < 2:
            raise ValueError("num_states must be at least 2")
        if sorted(self.ordering) != list(range(1, n + 1)):
            raise ValueError("ordering must be a permutation of 1..N")
        position = np.zeros(n + 1, dtype=np.int64)  # position[v] = depth of variable v
        for depth, v in enumerate(self.ordering, start=1):
            position[v] = depth

        covered = set()
        by_depth: list[list[_CompiledFactor]] = [[] for _ in range(n + 1)]
        for i, f in enumerate(self.factors):
            if list(f.scope) != sorted(set(f.scope)) or not f.scope:
                raise ValueError(f"factor {i}: scope must be nonempty and strictly ascending")
            if f.scope[0] < 1 or f.scope[-1] > n:
                raise ValueError(f"factor {i}: scope out of range 1..{n}")
            if len(f.table) != k ** len(f.scope):
                raise ValueError(f"factor {i}: table length must be K^|scope|")
            if np.any(np.isnan(f.table)) or np.any(f.table == np.inf):
                raise ValueError(f"factor {i}: table entries must be real or -inf")
            covered.update(f.scope)
            cf = _CompiledFactor(f, position[np.asarray(f.scope)], k)
            by_depth[cf.depth].append(cf)
        if covered != set(range(1, n + 1)):
            missing = sorted(set(range(1, n + 1)) - covered)
            raise ValueError(f"variables {missing} appear in no factor scope")

        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_depth_factors", tuple(tuple(fs) for fs in by_depth))

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def depth_of(self, variable: int) -> int:
        return int(self._position[variable])

    def factors_at_depth(self, depth: int) -> tuple[_CompiledFactor, ...]:
        """Factors whose maximal ordering position over their scope equals depth."""
        return self._depth_factors[depth]

    def check_prefix(self, prefix: Sequence[int]) -> None:
        if len(prefix) > self.num_variables:
            raise ValueError("prefix longer than the number of variables")
        for v in prefix:
            if not 1 <= v <= self.num_states:
                raise ValueError(f"prefix value {v} out of range 1..{self.num_states}")

    def reward(self, prefix: Sequence[int]) -> float:
        """Sum of the factors that become computable exactly at this depth.

        Empty factor sets contribute 0; any -inf summand makes the result -inf.
        """
        if not prefix:
            raise ValueError("reward is defined for prefixes of length >= 1")
        self.check_prefix(prefix)
        total = 0.0
        for cf in self._depth_factors[len(prefix)]:
            total += cf.value_at(prefix)
        return total

    def reward_cost(self, depth: int, cost_mode: str = REWARD_EVAL) -> int:
        """Budget units charged by one reward evaluation at the given depth."""
        if not 1 <= depth <= self.num_variables:
            raise ValueError("depth out of range")
        if cost_mode == REWARD_EVAL:
            return 1
        if cost_mode == FACTOR_EVAL:
            return len(self._depth_factors[depth])
        raise ValueError(f"unknown cost mode {cost_mode!r}")

    def full_traversal_cost(self, cost_mode: str = REWARD_EVAL) -> int:
        """Worst-case cost of evaluating all depths 1..N once."""
        if cost_mode == REWARD_EVAL:
            return self.num_variables
        return self.num_factors

    def log_unnormalized_density(self, x: Sequence[int]) -> float:
        """Sum of all factor values at a complete configuration (prefix of length N)."""
        if len(x) != self.num_variables:
            raise ValueError("configuration must assign all variables")
        self.check_prefix(x)
        total = 0.0
        for depth_factors in self._depth_factors:
            for cf in depth_factors:
                total += cf.value_at(x)
        return total

    def log_unnormalized_density_batch(self, xs) -> np.ndarray:
        """log_unnormalized_density of every row of an (S, N) array.

        Factors are added in the scalar method's order, so each entry equals
        the scalar result bit for bit.
        """
        xs = np.asarray(xs, dtype=np.int64)
        if xs.ndim != 2 or xs.shape[1] != self.num_variables:
            raise ValueError("configurations must form an (S, N) array")
        if xs.size and (xs.min() < 1 or xs.max() > self.num_states):
            raise ValueError(f"configuration values must lie in 1..{self.num_states}")
        total = np.zeros(len(xs))
        for depth_factors in self._depth_factors:
            for cf in depth_factors:
                total += cf.values_at(xs)
        return total

    def assignment_to_prefix(self, assignment: Sequence[int]) -> Prefix:
        """Reorder a by-variable assignment (index v-1) into depth order."""
        return tuple(assignment[v - 1] for v in self.ordering)

    def prefix_to_assignment(self, prefix: Sequence[int]) -> tuple[int, ...]:
        """Inverse of assignment_to_prefix for complete prefixes."""
        out = [0] * self.num_variables
        for depth, v in enumerate(self.ordering):
            out[v - 1] = prefix[depth]
        return tuple(out)


@dataclass
class BudgetLedger:
    """Counts oracle evaluations against a fixed budget.

    Exhaustion is a signal (charge returns False, spent unchanged), not an error.
    """

    budget: int
    cost_mode: str = REWARD_EVAL
    spent: int = 0

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if self.cost_mode not in COST_MODES:
            raise ValueError(f"cost_mode must be one of {COST_MODES}")

    @property
    def remaining(self) -> int:
        return self.budget - self.spent

    def charge(self, amount: int) -> bool:
        if amount < 0:
            raise ValueError("charge amount must be non-negative")
        if self.spent + amount > self.budget:
            return False
        self.spent += amount
        return True


# ---------------------------------------------------------------------------
# JSON schema: {"n": .., "k": .., "ordering": [..], "factors": [{"scope": [..],
# "log_table": [..]}]} with -inf encoded as the string "-inf". Finite doubles
# round-trip bit-exactly (json emits shortest repr).
# ---------------------------------------------------------------------------


def graph_to_json_dict(graph: FactorGraph) -> dict:
    factors = []
    for f in graph.factors:
        table = [v if math.isfinite(v) else "-inf" for v in f.table.tolist()]
        factors.append({"scope": list(f.scope), "log_table": table})
    return {
        "n": graph.num_variables,
        "k": graph.num_states,
        "ordering": list(graph.ordering),
        "factors": factors,
    }


def graph_from_json_dict(data: dict) -> FactorGraph:
    factors = []
    for i, fd in enumerate(data["factors"]):
        table = np.array(
            [NEG_INF if v == "-inf" else float(v) for v in fd["log_table"]], dtype=np.float64
        )
        factors.append(Factor(id=i, scope=tuple(fd["scope"]), table=table))
    return FactorGraph(
        num_variables=int(data["n"]),
        num_states=int(data["k"]),
        factors=tuple(factors),
        ordering=tuple(data["ordering"]),
    )


def save_graph(graph: FactorGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_json_dict(graph), fh)
        fh.write("\n")


def load_graph(path) -> FactorGraph:
    with open(path) as fh:
        return graph_from_json_dict(json.load(fh))
