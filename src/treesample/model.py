"""Discrete factor graphs in the log domain, plus evaluation-budget accounting.

Variables are indexed 1..N and take values 1..K. A graph carries an ordering
(a permutation of the variables) that maps search depth d to the variable
assigned at that depth; prefixes are tuples of values read through that
ordering. Factor tables are dense log-values, -inf allowed, +inf/NaN rejected.

The module also holds the rule for declared config fields (config_field,
check_type, check_fields), which RunConfig, TrainConfig and GeneratorSpec
share and from which the CLI makes their flags.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Sequence

import numpy as np

from .logmath import json_float

REWARD_EVAL = "reward_eval"
FACTOR_EVAL = "factor_eval"
COST_MODES = (REWARD_EVAL, FACTOR_EVAL)

Prefix = tuple[int, ...]

_KINDS = {"int": int, "float": (int, float), "str": str, "dict": dict}


def check_type(name: str, value, type_name: str) -> None:
    """Raise TypeError unless value is of the named type; an int will do for
    a float, and a bool, though Python counts it an int, for neither."""
    if isinstance(value, bool) or not isinstance(value, _KINDS[type_name]):
        raise TypeError(f"{name} must be of type {type_name}")


def check_fields(config) -> None:
    """check_type of each field of a dataclass against its annotation, and
    of its value against the choices in the field's metadata, if any."""
    for f in fields(config):
        value = getattr(config, f.name)
        check_type(f.name, value, f.type)
        choices = f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise ValueError(f"{f.name} must be one of {choices}")


def config_field(default=MISSING, help=None, choices=None, default_factory=MISSING):
    """A config dataclass field that carries its flag's help and choices."""
    return field(default=default, default_factory=default_factory,
                 metadata={"help": help, "choices": choices})


@dataclass(frozen=True, eq=False)
class Factor:
    """One log-domain factor: ascending variable scope and a dense table.

    The table is flat with length K**len(scope), row-major over the scope's
    variable values (first scope variable is the slowest index).
    """

    scope: tuple[int, ...]
    table: np.ndarray


class _CompiledFactor:
    """Factor with ordering positions and strides precomputed for fast lookup.

    value_at reads Python ints and a list copy of the table: it is called once
    per factor of every reward, where a numpy scalar costs more than the
    arithmetic. Only the exact oracle reads the numpy forms; the batch
    methods of FactorGraph and Gibbs gather through its _FactorBlock.
    """

    __slots__ = ("factor", "depth", "positions", "strides", "table", "_terms", "_entries")

    def __init__(self, factor: Factor, positions: np.ndarray, num_states: int):
        self.factor = factor
        self.positions = positions  # 1-based depth of each scope variable
        self.depth = int(positions.max())
        s = len(factor.scope)
        self.strides = num_states ** np.arange(s - 1, -1, -1, dtype=np.int64)
        self.table = factor.table
        self._terms = tuple(zip(positions.tolist(), self.strides.tolist()))
        self._entries = factor.table.tolist()

    def value_at(self, prefix: Sequence[int]) -> float:
        idx = 0
        for pos, stride in self._terms:
            idx += (prefix[pos - 1] - 1) * stride
        return self._entries[idx]


class _FactorBlock:
    """Every factor of a graph in depth order, gathered many rows at a time.

    It holds the concatenated tables and, per factor, its scope's 0-based
    columns and strides, padded to the largest arity with column 0 and
    stride 0, and a base index: the table's offset minus the sum of its
    strides, which takes the 1-based values to 0-based digits. So factor f's
    entry at a row x is tables[base[f] + sum_j x[columns[f, j]] * strides[f, j]].
    starts[d] is the first factor of depth d; depth d's factors are
    starts[d] to starts[d + 1] - 1.

    A scope slot's stride is a power of K, so at least 1, and a pad slot's
    is 0: the nonzero strides list every (factor, scope variable) pair.
    reward_batch and log_unnormalized_density_batch read the block through
    sums; baselines.gibbs builds its per-site terms from those pairs.
    """

    __slots__ = ("tables", "base", "columns", "strides", "starts")

    def __init__(self, by_depth: list[list[_CompiledFactor]]):
        compiled = [cf for fs in by_depth for cf in fs]
        arity = max(len(cf.positions) for cf in compiled)
        self.columns = np.zeros((len(compiled), arity), dtype=np.int64)
        self.strides = np.zeros((len(compiled), arity), dtype=np.int64)
        for i, cf in enumerate(compiled):
            self.columns[i, : len(cf.positions)] = cf.positions - 1
            self.strides[i, : len(cf.positions)] = cf.strides
        sizes = [len(cf.table) for cf in compiled]
        self.tables = np.concatenate([cf.table for cf in compiled])
        self.base = np.cumsum([0] + sizes[:-1], dtype=np.int64) - self.strides.sum(axis=1)
        self.starts = np.cumsum([0] + [len(fs) for fs in by_depth]).tolist()

    def sums(self, xs: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Sum of factors lo to hi - 1 at every row of an (S, d) array of
        values; every column the factors read must lie below d.

        All (hi - lo, S) indices come from integer arithmetic on the
        transposed values and one take. The rows are then added into zeros
        one factor at a time, in block order, as the scalar loop adds them.
        A reduction over the factor axis would not do: numpy adds an axis
        left to right or pairwise depending on the array's layout.
        """
        total = np.zeros(len(xs))
        if lo == hi:
            return total
        xt, columns, strides = xs.T, self.columns[lo:hi], self.strides[lo:hi]
        idx = xt[columns[:, 0]] * strides[:, :1]
        idx += self.base[lo:hi, None]
        for j in range(1, columns.shape[1]):
            idx += xt[columns[:, j]] * strides[:, j : j + 1]
        for row in self.tables.take(idx):
            total += row
        return total


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
    _block: _FactorBlock = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_block", _FactorBlock(by_depth))

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def depth_of(self, variable: int) -> int:
        return int(self._position[variable])

    def factors_at_depth(self, depth: int) -> tuple[_CompiledFactor, ...]:
        """Factors whose maximal ordering position over their scope equals depth."""
        return self._depth_factors[depth]

    def reward(self, prefix: Sequence[int]) -> float:
        """Sum of the factors that become computable exactly at this depth.

        Empty factor sets contribute 0; any -inf summand makes the result -inf.
        Raises ValueError unless the prefix has length 1..N and values 1..K;
        a valid prefix is then scored by reward_unchecked. This is the entry
        point for prefixes from outside the package, kept for its checks:
        the search builds its prefixes from valid actions and calls
        reward_unchecked itself.
        """
        if not 1 <= len(prefix) <= self.num_variables:
            raise ValueError("reward is defined for prefixes of length 1..N")
        if min(prefix) < 1 or max(prefix) > self.num_states:
            raise ValueError(f"prefix values must lie in 1..{self.num_states}")
        return self.reward_unchecked(prefix)

    def reward_unchecked(self, prefix: Sequence[int]) -> float:
        """reward of a prefix known to be valid, without its checks: an
        out-of-range value would read a wrong table entry, not raise. The
        search scores its own prefixes with it (search.expand)."""
        total = 0.0
        for cf in self._depth_factors[len(prefix)]:
            total += cf.value_at(prefix)
        return total

    def reward_batch(self, prefixes) -> np.ndarray:
        """reward of every row of an (S, d) array of prefixes, 1 <= d <= N.

        Factors are added in the scalar method's order, so each entry equals
        the scalar result bit for bit.
        """
        xs = np.asarray(prefixes, dtype=np.int64)
        if xs.ndim != 2 or not 1 <= xs.shape[1] <= self.num_variables:
            raise ValueError("prefixes must form an (S, d) array with 1 <= d <= N")
        if xs.size and (xs.min() < 1 or xs.max() > self.num_states):
            raise ValueError(f"prefix values must lie in 1..{self.num_states}")
        d = xs.shape[1]
        return self._block.sums(xs, *self._block.starts[d : d + 2])

    def reward_cost(self, depth: int, cost_mode: str = REWARD_EVAL) -> int:
        """Budget units charged by one reward evaluation at the given depth."""
        if not 1 <= depth <= self.num_variables:
            raise ValueError("depth out of range")
        if cost_mode == REWARD_EVAL:
            return 1
        if cost_mode == FACTOR_EVAL:
            return len(self._depth_factors[depth])
        raise ValueError(f"unknown cost mode {cost_mode!r}")

    def log_unnormalized_density(self, x: Sequence[int]) -> float:
        """Sum of all factor values at a complete configuration (prefix of
        length N): the one-row case of log_unnormalized_density_batch."""
        return float(self.log_unnormalized_density_batch([x])[0])

    def log_unnormalized_density_batch(self, xs) -> np.ndarray:
        """Sum of all factor values at every row of an (S, N) array of
        complete configurations, adding the factors depth by depth."""
        xs = np.asarray(xs, dtype=np.int64)
        if xs.ndim != 2 or xs.shape[1] != self.num_variables:
            raise ValueError("configurations must form an (S, N) array")
        if xs.size and (xs.min() < 1 or xs.max() > self.num_states):
            raise ValueError(f"configuration values must lie in 1..{self.num_states}")
        return self._block.sums(xs, 0, self.num_factors)


class BudgetTooSmallError(ValueError):
    """The budget cannot pay for even one unit of work."""


@dataclass
class BudgetLedger:
    """Counts oracle evaluations against a fixed budget.

    Callers size their work up front (count, or build_tree's loop guard), so
    a charge past the budget is an accounting bug: charge raises RuntimeError
    and leaves spent unchanged.
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

    def count(self, unit_cost: int, what: str) -> int:
        """How many units of work of unit_cost the whole budget pays for;
        BudgetTooSmallError, naming what one unit is, when not even one."""
        num = self.budget // unit_cost
        if num < 1:
            raise BudgetTooSmallError(f"budget {self.budget} cannot pay for {what} "
                                      f"(cost {unit_cost})")
        return num

    def charge(self, amount: int) -> None:
        if amount < 0:
            raise ValueError("charge amount must be non-negative")
        if self.spent + amount > self.budget:
            raise RuntimeError(f"internal accounting error: a charge of {amount} exceeds the "
                               f"{self.remaining} units left")
        self.spent += amount


# ---------------------------------------------------------------------------
# JSON schema: {"n": .., "k": .., "ordering": [..], "factors": [{"scope": [..],
# "log_table": [..]}]} with -inf encoded as the string "-inf". Finite doubles
# round-trip bit-exactly (json emits shortest repr).
# ---------------------------------------------------------------------------


def graph_to_json_dict(graph: FactorGraph) -> dict:
    factors = [{"scope": list(f.scope), "log_table": [json_float(v) for v in f.table.tolist()]}
               for f in graph.factors]
    return {
        "n": graph.num_variables,
        "k": graph.num_states,
        "ordering": list(graph.ordering),
        "factors": factors,
    }


def graph_from_json_dict(data: dict) -> FactorGraph:
    """The graph of a dict in the schema above. n, k and the entries of the
    ordering and of every scope must be ints: a bool, float or str raises
    TypeError naming its field, and is never truncated or parsed."""
    factors = []
    for fd in data["factors"]:
        table = np.array(fd["log_table"], dtype=np.float64)  # parses the "-inf" strings
        factors.append(Factor(scope=tuple(fd["scope"]), table=table))
    n, k, ordering = data["n"], data["k"], tuple(data["ordering"])
    entries = [("n", [n]), ("k", [k]), ("ordering entry", ordering)]
    entries += [(f"factor {i} scope entry", f.scope) for i, f in enumerate(factors)]
    for name, values in entries:
        for value in values:
            check_type(name, value, "int")
    return FactorGraph(num_variables=n, num_states=k, factors=tuple(factors), ordering=ordering)


def save_graph(graph: FactorGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_json_dict(graph), fh)
        fh.write("\n")


def parse_json(text, source: str):
    """json.loads(text) of JSON from outside the program. Nesting too deep
    for the decoder, a RecursionError, raises ValueError naming source."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{source} nests JSON too deeply to decode") from None


def load_graph(path) -> FactorGraph:
    with open(path) as fh:
        data = parse_json(fh.read(), f"instance {path}")
    try:
        return graph_from_json_dict(data)
    except (LookupError, TypeError) as exc:  # a missing or mistyped entry
        raise ValueError(f"malformed instance {path}: {exc!r}") from None
