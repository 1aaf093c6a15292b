"""Seeded random instance generators for the four synthetic families.

chains: Gaussian-process unary tables plus torus-distance couplings on
consecutive pairs. permuted_chains: a chain in a hidden random variable order,
built from Dirichlet conditional tables, so the sequential methods see
"delayed" factors. fg1: random connected graphs with dense N(0,1) tables on
maximal cliques. fg2: binary variables paired by XOR factors, with scaled
MAJORITY factors on cliques of a pair-level random graph.

Every generator in FAMILIES takes (n, k, seed, **params) and is a pure
function of them.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .model import Factor, FactorGraph, check_fields, check_type, config_field


class GenerationError(ValueError):
    """Rejection sampling exceeded its cap or a kernel was not factorizable."""


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def torus_distance(a: int, b: int, k: int) -> int:
    """Distance on the cycle 1..K with 1 and K adjacent."""
    d = abs(a - b)
    return min(d, k - d)


def gen_chain(
    n: int,
    k: int,
    seed: int,
    kernel_scale: float = 0.5,
    kernel_bandwidth: float = 1.0,
    coupling: float = 2.5,
    jitter: float = 1e-8,
) -> FactorGraph:
    """Chain with GP-drawn unary tables and torus-distance pair couplings.

    The N*K unary values are one joint draw from a zero-mean GP on the grid
    {1..N} x {1..K} with a squared-exponential kernel (amplitude kernel_scale,
    length-scale kernel_bandwidth). Binary tables are coupling * distance on
    the K-state torus. N unary + (N-1) binary factors, identity ordering.
    """
    if not 0.0 < jitter <= 1e-2:  # the escalation below multiplies it up to 1e-2; NaN fails too
        raise ValueError(f"jitter must lie in (0, 1e-2], not {jitter}")
    if n * k > 10_000:
        raise ValueError("kernel matrix would exceed the N*K <= 10^4 feasibility bound")
    rng = np.random.default_rng(seed)
    grid = np.array([(i, j) for i in range(1, n + 1) for j in range(1, k + 1)], dtype=float)
    sq = np.sum((grid[:, None, :] - grid[None, :, :]) ** 2, axis=-1)
    cov = kernel_scale * np.exp(-sq / (2.0 * kernel_bandwidth**2))
    chol = None
    eps = jitter
    while eps <= 1e-2:
        try:
            chol = np.linalg.cholesky(cov + eps * np.eye(n * k))
            break
        except np.linalg.LinAlgError:
            eps *= 10.0
    if chol is None:
        raise GenerationError("GP kernel not positive definite even after jitter escalation")
    unary_values = (chol @ rng.standard_normal(n * k)).reshape(n, k)

    factors = [Factor(scope=(v,), table=unary_values[v - 1].copy()) for v in range(1, n + 1)]
    pair_table = np.array(
        [coupling * torus_distance(a, b, k) for a in range(1, k + 1) for b in range(1, k + 1)],
        dtype=float,
    )
    for v in range(1, n):
        factors.append(Factor(scope=(v, v + 1), table=pair_table.copy()))
    return FactorGraph(
        num_variables=n, num_states=k, factors=tuple(factors), ordering=tuple(range(1, n + 1))
    )


# ---------------------------------------------------------------------------
# permuted chains
# ---------------------------------------------------------------------------


def gen_permuted_chain(n: int, k: int, seed: int, alpha: float = 1.0) -> FactorGraph:
    """A proper Markov chain over a hidden random variable order.

    Conditional tables P(X_sigma(n) | X_sigma(n-1)) have symmetric-Dirichlet
    rows; the chain's root variable gets a Dirichlet prior as a unary factor,
    so the product is normalized and log Z = 0. The search ordering stays the
    identity over raw indices, so pair factors straddle non-adjacent depths.
    """
    rng = np.random.default_rng(seed)
    sigma = rng.permutation(n) + 1
    factors = []
    root = int(sigma[0])
    prior = rng.dirichlet(np.full(k, alpha))
    with np.errstate(divide="ignore"):  # a small alpha can draw exact zeros: log 0 = -inf
        factors.append(Factor(scope=(root,), table=np.log(prior)))
    for step in range(1, n):
        u, v = int(sigma[step - 1]), int(sigma[step])
        cpt = np.stack([rng.dirichlet(np.full(k, alpha)) for _ in range(k)])  # [prev, next]
        with np.errstate(divide="ignore"):
            log_cpt = np.log(cpt)
        if u < v:
            table = log_cpt.reshape(-1)
            scope = (u, v)
        else:
            table = log_cpt.T.reshape(-1)
            scope = (v, u)
        factors.append(Factor(scope=scope, table=table))
    return FactorGraph(
        num_variables=n, num_states=k, factors=tuple(factors), ordering=tuple(range(1, n + 1))
    )


# ---------------------------------------------------------------------------
# random graphs: connectivity, cliques, orderings
# ---------------------------------------------------------------------------


def _erdos_renyi(num_nodes: int, p: float, rng) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {u: set() for u in range(num_nodes)}
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def _connected(adj: dict[int, set[int]]) -> bool:
    nodes = list(adj)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def maximal_cliques(adj: dict[int, set[int]]) -> list[tuple[int, ...]]:
    """All maximal cliques (Bron-Kerbosch with pivoting), canonically sorted."""
    out: list[tuple[int, ...]] = []

    def bk(r: set, p: set, x: set):
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            bk(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bk(set(), set(adj), set())
    return sorted(out)


def _ordering_from_scopes(scopes: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """Depth order: walk the scopes by descending size (ties by index),
    appending variables the first time they appear."""
    order: list[int] = []
    seen: set[int] = set()
    ranked = sorted(range(len(scopes)), key=lambda i: (-len(scopes[i]), i))
    for i in ranked:
        for v in scopes[i]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    if len(order) != n:
        raise ValueError("factor scopes do not cover every variable")
    return tuple(order)


def _admissible_cliques(family: str, num_nodes: int, p: float, max_clique: int,
                        rejection_cap: int, rng) -> list[tuple[int, ...]]:
    """The maximal cliques of the first connected Erdos-Renyi G(num_nodes, p)
    draw whose cliques have at most max_clique members. The caller draws its
    tables from the same rng afterwards. Raises GenerationError after
    rejection_cap rejected draws."""
    for _ in range(rejection_cap):
        adj = _erdos_renyi(num_nodes, p, rng)
        if _connected(adj):
            cliques = maximal_cliques(adj)
            if max(len(c) for c in cliques) <= max_clique:
                return cliques
    raise GenerationError(f"no admissible {family} graph within {rejection_cap} attempts")


def gen_fg1(
    n: int,
    k: int,
    seed: int,
    max_clique: int = 4,
    rejection_cap: int = 10_000,
) -> FactorGraph:
    """Connected random graph, one N(0,1) dense factor per maximal clique."""
    if n < 2:
        raise ValueError("fg1 needs at least two variables")
    rng = np.random.default_rng(seed)
    cliques = _admissible_cliques("fg1", n, 2.0 * math.log(n) / n, max_clique, rejection_cap, rng)
    factors = []
    for clique in cliques:
        scope = tuple(v + 1 for v in clique)
        table = rng.standard_normal(k ** len(scope))
        factors.append(Factor(scope=scope, table=table))
    ordering = _ordering_from_scopes([f.scope for f in factors], n)
    return FactorGraph(num_variables=n, num_states=k, factors=tuple(factors), ordering=ordering)


def gen_fg2(
    n: int,
    k: int,
    seed: int,
    max_clique: int = 4,
    rejection_cap: int = 10_000,
    scale: float = 2.0,
) -> FactorGraph:
    """Binary variables (k must be 2) in XOR-linked pairs plus MAJORITY
    factors on cliques of a random graph over the pairs, all scaled by `scale`."""
    if k != 2:
        raise ValueError(f"fg2 variables are binary: k must be 2, not {k}")
    if n < 4 or n % 2:
        raise ValueError("fg2 needs an even number of variables, at least 4")
    num_pairs = n // 2
    rng = np.random.default_rng(seed)
    cliques = _admissible_cliques("fg2", num_pairs, 3.0 * math.log(num_pairs) / n, max_clique,
                                  rejection_cap, rng)
    factors = []
    not_table = scale * np.array([0.0, 1.0, 1.0, 0.0])
    for j in range(num_pairs):
        factors.append(Factor(scope=(2 * j + 1, 2 * j + 2), table=not_table.copy()))
    for clique in cliques:
        members = [2 * j + 1 + int(rng.integers(0, 2)) for j in clique]
        scope = tuple(sorted(members))
        factors.append(Factor(scope=scope, table=_majority_table(len(scope), scale)))
    return FactorGraph(num_variables=n, num_states=k, factors=tuple(factors),
                       ordering=tuple(range(1, n + 1)))


def _majority_table(scope_size: int, scale: float) -> np.ndarray:
    """scale * [half or more of the scope variables in state 2], row-major."""
    table = np.zeros(2**scope_size)
    for idx in range(2**scope_size):
        bits = [(idx >> (scope_size - 1 - i)) & 1 for i in range(scope_size)]
        table[idx] = scale if sum(bits) * 2 >= scope_size else 0.0
    return table


FAMILIES = {
    "chains": gen_chain,
    "permuted_chains": gen_permuted_chain,
    "fg1": gen_fg1,
    "fg2": gen_fg2,
}


@dataclass(frozen=True, kw_only=True)
class GeneratorSpec:
    """One instance of a family; each field's help is also its flag's. The
    fields are keyword-only, so k keeps its default ahead of seed, which has
    none, and the flags keep their order."""

    family: str = config_field(help="the instance family", choices=tuple(sorted(FAMILIES)))
    n: int = config_field(help="the number of variables")
    k: int = config_field(2, "the number of states of each variable")
    seed: int = config_field(help="the seed of the instance's draw")
    params: dict = config_field(help="a JSON object of family parameters", default_factory=dict)

    def __post_init__(self):
        check_fields(self)
        if self.n < 1 or self.k < 2:
            raise ValueError("a graph needs n >= 1 variables of k >= 2 states")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        signature = inspect.signature(FAMILIES[self.family])
        try:
            signature.bind(self.n, self.k, self.seed, **self.params)
            for name, value in self.params.items():  # each of its default's type
                check_type(name, value, type(signature.parameters[name].default).__name__)
        except TypeError as exc:  # an unknown or mistyped parameter
            raise ValueError(f"{self.family} params: {exc}") from None


def generate(spec: GeneratorSpec) -> FactorGraph:
    """The spec's graph. Parameter values that overflow or divide by zero
    raise ValueError, as other bad values do."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return FAMILIES[spec.family](spec.n, spec.k, spec.seed, **spec.params)
    except ArithmeticError as exc:  # FloatingPointError, or OverflowError from a float power
        raise ValueError(f"{spec.family} params {spec.params}: {exc}") from None
