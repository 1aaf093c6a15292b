"""Workload definitions and per-cell correctness checks.

A cell is one `treesample run`: generate an instance, build the
approximation, pick the exact oracle, compute the metrics. Each cell goes
through the same public calls that `cli.evaluate_run` makes, timed one by
one, so the phases add up to what a user of `run` waits for.

Why each workload exists (which layers it stresses) is recorded in
BENCHMARK.json and in README.md next to this file.
"""

from __future__ import annotations

import math
import statistics
import time
import warnings
from dataclasses import dataclass, field

WORKLOADS = ("tree-build", "tree-eval", "baselines")

# Instances are fixed per cell: the benchmark seed only moves the run seeds.
# Instance-to-instance variation in KL and in traversal depth is far larger
# than any bound a regression check could use, so a seed that changed the
# graphs would make every metric unsteady.
INSTANCE_SEEDS = {"fg1-18": 3, "fg2-18": 5, "chains-20": 7, "fg1-14": 11, "chains-6": 13}

# The small chain is built until its root is complete (1092 of the 2000 units),
# so that the complete-root check runs against a real tree in every tree-build
# pass, the smoke runs included.
COMPLETE_CHAIN_BUDGET = 2000

# A complete root value must equal the oracle's log Z to this tolerance.
ROOT_TOL = 1e-9
# kl may fall below -4 stderr by this much: on a complete tree every sampled
# term equals -log Z, so stderr is 0 and kl is rounding error (about -4e-15
# on the complete chain cell), not a negative divergence.
KL_ROUNDING_TOL = 1e-9

# In an untraced pass, a phase shorter than SHORT_PHASE_S is called again
# (same seeds, same result) until its calls add up to SHORT_PHASE_S, and its
# median call counts: one call of the millisecond chain oracle is mostly timer
# and cache noise. Traced passes call each phase once, so that call counts
# describe one run of the cell.
SHORT_PHASE_S = 0.05

@dataclass(frozen=True)
class Cell:
    name: str
    family: str
    n: int
    k: int
    method: str
    budget: int
    prior: str = "heuristic"  # "heuristic" or "mlp"
    options: dict = field(default_factory=dict)  # extra RunConfig fields

    @property
    def instance(self) -> str:
        return f"{self.family}-{self.n}"


def cells(workload: str, tiny: bool = False) -> list[Cell]:
    """The cells of one workload; `tiny` shrinks budgets for smoke tests."""
    if workload == "tree-build":
        samples = {"metric_samples": 20 if tiny else 200}
        heuristic_budget, mlp_budget = (300, 100) if tiny else (2_500, 1_000)
        return [
            Cell("fg1-n18-k2/heuristic/reward_eval", "fg1", 18, 2, "treesample",
                 heuristic_budget, options=dict(samples, cost_mode="reward_eval")),
            Cell("fg2-n18/heuristic/factor_eval", "fg2", 18, 2, "treesample", heuristic_budget,
                 options=dict(samples, cost_mode="factor_eval")),
            Cell("fg2-n18/mlp/reward_eval", "fg2", 18, 2, "treesample", mlp_budget, prior="mlp",
                 options=dict(samples, cost_mode="reward_eval")),
            Cell("chains-n6-k3/complete", "chains", 6, 3, "treesample", COMPLETE_CHAIN_BUDGET,
                 options=samples),
        ]
    if workload == "tree-eval":
        samples = {"metric_samples": 20 if tiny else 1_000}
        budget = 100 if tiny else 1_000
        return [
            Cell("chains-n20-k10/treesample", "chains", 20, 10, "treesample", budget,
                 options=samples),
            Cell("fg1-n14-k2/treesample", "fg1", 14, 2, "treesample", budget, options=samples),
        ]
    if workload == "baselines":
        smc_budget, gibbs_budget, bp_budget = (
            (2_000, 10_000, 2_000) if tiny else (25_000, 25_000, 8_000)
        )
        sweeps, rounds = (2, 1) if tiny else (20, 10)
        out = []
        for family, n, k in (("fg1", 14, 2), ("chains", 20, 10)):
            tag = f"{family}-n{n}-k{k}"
            out += [
                Cell(f"{tag}/smc", family, n, k, "smc", smc_budget),
                Cell(f"{tag}/gibbs", family, n, k, "gibbs", gibbs_budget,
                     options={"num_gibbs_sweeps": sweeps}),
                Cell(f"{tag}/bp", family, n, k, "bp", bp_budget,
                     options={"num_message_rounds": rounds}),
            ]
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def make_instances(cell_list, mlp_path):
    """Generate every instance the cells use and write the untrained MLP prior.

    Returns {instance key: FactorGraph}. This is the benchmark's set-up.
    """
    from treesample import generators
    from treesample.prior import Adam, MLPValueFunction, TrainConfig, save_checkpoint

    graphs = {}
    for cell in cell_list:
        if cell.instance not in graphs:
            spec = generators.GeneratorSpec(family=cell.family, n=cell.n, k=cell.k,
                                            seed=INSTANCE_SEEDS[cell.instance])
            graphs[cell.instance] = generators.generate(spec)
    mlp_cells = [c for c in cell_list if c.prior == "mlp"]
    if mlp_cells:
        graph = graphs[mlp_cells[0].instance]
        dim = graph.num_variables * (graph.num_states + 1)
        mlp = MLPValueFunction(dim, graph.num_states, seed=0)
        save_checkpoint(mlp_path, mlp, Adam(mlp.parameters()), episode=0, config=TrainConfig())
    return graphs


@dataclass
class CellResult:
    name: str
    method: str
    budget: int
    build_s: float = 0.0
    oracle_s: float = 0.0
    metrics_s: float = 0.0
    spent: int | None = None
    kl: float | None = None
    stderr: float | None = None
    log_z: float | None = None
    log_z_estimate: float | None = None
    failures: list = field(default_factory=list)
    probe_s: float = 0.0  # machine-speed probe around the cell, set by the runner
    approx: object = None  # kept only while the pass runs, for tree statistics

    @property
    def wall_s(self) -> float:
        return self.build_s + self.oracle_s + self.metrics_s

    def to_json_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "approx"}


def timed(call, repeat: bool):
    """(median seconds per call, last result) of call(), called again while
    `repeat` and the calls add up to less than SHORT_PHASE_S."""
    times = []
    while True:
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
        if not repeat or sum(times) >= SHORT_PHASE_S:
            return statistics.median(times), result


def run_cell(cell: Cell, graph, seed: int, mlp_path, repeat: bool = True) -> CellResult:
    """Build, solve and score one cell; failures are recorded, never raised."""
    from treesample import cli

    res = CellResult(cell.name, cell.method, cell.budget)
    try:
        prior = str(mlp_path) if cell.prior == "mlp" else "heuristic"
        config = cli.RunConfig(method=cell.method, budget=cell.budget, run_seed=seed,
                               prior=prior, **cell.options)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            res.build_s, approx = timed(lambda: cli.run_method(graph, config), repeat)
            res.oracle_s, oracle = timed(lambda: cli.pick_oracle(graph, config.oracle_cap), repeat)
            res.metrics_s, report = timed(lambda: cli.evaluate_method(
                config.method, approx, graph, oracle=oracle, num_samples=config.metric_samples,
                seed=config.run_seed + 1, budget=config.budget), repeat)
        res.approx = approx
        res.spent, res.kl, res.stderr = report.budget_spent, report.kl, report.stderr
        res.log_z = report.log_z
        if cell.method == "treesample":
            res.log_z_estimate = approx.root_value()
        else:
            res.log_z_estimate = getattr(approx, "log_z_estimate", None)
        res.failures = check_cell(res, approx, caught)
    except Exception as exc:  # one broken cell must not hide the others
        res.failures = [f"raised {type(exc).__name__}: {exc}"]
    return res


def check_cell(res: CellResult, approx, caught) -> list[str]:
    """The correctness checks of one cell; returns the failed ones."""
    failures = []
    if res.spent is None or res.spent > res.budget:
        failures.append(f"ledger spent {res.spent} of budget {res.budget}")
    if res.kl is None or not math.isfinite(res.kl):
        failures.append(f"kl is {res.kl}")
    elif res.kl < -4.0 * (res.stderr or 0.0) - KL_ROUNDING_TOL:
        failures.append(f"kl {res.kl} below -4 stderr ({res.stderr})")
    root_complete = getattr(approx, "root_complete", None)
    if root_complete is not None and root_complete():
        if res.log_z is None or abs(res.log_z_estimate - res.log_z) > ROOT_TOL:
            failures.append(
                f"complete root value {res.log_z_estimate} != oracle log Z {res.log_z}"
            )
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            failures.append(f"RuntimeWarning: {w.message}")
    return failures
