"""Command-line entry points: generate instances, run one budgeted inference
method against an instance, sweep a benchmark grid to CSV, and train the
MLP value prior.

Flags are the one way to set a RunConfig, a TrainConfig or a GeneratorSpec:
each field is a flag, made by _add_field_flags, and a field without a default
is a required flag, so run needs --method and --budget and generate needs
--family, --n and --seed.

Exit codes: 0 success, 2 bad input or data, 1 a bug. Bad input (a usage error
such as an unknown flag or a flag without its value, config or parameters, a
malformed or unreadable file, a budget too small for one unit of work or
one whose samples' arrays cannot be allocated, a target of zero total mass)
raises ValueError or OSError, and `main` alone reports it: one JSON object
on stdout, {"error": <exception class>, "message": <text>}, plus "method"
and "budget" when given as flags. Any other exception is a bug: `main`
writes "internal error: ..." to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .baselines import bp_sample, check_resample_threshold, gibbs, sis, smc
from .exact import ORACLE_CAP, StateSpaceCapError, solve_exact
from .generators import GeneratorSpec, generate
from .logmath import NEG_INF, ZeroMassError
from .metrics import evaluate_method
from .model import (COST_MODES, FactorGraph, check_fields, config_field, load_graph,
                    parse_json, save_graph)
from .prior import (Adam, HeuristicPrior, MLPValueFunction, TrainConfig, load_checkpoint,
                    save_checkpoint, train_loop)
from .search import build_tree, check_search_params

METHODS = ("treesample", "sis", "smc", "gibbs", "bp")


@dataclass
class RunConfig:
    """One method run on one instance; each field's help is also its flag's."""

    method: str = config_field(help="the inference method", choices=METHODS)
    budget: int = config_field(help="the cap on the run's cost, in units of cost_mode")
    cost_mode: str = config_field("reward_eval", "what a unit of budget counts", choices=COST_MODES)
    c: float = config_field(2.0, "treesample's exploration bonus is c * max(prior value, epsilon)")
    epsilon: float = config_field(0.1, "the floor of the prior value in that bonus")
    resample_threshold: float = config_field(0.5, "smc resamples if ESS < this share of particles")
    num_gibbs_sweeps: int = config_field(20, "full sweeps of each gibbs chain")
    num_message_rounds: int = config_field(10, "rounds of loopy bp message passing")
    metric_samples: int = config_field(10_000, "the draws the metrics score")
    run_seed: int = config_field(0, "the seed of the build and of the scoring")
    prior: str = config_field("heuristic", "'heuristic' or a checkpoint path")
    oracle_cap: int = config_field(ORACLE_CAP, "the largest table (K to the widest level scope) "
                                               "the exact oracle may build")

    def __post_init__(self):
        check_fields(self)
        for name in ("budget", "run_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        check_resample_threshold(self.resample_threshold)
        for name in ("metric_samples", "num_gibbs_sweeps", "num_message_rounds", "oracle_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        check_search_params(self.c, self.epsilon)


def _checkpoint_for(path, graph: FactorGraph):
    """load_checkpoint(path), checked to fit graph: N(K+1) inputs, K outputs."""
    checkpoint = load_checkpoint(path)
    mlp, n, k = checkpoint[0], graph.num_variables, graph.num_states
    if (mlp.input_dim, mlp.output_dim) != (n * (k + 1), k):
        raise ValueError(f"checkpoint {path} has input_dim {mlp.input_dim} and output_dim "
                         f"{mlp.output_dim}; a graph of N={n}, K={k} needs {n * (k + 1)} and {k}")
    return checkpoint


def run_method(graph: FactorGraph, config: RunConfig):
    """Build the configured approximation: a SearchTree or WeightedAtoms."""
    if config.method == "gibbs":
        return gibbs(
            graph,
            num_sweeps=config.num_gibbs_sweeps,
            budget=config.budget,
            seed=config.run_seed,
            cost_mode=config.cost_mode,
        )
    if config.method == "bp":
        return bp_sample(
            graph,
            num_message_rounds=config.num_message_rounds,
            budget=config.budget,
            seed=config.run_seed,
        )
    if config.prior == "heuristic":
        prior = HeuristicPrior()
    else:
        prior = _checkpoint_for(config.prior, graph)[0]
    if config.method == "treesample":
        return build_tree(graph, prior, config.budget, c=config.c, epsilon=config.epsilon,
                          cost_mode=config.cost_mode)
    if config.method == "sis":
        return sis(graph, prior, config.budget, seed=config.run_seed, cost_mode=config.cost_mode)
    return smc(
        graph,
        prior,
        config.budget,
        resample_threshold=config.resample_threshold,
        seed=config.run_seed,
        cost_mode=config.cost_mode,
    )


def pick_oracle(graph: FactorGraph, cap: int):
    """The exact oracle of graph, or None when its widest level table
    exceeds cap.

    Raises ZeroMassError when the target has zero total mass: there is no
    distribution to score an approximation against.
    """
    try:
        oracle = solve_exact(graph, cap=cap)
    except StateSpaceCapError:
        return None
    if oracle.log_z == NEG_INF:
        raise ZeroMassError("the target has zero mass: every configuration has log-density -inf")
    return oracle


def evaluate_run(graph: FactorGraph, config: RunConfig):
    start = time.perf_counter()
    approx = run_method(graph, config)
    oracle = pick_oracle(graph, config.oracle_cap)
    report = evaluate_method(
        config.method,
        approx,
        graph,
        oracle=oracle,
        num_samples=config.metric_samples,
        seed=config.run_seed + 1,
        budget=config.budget,
    )
    report.wall_clock_s = time.perf_counter() - start
    return approx, report


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    graph = generate(GeneratorSpec(**_given_fields(GeneratorSpec, args)))
    save_graph(graph, args.out)
    print(json.dumps({"out": args.out, "n": graph.num_variables, "k": graph.num_states,
                      "num_factors": graph.num_factors}))
    return 0


def _given_fields(cls, args) -> dict:
    """The fields of dataclass cls that were set by a command-line flag."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name, None) is not None}


def _json_object(text: str) -> dict:
    """A dict field's flag value. Text that is no JSON object raises
    argparse.ArgumentTypeError, which argparse reports by its reason after
    the flag's name, without echoing the text."""
    try:
        value = parse_json(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError("not a JSON object")
    return value


def _add_field_flags(parser, cls, skip=()) -> None:
    """A --<name with dashes> per field of dataclass cls outside skip, of the
    annotation's type, with the metadata's choices and help; a dict field
    takes a JSON object. A field without a default is a required flag; an
    omitted optional flag is None, so _given_fields leaves the field to the
    dataclass."""
    types = {"int": int, "float": float, "str": str, "dict": _json_object}
    for f in fields(cls):
        if f.name not in skip:
            parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                                type=types[f.type], **f.metadata,
                                required=f.default is MISSING and f.default_factory is MISSING)


def cmd_run(args) -> int:
    graph = load_graph(args.instance)
    config = RunConfig(**_given_fields(RunConfig, args))
    if args.dump_tree and config.method != "treesample":
        raise ValueError(f"--dump-tree needs method treesample; {config.method} builds no tree")
    if args.atoms_out and config.method == "treesample":
        raise ValueError("--atoms-out needs a particle method; treesample builds a tree")
    approx, report = evaluate_run(graph, config)
    # the files before the report, so a failed write prints only the error
    if args.dump_tree:
        approx.dump(args.dump_tree)
    if args.atoms_out:
        with open(args.atoms_out, "w") as fh:
            fh.write(approx.to_json_lines())
    data = report.to_json_dict()
    if args.no_telemetry:
        data.pop("wall_clock_s", None)
    print(json.dumps(data, sort_keys=True))
    return 0


_BENCH_COLUMNS = [
    "family", "n", "k", "method", "budget", "instance_seed", "run_seed",
    "delta_kl", "kl", "log_z", "delta_energy", "delta_entropy", "stderr",
    "budget_spent", "error",
]


def _bench_cell(task: tuple[GeneratorSpec, RunConfig]) -> dict:
    spec, config = task
    row = dict.fromkeys(_BENCH_COLUMNS)
    row.update(family=spec.family, n=spec.n, k=spec.k, method=config.method,
               budget=config.budget, instance_seed=spec.seed, run_seed=config.run_seed)
    try:
        _, report = evaluate_run(generate(spec), config)
        row.update((key, value) for key, value in report.to_json_dict().items() if key in row)
    except ValueError as exc:  # a cell's bad data leaves null metrics; a bug exits 1
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _quantiles(values: list[float]) -> dict:
    """Summary of finite or +inf values. np.interp, unlike np.percentile,
    interpolates next to +inf without forming inf - inf (a NaN)."""
    arr = np.sort(np.array(values, dtype=float))
    n = len(arr)
    q25, median, q75 = np.interp(np.array([0.25, 0.5, 0.75]) * (n - 1), np.arange(n), arr)
    if n == 1:
        std = 0.0
    else:
        std = float(np.std(arr, ddof=1)) if arr[-1] < math.inf else math.inf
    return {"mean": float(np.mean(arr)), "std": std, "median": float(median),
            "q25": float(q25), "q75": float(q75), "count": n}


def cmd_bench(args) -> int:
    for flag, value, least in (("--jobs", args.jobs, 1),
                               ("--num-instances", args.num_instances, 1),
                               ("--instance-seed", args.instance_seed, 0)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}")
    methods = args.methods.split(",")
    budgets = [int(b) for b in args.budgets.split(",")]
    for flag, entries in (("--methods", methods), ("--budgets", budgets)):
        for i, entry in enumerate(entries):
            if entry in entries[:i]:
                raise ValueError(f"{flag} lists {entry} more than once")
    given = _given_fields(RunConfig, args)
    # input errors of the whole grid exit 2 here, before any cell runs
    spec = GeneratorSpec(**_given_fields(GeneratorSpec, args), seed=args.instance_seed)
    tasks = []
    for method in methods:
        for budget in budgets:
            config = RunConfig(**given, method=method, budget=budget)
            tasks += [(replace(spec, seed=spec.seed + i),
                       replace(config, run_seed=args.run_seed + i))
                      for i in range(args.num_instances)]
    # the pool forks all of its workers at the first submit, so start no idle ones
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_cell, tasks))
    else:
        rows = [_bench_cell(t) for t in tasks]
    rows.sort(key=lambda r: (r["method"], r["budget"], r["instance_seed"]))

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    summary_rows = []
    for method in sorted(methods):
        for budget in sorted(budgets):
            cell = [
                r for r in rows
                if r["method"] == method and r["budget"] == budget and r["error"] is None
            ]
            if not cell:
                continue
            # one metric per cell; json_float wrote +inf as the string "inf"
            metric = "kl" if all(r["kl"] is not None for r in cell) else "delta_kl"
            stats = _quantiles([float(r[metric]) for r in cell])
            stats.update({"method": method, "budget": budget, "metric": metric})
            summary_rows.append(stats)
    summary_cols = ["method", "budget", "metric", "mean", "std", "median", "q25", "q75", "count"]
    dest = open(args.summary_out, "w", newline="") if args.summary_out else nullcontext(sys.stdout)
    with dest as out:
        writer = csv.DictWriter(out, fieldnames=summary_cols)
        writer.writeheader()
        writer.writerows(summary_rows)
    return 0


def cmd_train(args) -> int:
    graph = load_graph(args.instance)
    given = _given_fields(TrainConfig, args)
    if args.resume:
        fixed = [name for name in given if name != "episodes"]
        if fixed:
            flags = ", ".join("--" + name.replace("_", "-") for name in fixed)
            raise ValueError(f"--resume restores the checkpoint's training config; "
                             f"it cannot be changed by {flags}")
        mlp, adam, start_episode, old_config = _checkpoint_for(args.resume, graph)
        if args.episodes < start_episode:
            raise ValueError(f"--episodes {args.episodes} is below the checkpoint's "
                             f"{start_episode} episodes; --resume cannot go back")
        config = replace(old_config, episodes=args.episodes)
    else:
        start_episode = 0
        config = TrainConfig(**given)
        dim = graph.num_variables * (graph.num_states + 1)
        mlp = MLPValueFunction(dim, graph.num_states, seed=config.seed)
        adam = Adam(mlp.parameters(), learning_rate=config.learning_rate)
    echo = (lambda row: print(json.dumps(row), file=sys.stderr)) if args.verbose else None
    mlp, history = train_loop(graph, config, mlp=mlp, adam=adam,
                              start_episode=start_episode, progress=echo)
    save_checkpoint(args.checkpoint_out, mlp, adam, episode=config.episodes, config=config)
    cols = ["episode", "delta_kl", "delta_kl_prior", "mean_loss", "train_steps",
            "replay_size", "degenerate"]
    with open(args.metrics_out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        writer.writerows(history)
    print(json.dumps({"checkpoint": args.checkpoint_out, "metrics": args.metrics_out,
                      "episodes": len(history)}))
    return 0


# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, which main
    reports like any other bad input; its subcommand parsers are of this
    class too. Flags match only when spelled in full: an abbreviation would
    change meaning once a flag sharing its prefix is added."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="treesample")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random instance as JSON")
    _add_field_flags(p, GeneratorSpec)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run one inference method on an instance")
    p.add_argument("instance")
    _add_field_flags(p, RunConfig)
    p.add_argument("--dump-tree", dest="dump_tree")
    p.add_argument("--atoms-out", dest="atoms_out")
    p.add_argument("--no-telemetry", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="sweep methods x budgets x instances to CSV")
    _add_field_flags(p, GeneratorSpec, skip=("seed",))
    p.add_argument("--methods", required=True, help="comma-separated")
    p.add_argument("--budgets", required=True, help="comma-separated")
    p.add_argument("--num-instances", dest="num_instances", type=int, required=True)
    p.add_argument("--instance-seed", dest="instance_seed", type=int, default=0)
    p.add_argument("--run-seed", dest="run_seed", type=int, default=0)
    _add_field_flags(p, RunConfig, skip=("method", "budget", "run_seed"))
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", required=True)
    p.add_argument("--summary-out", dest="summary_out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="train the MLP value prior on one instance")
    p.add_argument("instance")
    p.add_argument("--episodes", type=int, required=True)
    _add_field_flags(p, TrainConfig, skip=("episodes",))
    p.add_argument("--checkpoint-out", dest="checkpoint_out", required=True)
    p.add_argument("--metrics-out", dest="metrics_out", required=True)
    p.add_argument("--resume")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)
    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input or data; see the module docstring
        error = {"error": type(exc).__name__, "message": str(exc)}
        error.update((key, getattr(args, key)) for key in ("method", "budget")
                     if getattr(args, key, None) is not None)
        print(json.dumps(error))
        return 2
    except Exception as exc:  # a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
