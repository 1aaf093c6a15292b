#!/usr/bin/env python3
"""The treesample benchmark: one workload, end-to-end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload tree-build --seed 1 --seconds 20 --trace 0

The program is imported from `src/` of the same checkout. The run repeats
whole passes over the workload's cells until `--seconds` have been measured
(and at least RUN_SEEDS passes). Pass p uses run seed
RUN_SEEDS * seed + p % RUN_SEEDS, so a run averages its quality figures over
RUN_SEEDS run seeds and checks that a repeated seed repeats its results. The
metrics are medians over passes. Times are reported in reference seconds:
each cell's or set-up's seconds scaled by how much slower than PROBE_REF_S a
fixed probe loop ran just before and after it. Set-up is timed once per pass. Standard output gets
two lines: a detail record (environment, per-cell results, quality figures)
and, last, the result object `{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1` each
cell runs untraced and then traced, and the metrics are the per-layer ones
plus the tracing overhead (traced minus untraced wall time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs HERE on sys.path)

# One BLAS thread (<= nproc on any machine), so that no shell setting changes
# the MLP cell's timings between two result files.
BLAS_THREADS = 1
# Stop starting passes after this long, so a run ends well within 180 s.
MAX_MEASURE_S = 100.0
# Run seeds per benchmark seed. One run seed's KL on the baselines workload
# spreads 0.25 (quartiles over median, seeds 1-10), mostly from the BP and
# Gibbs cells on chains, which keep only a few atoms; averaging six run seeds
# brings that under 0.1.
RUN_SEEDS = 6

# The machine's speed drifts by 15-25% over minutes (raw set-up times, whose
# work does not depend on the seed, spread 0.21-0.37 over ten runs), so raw
# times of ten runs spread as much. Timing a fixed
# pure-Python loop next to each cell and each set-up and dividing it out
# leaves the program's own cost. PROBE_REF_S is about the loop's time on the
# machine the benchmark was written on, so that reference seconds read close
# to seconds. setup_s is in reference seconds too; its unit reads "s" because
# the benchmark's result format requires that of setup_s.
PROBE_LOOPS = 100_000
PROBE_REF_S = 0.012

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "ref_s",
    "build_s": "ref_s",
    "oracle_s": "ref_s",
    "metrics_s": "ref_s",
    "build_units_per_s": "1/ref_s",
    "peak_rss_mb": "MiB",
    "budget_used_frac": "fraction",
    "kl_mean": "nats",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric a traced run reports."""
    from tracer import TARGETS

    units = {}
    for name, module, _, rows_of in TARGETS:
        if module in ("baselines", "exact"):
            units[f"{name}.s"] = "s"
            continue
        units[f"{name}.calls"] = "count"
        if rows_of is not None:
            units[f"{name}.rows"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "search.nodes": "count",
        "search.max_depth": "count",
        "search.complete_nodes": "count",
        "baselines.gibbs.site_update_us": "us",
        "baselines.bp.round_us": "us",
        "baselines.gibbs.zero_conditionals": "count",
        "quality.log_z_abs_err": "nats",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def limit_blas_threads() -> None:
    """Run BLAS (the MLP prior's matmuls) on BLAS_THREADS threads; set before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def git_commit() -> str | None:
    """HEAD commit of the checkout; None when it is not a git clone."""
    if not (ROOT / ".git").exists():  # never report a commit of an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:  # no git program
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "treesample").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int, nproc: int) -> dict:
    import numpy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256_16": source_digest(),
        "seed": seed,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def probe_s() -> float:
    """Seconds of a fixed loop of dict stores and float arithmetic, the kind
    of interpreter-bound work the program does."""
    start = time.perf_counter()
    table, total = {}, 0.0
    for i in range(PROBE_LOOPS):
        table[i & 255] = total
        total += (i % 7) * 0.5
    return time.perf_counter() - start


def set_up(cell_list, mlp_path) -> tuple[float, float, dict]:
    """(reference seconds, seconds, graphs) of one set-up: a fresh interpreter
    importing the package, plus instance generation and prior construction
    in-process."""
    import_cmd = [sys.executable, "-c",
                  "import sys; sys.path.insert(0, sys.argv[1]); import treesample", str(SRC)]
    before = probe_s()
    t0 = time.perf_counter()
    subprocess.run(import_cmd, cwd=ROOT, check=True, timeout=60)
    graphs = workloads.make_instances(cell_list, mlp_path)
    seconds = time.perf_counter() - t0
    return seconds * PROBE_REF_S * 2 / (before + probe_s()), seconds, graphs


def run_pass(cell_list, graphs, seed, mlp_path):
    """One pass over the cells. A cell's probe_s is the mean of the probes
    run just before and just after it."""
    results, before = [], probe_s()
    for cell in cell_list:
        res = workloads.run_cell(cell, graphs[cell.instance], seed, mlp_path)
        after = probe_s()
        res.probe_s = (before + after) / 2
        results.append(res)
        before = after
    return results


def run_seeds(seed: int) -> list[int]:
    """The run seeds of benchmark seed `seed`; two benchmark seeds share none."""
    return [RUN_SEEDS * seed + j for j in range(RUN_SEEDS)]


def done(start, seconds, num_passes, min_passes=1) -> bool:
    """True once `seconds` are measured over at least `min_passes` passes, or
    when one more pass may not fit."""
    elapsed = time.perf_counter() - start
    return ((elapsed >= seconds and num_passes >= min_passes)
            or elapsed * (1 + 1 / num_passes) > MAX_MEASURE_S)


def timed_passes(cell_list, graphs, seed, mlp_path, seconds):
    """Untraced passes until `seconds` are measured, pass p at run seed
    run_seeds(seed)[p % RUN_SEEDS], each followed by one set-up.
    Returns (passes, (reference seconds, seconds) of each pass's set-up)."""
    seeds = run_seeds(seed)
    passes, setup_times = [], []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cell_list, graphs, seeds[len(passes) % RUN_SEEDS], mlp_path))
        for r in passes[-1]:
            r.approx = None  # release trees before the next pass
        setup_times.append(set_up(cell_list, mlp_path)[:2])
        if done(start, seconds, len(passes), min_passes=RUN_SEEDS):
            return passes, setup_times


def traced_passes(cell_list, graphs, seed, mlp_path, seconds, tracer):
    """Paired passes until `seconds` are measured: each cell runs untraced and
    then traced right after, so both halves of a pair see the same machine
    load. Every pass uses the first run seed, so that counts repeat exactly.
    Returns (untraced passes, traced passes, one layer record per pass)."""
    seed = run_seeds(seed)[0]
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        tracer.reset()
        plain, seen = [], []
        for cell in cell_list:
            graph = graphs[cell.instance]
            plain.append(workloads.run_cell(cell, graph, seed, mlp_path, repeat=False))
            with tracer:
                seen.append(workloads.run_cell(cell, graph, seed, mlp_path, repeat=False))
        layers.append(layer_metrics(tracer, cell_list, graphs, seen))
        for r in plain + seen:
            r.approx = None
        untraced.append(plain)
        traced.append(seen)
        if done(start, seconds, len(traced)):
            return untraced, traced, layers


def pass_metrics(results) -> dict:
    """Metrics of one untraced pass; times in reference seconds, and in plain
    seconds under raw_*."""
    out = {}
    for phase in ("build_s", "oracle_s", "metrics_s"):
        out["raw_" + phase] = sum(getattr(r, phase) for r in results)
        out[phase] = sum(getattr(r, phase) * PROBE_REF_S / r.probe_s for r in results)
    out["raw_wall_s"] = out["raw_build_s"] + out["raw_oracle_s"] + out["raw_metrics_s"]
    out["wall_s"] = out["build_s"] + out["oracle_s"] + out["metrics_s"]
    spent = sum(r.spent or 0 for r in results)
    out["build_units_per_s"] = spent / out["build_s"] if out["build_s"] > 0 else 0.0
    out["budget_used_frac"] = statistics.fmean((r.spent or 0) / r.budget for r in results)
    out["probe_s"] = statistics.median(r.probe_s for r in results)
    return out


def quality(passes) -> dict:
    """Mean KL and |log Z error| over the cells of the first RUN_SEEDS passes."""
    results = [r for res in passes[:RUN_SEEDS] for r in res]
    kls = [r.kl for r in results if r.kl is not None]
    errs = [abs(r.log_z_estimate - r.log_z) for r in results
            if r.log_z_estimate is not None and r.log_z is not None]
    return {
        "kl_mean": statistics.fmean(kls) if kls else 0.0,
        "log_z_abs_err": statistics.fmean(errs) if errs else 0.0,
    }


def tree_shape(approx) -> tuple[int, int, int]:
    """(nodes, max depth, complete nodes) of a search tree; zeros if unknown."""
    nodes = getattr(approx, "nodes", None)
    if not isinstance(nodes, dict):
        return 0, 0, 0
    depth = max((len(p) for p in nodes), default=0)
    complete = sum(1 for node in nodes.values() if getattr(node, "complete", False))
    return len(nodes), depth, complete


def layer_metrics(tracer, cell_list, graphs, results) -> dict:
    out = {}
    for name, module, _, rows_of in tracer.targets:
        stats = tracer.stats[name]
        if module in ("baselines", "exact"):
            out[f"{name}.s"] = stats.total_s
            continue
        out[f"{name}.calls"] = stats.calls
        if rows_of is not None:
            out[f"{name}.rows"] = stats.rows
        out[f"{name}.self_s"] = stats.self_s
    nodes = depth = complete = 0
    site_updates = bp_rounds = zero_conditionals = 0
    for cell, r in zip(cell_list, results):
        graph = graphs[cell.instance]
        if cell.method == "treesample":
            n, d, c = tree_shape(r.approx)
            nodes, depth, complete = nodes + n, max(depth, d), complete + c
        elif cell.method == "gibbs" and r.approx is not None:
            sweeps = cell.options["num_gibbs_sweeps"]
            site_updates += r.approx.num_particles * sweeps * graph.num_variables
            zero_conditionals += r.approx.zero_conditional_count
        elif cell.method == "bp" and r.spent:
            bp_rounds += r.spent // graph.num_factors
    gibbs_s = tracer.stats["baselines.gibbs"].total_s
    bp_s = tracer.stats["baselines.bp_sample"].total_s
    out.update({
        "search.nodes": nodes,
        "search.max_depth": depth,
        "search.complete_nodes": complete,
        "baselines.gibbs.site_update_us": 1e6 * gibbs_s / site_updates if site_updates else 0.0,
        "baselines.bp.round_us": 1e6 * bp_s / bp_rounds if bp_rounds else 0.0,
        "baselines.gibbs.zero_conditionals": zero_conditionals,
    })
    return out


def check_repeats(passes, period) -> None:
    """Pass p repeats the run seed of pass p - period and must give the same
    KL, traced or not."""
    for p in range(period, len(passes)):
        for first, again in zip(passes[p % period], passes[p]):
            if again.kl != first.kl and not again.failures:
                again.failures.append(f"kl {again.kl} differs from {first.kl} at the same run seed")


def median_of(records: list[dict]) -> dict:
    """Per-key median; counts stay whole numbers."""
    out = {}
    for key in records[0]:
        values = [r[key] for r in records]
        exact = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if exact else statistics.median(values)
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny budgets, for the benchmark's own smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treesample" / "__init__.py").is_file():
        print(f"error: no treesample package under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import treesample

    if Path(treesample.__file__).resolve().parent != SRC / "treesample":
        print(f"error: imported treesample from {treesample.__file__}", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    mlp_path = WORK / "mlp-untrained.ckpt"
    cell_list = workloads.cells(args.workload, tiny=args.tiny)
    *first_setup, graphs = set_up(cell_list, mlp_path)
    # Warm-up: one untimed pass at tiny budgets fills caches and lazy imports.
    run_pass(workloads.cells(args.workload, tiny=True), graphs, args.seed, mlp_path)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        untraced, traced, layers = traced_passes(cell_list, graphs, args.seed, mlp_path,
                                                 args.seconds, tracer)
        passes, setup_times, period = untraced + traced, [tuple(first_setup)], 1
    else:
        passes, setup_times = timed_passes(cell_list, graphs, args.seed, mlp_path, args.seconds)
        setup_times.append(tuple(first_setup))
        tracer, period = None, RUN_SEEDS
    setup_s = statistics.median(ref for ref, _ in setup_times)
    check_repeats(passes, period)

    per_pass = [] if args.trace else [pass_metrics(results) for results in passes]
    attempted = sum(len(results) for results in passes)
    failed = sum(1 for results in passes for r in results if r.failures)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed, nproc),
        "run_seeds": run_seeds(args.seed)[:1] if args.trace else run_seeds(args.seed),
        "setup_s": setup_s,
        "raw_setup_s": statistics.median(raw for _, raw in setup_times),
        "passes": per_pass,
        "cells": [r.to_json_dict() for r in passes[0]],
        "failures": sorted({f"{r.name}: {f}" for res in passes for r in res for f in r.failures}),
        "quality": quality(passes[:1] if args.trace else passes),
        "trace_absent": tracer.absent if tracer is not None else [],
    }
    if args.trace:
        metrics = median_of(layers)
        metrics["quality.log_z_abs_err"] = detail["quality"]["log_z_abs_err"]
        plain_wall = [sum(r.wall_s for r in results) for results in untraced]
        traced_wall = [sum(r.wall_s for r in results) for results in traced]
        metrics["trace.wall_s"] = statistics.median(traced_wall)
        metrics["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_wall, plain_wall))
        units = per_layer_units()
    else:
        metrics = median_of(per_pass)
        detail["pass_medians"] = dict(metrics)
        metrics["setup_s"] = setup_s
        metrics["kl_mean"] = detail["quality"]["kl_mean"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
