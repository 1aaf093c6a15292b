"""The benchmark's own tests: `python3 -m pytest perfbench -q` from the repo root."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402
from tracer import PACKAGE, TARGETS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    assert workload in {w["name"] for w in SPEC["workloads"]}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _attribute_snapshot() -> dict:
    """Every attribute a tracer could replace: module globals and class dicts."""
    snap = {}
    for _, module_name, attr_path, _ in TARGETS:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        *owner_path, attr = attr_path.split(".")
        if owner_path:
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            snap[(owner, attr)] = owner.__dict__.get(attr)
        for name, mod in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                snap[(mod, attr)] = mod.__dict__.get(attr)
    return snap


def test_tracer_restores_every_wrapped_attribute():
    import treesample.cli  # noqa: F401  (holds imported copies of wrapped functions)

    before = _attribute_snapshot()
    with pytest.raises(KeyError):
        with Tracer() as tracer:
            during = _attribute_snapshot()
            raise KeyError("leave the block by an exception")
    assert tracer.absent == []
    assert any(during[key] is not value for key, value in before.items())
    after = _attribute_snapshot()
    for key, value in before.items():
        assert after[key] is value, key


def test_missing_targets_are_reported_absent_not_raised():
    from treesample import search

    targets = (
        ("search.expand", "search", "expand", None),
        ("gone.method", "search", "TreeNode.no_such_method", None),
        ("gone.class", "search", "NoSuchClass.value", None),
        ("gone.module", "no_such_module", "f", None),
    )
    original = search.expand
    with Tracer(targets) as tracer:
        assert search.expand is not original
    assert search.expand is original
    assert tracer.absent == ["search.TreeNode.no_such_method", "search.NoSuchClass.value",
                             "no_such_module.f"]


def test_self_time_excludes_nested_spans():
    import numpy as np
    from treesample import HeuristicPrior
    from treesample.generators import GeneratorSpec, generate

    graph = generate(GeneratorSpec(family="chains", n=6, k=3, seed=0))
    prefixes = [(), (1,), (1, 2), (3, 3, 1)]
    with Tracer() as tracer:
        out = HeuristicPrior().evaluate_batch(graph, prefixes)
    assert out.shape == (4, 3) and np.all(np.isfinite(out))
    batch, single = tracer.stats["prior.evaluate_batch"], tracer.stats["prior.evaluate"]
    assert (batch.calls, batch.rows, single.calls, single.rows) == (1, 4, 4, 4)
    assert batch.self_s == pytest.approx(batch.total_s - single.total_s, abs=1e-9)
    assert 0.0 <= batch.self_s <= batch.total_s


def _complete_chain_cell():
    """A real cell whose tree is built until its root is complete."""
    cell = next(c for c in workloads.cells("tree-build", tiny=True) if c.name.endswith("/complete"))
    graphs = workloads.make_instances([cell], mlp_path=None)
    return cell, graphs[cell.instance]


def test_complete_chain_cell_passes_the_root_check():
    cell, graph = _complete_chain_cell()
    res = workloads.run_cell(cell, graph, seed=1, mlp_path=None)
    assert res.failures == []
    assert res.approx.root_complete()
    assert res.log_z_estimate == pytest.approx(res.log_z, abs=workloads.ROOT_TOL)


@pytest.mark.parametrize("case", ["overspent", "kl_below_stderr", "root_off", "warning"])
def test_check_cell_reports_each_failing_check(case):
    import warnings

    cell, graph = _complete_chain_cell()
    res = workloads.run_cell(cell, graph, seed=1, mlp_path=None)
    assert workloads.check_cell(res, res.approx, []) == []
    caught = []
    if case == "overspent":
        res.spent = res.budget + 1
    elif case == "kl_below_stderr":
        res.kl, res.stderr = -0.5, 0.1
    elif case == "root_off":
        res.log_z += 10 * workloads.ROOT_TOL
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            warnings.warn("divide by zero encountered in log", RuntimeWarning)
    failures = workloads.check_cell(res, res.approx, caught)
    assert len(failures) == 1, failures


def test_a_repeated_run_seed_must_repeat_its_kl():
    import run

    assert not set(run.run_seeds(1)) & set(run.run_seeds(2))
    passes = [[workloads.CellResult("c", "smc", 10, kl=kl)] for kl in (1.0, 2.0, 1.0, 2.5)]
    run.check_repeats(passes, period=2)
    assert [res[0].failures for res in passes[:3]] == [[], [], []]
    assert passes[3][0].failures == ["kl 2.5 differs from 2.0 at the same run seed"]


def test_phase_times_are_divided_by_the_probe():
    import run

    slow = workloads.CellResult("slow", "smc", 20, build_s=1.0, oracle_s=0.2, metrics_s=0.8,
                                spent=10, probe_s=2 * run.PROBE_REF_S)
    fast = workloads.CellResult("fast", "smc", 20, build_s=1.0, oracle_s=0.2, metrics_s=0.8,
                                spent=10, probe_s=run.PROBE_REF_S)
    m = run.pass_metrics([slow, fast])
    assert m["raw_wall_s"] == pytest.approx(4.0)
    assert m["wall_s"] == pytest.approx(3.0)
    assert m["build_s"] == pytest.approx(1.5)
    assert m["build_units_per_s"] == pytest.approx(20 / 1.5)
    assert m["budget_used_frac"] == pytest.approx(0.5)
