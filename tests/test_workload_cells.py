"""The benchmark's tiny cells pass its own checks, on every workload.

perfbench/workloads.py is loaded from its source text, so nothing is
written beside it; the tree-build MLP cell's untrained checkpoint is written
to a temporary directory. Each cell runs through run_cell at two run seeds
and once more at the first: check_cell must report no failure (on the
complete chain cell that includes the root value against the oracle's
log Z), and the repeated seed must repeat its KL bit for bit.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads() -> types.ModuleType:
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    sys.modules[module.__name__] = module  # dataclasses resolve the module by name
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), module.__dict__)
    return module


workloads = _load_workloads()
CELLS = [cell for name in workloads.WORKLOADS for cell in workloads.cells(name, tiny=True)]


@pytest.fixture(scope="module")
def mlp_path(tmp_path_factory):
    return tmp_path_factory.mktemp("prior") / "mlp.ckpt"


@pytest.fixture(scope="module")
def graphs(mlp_path):
    return workloads.make_instances(CELLS, mlp_path=mlp_path)


@pytest.mark.parametrize("cell", CELLS, ids=[cell.name for cell in CELLS])
def test_tiny_cell_passes_the_benchmark_checks(cell, graphs, mlp_path):
    results = [workloads.run_cell(cell, graphs[cell.instance], seed, mlp_path, repeat=False)
               for seed in (6, 7, 6)]
    for res in results:
        assert res.failures == []
    assert results[2].kl == results[0].kl
