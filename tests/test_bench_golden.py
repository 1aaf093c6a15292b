"""Golden digests of one small `bench` grid: the CSV and the summary bytes.

fg1 n6 with all five methods at budgets 50 and 200 over 2 instances, with
few enough Gibbs sweeps and BP rounds that both run at budget 200 and BP's
cells at budget 50 are BudgetTooSmallError rows. The same bytes must come
out serially and from two worker processes.
"""

from __future__ import annotations

import hashlib

import pytest

from treesample.cli import main

CSV_SHA256 = "e53ca5f4dcf03e5a3bed4a3c5b7dd89dd02798884f9bfaf9a10d5f800018fa21"
SUMMARY_SHA256 = "ac7efd48dfb829974d77c168cd02f90aa6ae3b4218706c784c327a4a42f34141"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_grid_matches_golden(tmp_path, capsys, jobs):
    out, summary = tmp_path / "b.csv", tmp_path / "s.csv"
    code = main(["bench", "--family", "fg1", "--n", "6", "--methods",
                 "treesample,sis,smc,gibbs,bp", "--budgets", "50,200", "--num-instances", "2",
                 "--metric-samples", "200", "--num-gibbs-sweeps", "2",
                 "--num-message-rounds", "2", "--jobs", jobs,
                 "--out", str(out), "--summary-out", str(summary)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == SUMMARY_SHA256
