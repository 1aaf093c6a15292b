"""Golden digests of one small `bench` grid: the CSV and the summary bytes.

fg1 n6 with all five methods at budgets 50 and 200 over 2 instances, with
few enough Gibbs sweeps and BP rounds that both run at budget 200 and BP's
cells at budget 50 are BudgetTooSmallError rows. The same bytes must come
out serially and from two worker processes. The CSV digest was re-recorded
when the oracle's entropy came to be log Z minus the expected log-density
from the frontier pass: only delta_energy and delta_entropy moved, by at
most 5.4e-13 relative; every other column, and the summary, kept its bytes.
"""

from __future__ import annotations

import hashlib

import pytest

from treesample.cli import main

CSV_SHA256 = "d32918e244acba6db0b7afa1489befa1150b432593cdeffaadf89d2e326ef7c5"
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
