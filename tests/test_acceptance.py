"""The full reproducibility gate: every criterion, full profile, seed 0.

Each criterion must pass every one of its checks exactly, reproduce its
records in tests/verify_full_golden.json exactly and finish inside its
wall-clock budget; one summary line per criterion lands in the terminal
section printed by conftest.
"""

import json
import time
from pathlib import Path

import pytest

from coxforge.verify import CRITERIA, run_criterion

# every record of `coxforge verify --profile full --seed 0`, in run order
GOLDEN = json.loads((Path(__file__).parent / "verify_full_golden.json").read_text())

# seconds; criterion 1 is budgeted per check, the rest per criterion
BUDGETS = {
    1: 10.0,
    2: 60.0,
    3: 1.0,
    4: 120.0,
    5: 120.0,
    6: 10.0,
    7: 180.0,
    8: 60.0,
    9: 900.0,
    10: 1.0,
    11: 300.0,
}

PER_CHECK = {1}


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(criterion, acceptance_log):
    name = CRITERIA[criterion][0]
    start = time.monotonic()
    results = run_criterion(criterion, profile="full", seed=0)
    elapsed = time.monotonic() - start

    assert results, f"criterion {criterion} produced no checks"
    failures = [res for res in results if not res.passed]
    status = "PASS" if not failures else "FAIL"
    acceptance_log(
        f"criterion {criterion:2d} ({name}): {status} - "
        f"{len(results)} checks in {elapsed:.1f}s (budget {BUDGETS[criterion]:.0f}s)")

    assert [res.to_json() for res in results] == [
        rec for rec in GOLDEN if rec["criterion"] == criterion]
    for res in failures:
        pytest.fail(
            f"criterion {criterion} ({name}) check {res.name!r}: "
            f"expected {res.expected}, computed {res.computed}")
    if criterion in PER_CHECK:
        worst = max(res.seconds for res in results)
        assert worst < BUDGETS[criterion], (
            f"criterion {criterion} slowest check took {worst:.1f}s")
    else:
        assert elapsed < BUDGETS[criterion], (
            f"criterion {criterion} took {elapsed:.1f}s")
