"""The verify suite's bookkeeping, apart from the criteria themselves."""

import time

from coxforge.verify import CRITERIA, run_criterion


def test_an_aborted_criterion_keeps_its_elapsed_time(monkeypatch):
    def check_sleep_raise(s, profile, rng):
        s.check("one check", 1, 1)
        time.sleep(0.3)
        raise RuntimeError("stopped")

    monkeypatch.setitem(CRITERIA, 99, ("scratch", check_sleep_raise))
    results = run_criterion(99, "quick", 0)
    assert [(r.name, r.computed, r.passed) for r in results] == [
        ("one check", "1", True), ("scratch aborted", "RuntimeError: stopped", False)]
    # the time spent after the last check counts against the aborted record
    assert results[-1].seconds >= 0.3
