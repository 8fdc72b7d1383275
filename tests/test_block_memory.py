"""Traced memory of simulate, compute_report and cycle_rewards on an
M/M/1 run of about a million events.  simulate keeps one record per
window customer and frees its path temporaries early; the other two
walk the run in blocks, so their temporaries stay at a few blocks' worth
whatever the run's length."""

import tracemalloc

import pytest

from gg1lab.distributions import exponential
from gg1lab.metrics import compute_report
from gg1lab.renewal import cycle_rewards, detect_cycles
from gg1lab.simulator import simulate


def simulate_run():
    return simulate(exponential(0.5), exponential(1.0), horizon=1e6, seed=1000)


@pytest.fixture(scope="module")
def run():
    path, ledger = simulate_run()
    assert len(path.times) > 990_000
    return path, ledger, detect_cycles(path)


def traced_peak(call):
    """The traced peak of a call above what was held before it, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


def test_simulate_with_its_outputs_stays_under_44_mb():
    # the path and ledger it returns hold about 31 MB; whole-slot
    # columns and the path's merge temporaries peaked at about 52 MB
    assert traced_peak(simulate_run) < 44 * 2**20


def test_compute_report_temporaries_stay_under_8_mb(run):
    # the whole-array report peaked at 38.7 MB on this run
    path, ledger, _ = run
    assert traced_peak(lambda: compute_report(path, ledger)) < 8 * 2**20


def test_cycle_rewards_with_its_outputs_stays_under_16_mb(run):
    # the whole-run reduceat peaked at 22.9 MB
    path, ledger, cycles = run
    assert len(cycles) > 200_000
    assert traced_peak(lambda: cycle_rewards(cycles, path, ledger)) < 16 * 2**20
