"""Traced memory of simulate, compute_report and cycle_rewards on an
M/M/1 run of about a million events.  simulate keeps one record per
window customer and frees its path temporaries early; the other two
walk the run in blocks, so their temporaries stay at a few blocks' worth
whatever the run's length.  The acceptance gate's theorem and inspection
runs fold the run a chunk at a time and hold none of it."""

import tracemalloc

import numpy as np
import pytest

from gg1lab import acceptance, inspection, simulator
from gg1lab.acceptance import THEOREM_HORIZONS, _theorem_entry
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


def test_a_theorem_entry_stays_under_12_mb():
    # simulate, two restricted reports, the full report and the cycles of
    # the materialised run peaked at 47.3 MB
    assert traced_peak(lambda: _theorem_entry(2026, list(THEOREM_HORIZONS))) < 12 * 2**20


def test_a_theorem_entry_does_not_grow_with_the_horizon():
    # R_act - R_obs is the slices of sojourns cut off at the window ends,
    # so a run's report needs nothing of the run beyond its current chunk
    short = traced_peak(lambda: _theorem_entry(2026, [1e4, 1e5, 1e6]))
    long = traced_peak(lambda: _theorem_entry(2026, [1e4, 1e5, 4e6]))
    assert long < short + 2 * 2**20


def inspection_run(n_epochs=100_000, seed=9111):
    """One of criterion 6's inspection runs, as the suite makes it."""
    spec = exponential(1.0)
    epoch_rate = 0.25 / spec.mean()
    horizon = n_epochs / epoch_rate
    epochs = inspection.poisson_epochs((0.0, horizon), epoch_rate, seed + 177)
    samples = inspection._Inspections(epochs, (0.0, horizon))
    for chunk in simulator._stream(exponential(0.5 / spec.mean()), spec, horizon=horizon,
                                   seed=seed + 77):
        samples.add(chunk.start, chunk.departure)
    return samples.samples()


def test_an_inspection_run_stays_under_8_mb():
    # its samples hold 3.3 MB; the materialised run peaked at 23.2 MB
    assert traced_peak(inspection_run) < 8 * 2**20


def test_the_suites_inspection_runs_keep_only_busy_epochs():
    runs = acceptance.AcceptanceSuite(scale=0.4, master_seed=3).inspection_runs()
    for entry in runs.values():
        samples = entry["samples"]
        assert len(samples) > 10_000 and samples.busy.all()
        assert not np.isnan(samples.age).any()

