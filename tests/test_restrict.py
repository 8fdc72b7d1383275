"""``restrict`` against a fresh ``simulate`` whose window ends at the
cut: the same run observed over a shorter window, bit for bit."""

import math

import numpy as np
import pytest

from gg1lab import acceptance, simulator
from gg1lab.distributions import deterministic, exponential, gamma
from gg1lab.metrics import compute_report
from gg1lab.simulator import simulate

from test_slot_kernel import LEDGER_COLUMNS, families


def assert_same_run(got, want):
    (path, ledger), (ref_path, ref_ledger) = got, want
    assert (path.initial_time, path.final_time) == (ref_path.initial_time, ref_path.final_time)
    assert path.initial_count == ref_path.initial_count
    assert path.times.tobytes() == ref_path.times.tobytes()
    assert path.counts.tobytes() == ref_path.counts.tobytes()
    assert ledger.window == ref_ledger.window
    for name in LEDGER_COLUMNS:
        a, b = getattr(ledger, name), getattr(ref_ledger, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def restricted(run, t_final):
    path, ledger = run
    return path.restrict(t_final), ledger.restrict(t_final)


def check_cut(arrival, service, discipline, warmup, horizon, short, seed):
    """The run over ``horizon`` cut at the window end of a run over
    ``short`` equals that shorter run, and so do their reports."""
    run = simulate(arrival, service, discipline=discipline, warmup=warmup, horizon=horizon, seed=seed)
    fresh = simulate(arrival, service, discipline=discipline, warmup=warmup, horizon=short, seed=seed)
    cut = restricted(run, fresh[0].final_time)
    assert_same_run(cut, fresh)
    assert compute_report(*cut, cost_weight=1.7).to_dict() == compute_report(*fresh, cost_weight=1.7).to_dict()


@pytest.mark.parametrize("warmup", [0.0, 40.0])
@pytest.mark.parametrize("family", sorted(families(1.0)))
@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random-order"])
def test_random_cut_matches_a_fresh_run(discipline, family, warmup):
    seed = 11 * len(family) + int(warmup)
    short = float(np.random.default_rng(seed).uniform(1.0, 299.0))
    check_cut(families(1.0)[family], families(0.85)[family], discipline, warmup, 300.0, short, seed)


@pytest.mark.parametrize("warmup", [0.0, 3.0])
@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random-order"])
def test_cut_at_event_times_with_ties_matches_a_fresh_run(discipline, warmup):
    # arrivals every 0.5 and services of 0.5: each departure lands on the
    # next arrival; services of 0.25 add departure-only instants
    for service in (deterministic(0.5), deterministic(0.25)):
        for k in range(1, 17):
            check_cut(deterministic(0.5), service, discipline, warmup, 20.0, 0.25 * k, seed=2)


@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random-order"])
def test_cut_at_the_window_end_is_the_whole_run(discipline):
    run = simulate(exponential(1.0), gamma(2.0, 0.4), discipline=discipline, warmup=25.0,
                   horizon=200.0, seed=5)
    cut = restricted(run, run[0].final_time)
    assert_same_run(cut, run)
    # slices, not copies
    assert np.shares_memory(cut[0].times, run[0].times)
    assert np.shares_memory(cut[1].departure_time, run[1].departure_time)
    assert compute_report(*cut).to_dict() == compute_report(*run).to_dict()


def test_cut_at_the_window_open():
    # D/D/1, arrivals every 0.5, services of 0.75, window open at 3.0:
    # the sixth customer arrives at the open, and the next event, at 3.5,
    # is an arrival and a departure that cancel
    arrival, service = deterministic(0.5), deterministic(0.75)
    run = simulate(arrival, service, warmup=3.0, horizon=20.0, seed=1)
    path, ledger = restricted(run, 3.0)
    assert (path.initial_time, path.final_time, ledger.window) == (3.0, 3.0, (3.0, 3.0))
    assert path.initial_count == run[0].initial_count
    np.testing.assert_array_equal(path.times, [3.0])
    np.testing.assert_array_equal(ledger.arrival_time, run[1].arrival_time[:6])
    # just past the open, before the next event, it equals a fresh run
    check_cut(arrival, service, "fcfs", 3.0, 20.0, 0.125, seed=1)


def test_cut_outside_the_window_is_rejected():
    path, ledger = simulate(exponential(1.0), exponential(1.5), warmup=10.0, horizon=50.0, seed=3)
    for t in (9.0, math.nextafter(10.0, 0.0), math.nextafter(60.0, math.inf), 61.0, "20", True,
              float("nan")):
        with pytest.raises(ValueError, match=r"t_final must be a finite real number in \[10.0, 60.0\]"):
            path.restrict(t)
        with pytest.raises(ValueError, match=r"t_final must be a finite real number in \[10.0, 60.0\]"):
            ledger.restrict(t)


def test_theorem_runs_simulate_each_seed_once(monkeypatch):
    calls = []
    stream = simulator._stream

    def counting(*args, **kwargs):
        calls.append(kwargs["horizon"])
        return stream(*args, **kwargs)

    monkeypatch.setattr(simulator, "_stream", counting)
    suite = acceptance.AcceptanceSuite(scale=0.02, master_seed=2026, self_check=False)
    runs = suite.theorem_runs()
    assert len(runs) == len(suite._seeds()) == len(calls)
    assert calls == [runs[0]["horizons"][-1]] * len(calls)
    for entry in runs:
        assert [r.window[1] - r.window[0] for r in entry["reports"]] == entry["horizons"]
