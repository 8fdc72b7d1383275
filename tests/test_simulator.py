import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gg1lab.distributions import deterministic, exponential, gamma, uniform
from gg1lab.simulator import (
    EventCapExceeded,
    Trajectory,
    fcfs_departure_times,
    lindley_fcfs,
    simulate,
)

import reference_engine

# ---------------------------------------------------------------------------
# Hand-traced D/D/1 case: inter-arrivals of 1, services of 2, window [0, 5].
# Arrivals at 1..5; the server works back-to-back from t=1, so service
# starts are 1,3,5,7,9 and departures 3,5,7,9,11.  The count path is
# 0,1,2,2,3,3 with the flat steps at t=3 and t=5 coalescing away.


def dd1():
    return simulate(deterministic(1.0), deterministic(2.0), horizon=5.0, seed=7)


def test_hand_traced_ledger():
    _, ledger = dd1()
    assert len(ledger) == 5
    np.testing.assert_allclose(ledger.arrival_time, [1, 2, 3, 4, 5])
    np.testing.assert_allclose(ledger.service_start, [1, 3, 5, 7, 9])
    np.testing.assert_allclose(ledger.service_duration, [2, 2, 2, 2, 2])
    np.testing.assert_allclose(ledger.departure_time, [3, 5, 7, 9, 11])
    assert not ledger.pre_window.any()
    assert ledger.window == (0.0, 5.0)


def test_hand_traced_path():
    path, _ = dd1()
    assert path.initial_time == 0.0
    assert path.final_time == 5.0
    assert path.initial_count == 0
    np.testing.assert_array_equal(path.times, [1.0, 2.0, 4.0])
    np.testing.assert_array_equal(path.counts, [1, 2, 3])
    bounds, levels = path.segments()
    assert np.diff(bounds)[levels > 0].sum() == pytest.approx(4.0)


@pytest.mark.parametrize("times,counts,match", [
    ([1, 3, 2, 4], [1, 0, 1, 0], "strictly increase"),  # a segment of negative width
    ([1, 2, 2, 4], [1, 0, 1, 0], "strictly increase"),
    ([-1, 2, 3], [1, 0, 1], "strictly increase"),  # before the window
    ([1, 2, 6], [1, 0, 1], "strictly increase"),  # after it
    ([1, 2, np.nan], [1, 0, 1], "strictly increase"),
    ([np.nan], [1], "strictly increase"),
    ([1, 2, 3], [1, -1, 0], "nonnegative"),
    ([1, 2, 3], [1, 0], "equal length"),
    ([[1, 2], [3, 4]], [[1, 0], [1, 0]], "1-D"),
])
def test_trajectory_rejects_broken_invariants(times, counts, match):
    with pytest.raises(ValueError, match=match):
        Trajectory(0.0, 5.0, 0, times, counts)


def test_trajectory_accepts_events_on_the_window_bounds():
    path = Trajectory(0.0, 5.0, 2, [0.0, 2.5, 5.0], [1, 0, 1])
    assert path.times.dtype == float and path.counts.dtype == np.int64
    assert len(Trajectory(0.0, 5.0, 0, [], []).times) == 0
    with pytest.raises(ValueError, match="nonnegative"):
        Trajectory(0.0, 5.0, -1, [], [])


def test_hand_traced_segments_integral():
    path, _ = dd1()
    bounds, levels = path.segments()
    assert float(np.dot(np.diff(bounds), levels)) == pytest.approx(8.0)
    # restricted to [0, 3]: 0*1 + 1*1 + 2*1 = 3
    bounds, levels = path.restrict(3.0).segments()
    assert float(np.dot(np.diff(bounds), levels)) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        path.restrict(6.0)


def test_warmup_initial_count():
    path, ledger = simulate(
        deterministic(1.0), deterministic(2.0), warmup=2.5, horizon=5.0, seed=7
    )
    # at t=2.5 customers 1 and 2 have arrived, none have left
    assert path.initial_count == 2
    assert path.initial_time == 2.5
    assert ledger.pre_window.sum() == 2
    assert ledger.in_window_mask().all()


def test_csv_round_trip_text(tmp_path):
    path, ledger = dd1()
    pfile = tmp_path / "path.csv"
    lfile = tmp_path / "ledger.csv"
    path.to_csv(pfile)
    ledger.to_csv(lfile)
    assert pfile.read_text() == "tau,n\n0.0,0\n1.0,1\n2.0,2\n4.0,3\n"
    lines = lfile.read_text().splitlines()
    assert lines[0] == "id,t_A,svc_start,t_mu,t_D,pre_window"
    assert lines[1] == "0,1.0,1.0,2.0,3.0,0"
    assert lines[-1] == "4,5.0,9.0,2.0,11.0,0"


# ---------------------------------------------------------------------------
# discipline invariance: the count path never depends on who gets served


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_queue_path_is_discipline_invariant(seed):
    base = None
    for disc in ("fcfs", "lcfs", "random-order"):
        path, ledger = simulate(
            exponential(0.8), gamma(2.0, 0.6), discipline=disc,
            horizon=2000.0, seed=seed,
        )
        key = (path.times.tobytes(), path.counts.tobytes())
        # service starts inside the window are down-step/entry instants of the
        # path, so their multiset is shared too; post-window drain times differ
        starts = ledger.service_start
        in_window = np.sort(starts[starts <= path.final_time])
        if base is None:
            base = key
            fcfs_starts = in_window
        else:
            assert key == base
            np.testing.assert_allclose(in_window, fcfs_starts)


def test_lcfs_actually_reorders():
    _, fcfs = simulate(exponential(0.9), exponential(1.0), horizon=500.0, seed=5)
    _, lcfs = simulate(
        exponential(0.9), exponential(1.0), discipline="lcfs", horizon=500.0, seed=5
    )
    assert not np.array_equal(fcfs.service_start, lcfs.service_start)


# ---------------------------------------------------------------------------
# waiting-time recursion


@pytest.mark.parametrize("seed", [1, 2, 9])
def test_engine_matches_departure_recursion_bitwise(seed):
    _, ledger = simulate(exponential(0.7), uniform(0.4, 1.8), horizon=5000.0, seed=seed)
    recon = fcfs_departure_times(ledger.arrival_time, ledger.service_duration)
    assert np.array_equal(recon, ledger.departure_time)


def test_lindley_delays_hand_case():
    arrivals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    services = np.full(5, 2.0)
    delays = lindley_fcfs(arrivals, services)
    np.testing.assert_allclose(delays, [0.0, 1.0, 2.0, 3.0, 4.0])
    deps = fcfs_departure_times(arrivals, services)
    np.testing.assert_allclose(deps, [3.0, 5.0, 7.0, 9.0, 11.0])


@given(
    gaps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=200),
    services=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=200),
)
@settings(max_examples=80, deadline=None)
def test_recursion_invariants(gaps, services):
    n = min(len(gaps), len(services))
    arrivals = np.cumsum(np.asarray(gaps[:n]))
    svc = np.asarray(services[:n])
    delays = lindley_fcfs(arrivals, svc)
    deps = fcfs_departure_times(arrivals, svc)
    assert (delays >= 0).all()
    assert (np.diff(deps) >= 0).all()
    assert (deps >= arrivals + svc - 1e-12).all()


# ---------------------------------------------------------------------------
# windows, the drain, caps


def test_resolved_run_has_no_pending_at_window_end():
    # every run drains: each customer arriving by the window end gets a
    # service start and a departure, those still present at the end too;
    # each seed has customers present at both window ends
    runs = [(exponential(0.8), disc, 20.0, 300.0, 4) for disc in ("fcfs", "lcfs", "random-order")]
    runs.append((exponential(0.95), "random-order", 10.0, 3000.0, 10))
    for arrival, discipline, warmup, horizon, seed in runs:
        path, ledger = simulate(arrival, exponential(1.0), discipline=discipline,
                                warmup=warmup, horizon=horizon, seed=seed)
        assert not np.isnan(ledger.service_start).any()
        assert not np.isnan(ledger.departure_time).any()
        assert (ledger.departure_time > path.final_time).any()
        assert ledger.pre_window.any()


def cap_error(run, *args, **kwargs):
    with pytest.raises(EventCapExceeded) as exc:
        run(*args, **kwargs)
    err = exc.value
    return str(err), err.events, err.time_reached, err.queue_length


def test_event_cap_raises_with_context():
    args = (exponential(5.0), exponential(1.0))
    kwargs = dict(horizon=1e7, seed=0, event_cap=500)
    got = cap_error(simulate, *args, **kwargs)
    assert got == cap_error(reference_engine.simulate, *args, **kwargs)
    _, events, time_reached, queue_length = got
    assert events == 500
    assert time_reached > 0
    assert queue_length > 0


# D/D/1 at rho=2.  LCFS never again serves the window's waiting
# customers, so the drain after a short window runs until the cap; random
# order does serve them, so its window is long enough to reach the cap.
@pytest.mark.parametrize("discipline,horizon", [("lcfs", 100.0), ("random-order", 1e5)])
def test_overloaded_run_stops_at_event_cap(discipline, horizon):
    args = (deterministic(1.0), deterministic(2.0))
    kwargs = dict(discipline=discipline, horizon=horizon, seed=5, event_cap=20_000)
    start = time.perf_counter()
    got = cap_error(simulate, *args, **kwargs)
    assert time.perf_counter() - start < 1.0
    assert got == cap_error(reference_engine.simulate, *args, **kwargs)
    assert got[1] == 20_000


# Dense arrivals.  With gaps of 1e-150 the window alone holds more events
# than the cap.  With gaps of 1/30,000, LCFS starves the two window
# customers, and the first 256-slot drain chunk spans 7.7e6 arrivals while
# the events up to its first departure stay under the cap.  Either way the
# run stops at the cap, having drawn about the cap's worth of epochs.
@pytest.mark.parametrize("gap,service,discipline,horizon,cap", [
    (1e-150, exponential(1.0), "fcfs", 1.0, 10_000),
    (1 / 3e4, deterministic(1.0), "lcfs", 2.5 / 3e4, 100_000),
])
def test_dense_arrivals_stop_at_event_cap(gap, service, discipline, horizon, cap):
    args = (deterministic(gap), service)
    kwargs = dict(discipline=discipline, horizon=horizon, event_cap=cap)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = cap_error(simulate, *args, **kwargs)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 16 * 2**20
    assert got == cap_error(reference_engine.simulate, *args, **kwargs)
    assert got[1] == cap


def test_argument_validation():
    with pytest.raises(ValueError):
        simulate(exponential(1.0), exponential(1.0), horizon=0.0)
    with pytest.raises(ValueError):
        simulate(exponential(1.0), exponential(1.0), warmup=-1.0)
    with pytest.raises(ValueError):
        simulate(exponential(1.0), exponential(1.0), discipline="priority")
    # a NaN cap was no cap, 1.5 a TypeError from a slice and -1 a cap of
    # 0; the seeds and the str horizon were TypeErrors, and horizon=True
    # a window of length 1
    for name, bad in [("event_cap", float("nan")), ("event_cap", 1.5), ("event_cap", True),
                      ("event_cap", "5"), ("event_cap", -1), ("seed", 1.5), ("seed", "a"),
                      ("seed", True), ("horizon", True), ("horizon", "5")]:
        kwargs = {"horizon": 10.0, "event_cap": 10_000, name: bad}
        with pytest.raises(ValueError, match=name):
            simulate(exponential(1.0), exponential(1.0), **kwargs)


@pytest.mark.parametrize("warmup,horizon", [
    (0.0, float("nan")),
    (float("nan"), 100.0),
    (0.0, float("inf")),
    (float("inf"), 100.0),
    (1e308, 1e308),  # finite ends whose sum overflows
])
def test_window_that_is_not_finite_fails_fast(warmup, horizon):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="warmup|horizon"):
        simulate(exponential(1.0), exponential(1.0), warmup=warmup, horizon=horizon)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# statistical sanity: M/M/1 utilisation


def test_mm1_busy_fraction_near_rho():
    path, _ = simulate(exponential(0.5), exponential(1.0), warmup=200.0,
                       horizon=40_000.0, seed=12)
    bounds, levels = path.segments()
    rho_hat = np.diff(bounds)[levels > 0].sum() / path.window_length
    assert rho_hat == pytest.approx(0.5, abs=0.02)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_path_counts_nonnegative_and_coalesced(seed):
    path, ledger = simulate(exponential(1.2), uniform(0.2, 1.2), horizon=50.0, seed=seed)
    assert (path.counts >= 0).all()
    assert (np.diff(path.times) > 0).all()
    # consecutive counts always differ (flat events are coalesced away)
    full = np.concatenate(([path.initial_count], path.counts))
    assert (np.diff(full) != 0).all()
    # every in-window departure happens at or after its arrival
    mask = ledger.in_window_mask()
    assert (ledger.departure_time[mask] >= ledger.arrival_time[mask]).all()
