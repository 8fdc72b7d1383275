"""The slot kernel in ``gg1lab.simulator`` against the event engine it
replaced (``reference_engine``), bitwise on every output."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gg1lab.distributions import deterministic, exponential, gamma, lognormal, uniform
from gg1lab.simulator import (
    EventCapExceeded,
    _canonical_path,
    _queue_path,
    fcfs_departure_times,
    simulate,
)

import reference_engine

LEDGER_COLUMNS = ("arrival_time", "service_start", "service_duration", "departure_time", "pre_window")


def families(mean):
    return {
        "exponential": exponential(1.0 / mean),
        "deterministic": deterministic(mean),
        "uniform": uniform(0.5 * mean, 1.5 * mean),
        "gamma": gamma(0.6, 1.0).with_mean(mean),
        "lognormal": lognormal(0.0, 0.9).with_mean(mean),
    }


def assert_same_run(*args, **kwargs):
    path, ledger = simulate(*args, **kwargs)
    ref_path, ref_ledger = reference_engine.simulate(*args, **kwargs)
    assert path.initial_count == ref_path.initial_count
    assert path.times.tobytes() == ref_path.times.tobytes()
    assert path.counts.tobytes() == ref_path.counts.tobytes()
    assert ledger.window == ref_ledger.window
    for name in LEDGER_COLUMNS:
        got, want = getattr(ledger, name), getattr(ref_ledger, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    return path, ledger


@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random-order"])
@pytest.mark.parametrize("service_kind", sorted(families(1.0)))
@pytest.mark.parametrize("arrival_kind", sorted(families(1.0)))
def test_families_match_reference(arrival_kind, service_kind, discipline):
    arrival = families(1.0)[arrival_kind]
    service = families(0.85)[service_kind]
    for k, warmup in enumerate((0.0, 0.0, 40.0, 40.0)):
        assert_same_run(
            arrival, service, discipline=discipline, warmup=warmup, horizon=150.0,
            seed=31 * k + len(arrival_kind) + 7 * len(service_kind),
        )


# LCFS draining this overloaded queue never serves the oldest customers
# again, so it runs only under a cap here; the event-cap tests in
# test_simulator cover longer runs
@pytest.mark.parametrize("discipline,drains", [
    ("fcfs", True), ("fcfs", False), ("lcfs", False), ("random-order", True), ("random-order", False),
])
@pytest.mark.parametrize("warmup", [0.0, 2.5])
def test_hand_traced_dd1_matches_reference(discipline, warmup, drains):
    # D/D/1 with services of 2 every 1: every arrival after the first
    # waits, and arrivals, departures and the window ends all coincide.
    # A run either drains, matching the reference on every output, or a
    # cap of 15 events stops it in the drain with the reference's error
    args = (deterministic(1.0), deterministic(2.0))
    kwargs = dict(discipline=discipline, warmup=warmup, horizon=5.0, seed=7)
    if drains:
        assert_same_run(*args, **kwargs)
        return
    errors = []
    for run in (simulate, reference_engine.simulate):
        with pytest.raises(EventCapExceeded) as exc:
            run(*args, event_cap=15, **kwargs)
        err = exc.value
        errors.append((str(err), err.events, err.time_reached, err.queue_length))
    assert errors[0] == errors[1]
    assert errors[0][1] == 15 and errors[0][2] > warmup + 5.0


def outcome(run, *args, **kwargs):
    """The error's text and fields, or the bytes of the path and ledger."""
    try:
        path, ledger = run(*args, **kwargs)
    except EventCapExceeded as err:
        return str(err), err.events, err.time_reached, err.queue_length
    return (path.initial_count, path.times.tobytes(), path.counts.tobytes(),
            *(getattr(ledger, name).tobytes() for name in LEDGER_COLUMNS))


@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random-order"])
@pytest.mark.parametrize("arrival, service, warmup, horizon, seed, edge", [
    # more than 256 slots: caps fall in the first chunk, the second and
    # the drain
    (exponential(1.0), exponential(1.0 / 0.9), 20.0, 400.0, 4, ()),
    # overloaded, with ties; LCFS never drains it.  The first chunk is the
    # window's 302 slots; the last departs at 605, after 605 arrivals, so
    # the check after it counts 907 events
    (deterministic(1.0), deterministic(2.0), 2.5, 300.0, 7, (906, 907)),
], ids=["mm1-0.9", "dd1-2"])
def test_event_cap_sweep_matches_reference(arrival, service, warmup, horizon, seed, edge,
                                           discipline):
    args = (arrival, service, discipline, warmup, horizon, seed)

    def stopped(cap):
        want = outcome(reference_engine.simulate, *args, event_cap=cap)
        assert outcome(simulate, *args, event_cap=cap) == want, cap
        return isinstance(want[0], str)

    # every 11th cap from 0 to 1,400, which keeps the test to a few
    # seconds, then every cap up to the first of those that lets the run
    # finish, and the chunk edge
    stops = [stopped(cap) for cap in range(0, 1401, 11)]
    if not all(stops):
        first = 11 * stops.index(False)
        for cap in range(first - 10, first):
            stopped(cap)
    for cap in edge:
        stopped(cap)


@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random-order"])
def test_exact_ties_match_reference(discipline):
    # arrivals every 0.5, services of 1.5 or 0.25: exact binary fractions,
    # so departures land on arrival instants and on the window ends
    for service in (deterministic(0.25), deterministic(0.5), uniform(0.25, 0.75)):
        for warmup in (0.0, 3.0):
            assert_same_run(
                deterministic(0.5), service, discipline=discipline,
                warmup=warmup, horizon=20.0, seed=2,
            )


@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random-order"])
def test_runs_across_sample_blocks_match_reference(discipline):
    # about 25k customers at rho 0.9: more than one block of service
    # draws, and under random order more than one block of picks
    path, ledger = assert_same_run(
        exponential(1.0), exponential(1.0 / 0.9), discipline=discipline,
        warmup=10.0, horizon=25_000.0, seed=99,
    )
    assert len(ledger) > 16384
    waited = np.count_nonzero(ledger.service_start > ledger.arrival_time)
    assert waited > 16384


@given(
    seed=st.integers(0, 2**32 - 1),
    discipline=st.sampled_from(["fcfs", "lcfs", "random-order"]),
)
@settings(max_examples=30, deadline=None)
def test_random_seeds_match_reference(seed, discipline):
    assert_same_run(
        exponential(1.1), gamma(0.5, 1.6), discipline=discipline, warmup=25.0,
        horizon=300.0, seed=seed,
    )


@pytest.mark.parametrize("arrival, service, tied", [
    (exponential(1.0), lognormal(-0.3, 0.6), False),
    (exponential(1.0), exponential(1.2), False),
    (deterministic(0.5), deterministic(0.5), True),
    (deterministic(1.0), deterministic(2.0), True),
])
@pytest.mark.parametrize("first", [0, 1, 57])
def test_canonical_path_matches_full_pass(arrival, service, tied, first):
    # a path without repeated times is returned as it is; a tied one
    # takes the full pass; both give the reference's bits
    rng = np.random.default_rng(11)
    arrivals = np.cumsum(arrival.sample(rng, 400))
    times, counts = _queue_path(arrivals, fcfs_departure_times(arrivals, service.sample(rng, 400)))
    times, counts, initial = times[first:], counts[first:], int(counts[first - 1]) if first else 0
    got = _canonical_path(times, counts, initial)
    want = reference_engine._canonical_path(times, counts, initial)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert bool(np.any(np.diff(times) == 0)) == tied
    assert (got[0] is times and got[1] is counts) == (not tied)
