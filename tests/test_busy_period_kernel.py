"""The busy-period kernel against the scalar slot loop it replaces on long
chunks (``reference_engine._slot_departures``, kept verbatim): bitwise
on every departure, with wrong start guesses forced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gg1lab import simulator
from gg1lab.distributions import exponential, gamma, uniform

import reference_engine
from test_slot_kernel import assert_same_run

CHUNK = 16384


def chunk(seed, n, rho, t0=50.0):
    """Arrival epochs summed in sequence from ``t0`` (as ``simulate``
    does) with mean gap 1, and exponential services of mean ``rho``."""
    rng = np.random.default_rng(seed)
    a = np.cumsum(np.concatenate(([t0], rng.exponential(1.0, n))))[1:]
    return a, rng.exponential(rho, n)


def dd1(gap, service, n=CHUNK):
    a = np.cumsum(np.concatenate(([0.0], np.full(n, gap))))[1:]
    return a, np.full(n, service)


def loop(a, s, dep):
    return np.array(reference_engine._slot_departures(a, s, dep))


@pytest.fixture
def calls(monkeypatch):
    """Counts of the kernel's rounds (``_period_sums`` calls, one per
    kernel chunk) and of its scalar-loop calls."""
    seen = {"rounds": 0, "loop": 0}

    def wrap(name, key):
        inner = getattr(simulator, name)

        def counted(*args):
            seen[key] += 1
            return inner(*args)

        monkeypatch.setattr(simulator, name, counted)

    wrap("_period_sums", "rounds")
    wrap("_slot_departures", "loop")
    return seen


def assert_same(a, s, dep):
    got = simulator._departures(a, s, dep)
    assert got.tobytes() == loop(a, s, dep).tobytes()


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.67, 0.9, 1.2])
def test_random_chunks_match_the_loop_in_one_round(rho, calls):
    for seed in range(3):
        a, s = chunk(seed, CHUNK, rho)
        assert_same(a, s, -math.inf)
        assert_same(a, s, a[0] - 1.0)
    # the closed form guesses every start of continuous draws
    assert calls == {"rounds": 6, "loop": 0}


@pytest.mark.parametrize("gap,service", [
    (0.1, 0.1), (0.1, 0.3), (1 / 3, 1 / 3), (0.7, 0.7), (0.1, 0.05), (1.0, 2.0), (0.5, 1.5),
])
def test_dd1_ties_and_overload_match_the_loop(gap, service):
    # steps that are not binary fractions round, so arrivals land on,
    # just before or just after the previous departure
    a, s = dd1(gap, service)
    for dep in (-math.inf, a[0], a[0] + 0.5 * service, a[10]):
        assert_same(a, s, dep)


def test_exact_ties_are_guessed_exactly(calls):
    # every arrival lands exactly on the previous departure, which under
    # A_k > D_{k-1} continues the busy period: one period, one round
    a, s = dd1(0.5, 0.5)
    assert_same(a, s, -math.inf)
    starts = simulator._guess_starts(a, s, -math.inf)
    assert starts[0] and not starts[1:].any()
    assert calls == {"rounds": 1, "loop": 0}


def test_chunk_opening_inside_a_busy_period(calls):
    a, s = chunk(4, CHUNK, 0.8)
    for dep in (a[0], a[0] + 2.0, a[30]):
        assert not simulator._guess_starts(a, s, dep)[0]
        assert_same(a, s, dep)
    assert calls == {"rounds": 3, "loop": 0}


def test_single_period_longer_than_the_chunk(calls):
    # the chunk continues a period that outlasts it, or opens one at
    # slot 0 that never ends (rho 5)
    a, s = chunk(5, CHUNK, 0.5)
    assert_same(a, s, a[-1] + 1.0)
    a, s = chunk(6, CHUNK, 5.0)
    assert simulator._guess_starts(a, s, -math.inf).sum() == 1
    assert_same(a, s, -math.inf)
    assert calls == {"rounds": 2, "loop": 0}


def test_cut_over_between_loop_and_kernel(calls):
    n = simulator._PARALLEL_MIN
    for length, rounds, loops in ((n - 1, 0, 1), (n, 1, 0), (n + 1, 1, 0)):
        a, s = chunk(length, length, 0.9)
        before = dict(calls)
        assert_same(a, s, -math.inf)
        assert calls["rounds"] - before["rounds"] == rounds
        assert calls["loop"] - before["loop"] == loops


@pytest.mark.parametrize("flip", [[0], [1], [7, 3000, 3001], "every tenth", "all"])
def test_wrong_guesses_are_corrected(flip, calls, monkeypatch):
    # the departures before the first wrong guess are exact, so the
    # scalar loop computes the chunk from that slot on
    a, s = chunk(8, 4096, 0.7)
    dep = a[0] - 1.0
    starts = simulator._guess_starts(a, s, dep)
    wrong = starts.copy()
    if flip == "all":
        wrong = ~wrong
    elif flip == "every tenth":
        wrong[::10] = ~wrong[::10]
    else:
        wrong[flip] = ~wrong[flip]
    looped = []
    counted = simulator._slot_departures

    def recorded(arrivals, services, dep):
        looped.append(len(arrivals))
        return counted(arrivals, services, dep)

    monkeypatch.setattr(simulator, "_slot_departures", recorded)
    got = simulator._busy_period_departures(a, s, dep, wrong)
    assert got.tobytes() == loop(a, s, dep).tobytes()
    assert calls == {"rounds": 1, "loop": 1}
    assert looped == [len(a) - int(np.flatnonzero(wrong != starts)[0])]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2048, 6000),
    rho=st.floats(0.05, 3.0),
    opening=st.sampled_from(["empty", "busy", "after"]),
)
@settings(max_examples=60, deadline=None)
def test_random_chunks_match_the_loop(seed, n, rho, opening):
    a, s = chunk(seed, n, rho)
    dep = {"empty": -math.inf, "busy": a[0] + rho, "after": a[0] - 0.5}[opening]
    assert_same(a, s, dep)


@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random-order"])
def test_long_runs_reach_the_kernel_and_match_reference(discipline, calls):
    # about 40k and 30k customers at rho 0.85 and 0.95: full
    # 16,384-slot chunks
    assert_same_run(
        exponential(1.0), gamma(0.6, 1.0).with_mean(0.85), discipline=discipline,
        warmup=30.0, horizon=40_000.0, seed=17,
    )
    assert calls["rounds"] >= 2
    rounds = calls["rounds"]
    assert_same_run(
        uniform(0.5, 1.5), exponential(1.0 / 0.95), discipline=discipline,
        warmup=0.0, horizon=30_000.0, seed=18,
    )
    assert calls["rounds"] > rounds
