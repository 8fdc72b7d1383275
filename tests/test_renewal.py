import math

import numpy as np
import pytest

import reference_renewal as ref
from gg1lab import metrics, renewal
from gg1lab.distributions import deterministic, exponential, uniform
from gg1lab.metrics import compute_report
from gg1lab.renewal import (
    CycleRewards,
    CycleTotals,
    RenewalCycles,
    cycle_rewards,
    detect_cycles,
    pooled_averages,
)
from gg1lab.simulator import Trajectory, simulate


def make_path(times, counts, t0=0.0, t1=10.0, n0=0):
    return Trajectory(initial_time=t0, final_time=t1, initial_count=n0,
                      times=np.asarray(times, float), counts=np.asarray(counts, int))


def fold_totals(path, ledger):
    """A run's cycle totals as the theorem runs take them: the cycle fold
    over the whole path and ledger."""
    cycles = renewal._Cycles(totals=True)
    for _ in cycles.over(path, ledger):
        pass
    return cycles.totals()


# hand case: busy [0,4), idle [4,6), busy [6,9), idle [9,10)
HAND = make_path([0.0, 4.0, 6.0, 9.0], [1, 0, 1, 0])


def test_hand_case_one_complete_cycle():
    cycles = detect_cycles(HAND)
    # the second busy period never sees its terminating renewal
    assert len(cycles) == 1
    assert cycles.busy_start[0] == 0.0
    assert cycles.busy_end[0] == 4.0
    assert cycles.cycle_end[0] == 6.0
    assert cycles.busy_lengths[0] == 4.0
    assert cycles.idle_lengths[0] == 2.0
    assert cycles.cycle_lengths[0] == 6.0


def test_window_not_starting_on_a_renewal():
    # same path but the window opens mid-busy-period at t=1
    path = make_path([4.0, 6.0, 9.0], [0, 1, 0], t0=1.0, n0=1)
    cycles = detect_cycles(path)
    # one renewal point, at 6, closes no cycle
    assert len(cycles) == 0


def two_cycle_fixture():
    return RenewalCycles(
        busy_start=np.array([0.0, 2.0]),
        busy_end=np.array([1.0, 3.5]),
        cycle_end=np.array([2.0, 5.0]),
    )


def test_ratio_of_sums_estimators():
    cycles = two_cycle_fixture()
    rewards = CycleRewards(np.array([4.0, 6.0]), np.array([3.0, 7.0]), np.array([2, 2]))
    totals = ref.totals_of(cycles, rewards)
    assert totals == (2, 5.0, 10.0, 10.0, 4)
    assert [type(v) for v in totals] == [int, float, float, float, int]
    assert pooled_averages([totals]) == (2.0, 2.5)
    # a pool of two runs is the ratio of the summed totals
    assert pooled_averages([totals, CycleTotals(1, 3.0, 2.0, 6.0, 2)]) == (1.5, 16.0 / 6)


def test_estimator_errors(tmp_path):
    cycles = two_cycle_fixture()
    with pytest.raises(ValueError, match="align"):
        cycles.to_csv(tmp_path / "cycles.csv", np.array([1.0]), np.array([1]))
    with pytest.raises(ValueError):
        RenewalCycles(np.array([0.0]), np.array([2.0]), np.array([1.0]))


def test_pooled_averages_need_a_cycle_and_a_customer():
    empty = RenewalCycles(np.empty(0), np.empty(0), np.empty(0))
    no_rewards = CycleRewards(np.empty(0), np.empty(0), np.empty(0, dtype=int))
    for totals in ([], [ref.totals_of(empty, no_rewards)], (t for t in ()),
                   [CycleTotals(1, 0.0, 0.0, 0.0, 1)]):  # a hand-built cycle of zero length
        with pytest.raises(ValueError, match="at least one complete cycle"):
            pooled_averages(totals)
    with pytest.raises(ValueError, match="positive customer count"):
        pooled_averages([CycleTotals(2, 5.0, 1.0, 0.0, 0), ref.totals_of(empty, no_rewards)])


def test_csv_golden(tmp_path):
    cycles = two_cycle_fixture()
    out = tmp_path / "cycles.csv"
    cycles.to_csv(out, rewards=[4.0, 6.0], counts=[2, 3])
    assert out.read_text() == (
        "cycle_index,busy_len,idle_len,reward,count\n"
        "0,1.0,1.0,4.0,2\n"
        "1,1.5,1.5,6.0,3\n"
    )


def test_csv_rejects_counts_that_are_not_integers(tmp_path):
    # they were truncated: [2.5, 3.7] was written as 2 and 3
    cycles = two_cycle_fixture()
    out = tmp_path / "cycles.csv"
    for counts in ([2.5, 3.7], [2.0, 1e19], [2.0, np.nan]):
        with pytest.raises(ValueError, match="cycle counts must be"):
            cycles.to_csv(out, rewards=[4.0, 6.0], counts=counts)
    cycles.to_csv(out, rewards=[4.0, 6.0], counts=[2.0, 3.0])
    assert out.read_text().endswith("1,1.5,1.5,6.0,3\n")


def test_csv_matches_per_row_writer_on_many_cycles(tmp_path):
    path, ledger = simulate(exponential(0.5), exponential(1.0), horizon=2000.0, seed=3)
    cycles = detect_cycles(path)
    rewards = cycle_rewards(cycles, path, ledger)
    assert len(cycles) >= 300
    out = tmp_path / "cycles.csv"
    cycles.to_csv(out, rewards.holding, rewards.count)
    # reference: one row at a time, indexing each length array per row
    expected = "cycle_index,busy_len,idle_len,reward,count\n" + "".join(
        f"{i},{float(cycles.busy_lengths[i])!r},{float(cycles.idle_lengths[i])!r},"
        f"{float(rewards.holding[i])!r},{int(rewards.count[i])}\n"
        for i in range(len(cycles))
    )
    assert out.read_bytes() == expected.encode()
    with pytest.raises(ValueError):
        cycles.to_csv(out, rewards.holding[:-1], rewards.count)


def test_all_idle_window_has_no_cycles():
    path, ledger = simulate(deterministic(50.0), deterministic(1.0), horizon=10.0, seed=0)
    cycles = detect_cycles(path)
    assert len(cycles) == 0
    with pytest.raises(ValueError):
        pooled_averages([fold_totals(path, ledger)])


def test_mm1_renewal_estimates_agree_with_global():
    path, ledger = simulate(exponential(0.5), exponential(1.0), warmup=0.0,
                            horizon=200_000.0, seed=11)
    rep = compute_report(path, ledger)
    cycles = detect_cycles(path)
    rewards = cycle_rewards(cycles, path, ledger)

    assert len(cycles) > 40_000
    # independent routes to the same per-cycle total
    np.testing.assert_allclose(rewards.holding, rewards.response, rtol=1e-9, atol=1e-9)

    totals = fold_totals(path, ledger)
    assert [type(v) for v in totals] == [int, float, float, float, int]
    assert totals == ref.totals_of(cycles, rewards)
    h_renewal, r_renewal = pooled_averages([totals])
    # cycle-based and window-based estimates of the same limits
    assert h_renewal == pytest.approx(rep.H_bar_t, rel=0.01)
    assert r_renewal == pytest.approx(rep.R_bar_n_act, rel=0.01)
    # and both near the true values 1.0 and 2.0
    assert h_renewal == pytest.approx(1.0, rel=0.02)
    assert r_renewal == pytest.approx(2.0, rel=0.02)
    busy = math.fsum(cycles.busy_lengths.tolist()) / math.fsum(cycles.cycle_lengths.tolist())
    assert busy == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("seed", [1, 5, 23])
def test_cycle_invariants(seed):
    path, ledger = simulate(exponential(0.8), exponential(1.0), warmup=13.0,
                            horizon=4000.0, seed=seed)
    cycles = detect_cycles(path)
    assert len(cycles) > 100
    assert (cycles.busy_lengths > 0).all()
    assert (cycles.idle_lengths > 0).all()
    # complete cycles abut exactly
    np.testing.assert_array_equal(cycles.cycle_end[:-1], cycles.busy_start[1:])
    assert cycles.busy_start[0] >= path.initial_time
    assert cycles.cycle_end[-1] <= path.final_time
    rewards = cycle_rewards(cycles, path, ledger)
    assert (rewards.count >= 1).all()
    assert (rewards.holding > 0).all()


def test_pooling_matches_concatenation():
    totals = []
    lengths, holding, response, count = [], [], [], 0
    for seed in (3, 4, 5):
        path, ledger = simulate(exponential(0.5), exponential(1.0),
                                horizon=5000.0, seed=seed)
        cycles = detect_cycles(path)
        rewards = cycle_rewards(cycles, path, ledger)
        totals.append(fold_totals(path, ledger))
        lengths.append(cycles.cycle_lengths)
        holding.append(rewards.holding)
        response.append(rewards.response)
        count += int(rewards.count.sum())
    flat_h = math.fsum(np.concatenate(holding).tolist()) / math.fsum(
        np.concatenate(lengths).tolist()
    )
    flat_r = math.fsum(np.concatenate(response).tolist()) / count
    assert pooled_averages(totals) == (flat_h, flat_r)
    # a generator serves as well as a list
    assert pooled_averages(t for t in totals) == (flat_h, flat_r)


def pooled_batch(discipline, seed):
    """Totals and criterion 8's old renewal records of three runs of one
    discipline, at horizons and loads that differ run to run."""
    totals, records = [], []
    for k, (rate, horizon) in enumerate(((0.5, 3000.0), (0.8, 2000.0), (0.3, 4000.0))):
        path, ledger = simulate(exponential(rate), exponential(1.0), discipline=discipline,
                                warmup=10.0 * k, horizon=horizon, seed=seed + k)
        cycles = detect_cycles(path)
        rewards = cycle_rewards(cycles, path, ledger)
        totals.append(fold_totals(path, ledger))
        records.append(ref.theorem_renewal_record(cycles, rewards))
    return totals, records


@pytest.mark.parametrize("discipline", ["fcfs", "lcfs", "random-order"])
@pytest.mark.parametrize("seed", [7, 2026, 40_000])
def test_pooled_averages_match_criterion_8_arithmetic_bitwise(discipline, seed):
    totals, records = pooled_batch(discipline, seed)
    for t, record in zip(totals, records):
        assert t == tuple(record[k] for k in ("n_cycles", "sum_length", "sum_holding",
                                              "sum_response", "sum_count"))
    h, r = pooled_averages(totals)
    h_ref, r_ref, n_ref = ref.crit_8_renewal(records)
    assert (h.hex(), r.hex()) == (h_ref.hex(), r_ref.hex())
    assert sum(t.cycles for t in totals) == n_ref > 500


def test_cycle_rewards_empty():
    empty = RenewalCycles(np.empty(0), np.empty(0), np.empty(0))
    path, ledger = simulate(deterministic(50.0), deterministic(1.0), horizon=10.0, seed=0)
    rewards = cycle_rewards(empty, path, ledger)
    assert isinstance(rewards, CycleRewards)
    assert len(rewards.holding) == 0


# --------------------------------------------------------------------------
# against the running-total oracle in reference_renewal.py

def assert_same_cycles(new, old):
    """Bitwise equal bounds."""
    assert len(new) == len(old)
    for name in ("busy_start", "busy_end", "cycle_end"):
        assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name


def assert_local_sums(cycles, rewards, path, ledger):
    """Each cycle's holding and response against its own n terms: the
    error, taken exactly by math.fsum, is at most (n - 1) * 2**-53 of
    the exact sum."""
    times, counts = path.times, path.counts
    arr, dep = ledger.arrival_time, ledger.departure_time
    ev = np.searchsorted(times, cycles.busy_start), np.searchsorted(times, cycles.cycle_end)
    cu = np.searchsorted(arr, cycles.busy_start), np.searchsorted(arr, cycles.cycle_end)
    for k in range(len(cycles)):
        (e0, e1), (c0, c1) = (ev[0][k], ev[1][k]), (cu[0][k], cu[1][k])
        for value, terms in (
            (rewards.holding[k], (counts[e0:e1] * np.diff(times[e0:e1 + 1])).tolist()),
            (rewards.response[k], (dep[c0:c1] - arr[c0:c1]).tolist()),
        ):
            exact = math.fsum(terms)
            error = math.fsum([value] + [-t for t in terms])
            assert abs(error) <= (len(terms) - 1) * 2.0**-53 * exact, (k, value, exact)


RUNS = {
    "fcfs": dict(arrival=exponential(0.5), service=exponential(1.0), horizon=4000.0),
    "fcfs-warmup": dict(arrival=exponential(0.5), service=exponential(1.0),
                        warmup=37.5, horizon=4000.0),
    "fcfs-rho95": dict(arrival=exponential(0.95), service=exponential(1.0),
                       warmup=10.0, horizon=20_000.0),
    "lcfs": dict(arrival=exponential(0.5), service=exponential(1.0),
                 discipline="lcfs", horizon=3000.0),
    "lcfs-warmup": dict(arrival=exponential(0.5), service=uniform(0.0, 2.0),
                        discipline="lcfs", warmup=20.0, horizon=3000.0),
    "random-order-warmup": dict(arrival=exponential(0.5), service=exponential(1.0),
                                discipline="random-order", warmup=20.0, horizon=3000.0),
    "random-order-rho95": dict(arrival=exponential(0.95), service=exponential(1.0),
                               discipline="random-order", horizon=5000.0),
    "unresolved": dict(arrival=exponential(0.9), service=exponential(1.0),
                       horizon=3001.0),
    "unresolved-lcfs": dict(arrival=exponential(0.9), service=exponential(1.0),
                            discipline="lcfs", warmup=5.0, horizon=3000.0),
    # ties: a departure meeting an arrival is coalesced into no event
    "dd1-ties": dict(arrival=deterministic(1.0), service=deterministic(1.0), horizon=50.0),
    "dd1-cycles": dict(arrival=deterministic(2.0), service=deterministic(1.0),
                       warmup=3.0, horizon=40.0),
    "dd1-overload": dict(arrival=deterministic(1.0), service=deterministic(2.0),
                         horizon=30.0),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cycles_and_rewards_match_the_oracle(run):
    kw = dict(RUNS[run])
    path, ledger = simulate(kw.pop("arrival"), kw.pop("service"), seed=17, **kw)
    cycles = detect_cycles(path)
    oracle_cycles = ref.detect_cycles(path)
    assert_same_cycles(cycles, oracle_cycles)
    rewards = cycle_rewards(cycles, path, ledger)
    oracle = ref.cycle_rewards(oracle_cycles, path, ledger)
    assert rewards.count.tobytes() == oracle.count.tobytes()
    assert rewards.count.dtype == oracle.count.dtype
    # the oracle differences two running totals, each off by at most
    # (terms - 1) * 2**-53 of the whole run's total
    for ours, theirs, terms in ((rewards.holding, oracle.holding, len(path.times) + 1),
                                (rewards.response, oracle.response, len(ledger.arrival_time))):
        np.testing.assert_allclose(ours, theirs, rtol=0,
                                   atol=2 * terms * 2.0**-53 * math.fsum(ours.tolist()))
    assert_local_sums(cycles, rewards, path, ledger)
    assert_same_rewards(rewards, ref.local_cycle_rewards(cycles, path, ledger))


def assert_same_rewards(rewards, oracle):
    for name in ("holding", "response", "count"):
        ours, theirs = getattr(rewards, name), getattr(oracle, name)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name


# busy periods of up to thousands of events
LONG_CYCLES = dict(arrival=exponential(0.99), service=exponential(1.0), horizon=20_000.0)


@pytest.mark.parametrize("block", [4, 16, 1000])
@pytest.mark.parametrize("run", ["fcfs-rho99", "random-order-rho95", "unresolved-lcfs",
                                 "dd1-cycles"])
def test_blocks_of_whole_cycles_keep_each_cycles_bits(monkeypatch, run, block):
    # a small block: long busy periods span many blocks' worth of events
    # and each must still be summed as one cycle, alone in its block
    kw = dict(LONG_CYCLES if run == "fcfs-rho99" else RUNS[run])
    path, ledger = simulate(kw.pop("arrival"), kw.pop("service"), seed=5, **kw)
    cycles = detect_cycles(path)
    oracle = ref.local_cycle_rewards(cycles, path, ledger)
    monkeypatch.setattr(metrics, "_BLOCK", block)
    lengths = np.diff(np.searchsorted(path.times, np.r_[cycles.busy_start, cycles.cycle_end[-1]]))
    if run == "fcfs-rho99":
        # cycles alone in their block, and blocks of several cycles
        assert lengths.max() > block and np.count_nonzero(lengths <= block // 2) > 10
    assert_same_rewards(cycle_rewards(cycles, path, ledger), oracle)


@pytest.mark.parametrize("rate", [0.5, 0.95])
def test_every_cycle_is_summed_within_its_rounding_bound(rate):
    path, ledger = simulate(exponential(rate), exponential(1.0), warmup=50.0,
                            horizon=40_000.0, seed=2026)
    cycles = detect_cycles(path)
    rewards = cycle_rewards(cycles, path, ledger)
    assert len(cycles) > 1000
    assert_local_sums(cycles, rewards, path, ledger)
    # the running-total differences of the oracle miss that bound
    oracle = ref.cycle_rewards(ref.detect_cycles(path), path, ledger)
    with pytest.raises(AssertionError):
        assert_local_sums(cycles, oracle, path, ledger)


def random_hand_path(rng, n_events):
    """Levels that step by -1, 0 (a no-op level), +1 or +2, held at 0 or
    above (more no-op levels), at strictly increasing times."""
    steps = rng.choice([-1, -1, -1, 0, 1, 1, 2], size=n_events)
    n0 = int(rng.integers(0, 3))
    counts = np.maximum(n0 + np.cumsum(steps), 0)
    times = np.cumsum(rng.exponential(1.0, n_events)) + 1.0
    return make_path(times, counts, t0=float(rng.uniform(0.0, 1.0)),
                     t1=float(times[-1] + rng.uniform(0.0, 2.0)), n0=n0)


@pytest.mark.parametrize("seed", range(40))
def test_hand_paths_with_no_op_levels_match_the_oracle(seed):
    rng = np.random.default_rng(seed)
    path = random_hand_path(rng, int(rng.integers(1, 60)))
    assert_same_cycles(detect_cycles(path), ref.detect_cycles(path))


@pytest.mark.parametrize("n0", [0, 2])
def test_paths_without_events_match_the_oracle(n0):
    path = make_path([], [], n0=n0)
    cycles = detect_cycles(path)
    assert len(cycles) == 0
    assert_same_cycles(cycles, ref.detect_cycles(path))


def test_hand_path_no_op_levels_inside_a_cycle():
    # busy [1,5) with a no-op level at 3, an empty no-op at 6, renewal at 7
    path = make_path([1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0], [1, 2, 2, 0, 0, 1, 0])
    cycles = detect_cycles(path)
    assert_same_cycles(cycles, ref.detect_cycles(path))
    assert (cycles.busy_start[0], cycles.busy_end[0], cycles.cycle_end[0]) == (1.0, 5.0, 7.0)


@pytest.mark.parametrize("times,counts", [
    ([1.0, 2.0, 2.0, 3.0], [1, 0, 1, 0]),  # an emptying event tied with a renewal
    ([1.0, 3.0, 2.0, 4.0], [1, 0, 1, 0]),  # unordered
    ([1.0, 2.0, np.nan, 4.0], [1, 0, 1, 0]),
])
def test_paths_without_increasing_times_raise(times, counts):
    # the path itself refuses them, before any cycle is looked for
    with pytest.raises(ValueError, match="strictly increase"):
        make_path(times, counts)


def test_cycle_rewards_reject_foreign_cycles():
    kw = dict(horizon=3000.0)
    path, ledger = simulate(exponential(0.5), exponential(1.0), seed=1, **kw)
    other, other_ledger = simulate(exponential(0.5), exponential(1.0), seed=2, **kw)
    cycles = detect_cycles(path)
    with pytest.raises(ValueError, match="not detected on this path"):
        cycle_rewards(detect_cycles(other), path, ledger)
    with pytest.raises(ValueError, match="no arrival"):
        cycle_rewards(cycles, path, other_ledger)
    with pytest.raises(ValueError, match="not detected on this path"):
        cycle_rewards(cycles, path.restrict(path.initial_time + 100.0), ledger)
    # every busy end moved later: these were accepted, and to_csv wrote
    # wrong busy and idle lengths beside the true rewards
    moved = RenewalCycles(cycles.busy_start, np.minimum(cycles.busy_end + 0.25, cycles.cycle_end),
                          cycles.cycle_end)
    assert len(moved) == 753 and np.all(moved.busy_end != cycles.busy_end)
    with pytest.raises(ValueError, match="not detected on this path"):
        cycle_rewards(moved, path, ledger)
    # no cycles, on a path that has them (test_cycle_rewards_empty's has none)
    with pytest.raises(ValueError, match="not detected on this path"):
        cycle_rewards(RenewalCycles(np.empty(0), np.empty(0), np.empty(0)), path, ledger)
    # hand-built cycles equal to the detected ones serve as well
    hand = RenewalCycles(cycles.busy_start.copy(), cycles.busy_end.copy(), cycles.cycle_end.copy())
    assert_same_rewards(cycle_rewards(hand, path, ledger), cycle_rewards(cycles, path, ledger))
