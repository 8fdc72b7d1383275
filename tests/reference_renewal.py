"""The renewal-cycle split and reward tallies that ``gg1lab.renewal`` used
before it found cycles by event index: ``detect_cycles`` looks
each cycle's busy end up by time among the emptying events, and
``cycle_rewards`` takes each cycle's holding and response as the
difference of two running ``np.cumsum`` totals after ``searchsorted``
lookups into the path and the arrivals.  Also the renewal record and
pooled ratios that ``gg1lab.acceptance`` built by hand for criterion 8
before ``renewal.pooled_averages``.  Kept as the oracle of
``test_renewal.py``, less the leading and trailing fragments and the
cost weight, which no caller read.

``totals_of`` is ``CycleTotals.of`` as the library had it before the
theorem runs summed their cycles in ``renewal._Cycles``: each total an
exact sum over a run's per-cycle arrays.

``local_cycle_rewards`` is the per-cycle ``np.add.reduceat`` tally
that ``cycle_rewards`` used before it summed blocks of whole cycles:
one reduceat over the areas and sojourns of the whole run, with each
renewal point's event index found by ``searchsorted`` of its time among
the path's event times.  The block version must give its bits.
"""

from __future__ import annotations

import numpy as np

from gg1lab import metrics
from gg1lab.renewal import CycleRewards, CycleTotals, RenewalCycles
from gg1lab.simulator import CustomerLedger, Trajectory


def detect_cycles(path: Trajectory) -> RenewalCycles:
    """Split a trajectory into renewal cycles.

    Renewal points are the event times where the queue length steps
    from 0 to 1; fewer than two of them give no cycle.
    """
    times = path.times
    counts = path.counts
    prev = np.concatenate(([path.initial_count], counts[:-1]))
    renewal = times[(counts == 1) & (prev == 0)]
    if len(renewal) < 2:
        return RenewalCycles(np.empty(0), np.empty(0), np.empty(0))
    starts = renewal[:-1]
    ends = renewal[1:]
    # Busy period of each cycle ends at the first return to an empty
    # system after its opening renewal point.
    empty_times = times[counts == 0]
    busy_end = empty_times[np.searchsorted(empty_times, starts, side="left")]
    return RenewalCycles(starts, busy_end, ends)


def cycle_rewards(cycles: RenewalCycles, path: Trajectory, ledger: CustomerLedger) -> CycleRewards:
    """Tally holding cost, response cost, and arrival count per cycle.

    Holding comes from the trajectory, response from the ledger, so the
    two stay independent routes to the same quantity.
    """
    n = len(cycles)
    if n == 0:
        return CycleRewards(np.empty(0), np.empty(0), np.empty(0, dtype=int))
    bounds, levels = path.segments()
    cum = np.concatenate(([0.0], np.cumsum(levels * np.diff(bounds))))

    def integral_at(t: np.ndarray) -> np.ndarray:
        i = np.searchsorted(bounds, t, side="right") - 1
        i = np.clip(i, 0, len(levels) - 1)
        return cum[i] + levels[i] * (t - bounds[i])

    holding = integral_at(cycles.cycle_end) - integral_at(cycles.busy_start)

    arr = ledger.arrival_time
    dep = ledger.departure_time
    lo = np.searchsorted(arr, cycles.busy_start, side="left")
    hi = np.searchsorted(arr, cycles.cycle_end, side="left")
    sojourn_cum = np.concatenate(([0.0], np.cumsum(dep - arr)))
    response = sojourn_cum[hi] - sojourn_cum[lo]
    return CycleRewards(holding, response, hi - lo)


def local_cycle_rewards(cycles: RenewalCycles, path: Trajectory,
                        ledger: CustomerLedger) -> CycleRewards:
    """Each cycle summed on its own terms, in one pass over the whole run."""
    if len(cycles) == 0:
        return CycleRewards(np.empty(0), np.empty(0), np.empty(0, dtype=int))
    times = path.times
    renewal = np.concatenate((cycles.busy_start, cycles.cycle_end[-1:]))
    index = np.searchsorted(times, renewal)
    first, last = index[0], index[-1]
    # segment i (level counts[i] on [times[i], times[i+1])) of the events
    # from the first renewal point up to the last one
    areas = path.counts[first:last] * np.diff(times[first:last + 1])
    holding = np.add.reduceat(areas, index[:-1] - first)

    arr = ledger.arrival_time
    dep = ledger.departure_time
    lo = np.searchsorted(arr, renewal, side="left")
    count = np.diff(lo)
    sojourns = dep[lo[0]:lo[-1]] - arr[lo[0]:lo[-1]]
    response = np.add.reduceat(sojourns, lo[:-1] - lo[0])
    return CycleRewards(holding, response, count)


def totals_of(cycles: RenewalCycles, rewards: CycleRewards) -> CycleTotals:
    """One run's complete cycles summed to Python scalars."""
    if not (len(rewards.holding) == len(rewards.response) == len(rewards.count) == len(cycles)):
        raise ValueError("rewards must align with cycles")
    return CycleTotals(len(cycles), metrics.exact_sum(cycles.cycle_lengths),
                       metrics.exact_sum(rewards.holding), metrics.exact_sum(rewards.response),
                       int(rewards.count.sum()))


def theorem_renewal_record(cycles: RenewalCycles, rewards: CycleRewards) -> dict:
    """The per-seed renewal record of ``acceptance._theorem_entry``."""
    return {
        "n_cycles": len(cycles),
        "sum_length": metrics.exact_sum(cycles.cycle_lengths),
        "sum_holding": metrics.exact_sum(rewards.holding),
        "sum_response": metrics.exact_sum(rewards.response),
        "sum_count": int(rewards.count.sum()),
    }


def crit_8_renewal(records) -> tuple[float, float, int]:
    """Criterion 8's pooled holding per unit time, response per customer
    and cycle count over the per-seed records, as ``acceptance._crit_8``
    summed them."""
    sums = {"length": 0.0, "holding": 0.0, "response": 0.0, "count": 0, "cycles": 0}
    for ren in records:
        sums["length"] += ren["sum_length"]
        sums["holding"] += ren["sum_holding"]
        sums["response"] += ren["sum_response"]
        sums["count"] += ren["sum_count"]
        sums["cycles"] += ren["n_cycles"]
    renewal_ht = sums["holding"] / sums["length"]
    renewal_rn = sums["response"] / sums["count"]
    return renewal_ht, renewal_rn, sums["cycles"]
