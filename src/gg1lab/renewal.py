"""Renewal-cycle decomposition and regenerative estimators.

A renewal point is an arrival into an empty system.  A cycle runs from
one renewal point to the next: a busy period followed by the idle
period that ends it.  A cycle counts as complete only when its
terminating renewal point is observed inside the window; the window
time before the first renewal point and after the last one belongs to
no cycle and enters no estimator, since the estimators treat cycles as
i.i.d.

Cycles are found and summed by path event index.  ``detect_cycles``
keeps each renewal point's event index, and ``cycle_rewards`` sums each
cycle over its own events and customers with ``np.add.reduceat``, a
block of whole cycles at a time: no lookup into the path, and no
difference of running totals, whose rounding grows with the length of
the run.

Each run's cycles reduce to a ``CycleTotals`` of Python scalars, and
``pooled_averages`` takes ratios of sums (total reward over total
length, total response over total count, the consistent form for a
reward/length ratio) over any number of runs, one run being a pool of
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import metrics
from .artifacts import write_csv
from .metrics import exact_sum
from .simulator import CustomerLedger, Trajectory


@dataclass(frozen=True)
class RenewalCycles:
    """Complete cycles of a single trajectory.

    Arrays are aligned per cycle: busy on [busy_start, busy_end), idle
    on [busy_end, cycle_end).  ``renewal_index``
    holds the path event index of each cycle's opening renewal point
    and, last, of the closing one (n + 1 strictly increasing values);
    ``detect_cycles`` sets it, hand-built cycles may leave it None.
    """

    busy_start: np.ndarray
    busy_end: np.ndarray
    cycle_end: np.ndarray
    renewal_index: np.ndarray | None = None

    def __post_init__(self):
        for name in ("busy_start", "busy_end", "cycle_end"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (len(self.busy_start) == len(self.busy_end) == len(self.cycle_end)):
            raise ValueError("cycle arrays must be aligned")
        if np.any(self.busy_end < self.busy_start) or np.any(self.cycle_end < self.busy_end):
            raise ValueError("cycle boundaries out of order")
        if self.renewal_index is not None:
            index = np.asarray(self.renewal_index)
            if not (index.dtype.kind in "iu" and index.shape == (len(self) + 1,)
                    and index[0] >= 0 and np.all(index[1:] > index[:-1])):
                raise ValueError("renewal_index must be n + 1 increasing event indices")
            object.__setattr__(self, "renewal_index", index)

    def __len__(self) -> int:
        return len(self.busy_start)

    @property
    def busy_lengths(self) -> np.ndarray:
        return self.busy_end - self.busy_start

    @property
    def idle_lengths(self) -> np.ndarray:
        return self.cycle_end - self.busy_end

    @property
    def cycle_lengths(self) -> np.ndarray:
        return self.cycle_end - self.busy_start

    def to_csv(self, path, rewards=None, counts=None) -> None:
        """Columns cycle_index, busy_len, idle_len, reward, count (rewards
        and counts default to zeros); counts that are not integers raise
        ValueError."""
        n = len(self)
        rewards = np.zeros(n) if rewards is None else np.asarray(rewards, dtype=float)
        counts = np.zeros(n, dtype=np.int64) if counts is None else np.asarray(counts)
        if not (len(rewards) == len(counts) == n):
            raise ValueError("rewards and counts must align with cycles")
        if not np.all(np.isfinite(counts)):
            raise ValueError("cycle counts must be finite")
        with np.errstate(invalid="ignore"):  # a count past int64 casts to a mismatch
            whole = counts.astype(np.int64)
        if not np.array_equal(whole, counts):
            raise ValueError("cycle counts must be integers")
        write_csv(path, ("cycle_index", "busy_len", "idle_len", "reward", "count"),
                  (range(n), self.busy_lengths, self.idle_lengths, rewards, whole))


def detect_cycles(path: Trajectory) -> RenewalCycles:
    """Split a trajectory into renewal cycles.

    Renewal points are the events where the queue length steps from 0
    to 1, and each cycle's busy period ends at its first emptying event
    after its opening one.  Both are found by event index: one pass
    over the levels finds the emptying events, and the renewal points
    are the events right after them that reach level 1.  Fewer than
    two renewal points give no cycle, with ``renewal_index`` None.  It
    relies on the strictly increasing event times that ``Trajectory``
    guarantees.
    """
    times = path.times
    counts = path.counts
    empty = np.flatnonzero(counts == 0)
    if path.initial_count == 0:  # the level before the first event
        empty = np.concatenate(([-1], empty))
    # an emptying last event has no successor to open a cycle
    opens = empty[:-1] if len(empty) and empty[-1] == len(counts) - 1 else empty
    k = np.flatnonzero(counts[opens + 1] == 1)
    index = opens[k] + 1
    if len(index) < 2:
        return RenewalCycles(np.empty(0), np.empty(0), np.empty(0))
    renewal = times[index]
    # the emptying event after a cycle's opening one is the next in
    # ``empty``; the closing renewal point guarantees there is one
    busy_end = times[empty[k[:-1] + 1]]
    return RenewalCycles(renewal[:-1], busy_end, renewal[1:], renewal_index=index)


@dataclass
class CycleRewards:
    """Per-cycle reward tallies over one trajectory.

    holding: cost accumulated by the queue-length integral within the
    cycle; response: summed sojourn cost of the customers arriving in
    the cycle (each such sojourn lies inside its cycle, because cycles
    begin and end with an empty system); count: number of arrivals.
    """

    holding: np.ndarray
    response: np.ndarray
    count: np.ndarray


def cycle_rewards(cycles: RenewalCycles, path: Trajectory, ledger: CustomerLedger) -> CycleRewards:
    """Tally holding cost, response cost, and arrival count per cycle, at
    unit cost weight.

    Holding comes from the trajectory, response from the ledger, so the
    two stay independent routes to the same quantity.  Each cycle is
    summed on its own terms: holding is ``np.add.reduceat`` of the
    segment areas from the cycle's renewal event index to the next,
    response the same over ``dep - arr`` of the customers arriving in
    the cycle, found by one ``searchsorted`` of the renewal times into
    the arrivals.  A cycle's sum of n nonnegative terms is then within
    (n - 1) * 2**-53 relative of the exact one.  A difference of two
    running totals over the whole run carries the rounding of every term
    before the cycle: up to 2.6e-9 relative on a million-event run.

    The areas and sojourns are built for blocks of whole cycles, each
    spanning at most ``metrics._BLOCK`` events, or for one longer cycle
    alone.  ``reduceat`` sums each cycle's terms exactly as it would
    over the whole run, so the block a cycle falls in leaves its bits
    unchanged, and no temporary grows with the run.

    The cycles must come from ``detect_cycles`` on this path: cycles
    without renewal indices, or whose indices do not point at their
    bounds in ``path``, raise ValueError, as does a ledger with no
    arrival in some cycle.  Empty cycles give empty rewards.
    """
    if len(cycles) == 0:
        return CycleRewards(np.empty(0), np.empty(0), np.empty(0, dtype=int))
    index = cycles.renewal_index
    if index is None:
        raise ValueError("cycle rewards need the renewal indices that detect_cycles sets")
    times = path.times
    if index[-1] >= len(times):
        raise ValueError("cycles reach past the end of this path")
    renewal = times[index]
    if not (np.array_equal(renewal[:-1], cycles.busy_start)
            and np.array_equal(renewal[1:], cycles.cycle_end)):
        raise ValueError("cycles were not detected on this path")

    arr = ledger.arrival_time
    dep = ledger.departure_time
    lo = np.searchsorted(arr, renewal, side="left")
    count = np.diff(lo)
    # every cycle opens with an arrival, which also keeps reduceat's
    # starts strictly increasing and inside the sojourns
    if count.min() < 1:
        raise ValueError("a cycle has no arrival in this ledger")
    holding = np.empty(len(cycles))
    response = np.empty(len(cycles))
    for a, b in _cycle_blocks(index):
        # segment i (level counts[i] on [times[i], times[i+1])) of the
        # events from cycle a's renewal point up to cycle b's
        first, last = index[a], index[b]
        areas = path.counts[first:last] * np.diff(times[first:last + 1])
        holding[a:b] = np.add.reduceat(areas, index[a:b] - first)
        first, last = lo[a], lo[b]
        response[a:b] = np.add.reduceat(dep[first:last] - arr[first:last], lo[a:b] - first)
    return CycleRewards(holding, response, count)


def _cycle_blocks(index: np.ndarray):
    """(a, b) for runs of whole cycles a to b - 1, each spanning at most
    ``_BLOCK`` events, or one cycle that alone spans more."""
    block = metrics._BLOCK
    a, n = 0, len(index) - 1
    while a < n:
        b = int(np.searchsorted(index, index[a] + block, side="right")) - 1
        b = max(b, a + 1)
        yield a, b
        a = b


class CycleTotals(NamedTuple):
    """One run's complete cycles summed to Python scalars: the cycle
    count, total length, holding and response, and the arrival count.
    Small enough to keep while the run's arrays are dropped."""

    cycles: int
    length: float
    holding: float
    response: float
    count: int

    @classmethod
    def of(cls, cycles: RenewalCycles, rewards: CycleRewards) -> "CycleTotals":
        """Each total by ``exact_sum`` over the run's cycles."""
        if not (len(rewards.holding) == len(rewards.response) == len(rewards.count) == len(cycles)):
            raise ValueError("rewards must align with cycles")
        return cls(len(cycles), exact_sum(cycles.cycle_lengths), exact_sum(rewards.holding),
                   exact_sum(rewards.response), int(rewards.count.sum()))


def pooled_averages(totals) -> tuple[float, float]:
    """Holding per unit time and response per customer, each a ratio of
    sums over every complete cycle of the given runs.

    The runs' totals are added in the order given, so the result is the
    estimator applied to the concatenated cycles up to the rounding of
    one addition per run.  No complete cycle, no cycle time, or no
    arrival in them raises ValueError.
    """
    cycles = count = 0
    length = holding = response = 0.0
    for t in totals:
        cycles += t.cycles
        length += t.length
        holding += t.holding
        response += t.response
        count += t.count
    if cycles == 0 or length <= 0:
        raise ValueError("pooled averages need at least one complete cycle of positive length")
    if count == 0:
        raise ValueError("pooled averages need a positive customer count")
    return holding / length, response / count
