"""Renewal-cycle decomposition and regenerative estimators.

A renewal point is an arrival into an empty system.  A cycle runs from
one renewal point to the next: a busy period followed by the idle
period that ends it.  A cycle counts as complete only when its
terminating renewal point is observed inside the window; the window
time before the first renewal point and after the last one belongs to
no cycle and enters no estimator, since the estimators treat cycles as
i.i.d.

One fold, ``_Cycles``, finds the cycles a chunk at a time and sums each
over its own segments and customers by ``np.add.reduceat``.
``detect_cycles`` and ``cycle_rewards`` run it over a whole path, and
``cycle_rewards`` checks the cycles it is given against those the fold
closes, by value; the theorem runs keep its ``CycleTotals``, which
``pooled_averages`` pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import metrics
from .artifacts import write_csv
from .simulator import CustomerLedger, Trajectory, _Chunk


@dataclass(frozen=True)
class RenewalCycles:
    """Complete cycles of a single trajectory.

    Arrays are aligned per cycle: busy on [busy_start, busy_end), idle
    on [busy_end, cycle_end).
    """

    busy_start: np.ndarray
    busy_end: np.ndarray
    cycle_end: np.ndarray

    def __post_init__(self):
        for name in ("busy_start", "busy_end", "cycle_end"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (len(self.busy_start) == len(self.busy_end) == len(self.cycle_end)):
            raise ValueError("cycle arrays must be aligned")
        # written so that a NaN fails
        if not (np.all(self.busy_start <= self.busy_end) and np.all(self.busy_end <= self.cycle_end)):
            raise ValueError("cycle boundaries must satisfy busy_start <= busy_end <= cycle_end")

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
    """Split a trajectory at the events where the queue length steps from
    0 to 1 (``_Cycles`` over the path); each busy period ends at its first
    emptying event.  Fewer than two give no cycle."""
    empty = CustomerLedger(*[np.empty(0)] * 5, (path.initial_time, path.final_time))
    found = [closed[0] for closed in _Cycles(rewards=False).over(path, empty)]
    return _joined(found) if found else RenewalCycles(np.empty(0), np.empty(0), np.empty(0))


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
    """Tally holding cost (from the path), response cost (from the
    ledger) and arrival count per cycle, at unit cost weight: ``_Cycles``
    over both.  A cycle's sum of n terms is within (n - 1) * 2**-53
    relative of the exact one.  Cycles that are not those ``detect_cycles``
    finds on this path, compared bit for bit on all three boundaries as
    the fold closes them, or a ledger with no arrival in some cycle,
    raise ValueError."""
    done, batches = 0, []  # cycles matched so far, their rewards
    for found, rewards in _Cycles().over(path, ledger):
        given = (bounds[done : done + len(found)] for bounds in vars(cycles).values())
        if not all(map(np.array_equal, vars(found).values(), given)):
            raise ValueError("cycles were not detected on this path")
        done += len(found)
        batches.append(rewards)
    if done != len(cycles):
        raise ValueError("cycles were not detected on this path")
    return _joined(batches) if batches else CycleRewards(np.empty(0), np.empty(0),
                                                         np.empty(0, dtype=int))


def _joined(batches: list):
    """The fold's batches of cycles, or of rewards, as one."""
    if len(batches) == 1:
        return batches[0]
    return type(batches[0])(*(np.concatenate(column) for column in
                              zip(*(vars(batch).values() for batch in batches))))


class _Cycles:
    """The cycle fold: it keeps the open cycle's segments and, with
    ``rewards``, the records that may still fall in a cycle (records come
    ahead of the segments).  A chunk sums each cycle it closes over all
    its terms, in customer order; with ``totals`` (rewards implied), into
    ``totals`` too."""

    def __init__(self, rewards: bool = True, totals: bool = False) -> None:
        self._rewards = rewards or totals
        self._level = -1  # of the latest segment; none yet
        self._bounds, self._levels = [], []  # the open cycle's segments so far
        self._records: list[tuple] = []  # (arrival, departure, customer) of each chunk kept
        self._sums = [metrics.ExactSum() for _ in range(3)] if totals else None
        self._cycles = self._count = 0

    def add(self, chunk: _Chunk) -> tuple[RenewalCycles, CycleRewards | None] | None:
        """Take a chunk; the cycles it closes, with their rewards, if any."""
        bounds, levels = chunk.bounds, chunk.levels
        # a renewal point is a level 1 right after a level 0, and its busy
        # period ends at the next level 0: zero[ends[i]] for found[i]
        zero = np.flatnonzero(levels == 0)
        after = zero[zero < len(levels) - 1] + 1
        ends = np.flatnonzero(levels[after] == 1)
        found, ends = after[ends], ends + 1
        if self._level == 0 and len(levels) and levels[0] == 1:
            found, ends = np.concatenate(([0], found)), np.concatenate(([0], ends))
        self._level = int(levels[-1]) if len(levels) else self._level
        if self._rewards:
            self._records.append((chunk.arrival, chunk.departure, chunk.customer))
        if self._levels:  # the open cycle, then this chunk's segments
            self._bounds.append(bounds[:-1])
            self._levels.append(levels)
        if not found.size:
            if not self._levels and self._rewards:  # the first cycle opens at bounds[-1] or later
                self._customers(bounds[-1:])
            return None
        busy_end = bounds[zero[ends[:-1]]]
        if self._levels:  # it closes here; its busy period ended at its first level 0
            bounds = np.concatenate(self._bounds + [bounds[-1:]])
            found = np.concatenate(([0], found + len(bounds) - len(levels) - 1))
            levels = np.concatenate(self._levels)
            busy_end = np.concatenate((bounds[[np.argmax(levels == 0)]], busy_end))
        self._bounds, self._levels = [bounds[found[-1] : -1]], [levels[found[-1] :]]
        times = bounds[found]
        if self._rewards:
            arr, dep, lo = self._customers(times)
        if len(found) < 2:
            return None
        cycles = RenewalCycles(times[:-1], busy_end, times[1:])
        if not self._rewards:
            return cycles, None
        count = np.diff(lo)
        # every cycle opens with an arrival, which also keeps reduceat's
        # starts strictly increasing and inside the sojourns
        if count.min() < 1:
            raise ValueError("a cycle has no arrival in this ledger")
        areas = levels[found[0] : found[-1]] * np.diff(bounds[found[0] : found[-1] + 1])
        rewards = CycleRewards(
            np.add.reduceat(areas, found[:-1] - found[0]),
            np.add.reduceat(dep[lo[0] : lo[-1]] - arr[lo[0] : lo[-1]], lo[:-1] - lo[0]), count)
        if self._sums is not None:
            for total, values in zip(self._sums, (cycles.cycle_lengths, *vars(rewards).values())):
                total.add(values)
            self._cycles += len(cycles)
            self._count += int(count.sum())
        return cycles, rewards

    def _customers(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The records kept, in customer order, and where each of ``times``
        falls among their arrivals; those before the last are dropped."""
        arr, dep, who = (c[0] if len(c) == 1 else None if c[-1] is None else np.concatenate(c)
                         for c in zip(*self._records))
        if who is not None:  # LCFS and random order record by slot
            order = np.argsort(who, kind="stable")
            arr, dep, who = arr[order], dep[order], who[order]
        lo = np.searchsorted(arr, times, side="left")
        self._records = [(arr[lo[-1]:], dep[lo[-1]:], None if who is None else who[lo[-1]:])]
        return arr, dep, lo

    def over(self, path: Trajectory, ledger: CustomerLedger):
        """The batches the fold closes over a whole path and ledger."""
        return filter(None, map(self.add, metrics._chunks(path, ledger)))

    def totals(self) -> "CycleTotals":
        """The totals of every cycle closed so far."""
        return CycleTotals(self._cycles, *(total.value() for total in self._sums), self._count)


class CycleTotals(NamedTuple):
    """One run's complete cycles summed to Python scalars: the cycle
    count, total length, holding and response, and the arrival count.
    Small enough to keep while the run's arrays are dropped."""

    cycles: int
    length: float
    holding: float
    response: float
    count: int


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
