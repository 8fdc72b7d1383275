"""The event-driven engine that ``gg1lab.simulator.simulate`` replaced.

This is the original event loop, kept verbatim as an independent oracle
for the slot kernel: it advances one arrival or departure at a time,
draws each service duration when service starts, and keeps the waiting
customers in a queue that the discipline pops.  The kernel must match it
bitwise on every output column, on the path and on the fields of
``EventCapExceeded``.

``_slot_departures`` is the slot kernel's scalar loop as it was before
the busy-period kernel, kept verbatim as the chunk-level oracle.
"""

from __future__ import annotations

import math
from array import array
from collections import deque

import numpy as np

from gg1lab.distributions import DistributionSpec
from gg1lab.simulator import (
    CustomerLedger,
    EventCapExceeded,
    Trajectory,
    _normalise_discipline,
)

_SAMPLE_BLOCK = 16384

# server-slot sentinels: no one in service / an unledgered drain arrival
_IDLE = -1
_DRAIN = -2


def simulate(
    arrival: DistributionSpec,
    service: DistributionSpec,
    discipline: str = "fcfs",
    warmup: float = 0.0,
    horizon: float = 1000.0,
    seed: int = 0,
    *,
    event_cap: int = 100_000_000,
) -> tuple[Trajectory, CustomerLedger]:
    """Simulate the queue and return its path and per-customer ledger.

    Args:
        arrival: inter-arrival duration distribution.
        service: service duration distribution (drawn at service start).
        discipline: "fcfs", "lcfs" or "random-order".
        warmup: window opens at this time; the system starts empty at 0.
        horizon: window length; the window is [warmup, warmup + horizon].
        seed: master seed; arrival, service and discipline draws come
            from independent substreams spawned from it.
        event_cap: hard bound on processed events.

    The run continues past the window end until every customer that
    arrived by then has departed.

    Ties between an arrival and a departure at the same instant are
    broken arrival-first.
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    mode = _normalise_discipline(discipline)
    t_initial = float(warmup)
    t_final = t_initial + float(horizon)

    arr_ss, svc_ss, disc_ss = np.random.SeedSequence(seed).spawn(3)
    arr_rng = np.random.default_rng(arr_ss)
    svc_rng = np.random.default_rng(svc_ss)
    disc_rng = np.random.default_rng(disc_ss)

    arr_buf = arrival.sample(arr_rng, _SAMPLE_BLOCK).tolist()
    arr_i = 1
    svc_buf = service.sample(svc_rng, _SAMPLE_BLOCK).tolist()
    svc_i = 0
    pick_buf: list[float] = []
    pick_i = 0

    # ledger columns (compact typed arrays; appends dominate the hot loop)
    col_arr = array("d")
    col_start = array("d")
    col_dur = array("d")
    col_dep = array("d")

    ev_times = array("d")
    ev_counts = array("q")

    queue: deque[int] | list[int] = deque() if mode == 0 else []
    nan = math.nan
    inf = math.inf
    t_arr = arr_buf[0]
    t_dep = inf
    serving = _IDLE
    n = 0
    initial_count = 0
    pending = 0  # undeparted customers with arrival_time <= t_final
    events = 0

    while True:
        if t_arr <= t_dep:
            t = t_arr
            is_arrival = True
        else:
            t = t_dep
            is_arrival = False
        if t > t_final and pending == 0:
            break
        events += 1
        if events > event_cap:
            raise EventCapExceeded(
                f"event cap {event_cap} exceeded at t={t:.6g} (queue length {n})",
                events=events - 1,
                time_reached=t,
                queue_length=n,
            )

        if is_arrival:
            if t <= t_final:
                cid = len(col_arr)
                col_arr.append(t)
                col_start.append(nan)
                col_dur.append(nan)
                col_dep.append(nan)
                pending += 1
            else:
                # arrivals during the post-window drain only contend for the
                # server; they are dropped from the ledger, so keep no row
                cid = _DRAIN
            if serving == _IDLE:
                if svc_i == _SAMPLE_BLOCK:
                    svc_buf = service.sample(svc_rng, _SAMPLE_BLOCK).tolist()
                    svc_i = 0
                dur = svc_buf[svc_i]
                svc_i += 1
                if cid >= 0:
                    col_start[cid] = t
                    col_dur[cid] = dur
                t_dep = t + dur
                serving = cid
            else:
                queue.append(cid)
            n += 1
            if arr_i == _SAMPLE_BLOCK:
                arr_buf = arrival.sample(arr_rng, _SAMPLE_BLOCK).tolist()
                arr_i = 0
            t_arr = t + arr_buf[arr_i]
            arr_i += 1
        else:
            if serving >= 0:
                col_dep[serving] = t
                pending -= 1
            n -= 1
            if queue:
                if mode == 0:
                    nxt = queue.popleft()
                elif mode == 1:
                    nxt = queue.pop()
                else:
                    if pick_i == len(pick_buf):
                        pick_buf = disc_rng.random(_SAMPLE_BLOCK).tolist()
                        pick_i = 0
                    k = int(pick_buf[pick_i] * len(queue))
                    pick_i += 1
                    if k >= len(queue):
                        k = len(queue) - 1
                    nxt = queue[k]
                    queue[k] = queue[-1]
                    queue.pop()
                if svc_i == _SAMPLE_BLOCK:
                    svc_buf = service.sample(svc_rng, _SAMPLE_BLOCK).tolist()
                    svc_i = 0
                dur = svc_buf[svc_i]
                svc_i += 1
                if nxt >= 0:
                    col_start[nxt] = t
                    col_dur[nxt] = dur
                t_dep = t + dur
                serving = nxt
            else:
                serving = _IDLE
                t_dep = inf

        if t < t_initial:
            initial_count = n
        elif t <= t_final:
            ev_times.append(t)
            ev_counts.append(n)

    times, counts = _canonical_path(ev_times, ev_counts, initial_count)
    trajectory = Trajectory(
        initial_time=t_initial,
        final_time=t_final,
        initial_count=initial_count,
        times=times,
        counts=counts,
    )

    arr_a = np.asarray(col_arr, dtype=float)
    keep = int(np.searchsorted(arr_a, t_final, side="right"))
    arr_a = arr_a[:keep]
    start_a = np.asarray(col_start[:keep], dtype=float)
    dur_a = np.asarray(col_dur[:keep], dtype=float)
    dep_a = np.asarray(col_dep[:keep], dtype=float)
    pre = (arr_a < t_initial) & (dep_a >= t_initial)
    ledger = CustomerLedger(
        arrival_time=arr_a,
        service_start=start_a,
        service_duration=dur_a,
        departure_time=dep_a,
        pre_window=pre,
        window=(t_initial, t_final),
    )
    return trajectory, ledger


def _canonical_path(ev_times, ev_counts, initial_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep the last event of each timestamp, then drop no-op levels."""
    times = np.asarray(ev_times, dtype=float)
    counts = np.asarray(ev_counts, dtype=np.int64)
    if times.size:
        keep = np.ones(times.size, dtype=bool)
        keep[:-1] = times[1:] != times[:-1]
        times = times[keep]
        counts = counts[keep]
        prev = np.concatenate(([initial_count], counts[:-1]))
        changed = counts != prev
        times = times[changed]
        counts = counts[changed]
    return times, counts


def _slot_departures(arrivals: np.ndarray, services: np.ndarray, dep: float) -> list[float]:
    """D_k = max(D_{k-1}, A_k) + s_k over one chunk of slots, starting
    from the departure ``dep`` of the slot before the chunk."""
    out = []
    append = out.append
    for a, s in zip(arrivals.tolist(), services.tolist()):
        if a > dep:
            dep = a
        dep += s
        append(dep)
    return out
