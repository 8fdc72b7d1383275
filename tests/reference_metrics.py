"""The whole-array ``compute_report`` that ``gg1lab.metrics`` used before
it walked the path and the ledger in blocks: every total from arrays
over the whole run, built at once.  Kept as the oracle of the block
walk in ``test_metrics.py``.

It shares no summation or slicing code with the library: each exact
total is ``math.fsum`` (the oracle of ``exact_sum``), and the segments
and the window population are built here as ``Trajectory.segments``
and ``CustomerLedger.in_window_mask`` built them over the whole run.
One change from the old code, on purpose: ``rho_hat``'s busy time is
an exact sum too, where the old code took ``np.sum``.
"""

from __future__ import annotations

import math

import numpy as np

from gg1lab.metrics import MetricsReport
from gg1lab.simulator import CustomerLedger, Trajectory


def exact_sum(values) -> float:
    return math.fsum(np.asarray(values, dtype=np.float64).tolist())


def segments(path: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """(boundaries, levels): levels[i] holds on [boundaries[i], boundaries[i+1])."""
    bounds = np.concatenate(([path.initial_time], path.times, [path.final_time]))
    levels = np.concatenate(([path.initial_count], path.counts))
    return bounds, levels


def in_window_mask(ledger: CustomerLedger) -> np.ndarray:
    t_initial, t_final = ledger.window
    arrivals = (ledger.arrival_time >= t_initial) & (ledger.arrival_time <= t_final)
    return ledger.pre_window | arrivals


def _observed_total(arr, dep, window, cost_weight) -> float:
    clipped = np.minimum(dep, window[1]) - np.maximum(arr, window[0])
    return cost_weight * exact_sum(clipped)


def _actual_totals(ledger, arr, dep, cost_weight) -> tuple[float, float, float]:
    t_initial, t_final = ledger.window
    total = cost_weight * exact_sum(dep - arr)
    initial = cost_weight * exact_sum(t_initial - ledger.arrival_time[ledger.pre_window])
    final = cost_weight * exact_sum(dep[dep > t_final] - t_final)
    return total, initial, final


def compute_report(path: Trajectory, ledger: CustomerLedger, cost_weight: float = 1.0) -> MetricsReport:
    if isinstance(cost_weight, bool) or not (isinstance(cost_weight, (int, float))
                                             and math.isfinite(cost_weight) and cost_weight >= 0):
        raise ValueError(f"cost weight must be finite and nonnegative, got {cost_weight!r}")
    window = (path.initial_time, path.final_time)
    if window != tuple(ledger.window):
        raise ValueError(f"path window {window} does not match ledger {ledger.window}")
    length = path.window_length
    if not length > 0:
        raise ValueError(f"window {window} has nonpositive length")
    bounds, levels = segments(path)
    widths = np.diff(bounds)
    area = exact_sum(levels * widths)
    h_total = cost_weight * area
    sel = in_window_mask(ledger)
    arr = ledger.arrival_time[sel]
    dep = ledger.departure_time[sel]
    r_obs = _observed_total(arr, dep, window, cost_weight)
    r_act, r_un_initial, r_un_final = _actual_totals(ledger, arr, dep, cost_weight)
    n_total = int(np.count_nonzero(sel))
    lam_hat = n_total / length
    if n_total > 0:
        h_bar_n = h_total / n_total
        r_bar_n_obs = r_obs / n_total
        r_bar_n_act = r_act / n_total
    else:
        h_bar_n = r_bar_n_obs = r_bar_n_act = 0.0
    return MetricsReport(
        cost_weight=cost_weight,
        H_total=h_total,
        R_obs_total=r_obs,
        R_act_total=r_act,
        R_un_initial=r_un_initial,
        R_un_final=r_un_final,
        H_bar_t=h_total / length,
        R_bar_t_obs=r_obs / length,
        R_bar_t_act=r_act / length,
        H_bar_n=h_bar_n,
        R_bar_n_obs=r_bar_n_obs,
        R_bar_n_act=r_bar_n_act,
        n_bar_t=area / length,
        lambda_hat=lam_hat,
        rho_hat=exact_sum(widths[levels > 0]) / length,
        N_total=n_total,
        window=window,
    )
