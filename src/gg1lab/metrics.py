"""Cost and response functionals over a simulated window.

The central quantities, all in cost units for a weight c per customer
per unit time:

* holding cost: c times the integral of the queue length over the window,
* observed response: per-customer in-system time clipped to the window,
* actual response: full sojourns of the same customers, which exceeds
  the observed total by exactly the pre-window and post-window slices.

The observed total equals the holding cost identically, path by path,
so the two give independent computations of the same number.  Every
total, the busy time behind ``rho_hat`` included, is the correctly
rounded sum of its terms, from an ``ExactSum`` accumulator (summation
by exponent in NumPy, the same bits as ``math.fsum``), so that
identity can be asserted at 1e-9 relative tolerance.  An exact sum does
not depend on how its terms are grouped, so the path and the ledger
are each walked in blocks of ``_BLOCK`` rows, and no temporary grows
with the run.  The rest of the package sums through ``exact_sum``, the
same accumulator fed a whole array.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from ._checks import real
from .simulator import CustomerLedger, Trajectory

# exact_sum's layout: frexp exponents of finite doubles run from -1073
# (the smallest subnormal, 0.5 * 2**-1073) to 1024, one bin each
_EXP_MIN = -1073
_N_BINS = 1024 - _EXP_MIN + 1
_BLOCK = 1 << 16
# a bin summing at most this many whole parts (integers below 2**27) or
# fractions (multiples of 2**-26 below 1) stays an exact double
_FLUSH_LIMIT = 1 << 26


class ExactSum:
    """Accumulator of a correctly rounded float64 sum: ``add`` blocks of
    terms in any grouping, then ``value`` gives the bits of ``math.fsum``
    over all of them.

    Summation by exponent (Demmel & Hida 2003).  ``np.frexp`` writes
    each value as m * 2**e with |m| < 1 and m * 2**53 an integer.  The
    53-bit mantissa splits exactly into a truncated whole part
    trunc(m * 2**27), below 2**27, and a fraction m * 2**27 - whole, a
    multiple of 2**-26 below 1.  Both parts are added into one bin per
    exponent with ``np.bincount``, at most ``_BLOCK`` values at a time;
    one fixed pair of bin arrays spans all 2,098 exponents.  A bin stays
    exact while it holds at most ``_FLUSH_LIMIT`` parts; before more
    arrive the bins are flushed into one Python int, and one int
    division rounds the total correctly.  An exact sum does not depend
    on how its terms are grouped, so the blocks may be cut anywhere.

    ``value`` is NaN once a NaN or an infinity has been added.
    """

    def __init__(self) -> None:
        self._whole, self._frac = np.zeros((2, _N_BINS))
        self._total = 0  # flushed bins, times 2**(53 - _EXP_MIN)
        self._pending = 0  # values added since the last flush
        self._finite = True

    def add(self, values) -> None:
        """Add the terms of a float64 array, ``_BLOCK`` at a time."""
        x = np.asarray(values, dtype=np.float64).ravel()
        for start in range(0, x.size, _BLOCK):
            part = x[start:start + _BLOCK]
            if self._pending + part.size > _FLUSH_LIMIT:
                self._empty_bins()
            mant, expo = np.frexp(part)
            mant *= 1 << 27
            hi = np.trunc(mant)
            with np.errstate(invalid="ignore"):  # inf - inf: a non-finite sum
                mant -= hi
            idx = expo.astype(np.intp)
            idx -= _EXP_MIN
            self._whole += np.bincount(idx, weights=hi, minlength=_N_BINS)
            self._frac += np.bincount(idx, weights=mant, minlength=_N_BINS)
            self._pending += part.size

    def value(self) -> float:
        """The exact sum of every term added, rounded once; 0.0 when it
        is zero or nothing was added.  An exact sum beyond the float
        range raises OverflowError."""
        if self._pending:
            self._empty_bins()
        if not self._finite:
            return math.nan
        return self._total / (1 << (53 - _EXP_MIN))

    def _empty_bins(self) -> None:
        if math.isfinite(self._whole.sum() + self._frac.sum()):
            self._total += _flush(self._whole, self._frac)
        else:
            self._finite = False
            self._whole[:] = self._frac[:] = 0.0
        self._pending = 0


def exact_sum(values) -> float:
    """Correctly rounded sum of a float64 array, the same bits as math.fsum.

    One ``ExactSum`` fed the whole input.  The result is the exact sum
    rounded once, so it matches ``math.fsum`` (Shewchuk 1997) with these
    exceptions, all on purpose:

    * a zero sum is always 0.0, also for [-0.0], as ``math.fsum`` gives
      on Python 3.11; an empty input gives 0.0;
    * an exact sum beyond the float range raises OverflowError, as
      ``math.fsum`` does, but a partial sum out of range does not:
      [1e308, 1e308, -1e308] gives 1e308 where ``math.fsum`` raises.

    An input holding a NaN or an infinity is handed to ``math.fsum``,
    which keeps its results and errors for those.  They depend on the
    order of the terms: on [1e308, 1e308, inf] ``math.fsum`` raises
    OverflowError before it meets the infinity.  So the whole input
    goes, not the block that held the NaN or infinity.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    acc = ExactSum()
    acc.add(x)
    total = acc.value()
    if math.isnan(total):
        return math.fsum(x.tolist())
    return total


def _flush(whole: np.ndarray, frac: np.ndarray) -> int:
    """The bins' exact total times 2**(53 - _EXP_MIN), as a Python int;
    both bins are left zeroed.  Bin i holds parts of values m * 2**e
    with e = i + _EXP_MIN, so after the scaling a whole part weighs
    2**(i + 26) and a fraction times 2**26 weighs 2**i."""
    total = 0
    frac *= 1 << 26
    for bins, shift in ((whole, 26), (frac, 0)):
        nz = np.flatnonzero(bins)
        for i, v in zip(nz.tolist(), bins[nz].tolist()):
            total += int(v) << (i + shift)
        bins[:] = 0.0
    return total


def _path_totals(path: Trajectory) -> tuple[float, float]:
    """(area, busy time): the exact sums of level times width over the
    path's segments, and of the widths at nonzero levels, ``_BLOCK``
    segments at a time."""
    area, busy = ExactSum(), ExactSum()
    n = len(path.times) + 1
    for start in range(0, n, _BLOCK):
        bounds, levels = path.segments(start, start + _BLOCK)
        widths = np.diff(bounds)
        area.add(levels * widths)
        busy.add(widths[levels > 0])
    return area.value(), busy.value()


def _ledger_totals(ledger: CustomerLedger) -> tuple[tuple[float, float, float, float], int]:
    """((observed, actual, pre-window, post-window), count) over the
    window population, ``_BLOCK`` ledger rows at a time: the exact sums
    of the window-clipped sojourns, the full sojourns and their slices
    before the open and after the close, and the number of customers."""
    t_initial, t_final = ledger.window
    observed, actual, initial, final = (ExactSum() for _ in range(4))
    count = 0
    for start in range(0, len(ledger), _BLOCK):
        stop = start + _BLOCK
        sel = ledger.in_window_mask(start, stop)
        arrivals = ledger.arrival_time[start:stop]
        arr = arrivals[sel]
        dep = ledger.departure_time[start:stop][sel]
        observed.add(np.minimum(dep, t_final) - np.maximum(arr, t_initial))
        actual.add(dep - arr)
        initial.add(t_initial - arrivals[ledger.pre_window[start:stop]])
        final.add(dep[dep > t_final] - t_final)
        count += int(np.count_nonzero(sel))
    return (observed.value(), actual.value(), initial.value(), final.value()), count


def holding_cost(path: Trajectory, cost_weight: float) -> float:
    """c times the integral of the queue length over the window."""
    return cost_weight * _path_totals(path)[0]


def observed_response(ledger: CustomerLedger, cost_weight: float) -> float:
    """Window-clipped in-system time, summed over the window population.

    Customers still present at the window close contribute up to the
    close only; the rest of their sojourn is in ``actual_response``.
    """
    return cost_weight * _ledger_totals(ledger)[0][0]


def actual_response(ledger: CustomerLedger, cost_weight: float) -> tuple[float, float, float]:
    """(full-sojourn total, pre-window slice, post-window slice).

    The full sojourn of every window customer, plus its split into the
    parts falling before the window opened and after it closed.  The
    sojourns end at the departures that ``simulate``'s drain resolves.
    """
    _, actual, initial, final = _ledger_totals(ledger)[0]
    return cost_weight * actual, cost_weight * initial, cost_weight * final


@dataclass
class MetricsReport:
    """All window totals and averages, JSON-serialisable with these exact
    field names.  ``window`` is (open, close); ``N_total`` counts the
    window population (present at open plus arrivals inside)."""

    cost_weight: float
    H_total: float
    R_obs_total: float
    R_act_total: float
    R_un_initial: float
    R_un_final: float
    H_bar_t: float
    R_bar_t_obs: float
    R_bar_t_act: float
    H_bar_n: float
    R_bar_n_obs: float
    R_bar_n_act: float
    n_bar_t: float
    lambda_hat: float
    rho_hat: float
    N_total: int
    window: tuple[float, float]

    @property
    def stable(self) -> bool:
        """Heuristic stability flag: the server had measurable idle time."""
        return self.rho_hat < 0.995

    def to_dict(self) -> dict:
        data = asdict(self)
        data["window"] = list(self.window)
        return data

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)


def compute_report(path: Trajectory, ledger: CustomerLedger, cost_weight: float = 1.0) -> MetricsReport:
    """Evaluate every functional over the full window and bundle them.

    One walk over the path's segments and one over the ledger's rows,
    ``_BLOCK`` at a time, feed six exact sums: the area and the busy
    time, and the observed, actual, pre-window and post-window response.
    Only the first and last path blocks copy, to add the window ends and
    the initial count.  ``rho_hat`` is the exact busy time over the
    window length.  The public functionals take the same walks, so the
    report's totals are theirs bit for bit.

    Count averages are zero for an empty window population rather than
    raising, so quiet windows still serialise cleanly.  The path and the
    ledger must cover the same window, of positive length, and the cost
    weight must be a finite real number >= 0, taken as a Python number.
    """
    if not (isinstance(path, Trajectory) and isinstance(ledger, CustomerLedger)):
        raise ValueError(f"need a Trajectory and a CustomerLedger, got {path!r}, {ledger!r}")
    cost_weight = real("cost_weight", cost_weight, 0)
    window = (path.initial_time, path.final_time)
    if window != tuple(ledger.window):
        raise ValueError(f"path window {window} does not match ledger {ledger.window}")
    length = path.window_length
    if not length > 0:
        raise ValueError(f"window {window} has nonpositive length")
    area, busy = _path_totals(path)
    h_total = cost_weight * area
    sums, n_total = _ledger_totals(ledger)
    r_obs, r_act, r_un_initial, r_un_final = (cost_weight * v for v in sums)
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
        rho_hat=busy / length,
        N_total=n_total,
        window=window,
    )


def verify_theorem(
    report: MetricsReport,
    arrival_rate: float | None = None,
    variant: str = "act",
) -> float:
    """Relative residual of (time-average holding cost) = rate x (per-customer response).

    Uses the supplied arrival rate, or the report's windowed estimate
    when None.  variant selects the observed or actual per-customer
    response.  With the windowed rate and the observed variant the
    residual is an algebraic zero, so the interesting checks pass a
    known rate and use the actual variant.  On a saturated window the
    number is still returned but a warning flags it as meaningless.
    """
    if variant not in ("obs", "act"):
        raise ValueError(f"variant must be 'obs' or 'act', got {variant!r}")
    lam = report.lambda_hat if arrival_rate is None else real("arrival_rate", arrival_rate, 0)
    if not report.stable:
        warnings.warn(
            f"rate relation evaluated on a saturated window (rho_hat={report.rho_hat:.3f}); "
            "the residual is not meaningful",
            stacklevel=2,
        )
    r_bar_n = report.R_bar_n_act if variant == "act" else report.R_bar_n_obs
    if report.H_bar_t == 0.0:
        return 0.0 if lam * r_bar_n == 0.0 else math.inf
    return abs(report.H_bar_t - lam * r_bar_n) / abs(report.H_bar_t)


@dataclass(frozen=True)
class LittlesChain:
    """Three routes to the time-average queue length."""

    n_bar_direct: float
    n_bar_from_H: float
    n_bar_from_Rn: float

    def max_pairwise_rel_diff(self) -> float:
        vals = (self.n_bar_direct, self.n_bar_from_H, self.n_bar_from_Rn)
        scale = max(abs(v) for v in vals)
        if scale == 0.0:
            return 0.0
        return (max(vals) - min(vals)) / scale


def littles_chain(report: MetricsReport, arrival_rate: float | None = None) -> LittlesChain:
    """Estimate the time-average queue length three ways: from the path
    integral directly, from the holding-cost time average, and from the
    per-customer response via the arrival rate (Little's law)."""
    lam = report.lambda_hat if arrival_rate is None else arrival_rate
    return LittlesChain(
        n_bar_direct=report.n_bar_t,
        n_bar_from_H=report.H_bar_t / report.cost_weight,
        n_bar_from_Rn=lam * report.R_bar_n_act / report.cost_weight,
    )
