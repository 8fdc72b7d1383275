"""Cost and response functionals over a simulated window.

The central quantities, all in cost units for a weight c per customer
per unit time, are fields of the report that ``compute_report`` builds:

* holding cost ``H_total``: c times the integral of the queue length,
* observed response ``R_obs_total``: in-system time clipped to the window,
* actual response ``R_act_total``: full sojourns of the same customers,
  which exceeds the observed total by exactly the pre-window and
  post-window slices ``R_un_initial`` and ``R_un_final``.

The observed total equals the holding cost identically, path by path,
so the two give independent computations of the same number.  Every
total, the busy time behind ``rho_hat`` included, is the correctly
rounded sum of its terms, from an ``ExactSum`` accumulator (summation
by exponent in NumPy, the same bits as ``math.fsum``), so that
identity can be asserted at 1e-9 relative tolerance.  An exact sum does
not depend on how its terms are grouped, so an ``ExactSum`` takes the
terms of each chunk as they come, and the report is a fold over a run's
chunks, ``_Window``, in which no temporary grows with the run;
``compute_report`` runs it over a whole path and ledger.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from ._checks import real
from .simulator import CustomerLedger, Trajectory, _Chunk

# exact_sum's layout: frexp exponents of finite doubles run from -1073
# (the smallest subnormal, 0.5 * 2**-1073) to 1024, one bin each
_EXP_MIN = -1073
_N_BINS = 1024 - _EXP_MIN + 1
_BLOCK = 1 << 16


class ExactSum:
    """Accumulator of a correctly rounded float64 sum: ``add`` terms in
    any grouping, and ``value``, at any time, gives the bits of
    ``math.fsum`` over all of them so far.

    Summation by exponent (Demmel & Hida 2003).  ``np.frexp`` writes
    each value as m * 2**e with |m| < 1 and m * 2**53 an integer, which
    splits exactly into a whole part trunc(m * 2**27), below 2**27, and a
    rest m * 2**53 - whole * 2**26, below 2**26.  ``np.bincount`` sums
    each part by exponent, ``_BLOCK`` = 2**16 values at a time, so its
    sums (below 2**43) are exact doubles, and adds them into two int64
    bins for each of the 2,098 exponents.  The bins stay exact for 2**36
    values, far more than the 2 * ``DEFAULT_EVENT_CAP`` terms of any sum
    over a run, so they are never flushed: ``value`` turns them into one
    Python int, and one int division rounds it.

    Each bincount spans only the exponents of its own block, from the
    least, so a short add costs little: its sums go into the slice of
    the bins from that exponent up.  An exact sum does not depend on how
    its terms are grouped, so the blocks may be cut anywhere.

    ``value`` is NaN once a NaN or an infinity has been added: the whole
    parts of a block holding one have no finite sum.
    """

    def __init__(self) -> None:
        self._whole, self._rest = np.zeros((2, _N_BINS), dtype=np.int64)
        self._finite = True

    def add(self, values) -> None:
        """Add the terms of a float64 array, ``_BLOCK`` at a time."""
        x = np.asarray(values, dtype=np.float64).ravel()
        for start in range(0, x.size, _BLOCK):
            mant, expo = np.frexp(x[start:start + _BLOCK])
            mant *= 1 << 27
            hi = np.trunc(mant)
            with np.errstate(invalid="ignore"):  # inf - inf: a non-finite sum
                mant -= hi
            idx = expo.astype(np.intp)
            low = int(idx.min())
            idx -= low
            whole = np.bincount(idx, weights=hi)
            if not math.isfinite(whole.sum()):
                self._finite = False
                continue
            rest = np.bincount(idx, weights=mant)
            rest *= 1 << 26
            bins = slice(low - _EXP_MIN, low - _EXP_MIN + len(whole))
            self._whole[bins] += whole.astype(np.int64)
            self._rest[bins] += rest.astype(np.int64)

    def value(self) -> float:
        """The exact sum of every term added so far, rounded once; 0.0
        when it is zero or nothing was added.  It only reads the bins.
        An exact sum beyond the float range raises OverflowError."""
        if not self._finite:
            return math.nan
        # bin i holds parts of values m * 2**e with e = i + _EXP_MIN; in
        # units of 2**(_EXP_MIN - 53) a whole part weighs 2**(i + 26) and
        # a rest 2**i
        nz = np.flatnonzero(self._whole | self._rest)
        total = sum(((w << 26) + r) << i for i, w, r in
                    zip(nz.tolist(), self._whole[nz].tolist(), self._rest[nz].tolist()))
        return total / (1 << (53 - _EXP_MIN))


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


def _chunks(path: Trajectory, ledger: CustomerLedger):
    """A whole path and ledger as the chunks of ``simulator._stream``: the
    segments ``_BLOCK`` at a time, each after the rows (``_BLOCK`` at a
    time) that arrive by its last bound, as ``restrict`` cuts the ledger."""
    n, rows = len(path.times) + 1, 0
    columns = list(vars(ledger).values())[:5]
    for start in range(0, n, _BLOCK):
        bounds, levels = path.segments(start, start + _BLOCK)
        end = len(ledger) if start + _BLOCK >= n else max(rows, len(ledger.restrict(bounds[-1])))
        for lo in range(rows, max(end, rows + 1), _BLOCK):  # the rows, then the segments
            hi = min(lo + _BLOCK, end)
            yield _Chunk(*(column[lo:hi] for column in columns), None,
                         bounds if hi == end else bounds[:1], levels if hi == end else levels[:0])
        rows = end


class _Window:
    """The report fold over [open, ``t_final``]: the six exact sums and
    the count of ``compute_report``.  A window that closes before the run
    cuts the path with ``Trajectory.restrict``: the restricted run's."""

    def __init__(self, t_initial: float, t_final: float) -> None:
        self.window = (t_initial, t_final)
        self._sums = [ExactSum() for _ in range(6)]
        self._count = 0
        self._closed = None  # the sums, once no later chunk has a term

    def add(self, chunk: _Chunk) -> None:
        t_initial, t_final = self.window
        if self._closed:
            return
        area, busy, observed, actual, initial, final = self._sums
        bounds, levels = chunk.bounds, chunk.levels
        if len(levels) and bounds[-1] > t_final:  # the window closes by the chunk's end
            piece = Trajectory(bounds[0], bounds[-1], int(levels[0]), bounds[1:-1], levels[1:])
            bounds, levels = (piece.restrict(t_final).segments() if bounds[0] <= t_final
                              else (bounds[:1], levels[:0]))
        widths = np.diff(bounds)
        area.add(levels * widths)
        busy.add(widths[levels > 0])
        # the chunk's customers, as a ledger over the window selects them
        sel = CustomerLedger(*chunk[:5], window=self.window).in_window_mask()
        arr, dep = chunk.arrival[sel], chunk.departure[sel]
        observed.add(np.minimum(dep, t_final) - np.maximum(arr, t_initial))
        actual.add(dep - arr)
        initial.add(t_initial - chunk.arrival[chunk.pre_window])
        final.add(dep[dep > t_final] - t_final)
        self._count += int(np.count_nonzero(sel))
        # past the end on the path and, in customer order, the arrivals
        if (chunk.bounds[-1] > t_final and chunk.customer is None
                and len(chunk.arrival) and chunk.arrival[-1] > t_final):
            self._closed = [total.value() for total in self._sums]  # later chunks are skipped

    def report(self, cost_weight: float) -> MetricsReport:
        """The report at a cost weight already checked to be a real >= 0."""
        length = self.window[1] - self.window[0]
        area, busy, *sums = self._closed or [total.value() for total in self._sums]
        unscaled = [area, *sums, *(v / length for v in (area, *sums[:2]))]
        totals = [cost_weight * v for v in (area, *sums)]
        scaled = totals + [v / length for v in totals[:3]]
        tiny = np.finfo(float).tiny  # the smallest normal float
        past = not all(map(math.isfinite, scaled))
        if past or cost_weight and any(abs(v) < tiny <= abs(u) for u, v in zip(unscaled, scaled)):
            raise ValueError(f"cost_weight {cost_weight!r} takes a total or a time average "
                             f"{'past the' if past else 'below the normal'} float range")
        n = self._count
        # the fields in order: totals, time averages, count averages, the rest
        per_customer = [v / n if n > 0 else 0.0 for v in totals[:3]]
        return MetricsReport(cost_weight, *scaled, *per_customer, area / length, n / length,
                             busy / length, n, self.window)


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
    """Evaluate every functional over the full window and bundle them:
    the report fold, ``_Window``, over the path and the ledger a block
    at a time.  ``rho_hat`` is the exact busy time over the window length.

    Count averages are zero for an empty window population rather than
    raising, so quiet windows still serialise cleanly.  The path and the
    ledger must cover the same window, of positive length, and the cost
    weight must be a finite real number >= 0, taken as a Python number,
    that keeps every total and time average finite and, where nonzero
    at weight 1, a normal float.
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
    fold = _Window(*window)
    for chunk in _chunks(path, ledger):
        fold.add(chunk)
    return fold.report(cost_weight)


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
    per-customer response via the arrival rate (Little's law).  The last
    two divide by the cost weight, so a report of weight 0 raises
    ValueError, as does an arrival rate that is not a finite real >= 0."""
    if report.cost_weight == 0:
        raise ValueError("littles_chain needs a report of positive cost_weight, got 0")
    lam = report.lambda_hat if arrival_rate is None else real("arrival_rate", arrival_rate, 0)
    return LittlesChain(
        n_bar_direct=report.n_bar_t,
        n_bar_from_H=report.H_bar_t / report.cost_weight,
        n_bar_from_Rn=lam * report.R_bar_n_act / report.cost_weight,
    )
