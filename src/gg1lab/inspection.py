"""Inspection of in-progress services: the length-biased view.

Inspecting the server at a random epoch lands inside long services more
often than short ones, so the service interval seen on inspection is
biased: its mean exceeds the plain service mean by
beta = Var / mean, and the age and residual of the interrupted service
share the density sf(t) / mean.  Epochs come from a Poisson stream
independent of the queue so the sampling itself adds no further bias.
They are drawn up front, so the samples fold from a run's chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import integer, real
from .artifacts import write_csv
from .distributions import DistributionSpec
from .metrics import exact_sum
from .simulator import DEFAULT_EVENT_CAP, CustomerLedger, Trajectory


@dataclass(frozen=True)
class InspectionSamples:
    """Columnar inspection results; age/residual/total are nan at idle epochs."""

    inspect_time: np.ndarray
    busy: np.ndarray
    age: np.ndarray
    residual: np.ndarray
    total: np.ndarray

    def __len__(self) -> int:
        return len(self.inspect_time)

    @property
    def busy_fraction(self) -> float:
        return float(np.mean(self.busy)) if len(self) else 0.0

    @property
    def ages(self) -> np.ndarray:
        return self.age[self.busy]

    @property
    def residuals(self) -> np.ndarray:
        return self.residual[self.busy]

    @property
    def totals(self) -> np.ndarray:
        return self.total[self.busy]

    def to_csv(self, path) -> None:
        """Columns epoch, busy, age, residual, total."""
        write_csv(path, ("epoch", "busy", "age", "residual", "total"),
                  (self.inspect_time, self.busy, self.age, self.residual, self.total))


def poisson_epochs(window: tuple[float, float], rate: float, rng) -> np.ndarray:
    """Sorted epochs of a Poisson stream over the window, independent of
    the queue being inspected.  The rate must be finite and > 0, the
    window ends finite, and the expected count rate * length no more
    than the event cap a simulation takes by default.  ``rng`` is a
    numpy Generator or an integer seed >= 0."""
    rate = real("rate", rate, 0, above=True)
    if not (isinstance(window, (list, tuple)) and len(window) == 2):
        raise ValueError(f"window must be a pair (start, end), got {window!r}")
    t0, t1 = (real(name, t) for name, t in zip(("window start", "window end"), window))
    if t1 <= t0:
        raise ValueError(f"window {window} has nonpositive length")
    if not rate * (t1 - t0) <= DEFAULT_EVENT_CAP:
        raise ValueError(f"expected epoch count rate * length = {rate * (t1 - t0):g} exceeds "
                         f"the default event cap {DEFAULT_EVENT_CAP:g}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(integer("rng", rng))
    n = int(rng.poisson(rate * (t1 - t0)))
    return np.sort(rng.uniform(t0, t1, n))


def sample_inspections(ledger: CustomerLedger, path: Trajectory, epochs) -> InspectionSamples:
    """Inspect the server at each epoch and record the in-progress service.

    At a busy epoch the sample carries the age (time since service
    start), the residual (time to completion), and the total length of
    the interrupted service; idle epochs carry nan for all three.
    ``_Inspections`` given the ledger's services, in order of start.
    """
    fold = _Inspections(epochs, (path.initial_time, path.final_time))
    order = np.argsort(ledger.service_start, kind="stable")
    fold.add(ledger.service_start[order], ledger.departure_time[order], last=True)
    return fold.samples()


class _Inspections:
    """The inspection fold: epochs up front, then services in order of
    start.  An epoch sees the latest service to start by then, so a chunk
    resolves the sorted epochs before its last start; the last, the rest."""

    def __init__(self, epochs, window: tuple[float, float]) -> None:
        self._epochs = epochs = np.asarray(epochs, dtype=float)
        if epochs.ndim != 1:
            raise ValueError(f"epochs must be a 1-D array, got shape {epochs.shape}")
        # written so that a NaN fails
        if epochs.size and not (window[0] <= epochs.min() and epochs.max() <= window[1]):
            raise ValueError(f"epochs must lie within the window [{window[0]}, {window[1]}]")
        self._busy = np.zeros(len(epochs), dtype=bool)
        self._seen = np.empty((3, len(epochs)))  # age, residual, total
        self._done = 0  # epochs resolved
        self._start, self._departure = -np.inf, np.nan  # the latest service; none yet

    def add(self, starts: np.ndarray, departures: np.ndarray, last: bool = False) -> None:
        # the epochs before the chunk's last start, if it has one
        lo, hi = self._done, int(np.searchsorted(self._epochs, starts[-1:]).sum())
        self._done = hi = len(self._epochs) if last else max(lo, hi)
        starts = np.concatenate(([self._start], starts))
        deps = np.concatenate(([self._departure], departures))
        self._start, self._departure = starts[-1], deps[-1]
        epochs = self._epochs[lo:hi]
        idx = np.searchsorted(starts, epochs, side="right") - 1
        start, dep = starts[idx], deps[idx]
        self._busy[lo:hi] = busy = epochs < dep
        for out, value in zip(self._seen, (epochs - start, dep - epochs, dep - start)):
            out[lo:hi] = np.where(busy, value, np.nan)

    def samples(self) -> InspectionSamples:
        """Every epoch's sample, once the last chunk is in."""
        self.add(np.empty(0), np.empty(0), last=True)
        return InspectionSamples(self._epochs, self._busy, *self._seen)


def expected_age(spec: DistributionSpec) -> float:
    """Mean age of the interrupted service: second moment over twice the mean."""
    return spec.second_moment() / (2.0 * spec.mean())


def expected_total(spec: DistributionSpec) -> float:
    """Mean length of the interrupted service (length-biased mean)."""
    return spec.second_moment() / spec.mean()


def bias(spec: DistributionSpec) -> float:
    """Excess of the inspected service mean over the plain mean:
    variance over mean, zero only for the deterministic kind."""
    return spec.variance() / spec.mean()


def analytic_pdfs(spec: DistributionSpec, t) -> dict[str, np.ndarray]:
    """Densities of the inspected quantities at the points t.

    f_age and f_residual share the form sf(t) / mean and exist for every
    kind; f_observed_total is t * pdf(t) / mean and needs a density, so
    it is omitted from the result for the deterministic kind.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("densities are defined for t >= 0 only")
    m = spec.mean()
    f_age = np.asarray(spec.sf(t), dtype=float) / m
    out = {"f_age": f_age, "f_residual": f_age.copy()}
    if spec.has_density:
        out["f_observed_total"] = t * np.asarray(spec.pdf(t), dtype=float) / m
    return out


def age_cdf(spec: DistributionSpec, t) -> np.ndarray:
    """Distribution function of the age (and residual): the integral of
    sf over [0, t] scaled by the mean, available in closed form as the
    truncated mean."""
    return spec.truncated_mean(t) / spec.mean()


def total_cdf(spec: DistributionSpec, t) -> np.ndarray:
    """Distribution function of the inspected (length-biased) service
    length: E[X; X <= t] / E[X], recovered from the truncated mean; 1 at
    t = +inf."""
    t = np.asarray(t, dtype=float)
    return (spec.truncated_mean(t) - spec._tail(t)) / spec.mean()


def pdf_curve_csv(spec: DistributionSpec, t, path) -> None:
    """Columns t, f_age, [f_observed_total,] f_residual, for plotting."""
    t = np.asarray(t, dtype=float)
    curves = analytic_pdfs(spec, t)
    names = sorted(curves)
    write_csv(path, ["t", *names], [t, *(curves[n] for n in names)])


def empirical_bias(samples: InspectionSamples, spec: DistributionSpec) -> float:
    """mean(inspected totals) - mean(service): the sampled counterpart of bias()."""
    totals = samples.totals
    if totals.size == 0:
        raise ValueError("no busy epochs; cannot estimate bias")
    return float(exact_sum(totals) / totals.size - spec.mean())
