"""Nonnegative duration distributions for arrival and service processes.

Five families covering squared coefficients of variation below, at, and
above one: exponential, deterministic, uniform on an interval, gamma,
and lognormal.  Each spec carries exact moments, density and survival
function evaluation where defined, and reproducible sampling from a
numpy Generator.

pdf, sf, quantile and truncated_mean give the same bits as scipy.stats
(expon, uniform, gamma, lognorm and norm) without importing it, which
takes most of a second.  They take the steps of scipy's generic
rv_continuous wrappers: standardise x = (t - loc) / scale; evaluate the
kind's standard-form formula, copied from scipy's _pdf, _sf and _ppf
and written on scipy.special ufuncs, only at the points inside the
support; and fill the rest (pdf 0 off the closed support, sf 1 at or
below its lower end and 0 at or above its upper end, NaN at NaN).  The
density divides by scale and the quantile is _ppf(q) * scale + loc.
scipy.special is imported on first use, and only by the formulas that
need it, so importing this module loads no scipy, nor does pdf, sf or
quantile for the kinds whose formulas are NumPy's.
tests/test_distributions.py keeps scipy.stats as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import real

KINDS = ("exponential", "deterministic", "uniform", "gamma", "lognormal")

# each kind's parameters, in order, as (name, lower bound, bound excluded)
_PARAMS = {
    "exponential": (("rate", 0, True),),
    "deterministic": (("value", 0, True),),
    "uniform": (("low", 0, False), ("high", 0, True)),
    "gamma": (("shape", 0, True), ("scale", 0, True)),
    "lognormal": (("log_mean", -math.inf, False), ("log_sigma", 0, True)),
}


@dataclass(frozen=True)
class DistributionSpec:
    """Immutable description of a nonnegative duration distribution.

    params by kind:
        exponential:   (rate,)            rate > 0
        deterministic: (value,)           value > 0
        uniform:       (low, high)        0 <= low < high
        gamma:         (shape, scale)     both > 0
        lognormal:     (log_mean, log_sigma)   log_sigma > 0

    params is a list of finite reals, stored as floats (bool and str
    raise ValueError).  Every kind also needs a mean and a second moment
    that are finite doubles > 0, so that rates, loads and variances are
    defined.

    Use the module-level constructors (``exponential``, ``uniform``, ...)
    rather than instantiating directly; validation happens either way.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}; expected one of {KINDS}")
        names = _PARAMS[self.kind]
        if not (isinstance(self.params, (list, tuple)) and len(self.params) == len(names)):
            raise ValueError(f"{self.kind} params must be a list of {len(names)} real "
                             f"number(s) {tuple(n for n, _, _ in names)}, got {self.params!r}")
        object.__setattr__(self, "params", tuple(
            float(real(f"{self.kind} {name}", p, lo, above=above))
            for (name, lo, above), p in zip(names, self.params)))
        if self.kind == "uniform" and not self.params[0] < self.params[1]:
            raise ValueError(f"uniform requires low < high, got {self.params}")
        try:
            moments = (self.mean(), self.second_moment())
        except (OverflowError, ZeroDivisionError):  # a power past the double range
            moments = (math.inf,)
        if not all(math.isfinite(m) and m > 0 for m in moments):
            raise ValueError(
                f"{self.kind}({', '.join(map(repr, self.params))}) has a mean or second "
                "moment that overflows or underflows; both must be finite doubles > 0"
            )

    # ------------------------------------------------------------------
    # moments

    def mean(self) -> float:
        k, p = self.kind, self.params
        if k == "exponential":
            return 1.0 / p[0]
        if k == "deterministic":
            return p[0]
        if k == "uniform":
            return 0.5 * (p[0] + p[1])
        if k == "gamma":
            return p[0] * p[1]
        return math.exp(p[0] + 0.5 * p[1] ** 2)

    def second_moment(self) -> float:
        k, p = self.kind, self.params
        if k == "exponential":
            return 2.0 / p[0] ** 2
        if k == "deterministic":
            return p[0] ** 2
        if k == "uniform":
            low, high = p
            return (low * low + low * high + high * high) / 3.0
        if k == "gamma":
            shape, scale = p
            return shape * (shape + 1.0) * scale * scale
        return math.exp(2.0 * p[0] + 2.0 * p[1] ** 2)

    def variance(self) -> float:
        return self.second_moment() - self.mean() ** 2

    # ------------------------------------------------------------------
    # distribution functions

    @property
    def has_density(self) -> bool:
        return self.kind != "deterministic"

    def _standard(self):
        """(loc, scale, shape) with X = loc + scale * Z, where Z is the
        kind's standard variable in scipy.stats' parametrisation.  shape
        is a one-element array for gamma and lognormal, as scipy's
        wrappers pass it, and None for the kinds without one.  The
        deterministic kind has no standard form."""
        k, p = self.kind, self.params
        if k == "exponential":
            return 0.0, 1.0 / p[0], None
        if k == "uniform":
            return p[0], p[1] - p[0], None
        if k == "gamma":
            return 0.0, p[1], np.array([p[0]])
        return 0.0, math.exp(p[0]), np.array([p[1]])

    def _support(self) -> tuple[float, float]:
        """Ends of the standard variable's support."""
        return (0.0, 1.0) if self.kind == "uniform" else (0.0, math.inf)

    def _on_support(self, t, closed: bool, below: float, above: float, formula):
        """scipy.stats' generic wrapper around a standard-form function:
        standardise t, evaluate the formula on the support (closed, or
        open), and give `below` at or below its lower end, `above` at or
        above its upper end, and NaN at NaN.  The formula sees only the
        points inside (+inf never is), so points outside raise no warnings."""
        loc, scale, _ = self._standard()
        x = (np.asarray(t, dtype=float) - loc) / scale
        a, b = self._support()
        out = np.where(x <= a, below, np.where(x >= b, above, np.nan))
        inside = (a <= x) & (x <= b) & (x < math.inf) if closed else (a < x) & (x < b)
        out[inside] = formula(x[inside])
        return out[()] if out.ndim == 0 else out

    def pdf(self, t):
        if not self.has_density:
            raise ValueError("deterministic distribution has no density")
        k = self.kind
        _, scale, s = self._standard()

        def density(x):
            if k == "exponential":
                return np.exp(-x)
            if k == "uniform":
                return 1.0 * (x == x)
            if k == "gamma":
                from scipy import special

                return np.exp(special.xlogy(s - 1.0, x) - x - special.gammaln(s))
            # the log density only where x != 0, and -inf at 0
            logpdf = np.full(x.shape, -np.inf)
            nz = x != 0
            xs, ss = x[nz], np.broadcast_to(s, x.shape)[nz]
            logpdf[nz] = -np.log(xs)**2 / (2 * ss**2) - np.log(ss * xs * np.sqrt(2 * np.pi))
            return np.exp(logpdf)

        return self._on_support(t, True, 0.0, 0.0, lambda x: density(x) / scale)

    def sf(self, t):
        """Complementary cdf, 1 - F(t)."""
        if self.kind == "deterministic":
            t = np.asarray(t, dtype=float)
            out = (t < self.params[0]).astype(float)
            return out if out.ndim else float(out)
        k = self.kind
        s = self._standard()[2]

        def survival(x):
            if k == "exponential":
                return np.exp(-x)
            if k == "uniform":
                return 1.0 - x
            from scipy import special

            if k == "gamma":
                return special.gammaincc(s, x)
            return special.ndtr(-(np.log(x) / s))

        return self._on_support(t, False, 1.0, 0.0, survival)

    def quantile(self, q: float) -> float:
        """The q-quantile for q in [0, 1]; q = 0 and q = 1 give the ends of
        the support.  Any other q, NaN included, raises ValueError."""
        q = real("q", q, 0, 1)
        if self.kind == "deterministic":
            return self.params[0]
        k = self.kind
        loc, scale, s = self._standard()
        a, b = self._support()
        if q == 0.0:
            return float(a * scale + loc)
        if q == 1.0:
            return float(b * scale + loc)
        q = np.array([q], dtype=float)
        if k == "uniform":
            return float((q * scale + loc)[0])
        from scipy import special

        if k == "exponential":
            z = -special.log1p(-q)
        elif k == "gamma":
            z = special.gammaincinv(s, q)
        else:
            z = np.exp(s * special.ndtri(q))
        return float((z * scale + loc)[0])

    def _tail(self, t: np.ndarray) -> np.ndarray:
        """t * sf(t) at the points t >= 0, and its limit 0 at t = +inf."""
        return np.multiply(t, self.sf(t), out=np.zeros_like(t), where=t != math.inf)

    def truncated_mean(self, t):
        """E[min(X, t)], the integral of the complementary cdf over [0, t].

        Accepts scalars or arrays; t must be nonnegative, and +inf gives
        the mean.
        """
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0):
            raise ValueError("truncated_mean requires t >= 0")
        k, p = self.kind, self.params
        if k == "exponential":
            rate = p[0]
            out = -np.expm1(-rate * arr) / rate
        elif k == "deterministic":
            out = np.minimum(arr, p[0])
        elif k == "uniform":
            low, high = p
            inside = arr.clip(low, high)
            out = arr.clip(max=low) + (inside - low) - (inside - low) ** 2 / (2.0 * (high - low))
        elif k == "gamma":
            from scipy import special

            shape, scale = p
            # the cdf of gamma(shape + 1, scale)
            cdf = self._on_support(arr, False, 0.0, 1.0, lambda x: special.gammainc(shape + 1.0, x))
            out = self._tail(arr) + shape * scale * cdf
        else:
            from scipy import special

            mu, sigma = p
            with np.errstate(divide="ignore"):
                z = np.where(arr > 0, (np.log(np.where(arr > 0, arr, 1.0)) - mu - sigma**2) / sigma, -np.inf)
            out = self._tail(arr) + self.mean() * special.ndtr(z)
        return out if out.ndim else float(out)

    # ------------------------------------------------------------------
    # sampling and reshaping

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """An ndarray of ``size`` durations drawn with the supplied generator."""
        k, p = self.kind, self.params
        if k == "exponential":
            return rng.exponential(1.0 / p[0], size)
        if k == "deterministic":
            return np.full(size, p[0])
        if k == "uniform":
            return rng.uniform(p[0], p[1], size)
        if k == "gamma":
            return rng.gamma(p[0], p[1], size)
        return rng.lognormal(p[0], p[1], size)

    def with_mean(self, mean: float) -> "DistributionSpec":
        """Rescale to the requested mean (finite, > 0), keeping the shape and variance / mean^2."""
        mean = real("mean", mean, 0, above=True)
        k, p = self.kind, self.params
        if k == "exponential":
            return DistributionSpec("exponential", (1.0 / mean,))
        if k == "deterministic":
            return DistributionSpec("deterministic", (mean,))
        if k == "uniform":
            factor = mean / self.mean()
            return DistributionSpec("uniform", (p[0] * factor, p[1] * factor))
        if k == "gamma":
            return DistributionSpec("gamma", (p[0], mean / p[0]))
        return DistributionSpec("lognormal", (math.log(mean) - 0.5 * p[1] ** 2, p[1]))

    # ------------------------------------------------------------------
    # serialisation

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "DistributionSpec":
        if not (isinstance(data, dict) and "kind" in data and "params" in data):
            raise ValueError(f"distribution object needs 'kind' and 'params': {data!r}")
        return cls(data["kind"], data["params"])


# ----------------------------------------------------------------------
# constructors

def exponential(rate: float) -> DistributionSpec:
    return DistributionSpec("exponential", (rate,))


def deterministic(value: float) -> DistributionSpec:
    return DistributionSpec("deterministic", (value,))


def uniform(low: float, high: float) -> DistributionSpec:
    return DistributionSpec("uniform", (low, high))


def gamma(shape: float, scale: float) -> DistributionSpec:
    return DistributionSpec("gamma", (shape, scale))


def lognormal(log_mean: float, log_sigma: float) -> DistributionSpec:
    return DistributionSpec("lognormal", (log_mean, log_sigma))

