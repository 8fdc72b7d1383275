"""Nonnegative duration distributions for arrival and service processes.

Five families covering squared coefficients of variation below, at, and
above one: exponential, deterministic, uniform on an interval, gamma,
and lognormal.  Each spec carries exact moments, density and survival
function evaluation where defined, and reproducible sampling from a
numpy Generator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

KINDS = ("exponential", "deterministic", "uniform", "gamma", "lognormal")

_PARAM_NAMES = {
    "exponential": ("rate",),
    "deterministic": ("value",),
    "uniform": ("low", "high"),
    "gamma": ("shape", "scale"),
    "lognormal": ("log_mean", "log_sigma"),
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

    params is a tuple or list of real numbers.  Every kind also needs a
    mean and a second moment that are finite doubles > 0, so that rates,
    loads and variances are defined.

    Use the module-level constructors (``exponential``, ``uniform``, ...)
    rather than instantiating directly; validation happens either way.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}; expected one of {KINDS}")
        if not (isinstance(self.params, (list, tuple))
                and all(isinstance(p, numbers.Real) for p in self.params)):
            raise ValueError(f"{self.kind} params must be a list of real numbers, got {self.params!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        names = _PARAM_NAMES[self.kind]
        if len(self.params) != len(names):
            raise ValueError(
                f"{self.kind} takes {len(names)} parameter(s) {names}, got {len(self.params)}"
            )
        for name, value in zip(names, self.params):
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} parameter {name} must be finite, got {value}")
        if self.kind == "exponential" and self.params[0] <= 0:
            raise ValueError(f"exponential rate must be > 0, got {self.params[0]}")
        if self.kind == "deterministic" and self.params[0] <= 0:
            raise ValueError(f"deterministic value must be > 0, got {self.params[0]}")
        if self.kind == "uniform":
            low, high = self.params
            if low < 0 or not low < high:
                raise ValueError(f"uniform requires 0 <= low < high, got ({low}, {high})")
        if self.kind == "gamma" and (self.params[0] <= 0 or self.params[1] <= 0):
            raise ValueError(f"gamma requires shape > 0 and scale > 0, got {self.params}")
        if self.kind == "lognormal" and self.params[1] <= 0:
            raise ValueError(f"lognormal requires log_sigma > 0, got {self.params[1]}")
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

    def pdf(self, t):
        if not self.has_density:
            raise ValueError("deterministic distribution has no density")
        return _frozen(self).pdf(t)

    def sf(self, t):
        """Complementary cdf, 1 - F(t)."""
        if self.kind == "deterministic":
            t = np.asarray(t, dtype=float)
            out = (t < self.params[0]).astype(float)
            return out if out.ndim else float(out)
        return _frozen(self).sf(t)

    def quantile(self, q: float) -> float:
        if self.kind == "deterministic":
            return self.params[0]
        return float(_frozen(self).ppf(q))

    def truncated_mean(self, t):
        """E[min(X, t)], the integral of the complementary cdf over [0, t].

        Accepts scalars or arrays; t must be nonnegative.
        """
        from scipy import stats

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
            shape, scale = p
            out = arr * stats.gamma.sf(arr, shape, scale=scale) + shape * scale * stats.gamma.cdf(
                arr, shape + 1.0, scale=scale
            )
        else:
            mu, sigma = p
            with np.errstate(divide="ignore"):
                z = np.where(arr > 0, (np.log(np.where(arr > 0, arr, 1.0)) - mu - sigma**2) / sigma, -np.inf)
            out = arr * self.sf(arr) + self.mean() * stats.norm.cdf(z)
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
        """Rescale to the requested mean, preserving the shape (and variance / mean^2)."""
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
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
        try:
            kind, params = data["kind"], data["params"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"distribution object needs 'kind' and 'params': {data!r}") from exc
        return cls(kind, params)


@lru_cache(maxsize=128)
def _frozen(spec: DistributionSpec):
    """Frozen scipy distribution for pdf/sf/ppf evaluation."""
    from scipy import stats

    k, p = spec.kind, spec.params
    if k == "exponential":
        return stats.expon(scale=1.0 / p[0])
    if k == "uniform":
        return stats.uniform(loc=p[0], scale=p[1] - p[0])
    if k == "gamma":
        return stats.gamma(p[0], scale=p[1])
    if k == "lognormal":
        return stats.lognorm(p[1], scale=math.exp(p[0]))
    raise ValueError(f"no scipy counterpart for kind {k!r}")


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

