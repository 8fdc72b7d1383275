"""Config-driven response-surface sweeps over the service rate.

A sweep simulates the same queue at each service rate on a shared seed
list, reduces per-run reports into per-rate means and standard errors,
and optionally folds in a wear penalty k0 * exp(-k1 * mu) charged per
unit time.  Surfaces that differ by positive scaling or additive
constants keep their minimisers, so the check_equivalence verdict asks
only where the argmins fall, not what the values are.

Outputs are deterministic functions of the config: file contents carry
no timestamps, hostnames, or absolute paths.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import metrics
from ._checks import integer, real
from .artifacts import write_csv, write_json, write_jsonl
from .distributions import DistributionSpec
from .simulator import _normalise_discipline, simulate

CONFIG_VERSION = 1

RAW_SURFACES = ("H_bar_t", "H_bar_n", "R_bar_n_obs", "R_bar_n_act")
PENALISED_SURFACES = (
    "total_cost_with_penalty",
    "H_bar_n_with_penalty",
    "R_bar_n_obs_with_penalty",
    "R_bar_n_act_with_penalty",
)

# check_equivalence: argmins this many grid steps apart still agree, and
# the noise gauge resamples the seeds this many times
_TOLERANCE_STEPS = 1
_BOOTSTRAP = 200


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one sweep.

    service_shape fixes the service distribution family; at each grid
    rate the shape is rescaled to mean 1/rate, so the grid sweeps the
    rate without changing the family's variability profile.  Numbers are
    finite reals (rates and horizon > 0, cost_weight and warmup >= 0) or
    integers >= 0 (seeds); bool, str and the rest raise ValueError.
    """

    arrival: DistributionSpec
    service_shape: DistributionSpec
    rate_grid: tuple[float, ...]
    seeds: tuple[int, ...]
    discipline: str = "fcfs"
    cost_weight: float = 1.0
    penalty_k0: float = 0.0
    penalty_k1: float = 0.0
    warmup: float = 0.0
    horizon: float = 10_000.0
    version: int = CONFIG_VERSION

    def __post_init__(self):
        for name in ("rate_grid", "seeds"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        object.__setattr__(self, "rate_grid", tuple(
            float(real(f"rate_grid[{i}]", r, 0, above=True)) for i, r in enumerate(self.rate_grid)))
        object.__setattr__(self, "seeds", tuple(
            integer(f"seeds[{i}]", s) for i, s in enumerate(self.seeds)))
        for name, lo in (("cost_weight", 0), ("penalty_k0", -math.inf), ("penalty_k1", -math.inf),
                         ("warmup", 0), ("horizon", 0)):
            value = real(name, getattr(self, name), lo, above=name == "horizon")
            object.__setattr__(self, name, value)
        if len(self.rate_grid) == 0:
            raise ValueError("rate grid must be nonempty")
        if any(b <= a for a, b in zip(self.rate_grid, self.rate_grid[1:])):
            raise ValueError("rate grid must be strictly increasing")
        if len(set(self.seeds)) != len(self.seeds) or not self.seeds:
            raise ValueError("seeds must be a nonempty list of distinct integers")
        if not math.isfinite(self.warmup + self.horizon):
            raise ValueError(f"warmup + horizon overflows: {self.warmup!r} + {self.horizon!r}")
        if integer("version", self.version) != CONFIG_VERSION:
            raise ValueError(f"unsupported config version {self.version}")
        _normalise_discipline(self.discipline)
        for rate in self.rate_grid:
            try:
                pen = self.penalty_rate(rate)
            except OverflowError:
                pen = math.inf
            if not math.isfinite(pen):
                raise ValueError(f"penalty k0 * exp(-k1 * mu) is not a finite double at "
                                 f"mu={rate!r} (k0={self.penalty_k0!r}, k1={self.penalty_k1!r})")

    def service_at(self, rate: float) -> DistributionSpec:
        return self.service_shape.with_mean(1.0 / rate)

    def penalty_rate(self, rate: float) -> float:
        return self.penalty_k0 * math.exp(-self.penalty_k1 * rate)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "arrival": self.arrival.to_dict(),
            "service_shape": self.service_shape.to_dict(),
            "rate_grid": list(self.rate_grid),
            "seeds": list(self.seeds),
            "discipline": self.discipline,
            "cost_weight": self.cost_weight,
            "penalty_k0": self.penalty_k0,
            "penalty_k1": self.penalty_k1,
            "warmup": self.warmup,
            "horizon": self.horizon,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a ``to_dict`` mapping; a key that names no field,
        or data that is not a mapping, raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"a sweep config is a JSON object, got {data!r}")
        names = {f.name for f in fields(cls)}
        unknown = [key for key in data if key not in names]
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; expected {sorted(names)}")
        return cls(**{
            **data,
            "arrival": DistributionSpec.from_dict(data.get("arrival")),
            "service_shape": DistributionSpec.from_dict(data.get("service_shape")),
            "rate_grid": data.get("rate_grid"),
            "seeds": data.get("seeds"),
        })

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class ResponseSurface:
    """Per-rate summary of a sweep: means and standard errors across
    seeds for each named metric, plus the per-seed values they reduce
    and stability annotations for saturated grid points."""

    grid: np.ndarray
    surfaces: dict[str, np.ndarray]
    stderrs: dict[str, np.ndarray]
    per_seed: dict[str, np.ndarray]
    seeds: tuple[int, ...]
    unstable_points: list[dict] = field(default_factory=list)
    reports: list[tuple[dict, metrics.MetricsReport]] = field(default_factory=list)

    def argmin(self, name: str) -> int:
        return int(np.argmin(self.surfaces[name]))


def run_sweep(config: ExperimentConfig) -> ResponseSurface:
    """Simulate every (rate, seed) pair and reduce to a ResponseSurface.

    Saturated runs (no measurable idle time) are annotated in
    unstable_points and kept in the surfaces; callers decide whether to
    mask them.
    """
    grid = np.asarray(config.rate_grid)
    n_r, n_s = len(grid), len(config.seeds)
    per_seed = {name: np.zeros((n_r, n_s)) for name in RAW_SURFACES + PENALISED_SURFACES}
    unstable = []
    reports = []
    for i, rate in enumerate(grid):
        service = config.service_at(rate)
        pen = config.penalty_rate(rate)
        for j, seed in enumerate(config.seeds):
            path, ledger = simulate(
                config.arrival,
                service,
                discipline=config.discipline,
                warmup=config.warmup,
                horizon=config.horizon,
                seed=seed,
            )
            rep = metrics.compute_report(path, ledger, config.cost_weight)
            length = rep.window[1] - rep.window[0]
            pen_total = pen * length
            per_seed["H_bar_t"][i, j] = rep.H_bar_t
            per_seed["H_bar_n"][i, j] = rep.H_bar_n
            per_seed["R_bar_n_obs"][i, j] = rep.R_bar_n_obs
            per_seed["R_bar_n_act"][i, j] = rep.R_bar_n_act
            per_seed["total_cost_with_penalty"][i, j] = rep.H_bar_t + pen
            if rep.N_total > 0:
                per_customer_pen = pen_total / rep.N_total
            else:
                per_customer_pen = 0.0
            per_seed["H_bar_n_with_penalty"][i, j] = rep.H_bar_n + per_customer_pen
            per_seed["R_bar_n_obs_with_penalty"][i, j] = rep.R_bar_n_obs + per_customer_pen
            per_seed["R_bar_n_act_with_penalty"][i, j] = rep.R_bar_n_act + per_customer_pen
            if not rep.stable:
                unstable.append({"rate": float(rate), "seed": seed, "rho_hat": rep.rho_hat})
            reports.append(({"mu": float(rate), "seed": seed}, rep))
    surfaces = {name: vals.mean(axis=1) for name, vals in per_seed.items()}
    stderrs = {
        name: (vals.std(axis=1, ddof=1) / math.sqrt(n_s) if n_s > 1 else np.zeros(n_r))
        for name, vals in per_seed.items()
    }
    return ResponseSurface(
        grid=grid,
        surfaces=surfaces,
        stderrs=stderrs,
        per_seed=per_seed,
        seeds=config.seeds,
        unstable_points=unstable,
        reports=reports,
    )


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    argmin_a: int
    argmin_b: int
    step_distance: int
    bootstrap_agreement: float

    def to_dict(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "argmin_a": self.argmin_a,
            "argmin_b": self.argmin_b,
            "step_distance": self.step_distance,
            "bootstrap_agreement": self.bootstrap_agreement,
        }


def check_equivalence(surface: ResponseSurface, name_a: str, name_b: str) -> EquivalenceVerdict:
    """Do two cost surfaces from the same sweep share a minimiser?

    The verdict compares argmin indices within ``_TOLERANCE_STEPS`` grid
    steps.  The bootstrap fraction resamples seeds with replacement
    ``_BOOTSTRAP`` times and reports how often the resampled
    argmins also agree, as a noise gauge on flat surfaces; it is
    reported, not part of the verdict.
    """
    for name in (name_a, name_b):
        if name not in surface.surfaces:
            raise KeyError(f"surface {name!r} not present; have {sorted(surface.surfaces)}")
    a = surface.argmin(name_a)
    b = surface.argmin(name_b)
    dist = abs(a - b)
    agree = 0
    n_s = len(surface.seeds)
    rng = np.random.default_rng(0)
    if n_s > 1:
        pa, pb = surface.per_seed[name_a], surface.per_seed[name_b]
        for _ in range(_BOOTSTRAP):
            pick = rng.integers(0, n_s, n_s)
            ra = int(np.argmin(pa[:, pick].mean(axis=1)))
            rb = int(np.argmin(pb[:, pick].mean(axis=1)))
            agree += abs(ra - rb) <= _TOLERANCE_STEPS
        frac = agree / _BOOTSTRAP
    else:
        frac = float(dist <= _TOLERANCE_STEPS)
    return EquivalenceVerdict(
        equivalent=dist <= _TOLERANCE_STEPS,
        argmin_a=a,
        argmin_b=b,
        step_distance=dist,
        bootstrap_agreement=frac,
    )


def pairwise_equivalence(surface: ResponseSurface, names) -> dict[str, EquivalenceVerdict]:
    """check_equivalence on every pair of the named surfaces, keyed
    "a|b" with a before b in names."""
    return {
        f"{a}|{b}": check_equivalence(surface, a, b)
        for i, a in enumerate(names)
        for b in names[i + 1:]
    }


def emit_reports(surface: ResponseSurface, config: ExperimentConfig, directory) -> list[str]:
    """Write surface.csv, reports.jsonl, and config.echo.json.

    Contents are pure functions of the inputs so byte-level comparison
    across reruns is meaningful.  Returns the written paths.
    """
    os.makedirs(directory, exist_ok=True)
    written = []

    # one row per (rate, metric), metrics sorted within each rate
    csv_path = os.path.join(directory, "surface.csv")
    names = sorted(surface.surfaces)
    write_csv(csv_path, ("mu", "metric", "mean", "stderr"),
              (np.repeat(surface.grid, len(names)), names * len(surface.grid),
               np.column_stack([surface.surfaces[n] for n in names]).ravel(),
               np.column_stack([surface.stderrs[n] for n in names]).ravel()))
    written.append(csv_path)

    jsonl_path = os.path.join(directory, "reports.jsonl")
    write_jsonl(jsonl_path, ({**extra, **report.to_dict()} for extra, report in surface.reports))
    written.append(jsonl_path)

    echo_path = os.path.join(directory, "config.echo.json")
    write_json(echo_path, config.to_dict())
    written.append(echo_path)
    return written
