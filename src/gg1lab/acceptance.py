"""Runnable acceptance checks covering the package end to end.

Each criterion is a self-contained check with a pass/fail verdict and a
dict of measured numbers.  The heavyweight simulation runs (ten seeds
of the lambda=0.5, mu=1 exponential queue, one run per seed read at
three nested windows) are shared by several criteria through an
in-process cache, so a full run stays inside its time budgets.

Everything is a deterministic function of (master_seed, scale): the
report files contain no timestamps, hostnames, wall-clock durations, or
absolute paths, and two runs with the same inputs produce byte-equal
files.  ``scale`` shrinks horizons, seed counts, and sample counts
proportionally so the whole suite can be exercised quickly; verdicts at
small scale are still computed but the statistical tolerances are only
expected to hold at scale 1.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import birthdeath, experiments, inspection, mdp, metrics, renewal, simulator
from ._checks import integer, real
from ._parallel import map_in_order
from ._quadpack import qags
from .artifacts import write_json
from .distributions import (
    DistributionSpec,
    deterministic,
    exponential,
    gamma,
    lognormal,
    uniform,
)
from .simulator import fcfs_departure_times, lindley_fcfs, simulate

THEOREM_ARRIVAL_RATE = 0.5
THEOREM_SERVICE_RATE = 1.0
THEOREM_WARMUP = 100.0
THEOREM_HORIZONS = (1.0e4, 1.0e5, 1.0e6)

RUNTIME_BUDGETS_S = {1: 60.0, 3: 120.0}

_DEMO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "..", "configs", "sweep_demo.json")


def demo_config_path() -> str:
    """Location of the committed sweep demo config, resolved relative to
    the package so the suite runs from any working directory."""
    return os.path.normpath(_DEMO_CONFIG)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict
    runtime_s: float = 0.0
    skipped: bool = False

    def line(self) -> str:
        verdict = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return f"criterion {self.number:02d} {verdict} {self.name}"

    def to_dict(self) -> dict:
        # runtime_s deliberately omitted: report files must be
        # byte-stable across runs.
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "skipped": self.skipped,
            "details": self.details,
        }


def _rel_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / scale


def _ks_1samp(sample, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance between a sample of finite
    values and the distribution function cdf, with the same bits as
    scipy.stats.kstest's statistic; NaN for an empty sample."""
    x = np.sort(sample)
    n = x.size
    if n == 0:
        return math.nan
    cdfvals = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def _ks_2samp(data1, data2) -> float:
    """Two-sided Kolmogorov-Smirnov distance between the empirical
    distributions of two samples of finite values, with the same bits as
    scipy.stats.ks_2samp's statistic; NaN if either sample is empty.
    Like scipy's exact mode, taken when neither sample exceeds 10,000,
    the distance is rounded to the nearest multiple of 1/lcm(n1, n2)."""
    data1, data2 = np.sort(data1), np.sort(data2)
    n1, n2 = data1.size, data2.size
    if min(n1, n2) == 0:
        return math.nan
    data_all = np.concatenate([data1, data2])
    # ties: each ECDF counts every value <= the point
    cddiffs = (np.searchsorted(data1, data_all, side="right") / n1
               - np.searchsorted(data2, data_all, side="right") / n2)
    min_s = np.clip(-cddiffs.min(), 0, 1)
    max_s = cddiffs.max()
    d = min_s if min_s > max_s else max_s
    if max(n1, n2) <= 10_000:
        lcm = (n1 // math.gcd(n1, n2)) * n2
        d = int(np.round(d * lcm)) * 1.0 / lcm
    return float(d)


def _theorem_entry(seed: int, horizons: list[float]) -> dict:
    """One seed of the theorem runs: one pass over the run's chunks feeds
    a report fold per window, the shorter ones the restricted run's (the
    bits of separate runs at those horizons), and the cycle fold."""
    windows = [metrics._Window(THEOREM_WARMUP, THEOREM_WARMUP + h) for h in horizons]
    cycles = renewal._Cycles(totals=True)
    arrival, service = exponential(THEOREM_ARRIVAL_RATE), exponential(THEOREM_SERVICE_RATE)
    for chunk in simulator._stream(arrival, service, warmup=THEOREM_WARMUP,
                                   horizon=horizons[-1], seed=seed):
        for fold in (*windows, cycles):
            fold.add(chunk)
    reports = [window.report(1.0) for window in windows]
    return {"seed": seed, "horizons": horizons, "reports": reports, "renewal": cycles.totals()}


class AcceptanceSuite:
    """All acceptance criteria, sharing cached simulation runs."""

    def __init__(self, scale: float = 1.0, master_seed: int = 2026, self_check: bool = True):
        self.scale = real("scale", scale, 0, 1, above=True)
        self.master_seed = integer("master_seed", master_seed)
        self.self_check = self_check
        self._theorem_cache: list[dict] | None = None
        self._inspection_cache: dict | None = None
        self._sweep_cache: tuple | None = None
        self._identity_cache: tuple | None = None

    # ---------------------------------------------------------------- helpers

    def _n(self, full: int, floor: int) -> int:
        return max(floor, int(round(full * self.scale)))

    def _seeds(self) -> list[int]:
        return [self.master_seed + k for k in range(self._n(10, 4))]

    def theorem_runs(self) -> list[dict]:
        """Per-seed results for the shared exponential-queue runs: one run
        per seed at the longest horizon, read at three nested windows (a
        full report for each) plus the renewal-cycle totals of the longest.
        The seeds run on up to one forked worker per usable CPU when their
        events reach ``_parallel.POOL_MIN_EVENTS``; the results, and so
        every report byte, do not depend on where they ran."""
        if self._theorem_cache is not None:
            return self._theorem_cache
        # floors keep reduced-scale runs statistically meaningful: the
        # longest horizon feeds 2%-tolerance comparisons downstream
        floors = (2000.0, 4000.0, 400_000.0)
        horizons = [max(f, h * self.scale) for f, h in zip(floors, THEOREM_HORIZONS)]
        seeds = self._seeds()
        events = simulator._expected_events(exponential(THEOREM_ARRIVAL_RATE),
                                            THEOREM_WARMUP + horizons[-1]) * len(seeds)
        self._theorem_cache = map_in_order(_theorem_entry, [(s, horizons) for s in seeds], events)
        return self._theorem_cache

    def inspection_runs(self) -> dict:
        """Busy-server inspection samples for three service kinds, sized
        for about n_epochs Poisson inspection epochs each, folded from
        each run's chunks; only the busy epochs are kept."""
        if self._inspection_cache is not None:
            return self._inspection_cache
        # the KS tolerances downstream need tens of thousands of busy
        # epochs, so the floor stays high even at small scales
        n_epochs = self._n(100_000, 40_000)
        out = {}
        for tag, spec, expect in (
            ("exponential", exponential(1.0), 1.0),
            ("deterministic", deterministic(2.0), 1.0),
            ("uniform", uniform(0.0, 2.0), 2.0 / 3.0),
        ):
            mean = spec.mean()
            epoch_rate = 0.25 / mean
            horizon = n_epochs / epoch_rate
            # the run's window is [0, horizon]; its chunks fold into the samples
            epochs = inspection.poisson_epochs((0.0, horizon), epoch_rate, self.master_seed + 177)
            samples = inspection._Inspections(epochs, (0.0, horizon))
            for chunk in simulator._stream(exponential(0.5 / mean), spec, horizon=horizon,
                                           seed=self.master_seed + 77):
                samples.add(chunk.start, chunk.departure)
            every = samples.samples()  # criteria 6 and 7 read its busy epochs only
            busy = inspection.InspectionSamples(*(c[every.busy] for c in vars(every).values()))
            out[tag] = {"spec": spec, "expected_age": expect, "samples": busy}
        self._inspection_cache = out
        return out

    def sweep_run(self):
        """The interior-optimum sweep of configs/sweep_demo.json for
        criterion 10, rescaled like everything else."""
        if self._sweep_cache is not None:
            return self._sweep_cache
        config = experiments.ExperimentConfig.from_json_file(demo_config_path())
        if self.scale < 1.0:
            config = replace(
                config,
                horizon=max(10_000.0, config.horizon * self.scale),
                warmup=config.warmup * self.scale,
                seeds=config.seeds[: self._n(len(config.seeds), 2)],
            )
        surface = experiments.run_sweep(config)
        self._sweep_cache = (config, surface)
        return self._sweep_cache

    # -------------------------------------------------------------- criteria

    def _crit_1_and_2(self) -> tuple[dict, dict, bool, bool]:
        """Shared sampler for criteria 1 and 2: random configurations,
        exactness of the identity and of the decomposition."""
        if self._identity_cache is not None:
            return self._identity_cache
        rng = np.random.default_rng(self.master_seed)
        n_cfg = self._n(100, 3)
        kinds = ["exponential", "deterministic", "uniform", "gamma", "lognormal"]
        disciplines = ["fcfs", "lcfs", "random-order"]

        def random_spec() -> DistributionSpec:
            kind = kinds[int(rng.integers(len(kinds)))]
            m = float(rng.uniform(0.5, 2.0))
            if kind == "exponential":
                return exponential(1.0 / m)
            if kind == "deterministic":
                return deterministic(m)
            if kind == "uniform":
                return uniform(0.5 * m, 1.5 * m)
            if kind == "gamma":
                return gamma(float(rng.uniform(0.5, 4.0)), 1.0).with_mean(m)
            return lognormal(0.0, float(rng.uniform(0.2, 1.0))).with_mean(m)

        worst_identity = 0.0
        worst_decomp = 0.0
        order_violations = 0
        for i in range(n_cfg):
            arrival = random_spec()
            service = random_spec()
            discipline = disciplines[i % len(disciplines)]
            if discipline != "fcfs" and service.mean() >= 0.95 * arrival.mean():
                # overloaded non-FCFS drains can push the oldest customer back
                # indefinitely; keep those disciplines in the stable regime
                service = service.with_mean(0.95 * arrival.mean())
            warmup = float(rng.uniform(0.0, 50.0)) if i % 2 else 0.0
            horizon = float(rng.uniform(100.0, 400.0))
            c = float(rng.uniform(0.5, 3.0))
            path, ledger = simulate(
                arrival, service, discipline=discipline,
                warmup=warmup, horizon=horizon, seed=self.master_seed + 500 + i,
            )
            rep = metrics.compute_report(path, ledger, cost_weight=c)
            worst_identity = max(worst_identity, _rel_gap(rep.H_total, rep.R_obs_total))
            recomposed = rep.R_obs_total + rep.R_un_initial + rep.R_un_final
            worst_decomp = max(worst_decomp, _rel_gap(rep.R_act_total, recomposed))
            if rep.R_act_total < rep.H_total - 1e-9 * max(1.0, rep.H_total):
                order_violations += 1
        d1 = {"n_configs": n_cfg, "worst_rel_gap": worst_identity, "tolerance": 1e-9}
        d2 = {
            "n_configs": n_cfg,
            "worst_rel_gap": worst_decomp,
            "order_violations": order_violations,
            "tolerance": 1e-9,
        }
        self._identity_cache = (
            d1, d2, worst_identity <= 1e-9, worst_decomp <= 1e-9 and order_violations == 0
        )
        return self._identity_cache

    def _crit_1(self):
        d1, _, ok1, _ = self._crit_1_and_2()
        return ok1, d1

    def _crit_2(self):
        _, d2, _, ok2 = self._crit_1_and_2()
        return ok2, d2

    def _crit_3(self):
        oracle = birthdeath.truncated_mm1_queue_length(
            THEOREM_ARRIVAL_RATE, THEOREM_SERVICE_RATE, 200
        )
        residuals = []
        oracle_gaps = []
        for entry in self.theorem_runs():
            rep = entry["reports"][-1]
            residuals.append(
                metrics.verify_theorem(rep, arrival_rate=THEOREM_ARRIVAL_RATE, variant="act")
            )
            oracle_gaps.append(_rel_gap(rep.H_bar_t, oracle))
        details = {
            "n_seeds": len(residuals),
            "oracle_H_bar_t": float(oracle),
            "worst_theorem_residual": max(residuals),
            "worst_oracle_gap": max(oracle_gaps),
            "residual_tolerance": 0.02,
            "oracle_tolerance": 0.05,
        }
        ok = max(residuals) < 0.02 and max(oracle_gaps) < 0.05
        return ok, details

    def _crit_4(self):
        worst_pair = 0.0
        worst_oracle = 0.0
        for entry in self.theorem_runs():
            rep = entry["reports"][-1]
            chain = metrics.littles_chain(rep, arrival_rate=THEOREM_ARRIVAL_RATE)
            worst_pair = max(worst_pair, chain.max_pairwise_rel_diff())
            for v in (chain.n_bar_direct, chain.n_bar_from_H, chain.n_bar_from_Rn):
                worst_oracle = max(worst_oracle, abs(v - 1.0))
        details = {
            "worst_pairwise_rel_diff": worst_pair,
            "worst_oracle_gap": worst_oracle,
            "tolerance": 0.05,
        }
        return worst_pair < 0.05 and worst_oracle < 0.05, details

    def _crit_5(self):
        n_customers = self._n(10_000, 500)
        services = [
            exponential(1.0),
            uniform(0.5, 1.5),
            gamma(2.0, 0.5),
            lognormal(-0.125, 0.5),
            deterministic(0.9),
        ]
        horizon = n_customers / THEOREM_ARRIVAL_RATE * 1.25
        mismatches = 0
        worst_ulp = 0.0
        negative_delays = 0
        checked = 0
        for k in range(self._n(10, 2)):
            service = services[k % len(services)]
            path, ledger = simulate(
                exponential(THEOREM_ARRIVAL_RATE), service,
                horizon=horizon, seed=self.master_seed + 900 + k,
            )
            if len(ledger) < n_customers:
                raise RuntimeError(
                    f"run produced {len(ledger)} customers, need {n_customers}"
                )
            a = ledger.arrival_time[:n_customers]
            s = ledger.service_duration[:n_customers]
            engine = ledger.departure_time[:n_customers]
            recon = fcfs_departure_times(a, s)
            mismatches += int(np.count_nonzero(recon != engine))
            checked += n_customers
            delays = lindley_fcfs(a, s)
            negative_delays += int(np.count_nonzero(delays < 0))
            via_sum = a + delays + s
            gap = np.abs(via_sum - engine)
            nz = gap > 0
            if np.any(nz):
                worst_ulp = max(
                    worst_ulp, float(np.max(gap[nz] / np.spacing(np.abs(engine[nz]))))
                )
        details = {
            "customers_checked": checked,
            "bitwise_mismatches": mismatches,
            "negative_delays": negative_delays,
            "delay_sum_worst_ulp": worst_ulp,
        }
        return mismatches == 0 and negative_delays == 0, details

    def _crit_6(self):
        details = {}
        ok = True
        for tag, entry in self.inspection_runs().items():
            samples = entry["samples"]
            expect = entry["expected_age"]
            ages = samples.ages
            res = samples.residuals
            mean_age = float(ages.mean())
            mean_res = float(res.mean())
            ks_sym = _ks_2samp(ages, res)
            details[tag] = {
                "n_busy": int(ages.size),
                "expected": expect,
                "mean_age": mean_age,
                "mean_residual": mean_res,
                "ks_age_vs_residual": ks_sym,
            }
            ok = ok and abs(mean_age - expect) / expect < 0.05
            ok = ok and abs(mean_res - expect) / expect < 0.05
            ok = ok and ks_sym < 0.02
        det = self.inspection_runs()["deterministic"]
        emp_bias = inspection.empirical_bias(det["samples"], det["spec"])
        details["deterministic"]["empirical_bias"] = emp_bias
        ok = ok and abs(emp_bias) < 0.01
        details["tolerances"] = {"mean_rel": 0.05, "ks": 0.02, "deterministic_bias_abs": 0.01}
        return ok, details

    def _crit_7(self):
        # these integrands end within one bisection of QAGS, which is all
        # qags runs; an integrand that needs more is refused, not estimated
        details = {}
        ok = True
        for tag, entry in self.inspection_runs().items():
            spec = entry["spec"]
            samples = entry["samples"]
            upper = spec.quantile(1.0 - 1e-12)
            int_age = qags(
                lambda t: float(inspection.analytic_pdfs(spec, t)["f_age"]), 0.0, upper,
            )[0]
            ks_age = _ks_1samp(samples.ages, lambda t: inspection.age_cdf(spec, t))
            row = {"integral_f_age": float(int_age), "ks_age": ks_age}
            ok = ok and abs(int_age - 1.0) <= 1e-3 and ks_age < 0.02
            if spec.has_density:
                int_total = qags(
                    lambda t: float(inspection.analytic_pdfs(spec, t)["f_observed_total"]),
                    0.0, upper,
                )[0]
                ks_total = _ks_1samp(samples.totals, lambda t: inspection.total_cdf(spec, t))
                row["integral_f_total"] = float(int_total)
                row["ks_total"] = ks_total
                ok = ok and abs(int_total - 1.0) <= 1e-3 and ks_total < 0.02
            details[tag] = row
        details["tolerances"] = {"normalization": 1e-3, "ks": 0.02}
        return ok, details

    def _crit_8(self):
        runs = self.theorem_runs()
        renewal_ht, renewal_rn = renewal.pooled_averages(entry["renewal"] for entry in runs)
        pooled_cycles = sum(entry["renewal"].cycles for entry in runs)
        h_num = 0.0
        h_den = 0.0
        r_num = 0.0
        r_den = 0
        for entry in runs:
            rep = entry["reports"][-1]
            h_num += rep.H_total
            h_den += rep.window[1] - rep.window[0]
            r_num += rep.R_act_total
            r_den += rep.N_total
        global_ht = h_num / h_den
        global_rn = r_num / r_den
        details = {
            "pooled_cycles": pooled_cycles,
            "renewal_H_bar_t": renewal_ht,
            "global_H_bar_t": global_ht,
            "renewal_R_bar_n": renewal_rn,
            "global_R_bar_n": global_rn,
            "rel_gap_H": _rel_gap(renewal_ht, global_ht),
            "rel_gap_R": _rel_gap(renewal_rn, global_rn),
            "tolerance": 0.02,
            "required_cycles": int(100_000 * self.scale),
        }
        ok = (
            details["rel_gap_H"] < 0.02
            and details["rel_gap_R"] < 0.02
            and pooled_cycles >= details["required_cycles"]
        )
        return ok, details

    def _crit_9(self):
        lam, mu = THEOREM_ARRIVAL_RATE, THEOREM_SERVICE_RATE
        inst = mdp.build_instance(lam, [mu], 200)
        policy = np.zeros(201, dtype=int)
        _, rho = mdp.policy_evaluation(inst, policy)
        h_mdp = mdp.continuous_time_average(inst, rho)
        oracle = birthdeath.truncated_mm1_queue_length(lam, mu, 200)
        sim_mean = float(np.mean([e["reports"][-1].H_bar_t for e in self.theorem_runs()]))

        grid_inst = mdp.build_instance(lam, [0.75, 1.0, 1.25], 100)
        tol = 1e-10
        pi_sol = mdp.solve_optimal(grid_inst, "policy-iteration", tol=tol)
        rvi_sol = mdp.solve_optimal(grid_inst, "relative-value-iteration", tol=tol)
        j_gap = float(np.max(np.abs(pi_sol.relative_values - rvi_sol.relative_values)))
        _, rho_alt = mdp.policy_evaluation(grid_inst, pi_sol.policy, distinguished_state=1)
        _, rho_0 = mdp.policy_evaluation(grid_inst, pi_sol.policy, distinguished_state=0)
        scaled = mdp.build_instance(lam, [0.75, 1.0, 1.25], 100, cost_weight=3.7)
        scaled_sol = mdp.solve_optimal(scaled, "policy-iteration", tol=tol)
        longer = [mdp.build_instance(lam, [0.75, 1.0, 1.25], n) for n in (200, 400)]
        n200, n400 = (mdp.continuous_time_average(i, mdp.solve_optimal(i).rho_bar) for i in longer)

        details = {
            "H_bar_t_mdp": float(h_mdp),
            "H_bar_t_oracle": float(oracle),
            "H_bar_t_simulated_mean": sim_mean,
            "oracle_abs_gap": abs(h_mdp - oracle),
            "sim_rel_gap": _rel_gap(h_mdp, sim_mean),
            "solver_policies_equal": bool(np.array_equal(pi_sol.policy, rvi_sol.policy)),
            "solver_J_gap": j_gap,
            "solver_rho_gap": abs(pi_sol.rho_bar - rvi_sol.rho_bar),
            "distinguished_state_rho_gap": abs(rho_alt - rho_0),
            "cost_scaling_policy_identical": bool(np.array_equal(scaled_sol.policy, pi_sol.policy)),
            "truncation_gap_200_400": abs(n400 - n200),
        }
        ok = (
            details["oracle_abs_gap"] < 1e-3
            and details["sim_rel_gap"] < 0.02
            and details["solver_policies_equal"]
            and j_gap < 10 * tol
            and details["distinguished_state_rho_gap"] < 1e-9
            and details["cost_scaling_policy_identical"]
            and details["truncation_gap_200_400"] < 1e-6
        )
        return ok, details

    def _crit_10(self):
        config, surface = self.sweep_run()
        names = experiments.PENALISED_SURFACES
        verdicts = experiments.pairwise_equivalence(surface, names)
        ok = all(v.equivalent for v in verdicts.values())
        argmins = {name: surface.argmin(name) for name in names}
        interior = all(0 < i < len(surface.grid) - 1 for i in argmins.values())
        details = {
            "grid": [float(g) for g in surface.grid],
            "argmins": argmins,
            "argmin_rates": {n: float(surface.grid[i]) for n, i in argmins.items()},
            "interior_optimum": interior,
            "n_seeds": len(config.seeds),
            "verdicts": {pair: v.to_dict() for pair, v in verdicts.items()},
            "unstable_points": surface.unstable_points,
        }
        return ok and interior and not surface.unstable_points, details

    def _crit_11(self):
        """The response gap R_act - R_obs does not grow with the horizon,
        while R_act grows linearly.

        Each seed's gap is fitted against the three horizons, and the
        criterion asks that the 95% t-interval of the mean slope over the
        seeds contain 0.  A true zero slope falls outside a 95% interval
        in about 1 master seed in 20 by construction, so a failure at one
        master seed alone is the expected false alarm: at master seed 404
        the interval is [-6.08e-6, -4.07e-7].  That rate holds for master
        seeds at least 10 apart.  Master seed m runs seeds m, ..., m + 9
        (``_seeds``), so neighbouring master seeds share nine of their ten
        slopes and fail together: 7100 to 7104 all fail on correct code
        (at 7101 the interval is [-4.44e-6, -2.01e-7]), and 7099 and 7105
        pass by 7.5e-8 and 1.5e-7.  A second cluster fails at 58 to 66 and
        at 68 (at 61 the interval is [-3.38e-6, -8.66e-7]), while 57 and
        67 pass.  Over 60 master seeds 10 apart (1000 to 1590) two fail,
        1040 and 1110, as the 1 in 20 predicts.
        """
        slopes = []
        act_rates = []
        for entry in self.theorem_runs():
            horizons = np.array(entry["horizons"])
            gaps = np.array([r.R_act_total - r.R_obs_total for r in entry["reports"]])
            acts = np.array([r.R_act_total for r in entry["reports"]])
            slopes.append(float(np.polyfit(horizons, gaps, 1)[0]))
            act_rates.append(acts / horizons)
        slopes = np.array(slopes)
        n = len(slopes)
        se = slopes.std(ddof=1) / math.sqrt(n)
        t_crit = float(special.stdtrit(n - 1, 0.975))
        lo = float(slopes.mean() - t_crit * se)
        hi = float(slopes.mean() + t_crit * se)
        act_rates = np.array(act_rates)
        mean_rates = act_rates.mean(axis=0)
        linear_spread = float((mean_rates.max() - mean_rates.min()) / mean_rates.mean())
        details = {
            "mean_gap_slope": float(slopes.mean()),
            "slope_ci": [lo, hi],
            "ci_contains_zero": bool(lo <= 0.0 <= hi),
            "R_act_per_time_by_horizon": [float(v) for v in mean_rates],
            "R_act_linear_spread": linear_spread,
            "linear_tolerance": 0.2,
        }
        ok = details["ci_contains_zero"] and linear_spread < 0.2
        return ok, details

    def _crit_12(self):
        if not self.self_check:
            return True, {"note": "self-check disabled for this run"}
        import tempfile

        inner_scale = "0.02"
        # python -m puts its working directory first on sys.path, so the
        # inner runs start in the directory holding this gg1lab and import
        # it, installed or not, whatever the caller's directory or PYTHONPATH
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            # both runs at once; each writes its stderr to a file, so
            # neither can stall on a full pipe that is not being read
            procs = []
            for run_idx in range(2):
                cmd = [
                    sys.executable, "-m", "gg1lab.cli", "verify",
                    "--scale", inner_scale,
                    "--seed", str(self.master_seed),
                    "--out", os.path.join(tmp, f"run{run_idx}"),
                    "--no-self-check",
                ]
                with open(os.path.join(tmp, f"run{run_idx}.stderr"), "w") as err:
                    procs.append(subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                                  cwd=root))
            for proc in procs:
                proc.wait()
            for run_idx, proc in enumerate(procs):
                out_dir = os.path.join(tmp, f"run{run_idx}")
                if not os.path.isdir(out_dir):
                    with open(os.path.join(tmp, f"run{run_idx}.stderr")) as err:
                        stderr = err.read()
                    return False, {
                        "error": "inner verify produced no output directory",
                        "returncode": proc.returncode,
                        "stderr_tail": stderr[-2000:],
                    }
                files = {}
                for name in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, name), "rb") as fh:
                        files[name] = fh.read()
                outputs.append(files)
        same_names = sorted(outputs[0]) == sorted(outputs[1])
        diffs = [
            name
            for name in sorted(outputs[0])
            if outputs[1].get(name) != outputs[0][name]
        ]
        expected = {"acceptance_report.json", "acceptance.txt"}
        has_expected = expected.issubset(set(outputs[0]))
        details = {
            "files": sorted(outputs[0]),
            "same_file_sets": same_names,
            "byte_identical": not diffs,
            "differing_files": diffs,
            "expected_files_present": has_expected,
        }
        return same_names and not diffs and has_expected, details

    # ------------------------------------------------------------------- API

    CRITERIA = {
        1: ("holding cost equals observed response on random configurations", "_crit_1"),
        2: ("actual response decomposes exactly into observed plus edge terms", "_crit_2"),
        3: ("time-average cost equals rate times per-customer response", "_crit_3"),
        4: ("three queue-length estimates agree and match the oracle", "_crit_4"),
        5: ("event-engine departures match the waiting-time recursion bitwise", "_crit_5"),
        6: ("inspected age and residual match length-biased moments", "_crit_6"),
        7: ("inspection densities normalise and fit the samples", "_crit_7"),
        8: ("renewal-reward estimators reproduce the global averages", "_crit_8"),
        9: ("control-model evaluation matches oracle and simulation", "_crit_9"),
        10: ("cost surfaces share their minimiser on the demo sweep", "_crit_10"),
        11: ("response gap is horizon-free while totals grow linearly", "_crit_11"),
        12: ("verification pipeline is byte-deterministic", "_crit_12"),
    }

    def criterion(self, number: int) -> CriterionResult:
        name, attr = self.CRITERIA[number]
        start = time.monotonic()
        passed, details = getattr(self, attr)()
        runtime = time.monotonic() - start
        budget = RUNTIME_BUDGETS_S.get(number)
        if budget is not None and self.scale >= 1.0:
            details["runtime_budget_s"] = budget
            if runtime > budget:
                details["runtime_over_budget"] = True
                passed = False
        skipped = number == 12 and not self.self_check
        return CriterionResult(
            number=number,
            name=name,
            passed=passed,
            details=details,
            runtime_s=runtime,
            skipped=skipped,
        )

    def run_all(self, out_dir=None, progress=None) -> list[CriterionResult]:
        results = []
        for number in sorted(self.CRITERIA):
            result = self.criterion(number)
            results.append(result)
            if progress is not None:
                progress(f"{result.line()}  [{result.runtime_s:.1f}s]")
        if out_dir is not None:
            write_report_files(results, out_dir, self.master_seed, self.scale)
        return results


def write_report_files(results, out_dir, master_seed: int, scale: float) -> list[str]:
    """acceptance.txt (one line per criterion plus a summary) and
    acceptance_report.json (full details).  Both byte-deterministic."""
    os.makedirs(out_dir, exist_ok=True)
    txt_path = os.path.join(out_dir, "acceptance.txt")
    n_pass = sum(1 for r in results if r.passed)
    with open(txt_path, "w", newline="") as fh:
        for r in results:
            fh.write(r.line() + "\n")
        fh.write(f"{n_pass}/{len(results)} criteria passed\n")
    json_path = os.path.join(out_dir, "acceptance_report.json")
    payload = {
        "master_seed": master_seed,
        "scale": scale,
        "all_passed": n_pass == len(results),
        "results": [r.to_dict() for r in results],
    }
    write_json(json_path, payload)
    return [txt_path, json_path]
