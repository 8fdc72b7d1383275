"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``
(untimed, counted in ``setup_s``), runs one timed pass of its
operations in ``run_pass`` through gg1lab's public functions only, and
checks that pass's outputs in ``check`` (untimed).  Calls go through
module attributes (``simulator.simulate``, ``metrics.compute_report``)
so the tracer's rebinding reaches them.

An operation is a criterion on ``verify``, a replication on
``replication-export`` and a solve on ``mdp-solve``.  An operation that
raises, or whose output fails a check, counts as failed; the pass goes
on with the next operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from gg1lab import acceptance, birthdeath, experiments, inspection, mdp, metrics, renewal, simulator
from gg1lab.distributions import exponential, lognormal


@dataclass
class Checked:
    """Outcome of checking one pass."""

    attempted: int
    failed: int
    digest: str
    customers: int = 0
    problems: list[str] = field(default_factory=list)


def write_report_json(report, path) -> None:
    """report.json exactly as ``gg1lab simulate`` writes it."""
    with open(path, "w", newline="") as fh:
        fh.write(report.to_json(indent=2))
        fh.write("\n")


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _data_rows(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


def warm_up(workdir: str) -> None:
    """Untimed first calls into every layer, so that lazy imports, scipy's
    first-use set-up and the BLAS thread pool are paid in set-up.  The
    inputs are tiny and fixed; nothing here is reused later."""
    arrival, service = exponential(0.8), lognormal(-0.3, 0.6)
    for disc in ("fcfs", "lcfs", "random-order"):
        path, ledger = simulator.simulate(arrival, service, discipline=disc, horizon=200.0, seed=1)
    report = metrics.compute_report(path, ledger)
    cycles = renewal.detect_cycles(path)
    renewal.cycle_rewards(cycles, path, ledger)
    epochs = inspection.poisson_epochs((path.initial_time, path.final_time), 0.1, 2)
    samples = inspection.sample_inspections(ledger, path, epochs)
    simulator.fcfs_departure_times(ledger.arrival_time[:50], ledger.service_duration[:50])
    out = os.path.join(workdir, "warm")
    os.makedirs(out, exist_ok=True)
    ledger.to_csv(os.path.join(out, "customer.csv"))
    path.to_csv(os.path.join(out, "path.csv"))
    cycles.to_csv(os.path.join(out, "cycles.csv"))
    samples.to_csv(os.path.join(out, "inspections.csv"))
    inspection.pdf_curve_csv(service, np.linspace(0.0, 3.0, 8), os.path.join(out, "pdf_curves.csv"))
    write_report_json(report, os.path.join(out, "report.json"))
    # a dense solve big enough to start OpenBLAS's threads
    inst = mdp.build_instance(0.5, [0.75, 1.0, 1.25], 400)
    for method in MdpSolve.METHODS:
        mdp.implied_response(mdp.solve_optimal(inst, method), inst)


# ------------------------------------------------------------------ verify

class Verify:
    """The acceptance gate as ``gg1lab verify --no-self-check`` runs it:
    all twelve criteria on a fresh suite, no files written."""

    name = "verify"

    def __init__(self, seed: int, workdir: str, quick: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.scale = 0.02 if quick else 1.0

    def setup(self) -> None:
        warm_up(self.workdir)
        config = experiments.ExperimentConfig.from_json_file(acceptance.demo_config_path())
        experiments.check_equivalence(
            experiments.run_sweep(experiments.ExperimentConfig.from_dict(
                {**config.to_dict(), "horizon": 500.0, "seeds": [1, 2]})),
            *experiments.PENALISED_SURFACES[:2])

    def run_pass(self):
        suite = acceptance.AcceptanceSuite(scale=self.scale, master_seed=self.seed, self_check=False)
        results = []
        for number in sorted(suite.CRITERIA):
            try:
                results.append(suite.criterion(number))
            except Exception as exc:  # one broken criterion must not end the pass
                results.append(acceptance.CriterionResult(
                    number, suite.CRITERIA[number][0], False, {"error": repr(exc)}))
        return results

    def check(self, results) -> Checked:
        out = os.path.join(self.workdir, "verify")
        paths = acceptance.write_report_files(results, out, self.seed, self.scale)
        run = [r for r in results if not r.skipped]  # criterion 12 does not run without the self-check
        failed = [r for r in run if not r.passed]
        return Checked(
            attempted=len(run),
            failed=len(failed),
            digest=_sha256_files([p for p in paths if p.endswith(".json")]),
            problems=[r.line() for r in failed],
        )


# ------------------------------------------------------- replication-export

@dataclass
class Replication:
    discipline: str
    out: str
    error: str | None = None
    report: object = None
    sizes: dict = field(default_factory=dict)
    samples: object = None


class ReplicationExport:
    """One LCFS and one random-order replication through the chain of
    ``gg1lab simulate`` and ``gg1lab inspect``, exporting every file."""

    name = "replication-export"
    ARRIVAL_RATE = 0.8
    SERVICE = (-0.3, 0.6)  # lognormal; rho = 0.8 * exp(-0.12) ~ 0.71
    EPOCH_RATE = 0.1
    PDF_POINTS = 512
    FILES = ("customer.csv", "path.csv", "cycles.csv", "inspections.csv", "pdf_curves.csv", "report.json")

    def __init__(self, seed: int, workdir: str, quick: bool = False):
        self.workdir = workdir
        # At 2e4 a pass takes about 0.5 s, so a run gets dozens of passes.
        # RenewalCycles.to_csv is quadratic in the cycle count (it rebuilds
        # the length arrays for every row): at 2e4 those arrays (9k cycles)
        # stay in cache, while at 1e5 (46k) they stream from memory and
        # that one writer takes half of a 3.7 s pass.
        self.horizon = 2_000.0 if quick else 20_000.0
        self.arrival = exponential(self.ARRIVAL_RATE)
        self.service = lognormal(*self.SERVICE)
        sim_lcfs, sim_rand, epochs_lcfs, epochs_rand = np.random.SeedSequence(seed).generate_state(4)
        self.plan = [("lcfs", int(sim_lcfs), int(epochs_lcfs)),
                     ("random-order", int(sim_rand), int(epochs_rand))]

    def setup(self) -> None:
        warm_up(self.workdir)
        self.grid = np.linspace(0.0, self.service.quantile(0.999), self.PDF_POINTS)
        self.passes = 0

    def _replicate(self, disc: str, sim_seed: int, epoch_seed: int) -> Replication:
        # every pass writes new files: on ext4, rewriting a truncated file
        # starts writeback at close, which would time the disk
        rep = Replication(disc, os.path.join(self.workdir, f"pass{self.passes}", disc))
        try:
            os.makedirs(rep.out)
            path, ledger = simulator.simulate(
                self.arrival, self.service, discipline=disc, horizon=self.horizon, seed=sim_seed)
            report = metrics.compute_report(path, ledger)
            cycles = renewal.detect_cycles(path)
            rewards = renewal.cycle_rewards(cycles, path, ledger)
            epochs = inspection.poisson_epochs((path.initial_time, path.final_time), self.EPOCH_RATE, epoch_seed)
            samples = inspection.sample_inspections(ledger, path, epochs)
            f = dict(zip(self.FILES, (os.path.join(rep.out, n) for n in self.FILES)))
            ledger.to_csv(f["customer.csv"])
            path.to_csv(f["path.csv"])
            cycles.to_csv(f["cycles.csv"], rewards.holding, rewards.count)
            samples.to_csv(f["inspections.csv"])
            inspection.pdf_curve_csv(self.service, self.grid, f["pdf_curves.csv"])
            write_report_json(report, f["report.json"])
        except Exception as exc:  # count the replication as failed, go on
            rep.error = repr(exc)
            return rep
        rep.report = report
        rep.samples = samples
        rep.sizes = {"customer.csv": len(ledger), "path.csv": len(path.times) + 1,
                     "cycles.csv": len(cycles), "inspections.csv": len(samples),
                     "pdf_curves.csv": len(self.grid)}
        return rep

    def run_pass(self):
        self.passes += 1
        return [self._replicate(*step) for step in self.plan]

    def _problems(self, rep: Replication) -> list[str]:
        if rep.error is not None:
            return [rep.error]
        r, problems = rep.report, []
        if abs(r.H_total - r.R_obs_total) > 1e-9 * max(abs(r.H_total), 1.0):
            problems.append(f"H_total {r.H_total!r} != R_obs_total {r.R_obs_total!r}")
        unobserved = r.R_un_initial + r.R_un_final
        if abs((r.R_act_total - r.R_obs_total) - unobserved) > 1e-9 * max(abs(r.R_act_total), 1.0):
            problems.append("R_act_total - R_obs_total != R_un_initial + R_un_final")
        if rep.sizes["cycles.csv"] <= 0:
            problems.append("no complete renewal cycle")
        s = rep.samples
        busy_times = s.inspect_time[s.busy]
        gap = np.abs(s.ages + s.residuals - s.totals)
        if np.any(gap > 1e-12 * np.maximum(busy_times, 1.0)):
            problems.append("age + residual != total on a busy sample")
        for name, rows in rep.sizes.items():
            written = _data_rows(os.path.join(rep.out, name))
            if written != rows:
                problems.append(f"{name} has {written} rows, expected {rows}")
        return [f"{rep.discipline}: {p}" for p in problems]

    def check(self, reps) -> Checked:
        problems, failed, customers = [], 0, 0
        digest = hashlib.sha256()
        for rep in reps:
            found = self._problems(rep)
            problems += found
            failed += bool(found)
            if rep.error is None:
                customers += rep.report.N_total
                digest.update(_sha256_files([os.path.join(rep.out, n) for n in self.FILES]).encode())
        shutil.rmtree(os.path.join(self.workdir, f"pass{self.passes}"), ignore_errors=True)
        return Checked(len(reps), failed, digest.hexdigest(), customers, problems)


# ------------------------------------------------------------------ mdp-solve

# the committed demo instance, found the way acceptance finds the sweep demo
MDP_CONFIG = os.path.normpath(
    os.path.join(os.path.dirname(acceptance.__file__), "..", "..", "configs", "mdp_demo.json"))
RESIDUAL_BOUND = 1e-7  # Bellman residual allowed at every size; 1.9e-9 measured at N=3000
ORACLE_TOLERANCE = 1e-9  # single-action gain vs the birth-death oracle, relative


class MdpSolve:
    """The committed control-model instance at growing N, solved by
    policy iteration and relative value iteration, plus the implied
    per-customer response of each solution.  No random input: the seed
    is recorded but changes nothing."""

    name = "mdp-solve"
    METHODS = ("policy-iteration", "relative-value-iteration")

    def __init__(self, seed: int, workdir: str, quick: bool = False):
        self.workdir = workdir
        self.sizes = (100, 200, 300) if quick else (100, 1000, 3000)

    def setup(self) -> None:
        warm_up(self.workdir)
        with open(MDP_CONFIG) as fh:
            data = json.load(fh)
        self.tol = data["tol"]
        self.instances = [mdp.MdpInstance.from_dict({**data, "n_states": n}) for n in self.sizes]
        top = float(self.instances[0].action_grid[-1])
        self.oracle_instance = mdp.build_instance(data["arrival_rate"], [top], 100)
        self.oracle = birthdeath.truncated_mm1_queue_length(data["arrival_rate"], top, 100)

    def run_pass(self):
        out = []
        for inst in self.instances:
            for method in self.METHODS:
                try:
                    sol = mdp.solve_optimal(inst, method, tol=self.tol)
                    out.append((inst.n_states, method, sol, mdp.implied_response(sol, inst), None))
                except Exception as exc:  # count the solve as failed, go on
                    out.append((inst.n_states, method, None, None, repr(exc)))
        return out

    def check(self, solves) -> Checked:
        problems, bad = [], set()
        by_size = {}
        digest = hashlib.sha256()
        for i, (n, method, sol, implied, error) in enumerate(solves):
            if error is not None:
                problems.append(f"N={n} {method}: {error}")
                bad.add(i)
                continue
            by_size.setdefault(n, []).append((i, sol))
            if not sol.residual <= RESIDUAL_BOUND:
                problems.append(f"N={n} {method}: Bellman residual {sol.residual!r} > {RESIDUAL_BOUND}")
                bad.add(i)
            if not math.isfinite(implied):
                problems.append(f"N={n} {method}: implied response {implied!r}")
                bad.add(i)
            digest.update(f"{n} {method} {sol.rho_bar!r} {implied!r} ".encode())
            digest.update(np.asarray(sol.policy, dtype=np.int64).tobytes())
        for n, pair in by_size.items():
            if len(pair) == 2 and not np.array_equal(pair[0][1].policy, pair[1][1].policy):
                problems.append(f"N={n}: policy iteration and value iteration disagree")
                bad.update(i for i, _ in pair)
        # one more solve: with a single action the chain is the truncated
        # M/M/1 queue, whose mean length the product form gives exactly
        try:
            single = mdp.solve_optimal(self.oracle_instance, "policy-iteration", tol=self.tol)
            gain = mdp.continuous_time_average(self.oracle_instance, single.rho_bar)
            if not abs(gain - self.oracle) <= ORACLE_TOLERANCE * self.oracle:
                problems.append(f"single-action gain {gain!r} != oracle {self.oracle!r}")
        except Exception as exc:  # count the solve as failed, go on
            problems.append(f"single-action solve: {exc!r}")
        failed = len(bad) + any(p.startswith("single-action") for p in problems)
        return Checked(len(solves) + 1, failed, digest.hexdigest(), problems=problems)


WORKLOADS = {w.name: w for w in (Verify, ReplicationExport, MdpSolve)}
