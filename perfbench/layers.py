"""The layers the traced run times, and the per-layer metrics it reports.

``targets`` lists the public functions and methods that get a span;
``PER_LAYER`` lists every per-layer metric with its unit; and
``layer_metrics`` turns one traced pass's profile into those numbers.
Names follow the gg1lab module that owns the code: ``simulator``,
``distributions``, ``metrics``, ``renewal``, ``inspection``,
``experiments``, ``mdp`` and ``acceptance``, plus ``export`` for the
CSV/JSON writers and ``bench`` for the benchmark's own bookkeeping.
"""

from __future__ import annotations

import os

from .tracer import PassProfile, Target

DISCIPLINES = ("fcfs", "lcfs", "random-order")
EXPORTS = ("customer_csv", "path_csv", "cycles_csv", "inspections_csv", "pdf_curves_csv", "report_json")
MDP_SIZES = (100, 1000, 3000)
MDP_METHODS = {"policy-iteration": "pi", "relative-value-iteration": "rvi"}
CRITERIA = tuple(range(1, 12))  # 12 is the subprocess self-check, skipped here

# (name, unit, better)
PER_LAYER = [
    ("distributions.sample.self_s", "s", "lower"),
    ("distributions.sample.draws", "count", "higher"),
    *[(f"simulator.simulate.{d}.self_s", "s", "lower") for d in DISCIPLINES],
    *[(f"simulator.ns_per_customer.{d}", "ns", "lower") for d in DISCIPLINES],
    ("simulator.simulate.calls", "count", "higher"),
    ("simulator.customers", "count", "higher"),
    ("simulator.path_points", "count", "higher"),
    ("simulator.fcfs_departure_times.self_s", "s", "lower"),
    ("simulator.lindley_fcfs.self_s", "s", "lower"),
    ("metrics.compute_report.self_s", "s", "lower"),
    ("metrics.compute_report.calls", "count", "higher"),
    ("metrics.compute_report.ns_per_customer", "ns", "lower"),
    ("renewal.detect_cycles.self_s", "s", "lower"),
    ("renewal.cycle_rewards.self_s", "s", "lower"),
    ("renewal.cycles", "count", "higher"),
    ("inspection.poisson_epochs.self_s", "s", "lower"),
    ("inspection.sample_inspections.self_s", "s", "lower"),
    ("inspection.epochs", "count", "higher"),
    ("inspection.busy_ratio", "ratio", "higher"),
    *[(f"export.{e}.self_s", "s", "lower") for e in EXPORTS],
    ("export.bytes", "B", "higher"),
    ("export.mb_per_s", "MB/s", "higher"),
    ("experiments.run_sweep.self_s", "s", "lower"),
    ("experiments.check_equivalence.self_s", "s", "lower"),
    ("experiments.unstable_ratio", "ratio", "lower"),
    *[
        (f"mdp.solve.{m}.N{n}.{field}", unit, "lower")
        for m in MDP_METHODS.values()
        for n in MDP_SIZES
        for field, unit in (("s", "s"), ("iterations", "count"), ("residual", "cost"))
    ],
    ("mdp.solve.self_s", "s", "lower"),
    ("mdp.policy_evaluation.self_s", "s", "lower"),
    ("mdp.policy_evaluation.calls", "count", "lower"),
    ("mdp.implied_response.self_s", "s", "lower"),
    *[(f"acceptance.{stage}.s", "s", "lower") for stage in ("theorem_runs", "inspection_runs", "sweep_run")],
    *[(f"acceptance.criterion_{n:02d}.s", "s", "lower") for n in CRITERIA],
    ("acceptance.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("customers_per_s", "1/s", "higher"),
    ("error_rate", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


# ------------------------------------------------------------ span targets

def _discipline(bound) -> str:
    key = bound.arguments["discipline"].strip().lower()
    return "random-order" if key == "random" else key


def _count_sample(counters, bound, result):
    counters["draws"] += 1 if bound.arguments["size"] is None else len(result)


def _count_simulate(counters, bound, result):
    path, ledger = result
    counters[f"customers.{_discipline(bound)}"] += len(ledger)
    counters["path_points"] += len(path.times)


def _count_report(counters, bound, result):
    counters["report_customers"] += result.N_total


def _count_cycles(counters, bound, result):
    counters["cycles"] += len(result)


def _count_inspections(counters, bound, result):
    counters["epochs"] += len(result)
    counters["busy_epochs"] += int(result.busy.sum())


def _count_bytes(counters, bound, result):
    counters["export_bytes"] += os.path.getsize(bound.arguments["path"])


def _count_sweep(counters, bound, result):
    counters["sweep_points"] += result.per_seed["H_bar_t"].size
    counters["unstable_points"] += len(result.unstable_points)


def _solve_name(bound) -> str:
    method = MDP_METHODS.get(bound.arguments["method"], bound.arguments["method"])
    return f"mdp.solve.{method}.N{bound.arguments['instance'].n_states}"


def _count_solve(counters, bound, result):
    key = _solve_name(bound)
    counters[f"{key}.iterations"] += result.iterations
    counters[f"{key}.residual"] = max(counters[f"{key}.residual"], result.residual)


def targets() -> list[Target]:
    """Every traced function, including the benchmark's own
    ``workloads.write_report_json`` (the report.json writer the CLI
    inlines)."""
    from gg1lab import acceptance, distributions, experiments, inspection, mdp, metrics, renewal, simulator

    from . import workloads

    return [
        Target(distributions.DistributionSpec, "sample", "distributions.sample", _count_sample),
        Target(simulator, "simulate", lambda b: f"simulator.simulate.{_discipline(b)}", _count_simulate),
        Target(simulator, "fcfs_departure_times", "simulator.fcfs_departure_times"),
        Target(simulator, "lindley_fcfs", "simulator.lindley_fcfs"),
        Target(metrics, "compute_report", "metrics.compute_report", _count_report),
        Target(renewal, "detect_cycles", "renewal.detect_cycles", _count_cycles),
        Target(renewal, "cycle_rewards", "renewal.cycle_rewards"),
        Target(inspection, "poisson_epochs", "inspection.poisson_epochs"),
        Target(inspection, "sample_inspections", "inspection.sample_inspections", _count_inspections),
        Target(simulator.CustomerLedger, "to_csv", "export.customer_csv", _count_bytes),
        Target(simulator.Trajectory, "to_csv", "export.path_csv", _count_bytes),
        Target(renewal.RenewalCycles, "to_csv", "export.cycles_csv", _count_bytes),
        Target(inspection.InspectionSamples, "to_csv", "export.inspections_csv", _count_bytes),
        Target(inspection, "pdf_curve_csv", "export.pdf_curves_csv", _count_bytes),
        Target(workloads, "write_report_json", "export.report_json", _count_bytes),
        Target(experiments, "run_sweep", "experiments.run_sweep", _count_sweep),
        Target(experiments, "check_equivalence", "experiments.check_equivalence"),
        Target(mdp, "solve_optimal", _solve_name, _count_solve),
        Target(mdp, "policy_evaluation", "mdp.policy_evaluation"),
        Target(mdp, "implied_response", "mdp.implied_response"),
        Target(acceptance.AcceptanceSuite, "theorem_runs", "acceptance.theorem_runs"),
        Target(acceptance.AcceptanceSuite, "inspection_runs", "acceptance.inspection_runs"),
        Target(acceptance.AcceptanceSuite, "sweep_run", "acceptance.sweep_run"),
        Target(acceptance.AcceptanceSuite, "criterion",
               lambda b: f"acceptance.criterion_{b.arguments['number']:02d}"),
    ]


# ---------------------------------------------------------------- metrics

def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(p: PassProfile) -> dict[str, float]:
    """Per-layer numbers of one traced pass.  Layers the workload does
    not reach read 0."""
    s, t, c, k = p.self_s, p.total_s, p.calls, p.counters
    out = {
        "distributions.sample.self_s": s.get("distributions.sample", 0.0),
        "distributions.sample.draws": k["draws"],
    }
    for d in DISCIPLINES:
        span = f"simulator.simulate.{d}"
        out[f"{span}.self_s"] = s.get(span, 0.0)
        out[f"simulator.ns_per_customer.{d}"] = _ratio(t.get(span, 0.0), k[f"customers.{d}"], 1e9)
    out["simulator.simulate.calls"] = sum(c[f"simulator.simulate.{d}"] for d in DISCIPLINES)
    out["simulator.customers"] = sum(k[f"customers.{d}"] for d in DISCIPLINES)
    out["simulator.path_points"] = k["path_points"]
    for name in ("simulator.fcfs_departure_times", "simulator.lindley_fcfs",
                 "metrics.compute_report", "renewal.detect_cycles", "renewal.cycle_rewards",
                 "inspection.poisson_epochs", "inspection.sample_inspections",
                 "experiments.run_sweep", "experiments.check_equivalence",
                 "mdp.policy_evaluation", "mdp.implied_response"):
        out[f"{name}.self_s"] = s.get(name, 0.0)
    out["metrics.compute_report.calls"] = c["metrics.compute_report"]
    out["metrics.compute_report.ns_per_customer"] = _ratio(
        s.get("metrics.compute_report", 0.0), k["report_customers"], 1e9)
    out["renewal.cycles"] = k["cycles"]
    out["inspection.epochs"] = k["epochs"]
    out["inspection.busy_ratio"] = _ratio(k["busy_epochs"], k["epochs"])
    export_s = 0.0
    for e in EXPORTS:
        out[f"export.{e}.self_s"] = s.get(f"export.{e}", 0.0)
        export_s += out[f"export.{e}.self_s"]
    out["export.bytes"] = k["export_bytes"]
    out["export.mb_per_s"] = _ratio(k["export_bytes"], export_s, 1e-6)
    out["experiments.unstable_ratio"] = _ratio(k["unstable_points"], k["sweep_points"])
    for m in MDP_METHODS.values():
        for n in MDP_SIZES:
            key = f"mdp.solve.{m}.N{n}"
            out[f"{key}.s"] = t.get(key, 0.0)
            out[f"{key}.iterations"] = k[f"{key}.iterations"]
            out[f"{key}.residual"] = k[f"{key}.residual"]
    out["mdp.solve.self_s"] = sum(v for name, v in s.items() if name.startswith("mdp.solve."))
    out["mdp.policy_evaluation.calls"] = c["mdp.policy_evaluation"]
    for stage in ("theorem_runs", "inspection_runs", "sweep_run"):
        out[f"acceptance.{stage}.s"] = t.get(f"acceptance.{stage}", 0.0)
    for n in CRITERIA:
        out[f"acceptance.criterion_{n:02d}.s"] = t.get(f"acceptance.criterion_{n:02d}", 0.0)
    out["acceptance.self_s"] = sum(v for name, v in s.items() if name.startswith("acceptance."))
    out["bench.self_s"] = s.get("bench.pass", 0.0)
    out["trace.wall_s"] = p.wall_s
    return out


def self_time_names() -> list[str]:
    """The per-layer metrics that partition a traced pass: every span
    name falls under exactly one of them, so they sum to ``trace.wall_s``."""
    return [name for name, _, _ in PER_LAYER if name.endswith(".self_s")]
