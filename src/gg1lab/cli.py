"""Command-line entry points.

Verbs:
  simulate   one replication; writes customer.csv, path.csv, report.json
  sweep      response-surface study from a JSON config; prints each
             surface's argmin with its mean and stderr, then whether all
             surfaces share the minimiser
  inspect    sample in-progress services and export samples + curves
  mdp solve  solve the service-rate control model from a JSON config;
             prints the gain, implied_R_bar_n and the policy as
             run-length spans (x=2..3: mu=0.35)
  verify     run the acceptance suite and write its report files

Distributions on the command line are written kind:params, e.g.
exponential:0.5, uniform:0,2, gamma:2,0.5.  Failures exit nonzero with
a one-line JSON error object on stderr, usage errors included.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import experiments, inspection, mdp, metrics
from ._checks import real
from .artifacts import write_json
from .distributions import DistributionSpec
from .simulator import DISCIPLINES, simulate


def parse_distribution(text: str) -> DistributionSpec:
    kind, _, rest = text.partition(":")
    if not rest:
        raise ValueError(
            f"distribution {text!r} needs parameters, e.g. exponential:1.0 or uniform:0,2"
        )
    params = tuple(float(p) for p in rest.split(","))
    return DistributionSpec(kind=kind.strip(), params=params)


def _parse_seeds(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def _cmd_simulate(args) -> int:
    arrival = parse_distribution(args.arrival)
    service = parse_distribution(args.service)
    real("cost_weight", args.cost_weight, 0)
    path, ledger = simulate(
        arrival, service,
        discipline=args.discipline,
        warmup=args.warmup,
        horizon=args.horizon,
        seed=args.seed,
    )
    report = metrics.compute_report(path, ledger, cost_weight=args.cost_weight)
    os.makedirs(args.out, exist_ok=True)
    ledger.to_csv(os.path.join(args.out, "customer.csv"))
    path.to_csv(os.path.join(args.out, "path.csv"))
    write_json(os.path.join(args.out, "report.json"), report.to_dict())
    print(f"customers={report.N_total} H_bar_t={report.H_bar_t!r} rho_hat={report.rho_hat!r}")
    print(f"wrote customer.csv, path.csv, report.json to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    config = experiments.ExperimentConfig.from_json_file(args.config)
    overrides = {}
    if args.seeds is not None:
        overrides["seeds"] = _parse_seeds(args.seeds)
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if overrides:
        config = dataclasses.replace(config, **overrides)
    surface = experiments.run_sweep(config)
    out = args.out or "sweep_out"
    written = experiments.emit_reports(surface, config, out)
    names = experiments.PENALISED_SURFACES if config.penalty_k0 else experiments.RAW_SURFACES
    verdicts = experiments.pairwise_equivalence(surface, names)
    write_json(os.path.join(out, "equivalence.json"),
               {pair: v.to_dict() for pair, v in verdicts.items()})
    written.append(os.path.join(out, "equivalence.json"))
    for name in names:
        i = surface.argmin(name)
        print(f"{name}: argmin mu={float(surface.grid[i])!r} "
              f"mean={float(surface.surfaces[name][i])!r} "
              f"stderr={float(surface.stderrs[name][i])!r}")
    print("all surfaces share the minimiser" if all(v.equivalent for v in verdicts.values())
          else "warning: the surfaces disagree on the minimiser")
    if surface.unstable_points:
        print(f"warning: {len(surface.unstable_points)} saturated (rate, seed) points")
    print("wrote " + ", ".join(os.path.basename(w) for w in written) + f" to {out}")
    return 0


def _cmd_inspect(args) -> int:
    arrival = parse_distribution(args.arrival)
    service = parse_distribution(args.service)
    # simulate's window, drawn first so that a bad rate fails before the run
    t_initial = float(args.warmup)
    epochs = inspection.poisson_epochs(
        (t_initial, t_initial + float(args.horizon)), args.epoch_rate, args.seed + 1
    )
    path, ledger = simulate(arrival, service, warmup=args.warmup,
                            horizon=args.horizon, seed=args.seed)
    samples = inspection.sample_inspections(ledger, path, epochs)
    os.makedirs(args.out, exist_ok=True)
    samples.to_csv(os.path.join(args.out, "inspections.csv"))
    grid = np.linspace(0.0, service.quantile(0.999) if service.kind != "deterministic"
                       else 1.5 * service.params[0], 512)
    inspection.pdf_curve_csv(service, grid, os.path.join(args.out, "pdf_curves.csv"))
    summary = {
        "n_epochs": len(samples),
        "busy_fraction": samples.busy_fraction,
        "mean_age": float(samples.ages.mean()) if samples.ages.size else None,
        "mean_residual": float(samples.residuals.mean()) if samples.residuals.size else None,
        "mean_total": float(samples.totals.mean()) if samples.totals.size else None,
        "expected_age": inspection.expected_age(service),
        "expected_total": inspection.expected_total(service),
        "bias": inspection.bias(service),
    }
    write_json(os.path.join(args.out, "summary.json"), summary)
    print(json.dumps(summary, sort_keys=True))
    print(f"wrote inspections.csv, pdf_curves.csv, summary.json to {args.out}")
    return 0


def _describe_policy(policy: np.ndarray, grid) -> str:
    """A state-to-rate policy as run-length spans of equal rate."""
    cuts = np.flatnonzero(np.diff(policy)) + 1
    spans = []
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(policy)] - 1):
        label = f"x={lo}" if lo == hi else f"x={lo}..{hi}"
        spans.append(f"{label}: mu={grid[policy[lo]]:g}")
    return ", ".join(spans)


def _cmd_mdp_solve(args) -> int:
    with open(args.config) as fh:
        data = json.load(fh)
    instance = mdp.MdpInstance.from_dict(data)
    solution = mdp.solve_optimal(
        instance,
        method=data.get("method", "policy-iteration"),
        tol=data.get("tol", mdp.DEFAULT_TOL),
    )
    payload = {
        "instance": instance.to_dict(),
        "solution": solution.to_dict(),
        "H_bar_t": mdp.continuous_time_average(instance, solution.rho_bar),
        "implied_R_bar_n": mdp.implied_response(solution, instance),
    }
    out = args.out or "mdp_out"
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "solution.json"), payload)
    print(f"rho_bar={solution.rho_bar!r} H_bar_t={payload['H_bar_t']!r} "
          f"iterations={solution.iterations} residual={solution.residual!r}")
    print(f"implied_R_bar_n={payload['implied_R_bar_n']!r}")
    print("policy: " + _describe_policy(solution.policy, instance.action_grid))
    print(f"wrote solution.json to {out}")
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    suite = acceptance.AcceptanceSuite(
        scale=args.scale, master_seed=args.seed, self_check=not args.no_self_check
    )
    results = suite.run_all(out_dir=args.out, progress=print)
    n_pass = sum(1 for r in results if r.passed)
    print(f"{n_pass}/{len(results)} criteria passed")
    if args.out:
        print(f"wrote acceptance.txt, acceptance_report.json to {args.out}")
    return 0 if n_pass == len(results) else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it as one JSON line
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gg1lab", description="single-server queue simulation toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="run one replication and export its artifacts")
    p.add_argument("--arrival", required=True, help="interarrival distribution, kind:params")
    p.add_argument("--service", required=True, help="service distribution, kind:params")
    p.add_argument("--discipline", default="fcfs", choices=DISCIPLINES)
    p.add_argument("--warmup", type=float, default=0.0)
    p.add_argument("--horizon", type=float, default=10_000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cost-weight", type=float, default=1.0)
    p.add_argument("--out", default="simulate_out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="response-surface sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seeds", default=None, help="comma-separated override")
    p.add_argument("--horizon", type=float, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("inspect", help="sample in-progress services at Poisson epochs")
    p.add_argument("--arrival", required=True)
    p.add_argument("--service", required=True)
    p.add_argument("--warmup", type=float, default=0.0)
    p.add_argument("--horizon", type=float, default=100_000.0)
    p.add_argument("--epoch-rate", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="inspect_out")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("mdp", help="service-rate control model")
    mdp_sub = p.add_subparsers(dest="mdp_verb", required=True)
    ps = mdp_sub.add_parser("solve", help="solve a control model from a config file")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=_cmd_mdp_solve)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--out", default=None, help="directory for report files")
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink horizons and sample counts by this factor")
    p.add_argument("--seed", type=int, default=2026, help="master seed")
    p.add_argument("--no-self-check", action="store_true",
                   help="skip the determinism criterion (used by its own inner runs)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError, MemoryError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
