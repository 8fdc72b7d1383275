"""Solve the demo service-rate control model and cross-check it.

Solves the queue-control instance from the config file, prints the
structure of the optimal policy, and then validates the solver two
ways: the same instance solved by relative value iteration must agree,
and the optimal average cost implies a mean response that should sit
near the best fixed service rate from the sweep demo.
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gg1lab import mdp
from gg1lab.artifacts import write_json


def describe_policy(policy: np.ndarray, grid) -> str:
    """Compress a state-to-rate policy into readable run-length spans."""
    spans = []
    start = 0
    for x in range(1, len(policy) + 1):
        if x == len(policy) or policy[x] != policy[start]:
            rate = grid[policy[start]]
            label = f"x={start}" if x - start == 1 else f"x={start}..{x - 1}"
            spans.append(f"{label}: mu={rate:g}")
            start = x
    return ", ".join(spans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--config",
        default=os.path.join(os.path.dirname(__file__), "..", "configs", "mdp_demo.json"),
    )
    parser.add_argument("--out", default="results/mdp_demo")
    args = parser.parse_args()

    with open(args.config) as fh:
        data = json.load(fh)
    instance = mdp.MdpInstance.from_dict(data)
    tol = data.get("tol", mdp.DEFAULT_TOL)

    solution = mdp.solve_optimal(instance, method=data.get("method", "policy-iteration"), tol=tol)
    check = mdp.solve_optimal(instance, method="relative-value-iteration", tol=tol)
    print(f"lambda={instance.arrival_rate:g} grid={[float(g) for g in instance.action_grid]} "
          f"states=0..{instance.n_states}")
    print(f"optimal average cost rho_bar={solution.rho_bar:.6f} "
          f"({solution.iterations} iterations, residual {solution.residual:.2e})")
    print("policy:", describe_policy(solution.policy, instance.action_grid))
    if np.array_equal(solution.policy, check.policy):
        print(f"relative value iteration agrees "
              f"(rho_bar gap {abs(solution.rho_bar - check.rho_bar):.2e})")
    else:
        print("WARNING: the two solvers disagree on the policy")

    h_bar_t = mdp.continuous_time_average(instance, solution.rho_bar)
    implied = mdp.implied_response(solution, instance)
    print(f"time-average holding cost H_bar_t={h_bar_t:.6f} "
          f"implied per-customer response R_bar_n={implied:.6f}")

    os.makedirs(args.out, exist_ok=True)
    payload = {
        "instance": instance.to_dict(),
        "solution": solution.to_dict(),
        "H_bar_t": h_bar_t,
        "implied_R_bar_n": implied,
    }
    write_json(os.path.join(args.out, "solution.json"), payload)
    print(f"wrote solution.json to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
