"""The dense-matrix MDP solvers that ``gg1lab.mdp`` used before its sweep
tables: ``transition_matrix``, the ``eye - P`` policy evaluation, the
per-call ``_greedy`` lookahead and the policy/relative value iteration
loops built on them, kept verbatim as the bitwise oracle of
``test_mdp_sweep.py``.  Only the instance is passed in explicitly.
"""

from __future__ import annotations

import numpy as np

from gg1lab.mdp import MAX_ITERATIONS, MdpInstance, MdpSolution


def transition_matrix(instance: MdpInstance, policy: np.ndarray) -> np.ndarray:
    """Row-stochastic matrix of the chain under a policy (action
    index per state).  State 0 has no service transition; the
    arrival at state N folds into the diagonal."""
    lam = instance.arrival_rate
    big = instance.uniformisation_rate
    n = instance.n_states
    mu = instance.action_grid[np.asarray(policy)]
    p = np.zeros((n + 1, n + 1))
    rows = np.arange(n + 1)
    p[rows[:-1], rows[:-1] + 1] = lam / big
    p[rows[1:], rows[1:] - 1] = mu[1:] / big
    # the diagonal absorbs the slack; rounding in lam/big + mu/big can
    # push the sum a hair past one, so clamp at exact zero
    p[rows, rows] = np.maximum(1.0 - p.sum(axis=1), 0.0)
    return p


def policy_evaluation(
    instance: MdpInstance, policy, distinguished_state: int = 0
) -> tuple[np.ndarray, float]:
    """Relative values and average stage cost of a fixed policy.

    Solves (I - P) J + rho_bar * 1 = cost with J pinned to zero at the
    distinguished state, by replacing that column of (I - P) with ones
    so rho_bar takes its slot in the unknown vector.
    """
    policy = np.asarray(policy)
    if policy.shape != (instance.n_states + 1,):
        raise ValueError(f"policy must assign an action to each of the {instance.n_states + 1} states")
    if np.any(policy < 0) or np.any(policy >= instance.n_actions):
        raise ValueError("policy contains out-of-range action indices")
    x0 = int(distinguished_state)
    if not 0 <= x0 <= instance.n_states:
        raise ValueError(f"distinguished state {x0} outside state space")
    p = transition_matrix(instance, policy)
    cost = instance.stage_costs(policy)
    m = np.eye(len(cost)) - p
    m[:, x0] = 1.0
    try:
        y = np.linalg.solve(m, cost)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"policy evaluation system is singular (policy={policy.tolist()}): {exc}"
        ) from exc
    rho_bar = float(y[x0])
    values = y.copy()
    values[x0] = 0.0
    return values, rho_bar


def greedy(instance: MdpInstance, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-step lookahead: per state, the action minimising stage cost
    plus expected next value, and that minimal q-value."""
    lam = instance.arrival_rate
    big = instance.uniformisation_rate
    k0, k1 = instance.penalty
    n = instance.n_states
    states = instance.states
    up = np.minimum(states + 1, n)
    down = np.maximum(states - 1, 0)
    # q[x, a]: service applies only at x >= 1; at x = N the arrival stays put.
    mu = instance.action_grid[None, :]
    serv = np.where(states[:, None] >= 1, mu, 0.0)
    p_up = np.full(n + 1, lam / big)
    p_down = serv / big
    p_stay = 1.0 - p_up[:, None] - p_down
    q = (
        (instance.cost_weight * states[:, None] + k0 * np.exp(-k1 * mu)) / big
        + p_up[:, None] * values[up][:, None]
        + p_down * values[down][:, None]
        + p_stay * values[:, None]
    )
    best = np.argmin(q, axis=1)
    return best, q[np.arange(n + 1), best]


def solve_optimal(instance, method="policy-iteration", tol=1e-10, distinguished_state=0):
    if method == "policy-iteration":
        return _policy_iteration(instance, tol, distinguished_state)
    if method == "relative-value-iteration":
        return _relative_value_iteration(instance, tol, distinguished_state)
    raise ValueError(f"unknown method {method!r}")


def _bellman_residual(instance, values, rho_bar) -> float:
    _, q = greedy(instance, values)
    return float(np.max(np.abs(q - rho_bar - values)))


def _policy_iteration(instance, tol, x0) -> MdpSolution:
    policy = np.full(instance.n_states + 1, instance.n_actions - 1)
    values, rho_bar = policy_evaluation(instance, policy, x0)
    for it in range(1, 1000):
        improved, _ = greedy(instance, values)
        new_values, new_rho = policy_evaluation(instance, improved, x0)
        if np.array_equal(improved, policy) or abs(new_rho - rho_bar) <= tol * max(1.0, abs(rho_bar)):
            values, rho_bar, policy = new_values, new_rho, improved
            break
        values, rho_bar, policy = new_values, new_rho, improved
    else:
        raise RuntimeError("policy iteration failed to converge within 1000 sweeps")
    return MdpSolution(
        policy=policy,
        relative_values=values,
        rho_bar=rho_bar,
        iterations=it,
        residual=_bellman_residual(instance, values, rho_bar),
        method="policy-iteration",
        distinguished_state=x0,
    )


def _relative_value_iteration(instance, tol, x0) -> MdpSolution:
    values = np.zeros(instance.n_states + 1)
    rho_bar = 0.0
    for it in range(1, MAX_ITERATIONS + 1):
        policy, q = greedy(instance, values)
        rho_bar = float(q[x0])
        new_values = q - rho_bar
        gap = float(np.max(np.abs(new_values - values)))
        values = new_values
        if gap <= tol:
            break
    else:
        raise RuntimeError(
            f"relative value iteration failed to reach tol={tol} in {MAX_ITERATIONS} sweeps"
        )
    return MdpSolution(
        policy=policy,
        relative_values=values,
        rho_bar=rho_bar,
        iterations=it,
        residual=_bellman_residual(instance, values, rho_bar),
        method="relative-value-iteration",
        distinguished_state=x0,
    )
