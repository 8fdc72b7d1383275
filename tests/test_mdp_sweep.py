"""The sweep tables and the tridiagonal policy evaluation in ``gg1lab.mdp``
against the dense-matrix solvers they replaced (``reference_mdp``).

The greedy sweep and relative value iteration, which never evaluates a
policy, match bitwise.  Policy evaluation solves a different (differenced)
linear system, so its last bits differ.  Both its values and the values
policy iteration returns must satisfy the oracle's Poisson equation to
``RESIDUAL_ULPS`` ulps of max(|J|, |rho_bar|), and their gain must match
the oracle's to ``GAIN_ULPS`` such ulps.  Their values match the oracle's
within ``VALUES_ULPS`` such ulps, times the factor by which a stretch of
slow service can amplify both solvers' rounding (``amplification``).
Policy iteration visits the same policies in the same number of
iterations, except where ``ties`` allows a genuine tie to go either way.
"""

import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gg1lab import mdp
from gg1lab.acceptance import THEOREM_ARRIVAL_RATE, THEOREM_SERVICE_RATE

import reference_mdp

DEMO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "mdp_demo.json")
METHODS = ("policy-iteration", "relative-value-iteration")
EPS = np.finfo(float).eps
# Against exact rational solutions of the same system, both solvers'
# gains were within 4 ulps of max(|J|, |rho_bar|) over 6,000 instances
# drawn like ``instances()``, with random and stretched policies.
GAIN_ULPS = 64
RESIDUAL_ULPS = 64
# Divided by the amplification, the largest gap between the two solvers'
# values over 6,000 such instances was 563 ulps.
VALUES_ULPS = 4096
# actions whose q-values differ by no more than this many ulps of
# max(|J|, |rho_bar|) are tied
TIE_ULPS = 64
# below the normal range, numbers are spaced wider than EPS times their size
SCALE_FLOOR = 1024 * np.finfo(float).tiny


def demo_instance(n):
    with open(DEMO_CONFIG) as fh:
        data = json.load(fh)
    return mdp.MdpInstance.from_dict({**data, "n_states": n}), data["tol"]


def assert_same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_sweep(inst, values):
    best, q = mdp._Chain(inst).sweep(values)
    ref_best, ref_q = reference_mdp.greedy(inst, values)
    assert_same_array(best, ref_best)
    assert_same_array(q, ref_q)


def amplification(inst, policy):
    """The largest product of lambda / mu_policy(x) over a run of
    consecutive states, or 1.  Where a stretch served slower than
    arrivals come follows one served faster, both solvers' eliminations
    can lose this factor in the accuracy of the values (see
    ``mdp.policy_evaluation``).  Their gains stay within a few ulps."""
    if inst.arrival_rate == 0:
        return 1.0
    climb = np.cumsum(np.log(inst.arrival_rate / inst.action_grid[policy[1:]]))
    climb = np.concatenate(([0.0], climb))
    return float(np.exp(np.max(climb - np.minimum.accumulate(climb))))


def ulp_scale(values, rho_bar):
    """EPS times max(|J|, |rho_bar|): one ulp of the solution."""
    return EPS * max(np.max(np.abs(values)), abs(rho_bar), SCALE_FLOOR)


def values_bound(inst, policy, values, rho_bar):
    return VALUES_ULPS * amplification(inst, policy) * ulp_scale(values, rho_bar)


def assert_solves_poisson(inst, policy, values, rho_bar):
    """(I - P) J + rho_bar = cost under the oracle's P, to RESIDUAL_ULPS."""
    p = reference_mdp.transition_matrix(inst, policy)
    residual = inst.stage_costs(policy) + p @ values - values - rho_bar
    assert np.max(np.abs(residual)) <= RESIDUAL_ULPS * ulp_scale(values, rho_bar)


def assert_same_evaluation(inst, policy, x0=0):
    values, rho = mdp.policy_evaluation(inst, policy, x0)
    ref_values, ref_rho = reference_mdp.policy_evaluation(inst, policy, x0)
    assert type(rho) is float and values.shape == ref_values.shape
    assert values[x0] == 0.0
    assert_solves_poisson(inst, policy, values, rho)
    assert abs(rho - ref_rho) <= GAIN_ULPS * ulp_scale(ref_values, ref_rho)
    assert np.max(np.abs(values - ref_values)) <= values_bound(inst, policy, ref_values, ref_rho)


def assert_tied(inst, sol, ref):
    """Policy iteration's ``sol`` found another optimal policy than the
    oracle's ``ref``: the oracle gives that policy the same gain, and its
    actions tie with the best ones in the oracle's sweep of ``sol``'s
    values.  The oracle's own values cannot stand in for ``sol``'s: on
    instances whose actions tie, they are rounding noise, hundreds of
    ulps across."""
    _, rho = reference_mdp.policy_evaluation(inst, sol.policy, ref.distinguished_state)
    assert abs(rho - ref.rho_bar) <= GAIN_ULPS * ulp_scale(ref.relative_values, ref.rho_bar)
    _, best_q = reference_mdp.greedy(inst, sol.relative_values)
    p = reference_mdp.transition_matrix(inst, sol.policy)
    q = inst.stage_costs(sol.policy) + p @ sol.relative_values
    assert np.max(q - best_q) <= TIE_ULPS * ulp_scale(sol.relative_values, sol.rho_bar)


def assert_same_solution(inst, method, tol=mdp.DEFAULT_TOL, x0=0, ties=False):
    """The solution the oracle finds.  With ``ties``, policy iteration may
    instead return another optimal policy (``assert_tied``): where
    actions tie, rounding picks between them, and a different pick
    changes the path."""
    sol = mdp.solve_optimal(inst, method, tol=tol, distinguished_state=x0)
    ref = reference_mdp.solve_optimal(inst, method, tol=tol, distinguished_state=x0)
    assert (sol.method, sol.distinguished_state) == (ref.method, ref.distinguished_state)
    if method == "relative-value-iteration":
        assert_same_array(sol.policy, ref.policy)
        assert_same_array(sol.relative_values, ref.relative_values)
        assert_same_array(sol.rho_bar, ref.rho_bar)
        assert_same_array(sol.residual, ref.residual)
        assert sol.iterations == ref.iterations
        return sol
    assert_solves_poisson(inst, sol.policy, sol.relative_values, sol.rho_bar)
    assert abs(sol.rho_bar - ref.rho_bar) <= GAIN_ULPS * ulp_scale(ref.relative_values, ref.rho_bar)
    if ties and not np.array_equal(sol.policy, ref.policy):
        assert_tied(inst, sol, ref)
        return sol
    assert_same_array(sol.policy, ref.policy)
    assert sol.iterations == ref.iterations
    bound = values_bound(inst, ref.policy, ref.relative_values, ref.rho_bar)
    assert np.max(np.abs(sol.relative_values - ref.relative_values)) <= bound
    assert abs(sol.residual - ref.residual) <= bound
    return sol


@pytest.mark.parametrize("n", [100, 1000])
def test_demo_sweeps_match_reference(n):
    inst, _ = demo_instance(n)
    rng = np.random.default_rng(n)
    for values in (np.zeros(n + 1), rng.normal(size=n + 1), np.arange(n + 1.0) ** 1.5):
        assert_same_sweep(inst, values)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", [100, 1000])
def test_demo_solutions_match_reference(n, method):
    inst, tol = demo_instance(n)
    sol = assert_same_solution(inst, method, tol)
    assert_same_evaluation(inst, sol.policy)
    assert_same_evaluation(inst.without_penalty(), sol.policy)


def test_criterion_9_instances_match_reference():
    lam, mu = THEOREM_ARRIVAL_RATE, THEOREM_SERVICE_RATE
    assert_same_evaluation(mdp.build_instance(lam, [mu], 200), np.zeros(201, dtype=int))
    grid_inst = mdp.build_instance(lam, [0.75, 1.0, 1.25], 100)
    pi_sol = assert_same_solution(grid_inst, "policy-iteration")
    assert_same_solution(grid_inst, "relative-value-iteration")
    for x0 in (0, 1):
        assert_same_evaluation(grid_inst, pi_sol.policy, x0)
    assert_same_solution(mdp.build_instance(lam, [0.75, 1.0, 1.25], 100, cost_weight=3.7),
                         "policy-iteration")
    for n in (200, 400):
        assert_same_solution(mdp.build_instance(lam, [0.75, 1.0, 1.25], n), "policy-iteration")


def test_policy_iteration_evaluates_each_policy_once(monkeypatch):
    # the module-level policy_evaluation is what the solver calls, once
    # per distinct policy: a sweep that returns the same policy stops it
    evaluated = []
    real = mdp.policy_evaluation

    def recording(instance, policy, distinguished_state=0):
        evaluated.append(np.array(policy))
        return real(instance, policy, distinguished_state)

    monkeypatch.setattr(mdp, "policy_evaluation", recording)
    inst, tol = demo_instance(100)
    sol = mdp.solve_optimal(inst, "policy-iteration", tol)
    assert len(evaluated) == sol.iterations
    assert not any(np.array_equal(a, b) for a, b in zip(evaluated, evaluated[1:]))
    np.testing.assert_array_equal(evaluated[-1], sol.policy)


def test_sweep_ties_go_to_the_lowest_action():
    # with zero values and no penalty every action costs the same
    inst = mdp.build_instance(0.5, [0.8, 1.0, 1.2], n_states=10)
    best, _ = mdp._Chain(inst).sweep(np.zeros(11))
    assert (best == 0).all()
    assert_same_sweep(inst, np.zeros(11))


@st.composite
def instances(draw):
    grid = sorted(draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4, unique=True)))
    load = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
    n = draw(st.integers(2, 30))
    penalty = (draw(st.floats(0.0, 2.0)), draw(st.floats(-4.0, 4.0)))
    cost_weight = draw(st.floats(0.0, 5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = mdp.build_instance(load * grid[-1], grid, n, cost_weight, penalty)
    return inst, draw(st.integers(0, n))


@given(case=instances(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_instances_match_reference(case, seed):
    inst, x0 = case
    rng = np.random.default_rng(seed)
    assert_same_sweep(inst, rng.normal(scale=10.0, size=inst.n_states + 1))
    assert_same_evaluation(inst, rng.integers(0, inst.n_actions, inst.n_states + 1), x0)
    for method in METHODS:
        assert_same_solution(inst, method, tol=1e-9, x0=x0, ties=True)
