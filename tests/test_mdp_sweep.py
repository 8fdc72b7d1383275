"""The sweep tables and three-diagonal I - P in ``gg1lab.mdp`` against the
dense-matrix solvers they replaced (``reference_mdp``), bitwise on the
greedy sweep, on policy evaluation and on full PI/RVI solutions."""

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


def assert_same_evaluation(inst, policy, x0=0):
    values, rho = mdp.policy_evaluation(inst, policy, x0)
    ref_values, ref_rho = reference_mdp.policy_evaluation(inst, policy, x0)
    assert_same_array(values, ref_values)
    assert_same_array(rho, ref_rho)


def assert_same_solution(inst, method, tol=mdp.DEFAULT_TOL, x0=0):
    sol = mdp.solve_optimal(inst, method, tol=tol, distinguished_state=x0)
    ref = reference_mdp.solve_optimal(inst, method, tol=tol, distinguished_state=x0)
    assert_same_array(sol.policy, ref.policy)
    assert_same_array(sol.relative_values, ref.relative_values)
    assert_same_array(sol.rho_bar, ref.rho_bar)
    assert_same_array(sol.residual, ref.residual)
    assert sol.iterations == ref.iterations
    assert (sol.method, sol.distinguished_state) == (ref.method, ref.distinguished_state)
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
        assert_same_solution(inst, method, tol=1e-9, x0=x0)
