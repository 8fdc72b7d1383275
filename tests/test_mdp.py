import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gg1lab
from gg1lab.birthdeath import (
    expected_queue_length,
    stationary_distribution,
    truncated_mm1_queue_length,
)
from gg1lab.mdp import (
    MdpInstance,
    _Chain,
    build_instance,
    continuous_time_average,
    implied_response,
    policy_evaluation,
    solve_optimal,
)

# ---------------------------------------------------------------------------
# birth-death stationary law


def test_stationary_distribution_basics():
    pi = stationary_distribution(0.5, 1.0, 10)
    assert pi.sum() == pytest.approx(1.0)
    assert (pi >= 0).all()
    # detailed balance: lambda pi_x = mu pi_{x+1}
    np.testing.assert_allclose(0.5 * pi[:-1], 1.0 * pi[1:], rtol=1e-12)


def test_stationary_distribution_input_forms():
    a = stationary_distribution(0.3, 0.9, 6)
    b = stationary_distribution(0.3, np.full(6, 0.9))
    c = stationary_distribution(0.3, lambda x: 0.9, n_states=6)
    np.testing.assert_allclose(a, b)
    np.testing.assert_allclose(a, c)
    with pytest.raises(ValueError):
        stationary_distribution(-0.1, 1.0, 5)
    with pytest.raises(ValueError):
        stationary_distribution(0.5, 0.0, 5)
    with pytest.raises(ValueError):
        stationary_distribution(0.5, lambda x: 1.0)


def test_zero_arrivals_concentrate_at_empty():
    pi = stationary_distribution(0.0, 1.0, 5)
    np.testing.assert_allclose(pi, [1, 0, 0, 0, 0, 0])
    assert expected_queue_length(pi) == 0.0


def test_mm1_closed_forms():
    # truncation hardly matters when the tail mass is tiny: the
    # untruncated E[n] = rho / (1 - rho) is 1 at rho = 1/2
    assert truncated_mm1_queue_length(0.5, 1.0, 200) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the decision process: structure


def test_transition_row_hand_example():
    # arrival 0.1, fastest rate 0.2 -> uniformisation rate 0.3; serving at
    # 0.15 from state 3 moves down w.p. 1/2, up w.p. 1/3, stays w.p. 1/6
    inst = build_instance(0.1, [0.15, 0.2], n_states=6)
    assert inst.uniformisation_rate == pytest.approx(0.3)
    chain = _Chain(inst)
    assert chain.p_down[0, 3] == pytest.approx(0.5)
    assert chain.p_up == pytest.approx(1.0 / 3.0)
    assert chain.p_stay[0, 3] == pytest.approx(1.0 / 6.0)
    assert chain.down[3] == 2
    assert inst.stage_costs(np.zeros(7, dtype=int))[3] == pytest.approx(10.0)
    # state 0 never serves; state N turns arrivals into a self-loop
    assert (chain.p_down[:, 0] == 0.0).all()
    assert chain.p_stay[0, 0] == pytest.approx(2.0 / 3.0)
    assert (chain.down[0], chain.down[6]) == (0, 5)
    assert chain.p_up + chain.p_stay[0, 6] == pytest.approx(0.5)


@given(
    lam=st.floats(0.0, 2.0),
    n_actions=st.integers(1, 4),
    n=st.integers(2, 30),
)
@settings(max_examples=60, deadline=None)
def test_transition_rows_are_stochastic(lam, n_actions, n):
    grid = np.linspace(0.5, 2.5, n_actions + 1)[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = build_instance(lam, grid, n_states=n)
    chain = _Chain(inst)
    # every action's row has nonnegative moves summing to one; the stay
    # probability is unclamped, so rounding may leave it a hair below 0
    eps = np.finfo(float).eps
    assert chain.p_up >= 0 and (chain.p_down >= 0).all()
    assert (chain.p_stay >= -4 * eps).all()
    np.testing.assert_allclose(chain.p_up + chain.p_down + chain.p_stay, 1.0, atol=1e-12)


def test_instance_validation():
    with pytest.raises(ValueError):
        build_instance(0.5, [], 5)
    with pytest.raises(ValueError):
        build_instance(0.5, [1.0, 0.9], 5)
    with pytest.raises(ValueError):
        build_instance(0.5, [0.0, 1.0], 5)
    with pytest.raises(ValueError):
        build_instance(-0.5, [1.0], 5)
    with pytest.raises(ValueError):
        build_instance(0.5, [1.0], 1)
    with pytest.warns(UserWarning):
        build_instance(1.5, [1.0], 5)


def test_policy_validation():
    inst = build_instance(0.5, [0.8, 1.2], n_states=4)
    with pytest.raises(ValueError):
        policy_evaluation(inst, np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        policy_evaluation(inst, np.full(5, 7))
    with pytest.raises(ValueError):
        policy_evaluation(inst, np.zeros(5, dtype=int), distinguished_state=9)


# a case whose message was reworded keeps the id it had, which quotes
# the old wording
@pytest.mark.parametrize("kwargs, match", [
    pytest.param({"arrival_rate": float("nan")}, "arrival_rate", id="kwargs0-arrival rate"),
    pytest.param({"arrival_rate": float("inf")}, "arrival_rate", id="kwargs1-arrival rate"),
    pytest.param({"mu_grid": [0.8, float("inf")]}, r"action_grid\[1\]",
                 id="kwargs2-service rates must be finite"),
    pytest.param({"mu_grid": [float("nan"), 1.2]}, r"action_grid\[0\]",
                 id="kwargs3-service rates must be finite"),
    pytest.param({"cost_weight": float("nan")}, "cost_weight", id="kwargs4-cost weight"),
    pytest.param({"cost_weight": float("inf")}, "cost_weight", id="kwargs5-cost weight"),
    pytest.param({"penalty": (float("nan"), 1.0)}, r"penalty\[0\]",
                 id="kwargs6-penalty coefficients"),
    pytest.param({"penalty": (0.1, float("-inf"))}, r"penalty\[1\]",
                 id="kwargs7-penalty coefficients"),
    ({"penalty": (0.1, -1000.0)}, "overflows"),
    ({"n_states": 20.7}, "integer"),
    ({"n_states": float("nan")}, "integer"),
    pytest.param({"mu_grid": ["0.8", "1.2"]}, r"action_grid\[0\] must be a finite real number",
                 id="kwargs11-real numbers"),
    pytest.param({"penalty": ("0.1", "1")}, r"penalty\[0\] must be a finite real number",
                 id="kwargs12-real numbers"),
    pytest.param({"penalty": 0.1}, "penalty must be a pair", id="kwargs13-real numbers"),
    ({"arrival_rate": True}, "arrival_rate"),
])
def test_instance_rejects_nonfinite_and_nonintegral_inputs(kwargs, match):
    args = {"arrival_rate": 0.5, "mu_grid": [0.8, 1.2], "n_states": 20, **kwargs}
    with pytest.raises(ValueError, match=match):
        build_instance(**args)


@pytest.mark.parametrize("key", ["arrival_rate", "cost_weight", "penalty", "action_grid"])
def test_instance_rejects_values_that_are_not_real_numbers(key):
    # each gave a TypeError from np.isfinite, and a traceback in the CLI;
    # a str action grid was read as floats
    data = build_instance(0.1, [0.15, 0.4], 20, penalty=(0.1, -8.0)).to_dict()
    bad = {"penalty": ["0.1", "-8.0"], "action_grid": ["0.15", "0.4"]}.get(key, "0.1")
    with pytest.raises(ValueError, match=f"{key}.* must be a (finite real number|nonempty list of real numbers)"):
        MdpInstance.from_dict({**data, key: bad})
    # a solve config's method and tol are not the instance's, and stay ignored
    inst = MdpInstance.from_dict({**data, "method": "policy-iteration", "tol": 1e-10})
    assert inst.to_dict() == data
    # a numpy scalar is stored as a Python number, which a writer takes
    weight = MdpInstance.from_dict({**data, "cost_weight": np.float32(0.3)}).cost_weight
    assert type(weight) is float and weight == float(np.float32(0.3))


def test_instance_state_count_must_be_integral():
    data = build_instance(0.5, [0.8, 1.2], 20).to_dict()
    with pytest.raises(ValueError, match="integer"):
        MdpInstance.from_dict({**data, "n_states": 20.7})
    # an integral float is a state count; it is stored as an int
    inst = MdpInstance.from_dict({**data, "n_states": 20.0})
    assert inst.n_states == 20 and type(inst.n_states) is int


@pytest.mark.parametrize("method", ["policy-iteration", "relative-value-iteration"])
@pytest.mark.parametrize("state", [-1, 21, 99, 1.5, True, float("nan")])
def test_solvers_reject_distinguished_state_outside(method, state):
    inst = build_instance(0.5, [0.8, 1.2], n_states=20)
    with pytest.raises(ValueError, match="distinguished_state"):
        solve_optimal(inst, method, distinguished_state=state)


@pytest.mark.parametrize("state", [1.5, True, np.True_, -1, 21])
def test_policy_evaluation_rejects_distinguished_state_outside(state):
    inst = build_instance(0.5, [0.8, 1.2], n_states=20)
    with pytest.raises(ValueError, match="distinguished_state"):
        policy_evaluation(inst, np.zeros(21, dtype=int), distinguished_state=state)


@pytest.mark.parametrize("state", [3.0, np.int64(3), np.float64(3.0)])
def test_integral_distinguished_state_is_accepted(state):
    inst = build_instance(0.5, [0.8, 1.2], n_states=20)
    policy = np.arange(21) % 2
    v, rho = policy_evaluation(inst, policy, distinguished_state=state)
    v_ref, rho_ref = policy_evaluation(inst, policy, distinguished_state=3)
    assert v.tobytes() == v_ref.tobytes() and rho == rho_ref
    for method in ("policy-iteration", "relative-value-iteration"):
        sol = solve_optimal(inst, method, distinguished_state=state)
        ref = solve_optimal(inst, method, distinguished_state=3)
        assert type(sol.distinguished_state) is int
        assert sol.to_dict() == ref.to_dict()


@pytest.mark.parametrize("method", ["policy-iteration", "relative-value-iteration"])
@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-10, True, "1e-9"])
def test_solvers_reject_nonpositive_tolerance(method, tol):
    inst = build_instance(0.5, [0.8, 1.2], n_states=20)
    with pytest.raises(ValueError, match="tol must be a finite real number > 0"):
        solve_optimal(inst, method, tol=tol)


@pytest.mark.parametrize("method", ["policy-iteration", "relative-value-iteration"])
def test_overflowing_stage_costs_raise_at_once(method):
    # a cost weight of 1e308 overflows the stage costs to inf; relative
    # value iteration ran all its sweeps (9 s at N = 20) before it raised
    # a RuntimeError
    inst = build_instance(0.1, [0.15, 0.25, 0.4], 20, cost_weight=1e308)
    start = time.perf_counter()
    with warnings.catch_warnings(), pytest.raises(ValueError):
        warnings.simplefilter("ignore", RuntimeWarning)
        solve_optimal(inst, method)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("args, cost_weight, sweep", [
    ((0.1, [0.15, 0.25, 0.4], 20), 1e308, 1),  # the stage costs are inf
    ((0.1, [0.15, 0.25, 0.4], 20), 3e305, 24),
    ((0.3, [0.35, 0.5], 60), 1e305, 27),
])
def test_value_iteration_names_the_sweep_that_overflowed(args, cost_weight, sweep):
    # the last two have finite stage costs, but relative values that grow
    # past the largest float on the way to a fixed point beyond it; from
    # sweeps 10 and 14 on, max|J| is over half the largest float, too
    # large for the stopping test's shortcut, so every sweep takes the
    # full test
    inst = build_instance(*args, cost_weight=cost_weight)
    message = f"relative value iteration diverged: sweep {sweep} gave a value that is not finite"
    with warnings.catch_warnings(), pytest.raises(ValueError, match=f"^{message}$"):
        warnings.simplefilter("ignore", RuntimeWarning)
        solve_optimal(inst, "relative-value-iteration")


@pytest.mark.parametrize("cost_weight", [1e305, 1e306])
def test_policy_iteration_refuses_relative_values_that_overflow(cost_weight):
    # finite stage costs whose relative values pass the largest float:
    # policy iteration returned rho_bar 3.81e304 beside values that were
    # not all finite and a NaN residual
    inst = build_instance(0.5, [0.75, 1.0, 1.25], 100, cost_weight=cost_weight)
    message = "the relative values or the average cost of this policy are not all finite"
    with warnings.catch_warnings(), pytest.raises(ValueError, match=f"^{message}$"):
        warnings.simplefilter("ignore", RuntimeWarning)
        solve_optimal(inst, "policy-iteration")


def test_cli_policy_iteration_overflow_exits_2_with_one_json_line(tmp_path, capsys):
    # it exited 0 and wrote a solution.json with Infinity and NaN, which
    # is not JSON
    from gg1lab.cli import main

    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "mdp_demo.json")) as fh:
        cfg = json.load(fh)
    cfg_file = tmp_path / "mdp.json"
    cfg_file.write_text(json.dumps({**cfg, "cost_weight": 1e305}))
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["mdp", "solve", "--config", str(cfg_file), "--out", str(out_dir)])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "ValueError"
    assert not (out_dir / "solution.json").exists()


# ---------------------------------------------------------------------------
# evaluation against the birth-death oracle


def test_fixed_policy_matches_stationary_average():
    inst = build_instance(0.5, [1.0], n_states=200)
    policy = np.zeros(201, dtype=int)
    _, rho_bar = policy_evaluation(inst, policy)
    h_bar_t = continuous_time_average(inst, rho_bar)
    oracle = truncated_mm1_queue_length(0.5, 1.0, 200)
    assert h_bar_t == pytest.approx(oracle, abs=1e-10)
    assert h_bar_t == pytest.approx(1.0, abs=1e-6)


def test_two_rate_policy_matches_birth_death():
    # switch to the fast rate at queue length >= 3
    inst = build_instance(0.6, [0.8, 1.5], n_states=150)
    policy = np.array([0] * 3 + [1] * 148)
    _, rho_bar = policy_evaluation(inst, policy)
    h_bar_t = continuous_time_average(inst, rho_bar)
    pi = stationary_distribution(0.6, lambda x: 0.8 if x < 3 else 1.5, n_states=150)
    assert h_bar_t == pytest.approx(expected_queue_length(pi), abs=1e-9)


def test_zero_arrivals_degenerate():
    inst = build_instance(0.0, [1.0], n_states=2)
    values, rho_bar = policy_evaluation(inst, np.zeros(3, dtype=int))
    assert rho_bar == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(values, [0.0, 1.0, 3.0], atol=1e-12)


def test_distinguished_state_only_shifts_values():
    inst = build_instance(0.5, [0.7, 1.3], n_states=40)
    policy = np.tile([0, 1], 21)[:41]
    v0, rho0 = policy_evaluation(inst, policy, distinguished_state=0)
    v5, rho5 = policy_evaluation(inst, policy, distinguished_state=5)
    assert rho0 == pytest.approx(rho5, abs=1e-12)
    np.testing.assert_allclose(v5, v0 - v0[5], atol=1e-9)
    assert v5[5] == 0.0


def poisson_residual(inst, policy, values, rho_bar):
    """max_x |cost + P J - rho_bar - J| under a fixed policy, from the
    sweep tables."""
    chain = _Chain(inst)
    a, x = np.asarray(policy), inst.states
    up = np.minimum(x + 1, inst.n_states)
    lookahead = (chain.cost[a, x] + chain.p_up * values[up]
                 + chain.p_down[a, x] * values[chain.down] + chain.p_stay[a, x] * values)
    return float(np.max(np.abs(lookahead - rho_bar - values)))


# A policy that serves slower than arrivals come: the chain drifts up to N,
# and the backward recursion d_{x-1} = (c_x - g + p d_x) / q_x multiplies
# its error by p / q = 5/3 a state, so its residual was 0.25 max|J| at
# N = 200 and NaN at N = 2000.  The differenced system stays at an ulp.
@pytest.mark.parametrize("grid, n", [([0.3], 200), ([0.3, 1.0], 2000)])
def test_evaluation_of_a_policy_slower_than_arrivals(grid, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = build_instance(0.5, grid, n_states=n)
    policy = np.zeros(n + 1, dtype=int)
    values, rho_bar = policy_evaluation(inst, policy)
    assert np.isfinite(values).all()
    scale = np.max(np.abs(values))
    assert poisson_residual(inst, policy, values, rho_bar) <= 4 * np.finfo(float).eps * scale
    # the queue sits near N: the time average is within 2 of N
    assert n - 2 < continuous_time_average(inst, rho_bar) < n


def test_policy_iteration_residual_does_not_grow_with_n():
    with open(DEMO_CONFIG) as fh:
        data = json.load(fh)
    inst = MdpInstance.from_dict({**data, "n_states": 100_000})
    sol = solve_optimal(inst, tol=data["tol"])
    assert sol.residual <= 64 * np.finfo(float).eps * np.max(np.abs(sol.relative_values))


def test_mdp_does_not_import_the_birth_death_oracle():
    # criterion 9 checks the solver's gain against ``birthdeath``; the
    # check means something only while mdp computes it another way
    code = "import sys, gg1lab.mdp; print('gg1lab.birthdeath' in sys.modules)"
    src = os.path.dirname(os.path.dirname(gg1lab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# optimisation


def solve_both(inst, tol=1e-10):
    pi_sol = solve_optimal(inst, method="policy-iteration", tol=tol)
    rvi_sol = solve_optimal(inst, method="relative-value-iteration", tol=tol)
    return pi_sol, rvi_sol


def test_methods_agree():
    inst = build_instance(0.5, [0.75, 1.0, 1.25], n_states=100,
                          penalty=(0.1, -8.0))
    a, b = solve_both(inst)
    np.testing.assert_array_equal(a.policy, b.policy)
    assert a.rho_bar == pytest.approx(b.rho_bar, rel=1e-9)
    np.testing.assert_allclose(a.relative_values, b.relative_values, atol=1e-6)
    assert a.method == "policy-iteration"
    assert b.method == "relative-value-iteration"
    assert a.residual <= 1e-8
    with pytest.raises(ValueError):
        solve_optimal(inst, method="newton")


def test_exhaustive_small_instance():
    """Brute force over every stationary deterministic policy."""
    inst = build_instance(0.6, [0.7, 1.0, 1.6], n_states=6, cost_weight=1.0,
                          penalty=(0.3, -2.0))
    best_rho = np.inf
    best_policy = None
    for assignment in itertools.product(range(3), repeat=7):
        _, rho = policy_evaluation(inst, np.array(assignment))
        if rho < best_rho:
            best_rho = rho
            best_policy = assignment
    sol = solve_optimal(inst)
    assert sol.rho_bar == pytest.approx(best_rho, rel=1e-12)
    np.testing.assert_array_equal(sol.policy, best_policy)


def test_no_penalty_prefers_fastest_service():
    inst = build_instance(0.5, [0.75, 1.0, 1.25], n_states=60)
    sol = solve_optimal(inst)
    assert (sol.policy[1:] == 2).all()


def test_wear_penalty_slows_the_empty_server():
    # wear grows with the committed rate, so an empty system idles slow
    inst = build_instance(0.1, [0.15, 0.2, 0.25, 0.3, 0.35, 0.4],
                          n_states=100, penalty=(0.1, -8.0))
    sol = solve_optimal(inst)
    assert sol.policy[0] == 0
    # and the busy states run faster than the empty one
    assert sol.policy[60] > sol.policy[0]


def test_penalty_decreasing_in_rate_prefers_fastest():
    inst = build_instance(0.5, [0.75, 1.0, 1.25], n_states=60, penalty=(5.0, 1.0))
    sol = solve_optimal(inst)
    assert (sol.policy == 2).all()


def test_cost_weight_scales_average_not_policy():
    base = build_instance(0.5, [0.7, 1.0, 1.3], n_states=80)
    scaled = build_instance(0.5, [0.7, 1.0, 1.3], n_states=80, cost_weight=3.7)
    a = solve_optimal(base)
    b = solve_optimal(scaled)
    np.testing.assert_array_equal(a.policy, b.policy)
    assert b.rho_bar == pytest.approx(3.7 * a.rho_bar, rel=1e-12)


def test_truncation_is_converged():
    r200 = solve_optimal(build_instance(0.5, [0.8, 1.0, 1.2], n_states=200))
    r400 = solve_optimal(build_instance(0.5, [0.8, 1.0, 1.2], n_states=400))
    h200 = continuous_time_average(build_instance(0.5, [0.8, 1.0, 1.2], 200), r200.rho_bar)
    h400 = continuous_time_average(build_instance(0.5, [0.8, 1.0, 1.2], 400), r400.rho_bar)
    assert abs(h400 - h200) < 1e-6


def test_implied_response_single_rate():
    inst = build_instance(0.5, [1.0], n_states=200)
    sol = solve_optimal(inst)
    # with one action this is plain M/M/1: mean response 2
    assert implied_response(sol, inst) == pytest.approx(2.0, abs=1e-6)


def test_implied_response_strips_penalty():
    with_pen = build_instance(0.5, [0.8, 1.0, 1.2], n_states=120, penalty=(2.0, -1.0))
    sol = solve_optimal(with_pen)
    direct = implied_response(sol, with_pen)
    _, rho_holding = policy_evaluation(with_pen.without_penalty(), sol.policy)
    expected = continuous_time_average(with_pen, rho_holding) / 0.5
    assert direct == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        implied_response(sol, build_instance(0.0, [1.0], n_states=2))


def test_serialization_round_trips():
    inst = build_instance(0.5, [0.8, 1.2], n_states=30, cost_weight=2.0,
                          penalty=(0.3, -1.5))
    again = MdpInstance.from_dict(inst.to_dict())
    assert again.to_dict() == inst.to_dict()
    sol = solve_optimal(inst)
    data = sol.to_dict()
    assert data["method"] == "policy-iteration"
    assert len(data["policy"]) == 31
    assert data["rho_bar"] == pytest.approx(sol.rho_bar)


# ---------------------------------------------------------------------------
# golden bytes

DEMO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "mdp_demo.json")
# sha256 of the demo instance's policy-iteration and relative-value-iteration
# solutions (policy, relative values, rho_bar, residual, iterations) and
# their implied responses, with policies evaluated by the subtraction-free
# elimination of the differenced Poisson equation
DEMO_SOLUTION_SHA256 = {
    100: "ce91052b37aa755299cec94bd0a34de7294fb991a8231552dc966800d25edab8",
    1000: "6d33d9f8d43ccd37a3d12412e6d331150cb2acc178712614d2594a3b6599cb46",
}


@pytest.mark.parametrize("n", sorted(DEMO_SOLUTION_SHA256))
def test_demo_solutions_match_recorded_bytes(n):
    with open(DEMO_CONFIG) as fh:
        data = json.load(fh)
    inst = MdpInstance.from_dict({**data, "n_states": n})
    digest = hashlib.sha256()
    sols = {}
    for method in ("policy-iteration", "relative-value-iteration"):
        sol = sols[method] = solve_optimal(inst, method, tol=data["tol"])
        digest.update(method.encode())
        digest.update(np.asarray(sol.policy, dtype=np.int64).tobytes())
        digest.update(np.asarray(sol.relative_values, dtype=np.float64).tobytes())
        digest.update(f"{sol.rho_bar!r} {sol.residual!r} {sol.iterations} "
                      f"{implied_response(sol, inst)!r}".encode())
    assert digest.hexdigest() == DEMO_SOLUTION_SHA256[n]
    # the two solvers cross-check each other on the demo instance
    pi, rvi = sols["policy-iteration"], sols["relative-value-iteration"]
    np.testing.assert_array_equal(pi.policy, rvi.policy)
    assert abs(pi.rho_bar - rvi.rho_bar) <= data["tol"]
