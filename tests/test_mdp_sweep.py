"""The sweep tables and the tridiagonal policy evaluation in ``gg1lab.mdp``
against the dense-matrix solvers they replaced (``reference_mdp``) and
against exact rational arithmetic.

The greedy sweep and relative value iteration, which never evaluates a
policy, match the dense oracle bitwise.  Policy evaluation solves a
different (differenced) linear system, so its last bits differ from the
dense solve's, and where a stretch of slow service follows a fast one the
dense solve's values are the less accurate of the two.  So values are
checked against ``exact_evaluation``, a ``fractions`` solve of the same
float coefficients: policy evaluation's values, and those policy
iteration returns, must be within ``VALUES_ULPS`` ulps of
max(|J|, |rho_bar|) of the exact ones, and their gain within
``GAIN_ULPS`` such ulps.  Both must also satisfy the dense oracle's
Poisson equation to ``RESIDUAL_ULPS`` such ulps.  Policy iteration visits
the dense oracle's policies in the same number of iterations, except
where ``ties`` allows a genuine tie to go either way.

The sweep computes all actions' q-values only where its rounding bound
leaves a state uncertified (``mdp._Chain``).  It is checked against the
oracle at every sweep of whole relative value iteration runs, and at
flows on and a few ulps beside the crossing points of the actions'
q-value lines, at state-0 costs that tie only after rounding and at
non-finite values, all of which must take the full scan.  A chain keeps
each state's certified action from one sweep to the next, so it is also
checked at every sweep of one chain over random sequences of values.
Relative value iteration sweeps between two reused value buffers, so the
solutions it returns are checked to share no memory with the chain.
"""

import json
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gg1lab import mdp
from gg1lab.acceptance import THEOREM_ARRIVAL_RATE, THEOREM_SERVICE_RATE

import reference_mdp

DEMO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "mdp_demo.json")
METHODS = ("policy-iteration", "relative-value-iteration")
EPS = np.finfo(float).eps
# Against exact rational solutions of the same system, over 18,000
# instances drawn like ``instances()``, half with random policies and half
# with a stretch of the slowest action inside the fastest, policy
# evaluation's gains were within 0.7 ulps of max(|J|, |rho_bar|), its
# Poisson residuals within 2.4 such ulps and its values within 53.  A
# dense LU solve of the same systems was up to 9.8e6 ulps off in the
# values.
GAIN_ULPS = 64
RESIDUAL_ULPS = 64
VALUES_ULPS = 256
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


def exact_evaluation(inst, policy, x0=0):
    """The exact relative values and gain, as Fractions, of the Poisson
    equation whose coefficients are the floats that policy evaluation
    reads: p = lambda / Lambda, q_x = mu_policy(x) / Lambda and the stage
    costs.  Solved another way than by elimination: the gain is the
    stationary average of the costs (pi_x proportional to the product of
    p / q_y for y <= x), and the flows follow from rows N down to 1,
    J(x) - J(x-1) = (cost_x + p (J(x+1) - J(x)) - rho_bar) / q_x."""
    big = inst.uniformisation_rate
    p = Fraction(inst.arrival_rate / big)
    q = [Fraction(v) for v in (inst.action_grid[policy] / big).tolist()]
    cost = [Fraction(c) for c in inst.stage_costs(policy).tolist()]
    weight, total, mass = Fraction(1), cost[0], Fraction(1)
    for x in range(1, inst.n_states + 1):
        weight = weight * p / q[x]
        total += weight * cost[x]
        mass += weight
    rho_bar = total / mass
    values, flow = [Fraction(0)], Fraction(0)
    for x in range(inst.n_states, 0, -1):
        flow = (cost[x] + p * flow - rho_bar) / q[x]
        values.append(values[-1] - flow)
    values.reverse()
    return [v - values[x0] for v in values], rho_bar


def assert_near_exact(inst, policy, values, rho_bar, x0):
    """values and rho_bar within VALUES_ULPS and GAIN_ULPS ulps of the
    exact solution.  Returns the exact solution rounded to floats, and
    one ulp of it."""
    exact_values, exact_rho = exact_evaluation(inst, policy, x0)
    rounded = np.array([float(v) for v in exact_values]), float(exact_rho)
    scale = ulp_scale(*rounded)
    error = max(abs(Fraction(v) - e) for v, e in zip(values.tolist(), exact_values))
    assert error <= VALUES_ULPS * scale
    assert abs(Fraction(rho_bar) - exact_rho) <= GAIN_ULPS * scale
    return rounded, scale


def ulp_scale(values, rho_bar):
    """EPS times max(|J|, |rho_bar|): one ulp of the solution."""
    return EPS * max(np.max(np.abs(values)), abs(rho_bar), SCALE_FLOOR)


def assert_solves_poisson(inst, policy, values, rho_bar):
    """(I - P) J + rho_bar = cost under the oracle's P, to RESIDUAL_ULPS."""
    p = reference_mdp.transition_matrix(inst, policy)
    residual = inst.stage_costs(policy) + p @ values - values - rho_bar
    assert np.max(np.abs(residual)) <= RESIDUAL_ULPS * ulp_scale(values, rho_bar)


def assert_same_evaluation(inst, policy, x0=0):
    values, rho = mdp.policy_evaluation(inst, policy, x0)
    assert type(rho) is float and values.shape == (inst.n_states + 1,)
    assert values[x0] == 0.0
    assert_solves_poisson(inst, policy, values, rho)
    assert_near_exact(inst, policy, values, rho, x0)


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
    exact, scale = assert_near_exact(inst, sol.policy, sol.relative_values, sol.rho_bar, x0)
    if ties and not np.array_equal(sol.policy, ref.policy):
        assert_tied(inst, sol, ref)
        return sol
    assert_same_array(sol.policy, ref.policy)
    assert sol.iterations == ref.iterations
    # the Bellman residual moves by at most 2 max|dJ| + |d rho_bar| with
    # the solution, besides its own rounding
    want = reference_mdp._bellman_residual(inst, *exact)
    assert abs(sol.residual - want) <= (2 * VALUES_ULPS + GAIN_ULPS + RESIDUAL_ULPS) * scale
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


def test_slow_stretch_after_fast_one_matches_exact():
    # states 15-24 are served at 0.1, slower than arrivals come at 0.3043,
    # after states served at 1.2173; a gtsv tridiagonal solve, which
    # cancels in its pivots on the fast stretch, put J 5.7e4 ulps of
    # max|J| from the exact solution here
    inst = mdp.build_instance(0.3043, [0.1, 1.2173], 26, cost_weight=4.3, penalty=(1.95, -1.5))
    policy = np.ones(27, dtype=int)
    policy[15:25] = 0
    assert_same_evaluation(inst, policy, x0=14)


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


@pytest.mark.parametrize("inst, tol", [
    demo_instance(100),
    demo_instance(1000),
    (mdp.build_instance(THEOREM_ARRIVAL_RATE, [0.75, 1.0, 1.25], 100), 1e-10),
], ids=["demo-100", "demo-1000", "criterion-9-grid"])
def test_every_rvi_sweep_matches_reference(monkeypatch, inst, tol):
    # the values of a whole run, from zeros to the fixed point, including
    # the final residual sweep; criterion 9's grid has no penalty, so all
    # its lines cross at d = 0 and its state 0 ties in every sweep
    real = mdp._Chain.lookahead
    swept = []

    def checked(chain, values, size, out):
        real(chain, values, size, out)
        ref_best, ref_q = reference_mdp.greedy(inst, values[0])
        assert size == np.abs(values[0]).max()
        assert_same_array(chain.greedy_policy(), ref_best)
        assert_same_array(out, ref_q)
        swept.append(size)

    monkeypatch.setattr(mdp._Chain, "lookahead", checked)
    sol = mdp.solve_optimal(inst, "relative-value-iteration", tol=tol)
    assert len(swept) == sol.iterations + 1


def test_values_past_half_the_largest_float_match_reference():
    # max|J| reaches 1.35e308, so the change between two sweeps could
    # overflow and 159 of the 174 sweeps take the full stopping test
    inst = mdp.build_instance(0.1, [0.15, 0.25, 0.4], 20, cost_weight=2e305)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = assert_same_solution(inst, "relative-value-iteration")
    assert np.abs(sol.relative_values).max() > np.finfo(float).max / 2


def chain_arrays(chain):
    return [v for v in vars(chain).values() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("method", METHODS)
def test_solutions_share_no_memory_with_the_chain(method):
    # relative value iteration sweeps between two reused value buffers;
    # the solution it returns must be its own, unchanged by further sweeps
    # of the same chain and by a second solve on it
    inst, tol = demo_instance(100)
    solve = {"policy-iteration": mdp._policy_iteration,
             "relative-value-iteration": mdp._relative_value_iteration}[method]
    chain = mdp._Chain(inst)
    sol = solve(inst, chain, tol, 0)
    policy, values = sol.policy.copy(), sol.relative_values.copy()
    rng = np.random.default_rng(29)
    for swept in (np.zeros(101), rng.normal(size=101), 2.0 * values):
        chain.sweep(swept)
        chain.lookahead(mdp._slices(swept), np.abs(swept).max(), np.empty(101))
    again = solve(inst, chain, tol, 0)
    for got in (sol, again):
        for array in (got.policy, got.relative_values):
            assert not any(np.shares_memory(array, work) for work in chain_arrays(chain))
    assert not np.shares_memory(sol.relative_values, again.relative_values)
    assert not np.shares_memory(sol.policy, again.policy)
    assert_same_array(sol.policy, policy)
    assert_same_array(sol.relative_values, values)
    # the kept actions and margin a solve leaves behind change no bits
    assert_same_array(again.policy, policy)
    assert_same_array(again.relative_values, values)
    assert (again.rho_bar, again.residual, again.iterations) == (sol.rho_bar, sol.residual,
                                                                 sol.iterations)


def chain_uncertified(chain, values):
    """The states a sweep of ``chain`` at ``values`` would scan."""
    return chain._uncertified(mdp._slices(values), np.abs(values).max())


def uncertified(inst, values):
    """The states whose sweep takes the full scan over all actions,
    whichever action the chain keeps there from its last sweep."""
    chain = mdp._Chain(inst)
    out = np.ones(inst.n_states + 1, dtype=bool)
    for a in range(inst.n_actions):
        chain._keep(inst.states, np.full(inst.n_states + 1, a))
        out &= np.isin(inst.states, chain_uncertified(chain, values))
    return out


def near(point, ulps=4):
    """point and its floating-point neighbours up to ulps either side."""
    below, above = [point], [point]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


def values_with_flows(n, flows, base=0.0):
    """Value vectors on states 0..n, base everywhere but at odd states x,
    which take base + flows[i] in turn.  With base 0, J(x) - J(x-1) is
    exactly flows[i]."""
    per = (n + 1) // 2
    out = []
    for i in range(0, len(flows), per):
        chunk = np.asarray(flows[i:i + per])
        values = np.full(n + 1, base)
        values[1:2 * len(chunk):2] = chunk + base
        out.append(values)
    return out


def crossings(inst):
    """Where each pair of actions' q-value lines c_a - s_a d cross
    (``mdp._Chain``), and whether no other line is below them there."""
    chain = mdp._Chain(inst)
    c, s = chain.cost[:, 0], chain.p_down[:, -1]
    out = []
    for a in range(len(c)):
        for b in range(a + 1, len(c)):
            if s[a] != s[b]:
                point = (c[a] - c[b]) / (s[a] - s[b])
                lines = c - s * point
                others = np.delete(lines, [a, b])
                out.append((point, bool(np.all(others >= lines[a] - 1e-9 * (1 + abs(lines[a]))))))
    return out


CROSSING_INSTANCES = {
    "demo": demo_instance(30)[0],
    "zero-penalty": mdp.build_instance(0.5, [0.75, 1.0, 1.25], 30),
    "equal-intercepts": mdp.build_instance(0.5, [0.75, 1.0, 1.25], 30, penalty=(0.3, 0.0)),
    "negative-wear": mdp.build_instance(0.3, [0.2, 0.5, 0.6, 1.1], 30, penalty=(-1.5, 2.0)),
}


@pytest.mark.parametrize("name", sorted(CROSSING_INSTANCES))
def test_flows_at_crossings_take_the_full_scan(name):
    # where two lines cross with no other below them, rounding decides
    # between them: flows there and a few ulps either side are never
    # certified
    inst = CROSSING_INSTANCES[name]
    lowest = 0
    for point, on_envelope in crossings(inst):
        (values,) = values_with_flows(inst.n_states, near(point))
        if on_envelope:
            lowest += 1
            assert uncertified(inst, values)[1:19:2].all()
        assert_same_sweep(inst, values)
        for base in (-3.0, 1e3):
            for values in values_with_flows(inst.n_states, near(point), base):
                assert_same_sweep(inst, values)
    assert lowest >= 1


def test_state_0_ties_after_rounding_take_the_full_scan():
    # faster actions wear less, so the last action has the least cost at
    # state 0, but a large J(1) rounds every c_a + p_up J(1) to one value
    # and the first minimum is action 0
    inst = mdp.build_instance(0.5, [0.75, 1.0, 1.25], 6, penalty=(0.2, 1.0))
    c = mdp._Chain(inst).cost[:, 0]
    assert np.argmin(c) == 2 and len(set(c)) == 3
    for big in (1e12, 1e14, 1e16, 1e20):
        values = np.linspace(0.0, big, 7)
        assert uncertified(inst, values)[0]
        assert_same_sweep(inst, values)
    best, _ = mdp._Chain(inst).sweep(np.linspace(0.0, 1e16, 7))
    assert best[0] == 0


def test_a_retabulation_rechecks_every_kept_action():
    # small values certify state 0's least-cost action; once J(1) is large
    # enough to tie every action at state 0, the chain's wider margin
    # must uncertify the action it kept, and the scan picks action 0
    inst = mdp.build_instance(0.5, [0.75, 1.0, 1.25], 6, penalty=(0.2, 1.0))
    chain = mdp._Chain(inst)
    small, big = np.linspace(0.0, 1e-3, 7), np.linspace(0.0, 1e16, 7)
    assert chain.sweep(small)[0][0] == 2
    assert 0 not in chain_uncertified(chain, small)
    assert 0 in chain_uncertified(chain, big)
    for values in (small, big, small, big):
        best, q = chain.sweep(values)
        ref_best, ref_q = reference_mdp.greedy(inst, values)
        assert_same_array(best, ref_best)
        assert_same_array(q, ref_q)
    assert best[0] == 0


@pytest.mark.parametrize("grid", [[0.75, 1.0, 1.25], [0.5, 1.0, 1.5]])
def test_non_finite_values_take_the_full_scan(grid):
    # with grid [0.5, 1, 1.5] and arrival rate 0.5 the last action never
    # stays, and 0 * inf makes its q-value NaN where the others are inf;
    # like argmin, the sweep then picks the NaN
    inst = mdp.build_instance(0.5, grid, 6, penalty=(0.1, 1.0))
    finite = np.linspace(0.0, 3.0, 7)
    cases = []
    for bad in (np.inf, -np.inf, np.nan):
        for x in (0, 3, 6):
            values = finite.copy()
            values[x] = bad
            cases.append(values)
    cases.append(np.array([np.inf, -np.inf, np.nan, 0.0, np.inf, 1.0, np.nan]))
    for values in cases:
        assert uncertified(inst, values).all()
        with np.errstate(invalid="ignore"):
            assert_same_sweep(inst, values)


@st.composite
def instances(draw):
    grid = sorted(draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=8, unique=True)))
    load = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
    n = draw(st.integers(2, 30))
    k0 = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    k1 = draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0)))
    penalty = (k0, k1)
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
    # a stretch of the slowest action inside the fastest
    start, stop = sorted(rng.integers(0, inst.n_states + 2, size=2))
    stretched = np.full(inst.n_states + 1, inst.n_actions - 1)
    stretched[start:stop] = 0
    assert_same_evaluation(inst, stretched, x0)
    for method in METHODS:
        assert_same_solution(inst, method, tol=1e-9, x0=x0, ties=True)


@st.composite
def slow_stretches(draw):
    """An instance whose arrival rate lies between its slowest and fastest
    rates, and a policy that serves a stretch of at least four states at
    the slowest rate after at least two at the fastest.  There an
    elimination whose pivots subtract, like LAPACK's gtsv, cancels."""
    slow, fast = draw(st.floats(0.05, 0.4)), draw(st.floats(1.0, 2.0))
    middle = draw(st.lists(st.floats(0.45, 0.95), max_size=3, unique=True))
    grid = [slow, *sorted(middle), fast]
    arrival_rate = draw(st.floats(2.0 * slow, 0.9 * fast))
    n = draw(st.integers(8, 40))
    start = draw(st.integers(2, n - 4))
    stop = draw(st.integers(start + 4, n + 1))
    penalty = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-4.0, 4.0)))
    inst = mdp.build_instance(arrival_rate, grid, n, draw(st.floats(0.0, 5.0)), penalty)
    policy = np.full(n + 1, len(grid) - 1)
    policy[start:stop] = 0
    return inst, policy, draw(st.integers(0, n))


@given(case=slow_stretches())
@settings(max_examples=60, deadline=None)
def test_random_slow_stretches_after_fast_ones_match_exact(case):
    inst, policy, x0 = case
    assert_same_evaluation(inst, policy, x0)


@given(case=instances(), scale=st.sampled_from([1e-3, 1.0, 1e4]))
@settings(max_examples=60, deadline=None)
def test_random_sweeps_at_crossings_match_reference(case, scale):
    inst, _ = case
    for point, _ in crossings(inst):
        for values in values_with_flows(inst.n_states, near(point), base=scale):
            assert_same_sweep(inst, values)
    n = inst.n_states
    assert_same_sweep(inst, scale * np.linspace(0.0, 1.0, n + 1) ** 2)


def value_step(inst, kind, scale, seed):
    """One value vector of a sweep sequence: normal noise at ``scale``,
    the same with three entries NaN or infinite, a ramp whose constant
    flow puts every state x >= 1 on one action, or flows on and beside
    one crossing point at base ``scale``."""
    n = inst.n_states
    rng = np.random.default_rng(seed)
    points = [point for point, _ in crossings(inst)]
    if kind == "crossing" and points:
        return values_with_flows(n, near(points[seed % len(points)]), base=scale)[0]
    if kind == "ramp":
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-1.0, 2.0) * np.arange(n + 1.0)
    values = scale * rng.normal(size=n + 1)
    if kind == "non-finite":
        values[rng.integers(0, n + 1, size=3)] = rng.choice([np.nan, np.inf, -np.inf], size=3)
    return values


STEP_KINDS = ("normal", "non-finite", "ramp", "crossing")
STEP_SCALES = (1e-3, 1.0, 1e4, 1e12, 1e16)
# every drawn sequence ends with these: NaN and infinite values followed
# by finite ones, two ramps, which move many states' actions at once, and
# the same crossing flows at a small base and then at one large enough to
# force a retabulation, after which values of 1e16 tie state 0's actions
STEP_TAIL = (("non-finite", 1.0), ("normal", 1.0), ("ramp", 1.0), ("ramp", 1.0),
             ("crossing", 1e-3), ("crossing", 1e12), ("normal", 1e16))


@given(
    case=instances(),
    steps=st.lists(st.tuples(st.sampled_from(STEP_KINDS), st.sampled_from(STEP_SCALES),
                             st.integers(0, 2**32 - 1)), max_size=10),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_one_chain_matches_reference_at_every_sweep(case, steps, seed):
    # a chain keeps the policy of its last sweep and certifies each state
    # against it, so every sweep of one chain over a sequence of values
    # must still be the full scan's
    inst, _ = case
    steps = steps + [(kind, scale, seed) for kind, scale in STEP_TAIL]
    chain = mdp._Chain(inst)
    returned = []
    for kind, scale, step_seed in steps:
        values = value_step(inst, kind, scale, step_seed)
        with np.errstate(invalid="ignore", over="ignore"):
            best, q = chain.sweep(values)
            ref_best, ref_q = reference_mdp.greedy(inst, values)
        assert_same_array(best, ref_best)
        assert_same_array(q, ref_q)
        returned.append((best, ref_best))
    # later sweeps leave the policies returned earlier alone
    for best, ref_best in returned:
        assert_same_array(best, ref_best)
