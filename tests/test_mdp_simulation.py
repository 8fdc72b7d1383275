"""The control model checked against a simulation of its own optimal
policy.  Under a fixed policy the controlled queue is a birth-death
process: arrivals at rate lambda, and service at rate mu_policy(x) while
x customers are present.  A scalar event loop runs it in continuous
time, with no uniformisation, and serves customers first come, first
served.  Its mean response must match ``mdp.implied_response``, and its
time-average holding cost plus wear penalty must match the solver's
gain converted back to time by ``continuous_time_average``."""

import json
import math
import os
from collections import deque

import numpy as np
import pytest

from gg1lab.mdp import MdpInstance, continuous_time_average, implied_response, solve_optimal

DEMO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "mdp_demo.json")


def simulate_fcfs(instance, policy, events, batches, seed):
    """Run the queue from empty for ``events`` events, split into equal
    batches; each row of the result is one batch's (cost area, elapsed
    time, summed sojourn, departures).  An arrival at N is lost, as in
    the MDP."""
    lam, n = instance.arrival_rate, instance.n_states
    mu = instance.action_grid[np.asarray(policy)].tolist()
    k0, k1 = instance.penalty
    cost_rate = [instance.cost_weight * x + k0 * math.exp(-k1 * m) for x, m in enumerate(mu)]
    rng = np.random.default_rng(seed)
    waits = rng.standard_exponential(events).tolist()
    picks = rng.random(events).tolist()
    x, t, queue = 0, 0.0, deque()
    rows = []
    per = events // batches
    for start in range(0, per * batches, per):
        area = sojourn = 0.0
        done = 0
        t0 = t
        for i in range(start, start + per):
            up = lam if x < n else 0.0
            rate = up + (mu[x] if x else 0.0)
            dt = waits[i] / rate
            area += cost_rate[x] * dt
            t += dt
            if picks[i] * rate < up:
                x += 1
                queue.append(t)
            else:
                x -= 1
                sojourn += t - queue.popleft()
                done += 1
        rows.append((area, t - t0, sojourn, done))
    return np.array(rows)


def estimate(numerators, denominators):
    """The ratio of the totals, and its standard error from the spread of
    the batch ratios."""
    ratios = numerators / denominators
    return numerators.sum() / denominators.sum(), ratios.std(ddof=1) / math.sqrt(len(ratios))


@pytest.fixture(scope="module")
def demo():
    with open(DEMO_CONFIG) as fh:
        data = json.load(fh)
    instance = MdpInstance.from_dict(data)
    assert (instance.n_states, instance.arrival_rate) == (100, 0.1)
    solution = solve_optimal(instance, "policy-iteration", tol=data["tol"])
    # 1e6 events, about 5e5 customers, take about 0.4 s; 20 batches of
    # 5e4 events are each far longer than the queue's memory
    batches = simulate_fcfs(instance, solution.policy, 1_000_000, 20, seed=2026)
    return data, instance, solution, batches


def test_simulated_fcfs_response_matches_implied_response(demo):
    _, instance, solution, batches = demo
    response, se = estimate(batches[:, 2], batches[:, 3])
    # the standard error is about 0.2% of the response
    assert se < 0.005 * response
    assert abs(response - implied_response(solution, instance)) < 4.0 * se


@pytest.mark.parametrize("method", ["policy-iteration", "relative-value-iteration"])
def test_simulated_cost_and_penalty_rate_matches_the_gain(demo, method):
    # policy iteration takes its gain from policy_evaluation, relative
    # value iteration from the solver's own tables; both find the policy
    # simulated here
    data, instance, solution, batches = demo
    solved = solve_optimal(instance, method, tol=data["tol"])
    np.testing.assert_array_equal(solved.policy, solution.policy)
    rate, se = estimate(batches[:, 0], batches[:, 1])
    assert se < 0.005 * rate
    assert abs(rate - continuous_time_average(instance, solved.rho_bar)) < 4.0 * se
