"""Average-cost control of the service rate in an M/M/1 queue.

The continuous-time chain is uniformised at the fastest total event
rate, turning rate control into a discrete-time MDP on queue lengths
{0..N}.  Holding cost accrues per customer per unit time; an optional
wear penalty k0 * exp(-k1 * mu) per unit time charges for running the
server at rate mu, including while idle.  The average-cost Bellman
equation is solved in the standard relative-value form

    J(x) = cost(x, a) - rho_bar + sum_y P(y | x, a) J(y),  J(x_tilde) = 0,

by policy iteration or relative value iteration.  rho_bar is cost per
uniformised stage; multiplying by the uniformisation constant recovers
cost per unit time.

The controlled chain is birth-death, and each solve tabulates it once
(``_Chain``): the lower neighbour of every state, the arrival
probability, and action-major tables of the service, stay and stage-cost
terms.  For x >= 1 each action's q-value is a line in the flow
J(x) - J(x-1), and a stated bound on rounding error (see ``_Chain``)
gives each action an interval of flows where it is certainly the least.
The chain keeps each state's action from one sweep to the next.  A
sweep tests each state's flow against its kept action's interval, looks
the flow up among all the intervals only where that test fails, and
computes only the certified action's q-value, by the same multiply-adds
as the full scan.  The first-minimum scan over all actions runs only on
the states left uncertified, so every sweep's bits are the full scan's.
Relative value iteration sweeps between two value buffers, checks its
stopping rule at one state before it checks all of them, and builds the
greedy policy once, at the end.

Policy evaluation works on the flows J(x+1) - J(x): differencing
neighbouring rows of the Poisson equation removes the gain and leaves a
tridiagonal system, solved in O(N) by an elimination whose pivots are
formed without subtraction; the gain and J follow from the flows by one
multiply-add and a running sum.  The module needs NumPy only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import integer, real

DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 200_000
_EPS = float(np.finfo(float).eps)  # 2u, twice the unit roundoff
_TINY = float(np.finfo(float).tiny)
_NONE = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class MdpInstance:
    """Uniformised service-rate-control MDP on states {0..N}.

    The action grid is an increasing array of finite rates > 0, the
    arrival rate and cost weight finite reals >= 0, the penalty a pair of
    finite reals and n_states an integer >= 2; bool, str and the rest
    raise ValueError.  ``from_dict`` ignores keys it does not read, such
    as the ``method`` and ``tol`` that a solve config carries."""

    arrival_rate: float
    action_grid: np.ndarray
    n_states: int
    cost_weight: float = 1.0
    penalty: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        grid = self.action_grid
        grid = grid.tolist() if isinstance(grid, np.ndarray) else grid
        if not (isinstance(grid, (list, tuple)) and grid):
            raise ValueError(f"action_grid must be a nonempty list of real numbers, "
                             f"got {self.action_grid!r}")
        grid = np.array([real(f"action_grid[{i}]", r, 0, above=True) for i, r in enumerate(grid)],
                        dtype=float)
        if np.any(np.diff(grid) <= 0):
            raise ValueError("action grid must be strictly increasing")
        object.__setattr__(self, "action_grid", grid)
        object.__setattr__(self, "arrival_rate", real("arrival_rate", self.arrival_rate, 0))
        object.__setattr__(self, "n_states", integer("n_states", self.n_states, 2))
        object.__setattr__(self, "cost_weight", real("cost_weight", self.cost_weight, 0))
        if not (isinstance(self.penalty, (list, tuple)) and len(self.penalty) == 2):
            raise ValueError(f"penalty must be a pair (k0, k1), got {self.penalty!r}")
        k0, k1 = (real(f"penalty[{i}]", v) for i, v in enumerate(self.penalty))
        object.__setattr__(self, "penalty", (k0, k1))
        with np.errstate(over="ignore"):
            wear = k0 * np.exp(-k1 * grid)
        if not np.all(np.isfinite(wear)):
            raise ValueError(
                f"wear penalty k0 * exp(-k1 * mu) with (k0, k1) = {self.penalty} "
                "overflows on the action grid"
            )
        if self.arrival_rate >= grid[-1]:
            warnings.warn(
                f"arrival rate {self.arrival_rate} is not below the fastest service "
                f"rate {grid[-1]}; no stable policy exists",
                stacklevel=3,
            )

    @property
    def uniformisation_rate(self) -> float:
        return self.arrival_rate + float(self.action_grid[-1])

    @property
    def n_actions(self) -> int:
        return len(self.action_grid)

    @property
    def states(self) -> np.ndarray:
        return np.arange(self.n_states + 1)

    def stage_costs(self, policy: np.ndarray) -> np.ndarray:
        """Cost per uniformised stage under a policy: holding plus the
        optional wear penalty, both divided by the uniformisation rate."""
        k0, k1 = self.penalty
        mu = self.action_grid[np.asarray(policy)]
        per_time = self.cost_weight * self.states + k0 * np.exp(-k1 * mu)
        return per_time / self.uniformisation_rate

    def without_penalty(self) -> "MdpInstance":
        return MdpInstance(
            self.arrival_rate, self.action_grid, self.n_states, self.cost_weight, (0.0, 0.0)
        )

    def to_dict(self) -> dict:
        return {
            "arrival_rate": self.arrival_rate,
            "action_grid": self.action_grid.tolist(),
            "n_states": self.n_states,
            "cost_weight": self.cost_weight,
            "penalty": list(self.penalty),
            "uniformisation_rate": self.uniformisation_rate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MdpInstance":
        if not isinstance(data, dict):
            raise ValueError(f"an MDP config is a JSON object, got {data!r}")
        return cls(
            arrival_rate=data["arrival_rate"],
            action_grid=data["action_grid"],
            n_states=data["n_states"],
            cost_weight=data.get("cost_weight", 1.0),
            penalty=data.get("penalty", (0.0, 0.0)),
        )


def build_instance(arrival_rate, mu_grid, n_states, cost_weight=1.0, penalty=None) -> MdpInstance:
    return MdpInstance(
        arrival_rate=arrival_rate,
        action_grid=mu_grid,
        n_states=n_states,
        cost_weight=cost_weight,
        penalty=(0.0, 0.0) if penalty is None else penalty,
    )


@dataclass
class MdpSolution:
    policy: np.ndarray
    relative_values: np.ndarray
    rho_bar: float
    iterations: int
    residual: float
    method: str
    distinguished_state: int = 0

    def to_dict(self) -> dict:
        return {
            "policy": np.asarray(self.policy).tolist(),
            "relative_values": np.asarray(self.relative_values).tolist(),
            "rho_bar": self.rho_bar,
            "iterations": self.iterations,
            "residual": self.residual,
            "method": self.method,
            "distinguished_state": self.distinguished_state,
        }


def continuous_time_average(instance: MdpInstance, rho_bar: float) -> float:
    """Convert cost per uniformised stage back to cost per unit time."""
    return rho_bar * instance.uniformisation_rate


class _Chain:
    """The controlled birth-death chain of one instance, tabulated once
    per solve, and its greedy sweep, which keeps each state's certified
    action from one sweep to the next.

    ``down`` indexes each state's lower neighbour, with ``down[0] = 0``;
    the arrival at N is a self-loop.  ``p_up`` is the arrival probability
    of every state.  The action-major tables hold, at [a, x], the service
    probability mu_a / Lambda (0 at x = 0), the stay probability
    1 - p_up - p_down (unclamped) and the stage cost.

    The sweep's q-value of action a at state x is

        cost[a, x] + p_up J(x+1) + p_down[a, x] J(x-1) + p_stay[a, x] J(x),

    summed left to right.  In exact arithmetic, with c_a = cost[a, 0]
    (the wear penalty per stage) and s_a = mu_a / Lambda, it is a line in
    the flow d_x = J(x) - J(x-1) for x >= 1,

        q_a(x) = common(x) + c_a - s_a d_x,

    where common(x) is the same for every action; at x = 0, where no
    action serves, it is common(0) + c_a.  So a state's greedy action
    depends only on where d_x falls among the crossing points of the A
    lines.  The computed q-value of each action strays from its line by
    at most

        3u max|cost| + 4u max|J|   rounding of the four products and three sums,
        3u max|cost|               cost[a, x] against c_a plus a common term,
        2u max|J|                  p_stay[a, x] against 1 - p_up - s_a,
        u max|J|                   its share of the rounding of d_x,

    with u = 2**-53.  The sweep's margin

        m = 16u (max|cost| + 4 max|J|) + tiny

    is over twice that sum; ``tiny``, the smallest normal number, covers
    underflow.  So where action a's line lies below every other line by
    more than 2m, a's computed q-value is strictly the least, with room
    left for the rounding of the crossing points themselves (under 8u
    max|cost| + 6u m), and the full scan would pick a.

    ``_tabulate`` finds each action's safe interval [lo, hi) of d, where
    its line lies below every other by more than 2m, and whether state 0
    has a safe action.  The intervals are disjoint and ordered by action.
    The chain keeps one action per state, with that action's table
    entries and the ends lo[x], hi[x] of its safe interval; state 0, which
    has no flow, tests 0 against (-inf, inf) if its kept action is safe
    and against an empty interval if not.  A sweep certifies state x when
    lo[x] <= d_x < hi[x], the test a lookup of d_x among the intervals
    makes for that action; a NaN flow fails it.  Where it fails, one
    ``searchsorted`` of d_x over the ends of all the intervals finds the
    safe action, if there is one, and the state keeps that action from
    then on.  A certified state computes the q-value of its kept action
    only, from the same table entries in the same order, so its bits are
    the full scan's.  The full first-minimum scan runs on the rest (its
    pick is not kept): ties and flows near a crossing, state 0
    when some action's cost exceeds the least by more than 0 but at most
    2m, and every state of a sweep whose values are not all finite.  The
    intervals are tabulated at twice the margin a sweep needs, and again,
    with every state's ends, only when a sweep's margin outgrows the one
    they were built with.  The greedy policy of value iteration changes in
    few sweeps, so most sweeps gather no table entries and look nothing
    up.

    ``lookahead`` is the sweep.  It writes the q-values into an array the
    caller owns, reads J through views J[1:] and J[:-1] that value
    iteration builds once per buffer, and takes max|J|, for its margin,
    from the caller.  Its work arrays and their views are made once per
    chain, so a sweep that certifies every state allocates nothing.
    ``greedy_policy`` builds the greedy policy, as a new array, only
    where a caller needs it: at the end of value iteration and in each
    improvement step of policy iteration.  ``sweep`` does both on new
    arrays.
    """

    def __init__(self, instance: MdpInstance):
        lam = instance.arrival_rate
        big = instance.uniformisation_rate
        k0, k1 = instance.penalty
        n = instance.n_states
        self.states = states = instance.states
        self.down = np.maximum(states - 1, 0)
        mu = instance.action_grid[:, None]
        self.p_up = lam / big
        self.p_down = np.where(states >= 1, mu, 0.0) / big
        self.p_stay = 1.0 - self.p_up - self.p_down
        self.cost = (instance.cost_weight * states + k0 * np.exp(-k1 * mu)) / big
        self._cost_scale = float(np.max(np.abs(self.cost)))
        # safe-interval ends by action (see _tabulate); the extra last
        # column, where the action -1 kept by a state never certified
        # points, is empty
        self._lo_end = np.full((2, instance.n_actions + 1), np.inf)
        self._hi_end = np.full((2, instance.n_actions + 1), -np.inf)
        self._row = np.minimum(states, 1)
        self._margin = -np.inf  # no safe intervals yet
        # the kept policy, its table entries and its intervals' ends
        self._policy = np.full(n + 1, -1, dtype=np.intp)
        self._kept_cost = np.zeros(n + 1)
        self._kept_p_down = np.zeros(n + 1)
        self._kept_p_stay = np.zeros(n + 1)
        self._lo = np.full(n + 1, np.inf)
        self._hi = np.full(n + 1, -np.inf)
        # the states the last sweep scanned and the actions it picked there
        self._scanned = (_NONE, _NONE)
        # work space, and the views of it a sweep uses; state 0 has no
        # flow and tests 0 against its ends
        self._flows = np.zeros(n + 1)
        self._ok = np.empty(n + 1, dtype=bool)
        self._up_term = np.empty(n + 1)
        self._term = np.empty(n + 1)
        self._flows_tail = self._flows[1:]
        self._up_term_head = self._up_term[:-1]
        self._term_tail = self._term[1:]
        self._kept_p_down_tail = self._kept_p_down[1:]

    def _tabulate(self, margin: float) -> None:
        """The safe intervals of d for this margin.  ``_lo_end[1, a]`` and
        ``_hi_end[1, a]`` are the ends of action a's interval (empty if it
        has none), and row 0 holds state 0's.  ``_edges`` lists the ends of
        the nonempty intervals in ascending order, ``_action_at[k]`` is the
        action of a flow that ``searchsorted`` places at k (-1 between
        intervals), and ``_action_at_0`` is state 0's safe action, or -1.
        Every state's kept ends are refreshed."""
        c = self.cost[:, 0]
        s = self.p_down[:, -1]
        gap = 2.0 * margin
        dc = c[:, None] - c[None, :]
        ds = s[:, None] - s[None, :]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # line a is below line b by more than gap where
            # (c_a - c_b + gap) - (s_a - s_b) d < 0: above this crossing
            # if s_a > s_b, below it if s_a < s_b, nowhere if c_a - c_b +
            # gap >= 0 and s_a = s_b
            cross = (dc + gap) / ds
        lo = np.max(np.where(ds > 0, cross, -np.inf), axis=1)
        hi = np.min(np.where(ds < 0, cross, np.inf), axis=1)
        others = ~np.eye(len(c), dtype=bool)
        blocked = np.any(others & (ds == 0) & ~(dc + gap < 0), axis=1)
        safe = (lo < hi) & ~blocked
        self._lo_end[1, :-1] = np.where(safe, lo, np.inf)
        self._hi_end[1, :-1] = np.where(safe, hi, -np.inf)
        safe = np.flatnonzero(safe)
        self._edges = np.column_stack((lo[safe], hi[safe])).ravel()
        self._action_at = np.full(len(self._edges) + 1, -1, dtype=np.intp)
        self._action_at[1::2] = safe
        # at x = 0 all actions share p_down and p_stay, so the computed
        # q-value rises with c_a and actions of equal cost tie exactly
        a0 = int(np.argmin(c))
        rise = dc[:, a0]
        self._action_at_0 = a0 if np.all((rise == 0) | (rise > gap)) else -1
        self._lo_end[0, :-1] = np.inf
        self._hi_end[0, :-1] = -np.inf
        if self._action_at_0 >= 0:
            self._lo_end[0, a0], self._hi_end[0, a0] = -np.inf, np.inf
        self._margin = margin
        self._lo = self._lo_end[self._row, self._policy]
        self._hi = self._hi_end[self._row, self._policy]

    def _keep(self, states: np.ndarray, actions: np.ndarray) -> None:
        """Make ``actions`` (none of them -1) the kept policy at ``states``,
        with their table entries and safe-interval ends."""
        self._policy[states] = actions
        at = actions * len(self._policy) + states
        self._kept_cost[states] = self.cost.take(at)
        self._kept_p_down[states] = self.p_down.take(at)
        self._kept_p_stay[states] = self.p_stay.take(at)
        ends = self._row[states] * self._lo_end.shape[1] + actions
        self._lo[states] = self._lo_end.take(ends)
        self._hi[states] = self._hi_end.take(ends)

    def _uncertified(self, values: tuple, size: float) -> np.ndarray:
        """The states where no action is safely the least at these values
        (a ``_slices`` triple), of which ``size`` is max|J|.  A state whose
        kept action is not, but whose flow lies in another action's safe
        interval (one ``searchsorted`` over their ends), keeps that action
        instead."""
        margin = 8 * _EPS * (self._cost_scale + 4 * size) + _TINY
        if not math.isfinite(margin):
            return self.states
        if margin > self._margin:
            self._tabulate(2.0 * margin)
        _, up, down = values
        flows, ok = self._flows, self._ok
        np.subtract(up, down, out=self._flows_tail)
        # ok[ok.argmin()] is ok.all(), at a third of its cost
        np.less_equal(self._lo, flows, out=ok)
        if ok[ok.argmin()]:
            np.less(flows, self._hi, out=ok)
            if ok[ok.argmin()]:
                return _NONE
        moved = np.flatnonzero(~((self._lo <= flows) & (flows < self._hi)))
        found = self._action_at.take(np.searchsorted(self._edges, flows[moved], side="right"))
        if moved[0] == 0:
            found[0] = self._action_at_0
        hit = found >= 0
        self._keep(moved[hit], found[hit])
        return moved[~hit]

    def lookahead(self, values: tuple, size: float, out: np.ndarray) -> None:
        """One-step lookahead in place: per state, the least over actions
        of stage cost plus expected next value, written into ``out``.
        ``values`` is a ``_slices`` triple, ``size`` max|J| and ``out``
        another array than J.  The greedy policy is not built here;
        ``greedy_policy`` builds it from what this sweep kept and picked."""
        scan = self._uncertified(values, size)
        # the kept action's q-value at every state; the scan below
        # replaces it where the kept action is not certified
        values, up, down = values
        up_term, term = self._up_term, self._term
        np.multiply(self.p_up, up, out=self._up_term_head)
        up_term[-1] = up_term[-2]  # the arrival at N stays at N
        np.multiply(self._kept_p_down_tail, down, out=self._term_tail)
        term[0] = self._kept_p_down[0] * values[0]
        np.add(self._kept_cost, up_term, out=out)
        out += term
        out += np.multiply(self._kept_p_stay, values, out=term)
        pick = _NONE
        if len(scan):
            q_all = self.cost[:, scan] + up_term[scan]
            q_all += self.p_down[:, scan] * values[self.down[scan]]
            q_all += self.p_stay[:, scan] * values[scan]
            pick = np.argmin(q_all, axis=0)
            out[scan] = q_all[pick, np.arange(len(scan))]
        self._scanned = (scan, pick)

    def greedy_policy(self) -> np.ndarray:
        """The last sweep's greedy policy, as a new array: the kept
        actions, with the full scan's picks at the states it scanned.  As
        with ``argmin``, a tie goes to the lowest action index and a NaN
        q-value counts as the least."""
        best = self._policy.copy()
        scan, pick = self._scanned
        best[scan] = pick
        return best

    def sweep(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The greedy policy at these values and its q-values, as new
        arrays, which later sweeps leave alone."""
        q = np.empty_like(values)
        self.lookahead(_slices(values), float(np.abs(values).max()), q)
        return self.greedy_policy(), q


def _slices(values: np.ndarray) -> tuple:
    """values with the views values[1:] and values[:-1] a sweep reads."""
    return values, values[1:], values[:-1]


def policy_evaluation(
    instance: MdpInstance, policy, distinguished_state: int = 0
) -> tuple[np.ndarray, float]:
    """Relative values and average stage cost of a fixed policy.

    Under a fixed policy the chain is birth-death, so with the flows
    d_x = J(x+1) - J(x), the arrival probability p = lambda / Lambda and
    the service probabilities q_x = mu_policy(x) / Lambda (q_0 = 0, and
    d_N = 0 for the self-loop at N), row x of the Poisson equation
    (I - P) J + rho_bar * 1 = cost reads

        rho_bar = cost_x + p d_x - q_x d_{x-1}.

    Subtracting row x+1 from row x removes rho_bar and leaves an N x N
    tridiagonal system in d, with p + q_{x+1} on the diagonal, -q_x
    below it and -p above it.  Gaussian elimination from the top gives
    pivots b_0 = p + q_1 and b_x = p + q_{x+1} - q_x p / b_{x-1}, whose
    subtraction cancels wherever q_x is large against p.  Writing
    b_x = q_{x+1} + e_x instead, e_0 = p and e_x = p e_{x-1} / b_{x-1}:
    every pivot is made of sums, products and quotients of positive
    numbers, and is within a few ulps of its exact value whatever the
    rates.  The right-hand sides follow, y_0 = cost_1 - cost_0 and
    y_x = (cost_{x+1} - cost_x) + q_x y_{x-1} / b_{x-1}, then the flows
    from d_N = 0 back, d_x = (y_x + p d_{x+1}) / b_x.
    rho_bar is row 0, cost_0 + p d_0, and J the running sum of d,
    shifted to zero at the distinguished state.  Stage costs, relative
    values or an average cost that are not all finite raise ValueError.

    J and rho_bar satisfy the Poisson equation to a few ulps of
    max(|J|, |rho_bar|), and rho_bar is within a few such ulps of the
    exact gain (which can be many ulps of rho_bar itself when |J| is far
    larger).  Against exact rational solutions of the same float
    coefficients, J stayed within 53 such ulps over 18,000 small random
    instances, half of them with a stretch of states served slower than
    arrivals come after a fast one.  There LAPACK's tridiagonal solve
    (gtsv), whose pivots are formed by the cancelling subtraction, was up
    to 3.0e6 ulps off.  The elimination is a sequential Python loop, at
    about 0.3 microseconds per state on 2 vCPUs with Python 3.11.
    """
    policy = np.asarray(policy)
    if policy.shape != (instance.n_states + 1,):
        raise ValueError(f"policy must assign an action to each of the {instance.n_states + 1} states")
    if np.any(policy < 0) or np.any(policy >= instance.n_actions):
        raise ValueError("policy contains out-of-range action indices")
    x0 = integer("distinguished_state", distinguished_state, 0, instance.n_states)
    n = instance.n_states
    big = instance.uniformisation_rate
    p = instance.arrival_rate / big
    q = instance.action_grid[policy] / big
    cost = instance.stage_costs(policy)
    rhs = np.diff(cost)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("the stage costs of this policy are not all finite")
    # forward elimination, in place: pivots[x] becomes b_x and flows[x]
    # y_x, so that row x reads b_x d_x - p d_{x+1} = y_x
    pivots, flows = q[1:].tolist(), rhs.tolist()
    e, carry = p, 0.0  # e_x, and q_x y_{x-1} / b_{x-1}
    for x, q_next in enumerate(pivots):
        b = pivots[x] = q_next + e
        y = flows[x] = flows[x] + carry
        e = p * e / b
        carry = q_next * y / b
    # back substitution from d_N = 0; flows[x] becomes d_x
    d = 0.0
    for x in range(n - 1, -1, -1):
        d = flows[x] = (flows[x] + p * d) / pivots[x]
    rho_bar = float(cost[0] + p * flows[0])
    values = np.zeros(n + 1)
    np.cumsum(flows, out=values[1:])
    values -= values[x0]
    if not (math.isfinite(rho_bar) and np.all(np.isfinite(values))):
        raise ValueError("the relative values or the average cost of this policy are not all finite")
    return values, rho_bar


def solve_optimal(
    instance: MdpInstance,
    method: str = "policy-iteration",
    tol: float = DEFAULT_TOL,
    distinguished_state: int = 0,
) -> MdpSolution:
    """Minimise the long-run average cost over stationary policies.

    policy-iteration alternates exact evaluation with greedy
    improvement and is the reference solver; relative-value-iteration
    reaches the same fixed point by successive approximation.
    """
    solvers = {
        "policy-iteration": _policy_iteration,
        "relative-value-iteration": _relative_value_iteration,
    }
    if not isinstance(instance, MdpInstance):
        raise ValueError(f"instance must be an MdpInstance, got {instance!r}")
    if not isinstance(method, str) or method not in solvers:
        raise ValueError(f"unknown method {method!r}")
    tol = real("tol", tol, 0, above=True)
    x0 = integer("distinguished_state", distinguished_state, 0, instance.n_states)
    return solvers[method](instance, _Chain(instance), tol, x0)


def _bellman_residual(chain, values, rho_bar) -> float:
    _, q = chain.sweep(values)
    return float(np.max(np.abs(q - rho_bar - values)))


def _policy_iteration(instance, chain, tol, x0) -> MdpSolution:
    policy = np.full(instance.n_states + 1, instance.n_actions - 1)
    values, rho_bar = policy_evaluation(instance, policy, x0)
    for it in range(1, 1000):
        improved, _ = chain.sweep(values)
        if np.array_equal(improved, policy):
            break
        new_values, new_rho = policy_evaluation(instance, improved, x0)
        converged = abs(new_rho - rho_bar) <= tol * max(1.0, abs(rho_bar))
        values, rho_bar, policy = new_values, new_rho, improved
        if converged:
            break
    else:
        raise RuntimeError("policy iteration failed to converge within 1000 sweeps")
    return MdpSolution(
        policy=policy,
        relative_values=values,
        rho_bar=rho_bar,
        iterations=it,
        residual=_bellman_residual(chain, values, rho_bar),
        method="policy-iteration",
        distinguished_state=x0,
    )


def _relative_value_iteration(instance, chain, tol, x0) -> MdpSolution:
    """From J = 0, J <- T J - (T J)(x0) until max|change| <= tol.

    The sweeps alternate between two value buffers; the values returned
    are the last one written, which nothing writes again.  max|J| is
    taken once per sweep, from the new values.  It is the next sweep's
    margin, and with the last sweep's it bounds every change:
    |J_new(x) - J_old(x)| <= max|J_new| + max|J_old|.  Where that bound
    is finite, the stopping test looks first at the probe, the state
    whose change was the largest at the last full test.  A change over
    tol there puts the largest over tol, and none can be inf, so the full
    test would neither stop nor raise, and it is skipped.  Otherwise the
    full max|change| is taken, and its argmax becomes the probe.  So the
    run stops, or raises on a change that is not finite, at the same
    sweep as with the full test alone; on the demo, the full test runs in
    2, 8 and 46 of 343, 2,086 and 5,689 sweeps at N = 100, 1,000, 3,000.
    """
    n = instance.n_states
    old, new = _slices(np.zeros(n + 1)), _slices(np.empty(n + 1))
    work = np.empty(n + 1)
    size = 0.0  # max|J| of the values the next sweep reads
    probe = 0  # the state whose change was largest at the last full test
    for it in range(1, MAX_ITERATIONS + 1):
        values = new[0]
        chain.lookahead(old, size, values)
        rho_bar = float(values[x0])
        np.subtract(values, rho_bar, out=values)
        last_size, size = size, float(work[np.abs(values, out=work).argmax()])
        if not math.isfinite(size + last_size) or abs(values[probe] - old[0][probe]) <= tol:
            np.abs(np.subtract(values, old[0], out=work), out=work)
            probe = int(work.argmax())
            gap = float(work[probe])
            if gap <= tol:
                break
            if not math.isfinite(gap):
                raise ValueError(f"relative value iteration diverged: sweep {it} gave a value "
                                 "that is not finite")
        old, new = new, old
    else:
        raise RuntimeError(
            f"relative value iteration failed to reach tol={tol} in {MAX_ITERATIONS} sweeps"
        )
    policy = chain.greedy_policy()  # before the residual's sweep replaces it
    return MdpSolution(
        policy=policy,
        relative_values=values,
        rho_bar=rho_bar,
        iterations=it,
        residual=_bellman_residual(chain, values, rho_bar),
        method="relative-value-iteration",
        distinguished_state=x0,
    )


def implied_response(solution: MdpSolution, instance: MdpInstance) -> float:
    """Per-customer response implied by the solved policy's holding cost.

    The wear penalty is not part of holding cost, so the policy is
    re-evaluated with the penalty stripped before applying the
    rate conversion H_bar_t / lambda.
    """
    if instance.arrival_rate <= 0:
        raise ValueError("implied response needs a positive arrival rate")
    holding_only = instance.without_penalty()
    _, rho_holding = policy_evaluation(
        holding_only, solution.policy, solution.distinguished_state
    )
    h_bar_t = continuous_time_average(holding_only, rho_holding)
    return h_bar_t / instance.arrival_rate
