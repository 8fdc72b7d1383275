"""Hostile values, one parameter at a time, at every public entry.

Each value of ``HOSTILE`` replaces one argument of a small, valid call
(or one key of a small config file given to ``cli.main``).  A case must
end in one of three ways: a result whose floats are Python floats or
float64; a ValueError or ``EventCapExceeded`` from the library; or, from
the CLI, exit 0, or exit 2 with one JSON line on stderr.  Any other
exception fails the case.

Runs are kept small, because no up-front refusal yet bounds the events
a run needs: every simulation passes an event cap of 10,000 unless the
cap is the parameter under test, solves use N <= 20, and an accepted
hostile state count is constructed but never solved.
"""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gg1lab import cli, experiments
from gg1lab.distributions import DistributionSpec, exponential
from gg1lab.experiments import ExperimentConfig
from gg1lab.inspection import poisson_epochs, sample_inspections
from gg1lab.mdp import MdpInstance, build_instance, solve_optimal
from gg1lab.metrics import compute_report, littles_chain, verify_theorem
from gg1lab.renewal import RenewalCycles
from gg1lab.simulator import EventCapExceeded, simulate

HOSTILE = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 1e308, 10**400, True,
           np.float32(0.3), np.int8(3), "1", None, [1], {}]

SMALL_CAP = 10_000

# every value is drawn within a few examples; the space is exhausted
# long before the bound
HARNESS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def _floats_ok(obj) -> bool:
    """Every float inside ``obj`` is a Python float or a float64."""
    if dataclasses.is_dataclass(obj):
        return all(_floats_ok(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return all(_floats_ok(v) for v in obj)
    if isinstance(obj, dict):
        return all(_floats_ok(v) for v in obj.values())
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind != "f" or obj.dtype == np.float64
    return not isinstance(obj, np.floating) or type(obj) is np.float64


def _replace(args: dict, path: tuple, value) -> dict:
    """A deep copy of ``args`` with the entry at ``path`` set to ``value``."""
    out = copy.deepcopy(args)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def _paths(args: dict) -> list[tuple]:
    """The path of every entry of ``args``, and of the items of each list
    and the values of each dict in it."""
    paths = []
    for key, value in args.items():
        paths.append((key,))
        if isinstance(value, list):
            paths += [(key, i) for i in range(len(value))]
        elif isinstance(value, dict):
            paths += [(key, *sub) for sub in _paths(value)]
    return paths


_RUN = simulate(exponential(1.0), exponential(2.0), warmup=5.0, horizon=20.0, seed=1)
_REPORT = compute_report(*_RUN)
_INSTANCE = build_instance(0.1, [0.15, 0.25, 0.4], 20, penalty=(0.1, -8.0))

SPEC_ARGS = {
    "exponential": [2.0], "deterministic": [1.0], "uniform": [0.5, 2.0],
    "gamma": [2.0, 0.5], "lognormal": [0.0, 0.5],
}
SIMULATE_ARGS = {
    "arrival": exponential(1.0), "service": exponential(2.0), "discipline": "lcfs",
    "warmup": 1.0, "horizon": 20.0, "seed": 3, "event_cap": SMALL_CAP,
}
SWEEP_CONFIG = {
    "version": 1,
    "arrival": {"kind": "exponential", "params": [1.0]},
    "service_shape": {"kind": "gamma", "params": [2.0, 0.5]},
    "rate_grid": [1.5, 2.0],
    "seeds": [1],
    "discipline": "fcfs",
    "cost_weight": 1.0,
    "penalty_k0": 0.1,
    "penalty_k1": 1.0,
    "warmup": 5.0,
    "horizon": 50.0,
}
MDP_CONFIG = {
    "arrival_rate": 0.1,
    "action_grid": [0.15, 0.25, 0.4],
    "n_states": 20,
    "cost_weight": 1.0,
    "penalty": [0.1, -8.0],
    "method": "policy-iteration",
    "tol": 1e-10,
}
MDP_ARGS = {k: MDP_CONFIG[k] for k in ("arrival_rate", "action_grid", "n_states",
                                        "cost_weight", "penalty")}
BUILD_ARGS = {("mu_grid" if k == "action_grid" else k): v for k, v in MDP_ARGS.items()}


def _spec(kind, i, value):
    params = list(SPEC_ARGS[kind])
    params[i] = value
    return DistributionSpec(kind, params)


def _call(entry, args, path, value):
    return entry(**_replace(args, path, value))


def _sweep_config(path, value):
    return ExperimentConfig.from_dict(_replace(SWEEP_CONFIG, path, value))


CASES = {
    "DistributionSpec.kind": lambda v: DistributionSpec(v, [1.0]),
    "DistributionSpec.params": lambda v: DistributionSpec("exponential", v),
    **{f"DistributionSpec.{kind}[{i}]": functools.partial(_spec, kind, i)
       for kind, params in SPEC_ARGS.items() for i in range(len(params))},
    **{f"simulate.{name}": functools.partial(_call, simulate, SIMULATE_ARGS, (name,))
       for name in SIMULATE_ARGS},
    "compute_report.path": lambda v: compute_report(v, _RUN[1]),
    "compute_report.ledger": lambda v: compute_report(_RUN[0], v),
    "compute_report.cost_weight": lambda v: compute_report(*_RUN, v),
    "verify_theorem.arrival_rate": lambda v: verify_theorem(_REPORT, v),
    "littles_chain.arrival_rate": lambda v: littles_chain(_REPORT, v),
    # 0.0 and -0.0 make a report of weight 0, which littles_chain divides by
    "littles_chain.report.cost_weight": lambda v: littles_chain(compute_report(*_RUN, v)),
    "poisson_epochs.window": lambda v: poisson_epochs(v, 0.5, 1),
    "poisson_epochs.window[0]": lambda v: poisson_epochs((v, 20.0), 0.5, 1),
    "poisson_epochs.window[1]": lambda v: poisson_epochs((0.0, v), 0.5, 1),
    "poisson_epochs.rate": lambda v: poisson_epochs((0.0, 20.0), v, 1),
    "poisson_epochs.rng": lambda v: poisson_epochs((0.0, 20.0), 0.5, v),
    "ExperimentConfig.from_dict": ExperimentConfig.from_dict,
    **{f"ExperimentConfig.from_dict.{'.'.join(map(str, path))}":
       functools.partial(_sweep_config, path) for path in _paths(SWEEP_CONFIG)},
    **{f"MdpInstance.{'.'.join(map(str, path))}":
       functools.partial(_call, MdpInstance, MDP_ARGS, path) for path in _paths(MDP_ARGS)},
    **{f"build_instance.{name}": functools.partial(_call, build_instance, BUILD_ARGS, (name,))
       for name in BUILD_ARGS},
    "solve_optimal.instance": lambda v: solve_optimal(v),
    "solve_optimal.method": lambda v: solve_optimal(_INSTANCE, v),
    "solve_optimal.tol": lambda v: solve_optimal(_INSTANCE, "policy-iteration", v),
    "solve_optimal.distinguished_state": lambda v: solve_optimal(_INSTANCE, "policy-iteration",
                                                                 distinguished_state=v),
    "Trajectory.restrict": lambda v: _RUN[0].restrict(v),
    "CustomerLedger.restrict": lambda v: _RUN[1].restrict(v),
}


@pytest.mark.parametrize("case", sorted(CASES))
@HARNESS
@given(value=st.sampled_from(HOSTILE))
def test_library_entry_refuses_or_returns_plain_floats(case, value):
    try:
        result = CASES[case](value)
    except (ValueError, EventCapExceeded):
        return
    assert _floats_ok(result), (case, value, result)


@pytest.mark.parametrize("weight", [5e-324, 1e-310])
def test_a_weight_that_takes_a_total_below_the_normal_range_is_refused(weight):
    # at 5e-324 littles_chain read n_bar_from_H = n_bar_from_Rn = 3.0
    # against n_bar_direct = 2.8078: the totals had lost their digits
    run = simulate(exponential(1.0), exponential(2.0), warmup=5.0, horizon=20.0, seed=1)
    for path, ledger in (run, _RUN):
        with pytest.raises(ValueError, match=r"^cost_weight .* below the normal float range$"):
            compute_report(path, ledger, weight)
    chain = littles_chain(compute_report(*run, 1.0))
    assert chain.n_bar_from_H == chain.n_bar_direct == 2.807801416166712


@pytest.mark.parametrize("epochs", [[math.nan], [1.0, math.nan], [math.nan, 20.0], [[6.0, 7.0]]])
def test_inspection_epochs_that_are_nan_or_not_1d_are_refused(epochs):
    # [nan] gave an idle sample, and a 2-D array numpy's "object too deep"
    path, ledger = _RUN
    with pytest.raises(ValueError, match="^epochs must"):
        sample_inspections(ledger, path, epochs)


@pytest.mark.parametrize("bounds", [([math.nan], [1.0], [2.0]), ([0.0], [math.nan], [2.0]),
                                    ([0.0], [1.0], [math.nan])])
def test_cycles_with_a_nan_boundary_are_refused(bounds):
    # RenewalCycles([nan], [1.0], [2.0]) constructed
    with pytest.raises(ValueError, match="busy_start <= busy_end <= cycle_end"):
        RenewalCycles(*bounds)


def test_bool_inside_the_action_grid_is_refused():
    # the grid was once checked as an array, which read True as the rate 1.0
    with pytest.raises(ValueError, match=r"action_grid\[2\]"):
        MdpInstance(0.1, [0.15, 0.25, True], 20)


def _json_value(value):
    """The value as a config file can hold it: numpy scalars become
    Python numbers."""
    return value.item() if isinstance(value, np.generic) else value


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def _assert_strict_json(directory):
    """Every .json and .jsonl file under ``directory`` parses with no
    NaN or Infinity token."""
    written = [os.path.join(root, name) for root, _, names in os.walk(directory)
               for name in names if name.endswith((".json", ".jsonl"))]
    assert written
    for name in written:
        with open(name) as fh:
            text = fh.read()
        for doc in text.splitlines() if name.endswith(".jsonl") else [text]:
            json.loads(doc, parse_constant=_refuse_constant)


# (verb, path of the config entry replaced); the empty path replaces the file
CLI_CASES = [(verb, path) for verb, config in (("sweep", SWEEP_CONFIG), ("mdp", MDP_CONFIG))
             for path in [(), *_paths(config)]]


@pytest.mark.parametrize("verb,path", CLI_CASES,
                         ids=[".".join(map(str, (verb, *path))) for verb, path in CLI_CASES])
@HARNESS
@given(value=st.sampled_from(HOSTILE))
def test_cli_config_value_exits_0_or_2_with_one_json_line(verb, path, value):
    config = SWEEP_CONFIG if verb == "sweep" else MDP_CONFIG
    value = _json_value(value)
    if verb == "mdp" and path == ("n_states",):
        try:
            instance = MdpInstance.from_dict(_replace(MDP_CONFIG, path, value))
        except ValueError:
            pass
        else:
            assume(instance.n_states <= 20)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "simulate", functools.partial(simulate, event_cap=SMALL_CAP))
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump(_replace(config, path, value) if path else value, fh)
        argv = ["sweep"] if verb == "sweep" else ["mdp", "solve"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([*argv, "--config", cfg, "--out", os.path.join(tmp, "out")])
        if rc == 0:
            _assert_strict_json(os.path.join(tmp, "out"))
    assert rc in (0, 2), (verb, path, value, rc)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
