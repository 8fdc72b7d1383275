"""Runs on forked workers (``_parallel.map_in_order``): the theorem runs
and the sweep give the in-process results bit for bit, an error in a
worker reaches the caller as itself, and runs below the threshold never
import multiprocessing."""

import dataclasses
import multiprocessing
import os
import pickle
import struct
import subprocess
import sys

import numpy as np
import pytest

import gg1lab
from gg1lab import _parallel, acceptance, experiments, metrics
from gg1lab.distributions import exponential
from gg1lab.simulator import EventCapExceeded, simulate

# with one usable CPU every map runs in process, so pids cannot tell
POOLED = _parallel._usable_cpus() > 1


def bits(value):
    """value with every float as its type and IEEE bytes, recursively, so
    that == compares bit for bit and type for type."""
    if isinstance(value, float):
        return type(value).__name__, struct.pack("<d", value)
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return type(value).__name__, {f.name: bits(getattr(value, f.name))
                                      for f in dataclasses.fields(value)}
    return type(value).__name__, value


def _capped(seed):
    try:
        simulate(exponential(1.0), exponential(1.0), horizon=1000.0, seed=seed, event_cap=100)
    except EventCapExceeded as exc:
        exc.pid = os.getpid()
        raise


def _with_pid(k):
    return k, os.getpid()


def _nested(k):
    return _parallel.map_in_order(_with_pid, [(0,), (1,)], _parallel.POOL_MIN_EVENTS)


def test_event_cap_exceeded_pickles_with_its_fields():
    with pytest.raises(EventCapExceeded) as caught:
        _capped(1)
    err = caught.value
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is EventCapExceeded
    assert back.args == err.args and str(back) == str(err)
    assert (back.events, back.time_reached, back.queue_length) == (
        err.events, err.time_reached, err.queue_length)
    assert back.events == 100 and back.time_reached > 0 and back.pid == os.getpid()


def test_a_cap_error_in_a_pooled_task_reaches_the_caller_as_itself():
    with pytest.raises(EventCapExceeded) as local:
        _capped(3)
    with pytest.raises(EventCapExceeded) as caught:
        _parallel.map_in_order(_capped, [(3,), (3,)], _parallel.POOL_MIN_EVENTS)
    got, want = caught.value, local.value
    assert type(got) is EventCapExceeded and got.args == want.args
    assert (got.events, got.time_reached, got.queue_length) == (
        want.events, want.time_reached, want.queue_length)
    if POOLED:
        assert got.pid != os.getpid()


def test_tasks_run_in_workers_from_the_threshold_only():
    tasks = [(k,) for k in range(5)]
    here = os.getpid()
    assert _parallel.map_in_order(_with_pid, tasks, _parallel.POOL_MIN_EVENTS - 1) == [
        (k, here) for k in range(5)]
    assert _parallel.map_in_order(_with_pid, tasks[:1], _parallel.POOL_MIN_EVENTS) == [(0, here)]
    pooled = _parallel.map_in_order(_with_pid, tasks, _parallel.POOL_MIN_EVENTS)
    assert [k for k, _ in pooled] == list(range(5))
    if POOLED:
        assert here not in {pid for _, pid in pooled}


def test_a_map_inside_a_daemonic_worker_runs_in_that_worker():
    # a multiprocessing.Pool's workers may not start processes of their own
    with multiprocessing.get_context("fork").Pool(2) as pool:
        for inner in pool.map(_nested, range(2)):
            assert [k for k, _ in inner] == [0, 1]
            assert inner[0][1] == inner[1][1] != os.getpid()


def spy_events(monkeypatch, module):
    """Record the events estimate of each map_in_order call from module."""
    seen = []

    def spying(fn, tasks, events):
        seen.append(events)
        return _parallel.map_in_order(fn, tasks, events)

    monkeypatch.setattr(module, "map_in_order", spying)
    return seen


def test_pooled_theorem_runs_equal_the_entries_run_in_process(monkeypatch):
    seen = spy_events(monkeypatch, acceptance)
    suite = acceptance.AcceptanceSuite(scale=0.02, master_seed=2026, self_check=False)
    runs = suite.theorem_runs()
    assert len(seen) == 1 and seen[0] >= _parallel.POOL_MIN_EVENTS
    horizons = runs[0]["horizons"]
    # the estimate is 2 (warmup + horizon) / arrival mean per run
    assert seen == [2 * (acceptance.THEOREM_WARMUP + horizons[-1])
                    * acceptance.THEOREM_ARRIVAL_RATE * len(suite._seeds())]
    want = [acceptance._theorem_entry(seed, horizons) for seed in suite._seeds()]
    assert bits(runs) == bits(want)


def test_pooled_sweep_equals_a_per_point_oracle(monkeypatch):
    # the two slowest rates saturate the server, so unstable_points has
    # entries whose order can be checked
    config = experiments.ExperimentConfig.from_json_file(acceptance.demo_config_path())
    config = experiments.ExperimentConfig.from_dict({
        **config.to_dict(), "rate_grid": [0.08, 0.095, 0.15, 0.25], "seeds": [7, 3, 11],
        "warmup": 50.0, "horizon": 250_000.0})
    seen = spy_events(monkeypatch, experiments)
    surface = experiments.run_sweep(config)
    assert len(seen) == 1 and seen[0] >= _parallel.POOL_MIN_EVENTS
    assert seen == [2 * (config.warmup + config.horizon) / config.arrival.mean()
                    * (len(config.rate_grid) * len(config.seeds))]

    shape = (len(config.rate_grid), len(config.seeds))
    per_seed = {name: np.zeros(shape)
                for name in experiments.RAW_SURFACES + experiments.PENALISED_SURFACES}
    unstable, reports = [], []
    for i, rate in enumerate(config.rate_grid):
        pen = config.penalty_rate(rate)
        for j, seed in enumerate(config.seeds):
            path, ledger = simulate(config.arrival, config.service_at(rate),
                                    discipline=config.discipline, warmup=config.warmup,
                                    horizon=config.horizon, seed=seed)
            rep = metrics.compute_report(path, ledger, config.cost_weight)
            per_customer = pen * (rep.window[1] - rep.window[0]) / rep.N_total if rep.N_total else 0.0
            for name in experiments.RAW_SURFACES:
                per_seed[name][i, j] = getattr(rep, name)
                if name != "H_bar_t":
                    per_seed[f"{name}_with_penalty"][i, j] = getattr(rep, name) + per_customer
            per_seed["total_cost_with_penalty"][i, j] = rep.H_bar_t + pen
            if not rep.stable:
                unstable.append({"rate": rate, "seed": seed, "rho_hat": rep.rho_hat})
            reports.append(({"mu": rate, "seed": seed}, rep))

    assert sorted(surface.per_seed) == sorted(per_seed)
    for name, values in per_seed.items():
        assert surface.per_seed[name].tobytes() == values.tobytes(), name
    assert [(p["rate"], p["seed"]) for p in unstable] == [
        (rate, seed) for rate in (0.08, 0.095) for seed in (7, 3, 11)]
    assert bits(surface.unstable_points) == bits(unstable)
    assert bits(surface.reports) == bits(reports)


def test_runs_below_the_threshold_leave_multiprocessing_unimported():
    # verify's set-up runs this sweep; a pool's import would be paid there
    code = """import sys
import gg1lab.acceptance, gg1lab.experiments
from gg1lab import experiments
config = experiments.ExperimentConfig.from_json_file(gg1lab.acceptance.demo_config_path())
experiments.run_sweep(experiments.ExperimentConfig.from_dict(
    {**config.to_dict(), "horizon": 500.0, "seeds": [1, 2]}))
print("multiprocessing" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(gg1lab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
