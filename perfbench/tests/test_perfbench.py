"""Tests of the benchmark itself, at quick sizes.

    python -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from gg1lab import acceptance, mdp, simulator  # noqa: E402
from perfbench import bench, layers, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def quick_run(name, trace=False):
    return bench.run(name, seed=3, seconds=0, trace=trace, root=ROOT,
                     started=time.perf_counter(), quick=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_run_emits_every_metric_with_its_unit(name):
    for trace, spec in ((False, bench.END_TO_END), (True, layers.PER_LAYER)):
        result, record = quick_run(name, trace)
        assert list(result) == ["correct", "attempted", "failed", "metrics"]
        assert result["correct"], record["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {s[0]: s[1] for s in spec}
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_passes_give_identical_digests(name):
    _, plain_record = quick_run(name)
    _, record = quick_run(name, trace=True)
    assert len(record["digests"]) == 1
    assert record["digests"] == plain_record["digests"]
    assert record["passes"] == record["traced_passes"] == 1


def test_self_times_account_for_each_traced_pass(tmp_path):
    workload = workloads.ReplicationExport(3, str(tmp_path), quick=True)
    workload.setup()
    tracer = Tracer(layers.targets())
    try:
        tracer.install()
        measured = bench.measure(workload, 0, tracer)
    finally:
        tracer.uninstall()
    for p in measured.profiles:
        values = layers.layer_metrics(p)
        parts = sum(values[n] for n in layers.self_time_names())
        assert parts == pytest.approx(values["trace.wall_s"], rel=1e-9)
        assert values["export.bytes"] > 0 and values["simulator.customers"] > 0


def test_tracer_restores_the_library():
    original_simulate = simulator.simulate
    original_criterion = acceptance.AcceptanceSuite.__dict__["criterion"]
    quick_run("mdp-solve", trace=True)
    assert simulator.simulate is original_simulate
    assert acceptance.simulate is original_simulate
    assert acceptance.AcceptanceSuite.__dict__["criterion"] is original_criterion


def test_corrupted_export_counts_in_error_rate(monkeypatch):
    honest = simulator.CustomerLedger.to_csv

    def drop_last_row(self, path):
        honest(self, path)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:-1])

    monkeypatch.setattr(simulator.CustomerLedger, "to_csv", drop_last_row)
    result, record = quick_run("replication-export", trace=True)
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == 2 + 2  # one pass untraced, one traced
    assert result["metrics"]["error_rate"]["value"] == 1.0
    assert any("customer.csv has" in p for p in record["problems"])


def test_failing_criterion_counts_and_the_pass_goes_on(monkeypatch):
    def broken(self):
        raise RuntimeError("injected")

    monkeypatch.setattr(acceptance.AcceptanceSuite, "_crit_4", broken)
    result, record = quick_run("verify")
    assert result["attempted"] == 11 * bench.MIN_PASSES  # criterion 12 is skipped
    assert result["failed"] == bench.MIN_PASSES
    assert not result["correct"]
    assert {p[:17] for p in record["problems"]} == {"criterion 04 FAIL"}


def test_wrong_solution_counts_in_error_rate(monkeypatch):
    monkeypatch.setattr(mdp, "implied_response", lambda solution, instance: math.nan)
    result, _ = quick_run("mdp-solve")
    assert result["attempted"] == 7 * bench.MIN_PASSES
    assert result["failed"] == 6 * bench.MIN_PASSES


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
