import json
import os
import subprocess
import sys
import time

import pytest

import gg1lab
from gg1lab.cli import main, parse_distribution

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def test_parse_distribution():
    spec = parse_distribution("uniform:0,2")
    assert spec.kind == "uniform"
    assert spec.params == (0.0, 2.0)
    with pytest.raises(ValueError):
        parse_distribution("exponential")
    with pytest.raises(ValueError):
        parse_distribution("weird:1.0")


def test_simulate_verb(tmp_path, capsys):
    rc = main([
        "simulate", "--arrival", "exponential:0.5", "--service", "exponential:1.0",
        "--horizon", "500", "--seed", "3", "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "customers=" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["N_total"] > 100
    assert (tmp_path / "customer.csv").read_text().startswith("id,t_A,svc_start,t_mu,t_D,pre_window")
    assert (tmp_path / "path.csv").read_text().startswith("tau,n")


def test_sweep_verb(tmp_path, capsys):
    cfg = {
        "version": 1,
        "arrival": {"kind": "exponential", "params": [0.4]},
        "service_shape": {"kind": "exponential", "params": [1.0]},
        "rate_grid": [0.6, 0.9, 1.3],
        "seeds": [1, 2],
        "horizon": 800.0,
        "warmup": 20.0,
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg_file), "--out", str(out_dir)])
    assert rc == 0
    for name in ("surface.csv", "reports.jsonl", "config.echo.json", "equivalence.json"):
        assert (out_dir / name).exists()
    verdicts = json.loads((out_dir / "equivalence.json").read_text())
    # no penalty in this config: raw surfaces are compared pairwise
    assert "H_bar_t|H_bar_n" in verdicts
    assert "argmin mu=" in capsys.readouterr().out


def test_sweep_overrides(tmp_path):
    cfg = {
        "version": 1,
        "arrival": {"kind": "exponential", "params": [0.4]},
        "service_shape": {"kind": "exponential", "params": [1.0]},
        "rate_grid": [0.8, 1.2],
        "seeds": [1, 2, 3, 4],
        "horizon": 5000.0,
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg_file), "--out", str(out_dir),
               "--seeds", "7,8", "--horizon", "300"])
    assert rc == 0
    echoed = json.loads((out_dir / "config.echo.json").read_text())
    assert echoed["seeds"] == [7, 8]
    assert echoed["horizon"] == 300.0


SWEEP_CFG = {
    "arrival": {"kind": "exponential", "params": [0.4]},
    "service_shape": {"kind": "exponential", "params": [1.0]},
    "rate_grid": [0.6, 0.9, 1.3],
    "seeds": [1, 2],
    "horizon": 800.0,
}


@pytest.mark.parametrize("penalty", [
    {"penalty_k0": float("nan")},
    {"penalty_k0": 0.1, "penalty_k1": -1e4},
])
def test_sweep_rejects_a_bad_penalty_before_any_output(tmp_path, capsys, penalty):
    # NaN printed a NaN minimiser and exited 0; the overflow gave a traceback
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({**SWEEP_CFG, **penalty}))
    out_dir = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg_file), "--out", str(out_dir)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "penalty" in err["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("change", [
    {"discipline": 3},
    {"cost_weight": "1"},
    {"penalty_k0": "0.1"},
    {"seeds": [1.5, 2.7]},
    {"rate_grid": [0.6, float("nan")]},
    {"penalty_kO": 5.0},
    {"rate_grid": 0.5},
    {"seeds": 3},
    {"arrival": {"kind": "exponential", "params": 0.4}},
    {"arrival": {"kind": "exponential", "params": [None]}},
    {"arrival": {"kind": "exponential", "params": ["0.4"]}},
    {"seeds": [True]},
    {"horizon": "5"},
    # a config that is not an object replaces the whole file
    5, None, [1, 2],
])
def test_sweep_rejects_a_bad_config_value_before_any_output(tmp_path, capsys, change):
    # a traceback, a silent substitute (seeds 1 and 2), or a misspelt key ignored
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({**SWEEP_CFG, **change} if isinstance(change, dict) else change))
    out_dir = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg_file), "--out", str(out_dir)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert not out_dir.exists()


BAD_MDP_VALUES = {
    "arrival_rate": ["0.1", True],
    "cost_weight": ["0.1"],
    "penalty": [["0.1", "-8.0"]],
    "action_grid": [["0.15", "0.4"]],
    "tol": ["1e-9", True],
    "method": [["a"]],
    # a config that is not an object replaces the whole file
    "config": [5, None, [1, 2]],
}


@pytest.mark.parametrize("key", list(BAD_MDP_VALUES))
def test_mdp_solve_rejects_a_value_that_is_not_a_number(tmp_path, capsys, key):
    # a str tol, a list method or a config that is not an object ended
    # in a TypeError traceback; True was taken as 1
    with open(os.path.join(CONFIGS, "mdp_demo.json")) as fh:
        cfg = json.load(fh)
    cfg_file = tmp_path / "mdp.json"
    out_dir = tmp_path / "out"
    for bad in BAD_MDP_VALUES[key]:
        cfg_file.write_text(json.dumps(bad if key == "config" else {**cfg, key: bad}))
        rc = main(["mdp", "solve", "--config", str(cfg_file), "--out", str(out_dir)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and key in err["message"]
        assert not out_dir.exists()


@pytest.mark.parametrize("rate", ["nan", "inf", "0", "-1"])
def test_inspect_rejects_a_bad_epoch_rate_before_simulating(tmp_path, capsys, monkeypatch, rate):
    # it was checked after the whole simulation, and nan and inf by NumPy
    def no_run(*args, **kwargs):
        raise AssertionError("simulate ran")

    monkeypatch.setattr("gg1lab.cli.simulate", no_run)
    rc = main(["inspect", "--arrival", "exponential:0.5", "--service", "exponential:1",
               "--horizon", "1e7", f"--epoch-rate={rate}", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": f"rate must be a finite real number > 0, got {float(rate)}"}
    assert not (tmp_path / "out").exists()


def test_inspect_rejects_an_epoch_count_above_the_event_cap(tmp_path, capsys):
    # 1e10 expected epochs asked for 74.5 GiB and ended in a MemoryError
    start = time.perf_counter()
    rc = main(["inspect", "--arrival", "exponential:0.5", "--service", "exponential:1",
               "--horizon", "10", "--epoch-rate", "1e9", "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "event cap" in err["message"]
    assert not (tmp_path / "out").exists()


def test_inspect_verb(tmp_path, capsys):
    rc = main([
        "inspect", "--arrival", "exponential:0.5", "--service", "deterministic:1.0",
        "--horizon", "2000", "--epoch-rate", "0.2", "--seed", "5",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["expected_age"] == pytest.approx(0.5)
    assert summary["bias"] == pytest.approx(0.0)
    assert 0.0 < summary["busy_fraction"] < 1.0
    assert (tmp_path / "inspections.csv").exists()
    assert (tmp_path / "pdf_curves.csv").exists()


def test_mdp_solve_verb(tmp_path, capsys):
    cfg = {
        "arrival_rate": 0.1,
        "action_grid": [0.15, 0.2, 0.25, 0.3, 0.35, 0.4],
        "n_states": 60,
        "cost_weight": 1.0,
        "penalty": [0.1, -8.0],
    }
    cfg_file = tmp_path / "mdp.json"
    cfg_file.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    rc = main(["mdp", "solve", "--config", str(cfg_file), "--out", str(out_dir)])
    assert rc == 0
    payload = json.loads((out_dir / "solution.json").read_text())
    assert payload["instance"]["n_states"] == 60
    assert len(payload["solution"]["policy"]) == 61
    assert payload["H_bar_t"] > 0
    assert payload["implied_R_bar_n"] > 0
    assert "rho_bar=" in capsys.readouterr().out


def test_mdp_solve_prints_demo_policy_spans(tmp_path, capsys):
    rc = main(["mdp", "solve", "--config", os.path.join(CONFIGS, "mdp_demo.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert f"implied_R_bar_n={payload['implied_R_bar_n']!r}" in out
    assert "policy: x=0: mu=0.15, x=1: mu=0.3, x=2..3: mu=0.35, x=4..100: mu=0.4\n" in out


def test_sweep_prints_stderrs_and_shared_minimiser(tmp_path, capsys):
    rc = main(["sweep", "--config", os.path.join(CONFIGS, "sweep_demo.json"),
               "--horizon", "2000", "--seeds", "101,102", "--out", str(tmp_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    argmin_lines = [line for line in lines if "argmin mu=" in line]
    assert len(argmin_lines) == 4
    assert all(" stderr=" in line for line in argmin_lines)
    verdicts = json.loads((tmp_path / "equivalence.json").read_text())
    assert all(v["equivalent"] for v in verdicts.values())
    assert "all surfaces share the minimiser" in lines


STATS_FREE_RUN = """
import sys
import numpy as np
import gg1lab.acceptance
from gg1lab import distributions, inspection, mdp, metrics, renewal, simulator

arrival, service = distributions.exponential(0.8), distributions.lognormal(-0.3, 0.6)
path, ledger = simulator.simulate(arrival, service, horizon=200.0, seed=1)
metrics.compute_report(path, ledger)
renewal.cycle_rewards(renewal.detect_cycles(path), path, ledger)
epochs = inspection.poisson_epochs((path.initial_time, path.final_time), 0.1, 2)
inspection.sample_inspections(ledger, path, epochs)
inspection.pdf_curve_csv(service, np.linspace(0.0, 3.0, 8), sys.argv[1])
for spec in (distributions.exponential(1.0), distributions.deterministic(2.0),
             distributions.uniform(0.5, 1.5), distributions.gamma(0.7, 3.0), service):
    spec.quantile(0.5)
    spec.truncated_mean(np.linspace(0.0, 3.0, 8))
mdp.solve_optimal(mdp.build_instance(0.5, [0.75, 1.0, 1.25], 50), "policy-iteration")
gg1lab.acceptance.AcceptanceSuite(scale=0.02, self_check=False).criterion(7)
print(sorted({"scipy.stats", "scipy.integrate"} & set(sys.modules)))
"""


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats takes most of a second to import and nothing needs it:
    # the CLI loads no scipy at all, and the library's distribution
    # functions, KS distances and t quantile run on scipy.special;
    # criterion 7's integrals run on a port of quad, not scipy.integrate
    src = os.path.dirname(os.path.dirname(gg1lab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, gg1lab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
    out = subprocess.run([sys.executable, "-c", STATS_FREE_RUN, str(tmp_path / "pdf.csv")],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_numpy_only_densities_and_survival_functions_load_no_scipy():
    # only the gamma density, the gamma and lognormal survival functions
    # and the exponential, gamma and lognormal quantiles are written on
    # scipy.special; any quantile at 0 or 1 is an end of the support
    code = """import sys
from gg1lab.distributions import exponential, lognormal, uniform
for spec in (exponential(1.5), uniform(0.5, 2.0), lognormal(0.2, 0.7)):
    spec.pdf([0.0, 0.3, 1.0, 4.0])
    spec.quantile(0.0)
for spec in (exponential(1.5), uniform(0.5, 2.0)):
    spec.sf([0.0, 0.3, 1.0, 4.0])
uniform(0.5, 2.0).quantile(0.3)
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    src = os.path.dirname(os.path.dirname(gg1lab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_mdp_solve_loads_no_scipy(tmp_path):
    # importing scipy.linalg alone took about 0.25 s, most of a solve
    code = ("import sys; from gg1lab.cli import main; "
            f"rc = main(['mdp', 'solve', '--config', {os.path.join(CONFIGS, 'mdp_demo.json')!r}, "
            f"'--out', {str(tmp_path)!r}]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(gg1lab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "solution.json").exists()


def test_mdp_solve_reports_a_state_count_too_large_to_hold(tmp_path, capsys):
    # a trillion states asks NumPy for terabytes at once, which fails
    # before any page is touched; it ended in a MemoryError traceback
    with open(os.path.join(CONFIGS, "mdp_demo.json")) as fh:
        cfg = json.load(fh)
    cfg_file = tmp_path / "mdp.json"
    cfg_file.write_text(json.dumps({**cfg, "n_states": 10**12}))
    out_dir = tmp_path / "out"
    assert main(["mdp", "solve", "--config", str(cfg_file), "--out", str(out_dir)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "MemoryError"
    assert not out_dir.exists()


def test_errors_exit_2_with_json(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path / "missing.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"

    rc = main(["simulate", "--arrival", "exponential:-1", "--service",
               "exponential:1", "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "rate" in err["message"]

    # usage errors printed argparse's text, not JSON
    for argv in (["simulate", "--arrival", "exponential:1", "--service", "exponential:2",
                  "--horizon", "abc"], [], ["mdp"], ["sweep", "--seeds"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("weight,message", [
    ("nan", "cost_weight must be a finite real number >= 0, got nan"),
    # a finite weight that scales the totals past the float range; it
    # wrote nine Infinity tokens into report.json
    ("1e308", "cost_weight 1e+308 takes a total or a time average past the float range"),
    # weights that take the totals below the normal range, where they
    # keep few of their digits: littles_chain read 3.0 for 2.8078
    ("5e-324", "cost_weight 5e-324 takes a total or a time average below the normal float range"),
    ("1e-310", "cost_weight 1e-310 takes a total or a time average below the normal float range"),
])
def test_simulate_rejects_a_cost_weight_with_one_json_line(tmp_path, capsys, weight, message):
    rc = main(["simulate", "--arrival", "exponential:0.5", "--service", "exponential:1",
               "--horizon", "100", "--cost-weight", weight, "--out", str(tmp_path / "out")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("weight", ["nan", "inf", "-1"])
def test_simulate_rejects_a_bad_cost_weight_before_any_draw(tmp_path, capsys, monkeypatch,
                                                            weight):
    # it was checked only by compute_report, after the whole replication
    def no_draws(*args, **kwargs):
        raise AssertionError("simulate ran")

    monkeypatch.setattr("gg1lab.cli.simulate", no_draws)
    start = time.perf_counter()
    rc = main(["simulate", "--arrival", "exponential:0.5", "--service", "exponential:1",
               "--cost-weight", weight, "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith("cost_weight must be a finite real number >= 0")
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_nan_horizon_fast(tmp_path, capsys):
    start = time.perf_counter()
    rc = main(["simulate", "--arrival", "exponential:0.5", "--service", "exponential:1",
               "--horizon", "nan", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "horizon" in err["message"]
    assert not any(tmp_path.iterdir())
