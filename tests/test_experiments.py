import json
import time

import numpy as np
import pytest

from gg1lab.distributions import exponential, gamma
from gg1lab.experiments import (
    PENALISED_SURFACES,
    RAW_SURFACES,
    ExperimentConfig,
    ResponseSurface,
    check_equivalence,
    emit_reports,
    pairwise_equivalence,
    run_sweep,
)
from gg1lab.metrics import compute_report
from gg1lab.simulator import simulate


def small_config(**overrides):
    base = dict(
        arrival=exponential(0.4),
        service_shape=exponential(1.0),
        rate_grid=(0.6, 0.8, 1.2),
        seeds=(11, 12, 13),
        warmup=50.0,
        horizon=2_000.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(rate_grid=())
    with pytest.raises(ValueError):
        small_config(rate_grid=(0.8, 0.6))
    with pytest.raises(ValueError):
        small_config(rate_grid=(-0.5, 0.6))
    with pytest.raises(ValueError):
        small_config(seeds=(1, 1))
    with pytest.raises(ValueError):
        small_config(seeds=())
    with pytest.raises(ValueError):
        small_config(horizon=0.0)
    with pytest.raises(ValueError):
        small_config(version=99)


@pytest.mark.parametrize("window", [
    {"horizon": float("nan")},
    {"warmup": float("nan")},
    {"horizon": float("inf")},
    {"warmup": float("inf")},
])
def test_config_rejects_window_that_is_not_finite(window):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="warmup|horizon"):
        small_config(**window)
    assert time.perf_counter() - start < 1.0


# a case whose message was reworded keeps the id it had, which quotes
# the old wording
@pytest.mark.parametrize("overrides,match", [
    ({"discipline": "lifo"}, "unknown discipline"),
    pytest.param({"cost_weight": float("nan")}, "cost_weight must be a finite real number >= 0",
                 id="overrides1-cost weight must be finite and nonnegative"),
    pytest.param({"cost_weight": -1.0}, "cost_weight must be a finite real number >= 0",
                 id="overrides2-cost weight must be finite and nonnegative"),
    pytest.param({"penalty_k0": float("nan")}, "penalty_k0 must be a finite real number",
                 id="overrides3-penalty coefficients must be finite"),
    pytest.param({"penalty_k1": float("-inf")}, "penalty_k1 must be a finite real number",
                 id="overrides4-penalty coefficients must be finite"),
    # exp(-k1 * mu) overflows at mu = 0.8 and 1.2 but not at 0.6
    ({"penalty_k0": 0.1, "penalty_k1": -1000.0}, "not a finite double at mu=0.8"),
    ({"penalty_k0": 1e308, "penalty_k1": -5.0}, "not a finite double at mu=0.6"),
    ({"discipline": 3}, "discipline must be a string"),
    pytest.param({"cost_weight": "1"}, "cost_weight must be a finite real number",
                 id="overrides8-cost weight must be finite and nonnegative"),
    pytest.param({"penalty_k0": "0.1"}, "penalty_k0 must be a finite real number",
                 id="overrides9-penalty_k0 must be a real number"),
    pytest.param({"horizon": None}, "horizon must be a finite real number",
                 id="overrides10-horizon must be a real number"),
    pytest.param({"seeds": (1.5, 2.7)}, r"seeds\[0\] must be an integer",
                 id="overrides11-seeds must be integers"),
    pytest.param({"seeds": ("1", 2)}, r"seeds\[0\] must be an integer",
                 id="overrides12-seeds must be integers"),
    pytest.param({"rate_grid": (0.15, float("nan"))},
                 r"rate_grid\[1\] must be a finite real number > 0",
                 id="overrides13-rates must be finite and positive"),
    pytest.param({"rate_grid": (0.15, "0.2")}, r"rate_grid\[1\] must be a finite real number > 0",
                 id="overrides14-rates must be finite and positive"),
    ({"rate_grid": 0.5}, "rate_grid must be a list"),
    ({"seeds": 3}, "seeds must be a list"),
    ({"horizon": True}, "horizon must be a finite real number"),
    ({"seeds": [True]}, r"seeds\[0\] must be an integer"),
])
def test_config_rejects_what_a_sweep_cannot_use(overrides, match):
    # these were caught by the first simulate or compute_report, or not
    # at all: a NaN penalty gave NaN surfaces, an overflow a traceback,
    # seeds 1.5 and 2.7 ran as 1 and 2, and a NaN rate blamed the penalty
    with pytest.raises(ValueError, match=match):
        small_config(**overrides)


def test_config_keeps_integral_seeds_and_rejects_unknown_keys():
    assert small_config(seeds=(1.0, np.int64(2), 3)).seeds == (1, 2, 3)
    data = small_config().to_dict()
    with pytest.raises(ValueError, match=r"unknown config keys \['penalty_kO'\]"):
        ExperimentConfig.from_dict({**data, "penalty_kO": 5.0})
    assert ExperimentConfig.from_dict(data) == small_config()


def test_service_rescaling_preserves_family():
    cfg = small_config(service_shape=gamma(2.0, 0.5))
    svc = cfg.service_at(0.25)
    assert svc.kind == "gamma"
    assert svc.mean() == pytest.approx(4.0)
    shape = gamma(2.0, 0.5)
    assert svc.variance() / svc.mean() ** 2 == pytest.approx(shape.variance() / shape.mean() ** 2)
    assert cfg.penalty_rate(0.3) == 0.0
    pen = small_config(penalty_k0=0.1, penalty_k1=-8.0)
    assert pen.penalty_rate(0.25) == pytest.approx(0.1 * np.exp(2.0))


def test_config_round_trip(tmp_path):
    cfg = small_config(penalty_k0=0.2, penalty_k1=-3.0, discipline="lcfs")
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg.to_dict()))
    again = ExperimentConfig.from_json_file(f)
    assert again == cfg


def test_demo_config_loads():
    cfg = ExperimentConfig.from_json_file("configs/sweep_demo.json")
    assert cfg.version == 1
    assert len(cfg.rate_grid) == 6
    assert len(cfg.seeds) == 10
    assert cfg.penalty_k0 > 0


def test_single_point_single_seed_sweep_equals_its_report():
    cfg = small_config(rate_grid=(0.8,), seeds=(5,), warmup=10.0, horizon=500.0)
    surface = run_sweep(cfg)
    path, ledger = simulate(cfg.arrival, cfg.service_at(0.8), discipline="fcfs",
                            warmup=10.0, horizon=500.0, seed=5)
    rep = compute_report(path, ledger, cost_weight=1.0)
    assert surface.surfaces["H_bar_t"][0] == rep.H_bar_t
    assert surface.surfaces["R_bar_n_act"][0] == rep.R_bar_n_act
    assert surface.stderrs["H_bar_t"][0] == 0.0
    # the penalised surface adds the per-customer wear term; with k0=0 they match
    assert surface.surfaces["R_bar_n_act_with_penalty"][0] == rep.R_bar_n_act


def test_sweep_shapes_and_surfaces_present():
    cfg = small_config()
    surface = run_sweep(cfg)
    assert set(surface.surfaces) == set(RAW_SURFACES) | set(PENALISED_SURFACES)
    for name in surface.surfaces:
        assert surface.surfaces[name].shape == (3,)
        assert surface.per_seed[name].shape == (3, 3)
        assert (surface.stderrs[name] >= 0).all()
    assert surface.seeds == (11, 12, 13)
    assert surface.unstable_points == []
    assert len(surface.reports) == 9


def test_unstable_grid_point_is_annotated():
    cfg = small_config(arrival=exponential(1.0), rate_grid=(0.5, 2.0),
                       warmup=0.0, horizon=2_000.0, seeds=(1, 2))
    surface = run_sweep(cfg)
    flagged = {p["rate"] for p in surface.unstable_points}
    assert 0.5 in flagged
    assert 2.0 not in flagged
    for point in surface.unstable_points:
        assert point["rho_hat"] >= 0.995


def synthetic_surface(shift_b):
    grid = np.array([0.2, 0.4, 0.6, 0.8])
    base = np.array([
        [5.0, 5.1, 4.9],
        [3.0, 3.2, 2.9],
        [2.0, 2.1, 1.9],
        [4.0, 4.2, 3.9],
    ])
    a = base
    b = 3.0 * np.roll(base, shift_b, axis=0) + 7.0
    per_seed = {"a": a, "b": b}
    return ResponseSurface(
        grid=grid,
        surfaces={k: v.mean(axis=1) for k, v in per_seed.items()},
        stderrs={k: v.std(axis=1, ddof=1) / np.sqrt(3) for k, v in per_seed.items()},
        per_seed=per_seed,
        seeds=(1, 2, 3),
    )


def test_equivalence_affine_surfaces_agree():
    verdict = check_equivalence(synthetic_surface(0), "a", "b")
    assert verdict.equivalent
    assert verdict.argmin_a == verdict.argmin_b == 2
    assert verdict.step_distance == 0
    assert verdict.bootstrap_agreement == 1.0


def test_equivalence_shifted_minimiser_fails():
    verdict = check_equivalence(synthetic_surface(2), "a", "b")
    assert not verdict.equivalent
    assert verdict.step_distance == 2
    assert verdict.to_dict()["equivalent"] is False
    with pytest.raises(KeyError):
        check_equivalence(synthetic_surface(0), "a", "nope")


def test_pairwise_equivalence_checks_each_pair_once():
    surface = synthetic_surface(0)
    shifted = synthetic_surface(2)
    for table in ("surfaces", "stderrs", "per_seed"):
        getattr(surface, table)["c"] = getattr(shifted, table)["b"]
    verdicts = pairwise_equivalence(surface, ("a", "b", "c"))
    assert list(verdicts) == ["a|b", "a|c", "b|c"]
    for pair, verdict in verdicts.items():
        assert verdict == check_equivalence(surface, *pair.split("|"))
    assert verdicts["a|b"].equivalent
    assert not verdicts["a|c"].equivalent
    assert not verdicts["b|c"].equivalent


def test_emitted_files(tmp_path):
    cfg = small_config(seeds=(11, 12), horizon=400.0)
    surface = run_sweep(cfg)
    paths = emit_reports(surface, cfg, tmp_path)
    names = {p.rsplit("/", 1)[-1] for p in paths}
    assert names == {"surface.csv", "reports.jsonl", "config.echo.json"}

    lines = (tmp_path / "surface.csv").read_text().splitlines()
    assert lines[0] == "mu,metric,mean,stderr"
    # 3 grid points x 8 metrics
    assert len(lines) == 1 + 3 * 8

    reports = (tmp_path / "reports.jsonl").read_text().splitlines()
    assert len(reports) == 3 * 2
    row = json.loads(reports[0])
    assert {"mu", "seed", "H_bar_t"} <= set(row)

    echoed = json.loads((tmp_path / "config.echo.json").read_text())
    assert ExperimentConfig.from_dict(echoed) == cfg


def test_emit_is_byte_deterministic(tmp_path):
    cfg = small_config(seeds=(3, 4), rate_grid=(0.7, 1.1), horizon=300.0)
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    d1.mkdir()
    d2.mkdir()
    emit_reports(run_sweep(cfg), cfg, d1)
    emit_reports(run_sweep(cfg), cfg, d2)
    for name in ("surface.csv", "reports.jsonl", "config.echo.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
