import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gg1lab import metrics
from gg1lab.artifacts import write_json
from gg1lab.distributions import deterministic, exponential, gamma, uniform
from gg1lab.metrics import MetricsReport, compute_report, littles_chain, verify_theorem
from gg1lab.simulator import DISCIPLINES, simulate

import reference_metrics

# Hand-traced case (see test_simulator): D/D/1 with inter-arrivals 1,
# services 2, window [0, 5].  Count path integrates to 8; window-clipped
# sojourns are 2+3+2+1+0 = 8; full sojourns are 2+3+4+5+6 = 20 with the
# post-window parts 2+4+6 = 12.


@pytest.fixture(scope="module")
def dd1():
    return simulate(deterministic(1.0), deterministic(2.0), horizon=5.0, seed=7)


def test_hand_traced_totals(dd1):
    path, ledger = dd1
    assert compute_report(path, ledger).H_total == 8.0
    assert compute_report(path, ledger, 2.5).H_total == 20.0
    assert compute_report(path.restrict(3.0), ledger.restrict(3.0)).H_total == 3.0
    rep = compute_report(path, ledger)
    assert rep.R_obs_total == 8.0
    assert (rep.R_act_total, rep.R_un_initial, rep.R_un_final) == (20.0, 0.0, 12.0)


def test_hand_traced_report(dd1):
    path, ledger = dd1
    rep = compute_report(path, ledger)
    assert rep.H_total == 8.0
    assert rep.R_obs_total == 8.0
    assert rep.R_act_total == 20.0
    assert rep.R_un_initial == 0.0
    assert rep.R_un_final == 12.0
    assert rep.N_total == 5
    assert rep.lambda_hat == 1.0
    assert rep.H_bar_t == pytest.approx(8.0 / 5.0)
    assert rep.R_bar_n_act == pytest.approx(4.0)
    assert rep.n_bar_t == pytest.approx(8.0 / 5.0)
    assert rep.rho_hat == pytest.approx(0.8)
    assert rep.window == (0.0, 5.0)


def test_identity_holds_exactly(dd1):
    path, ledger = dd1
    rep = compute_report(path, ledger, cost_weight=3.0)
    assert rep.H_total == rep.R_obs_total
    assert rep.R_act_total == rep.R_obs_total + rep.R_un_initial + rep.R_un_final


CONFIGS = [
    (exponential(1.0), exponential(1.4), "fcfs", 0.0, 200.0, 1.0),
    (exponential(0.9), gamma(2.0, 0.5), "lcfs", 25.0, 300.0, 2.0),
    (uniform(0.2, 1.8), uniform(0.1, 1.3), "random-order", 10.0, 150.0, 0.7),
    (gamma(3.0, 0.4), deterministic(1.0), "fcfs", 5.0, 250.0, 1.3),
    (deterministic(1.2), exponential(1.1), "lcfs", 0.0, 400.0, 1.0),
]


@pytest.mark.parametrize("arrival,service,disc,warmup,horizon,c", CONFIGS)
@pytest.mark.parametrize("seed", [0, 17])
def test_identity_across_configurations(arrival, service, disc, warmup, horizon, c, seed):
    """Holding cost equals the window-clipped response, pathwise and exactly."""
    path, ledger = simulate(arrival, service, discipline=disc, warmup=warmup,
                            horizon=horizon, seed=seed)
    rep = compute_report(path, ledger, cost_weight=c)
    denom = max(abs(rep.H_total), 1.0)
    assert abs(rep.H_total - rep.R_obs_total) / denom < 1e-12
    recomposed = rep.R_obs_total + rep.R_un_initial + rep.R_un_final
    assert abs(rep.R_act_total - recomposed) / max(abs(rep.R_act_total), 1.0) < 1e-12
    assert rep.R_un_initial >= 0 and rep.R_un_final >= 0
    assert rep.R_act_total >= rep.R_obs_total


@pytest.mark.parametrize("arrival,service,disc,warmup,horizon,c", CONFIGS)
def test_report_scales_exact_totals(arrival, service, disc, warmup, horizon, c):
    """Each total of a weighted report is the weight times the unit
    report's, and each time average that total over the window length;
    rho_hat is the exact busy time over the window length."""
    path, ledger = simulate(arrival, service, discipline=disc, warmup=warmup,
                            horizon=horizon, seed=3)
    rep = compute_report(path, ledger, cost_weight=c)
    unit = compute_report(path, ledger)
    for total, rate in (("H_total", "H_bar_t"), ("R_obs_total", "R_bar_t_obs"),
                        ("R_act_total", "R_bar_t_act")):
        assert getattr(rep, total) == c * getattr(unit, total)
        assert getattr(rep, rate) == getattr(rep, total) / path.window_length
    assert (rep.R_un_initial, rep.R_un_final) == (c * unit.R_un_initial, c * unit.R_un_final)
    assert rep.n_bar_t == unit.H_total / path.window_length
    bounds, levels = path.segments()
    busy = metrics.exact_sum(np.diff(bounds)[levels > 0])
    assert rep.rho_hat == busy / path.window_length
    assert rep.N_total == int(ledger.in_window_mask().sum())


def test_report_rejects_a_ledger_from_another_window(dd1):
    path, _ = dd1
    _, longer = simulate(deterministic(1.0), deterministic(2.0), horizon=6.0, seed=7)
    with pytest.raises(ValueError, match="does not match ledger"):
        compute_report(path, longer)


@pytest.mark.parametrize("t0", [0.0, 5.0])
def test_report_rejects_a_zero_length_window(t0):
    # it divided by the length for lambda_hat, raising ZeroDivisionError
    path, ledger = simulate(exponential(1.0), exponential(2.0), warmup=t0, horizon=50.0, seed=1)
    with pytest.raises(ValueError, match="nonpositive length"):
        compute_report(path.restrict(t0), ledger.restrict(t0))


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, -1.0, -1e-300, "1", None, [1.0],
                               True, pytest.param(10**400, id="10**400")])
def test_report_rejects_a_cost_weight_not_finite_and_nonnegative(dd1, c, tmp_path):
    # nan made every total NaN, -1 a negative H_total, and "1" a TypeError
    path, ledger = dd1
    with pytest.raises(ValueError, match="cost_weight must be a finite real number >= 0"):
        compute_report(path, ledger, cost_weight=c)
    assert compute_report(path, ledger, cost_weight=0.0).H_total == 0.0
    # a float32 weight gave float32 totals, which write_json refused
    report = compute_report(path, ledger, cost_weight=np.float32(0.3))
    assert all(type(v) is float for v in (report.cost_weight, report.H_total, report.R_act_total))
    write_json(tmp_path / "report.json", report.to_dict())


@pytest.mark.parametrize("c", [1e308, 6e307])
def test_report_refuses_a_cost_weight_that_overflows(c):
    # over [1, 1.5] one customer is present throughout, R_act_total is
    # 2c and R_bar_t_act 4c: 1e308 overflows a total and 6e307 only the
    # time average; both wrote Infinity into report.json
    run = simulate(deterministic(1.0), deterministic(2.0), warmup=1.0, horizon=0.5, seed=7)
    with pytest.raises(ValueError, match=r"cost_weight .* past the float range"):
        compute_report(*run, cost_weight=c)
    rep = compute_report(*run, cost_weight=4e307)
    assert rep.R_bar_t_act == 1.6e308
    rep.to_json(allow_nan=False)


@given(seed=st.integers(0, 2**31 - 1), c=st.floats(0.1, 5.0))
@settings(max_examples=25, deadline=None)
def test_identity_property(seed, c):
    path, ledger = simulate(exponential(1.0), uniform(0.3, 1.5), warmup=7.0,
                            horizon=60.0, seed=seed)
    rep = compute_report(path, ledger, cost_weight=c)
    assert rep.H_total == pytest.approx(rep.R_obs_total, rel=1e-12, abs=1e-9)


def test_report_json_fields_and_round_trip(dd1):
    path, ledger = dd1
    rep = compute_report(path, ledger, cost_weight=2.0)
    data = json.loads(rep.to_json())
    assert set(data) == {
        "cost_weight", "H_total", "R_obs_total", "R_act_total",
        "R_un_initial", "R_un_final", "H_bar_t", "R_bar_t_obs", "R_bar_t_act",
        "H_bar_n", "R_bar_n_obs", "R_bar_n_act", "n_bar_t", "lambda_hat",
        "rho_hat", "N_total", "window",
    }
    again = MetricsReport(**{**data, "window": tuple(data["window"])})
    assert again == rep


def test_relation_gap_zero_when_no_clipping():
    # inter-arrivals of 2, services of 1: every customer departs before the
    # next arrives, and a window of 9.5 catches four complete sojourns.
    path, ledger = simulate(deterministic(2.0), deterministic(1.0), horizon=9.5, seed=0)
    rep = compute_report(path, ledger)
    assert rep.R_un_initial == 0.0 and rep.R_un_final == 0.0
    assert verify_theorem(rep, variant="obs") == 0.0
    assert verify_theorem(rep, variant="act") == 0.0


def test_relation_gap_small_on_long_window():
    path, ledger = simulate(exponential(0.5), exponential(1.0), warmup=100.0,
                            horizon=100_000.0, seed=21)
    rep = compute_report(path, ledger)
    assert verify_theorem(rep, arrival_rate=0.5, variant="act") < 0.02
    assert verify_theorem(rep, variant="act") < 0.02
    # clipped and full sojourn totals agree to relative o(1) in the window
    assert abs(rep.R_bar_t_act - rep.R_bar_t_obs) / rep.R_bar_t_act < 0.01
    assert abs(rep.R_bar_n_act - rep.R_bar_n_obs) / rep.R_bar_n_act < 0.01


def test_verify_theorem_validation(dd1):
    path, ledger = dd1
    rep = compute_report(path, ledger)
    with pytest.raises(ValueError):
        verify_theorem(rep, variant="bogus")
    with pytest.raises(ValueError):
        verify_theorem(rep, arrival_rate=-0.5)


def test_unstable_run_warns():
    path, ledger = simulate(exponential(1.5), exponential(1.0), horizon=400.0, seed=3)
    rep = compute_report(path, ledger)
    assert not rep.stable
    with pytest.warns(UserWarning):
        verify_theorem(rep)


def test_littles_chain_consistency():
    path, ledger = simulate(exponential(0.5), exponential(1.0), warmup=100.0,
                            horizon=50_000.0, seed=8)
    rep = compute_report(path, ledger, cost_weight=2.0)
    chain = littles_chain(rep)
    # all three routes estimate the same mean queue length (~1 here)
    assert chain.max_pairwise_rel_diff() < 0.05
    assert chain.n_bar_direct == pytest.approx(rep.n_bar_t)
    assert chain.n_bar_from_H == pytest.approx(rep.H_bar_t / 2.0)


def test_littles_chain_zero_traffic():
    # no arrivals fit in the window: every estimate is zero and agrees
    path, ledger = simulate(deterministic(50.0), deterministic(1.0), horizon=10.0, seed=0)
    rep = compute_report(path, ledger)
    assert rep.N_total == 0
    chain = littles_chain(rep)
    assert (chain.n_bar_direct, chain.n_bar_from_H, chain.n_bar_from_Rn) == (0.0, 0.0, 0.0)
    assert chain.max_pairwise_rel_diff() == 0.0
    assert verify_theorem(rep) == 0.0


def test_littles_chain_validation(dd1):
    # a weight of 0 raised ZeroDivisionError, and a NaN rate gave NaN
    with pytest.raises(ValueError, match="positive cost_weight"):
        littles_chain(compute_report(*dd1, cost_weight=0))
    rep = compute_report(*dd1)
    for rate in (math.nan, -0.5, "1"):
        with pytest.raises(ValueError, match="arrival_rate"):
            littles_chain(rep, arrival_rate=rate)
    assert littles_chain(rep, arrival_rate=1.0) == littles_chain(rep)


def test_drained_run_splits_response_at_window_end():
    # D/D/1 with services of 2 every 1 over [0, 5]: customers 2-4 are
    # still present at the close and drain out at 7, 9 and 11
    path, ledger = simulate(deterministic(1.0), deterministic(2.0), horizon=5.0, seed=7)
    np.testing.assert_array_equal(ledger.departure_time, [3.0, 5.0, 7.0, 9.0, 11.0])
    # the clipped total counts them up to the close only; the full
    # sojourns add the 2 + 4 + 6 after it
    rep = compute_report(path, ledger)
    assert rep.R_obs_total == 8.0
    assert (rep.R_act_total, rep.R_un_initial, rep.R_un_final) == (20.0, 0.0, 12.0)


def test_cost_weight_scales_linearly(dd1):
    path, ledger = dd1
    r1 = compute_report(path, ledger, cost_weight=1.0)
    r3 = compute_report(path, ledger, cost_weight=3.0)
    for name in ("H_total", "R_obs_total", "R_act_total", "H_bar_t", "R_bar_n_act"):
        assert getattr(r3, name) == pytest.approx(3.0 * getattr(r1, name))
    assert r3.n_bar_t == r1.n_bar_t
    assert r3.lambda_hat == r1.lambda_hat


@pytest.mark.parametrize("blocks", [False, True])
def test_exact_sum_spans_the_smallest_subnormal_and_the_largest_double(blocks):
    # the lowest and highest of exact_sum's bins in one call, with the
    # values in one 65,536-value block or each in a block of its own
    tiny, big = 5e-324, 1.7976931348623157e308
    for xs in ([tiny, big], [big, tiny, -big], [-tiny, 1e308, tiny, -1e308, tiny]):
        x = np.array(xs)
        if blocks:
            x = np.zeros(70_000 * len(xs))
            x[::70_000] = xs
        got = metrics.exact_sum(x)
        assert got.hex() == math.fsum(xs).hex(), xs


def _bits(report):
    """The report's fields, each float as its hex digits."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.to_dict().items()}


LAWS = {
    "mm1": (exponential(1.0), exponential(1.3)),
    "heavy": (exponential(0.95), gamma(2.0, 0.5)),
    "uniform": (uniform(0.2, 1.8), uniform(0.1, 1.3)),
    # a departure meets each arrival and the two coalesce into no event
    "dd1-ties": (deterministic(1.0), deterministic(1.0)),
    "dd1-idle": (deterministic(2.0), deterministic(1.0)),
}


@given(discipline=st.sampled_from(DISCIPLINES), law=st.sampled_from(sorted(LAWS)),
       warmup=st.sampled_from([0.0, 2.5, 30.0]), horizon=st.floats(1.0, 300.0),
       cut=st.floats(0.01, 1.0), block=st.sampled_from([2, 3, 5, 16, 1 << 16]),
       c=st.sampled_from([1.0, 0.0, 2.7]), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_block_walk_matches_the_whole_array_report(discipline, law, warmup, horizon, cut,
                                                   block, c, seed):
    """Every field of the block-wise report has the bits of the
    whole-array oracle's, with small blocks so that a run spans many and
    the window ends fall inside one."""
    arrival, service = LAWS[law]
    path, ledger = simulate(arrival, service, discipline=discipline, warmup=warmup,
                            horizon=horizon, seed=seed)
    t_cut = warmup + cut * horizon
    runs = [(path, ledger), (path.restrict(t_cut), ledger.restrict(t_cut))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_BLOCK", block)
        for run in runs:
            if run[0].window_length > 0:
                want = reference_metrics.compute_report(*run, c)
                assert _bits(compute_report(*run, c)) == _bits(want)
