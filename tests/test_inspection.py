import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from gg1lab.distributions import deterministic, exponential, gamma, lognormal, uniform
from gg1lab.inspection import (
    age_cdf,
    analytic_pdfs,
    bias,
    empirical_bias,
    expected_age,
    expected_total,
    pdf_curve_csv,
    poisson_epochs,
    sample_inspections,
)
from gg1lab.inspection import total_cdf
from gg1lab.simulator import simulate

EXP = exponential(1.0)
DET = deterministic(2.0)
UNI = uniform(0.0, 2.0)


def test_closed_form_expectations():
    # all three have mean 1, yet inspected services differ sharply
    assert expected_age(EXP) == pytest.approx(1.0)
    assert expected_total(EXP) == pytest.approx(2.0)
    assert bias(EXP) == pytest.approx(1.0)

    assert expected_age(DET) == pytest.approx(1.0)
    assert expected_total(DET) == pytest.approx(2.0)
    assert bias(DET) == pytest.approx(0.0)

    assert expected_age(UNI) == pytest.approx(2.0 / 3.0)
    assert expected_total(UNI) == pytest.approx(4.0 / 3.0)
    assert bias(UNI) == pytest.approx(1.0 / 3.0)


def test_analytic_pdf_values():
    t = np.array([0.0, 0.5, 1.0, 3.0])
    curves = analytic_pdfs(EXP, t)
    # memorylessness: age and residual densities are the distribution itself
    np.testing.assert_allclose(curves["f_age"], np.exp(-t))
    np.testing.assert_allclose(curves["f_residual"], np.exp(-t))
    # size bias vanishes at zero
    assert curves["f_observed_total"][0] == 0.0

    det_curves = analytic_pdfs(DET, np.array([0.5, 1.9, 2.1]))
    np.testing.assert_allclose(det_curves["f_age"], [0.5, 0.5, 0.0])
    assert "f_observed_total" not in det_curves

    with pytest.raises(ValueError):
        analytic_pdfs(EXP, np.array([-0.1, 1.0]))


@pytest.mark.parametrize("spec", [EXP, DET, UNI], ids=["exp", "det", "uni"])
def test_densities_normalise_and_match_cdfs(spec):
    upper = spec.quantile(1.0 - 1e-12) if spec.has_density else spec.params[0]
    mass = integrate.quad(lambda u: analytic_pdfs(spec, u)["f_age"], 0, upper,
                          limit=400)[0]
    assert mass == pytest.approx(1.0, abs=1e-9)
    # the age cdf is the integral of the age density
    for t in (0.3 * upper, 0.8 * upper):
        part = integrate.quad(lambda u: analytic_pdfs(spec, u)["f_age"], 0, t,
                              limit=400)[0]
        assert float(age_cdf(spec, t)) == pytest.approx(part, abs=1e-9)
    assert float(age_cdf(spec, upper)) == pytest.approx(1.0, abs=1e-9)
    assert float(total_cdf(spec, upper)) == pytest.approx(1.0, abs=1e-9)


def test_total_cdf_against_size_biased_density():
    for spec in (EXP, UNI):
        upper = spec.quantile(1.0 - 1e-12)
        for t in (0.4, 1.1):
            part = integrate.quad(
                lambda u: analytic_pdfs(spec, u)["f_observed_total"], 0, t, limit=400
            )[0]
            assert float(total_cdf(spec, t)) == pytest.approx(part, abs=1e-9)
        assert float(total_cdf(spec, 0.0)) == 0.0
        assert float(total_cdf(spec, upper)) == pytest.approx(1.0, abs=1e-9)
    # inf * sf(inf) made both NaN at +inf for every kind
    for spec in (EXP, DET, UNI, gamma(2.0, 0.5), lognormal(0.0, 0.5)):
        assert total_cdf(spec, math.inf) == 1.0 and age_cdf(spec, math.inf) == 1.0


def test_hand_placed_epochs():
    # D/D/1: arrivals every 2, services of 1; busy exactly on [2k, 2k+1)
    path, ledger = simulate(deterministic(2.0), deterministic(1.0), horizon=9.5, seed=0)
    samples = sample_inspections(ledger, path, [1.5, 2.25, 2.999, 3.0])
    assert samples.busy.tolist() == [False, True, True, False]
    assert np.isnan(samples.age[0]) and np.isnan(samples.residual[0])
    assert samples.age[1] == pytest.approx(0.25)
    assert samples.residual[1] == pytest.approx(0.75)
    assert samples.total[1] == pytest.approx(1.0)
    assert samples.busy_fraction == 0.5


def test_epoch_validation_and_pending():
    path, ledger = simulate(deterministic(2.0), deterministic(1.0), horizon=9.5, seed=0)
    with pytest.raises(ValueError):
        sample_inspections(ledger, path, [10.0])
    # the service of 3 starting at t=4 is still pending at the cut, t=5;
    # the drain resolves its departure at 7
    path_u, ledger_u = simulate(deterministic(1.0), deterministic(3.0), horizon=5.0, seed=0)
    samples = sample_inspections(ledger_u, path_u, [4.5])
    assert (samples.age[0], samples.residual[0], samples.total[0]) == (0.5, 2.5, 3.0)


@pytest.mark.parametrize("window,rate", [((0.0, 10.0), 1e9), ((0.0, 1e300), 1e300)])
def test_poisson_epochs_refuse_more_than_the_event_cap(window, rate):
    # 1e10 expected epochs asked for 74.5 GiB; an overflowing count too
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the default event cap"):
        poisson_epochs(window, rate, 1)
    assert time.perf_counter() - start < 1.0


def test_poisson_epochs_properties():
    rng = np.random.default_rng(5)
    epochs = poisson_epochs((10.0, 1010.0), 0.5, rng)
    assert (np.diff(epochs) >= 0).all()
    assert epochs.min() >= 10.0 and epochs.max() <= 1010.0
    # count is Poisson(500); 5 sigma is ~112
    assert abs(len(epochs) - 500) < 120
    # seed int accepted too, and reproducible
    a = poisson_epochs((0.0, 100.0), 1.0, 7)
    b = poisson_epochs((0.0, 100.0), 1.0, 7)
    np.testing.assert_array_equal(a, b)


# each case keeps the id it had, which quotes the old wording
@pytest.mark.parametrize("window,rate,match", [
    pytest.param((0.0, 10.0), math.nan, "rate must be a finite real number > 0",
                 id="window0-nan-epoch rate must be finite and > 0"),
    pytest.param((0.0, 10.0), math.inf, "rate must be a finite real number > 0",
                 id="window1-inf-epoch rate must be finite and > 0"),
    pytest.param((0.0, 10.0), 0.0, "rate must be a finite real number > 0",
                 id="window2-0.0-epoch rate must be finite and > 0"),
    pytest.param((0.0, 10.0), -1.0, "rate must be a finite real number > 0",
                 id="window3--1.0-epoch rate must be finite and > 0"),
    pytest.param((0.0, math.inf), 1.0, "window end must be a finite real number",
                 id="window4-1.0-finite ends"),
    pytest.param((-math.inf, 0.0), 1.0, "window start must be a finite real number",
                 id="window5-1.0-finite ends"),
    pytest.param((math.nan, 1.0), 1.0, "window start must be a finite real number",
                 id="window6-1.0-finite ends"),
    ((0.0, 10.0), True, "rate must be a finite real number > 0"),
])
def test_poisson_epochs_rejects_a_rate_or_window_it_cannot_draw(window, rate, match):
    # nan and inf reached NumPy's Poisson draw, which raised its own errors
    with pytest.raises(ValueError, match=match):
        poisson_epochs(window, rate, 1)


@pytest.mark.parametrize("spec,expect_age", [(EXP, 1.0), (DET, 1.0), (UNI, 2.0 / 3.0)],
                         ids=["exp", "det", "uni"])
def test_sampled_moments_match_theory(spec, expect_age):
    arrival = exponential(0.5 / spec.mean())
    path, ledger = simulate(arrival, spec, horizon=40_000.0 * spec.mean(), seed=9)
    epochs = poisson_epochs((path.initial_time, path.final_time),
                            0.5 / spec.mean(), 99)
    samples = sample_inspections(ledger, path, epochs)
    assert samples.ages.size > 5_000
    assert float(samples.ages.mean()) == pytest.approx(expect_age, rel=0.05)
    # the mean residual equals the mean age, by symmetry of the
    # stationary in-progress interval
    assert float(samples.residuals.mean()) == pytest.approx(expected_age(spec), rel=0.05)
    assert float(samples.totals.mean()) == pytest.approx(expected_total(spec), rel=0.05)
    # age and residual are exchangeable: two-sample KS cannot tell them apart
    ks = stats.ks_2samp(samples.ages, samples.residuals)
    assert ks.statistic < 0.03
    assert abs(empirical_bias(samples, spec) - bias(spec)) < 0.07 * spec.mean()


def test_ages_follow_the_age_distribution():
    # deterministic services: the inspected age is uniform on (0, d)
    path, ledger = simulate(exponential(0.25), DET, horizon=60_000.0, seed=31)
    epochs = poisson_epochs((0.0, path.final_time), 0.25, 123)
    samples = sample_inspections(ledger, path, epochs)
    ks = stats.ks_1samp(samples.ages, lambda t: age_cdf(DET, t))
    assert ks.statistic < 0.03
    # every inspected total equals the fixed duration
    np.testing.assert_allclose(samples.totals, 2.0)
    assert abs(empirical_bias(samples, DET)) < 0.01


def test_csv_outputs(tmp_path):
    path, ledger = simulate(deterministic(2.0), deterministic(1.0), horizon=9.5, seed=0)
    samples = sample_inspections(ledger, path, [1.5, 2.25])
    f = tmp_path / "samples.csv"
    samples.to_csv(f)
    lines = f.read_text().splitlines()
    assert lines[0] == "epoch,busy,age,residual,total"
    assert lines[1] == "1.5,0,nan,nan,nan"
    assert lines[2] == "2.25,1,0.25,0.75,1.0"

    g = tmp_path / "curves.csv"
    pdf_curve_csv(EXP, np.array([0.0, 1.0]), g)
    header = g.read_text().splitlines()[0]
    assert header == "t,f_age,f_observed_total,f_residual"

    with pytest.raises(ValueError):
        empirical_bias(sample_inspections(ledger, path, [1.5]), DET)
