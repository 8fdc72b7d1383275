import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from gg1lab.distributions import (
    DistributionSpec,
    deterministic,
    exponential,
    gamma,
    lognormal,
    uniform,
)

SPECS = [
    exponential(1.0),
    exponential(0.25),
    deterministic(2.0),
    uniform(0.0, 2.0),
    uniform(0.5, 1.5),
    gamma(2.0, 0.5),
    gamma(0.7, 3.0),
    lognormal(0.0, 0.5),
    lognormal(-1.0, 1.0),
]


def spec_ids(spec):
    return f"{spec.kind}{spec.params}"


# scipy's own distributions, built here, for the kinds with a density
SCIPY = {
    "exponential": lambda p: stats.expon(scale=1.0 / p[0]),
    "uniform": lambda p: stats.uniform(loc=p[0], scale=p[1] - p[0]),
    "gamma": lambda p: stats.gamma(p[0], scale=p[1]),
    "lognormal": lambda p: stats.lognorm(p[1], scale=math.exp(p[0])),
}


@pytest.mark.parametrize("spec", SPECS, ids=spec_ids)
def test_moments_match_quadrature(spec):
    """Closed-form mean and second moment against direct integration."""
    if spec.kind == "deterministic":
        d = spec.params[0]
        assert spec.mean() == d
        assert spec.second_moment() == d * d
        return
    upper = spec.quantile(1.0 - 1e-13)
    m1 = integrate.quad(lambda t: t * spec.pdf(t), 0.0, upper, limit=400)[0]
    m2 = integrate.quad(lambda t: t * t * spec.pdf(t), 0.0, upper, limit=400)[0]
    assert spec.mean() == pytest.approx(m1, rel=1e-8)
    assert spec.second_moment() == pytest.approx(m2, rel=1e-7)


@pytest.mark.parametrize("spec", SPECS, ids=spec_ids)
@pytest.mark.parametrize("frac", [0.1, 0.5, 1.0, 2.5])
def test_truncated_mean_matches_quadrature(spec, frac):
    # E[min(X, t)] equals the integral of the survival function over [0, t]
    t = frac * spec.mean()
    oracle = integrate.quad(lambda u: spec.sf(u), 0.0, t, limit=400)[0]
    assert float(spec.truncated_mean(t)) == pytest.approx(oracle, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=spec_ids)
def test_empirical_mean_within_five_standard_errors(spec):
    rng = np.random.default_rng(42)
    n = 1_000_000
    draws = spec.sample(rng, n)
    assert draws.min() >= 0
    se = math.sqrt(max(spec.variance(), 1e-30) / n)
    assert abs(draws.mean() - spec.mean()) < 5 * se + 1e-12


@pytest.mark.parametrize("spec", SPECS, ids=spec_ids)
def test_cdf_sf_complement(spec):
    ts = np.linspace(0.0, 4.0 * spec.mean(), 37)
    if spec.kind == "deterministic":
        cdf = (ts >= spec.params[0]).astype(float)
    else:
        cdf = SCIPY[spec.kind](spec.params).cdf(ts)
    total = cdf + spec.sf(ts)
    assert np.all(np.abs(total - 1.0) < 1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=spec_ids)
def test_quantile_inverts_cdf(spec):
    if spec.kind == "deterministic":
        assert spec.quantile(0.3) == spec.params[0]
        return
    for q in (0.05, 0.5, 0.95):
        assert 1.0 - float(spec.sf(spec.quantile(q))) == pytest.approx(q, abs=1e-9)


def cv2(spec):
    """Squared coefficient of variation, variance / mean^2."""
    return spec.variance() / spec.mean() ** 2


def test_known_cv2_values():
    assert cv2(exponential(0.5)) == pytest.approx(1.0)
    assert cv2(deterministic(3.0)) == 0.0
    # uniform(0, 2): var = 4/12, mean = 1
    assert cv2(uniform(0.0, 2.0)) == pytest.approx(1.0 / 3.0)
    assert cv2(gamma(4.0, 1.0)) == pytest.approx(0.25)


kind_strategy = st.sampled_from(["exponential", "deterministic", "uniform", "gamma", "lognormal"])
mean_strategy = st.floats(0.05, 50.0, allow_nan=False)


def build(kind, a, b):
    if kind == "exponential":
        return exponential(1.0 / a)
    if kind == "deterministic":
        return deterministic(a)
    if kind == "uniform":
        lo = a * 0.5
        return uniform(lo, lo + b)
    if kind == "gamma":
        return gamma(b, a)
    return lognormal(math.log(a), min(b, 2.0))


@given(kind=kind_strategy, a=st.floats(0.1, 10.0), b=st.floats(0.1, 5.0),
       target=mean_strategy)
@settings(max_examples=120, deadline=None)
def test_with_mean_rescales_but_keeps_shape(kind, a, b, target):
    spec = build(kind, a, b)
    moved = spec.with_mean(target)
    assert moved.kind == spec.kind
    assert moved.mean() == pytest.approx(target, rel=1e-9)
    assert cv2(moved) == pytest.approx(cv2(spec), rel=1e-7, abs=1e-12)


@given(kind=kind_strategy, a=st.floats(0.1, 10.0), b=st.floats(0.1, 5.0))
@settings(max_examples=60, deadline=None)
def test_dict_round_trip(kind, a, b):
    spec = build(kind, a, b)
    again = DistributionSpec.from_dict(spec.to_dict())
    assert again == spec


@given(kind=kind_strategy, a=st.floats(0.1, 10.0), b=st.floats(0.1, 5.0),
       t=st.floats(0.0, 100.0))
@settings(max_examples=150, deadline=None)
def test_truncated_mean_bounds(kind, a, b, t):
    """E[min(X,t)] is between 0 and min(mean, t), nondecreasing in t."""
    spec = build(kind, a, b)
    v = float(spec.truncated_mean(t))
    assert -1e-12 <= v <= min(spec.mean(), t) + 1e-9 * max(1.0, spec.mean())
    assert float(spec.truncated_mean(t + 1.0)) >= v - 1e-12


def test_validation_errors():
    with pytest.raises(ValueError):
        exponential(0.0)
    with pytest.raises(ValueError):
        exponential(-1.0)
    with pytest.raises(ValueError):
        deterministic(-2.0)
    with pytest.raises(ValueError):
        uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        uniform(-0.5, 1.0)
    with pytest.raises(ValueError):
        gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        lognormal(0.0, 0.0)
    # the mean or the second moment, exp(2 log_mean + 2 log_sigma**2),
    # overflows; at log_sigma = 1e200 so does log_sigma**2 itself
    for params in ((1e3, 1.0), (0.0, 19.0), (-1e3, 1e3), (0.0, 1e200)):
        with pytest.raises(ValueError, match="overflows"):
            lognormal(*params)
    assert math.isfinite(lognormal(300.0, 6.0).second_moment())
    with pytest.raises(ValueError):
        DistributionSpec(kind="weibull", params=(1.0,))
    with pytest.raises(ValueError):
        DistributionSpec(kind="exponential", params=(1.0, 2.0))
    # a TypeError, a TypeError, and a str taken as 0.4
    for params in (0.4, [None], ["0.4"]):
        with pytest.raises(ValueError, match="list of real numbers"):
            DistributionSpec.from_dict({"kind": "exponential", "params": params})


BAD_MOMENTS = [
    (lognormal, (-1000.0, 1.0)),  # moments underflow to 0
    (gamma, (1e-200, 1e-200)),
    (deterministic, (1e-300,)),  # second moment underflows
    (gamma, (1e200, 1e200)),  # moments overflow to inf
    (uniform, (0.0, 1e200)),
    (exponential, (1e300,)),  # raised OverflowError
    (exponential, (1e-310,)),  # raised ZeroDivisionError
]


@pytest.mark.parametrize("make,params", BAD_MOMENTS,
                         ids=[f"{make.__name__}{params}" for make, params in BAD_MOMENTS])
def test_moments_must_be_finite_and_positive(make, params):
    with pytest.raises(ValueError, match="must be finite doubles > 0"):
        make(*params)


def test_moments_near_the_double_range_are_accepted():
    for spec in (deterministic(1e-150), exponential(1e150), exponential(1e-150),
                 uniform(0.0, 1e150), gamma(1e-150, 1.0), lognormal(-300.0, 1.0)):
        assert 0 < spec.mean() < math.inf
        assert 0 < spec.second_moment() < math.inf


def test_deterministic_has_no_density():
    d = deterministic(2.0)
    assert not d.has_density
    with pytest.raises(ValueError):
        d.pdf(1.0)
    # step survival function
    assert float(d.sf(1.999)) == 1.0
    assert float(d.sf(2.0)) == 0.0
