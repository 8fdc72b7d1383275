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


def _scipy_truncated_mean(spec, t):
    """E[min(X, t)] written with scipy.stats: X sf(t) plus the mean times
    the cdf of the length-biased law, which is gamma(shape + 1, scale)
    for gamma and a normal cdf in log t for lognormal.  Exponential and
    uniform have closed forms that never used scipy."""
    k, p = spec.kind, spec.params
    arr = np.asarray(t, dtype=float)
    if k == "exponential":
        out = -np.expm1(-p[0] * arr) / p[0]
    elif k == "uniform":
        low, high = p
        inside = arr.clip(low, high)
        out = arr.clip(max=low) + (inside - low) - (inside - low) ** 2 / (2.0 * (high - low))
    elif k == "gamma":
        out = arr * stats.gamma.sf(arr, p[0], scale=p[1]) + p[0] * p[1] * stats.gamma.cdf(
            arr, p[0] + 1.0, scale=p[1])
    else:
        mu, sigma = p
        with np.errstate(divide="ignore"):
            z = np.where(arr > 0, (np.log(np.where(arr > 0, arr, 1.0)) - mu - sigma**2) / sigma,
                         -np.inf)
        out = arr * SCIPY[k](p).sf(arr) + spec.mean() * stats.norm.cdf(z)
    return out if out.ndim else float(out)


DENSITY_SPECS = [s for s in SPECS if s.has_density]


def finite_grid(spec):
    """Finite t >= 0: zero, a fine grid over the bulk, tiny and huge
    values, and the support's ends."""
    ends = list(spec.params) if spec.kind == "uniform" else []
    return np.concatenate([[0.0, 1e-300, 1e300], ends,
                           np.linspace(0.0, 10.0 * spec.mean(), 2001),
                           np.geomspace(1e-12, 1e12, 97)])


ODD_POINTS = np.array([-0.0, -1.0, -1e300, -np.inf, np.inf, np.nan])


def same_bits(a, b):
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec", DENSITY_SPECS, ids=spec_ids)
def test_pdf_sf_truncated_mean_match_scipy_bitwise(spec):
    ref = SCIPY[spec.kind](spec.params)
    grid = finite_grid(spec)
    assert same_bits(spec.pdf(grid), ref.pdf(grid))
    assert same_bits(spec.sf(grid), ref.sf(grid))
    assert same_bits(spec.truncated_mean(grid), _scipy_truncated_mean(spec, grid))
    # scalars and 0-d arrays keep their types: numpy scalars from pdf and
    # sf, a float from truncated_mean
    for t in (0.0, 1, np.float64(0.3), np.array(0.7), float(grid[-1])):
        assert same_bits(spec.pdf(t), ref.pdf(t))
        assert same_bits(spec.sf(t), ref.sf(t))
        assert same_bits(spec.truncated_mean(t), _scipy_truncated_mean(spec, t))
    assert isinstance(spec.truncated_mean(0.5), float)


def _at_plus_inf(t, values, limit):
    """scipy's values, with the limit at t = +inf in place of scipy's
    NaN: a density is 0 there and the truncated mean is the mean."""
    return np.where(np.asarray(t) == np.inf, limit, values)[()]


@pytest.mark.parametrize("spec", DENSITY_SPECS, ids=spec_ids)
def test_pdf_sf_match_scipy_bitwise_off_the_support(spec):
    # negatives, NaN and infinities; scipy warns at some of these and so
    # may the copy, so only the values are compared
    ref = SCIPY[spec.kind](spec.params)
    with np.errstate(invalid="ignore"):
        assert same_bits(spec.pdf(ODD_POINTS), _at_plus_inf(ODD_POINTS, ref.pdf(ODD_POINTS), 0.0))
        assert same_bits(spec.sf(ODD_POINTS), ref.sf(ODD_POINTS))
        for t in ODD_POINTS:
            assert same_bits(spec.pdf(t), _at_plus_inf(t, ref.pdf(t), 0.0))
            assert same_bits(spec.sf(t), ref.sf(t))
        positive = np.array([np.inf, np.nan])
        assert same_bits(spec.truncated_mean(positive),
                         _at_plus_inf(positive, _scipy_truncated_mean(spec, positive), spec.mean()))
        assert spec.truncated_mean(np.inf) == spec.mean()


QS = (0.0, 5e-324, 1e-12, 0.001, 0.05, 0.5, 0.95, 0.999, 1.0 - 1e-12, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec", DENSITY_SPECS, ids=spec_ids)
def test_quantile_matches_scipy_bitwise(spec):
    ref = SCIPY[spec.kind](spec.params)
    for q in QS:
        assert same_bits(spec.quantile(q), float(ref.ppf(q)))


density_kind = st.sampled_from(["exponential", "uniform", "gamma", "lognormal"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(kind=density_kind, a=st.floats(0.01, 100.0), b=st.floats(0.01, 20.0))
@settings(max_examples=150, deadline=None)
def test_distribution_functions_match_scipy_bitwise_property(kind, a, b):
    spec = build(kind, a, b)
    ref = SCIPY[kind](spec.params)
    ends = list(spec.params) if kind == "uniform" else []
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 40) * spec.mean(), ends])
    assert same_bits(spec.pdf(grid), ref.pdf(grid))
    assert same_bits(spec.sf(grid), ref.sf(grid))
    assert same_bits(spec.truncated_mean(grid), _scipy_truncated_mean(spec, grid))
    for q in QS:
        assert same_bits(spec.quantile(q), float(ref.ppf(q)))


@pytest.mark.parametrize("spec", SPECS, ids=spec_ids)
def test_quantile_rejects_q_outside_unit_interval(spec):
    for q in (-1e-300, -0.5, 1.0 + 1e-15, 2.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"q must be a finite real number in \[0, 1\]"):
            spec.quantile(q)
    # the ends keep scipy's values: the support's ends
    low, high = {"uniform": spec.params, "deterministic": spec.params * 2}.get(
        spec.kind, (0.0, math.inf))
    assert spec.quantile(0.0) == low
    assert spec.quantile(1.0) == high


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


# every kind, gamma on both sides of shape 1, and the uniform draws of
# random-order picks
DRAWS = [(spec_ids(s), s.sample) for s in SPECS + [gamma(0.4, 1.0), gamma(3.5, 1.0)]]
DRAWS.append(("random", lambda rng, n: rng.random(n)))


@pytest.mark.parametrize("draw", [d for _, d in DRAWS], ids=[name for name, _ in DRAWS])
@given(sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_split_draws_equal_one_draw(draw, sizes, seed):
    # the simulator draws each chunk's services and picks as it goes, so
    # its bits rest on a stream giving the same values however it is split
    rng = np.random.default_rng(seed)
    split = np.concatenate([draw(rng, n) for n in sizes])
    assert same_bits(split, draw(np.random.default_rng(seed), sum(sizes)))


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
    with pytest.raises(ValueError, match="exponential rate must be a finite real number > 0"):
        exponential(True)
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
        with pytest.raises(ValueError, match="exponential (params|rate) must be a"):
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
