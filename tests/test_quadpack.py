"""QAGS as far as one bisection against its oracle, scipy.integrate.quad:
where quad stops within one bisection (at most 63 integrand calls) with
no flag, the same result and error bits and the same number of calls;
everywhere else, a ValueError."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from gg1lab import inspection
from gg1lab._quadpack import qags
from gg1lab.distributions import deterministic, exponential, uniform


def bits(pair):
    return [float(x).hex() for x in pair]


def assert_matches_or_refuses(f, a, b):
    """qags(f, a, b) is quad(f, a, b, limit=400) bit for bit where quad
    ends within 63 calls with no flag and a < b, and raises ValueError
    otherwise; returns the number of calls on a match, None on a refusal."""
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    # with full_output, quad returns its message as a fourth element where
    # it would otherwise warn
    expect = integrate.quad(f, a, b, limit=400, full_output=1)
    if not (a < b and len(expect) == 3 and expect[2]["neval"] <= 63):
        with pytest.raises(ValueError):
            qags(counted, a, b)
        return None
    got = qags(counted, a, b)
    assert bits(got) == bits(expect[:2])
    assert calls == expect[2]["neval"]
    # one bisection needs a list of two intervals, so any limit from 3 on
    # gives the same bits
    at_3 = integrate.quad(f, a, b, limit=3, full_output=1)
    assert len(at_3) == 3 and bits(at_3[:2]) == bits(got)
    return calls


def criterion_7_integrands():
    # the service kinds and upper limits of acceptance criterion 7, with
    # the number of calls quad makes on each
    calls = {"exponential": 63, "deterministic": 21, "uniform": 21}
    for spec in (exponential(1.0), deterministic(2.0), uniform(0.0, 2.0)):
        upper = spec.quantile(1.0 - 1e-12)
        names = ["f_age"] + (["f_observed_total"] if spec.has_density else [])
        for name in names:
            def f(t, spec=spec, name=name):
                return float(inspection.analytic_pdfs(spec, t)[name])
            yield pytest.param(f, upper, calls[spec.kind], id=f"{spec.kind}-{name}")


@pytest.mark.parametrize("f, upper, calls", list(criterion_7_integrands()))
def test_criterion_7_integrands_match_quad(f, upper, calls):
    assert assert_matches_or_refuses(f, 0.0, upper) == calls


@pytest.mark.parametrize("f, b, calls", [
    (math.exp, 1.0, 21),
    (math.sin, 3.0, 21),
    (lambda x: math.cos(20.0 * x), 1.0, 63),
    (lambda x: math.exp(20.0 * x), 1.0, 63),  # the right half has the larger error
    (lambda x: math.sin(50.0 * x), 0.1, 21),
], ids=["exp", "sin", "cos(20x)", "exp(20x)", "sin(50x)-short"])
def test_smooth_integrands_match_quad(f, b, calls):
    assert assert_matches_or_refuses(f, 0.0, b) == calls


@pytest.mark.parametrize("limit", [3, 4, 10, 50, 400])
def test_bisected_integrals_match_quad_at_every_limit_from_3(limit):
    for f in (lambda x: math.cos(20.0 * x), lambda x: math.exp(20.0 * x)):
        expect = integrate.quad(f, 0.0, 1.0, limit=limit, full_output=1)
        assert len(expect) == 3 and expect[2]["neval"] == 63
        assert bits(qags(f, 0.0, 1.0)) == bits(expect[:2])


def test_a_smooth_integrand_needing_two_bisections_is_refused():
    assert assert_matches_or_refuses(lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0) is None


@pytest.mark.parametrize("f", [
    lambda x: x ** -0.5 if x > 0 else 0.0,
    lambda x: x ** -0.9 if x > 0 else 0.0,
    lambda x: math.log(x) if x > 0 else 0.0,
    lambda x: (1.0 - x) ** -0.5 if x < 1 else 0.0,
    lambda x: (1.0 - x) ** -0.9 if x < 1 else 0.0,
    lambda x: math.log(1.0 - x) if x < 1 else 0.0,
], ids=["x^-0.5", "x^-0.9", "log", "(1-x)^-0.5", "(1-x)^-0.9", "log(1-x)"])
def test_end_point_singularities_are_refused(f):
    # quad needs its epsilon-algorithm for these
    assert assert_matches_or_refuses(f, 0.0, 1.0) is None


def test_a_step_is_refused():
    assert assert_matches_or_refuses(lambda x: 1.0 if x < 0.3 else 0.0, 0.0, 1.0) is None


@pytest.mark.parametrize("at, calls", [(0.25, None), (0.5, 63), (0.75, None)])
def test_steps_match_quad_or_are_refused(at, calls):
    # a step at the bisection point leaves two constant halves
    assert assert_matches_or_refuses(lambda x: 1.0 if x < at else 0.0, 0.0, 1.0) == calls


def test_an_oscillation_is_refused():
    assert assert_matches_or_refuses(lambda x: math.sin(50.0 * x), 0.0, 10.0) is None


@pytest.mark.parametrize("f", [
    lambda x: math.nan,
    lambda x: math.nan if x > 0.5 else 1.0,
], ids=["everywhere", "on-half"])
def test_a_nan_integrand_is_refused(f):
    # the first rule's error estimate is NaN, which no tolerance test
    # passes; quad flags these after many more calls
    assert assert_matches_or_refuses(f, 0.0, 1.0) is None
    with pytest.raises(ValueError, match="needs more than one bisection"):
        qags(f, 0.0, 1.0)


@pytest.mark.parametrize("f", [
    lambda x: math.inf,
    lambda x: -math.inf if x > 0.5 else 1.0,
], ids=["everywhere", "on-half"])
def test_an_infinite_integrand_matches_quad(f):
    # the rule's error is NaN before the floor 50 * eps * resabs = inf
    # lifts it; that max must keep inf, as quad's does
    assert assert_matches_or_refuses(f, 0.0, 1.0) == 21
    assert bits(qags(f, 0.0, 1.0))[1] == "inf"


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(-0.95, 2.0, exclude_min=True, exclude_max=True),
    c=st.floats(-1.0, 3.0),
    k=st.floats(0.0, 60.0),
    step=st.booleans(),
    a=st.floats(-2.0, 1.0),
    b=st.floats(-1.0, 4.0),
)
def test_random_power_cosines_match_quad_or_are_refused(alpha, c, k, step, a, b):
    def f(x):
        d = abs(x - c)
        value = d ** alpha * math.cos(k * x) if d > 0 else 0.0
        return value + (1.0 if step and x > c else 0.0)

    assert_matches_or_refuses(f, a, b)


@pytest.mark.parametrize("a, b, name", [
    (0.0, math.inf, "b"),  # quad runs QAGI here, which is not ported
    (-math.inf, 0.0, "a"),
    (math.nan, 1.0, "a"),
])
def test_bounds_that_are_not_finite_are_refused(a, b, name):
    with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
        qags(math.sin, a, b)


@pytest.mark.parametrize("a, b", [(3.0, 0.0), (2.0, 2.0), (0.0, -0.0)])
def test_bounds_not_in_increasing_order_are_refused(a, b):
    def f(x):
        raise AssertionError("the integrand is called")

    with pytest.raises(ValueError, match=f"^b must be a finite real number > {a!r}"):
        qags(f, a, b)
