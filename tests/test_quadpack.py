"""The QAGS port against its oracle, scipy.integrate.quad: the same
result and error bits, the same number of integrand calls, and a warning
exactly where quad flags one."""

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from gg1lab import inspection
from gg1lab._quadpack import qags
from gg1lab.distributions import deterministic, exponential, uniform


def assert_matches_quad(f, a, b, limit):
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    # with full_output, quad returns its message as a fourth element where
    # it would otherwise warn
    expect = integrate.quad(f, a, b, limit=limit, full_output=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = qags(counted, a, b, limit)
    assert [float(x).hex() for x in got] == [float(x).hex() for x in expect[:2]]
    assert calls == expect[2]["neval"]
    assert [w.category for w in caught] == [RuntimeWarning] * (len(expect) == 4)
    return len(expect) == 4


def criterion_7_integrands():
    # the service kinds and upper limits of acceptance criterion 7
    for spec in (exponential(1.0), deterministic(2.0), uniform(0.0, 2.0)):
        upper = spec.quantile(1.0 - 1e-12)
        names = ["f_age"] + (["f_observed_total"] if spec.has_density else [])
        for name in names:
            def f(t, spec=spec, name=name):
                return float(inspection.analytic_pdfs(spec, t)[name])
            yield pytest.param(f, upper, id=f"{spec.kind}-{name}")


@pytest.mark.parametrize("f, upper", list(criterion_7_integrands()))
def test_criterion_7_integrands_match_quad(f, upper):
    assert not assert_matches_quad(f, 0.0, upper, 400)


@pytest.mark.parametrize("f", [
    lambda x: x ** -0.5 if x > 0 else 0.0,
    lambda x: x ** -0.9 if x > 0 else 0.0,
    lambda x: math.log(x) if x > 0 else 0.0,
], ids=["x^-0.5", "x^-0.9", "log"])
@pytest.mark.parametrize("limit", [3, 10, 50])
def test_end_point_singularities_match_quad(f, limit):
    # these go through the epsilon-algorithm
    assert_matches_quad(f, 0.0, 1.0, limit)


@pytest.mark.parametrize("limit", [1, 2, 50])
def test_a_step_matches_quad(limit):
    assert_matches_quad(lambda x: 1.0 if x < 0.3 else 0.0, 0.0, 1.0, limit)


@pytest.mark.parametrize("limit", [1, 2, 3, 5, 10, 50])
def test_oscillation_up_to_the_subdivision_limit_matches_quad(limit):
    warned = assert_matches_quad(lambda x: math.sin(50.0 * x), 0.0, 10.0, limit)
    assert warned  # the subdivision limit is reached


@pytest.mark.parametrize("limit", [1, 50])
def test_reversed_bounds_match_quad(limit):
    assert_matches_quad(math.sin, 3.0, 0.0, limit)
    assert_matches_quad(lambda x: x ** -0.5 if x > 0 else 0.0, 1.0, 0.0, limit)


def test_an_empty_interval_calls_nothing():
    assert_matches_quad(math.sin, 2.0, 2.0, 50)
    assert qags(None, 2.0, 2.0, 50) == (0.0, 0.0)


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(-0.95, 2.0, exclude_min=True, exclude_max=True),
    c=st.floats(-1.0, 3.0),
    k=st.floats(0.0, 60.0),
    step=st.booleans(),
    a=st.floats(-2.0, 1.0),
    b=st.floats(-1.0, 4.0),
    limit=st.sampled_from([3, 10, 50, 400]),
)
def test_random_power_cosines_match_quad(alpha, c, k, step, a, b, limit):
    def f(x):
        d = abs(x - c)
        value = d ** alpha * math.cos(k * x) if d > 0 else 0.0
        return value + (1.0 if step and x > c else 0.0)

    assert_matches_quad(f, a, b, limit)


@pytest.mark.parametrize("a, b, name", [
    (0.0, math.inf, "b"),  # quad runs QAGI here, which is not ported
    (-math.inf, 0.0, "a"),
    (math.nan, 1.0, "a"),
])
def test_bounds_that_are_not_finite_are_refused(a, b, name):
    with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
        qags(math.sin, a, b, 50)


@pytest.mark.parametrize("limit", [0, -1, 2.5, True, "50", None])
def test_a_limit_that_is_not_a_positive_integer_is_refused(limit):
    with pytest.raises(ValueError, match="^limit must be an integer"):
        qags(math.sin, 0.0, 1.0, limit)
