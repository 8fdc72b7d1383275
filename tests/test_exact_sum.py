"""exact_sum against math.fsum, the oracle: the same bits wherever fsum
returns, and the documented results where it raises."""

import math
import pathlib
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gg1lab import metrics
from gg1lab.metrics import exact_sum
from gg1lab.simulator import DEFAULT_EVENT_CAP

TINY = 5e-324  # smallest subnormal
HUGE = 1.7976931348623157e308  # largest finite
SPECIAL = [0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, -2.225073858507201e-308,
           1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300, 1e308, -1e308, HUGE, -HUGE]


def expected(xs):
    """math.fsum, or where its partial sums overflow, the exact sum
    rounded once (float(Fraction) is a correctly rounded int division
    and raises OverflowError out of range)."""
    try:
        return math.fsum(xs)
    except OverflowError:
        return float(sum(map(Fraction, xs), Fraction(0)))


def assert_same(got, want):
    if want == 0.0:
        # a zero sum is +0.0, whatever the signs of the zeros summed
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
    else:
        assert got.hex() == want.hex()


def check(xs, total=exact_sum):
    """total(xs) has the bits of expected(xs), or raises where it does."""
    arr = np.array(xs, dtype=float)
    try:
        want = expected(list(arr))
    except OverflowError:
        with pytest.raises(OverflowError):
            total(arr)
        return
    assert_same(total(arr), want)


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from(SPECIAL),
)


@given(st.lists(finite, max_size=80), st.data())
@settings(max_examples=400, deadline=None)
def test_short_inputs_match_fsum(xs, data):
    # mirror a random subset so huge terms cancel exactly
    mirrored = data.draw(st.lists(st.sampled_from(xs), max_size=len(xs))) if xs else []
    check(xs + [-v for v in mirrored])


@given(
    n=st.one_of(st.integers(0, 300_000),
                st.sampled_from([65_535, 65_536, 65_537, 131_072, 131_073, 196_609])),
    seed=st.integers(0, 2**32 - 1),
    span=st.integers(0, 300),
    cancel=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_long_inputs_across_blocks_match_fsum(n, seed, span, cancel):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-span, span + 1, n)
    if cancel:
        x[n // 2:] = -rng.permutation(x)[: n - n // 2]
    assert_same(exact_sum(x), math.fsum(x.tolist()))


def test_zero_sums_are_positive_zero():
    for xs in ([], [0.0], [-0.0], [-0.0, -0.0], np.zeros(70_000), [1e300, -1e300]):
        got = exact_sum(np.asarray(xs, dtype=float))
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


def test_overflow_of_the_exact_sum_raises_like_fsum():
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308])
    with pytest.raises(OverflowError):
        exact_sum(np.array([1e308, 1e308]))


def test_overflow_of_a_partial_sum_only_is_rounded_not_raised():
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    assert exact_sum(np.array([1e308, 1e308, -1e308])) == 1e308


@pytest.mark.parametrize("xs", [
    [1.0, math.nan], [math.inf, 1.0], [-math.inf, 2.0, -3.0], [math.inf, math.inf],
    [math.nan, math.inf],
])
def test_non_finite_inputs_match_fsum(xs):
    got, want = exact_sum(np.array(xs)), math.fsum(xs)
    assert got.hex() == want.hex()


def test_inf_minus_inf_raises_like_fsum():
    with pytest.raises(ValueError):
        math.fsum([math.inf, -math.inf])
    with pytest.raises(ValueError):
        exact_sum(np.array([math.inf, 1.0, -math.inf]))


def test_int64_bins_stay_exact_without_a_flush():
    # a block's bincount sums (whole parts below 2**27, rests below 2**26)
    # are exact doubles, and no sum a run takes can carry an int64 bin
    # past 2**63: at most two terms per event, each adding below 2**27
    assert metrics._BLOCK * 2**27 <= 2**53
    assert 2 * DEFAULT_EVENT_CAP * 2**27 < 2**63


def test_largest_parts_add_up_in_one_bin_across_blocks(monkeypatch):
    # every value of 1 - 2**-53 lands in one bin with the largest whole
    # part, 2**27 - 1, and the largest rest, 2**26 - 1
    monkeypatch.setattr(metrics, "_BLOCK", 4)
    x = np.full(101, 1.0 - 2.0**-53)
    assert_same(exact_sum(x), math.fsum(x.tolist()))
    assert_same(exact_sum(np.r_[x, -x[:50]]), math.fsum(x[50:].tolist()))


def test_every_exact_sum_in_the_package_goes_through_exact_sum():
    src = pathlib.Path(metrics.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        for line in path.read_text().splitlines():
            if re.search(r"fsum\(|sum\([^)]*\.tolist\(\)", line):
                hits.append((path.name, line.strip()))
    # the one call left is exact_sum's fallback for non-finite input
    assert hits == [("metrics.py", "return math.fsum(x.tolist())")]


@given(
    n=st.integers(0, 3000),
    cuts=st.lists(st.integers(0, 3000), max_size=12),
    seed=st.integers(0, 2**32 - 1),
    span=st.integers(0, 300),
    cancel=st.booleans(),
    block=st.sampled_from([4, 7, 64, 1 << 16]),
    extremes=st.lists(st.tuples(st.integers(0, 20), st.sampled_from([TINY, -TINY, HUGE, -HUGE])),
                      max_size=4),
    reads=st.sets(st.integers(1, 20), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_accumulator_fed_pieces_matches_fsum(n, cuts, seed, span, cancel, block, extremes, reads):
    # any split of the input, empty pieces included, with blocks small
    # enough that most inputs span several; one-value pieces from the
    # ends of the float range land in the lowest and highest bins, and
    # value, read between pieces too, sums every term added so far
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-span, span + 1, n)
    if cancel:
        x[n // 2:] = -rng.permutation(x)[: n - n // 2]
    pieces = np.split(x, sorted(c % (n + 1) for c in cuts))
    for at, v in extremes:
        pieces.insert(at % (len(pieces) + 1), np.array([v]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_BLOCK", block)
        acc = metrics.ExactSum()
        for k, piece in enumerate(pieces, 1):
            acc.add(piece)
            if k in reads or k == len(pieces):
                check(np.concatenate(pieces[:k]), lambda _: acc.value())


def test_one_term_adds_match_fsum():
    x = np.random.default_rng(34).standard_normal(200_000) * 1e3
    acc = metrics.ExactSum()
    for v in x:
        acc.add([v])
    assert_same(acc.value(), math.fsum(x.tolist()))


def test_each_add_bins_only_the_exponents_its_block_spans(monkeypatch):
    # a short add fills short bincounts, not two of all 2,098 bins
    lengths = []
    bincount = np.bincount

    def recording(*args, **kwargs):
        counts = bincount(*args, **kwargs)
        lengths.append(len(counts))
        return counts

    monkeypatch.setattr(np, "bincount", recording)
    for xs, span in (([1.0], 1), ([1.0, 1024.0], 11), ([TINY, HUGE], 2_098)):
        lengths.clear()
        acc = metrics.ExactSum()
        acc.add(xs)
        assert lengths == [span, span]
        assert_same(acc.value(), math.fsum(xs))


def test_accumulator_of_negative_zeros_is_positive_zero():
    acc = metrics.ExactSum()
    for piece in (np.full(3, -0.0), np.empty(0), np.full(70_000, -0.0), [-0.0]):
        acc.add(piece)
    got = acc.value()
    assert got == 0.0 and math.copysign(1.0, got) == 1.0
    empty = metrics.ExactSum().value()
    assert empty == 0.0 and math.copysign(1.0, empty) == 1.0


@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf])
def test_accumulator_is_nan_after_a_non_finite_term(special):
    # exact_sum then hands its whole input to math.fsum
    acc = metrics.ExactSum()
    acc.add(np.ones(5))
    acc.add([special])
    acc.add(np.ones(70_000))
    assert math.isnan(acc.value())
