"""Full-scale acceptance gate: one test per shipped criterion.

The suite instance is shared across the module so the expensive
simulation runs are done once.  Each test prints the criterion's
pass/fail line and fails with the measured details attached.
"""

import hashlib
import json

import numpy as np
import pytest
from scipy import special, stats

from gg1lab.acceptance import (
    AcceptanceSuite,
    _ks_1samp,
    _ks_2samp,
    _theorem_entry,
    write_report_files,
)
from gg1lab.distributions import gamma
from gg1lab.renewal import CycleTotals


@pytest.fixture(scope="module")
def suite():
    return AcceptanceSuite(scale=1.0, master_seed=2026)


def check(suite, number):
    result = suite.criterion(number)
    print(result.line())
    assert result.passed, json.dumps(result.details, indent=2, default=str)
    return result


def test_criterion_01_holding_equals_observed_response(suite):
    check(suite, 1)


def test_criterion_02_exact_response_decomposition(suite):
    check(suite, 2)


def test_criterion_03_time_average_matches_rate_times_response(suite):
    check(suite, 3)


def test_criterion_04_queue_length_estimates_agree(suite):
    check(suite, 4)


def test_criterion_05_engine_matches_recursion_bitwise(suite):
    check(suite, 5)


def test_criterion_06_inspection_moments(suite):
    check(suite, 6)


def test_criterion_07_inspection_densities(suite):
    check(suite, 7)


def test_criterion_08_renewal_reward_estimators(suite):
    check(suite, 8)


def test_criterion_09_control_model_evaluation(suite):
    check(suite, 9)


def test_criterion_10_sweep_minimiser_agreement(suite):
    check(suite, 10)


def test_criterion_11_response_gap_horizon_free(suite):
    check(suite, 11)


def test_criterion_12_pipeline_byte_deterministic(suite):
    check(suite, 12)


def test_theorem_entry_keeps_only_scalar_renewal_totals():
    # the suite keeps every seed's entry while the next seed runs, so a
    # record holding the cycle arrays would add each run to the peak RSS
    record = _theorem_entry(2026, [200.0, 400.0, 2000.0])["renewal"]
    assert type(record) is CycleTotals
    assert [type(v) for v in record] == [int, float, float, float, int]
    assert record.cycles > 100 and record.count >= record.cycles


def test_report_files_round_trip(tmp_path, suite):
    """The emitted report files reflect the same results the tests saw."""
    results = [suite.criterion(k) for k in (1, 2)]
    paths = write_report_files(results, tmp_path, suite.master_seed, suite.scale)
    text = (tmp_path / "acceptance.txt").read_text()
    assert "criterion 01 PASS" in text
    assert text.rstrip().endswith("2/2 criteria passed")
    payload = json.loads((tmp_path / "acceptance_report.json").read_text())
    assert payload["all_passed"] is True
    assert [r["number"] for r in payload["results"]] == [1, 2]
    assert len(paths) == 2


# sha256 of the report files at scale 0.02 and master seed 2026.  Any
# change to a simulated number, a criterion or the report format shows
# here; a change that alters these bytes on purpose records the new
# digests and says why.  Criterion 8's four renewal fields were
# re-recorded when cycle rewards became per-cycle sums.
REDUCED_SCALE_REPORT_SHA256 = {
    "acceptance_report.json": "fcb0d0b2e593459c643c5fc6a60155f2c892d61e9e1db15cfefe9a9f538f7e23",
    "acceptance.txt": "672993d8fe4945f8854273bb68defffbd6eecdc193f889d3386ff6c76db64d15",
}


def test_reduced_scale_reports_match_recorded_bytes(tmp_path):
    AcceptanceSuite(scale=0.02, master_seed=2026, self_check=False).run_all(out_dir=tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in REDUCED_SCALE_REPORT_SHA256
    }
    assert digests == REDUCED_SCALE_REPORT_SHA256


# sample sizes on both sides of 10,000, where ks_2samp's exact mode,
# and with it the rounding of the distance, ends
KS_SIZES = [(1, 1), (5, 5), (7, 13), (400, 400), (999, 1000), (3000, 4500),
            (10_000, 10_000), (10_000, 10_001), (12_000, 9_000), (20_000, 20_000)]


@pytest.mark.parametrize("n1,n2", KS_SIZES)
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_ks_distances_match_scipy_bitwise(n1, n2, ties):
    rng = np.random.default_rng(n1 * 100_003 + n2)
    a, b = rng.exponential(1.0, n1), rng.exponential(1.1, n2)
    if ties:
        a, b = np.round(a, 1), np.round(b, 1)
    assert _ks_2samp(a, b) == float(stats.ks_2samp(a, b).statistic)
    assert _ks_2samp(a, a) == float(stats.ks_2samp(a, a).statistic) == 0.0
    cdf = gamma(0.7, 1.5).sf
    for sample in (a, b):
        assert _ks_1samp(sample, cdf) == float(stats.kstest(sample, cdf).statistic)


def test_ks_distances_of_empty_samples_are_nan():
    assert np.isnan(_ks_1samp(np.array([]), gamma(1.0, 1.0).sf))
    assert np.isnan(_ks_2samp(np.array([]), np.array([1.0])))


def test_t_quantile_matches_scipy_bitwise():
    for df in range(1, 51):
        assert special.stdtrit(df, 0.975) == stats.t.ppf(0.975, df)
