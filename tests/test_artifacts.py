import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gg1lab import experiments, inspection, renewal, simulator
from gg1lab.artifacts import _ROW_BLOCK, _shortest, write_csv, write_json, write_jsonl
from gg1lab.cli import main
from gg1lab.distributions import exponential, gamma, lognormal
from gg1lab.renewal import RenewalCycles, cycle_rewards, detect_cycles
from gg1lab.simulator import simulate

import reference_artifacts

SWEEP_CONFIG = {
    "version": 1,
    "arrival": {"kind": "exponential", "params": [0.4]},
    "service_shape": {"kind": "gamma", "params": [2.0, 0.5]},
    "rate_grid": [0.6, 0.9, 1.3],
    "seeds": [1, 2],
    "penalty_k0": 0.2,
    "penalty_k1": 1.5,
    "warmup": 20.0,
    "horizon": 800.0,
}

MDP_CONFIG = {
    "arrival_rate": 0.1,
    "action_grid": [0.15, 0.2, 0.25, 0.3, 0.35, 0.4],
    "n_states": 60,
    "cost_weight": 1.0,
    "penalty": [0.1, -8.0],
    "method": "relative-value-iteration",
}

# the same verbs with int values where floats are usual: an int that
# works today is echoed as an int
SWEEP_INT_CONFIG = {
    "version": 1,
    "arrival": {"kind": "exponential", "params": [1]},
    "service_shape": {"kind": "gamma", "params": [2, 1]},
    "rate_grid": [2, 3, 4],
    "seeds": [3, 4],
    "cost_weight": 2,
    "penalty_k0": 1,
    "penalty_k1": 1,
    "warmup": 0,
    "horizon": 500,
}

MDP_INT_CONFIG = {
    "arrival_rate": 1,
    "action_grid": [1, 2, 3],
    "n_states": 30,
    "cost_weight": 2,
    "penalty": [1, -1],
    "method": "policy-iteration",
}

# Fixed small runs of every CLI verb that writes files.  Config files are
# written into the run's directory first; "{dir}" stands for it.
GOLDEN_RUNS = {
    "simulate-fcfs-warmup": [
        "simulate", "--arrival", "exponential:0.5", "--service", "gamma:2,0.8",
        "--warmup", "50", "--horizon", "1500", "--seed", "11", "--cost-weight", "3.7",
    ],
    "simulate-lcfs": [
        "simulate", "--arrival", "uniform:0.5,2.5", "--service", "lognormal:-0.3,0.6",
        "--discipline", "lcfs", "--horizon", "1500", "--seed", "4",
    ],
    "inspect-deterministic": [
        "inspect", "--arrival", "exponential:0.5", "--service", "deterministic:1.0",
        "--horizon", "2000", "--epoch-rate", "0.2", "--seed", "5",
    ],
    "inspect-lognormal": [
        "inspect", "--arrival", "exponential:0.8", "--service", "lognormal:-0.3,0.6",
        "--warmup", "10", "--horizon", "2000", "--epoch-rate", "0.3", "--seed", "6",
    ],
    "sweep": ["sweep", "--config", "{dir}/sweep.json"],
    "sweep-int": ["sweep", "--config", "{dir}/sweep_int.json"],
    "mdp-solve": ["mdp", "solve", "--config", "{dir}/mdp.json"],
    "mdp-solve-int": ["mdp", "solve", "--config", "{dir}/mdp_int.json"],
}

# sha256 of every file each run writes, recorded before the writers were
# routed through gg1lab.artifacts.  A change that alters these bytes on
# purpose records the new digests and says why: cycles.csv's reward
# column was re-recorded when each cycle's holding became a sum of its
# own segment areas rather than a difference of running totals, and the
# sweep's reports.jsonl when rho_hat's busy time became an exact sum
# (rate 0.6, seed 1: 0.6915605114460226 became 0.6915605114460227),
# and mdp-solve-int's solution.json when policy evaluation became a
# subtraction-free elimination (15 of its 31 relative values moved in the
# last bits, J(3) 18.886319052373608 became 18.886319052373604).
GOLDEN_SHA256 = {
    "cycles": {
        "cycles.csv": "19775bbdab9d0fb781cbf27517813481855bb00f07c3222b9c4e11b54b1bc30a",
        "cycles_zero.csv": "f9bf0f85b52a0d1a0da1138dbb6495f67b1659f4c7577433584dba286c35e300",
    },
    "inspect-deterministic": {
        "inspections.csv": "6c4dd2a8567b891f2d2a92a7faec43cecfab91cd75d929a91d39f16fb87a235e",
        "pdf_curves.csv": "4918b2e17f66db88ff6fb26a720d8ef3eba64c184b35bb40ae2d72c7e155c476",
        "summary.json": "07fa0f4c1b37a9b8456f789d4cde63dff290968a50c5d065ca8cc645623393fa",
    },
    "inspect-lognormal": {
        "inspections.csv": "31359308c7f0020113c3e5150082a1a42a20d3fced02a7cfbb4b9fc1eaec80f8",
        "pdf_curves.csv": "f6a35b52237f932775ff449c9dd8687b344468acdbf4af2e0a48fde4704f460e",
        "summary.json": "b89709fb3b17ebae2b1e4d6d583bd33d76738d905999da3cafbb3ea45b9f0a2b",
    },
    "mdp-solve": {
        "solution.json": "36f6582760f69aff507b8e36f427b9844754733c984fcaea28ce99ac712a5b56",
    },
    "mdp-solve-int": {
        "solution.json": "468c226fa4002e8c76a8856afbc506a56c80c29b7d06da97bc601428e9a528ab",
    },
    "simulate-fcfs-warmup": {
        "customer.csv": "cff8c739ea4fce4d54432143331d732624f9b2e4f7d7e8a4c57ef7c58f284d91",
        "path.csv": "4f8c4f2b6c207acc1673e0e1fcbef718b03699dc541221d4f163e5feba589efd",
        "report.json": "e0bfa4424a635654a7ffe41094e218732e07f327e0ece2fdbdfb6928ee7b3118",
    },
    "simulate-lcfs": {
        "customer.csv": "1c7a2c94bb823bd3ae3a518d8919f79615863df0e51cd46e18eba6dae1aca598",
        "path.csv": "e81691475b5ac5b86cdbebfe16b4968c98d380acd3d1656cdbae244029c08c83",
        "report.json": "1ec235d0cfced7a89ff391c81709962bdc28f01ff9c33d81f22a10bcf794e47e",
    },
    "sweep": {
        "config.echo.json": "89122980506f4311dce7db9bf618d843bd517f84d4c13cebb85cea5fda6c2ffd",
        "equivalence.json": "4e7b2e4146ba509c2bc31365a7f3bb24cb429ff7d00e78615d454f54df0954ef",
        "reports.jsonl": "0572307ec252530c60dfbcc15d7cfb67918605458e9f9048ee0f7deb94e34847",
        "surface.csv": "69925ea3c38316ff4d25736f749fc47214c2350187e490d8fb612901a15b392a",
    },
    "sweep-int": {
        "config.echo.json": "c4f8cd6b232b8692a6f8133e99beee1a12a40b42f192ceef019c85ff3ea1a6d1",
        "equivalence.json": "4e7b2e4146ba509c2bc31365a7f3bb24cb429ff7d00e78615d454f54df0954ef",
        "reports.jsonl": "cb69c1677c5782d1e34bc9f3a890b9f2acba680b49c4ba473cf22eb3b8114e53",
        "surface.csv": "b7de9c71f25984a5ffc0e10d80fee332a6d059215d9f2033f43ea71f85b436ce",
    },
}


def _digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_cli_artifacts_match_recorded_bytes(tmp_path, capsys, run):
    (tmp_path / "sweep.json").write_text(json.dumps(SWEEP_CONFIG))
    (tmp_path / "mdp.json").write_text(json.dumps(MDP_CONFIG))
    (tmp_path / "sweep_int.json").write_text(json.dumps(SWEEP_INT_CONFIG))
    (tmp_path / "mdp_int.json").write_text(json.dumps(MDP_INT_CONFIG))
    out = tmp_path / "out"
    argv = [a.format(dir=tmp_path) for a in GOLDEN_RUNS[run]] + ["--out", str(out)]
    assert main(argv) == 0
    assert _digests(out) == GOLDEN_SHA256[run]


def test_cycles_csv_matches_recorded_bytes(tmp_path):
    path, ledger = simulate(exponential(0.5), exponential(1.0), warmup=30.0,
                            horizon=1500.0, seed=8)
    cycles = detect_cycles(path)
    rewards = cycle_rewards(cycles, path, ledger)
    cycles.to_csv(tmp_path / "cycles.csv", rewards.holding, rewards.count)
    cycles.to_csv(tmp_path / "cycles_zero.csv")
    assert _digests(tmp_path) == GOLDEN_SHA256["cycles"]


def test_write_csv_zero_rows_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    write_csv(out, ("a", "b"), (np.empty(0), range(0)))
    assert out.read_bytes() == b"a,b\n"
    RenewalCycles(np.empty(0), np.empty(0), np.empty(0)).to_csv(out)
    assert out.read_bytes() == b"cycle_index,busy_len,idle_len,reward,count\n"


def test_write_csv_value_text(tmp_path):
    out = tmp_path / "values.csv"
    write_csv(out, ("x", "flag", "k", "name"), (
        np.array([float("nan"), -0.0, float("inf"), -float("inf"), 0.1, 1e300]),
        np.array([True, False, True, False, False, True]),
        np.array([0, -1, 2**40, 7, 8, 9], dtype=np.int64),
        ["a", "b", "c", "d", "e", "f"],
    ))
    assert out.read_text() == (
        "x,flag,k,name\n"
        "nan,1,0,a\n"
        "-0.0,0,-1,b\n"
        "inf,1,1099511627776,c\n"
        "-inf,0,7,d\n"
        "0.1,0,8,e\n"
        "1e+300,1,9,f\n"
    )


def test_write_csv_rejects_misaligned_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a", "b"), (np.zeros(3), np.zeros(2)))
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a",), (np.zeros(3), np.zeros(3)))


def test_write_csv_rejects_columns_that_are_not_1d(tmp_path):
    # a 2-D column would write cells like "[0.0, 0.0]", whose commas
    # break the table
    for bad in (np.zeros((3, 2)), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="1-D"):
            write_csv(tmp_path / "bad.csv", ("a", "b"), (np.zeros(3), bad))


def _written(path, *columns, writer=write_csv):
    writer(path, [f"c{k}" for k in range(len(columns))], columns)
    return path.read_bytes()


def assert_repr_text(path, values):
    """One float64 column: write_csv's bytes are the reference writer's
    and ``repr``'s."""
    values = np.asarray(values, dtype=np.float64)
    got = _written(path, values)
    assert got == _written(path, values, writer=reference_artifacts.write_csv)
    expected = "c0\n" + "".join(repr(v) + "\n" for v in values.tolist())
    assert got == expected.encode()


def _nudged(values, ulps):
    values = np.asarray(values, dtype=np.float64)
    for _ in range(abs(ulps)):
        values = np.nextafter(values, np.copysign(np.inf, ulps))
    return values


def as_floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


# raw float64 bit patterns: any of them, or ones whose exponent lies in
# the band that is written without an exponent (1e-4 <= |x| < 1e16)
_ANY_BITS = st.integers(0, 2**64 - 1)
_FIXED_BITS = st.builds(lambda sign, exp, mantissa: sign << 63 | exp << 52 | mantissa,
                        st.integers(0, 1), st.integers(1009, 1076), st.integers(0, 2**52 - 1))


@given(st.lists(st.one_of(_ANY_BITS, _FIXED_BITS), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_float_text_is_repr_on_raw_bit_patterns(tmp_path, bits):
    assert_repr_text(tmp_path / "bits.csv", as_floats(bits))


def test_float_text_is_repr_in_bulk(tmp_path):
    # more rows than a block: every decimal exponent of the band and
    # beyond, decimals rounded to a few places, and random bits
    rng = np.random.default_rng(2026)
    n = 40_000
    values = np.concatenate([
        10.0 ** rng.uniform(-5.0, 17.0, n) * rng.choice([-1.0, 1.0], n),
        np.round(rng.uniform(0.0, 1e4, n) * 10.0 ** (places := rng.integers(0, 8, n))) / 10.0**places,
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
    ])
    assert_repr_text(tmp_path / "bulk.csv", values)


def test_float_text_at_notation_and_binary_boundaries(tmp_path):
    band_ends = np.array([1e-4, 1e15, 1e16, 2.0**-14, 2.0**52, 2.0**53])
    powers = np.concatenate([2.0 ** np.arange(-15, 55), 10.0 ** np.arange(-5, 18)])
    values = np.concatenate([_nudged(band_ends, k) for k in range(-3, 4)]
                            + [_nudged(powers, k) for k in (-1, 0, 1)])
    values = np.concatenate([values, -values, [0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                                              1.7976931348623157e308, 0.1, 0.3, 1 / 3]])
    assert_repr_text(tmp_path / "edges.csv", values)


def test_exact_ties_take_repr(tmp_path):
    # 18 significant digits ending in 5, both 17-digit neighbours inside
    # the rounding interval: repr rounds the tie half to even
    ties = np.array([118504338674058.625, 118504338674058.875, 100000000000000.125,
                     2.0**50 + 0.25, 2.0**50 + 0.75, 1234567890123456.25])
    assert _shortest(ties)[3].all()
    assert_repr_text(tmp_path / "ties.csv", np.concatenate([ties, -ties]))


def test_every_nan_writes_nan(tmp_path):
    nans = as_floats([0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0000, 0x7FF0_0000_0000_0001,
                      0xFFF0_0000_DEAD_BEEF, 0x7FFF_FFFF_FFFF_FFFF, 0xFFFF_FFFF_FFFF_FFFF])
    assert np.isnan(nans).all() and np.signbit(nans).any()
    write_csv(tmp_path / "nan.csv", ("x",), (nans,))
    assert (tmp_path / "nan.csv").read_bytes() == b"x\n" + b"nan\n" * len(nans)


def test_narrow_and_unsigned_dtypes_match_reference(tmp_path):
    rng = np.random.default_rng(9)
    wide = 10.0 ** rng.uniform(-6.0, 18.0, 500) * rng.choice([-1.0, 1.0], 500)
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-4, 0.1, 65504.0]
    columns = [
        np.concatenate([wide, specials]).astype(np.float32),
        # scaled into float16's range, subnormals included
        np.concatenate([wide / 1e14, specials]).astype(np.float16),
        np.concatenate([rng.integers(2**63, 2**64, 505, dtype=np.uint64),
                        np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)]),
        np.concatenate([rng.integers(-2**63, 2**63, 505, dtype=np.int64),
                        np.array([-2**63, 2**63 - 1, -1], dtype=np.int64)]),
        rng.integers(-128, 128, 508).astype(np.int8),
        rng.integers(0, 2**16, 508).astype(np.uint16),
        rng.integers(-2**31, 2**31, 508).astype(np.int32),
    ]
    path = tmp_path / "dtypes.csv"
    assert _written(path, *columns) == _written(path, *columns, writer=reference_artifacts.write_csv)


def test_mixed_lists_and_other_dtypes_keep_str(tmp_path):
    columns = (
        [1, 2.5, "x", None, True, b"y z"],
        ["a", "b;c", "", "d", "e", "f"],
        np.array(["u", "vv", "w", "x", "y", "z"]),
        np.arange(6, dtype=np.complex128),
        np.array([0.1, 1e-20, 2.5, -0.0, 7.0, 1e300], dtype=np.longdouble),
        range(10, 16),
    )
    path = tmp_path / "mixed.csv"
    assert _written(path, *columns) == _written(path, *columns, writer=reference_artifacts.write_csv)


@pytest.mark.parametrize("column", [
    ["a", "b,c"], ["a", (1, 2)], ["two\nrows", "a"], ["a", "cr\r"], np.array(["a", "u,v"]),
])
def test_str_cells_holding_a_separator_raise(tmp_path, column):
    # nothing is quoted, so such a cell would add a field or a row
    with pytest.raises(ValueError, match="separator"):
        write_csv(tmp_path / "bad.csv", ["c0", "c1"], [range(2), column])


@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
def test_header_names_holding_a_separator_raise(tmp_path, name):
    with pytest.raises(ValueError, match="separator"):
        write_csv(tmp_path / "bad.csv", ["t", name], [np.zeros(2), np.ones(2)])
    assert not (tmp_path / "bad.csv").exists()


def test_long_str_cells_keep_memory_bounded(tmp_path):
    # str cells are as wide as the longest value of their block, so a
    # column written by str takes short blocks
    columns = (["a"] * 4095 + ["x" * 10_000], np.arange(4096.0))
    path = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = _written(path, *columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _written(path, *columns, writer=reference_artifacts.write_csv)
    assert peak - before < 16 * 2**20


@pytest.mark.parametrize("discipline", simulator.DISCIPLINES)
@pytest.mark.parametrize("with_rewards", [True, False])
def test_every_writer_matches_reference(tmp_path, monkeypatch, discipline, with_rewards):
    # each CSV the library writes, once through write_csv and once
    # through the row-at-a-time writer it replaced; cycles.csv with and
    # without its reward columns
    service = lognormal(-0.3, 0.6)
    path, ledger = simulate(exponential(0.8), service, discipline=discipline, warmup=40.0,
                            horizon=6000.0, seed=21)
    cycles = detect_cycles(path)
    rewards = cycle_rewards(cycles, path, ledger) if with_rewards else None
    samples = inspection.sample_inspections(
        ledger, path, inspection.poisson_epochs((path.initial_time, path.final_time), 0.3, 22))
    grid = np.linspace(0.0, service.quantile(0.999), 300)
    surface = experiments.ResponseSurface(
        grid=np.array([0.9, 1.3]), surfaces={"R": np.array([1.5, np.nan]), "H": np.array([0.1, 2e-7])},
        stderrs={"R": np.array([0.01, 0.2]), "H": np.array([1e-3, 0.0])}, per_seed={}, seeds=())

    def write_all(out):
        out.mkdir()
        ledger.to_csv(out / "customer.csv")
        path.to_csv(out / "path.csv")
        if rewards is None:
            cycles.to_csv(out / "cycles.csv")
        else:
            cycles.to_csv(out / "cycles.csv", rewards.holding, rewards.count)
        samples.to_csv(out / "inspections.csv")
        inspection.pdf_curve_csv(service, grid, out / "pdf_curves.csv")
        experiments.emit_reports(surface, experiments.ExperimentConfig.from_dict(SWEEP_CONFIG), out)
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    got = write_all(tmp_path / "new")
    for module in (simulator, renewal, inspection, experiments):
        monkeypatch.setattr(module, "write_csv", reference_artifacts.write_csv)
    want = write_all(tmp_path / "reference")
    assert len(got) == 6 and got == want
    assert b"nan" in got["inspections.csv"]


def test_write_csv_transient_memory_is_bounded(tmp_path):
    # a customer table of 1e5 rows: the blocks' cell matrices and
    # temporaries, not the table, set the peak
    path, ledger = simulate(exponential(1.0), gamma(2.0, 0.25), horizon=1e5, seed=4)
    assert len(ledger) > 99_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ledger.to_csv(tmp_path / "customer.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 4 * 2**20


def test_cycles_csv_takes_counts_as_a_list(tmp_path):
    path, ledger = simulate(exponential(0.5), exponential(1.0), horizon=300.0, seed=2)
    cycles = detect_cycles(path)
    rewards = cycle_rewards(cycles, path, ledger)
    cycles.to_csv(tmp_path / "array.csv", rewards.holding, rewards.count)
    cycles.to_csv(tmp_path / "list.csv", rewards.holding.tolist(), rewards.count.tolist())
    assert (tmp_path / "list.csv").read_bytes() == (tmp_path / "array.csv").read_bytes()
    with pytest.raises(ValueError, match="finite"):
        cycles.to_csv(tmp_path / "nan.csv", counts=np.full(len(cycles), np.nan))


def test_tables_longer_than_a_block_match_per_row_writers(tmp_path):
    path, ledger = simulate(exponential(0.9), exponential(1.0), warmup=200.0,
                            horizon=25_000.0, seed=5)
    assert len(ledger) > _ROW_BLOCK + 1000 and len(path.times) > 2 * _ROW_BLOCK
    ledger.to_csv(tmp_path / "customer.csv")
    path.to_csv(tmp_path / "path.csv")
    # references: one row at a time, indexing each column per row
    expected_customer = "id,t_A,svc_start,t_mu,t_D,pre_window\n" + "".join(
        f"{i},{float(ledger.arrival_time[i])!r},{float(ledger.service_start[i])!r},"
        f"{float(ledger.service_duration[i])!r},{float(ledger.departure_time[i])!r},"
        f"{int(ledger.pre_window[i])}\n"
        for i in range(len(ledger))
    )
    expected_path = f"tau,n\n{float(path.initial_time)!r},{int(path.initial_count)}\n" + "".join(
        f"{float(t)!r},{int(n)}\n" for t, n in zip(path.times, path.counts)
    )
    assert (tmp_path / "customer.csv").read_bytes() == expected_customer.encode()
    assert (tmp_path / "path.csv").read_bytes() == expected_path.encode()


def test_write_json_format(tmp_path):
    out = tmp_path / "doc.json"
    write_json(out, {"b": [1, 2.5], "a": {"z": None, "y": float("nan")}})
    assert out.read_bytes() == (
        b'{\n  "a": {\n    "y": NaN,\n    "z": null\n  },\n'
        b'  "b": [\n    1,\n    2.5\n  ]\n}\n'
    )


def test_write_jsonl_format(tmp_path):
    out = tmp_path / "rows.jsonl"
    write_jsonl(out, ({"seed": k, "b": [1, 2.5], "a": None} for k in (7, 8)))
    assert out.read_bytes() == (
        b'{"a": null, "b": [1, 2.5], "seed": 7}\n'
        b'{"a": null, "b": [1, 2.5], "seed": 8}\n'
    )
    write_jsonl(out, [])
    assert out.read_bytes() == b""
