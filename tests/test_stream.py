"""The run a chunk at a time (``simulator._stream``) and the folds over
it (``metrics._Window``, ``renewal._Cycles``, ``inspection._Inspections``)
against the oracles: the event engine in ``reference_engine``, the
whole-array report in ``reference_metrics`` and the whole-run cycle sums
in ``reference_renewal``, bit for bit."""

import numpy as np
import pytest

import reference_engine
import reference_metrics
import reference_renewal as ref
from gg1lab import inspection, metrics, renewal, simulator
from gg1lab.distributions import deterministic, exponential, gamma
from gg1lab.metrics import compute_report
from gg1lab.renewal import detect_cycles
from gg1lab.simulator import simulate

DISCIPLINES = ["fcfs", "lcfs", "random-order"]

# M/G/1 at rho 0.8 over enough customers for many chunks and cycles; D/D/1
# whose every departure meets the next arrival, so ties fall on the last
# departure of chunks; the same with departure-only instants between
RUNS = {
    "mg1": dict(arrival=exponential(1.0), service=gamma(2.0, 0.4), horizon=30_000.0),
    "dd1-ties": dict(arrival=deterministic(0.5), service=deterministic(0.5), horizon=12_000.0),
    "dd1-quarter": dict(arrival=deterministic(0.5), service=deterministic(0.25), horizon=12_000.0),
}


def chunks_of(run, discipline, warmup, seed=7, **kw):
    spec = dict(RUNS[run], **kw)
    return list(simulator._stream(spec.pop("arrival"), spec.pop("service"), discipline=discipline,
                                  warmup=warmup, seed=seed, **spec))


def reference_run(run, discipline, warmup, seed=7, **kw):
    spec = dict(RUNS[run], **kw)
    return reference_engine.simulate(spec.pop("arrival"), spec.pop("service"), discipline=discipline,
                                     warmup=warmup, seed=seed, **spec)


def fold(folder, chunks):
    for chunk in chunks:
        folder.add(chunk)
    return folder


def assert_same_report(got, want):
    assert got.to_dict().keys() == want.to_dict().keys()
    for name, value in want.to_dict().items():
        assert repr(got.to_dict()[name]) == repr(value), name


@pytest.mark.parametrize("warmup", [0.0, 40.0])
@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_chunks_tile_the_reference_run(discipline, run, warmup):
    chunks = chunks_of(run, discipline, warmup)
    path, ledger = reference_run(run, discipline, warmup)
    assert len(chunks) > 3
    # each chunk's first bound is the one before's last, and together
    # they are the reference path's segments
    for before, after in zip(chunks, chunks[1:]):
        assert before.bounds[-1] == after.bounds[0]
    bounds = np.concatenate([c.bounds[:-1] for c in chunks] + [chunks[-1].bounds[-1:]])
    levels = np.concatenate([c.levels for c in chunks])
    want_bounds, want_levels = reference_metrics.segments(path)
    assert bounds.tobytes() == want_bounds.tobytes()
    assert levels.tobytes() == want_levels.astype(np.int64).tobytes()
    # the records are the ledger's rows, in slot order
    customer = (np.arange(len(ledger)) if chunks[0].customer is None
                else np.concatenate([c.customer for c in chunks]))
    assert sorted(customer.tolist()) == list(range(len(ledger)))
    for field, column in zip(simulator._Chunk._fields[:5],
                             ("arrival_time", "service_start", "service_duration",
                              "departure_time", "pre_window")):
        got = np.concatenate([getattr(c, field) for c in chunks])
        assert got.tobytes() == getattr(ledger, column)[customer].tobytes(), field
    starts = np.concatenate([c.start for c in chunks])
    assert np.all(starts[1:] >= starts[:-1])  # slot order is service order


@pytest.mark.parametrize("warmup", [0.0, 40.0])
@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_nested_window_reports_match_fresh_reference_runs(discipline, run, warmup):
    # the window ends: a fifth of the run, one on an event (D/D/1: on an
    # arrival), one on a chunk's last departure, and the run's own end
    chunks = chunks_of(run, discipline, warmup)
    horizon = RUNS[run]["horizon"]
    on_chunk = float(chunks[2].departure[-1]) if len(chunks[2].departure) else warmup + 1.0
    ends = sorted({warmup + horizon / 5, warmup + 1000.0, on_chunk, warmup + horizon})
    windows = [metrics._Window(warmup, end) for end in ends]
    for chunk in chunks:
        for window in windows:
            window.add(chunk)
    compared = 0
    for end, window in zip(ends, windows):
        ref_path, ref_ledger = reference_run(run, discipline, warmup, horizon=end - warmup)
        if ref_path.final_time != end:  # the horizon does not round back to this end
            continue
        want = reference_metrics.compute_report(ref_path, ref_ledger, 1.3)
        assert_same_report(window.report(1.3), want)
        compared += 1
    assert compared >= 3


def test_chunk_boundary_window_end_is_taken():
    # a window that ends exactly at a chunk's last departure, whose event
    # the stream holds back for the next chunk
    chunks = chunks_of("dd1-quarter", "fcfs", 0.0)
    end = float(chunks[2].departure[-1])
    assert chunks[3].bounds[0] < end < chunks[3].bounds[-1]
    window = fold(metrics._Window(0.0, end), chunks)
    ref_path, ref_ledger = reference_run("dd1-quarter", "fcfs", 0.0, horizon=end)
    assert ref_path.final_time == end and end in ref_path.times
    assert_same_report(window.report(1.0), reference_metrics.compute_report(ref_path, ref_ledger))


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_three_windows_in_one_pass_are_the_restricted_reports(discipline, run):
    warmup = 25.0
    horizons = [RUNS[run]["horizon"] / 100, RUNS[run]["horizon"] / 10, RUNS[run]["horizon"]]
    windows = [metrics._Window(warmup, warmup + h) for h in horizons]
    for chunk in chunks_of(run, discipline, warmup):
        for window in windows:
            window.add(chunk)
    path, ledger = simulate(RUNS[run]["arrival"], RUNS[run]["service"], discipline=discipline,
                            warmup=warmup, horizon=horizons[-1], seed=7)
    for h, window in zip(horizons, windows):
        cut = warmup + h
        want = compute_report(path.restrict(cut), ledger.restrict(cut), 0.7)
        assert_same_report(window.report(0.7), want)


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_a_window_over_a_whole_run_is_the_restricted_report(monkeypatch, discipline):
    # tiny blocks: the warmup's rows come ahead of the first segments, and
    # the window closes inside a block
    monkeypatch.setattr(metrics, "_BLOCK", 8)
    path, ledger = simulate(deterministic(0.5), deterministic(0.25), discipline=discipline,
                            warmup=5.0, horizon=60.0, seed=1)
    for end in (5.25, 10.0, 10.25, 33.3, 65.0):
        got = fold(metrics._Window(5.0, end), metrics._chunks(path, ledger)).report(2.0)
        assert_same_report(got, compute_report(path.restrict(end), ledger.restrict(end), 2.0))


def assert_same_cycles(found, path, ledger):
    """Cycle batches of the fold against the whole-run oracles."""
    cycles = detect_cycles(path)
    oracle = ref.detect_cycles(path)
    assert len(cycles) > 5
    got = {name: np.concatenate([getattr(c, name) for c, _ in found])
           for name in ("busy_start", "busy_end", "cycle_end")}
    for name, value in got.items():
        assert value.tobytes() == getattr(oracle, name).tobytes(), name
    rewards = ref.local_cycle_rewards(cycles, path, ledger)
    for name in ("holding", "response", "count"):
        value = np.concatenate([getattr(r, name) for _, r in found])
        assert value.tobytes() == getattr(rewards, name).tobytes(), name
    return ref.totals_of(cycles, rewards)


@pytest.mark.parametrize("block", [None, 16])
@pytest.mark.parametrize("warmup", [0.0, 40.0])
@pytest.mark.parametrize("run", ["mg1", "dd1-quarter"])
@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_cycle_fold_matches_the_whole_run_oracles(monkeypatch, discipline, run, warmup, block):
    if block is not None:  # tiny blocks: cycles span many blocks of the sums
        monkeypatch.setattr(metrics, "_BLOCK", block)
    chunks = chunks_of(run, discipline, warmup)
    path, ledger = reference_run(run, discipline, warmup)
    cycles = renewal._Cycles(totals=True)
    found = [closed for closed in map(cycles.add, chunks) if closed is not None]
    assert len(found) > 1
    assert cycles.totals() == assert_same_cycles(found, path, ledger)
    assert [type(v) for v in cycles.totals()] == [int, float, float, float, int]


def test_cycle_fold_over_a_ledger_matches_the_stream():
    path, ledger = simulate(exponential(0.9), exponential(1.0), discipline="lcfs", warmup=5.0,
                            horizon=20_000.0, seed=3)
    streamed = fold(renewal._Cycles(totals=True), simulator._stream(
        exponential(0.9), exponential(1.0), discipline="lcfs", warmup=5.0, horizon=20_000.0, seed=3))
    whole = renewal._Cycles(rewards=False, totals=True)  # totals imply rewards
    for _ in whole.over(path, ledger):
        pass
    assert whole.totals() == streamed.totals()
    assert streamed.totals() == ref.totals_of(detect_cycles(path),
                                              renewal.cycle_rewards(detect_cycles(path), path, ledger))


@pytest.mark.parametrize("warmup", [0.0, 30.0])
@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_inspection_fold_matches_sample_inspections(discipline, warmup):
    arrival, service, horizon = exponential(0.7), gamma(0.5, 2.0), 20_000.0
    epochs = inspection.poisson_epochs((warmup, warmup + horizon), 0.3, 11)
    samples = inspection._Inspections(epochs, (warmup, warmup + horizon))
    for chunk in simulator._stream(arrival, service, discipline=discipline, warmup=warmup,
                                   horizon=horizon, seed=4):
        samples.add(chunk.start, chunk.departure)
    got = samples.samples()
    path, ledger = simulate(arrival, service, discipline=discipline, warmup=warmup,
                            horizon=horizon, seed=4)
    want = inspection.sample_inspections(ledger, path, epochs)
    assert 0 < got.busy.sum() < len(got)
    for name in ("inspect_time", "busy", "age", "residual", "total"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_inspection_fold_refuses_epochs_outside_the_window():
    with pytest.raises(ValueError, match="within the window"):
        inspection._Inspections([0.5, 11.0], (0.0, 10.0))


def test_the_event_cap_raises_from_the_stream_as_from_simulate():
    args = (exponential(1.0), exponential(1.1))
    with pytest.raises(simulator.EventCapExceeded) as from_stream:
        for _ in simulator._stream(*args, horizon=5_000.0, seed=2, event_cap=3_000):
            pass
    with pytest.raises(simulator.EventCapExceeded) as from_simulate:
        simulate(*args, horizon=5_000.0, seed=2, event_cap=3_000)
    with pytest.raises(simulator.EventCapExceeded) as from_engine:
        reference_engine.simulate(*args, horizon=5_000.0, seed=2, event_cap=3_000)
    for exc in (from_stream.value, from_simulate.value):
        assert (exc.events, exc.time_reached, exc.queue_length) == (
            from_engine.value.events, from_engine.value.time_reached, from_engine.value.queue_length)


@pytest.mark.parametrize("discipline", ["lcfs", "random-order"])
def test_the_queue_keeps_its_oldest_customer_without_a_scan_per_chunk(monkeypatch, discipline):
    # overloaded: the queue grows to thousands, and the oldest waits long
    fill, checked = simulator._Queue.fill, []

    def fill_and_check(queue, *args):
        owners = fill(queue, *args)
        checked.append(queue.oldest == min(queue._waiting, default=queue._joined))
        return owners

    monkeypatch.setattr(simulator._Queue, "fill", fill_and_check)
    with pytest.raises(simulator.EventCapExceeded):
        simulate(exponential(2.0), exponential(1.0), discipline=discipline, horizon=2_000.0,
                 seed=4, event_cap=200_000)
    assert len(checked) > 5 and all(checked)
