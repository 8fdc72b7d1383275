"""Run one workload, measure it, check it, and assemble the result.

One process, one client, closed loop: each pass starts after the
previous one returns, and within a pass each call starts after the
previous call returns.  Passes repeat until the next one would end
past ``seconds``, and at least ``MIN_PASSES`` always run, so that a
workload whose pass is longer than the run still gets a median that
one disturbed pass cannot set.  Timings are medians over passes.

With ``trace`` off the result holds the end-to-end metrics.  With it
on, the run first measures untraced passes for ``seconds``, then
installs the tracer and measures traced passes for ``seconds`` more, and
the result holds the per-layer metrics of the traced passes plus the
difference between the two medians (``trace.overhead_s``).  Per-layer
metrics have no bound, so a traced run needs only one pass per phase;
six ``verify`` passes would take over two minutes.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from . import layers, record, workloads
from .tracer import Tracer, profile, write_spans

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# On a shared 2-vCPU VM the CPU ran up to 1.75x slower in spells of several
# seconds, and the quartile spread of wall_s over ten seeds reached 21%,
# so wall_s gets the widest bound allowed, as set-up does.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

MIN_PASSES = 3
OUT_DIR = ".perfbench_out"  # records, spans and scratch files, under the checkout root


@dataclass
class Measured:
    durations: list[float] = field(default_factory=list)
    checks: list[workloads.Checked] = field(default_factory=list)
    profiles: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def measure(workload, budget: float, tracer: Tracer | None = None, min_passes: int = MIN_PASSES) -> Measured:
    """Timed passes of ``workload``, each followed by its untimed check."""
    m = Measured()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.active = True
        t = time.perf_counter()
        with tracer.span("bench.pass") if tracer is not None else nullcontext():
            outputs = workload.run_pass()
        m.durations.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.active = False
            spans, counters = tracer.take_pass()
            m.spans.append(spans)
            m.profiles.append(profile(spans, counters))
        m.checks.append(workload.check(outputs))
        del outputs  # free this pass's arrays before the next one
        if len(m.durations) >= min_passes and \
                time.perf_counter() - start + statistics.median(m.durations) > budget:
            return m


@contextmanager
def _workdir(out_dir: str, prefix: str):
    """A fresh directory for the workload's files, removed afterwards."""
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=prefix, dir=out_dir)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _median_layers(profiles) -> dict[str, float]:
    per_pass = [layers.layer_metrics(p) for p in profiles]
    return {name: statistics.median(d[name] for d in per_pass) for name in per_pass[0]}


def run(name: str, seed: int, seconds: float, trace: bool, *, root: str, started: float,
        quick: bool = False) -> tuple[dict, dict]:
    """Run a workload; return (result, run record).

    ``started`` is the perf_counter reading taken when the process
    began; set-up time runs from there to the first timed call.
    """
    out_dir = os.path.join(root, OUT_DIR)
    min_passes = 1 if trace else MIN_PASSES
    with _workdir(out_dir, f"work-{name}-") as workdir:
        workload = workloads.WORKLOADS[name](seed, workdir, quick)
        workload.setup()
        setup_s = time.perf_counter() - started
        plain = measure(workload, seconds, min_passes=min_passes)
        traced = None
        if trace:
            tracer = Tracer(layers.targets())
            try:
                tracer.install()
                traced = measure(workload, seconds, tracer, min_passes)
            finally:
                tracer.uninstall()

    checks = plain.checks + (traced.checks if traced else [])
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    digests = sorted({c.digest for c in checks})
    wall_s = statistics.median(plain.durations)
    if traced is None:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(wall_s, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        values = _median_layers(traced.profiles)
        values["trace.overhead_s"] = statistics.median(traced.durations) - wall_s
        values["customers_per_s"] = statistics.median(c.customers for c in plain.checks) / wall_s
        values["error_rate"] = failed / attempted
        metrics = {n: _metric(values[n], layers.UNITS[n]) for n, _, _ in layers.PER_LAYER}
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    run_record = {
        **record.run_record(root),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "passes": len(plain.durations),
        "traced_passes": len(traced.durations) if traced else 0,
        "pass_s": plain.durations,
        "traced_pass_s": traced.durations if traced else [],
        "setup_s": setup_s,
        "digests": digests,
        "problems": [p for c in checks for p in c.problems][:50],
    }
    if traced is not None:
        unreached = [n for n, v in values.items() if v == 0 and n in layers.UNITS]
        run_record["not_reached"] = unreached
        write_spans(os.path.join(out_dir, f"{name}-seed{seed}-spans.jsonl"), traced.spans)
    with open(os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"record": run_record, "result": result}, fh, indent=1)
    return result, run_record
