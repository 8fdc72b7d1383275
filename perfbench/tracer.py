"""Spans and counters recorded from outside the program.

The tracer wraps public functions and methods of gg1lab and rebinds
every module attribute that refers to them, so calls made inside the
library (``acceptance.simulate``, ``mdp.policy_evaluation`` called by
the solvers, ...) are timed as well as the benchmark's own calls.
Nothing under ``src/`` is edited; ``uninstall`` restores the originals.

Spans are kept in memory as (name, start, end, parent) records; the
self time of a span is its duration minus the time its child spans
cover.  Spans are sequential and properly nested (one thread, one
client), so the children of a span never overlap and that cover is the
sum of their durations.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same pass's span list, -1 for the root

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Target:
    """One function or method to wrap.

    ``name`` is the span name, or a callable on the bound arguments that
    returns it.  ``count`` is called with (counters, bound arguments,
    result) after each traced call.
    """

    owner: object
    attr: str
    name: str | Callable
    count: Callable | None = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def take_pass(self) -> tuple[list[Span], Counter]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], Counter()
        return spans, counters

    # ----------------------------------------------------------- wrapping

    def _wrap(self, fn, target: Target):
        sig = inspect.signature(fn)
        needs_args = callable(target.name) or target.count is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs) if needs_args else None
            if bound is not None:
                bound.apply_defaults()
            name = target.name(bound) if callable(target.name) else target.name
            with self.span(name):
                result = fn(*args, **kwargs)
            if target.count is not None:
                target.count(self.counters, bound, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind each attribute of a gg1lab module
        that refers to a wrapped function."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        swaps = {}
        for target in self.targets:
            orig = _own_attr(target.owner, target.attr)
            wrapper = self._wrap(orig, target)
            swaps[id(orig)] = (orig, wrapper)
            self._set(target.owner, target.attr, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "gg1lab" or mod_name.startswith("gg1lab.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, _own_attr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def _own_attr(owner, attr):
    """A module's attribute, or a function defined on the class itself
    (an inherited one raises KeyError rather than being patched here)."""
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


@dataclass
class PassProfile:
    """What one traced pass did: per span name the summed self time,
    inclusive time and call count, plus the counters the hooks bumped."""

    wall_s: float
    self_s: dict
    total_s: dict
    calls: Counter
    counters: Counter


def profile(spans: list[Span], counters: Counter) -> PassProfile:
    """Reduce one pass's spans (the first is the root) to a profile."""
    if not spans or spans[0].parent != -1:
        raise ValueError("a pass profile needs its root span first")
    child_time = defaultdict(float)
    for span in spans[1:]:
        child_time[span.parent] += span.duration
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = Counter()
    for i, span in enumerate(spans):
        self_s[span.name] += span.duration - child_time[i]
        total_s[span.name] += span.duration
        calls[span.name] += 1
    return PassProfile(spans[0].duration, dict(self_s), dict(total_s), calls, counters)


def write_spans(path, passes: list[list[Span]]) -> None:
    """One JSON object per span: pass, index, name, start, end, parent."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        for p, spans in enumerate(passes):
            for i, s in enumerate(spans):
                fh.write(json.dumps({"pass": p, "index": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent}) + "\n")
