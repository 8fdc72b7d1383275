"""The one rule for the numbers callers pass in: a refused value raises
ValueError naming the parameter, and an accepted one comes back as a
Python number, so no numpy scalar reaches a result or a writer."""

from __future__ import annotations

import math
import numbers

import numpy as np


def _bounds(lo, hi, above: bool) -> str:
    lo, hi = (repr(x if isinstance(x, int) else float(x)) for x in (lo, hi))
    if hi != "inf":
        return f" in {'(' if above else '['}{lo}, {hi}]"
    return "" if lo == "-inf" else f" {'>' if above else '>='} {lo}"


def real(name: str, value, lo=-math.inf, hi=math.inf, *, above: bool = False):
    """``value`` if it is a finite real number in [lo, hi] (in (lo, hi]
    with ``above``): a Python int for a Python int, else a Python float.
    bool, str, None, anything not a ``numbers.Real``, NaN, the infinities
    and an int too large for a float raise ValueError."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    try:
        x = float(value) if ok else math.nan
    except OverflowError:
        x = math.nan
    if not (math.isfinite(x) and (lo < x if above else lo <= x) and x <= hi):
        raise ValueError(f"{name} must be a finite real number{_bounds(lo, hi, above)}, "
                         f"got {value!r}")
    return int(value) if isinstance(value, int) else x


def integer(name: str, value, lo=0, hi=math.inf) -> int:
    """``value`` as a Python int in [lo, hi]: an int, a numpy integer or
    an integral float; bool and the rest raise ValueError."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer())
    if isinstance(value, (bool, np.bool_)) or not integral or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer{_bounds(lo, hi, False)}, got {value!r}")
    return int(value)
