"""The byte format of every CSV and JSON artifact.

CSV: a header row, then one row per index of equal-length 1-D columns;
fields joined by "," and rows ended by "\\n" on every platform.  Floats
are written as ``repr`` (``nan``, ``inf``, ``-0.0``), integers in
decimal, bool arrays as 0/1, and every other value (list items,
strings, other dtypes) as ``str``.  Nothing is quoted, so a header
name or ``str`` cell holding ",", "\\n" or "\\r" raises ValueError.
JSON: sorted keys, a 2-space indent and one trailing "\\n".  JSON
lines: sorted keys, one compact object per line.  No timestamps or
paths enter any of them, so reruns compare byte for byte.

``write_csv`` builds the text of a block of rows in NumPy.  Each column
becomes a ``uint8`` cell matrix holding each row's text in one window
[start, end) of its cells; the matrices and separators are laid side by
side, one boolean compress keeps the windows, and one write stores the
block.  Integer arrays, ranges and bool arrays become digits.  A float
x with 1e-4 <= |x| < 1e16 gets the digits of ``repr`` (the shortest
decimal that reads back as x, and of those the nearest to x) from exact
integer arithmetic:

- x = m * 2**q with m of 53 bits.  Scale by 10**s, s = 17 -
  floor(log10|x|): y = x * 10**s = 4m * 5**s * 2**(q+s-2) lies within
  rounding of [1e17, 1e18).  5**s < 2**52, so 4m * 5**s is one
  64 x 64 -> 128-bit product, taken in 32-bit halves; shifting it gives
  floor(y) and whether y is an integer.
- The decimals that read back as x lie within half a gap between
  neighbouring floats of it: y -+ 2P, P = 5**s * 2**(q+s-2).  Rounded
  inward to integers, with an end that is an integer left out, it bounds
  every candidate; it is more than 11 and at most 223 wide.
- The shortest candidates are the multiples of the largest 10**j in the
  interval.  Of those, the nearest to y is the one below or above it.
  When y lies exactly halfway between them, ``repr`` picks.
- The digits are laid out around a fixed decimal-point cell: the
  integer part right-aligned before it, the fraction left-aligned after
  it, so that each row's text is one window.

Two rules of round-half-even reading never decide a digit in this range,
so the search leaves them out.  An end that is an integer belongs to the
interval when m is even; but an end is an integer only when q + s - 2 >=
-1, that is x >= 2**51, and then it is x -+ 1/4, x -+ 1/2, or x -+ 1
with x even: never a shorter decimal than x and never nearer to it.
Below a power of two the gap is half the gap above; the interval keeps
the wider gap, and ``test_float_text_at_notation_and_binary_boundaries``
writes all 67 powers of two of the range, whose wider stretch holds no
shorter decimal.  (NumPy's own float-to-str cast gives ``repr``'s bytes
too, but takes longer per value than ``repr``.)

Zero and -0.0 take the same layout.  Every other float (|x| < 1e-4 or
|x| >= 1e16, which ``repr`` writes with an exponent; nan and inf; ties)
is written by ``repr`` one value at a time, and so is every value of a
list or of another dtype, by ``str``; such str cells are as wide as the
longest value in their block, so a table with one takes short blocks.
``tests/reference_artifacts.py`` keeps the row-at-a-time writer that
this replaced, as the oracle of the tests.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided

# rows built at a time: a block's cell matrices and temporaries peak
# near 1.5 MB, and the fixed cost of its NumPy calls stays small per row
_ROW_BLOCK = 4096
# rows a block when a column is written by str: its cells are as wide as
# the longest value in the block
_STR_BLOCK = 256

_DOT, _MINUS, _ZERO = ord("."), ord("-"), ord("0")
_U32, _MANTISSA, _HIDDEN = np.uint64(0xFFFF_FFFF), np.uint64(2**52 - 1), np.uint64(2**52)
_POW5 = np.array([5**k for k in range(23)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_POW10_U64 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
# "0000" .. "9999", each 4 ASCII bytes read as one uint32
_DIGITS4 = np.arange(10_000, dtype=np.uint16)
_DIGITS4 = np.stack([_DIGITS4 // 10**k % 10 for k in (3, 2, 1, 0)], axis=1) + _ZERO
_DIGITS4 = _DIGITS4.astype(np.uint8).view(np.uint32)[:, 0]
# row k is True in its first k places, so a window [start, end) of up to
# 64 cells is _FIRST[end] and not _FIRST[start]
_FIRST = np.tri(65, 64, -1, dtype=bool)


def write_csv(path, header, columns) -> None:
    """Write ``columns`` (1-D arrays, lists or ranges) under the names
    ``header``; a column of another length, an array that is not 1-D,
    or a name or str cell holding ",", "\\n" or "\\r" raises
    ValueError."""
    n = len(columns[0])
    if len(header) != len(columns) or any(len(c) != n for c in columns):
        raise ValueError("need one name per column and columns of equal length")
    if any(c.ndim != 1 for c in columns if isinstance(c, np.ndarray)):
        raise ValueError("every array column must be 1-D")
    _check_text(header)
    # the text-mode file only fixes the encoding of the header and the
    # str cells; the rows go to its binary buffer as built
    with open(path, "w", newline="") as text:
        fh, encoding = text.buffer, text.encoding
        fh.write((",".join(header) + "\n").encode(encoding))
        writers = [_cell_writer(c, encoding) for c in columns]
        rows = min(block for _, block in writers)
        for lo in range(0, n, rows):
            fh.write(_rows([cells(c[lo:lo + rows]) for (cells, _), c in zip(writers, columns)]))


def write_json(path, payload) -> None:
    """Write ``payload`` as one JSON document."""
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_jsonl(path, rows) -> None:
    """Write an iterable of dicts as one JSON object per line."""
    with open(path, "w", newline="") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _cell_writer(column, encoding):
    """The function that turns a block of ``column`` into (cells, start,
    end), and the rows it takes a block."""
    if isinstance(column, range):
        return _range_cells, _ROW_BLOCK
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "b":
        return _bool_cells, _ROW_BLOCK
    if kind in ("i", "u"):
        return _int_cells, _ROW_BLOCK
    if kind == "f" and column.dtype.itemsize <= 8:
        return _float_cells, _ROW_BLOCK
    return partial(_str_cells, encoding=encoding), _STR_BLOCK


def _rows(cells) -> np.ndarray:
    """The bytes of one block: each column's (cells, start, end) window,
    joined by "," and ended by "\\n".  Empties the list ``cells``, so
    that each matrix is freed once it is copied."""
    n = len(cells[0][0])
    width = sum(c.shape[1] + 1 for c, _, _ in cells)
    text = np.empty((n, width), dtype=np.uint8)
    keep = np.empty((n, width), dtype=bool)
    at = 0
    cells.reverse()
    while cells:
        c, start, end = cells.pop()
        w = c.shape[1]
        text[:, at:at + w] = c
        _mark_windows(start, end, keep[:, at:at + w])
        text[:, at + w] = ord("," if cells else "\n")
        keep[:, at + w] = True
        at += w + 1
    return text[keep]


def _mark_windows(start, end, keep) -> None:
    """Set row i of ``keep`` True on [start[i], end[i]) and False
    elsewhere, 64 cells at a time."""
    for at in range(0, keep.shape[1], 64):
        part = keep[:, at:at + 64]
        w = part.shape[1]
        first = _FIRST[:w + 1, :w]
        np.greater(np.take(first, np.clip(end - at, 0, w), axis=0),
                   np.take(first, np.clip(start - at, 0, w), axis=0), out=part)


def _str_cells(block, encoding):
    """The ``str`` of each value, left-aligned."""
    values = block.tolist() if isinstance(block, np.ndarray) else block
    text = [str(v) for v in values]
    _check_text(text)
    data = [t.encode(encoding) for t in text]
    width = max(max(map(len, data)), 1)
    cells = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(len(data), width)
    return cells, np.zeros(len(data), dtype=np.int64), np.array([len(d) for d in data])


def _check_text(fields):
    """Raise ValueError for a field that would split its row or table:
    the writer quotes nothing."""
    for field in fields:
        if "," in field or "\n" in field or "\r" in field:
            raise ValueError(f"CSV field {field!r} holds a field or row separator")


def _range_cells(block):
    return _int_cells(np.arange(block.start, block.stop, block.step))


def _bool_cells(block):
    cells = (block.astype(np.uint8) + _ZERO)[:, None]
    return cells, np.zeros(len(block), dtype=np.int64), np.ones(len(block), dtype=np.int64)


def _int_cells(block):
    """Decimal text of integers, right-aligned in 21 cells: a sign and
    the 20 digits of any int64 or uint64."""
    if block.dtype.kind == "u":
        neg = np.zeros(len(block), dtype=bool)
        mag = block.astype(np.uint64)
    else:
        block = block.astype(np.int64)
        neg = block < 0
        mag = block.astype(np.uint64)
        mag[neg] = np.uint64(0) - mag[neg]
    cells = np.empty((len(block), 21), dtype=np.uint8)
    cells[:, 1:] = _DIGITS4[_fours(mag)].view(np.uint8)
    ndigits = 1 + np.searchsorted(_POW10_U64, mag, side="right")
    start = 21 - ndigits - neg
    cells[neg, start[neg]] = _MINUS
    lo = int(start.min())
    return cells[:, lo:], start - lo, np.full(len(block), 21 - lo)


def _float_cells(block):
    """``repr`` text of floats, laid out around a decimal point at cell
    17: the sign and integer part in cells 0..16, the fraction in 18..41.
    Only the cells some row's window reaches are built."""
    x = np.ascontiguousarray(block, dtype=np.float64)
    n = len(x)
    mag = np.abs(x)
    exact = (mag >= 1e-4) & (mag < 1e16)
    zero = mag == 0.0
    digits, f, ndigits, tie = _shortest(np.where(exact, mag, 1.0))
    digits[zero] = 0
    neg = np.signbit(x)
    start = 17 - np.maximum(ndigits - f, 1) - neg
    end = 18 + np.maximum(f, 1)
    rest = np.flatnonzero(~(exact | zero) | tie)
    texts = [repr(v).encode() for v in x[rest].tolist()]
    most = max(map(len, texts), default=0)
    lo = int(start.min())
    hi = max(int(end.max()), lo + most)
    # |x| = digits * 10**-f with -15 <= f <= 20.  Each row's 20 digits
    # go to bytes 20..39 of a row of 80 "0"s.  The 41 places from the
    # sign's to 10**-24 then start at byte 23 - f: the last digit, at
    # 10**-f, is place 16 + f.
    padded = np.empty((n, 20), dtype=np.uint32)
    padded.fill(_DIGITS4[0])
    padded[:, 5:10] = _DIGITS4[_fours(digits)]
    flat = padded.view(np.uint8).ravel()
    width = hi - 1 - lo
    windows = as_strided(flat, (len(flat) - width + 1, width), (1, 1))
    cut = windows[np.arange(23 + lo, 80 * n, 80) - f]
    point = 17 - lo
    cells = np.empty((n, hi - lo), dtype=np.uint8)
    cells[:, :point] = cut[:, :point]
    cells[:, point] = _DOT
    cells[:, point + 1:] = cut[:, point:]
    start -= lo
    end -= lo
    cells[neg, start[neg]] = _MINUS
    if texts:
        cells[rest, :most] = np.array(texts, dtype=f"S{most}").view(np.uint8).reshape(-1, most)
        start[rest] = 0
        end[rest] = [len(t) for t in texts]
    return cells, start, end


def _fours(values: np.ndarray) -> np.ndarray:
    """The 4-digit groups of nonnegative integers below 10**20: (n,) -> (n, 5)."""
    # NumPy divides by a constant far faster than it takes a remainder
    fours = np.empty((len(values), 5), dtype=np.int64)
    high = values // 10**12
    low = (values - high * 10**12).astype(np.int64)
    high = high.astype(np.int64)
    middle = low // 10**8
    low -= middle * 10**8
    fours[:, 0] = quotient = high // 10**4
    fours[:, 1] = high - quotient * 10**4
    fours[:, 2] = middle
    fours[:, 3] = quotient = low // 10**4
    fours[:, 4] = low - quotient * 10**4
    return fours


def _shortest(mag):
    """For normal positive floats: (digits, f, ndigits, tie) with
    ``digits * 10**-f`` the shortest decimal that reads back as each
    value and is nearest to it, ``ndigits`` the length of ``digits``;
    ``tie`` marks values halfway between two such decimals."""
    bits = mag.view(np.uint64)
    m = (bits & _MANTISSA) | _HIDDEN
    s = 17 - np.floor(np.log10(mag)).astype(np.int64)
    shift = (bits >> 52).astype(np.int64) + (s - 1077)  # q + s - 2, q = exponent - 1075
    left = np.maximum(shift, 0).astype(np.uint64)
    right = np.maximum(-shift, 0).astype(np.uint64)
    # y = x * 10**s = (4m * 5**s) * 2**shift; units of 2**-right below
    five = _POW5[s]
    high, low = _mul128(m << (left + np.uint64(2)), five)
    floor_y = (low >> right) | (high << (np.uint64(64) - right))
    below = (np.uint64(1) << right) - np.uint64(1)
    frac_y = low & below
    # the interval's ends y -+ 2P, rounded inward to integers; an end that
    # is an integer already is left out
    gap = five << (left + np.uint64(1))
    upper = frac_y + gap
    top = floor_y + (upper >> right) - ((upper & below) == 0)
    lower = gap - frac_y
    bottom = floor_y - (lower >> right) + ((lower & below) == 0)
    y, top, bottom = floor_y.view(np.int64), top.view(np.int64), bottom.view(np.int64)
    # the largest j with a multiple of 10**j in [bottom, top], that is
    # with top // 10**j > (bottom - 1) // 10**j.  The interval is more
    # than 11 wide, so j >= 1, and at most 223 wide, so j >= 4 needs the
    # digits of top from place 3 up to j - 1 to be 0.
    under = bottom - 1
    j = 1 + (top // 100 > under // 100)
    live = np.flatnonzero(top // 1000 > under // 1000)
    k = 3
    while live.size:
        j[live] = k
        live = live[top[live] // _POW10[k] % 10 == 0]
        k += 1
    step = _POW10[j]
    down = y // step
    down_y = down * step
    twice = 2 * (y - down_y)
    halfway = twice == step
    tie = halfway & (frac_y == 0)
    # the nearer multiple (a tie goes to repr), kept inside the interval
    up = ((twice > step) | (halfway ^ tie) | (down_y < bottom)) & (down_y + step <= top)
    chosen = down_y + up * step  # 17 to 19 digits
    ndigits = 17 + (chosen >= 10**17) + (chosen >= 10**18) - j
    return down + up, s - j, ndigits, tie


def _mul128(a, b):
    """(high, low) 64-bit halves of the products of uint64 arrays with
    a < 2**58 and b < 2**53, so that the middle sum cannot overflow."""
    a0, a1, b0, b1 = a & _U32, a >> 32, b & _U32, b >> 32
    low = a0 * b0
    middle = (low >> 32) + a0 * b1 + a1 * b0
    return a1 * b1 + (middle >> 32), (middle << 32) | (low & _U32)
