"""The byte format of every CSV and JSON artifact.

CSV: a header row, then one row per index of equal-length columns;
fields joined by "," and rows ended by "\\n" on every platform.  Floats
are written as ``repr`` (``nan``, ``inf``, ``-0.0``), integers in
decimal, bool arrays as 0/1, strings as is.  JSON: sorted keys, a
2-space indent and one trailing "\\n".  JSON lines: sorted keys, one
compact object per line.  No timestamps or paths enter any of them, so
reruns compare byte for byte.
"""

from __future__ import annotations

import json

import numpy as np

# rows turned into Python objects at a time, so no column is ever held
# as one whole Python list
_ROW_BLOCK = 16384


def write_csv(path, header, columns) -> None:
    """Write ``columns`` (arrays, lists or ranges) under the names ``header``."""
    n = len(columns[0])
    if len(header) != len(columns) or any(len(c) != n for c in columns):
        raise ValueError("need one name per column and columns of equal length")
    row = ",".join("%d" if getattr(c, "dtype", None) == bool else "%s" for c in columns) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _ROW_BLOCK):
            block = [c[lo:lo + _ROW_BLOCK] for c in columns]
            block = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
            fh.writelines(row % values for values in zip(*block))


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
