"""The row-at-a-time CSV writer that ``gg1lab.artifacts.write_csv``
replaced, kept verbatim as the byte oracle of ``test_artifacts.py``: each
row is one ``"%s,...\\n" % values`` of Python objects, so every float is
its ``repr``.
"""

from __future__ import annotations

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
