"""The one CSV writer behind every artifact, and with it the one cell format.

Floats (NumPy's included) are written as the shortest text that reads back
to the same double, booleans as ``true``/``false``; any other cell (int,
Fraction, str) keeps the csv module's ``str``. Rows are consumed one at a
time, so a generator never materializes the whole table.
"""

from __future__ import annotations

import csv

import numpy as np


def _cell(v):
    if isinstance(v, float):  # bool is not a float, so the order is free; floats dominate
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return v


def write_csv(target, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``target``, an open text handle
    or a path (opened for writing, with csv's own newline handling)."""
    if not hasattr(target, "write"):
        with open(target, "w", newline="") as fh:
            write_csv(fh, header, rows)
        return
    writer = csv.writer(target)
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
