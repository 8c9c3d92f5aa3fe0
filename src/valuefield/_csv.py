"""The one CSV writer behind every artifact, and with it the one cell format.

Floats (NumPy's included) are written as the shortest text that reads back
to the same double, booleans as ``true``/``false``; any other cell (int,
Fraction, str) keeps the csv module's ``str``. Rows are consumed one at a
time, so a generator never materializes the whole table. A 2-D float64
array skips the csv module: each row becomes Python floats whose ``repr``s
are joined by commas and ended with csv's line terminator, one row at a
time. csv writes a float as its ``repr`` and never quotes one, so the bytes
are the same. :func:`write_column` writes a float array one value per line,
the same bytes as a table of one column.
"""

from __future__ import annotations

import csv

import numpy as np

_END = csv.excel.lineterminator  # the line end of csv.writer's default dialect
_BLOCK = 4096  # write_column holds this many Python floats at a time, not the whole array


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
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
        target.writelines(",".join(map(repr, row)) + _END
                          for row in map(np.ndarray.tolist, rows))
    else:
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_column(target, values) -> None:
    """Write the 1-D float array ``values`` to the open text handle
    ``target``, one ``repr`` per line, a block of Python floats at a time."""
    for start in range(0, len(values), _BLOCK):
        target.writelines(f"{v!r}{_END}" for v in values[start:start + _BLOCK].tolist())
