"""The one CSV writer behind every artifact, and with it the one cell format.

Floats (NumPy's included) are written as the shortest text that reads back
to the same double, booleans as ``true``/``false``; any other cell (int,
Fraction, str) keeps the csv module's ``str``. Rows are consumed one at a
time, so a generator never materializes the whole table. A 2-D float64
array skips the csv module: a column whose values all have one bit pattern
(compared as int64, so 0.0 and -0.0 differ) is ``repr``'d once into a row
template, the varying columns are ``repr``'d per row into it, and each row
ends with csv's line terminator. csv writes a float as its ``repr`` and
never quotes one, so the bytes are the same. Rows stream in blocks of
``_BLOCK``, one ``write`` a block, so the text of a whole table is never
held at once. :func:`write_column` writes a float array one value per line,
the same bytes as a table of one column, in blocks the same way.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

_END = csv.excel.lineterminator  # the line end of csv.writer's default dialect
_BLOCK = 1024  # rows (or column values) formatted per write, not the whole table


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
        _write_floats(target, rows)
    else:
        writer.writerows([_cell(v) for v in row] for row in rows)


def _write_floats(target, rows: np.ndarray) -> None:
    """The rows of a 2-D float64 array, ``_BLOCK`` rows to one ``write``. A
    column whose values share one bit pattern (so 0.0 and -0.0 differ) is
    ``repr``'d once into the row template; the others fill its ``{!r}``s."""
    if not len(rows):
        return
    bits = rows.view(np.int64)
    constant = (bits == bits[0]).all(axis=0)
    template = ",".join("{!r}" if not same else repr(v)
                        for same, v in zip(constant.tolist(), rows[0].tolist())) + _END
    varying = np.flatnonzero(~constant)
    for start in range(0, len(rows), _BLOCK):
        block = rows[start:start + _BLOCK, varying].tolist()
        target.write("".join(itertools.starmap(template.format, block)))


def write_column(target, values) -> None:
    """Write the 1-D float array ``values`` to the open text handle
    ``target``, one ``repr`` per line, a block of Python floats to one
    ``write``."""
    for start in range(0, len(values), _BLOCK):
        target.write(_END.join(map(repr, values[start:start + _BLOCK].tolist())) + _END)
