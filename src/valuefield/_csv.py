"""The one CSV writer behind every artifact, and with it the one cell format.

Booleans are written as ``true``/``false``; every other cell keeps the csv
module's ``str``, which for a float (NumPy's float64 included) is the
shortest text that reads back to the same double, ``repr(float(v))``. Rows
are consumed one at a time, so a generator never materializes the whole
table. A 2-D float64 array skips the csv module and is formatted column by
column, ``_BLOCK`` rows at a time: a column whose values in the table all
have one bit pattern (compared as int64, so 0.0 and -0.0 differ) is
``repr``'d once and repeated down the block, a run of such adjacent columns
as one text, the other columns are ``repr``'d value by value, and the
columns are joined with ``,`` row by row, each row ending with csv's line
terminator. csv never quotes a float, so the bytes are the same. Each block
is one ``write``, so the text of a whole table is never held at once.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

_END = csv.excel.lineterminator  # the line end of csv.writer's default dialect
_BLOCK = 1024  # rows (or column values) formatted per write, not the whole table


def _cell(v):
    return ("true" if v else "false") if isinstance(v, (bool, np.bool_)) else v


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
        write_floats(target, rows)
    else:
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_floats(target, rows: np.ndarray) -> None:
    """The rows of a 2-D float64 array, no header, ``_BLOCK`` rows to one ``write``,
    formatted by column. Each run of adjacent columns whose values share one
    bit pattern (so 0.0 and -0.0 differ) is ``repr``'d once, as one text, and
    repeated; the other columns are ``repr``'d per value."""
    if not len(rows):
        return
    bits = rows.view(np.int64)
    constant = (bits == bits[0]).all(axis=0)
    parts = []  # per varying column None, per run of constant columns its text
    for same, v in zip(constant.tolist(), rows[0].tolist()):
        if not same:
            parts.append(None)
        elif parts and parts[-1] is not None:
            parts[-1] += "," + repr(v)
        else:
            parts.append(repr(v))
    varying = np.flatnonzero(~constant)
    for start in range(0, len(rows), _BLOCK):
        block = rows[start:start + _BLOCK]
        values = iter(block[:, varying].T.tolist())
        # the repeats are bounded: a table of constant columns only has no
        # varying column to stop zip
        cols = [map(repr, next(values)) if part is None else itertools.repeat(part, len(block))
                for part in parts]
        lines = cols[0] if len(cols) == 1 else map(",".join, zip(*cols))  # one column: no join
        target.write(_END.join(lines) + _END)
