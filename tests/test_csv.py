import csv
import io
import sys
from fractions import Fraction

import numpy as np
import pytest

from valuefield._csv import _BLOCK, write_csv, write_floats


def test_one_cell_format():
    fh = io.StringIO()
    write_csv(fh, ["f64", "f", "i", "q", "b", "nb", "s"],
              [(np.float64(0.1), 0.1, 16, Fraction(3, 4), True, np.bool_(False), "x")])
    assert fh.getvalue().splitlines() == ["f64,f,i,q,b,nb,s", "0.1,0.1,16,3/4,true,false,x"]


def test_float_array_fast_path_writes_the_generic_bytes():
    tables = [
        np.array([[-0.0, 5e-324, 1e300], [0.1, 3.0, float("nan")]]),
        np.array([[float("inf"), float("-inf"), 1e16], [1e-5, 5e-324, sys.float_info.max],
                  [0.12345678901234568, -1.0000000000000002, 123456789012345.67]]),
        np.array([[1e16], [1e-5], [-2.5]]),  # (N, 1)
        np.zeros((0, 3)),  # (0, k)
    ]
    for table in tables:
        fast, generic = io.StringIO(), io.StringIO()
        header = [f"c{i}" for i in range(table.shape[1])]
        write_csv(fast, header, table)
        write_csv(generic, header, iter(table))  # not an ndarray: per-cell path
        assert fast.getvalue() == generic.getvalue()
    assert fast.getvalue() == "c0,c1,c2\r\n"


def test_float_array_rows_are_the_float_reprs():
    fast = io.StringIO()
    write_csv(fast, ["a", "b", "c"], np.array([[-0.0, 5e-324, 1e300], [0.1, 3.0, float("nan")],
                                               [float("inf"), 1e16, 1e-5]]))
    assert fast.getvalue() == "a,b,c\r\n-0.0,5e-324,1e+300\r\n0.1,3.0,nan\r\ninf,1e+16,1e-05\r\n"


def test_column_writes_the_bytes_of_a_one_column_table():
    values = np.concatenate(([-0.0, 5e-324, 1e308, 0.1, float("inf"), 1e16],
                             np.linspace(-1.0, 1.0, 10001)))  # more than one block
    table, column = io.StringIO(), io.StringIO()
    write_csv(table, ["v"], values[:, None])
    write_floats(column, values[:, None])
    assert table.getvalue().split("\r\n", 1)[1] == column.getvalue()


def _csv_module_bytes(header, table):
    """The reference: csv.writer on the ``repr`` of every cell."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([repr(v) for v in row] for row in table.tolist())
    return fh.getvalue()


def _tables():
    rng = np.random.default_rng(3)
    n = _BLOCK + 1
    varying = rng.normal(size=n)
    signed_zeros = np.where(np.arange(n) % 3 == 0, -0.0, 0.0)
    last_differs = np.full(n, 2.5)
    last_differs[-1] = np.nextafter(2.5, 3.0)  # one ulp, in the second block
    late_zero = np.full(n, 0.0)
    late_zero[-1] = -0.0  # equal to 0.0 as a float, not as bits
    other_nan = np.frombuffer(np.array([0x7FF8000000000001], np.int64).tobytes(), float)[0]
    nan_payloads = np.full(n, np.nan)
    nan_payloads[1] = other_nan  # two NaN bit patterns, one text
    return {
        "mixed": np.column_stack([varying, np.full(n, -0.0), signed_zeros, np.full(n, np.nan),
                                  np.full(n, 1e300), last_differs, late_zero, nan_payloads,
                                  np.full(n, np.inf)]),
        "all-constant": np.tile([0.0, -0.0, 5e-324, np.nan, -np.inf, 0.1], (n, 1)),
        "all-varying": rng.normal(size=(n, 4)),
        "one-row": np.array([[0.1, -0.0, np.nan, 1e16, 5e-324]]),
        "no-rows": np.zeros((0, 3)),
        "block-rows": rng.normal(size=(_BLOCK, 2)),
        "strided": np.column_stack([varying, np.full(n, 7.0)] * 2)[::2, ::-1],
    }


@pytest.mark.parametrize("name", list(_tables()))
def test_float_array_writes_the_csv_module_bytes(name):
    table = _tables()[name]
    header = [f"c{i}" for i in range(table.shape[1])]
    fh = io.StringIO()
    write_csv(fh, header, table)
    assert fh.getvalue() == _csv_module_bytes(header, table)


def test_column_writes_one_repr_per_line_across_blocks():
    values = np.concatenate([np.random.default_rng(4).normal(size=2 * _BLOCK),
                             [-0.0, np.nan, np.inf, 5e-324]])
    for n in (0, 1, _BLOCK, _BLOCK + 1, len(values)):
        fh = io.StringIO()
        write_floats(fh, values[:n, None])
        assert fh.getvalue() == "".join(f"{v!r}\r\n" for v in values[:n].tolist())


def _float_cells():
    """10^4 random float64 bit patterns (NaN payloads of both signs and the
    infinities can come up) and the edges of float text: signed zeros,
    subnormals, the smallest normal and largest doubles, quarter steps, and
    both sides of repr's switch to exponent form at 1e16 and 1e-4."""
    rng = np.random.default_rng(5)
    patterns = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=10_000,
                            dtype=np.int64, endpoint=True).view(np.float64)
    tiny = sys.float_info.min
    edges = [0.0, 5e-324, np.nextafter(tiny, 0.0), tiny, sys.float_info.max, np.inf, np.nan,
             0.1, 1.0 / 3.0, *np.arange(-4.0, 4.0, 0.25)]
    for switch in (1e16, 1e-4, 1e15, 1e-5):
        edges += [switch, np.nextafter(switch, 0.0), np.nextafter(switch, np.inf)]
    edges = np.array(edges)
    return np.concatenate([patterns, edges, -edges, rng.normal(size=1000)]).tolist()


@pytest.mark.parametrize("kind", [float, np.float64])
def test_a_float_cell_is_the_repr_of_its_python_float(kind):
    # the csv module writes a float cell as its str, which is this repr for
    # a Python float and a NumPy float64 alike
    values = _float_cells()
    fh = io.StringIO()
    write_csv(fh, ["v", "w"], ([kind(v), kind(-v)] for v in values))
    lines = fh.getvalue().split("\r\n")
    assert lines[0] == "v,w" and lines[-1] == ""
    assert lines[1:-1] == [f"{v!r},{-v!r}" for v in values]
