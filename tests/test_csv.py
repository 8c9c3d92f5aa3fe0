import io
import sys
from fractions import Fraction

import numpy as np

from valuefield._csv import write_column, write_csv


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
    write_column(column, values)
    assert table.getvalue() == "v\r\n" + column.getvalue()
