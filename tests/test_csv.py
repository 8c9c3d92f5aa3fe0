import io
from fractions import Fraction

import numpy as np

from valuefield._csv import write_csv


def test_one_cell_format():
    fh = io.StringIO()
    write_csv(fh, ["f64", "f", "i", "q", "b", "nb", "s"],
              [(np.float64(0.1), 0.1, 16, Fraction(3, 4), True, np.bool_(False), "x")])
    assert fh.getvalue().splitlines() == ["f64,f,i,q,b,nb,s", "0.1,0.1,16,3/4,true,false,x"]


def test_float_array_fast_path_writes_the_generic_bytes():
    table = np.array([[-0.0, 5e-324, 1e300], [0.1, 3.0, float("nan")]])
    fast, generic = io.StringIO(), io.StringIO()
    write_csv(fast, ["a", "b", "c"], table)
    write_csv(generic, ["a", "b", "c"], iter(table))  # not an ndarray: per-cell path
    assert fast.getvalue() == generic.getvalue()
    assert fast.getvalue().splitlines()[1:] == ["-0.0,5e-324,1e+300", "0.1,3.0,nan"]
