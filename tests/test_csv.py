import io
from fractions import Fraction

import numpy as np

from valuefield._csv import write_csv


def test_one_cell_format():
    fh = io.StringIO()
    write_csv(fh, ["f64", "f", "i", "q", "b", "nb", "s"],
              [(np.float64(0.1), 0.1, 16, Fraction(3, 4), True, np.bool_(False), "x")])
    assert fh.getvalue().splitlines() == ["f64,f,i,q,b,nb,s", "0.1,0.1,16,3/4,true,false,x"]
