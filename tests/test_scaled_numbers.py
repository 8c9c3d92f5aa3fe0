import operator
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valuefield.errors import MixedScales, NotInBaseSet
from valuefield.scaled_numbers import (
    NaturalStructure,
    _check_scale,
    _ratio,
    ScaledNumber,
    commutation_table,
    connect_value,
    natural_op,
    valuation_natural,
)

positive_fractions = st.fractions(min_value=F(1, 1000), max_value=F(1000))
any_fractions = st.fractions(min_value=F(-1000), max_value=F(1000))
nonzero_fractions = any_fractions.filter(lambda f: f != 0)


class TestValuation:
    def test_zero_maps_to_zero(self):
        assert valuation_natural(NaturalStructure(3), 0) == 0

    def test_identity_structure_conflates_number_and_value(self):
        assert valuation_natural(NaturalStructure(1), 7) == 7

    def test_direct_division(self):
        assert valuation_natural(NaturalStructure(4), 12) == 3

    def test_rejects_non_multiples(self):
        with pytest.raises(NotInBaseSet):
            valuation_natural(NaturalStructure(3), 7)

    def test_exhaustive_small_cases(self):
        # oracle: plain integer division on multiples
        for n in range(1, 12):
            for q in range(0, 30):
                assert valuation_natural(NaturalStructure(n), q * n) == q


class TestNaturalOp:
    def test_rescaled_multiplication(self):
        assert natural_op(NaturalStructure(2), "mul", 4, 6) == 12

    def test_ordinary_multiplication_at_scale_one(self):
        assert natural_op(NaturalStructure(1), "mul", 4, 6) == 24

    def test_addition_unchanged(self):
        assert natural_op(NaturalStructure(5), "add", 10, 15) == 25

    def test_result_stays_in_base_set(self):
        struct = NaturalStructure(7)
        out = natural_op(struct, "mul", 21, 35)
        assert struct.contains(out)

    def test_bad_inputs(self):
        with pytest.raises(NotInBaseSet):
            natural_op(NaturalStructure(4), "add", 4, 6)

    @pytest.mark.parametrize("op", ["sub", "div", "MUL", ""])
    def test_unknown_op_is_refused(self, op):
        with pytest.raises(ValueError, match="^op must be 'add' or 'mul'"):
            natural_op(NaturalStructure(2), op, 4, 6)

    def test_valuation_homomorphism_sampled(self):
        # v(m1 + m2) = v(m1) + v(m2) and v(m1 mul m2) = v(m1) v(m2), exactly
        for n in range(1, 101):
            multiples = [q * n for q in range(0, 10_000 // n + 1, max(1, (10_000 // n) // 17))]
            for m1 in multiples[:12]:
                for m2 in multiples[:12]:
                    v1 = valuation_natural(NaturalStructure(n), m1)
                    v2 = valuation_natural(NaturalStructure(n), m2)
                    s = natural_op(NaturalStructure(n), "add", m1, m2)
                    p = natural_op(NaturalStructure(n), "mul", m1, m2)
                    assert valuation_natural(NaturalStructure(n), s) == v1 + v2
                    assert valuation_natural(NaturalStructure(n), p) == v1 * v2


class TestConnection:
    def test_identity_connection(self):
        x = ScaledNumber(F(5, 7), F(3))
        assert connect_value(F(3), F(3), x) == x

    def test_worked_case(self):
        out = connect_value(F(2), F(4), ScaledNumber(F(3), F(4)))
        assert out.value == 6
        assert out.raw == 12  # 2*6 == 4*3

    def test_zero_fixed_point(self):
        out = connect_value(F(9), F(2), ScaledNumber(F(0), F(2)))
        assert out.value == 0

    def test_scale_mismatch_rejected(self):
        with pytest.raises(MixedScales):
            connect_value(F(2), F(4), ScaledNumber(F(3), F(5)))

    @given(positive_fractions, positive_fractions, any_fractions)
    def test_raw_preserved_exactly(self, s, t, a):
        x = ScaledNumber(a, t)
        assert connect_value(s, t, x).raw == x.raw

    @given(positive_fractions, positive_fractions, positive_fractions, any_fractions)
    def test_composition_law(self, u, s, t, a):
        x = ScaledNumber(a, t)
        via = connect_value(u, s, connect_value(s, t, x))
        assert via == connect_value(u, t, x)


class TestCommutation:
    def test_mul_mismatch(self):
        assert commutation_table(F(2), F(4), "mul", F(3), F(5)) == (30, 60, 2)

    def test_div_mismatch(self):
        tr, combo, ratio = commutation_table(F(2), F(4), "div", F(3), F(5))
        assert (tr, combo, ratio) == (F(6, 5), F(3, 5), F(1, 2))

    def test_equal_scales_commute(self):
        tr, combo, ratio = commutation_table(F(3), F(3), "mul", F(2), F(9))
        assert tr == combo and ratio == 1

    @given(positive_fractions, positive_fractions, nonzero_fractions, nonzero_fractions)
    def test_mismatch_ratios_exact(self, s, t, a, b):
        _, _, ratio = commutation_table(s, t, "mul", a, b)
        assert ratio == t / s
        _, _, ratio = commutation_table(s, t, "div", a, b)
        assert ratio == s / t
        if a + b != 0:
            _, _, ratio = commutation_table(s, t, "add", a, b)
            assert ratio == 1

    @given(positive_fractions, positive_fractions, nonzero_fractions, nonzero_fractions)
    def test_sub_commutes(self, s, t, a, b):
        assume(a != b)  # the ratio is undefined when the difference is 0
        tr, combo, ratio = commutation_table(s, t, "sub", a, b)
        assert tr == combo and ratio == 1

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("a, b", [(F(3, 4), F(-5, 7)), (1.5 + 2j, -0.25 + 3j)],
                             ids=["fraction", "complex"])
    def test_equal_scales_combo_is_scaled_combine(self, op, a, b):
        # at one scale the structure's arithmetic on values is the ordinary one
        s = F(5, 3)
        _, combo, _ = commutation_table(s, s, op, a, b)
        plain = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
                 "div": operator.truediv}[op]
        assert combo == plain(a, b)

    @pytest.mark.parametrize("op", ["pow", "ADD", ""])
    def test_unknown_op_is_refused_by_both(self, op):
        # both exact and float scales
        for s, t in ((F(2), F(4)), (2.0, 4.0)):
            with pytest.raises(ValueError, match="op must be one of"):
                commutation_table(s, t, op, F(3), F(5))


class TestTransportedComponents:
    """The scale-t operations seen at scale s: mul and div mismatch by the
    ratios of :func:`commutation_table`, and the unit moves to value t/s."""

    def test_identity(self):
        for op in ("add", "sub", "mul", "div"):
            assert commutation_table(3, 3, op, F(2), F(7))[2] == 1
        assert connect_value(3, 3, ScaledNumber(1, 3)).value == 1
        assert connect_value(3, 3, ScaledNumber(0, 3)).value == 0

    def test_worked_cases(self):
        for s, t, mul, div in ((F(2), F(4), 2, F(1, 2)), (F(4), F(2), F(1, 2), 2)):
            assert commutation_table(s, t, "mul", F(3), F(5))[2] == mul
            assert commutation_table(s, t, "div", F(3), F(5))[2] == div
            assert connect_value(s, t, ScaledNumber(1, t)).value == mul
            assert connect_value(s, t, ScaledNumber(0, t)).value == 0

    @given(positive_fractions, positive_fractions, nonzero_fractions)
    def test_coefficients_invert(self, s, t, a):
        mul = commutation_table(s, t, "mul", a, a)[2]
        assert mul * commutation_table(s, t, "div", a, a)[2] == 1
        # the transported unit has the mul mismatch as its value
        assert connect_value(s, t, ScaledNumber(1, t)).value == mul


@settings(max_examples=200)
@given(positive_fractions, positive_fractions, any_fractions)
def test_connection_ratio_identity(s, t, a):
    # single transport multiplies the value by exactly t/s
    out = connect_value(s, t, ScaledNumber(a, t))
    assert out.value == (t / s) * a


exact_numbers = st.one_of(st.integers(-10 ** 6, 10 ** 6), any_fractions, st.booleans())


class TestExactRatio:
    @given(exact_numbers, exact_numbers)
    def test_int_fraction_and_bool_ends_divide_exactly(self, a, b):
        if b == 0:
            with pytest.raises(ZeroDivisionError):
                _ratio(a, b)
            return
        out = _ratio(a, b)
        assert type(out) is F and out == F(a) / F(b)

    @pytest.mark.parametrize("a, b", [(1.5, 2), (3, 0.5), (F(1, 3), 0.25), (0.5, F(2, 7))])
    def test_a_float_end_gives_a_float(self, a, b):
        out = _ratio(a, b)
        assert type(out) is float and out == a / b

    @pytest.mark.parametrize("s", [0, F(0), F(-1, 3), -2, False, float("nan"), float("-inf"),
                                   float("inf")])
    def test_non_positive_scales_are_refused(self, s):
        message = re.escape(f"scale factor must be positive, got {s!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            _check_scale(s)

    @pytest.mark.parametrize("s", [1, F(1, 10 ** 9), True, 1e-300])
    def test_positive_scales_pass(self, s):
        _check_scale(s)


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        ScaledNumber(1, 0)
    with pytest.raises(ValueError):
        ScaledNumber(1, F(-2))
    with pytest.raises(ValueError):
        NaturalStructure(0)


def test_complex_values_scale_by_real_factor():
    x = ScaledNumber(1 + 2j, 2.0)
    out = connect_value(1.0, 2.0, x)
    assert out.value == 2 + 4j
