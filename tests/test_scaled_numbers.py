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
    ScaledVector,
    commutation_table,
    connect_value,
    connect_vector,
    natural_op,
    scaled_combine,
    valuation_natural,
    value_of_raw,
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


class TestValueOfRaw:
    def test_scale_one_identity(self):
        assert value_of_raw(4.56, 1) == 4.56

    def test_zero_is_the_number_vacuum(self):
        assert value_of_raw(0, 17.3) == 0

    def test_division(self):
        assert value_of_raw(4.56, 2) == 2.28

    def test_exact_for_fractions(self):
        assert value_of_raw(F(456, 100), F(2)) == F(228, 100)


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


class TestConnectRawString:
    def test_scale_one_conflation(self):
        assert value_of_raw(4.56, 1) == 4.56

    def test_independent_of_source_scale(self):
        assert value_of_raw(4.56, 2) == 2.28
        # the same bare element, as a number at scale 4 and at scale 17
        for t in (4, 17):
            assert value_of_raw(ScaledNumber(F(456, 100 * t), t).raw, 2) == F(228, 100)

    @given(positive_fractions, positive_fractions, any_fractions)
    def test_matches_value_of_raw(self, s, t, a):
        x = ScaledNumber(a, t)
        assert connect_value(s, t, x).value == value_of_raw(x.raw, s)


class TestScaledCombine:
    def test_standard_structure(self):
        out = scaled_combine("mul", 1, ScaledNumber(3, 1), ScaledNumber(5, 1))
        assert out.value == 15

    def test_raw_level_multiplication(self):
        out = scaled_combine("mul", F(2), ScaledNumber(F(3), F(2)), ScaledNumber(F(5), F(2)))
        assert out.value == 15
        assert out.raw == 30  # raws 6,10 -> 6*10/2

    def test_raw_level_division(self):
        out = scaled_combine("div", F(2), ScaledNumber(F(3), F(2)), ScaledNumber(F(5), F(2)))
        assert out.value == F(3, 5)
        assert out.raw == F(6, 5)  # s*raw(x)/raw(y) = 2*6/10

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            scaled_combine("div", F(2), ScaledNumber(F(3), F(2)), ScaledNumber(F(0), F(2)))

    def test_mixed_scales_rejected(self):
        with pytest.raises(MixedScales):
            scaled_combine("add", F(2), ScaledNumber(F(3), F(2)), ScaledNumber(F(5), F(3)))

    @given(positive_fractions, any_fractions, any_fractions, any_fractions)
    def test_raw_distributivity(self, s, a, b, c):
        x, y, z = (ScaledNumber(v, s) for v in (a, b, c))
        left = scaled_combine("mul", s, scaled_combine("add", s, x, y), z)
        right = scaled_combine(
            "add", s, scaled_combine("mul", s, x, z), scaled_combine("mul", s, y, z)
        )
        assert left.raw == right.raw

    @given(positive_fractions, any_fractions, any_fractions)
    def test_raw_mul_identity(self, s, a, b):
        x, y = ScaledNumber(a, s), ScaledNumber(b, s)
        out = scaled_combine("mul", s, x, y)
        assert out.raw * s == x.raw * y.raw


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
        s = F(5, 3)
        _, combo, _ = commutation_table(s, s, op, a, b)
        assert combo == scaled_combine(op, s, ScaledNumber(a, s), ScaledNumber(b, s)).value

    @pytest.mark.parametrize("op", ["pow", "ADD", ""])
    def test_unknown_op_is_refused_by_both(self, op):
        with pytest.raises(ValueError, match="op must be one of"):
            scaled_combine(op, F(2), ScaledNumber(F(3), F(2)), ScaledNumber(F(5), F(2)))
        with pytest.raises(ValueError, match="op must be one of"):
            commutation_table(F(2), F(4), op, F(3), F(5))


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
        # the transported unit multiplies, at scale s, by the mul mismatch
        one = connect_value(s, t, ScaledNumber(1, t))
        assert one.value == mul
        assert scaled_combine("mul", s, one, ScaledNumber(a, s)).value == mul * a


class TestVectors:
    def test_identity_transport(self):
        v = ScaledVector((F(1), F(2)), F(3))
        assert connect_vector(F(3), F(3), v) == v

    def test_componentwise_factor(self):
        v = ScaledVector((F(1), F(2)), F(3))
        out = connect_vector(F(1), F(3), v)
        assert out.value == (3, 6)

    def test_norm_transforms_like_a_scalar(self):
        v = ScaledVector((3.0, 4.0), 4.0)
        out = connect_vector(2.0, 4.0, v)
        assert out.norm().value == pytest.approx(2.0 * v.norm().value, rel=1e-15)

    def test_dot_product_single_transport(self):
        u = ScaledVector((F(1), F(2)), F(4))
        v = ScaledVector((F(3), F(5)), F(4))
        dot = u.dot(v)
        moved = connect_value(F(2), F(4), dot)
        assert moved.value == F(4, 2) * dot.value
        # transporting the vectors first picks up t/s once more: 52 against 26
        both = connect_vector(F(2), F(4), u).dot(connect_vector(F(2), F(4), v))
        assert both.value == F(4, 2) * moved.value

    def test_mixed_scale_dot_rejected(self):
        with pytest.raises(MixedScales):
            ScaledVector((F(1),), F(2)).dot(ScaledVector((F(1),), F(3)))


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
