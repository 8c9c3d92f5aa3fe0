"""Scaled number structures and the number-preserving, value-changing connection.

A base-set element ("number") carries no intrinsic value; its value in a
structure scaled by s is raw/s. Scaled arithmetic is rescaled so the usual
axioms still hold (multiplication divides by s, division multiplies by s,
the unit is the raw element s). The connection between structures at scales
t -> s multiplies values by t/s and leaves the raw element unchanged.

Everything here is exactness-preserving: Fraction in, Fraction out. Floats
are accepted and simply stay floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import MixedScales, NotInBaseSet


def _check_scale(s) -> None:
    if not (s.numerator > 0 if type(s) is Fraction else 0 < s < math.inf):
        raise ValueError(f"scale factor must be positive, got {s!r}")


_EXACT = (int, Fraction)


def _ratio(num, den):
    """num/den, kept exact when both ends are rational.

    ints and Fractions divide as they are (int/int through ``Fraction(num,
    den)``); other Rationals, bool among them, are wrapped in Fraction first.
    """
    if type(num) in _EXACT and type(den) in _EXACT:
        return Fraction(num, den) if type(num) is int and type(den) is int else num / den
    if isinstance(num, Rational) and isinstance(den, Rational):
        return Fraction(num) / Fraction(den)
    return num / den


_BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": _ratio}


@dataclass(frozen=True)
class NaturalStructure:
    """Natural numbers thinned to every n-th element, with rescaled multiply."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

    def contains(self, m: int) -> bool:
        return isinstance(m, int) and m >= 0 and m % self.n == 0


def valuation_natural(struct: NaturalStructure, m: int) -> Fraction:
    """Value of the base-set element m: its index in the well ordering, m/n."""
    if not struct.contains(m):
        raise NotInBaseSet(f"{m} is not a multiple of {struct.n}")
    return Fraction(m, struct.n)


def natural_op(struct: NaturalStructure, op: str, m1: int, m2: int) -> int:
    """Structure-level add/mul on base-set elements; the result stays in the base set.

    Addition is untouched; multiplication carries the 1/n factor so that the
    valuation is a homomorphism: v(m1 mul m2) = v(m1) * v(m2).
    """
    for m in (m1, m2):
        if not struct.contains(m):
            raise NotInBaseSet(f"{m} is not a multiple of {struct.n}")
    if op == "add":
        return m1 + m2
    if op == "mul":
        prod = m1 * m2
        # m1 = a*n, m2 = b*n  =>  prod/n = a*b*n, an exact base-set element
        return prod // struct.n
    raise ValueError(f"op must be 'add' or 'mul', got {op!r}")


@dataclass(frozen=True)
class ScaledNumber:
    """A number value together with the scale factor of its home structure.

    The underlying base-set element is ``raw = scale * value``; it is what the
    connection preserves while the value changes.
    """

    value: object
    scale: object

    def __post_init__(self):
        _check_scale(self.scale)

    @property
    def raw(self):
        return self.scale * self.value


def connect_value(target_s, source_t, x: ScaledNumber) -> ScaledNumber:
    """Map a number at scale t to the *same number* at scale s.

    The value picks up the factor t/s; the raw element is unchanged:
    s * ((t/s) * value) == t * value.
    """
    _check_scale(target_s)
    if x.scale != source_t:
        raise MixedScales(f"number has scale {x.scale!r}, expected {source_t!r}")
    factor = _ratio(source_t, target_s)
    return ScaledNumber(factor * x.value, target_s)


def commutation_table(s, t, op: str, a, b):
    """Compare transport-then-combine with combine-then-transport.

    Returns ``(transport_of_combo, combo_of_transports, ratio)`` where the
    first entry transports the already-combined value (one factor t/s) and the
    second combines the two transported values inside the target structure.
    The mismatch ratio combo/transport is t/s for mul, s/t for div and 1 for
    add/sub: the connection commutes with addition only.
    """
    _check_scale(s)
    _check_scale(t)
    if op not in _BINARY_OPS:
        raise ValueError(f"op must be one of {tuple(_BINARY_OPS)}, got {op!r}")
    fn = _BINARY_OPS[op]
    factor = _ratio(t, s)
    combo = fn(factor * a, factor * b)
    transport = factor * fn(a, b)
    return transport, combo, _ratio(combo, transport)

