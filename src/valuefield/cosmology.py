"""Flat FLRW cosmology parameterized by a time-only value field alpha(s).

The spatial scale factor is a(s) = e^{-alpha(s)} with a(t_now) = 1, so the
Hubble parameter is H(s) = -d alpha/ds. Era closed forms follow from the
first Friedmann equation: alpha falls by (2/3) ln s in a matter era, by
(1/2) ln s in a radiation era, and linearly at rate sqrt(8 pi G rho_V / 3)
(= H0 at critical vacuum density) in a vacuum era. A full profile is stitched
from those segments, continuous, nonincreasing, divergent at s -> 0+ and
normalized to alpha(t_now) = 0.

All quantities SI: times in seconds, H in 1/s, densities in kg/m^3.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .constants import C_M_PER_S, G_M3_KG_S2, MPC_KM, YEAR_S
from .errors import InvalidBoundaries, OutOfRange, require_finite_positive
from .field import _CORNERS

_FLATNESS_TOL = 1e-12


def h0_convert(h0_kms_mpc: float) -> tuple[float, float]:
    """Hubble constant in km/s/Mpc -> (1/year, 1/second)."""
    require_finite_positive("h0_kms_mpc", h0_kms_mpc)
    per_second = h0_kms_mpc / MPC_KM
    return per_second * YEAR_S, per_second


@dataclass(frozen=True)
class CosmologyParams:
    """Present-day cosmological parameters of a flat universe (Omega sum 1);
    G and c are not settable, every run uses those of ``valuefield.constants``."""

    h0_kms_mpc: float = 70.0
    omega_m: float = 0.3
    omega_r: float = 0.0
    omega_v: float = 0.7
    t_now_yr: float = 13.8e9
    lam: float | None = None   # cosmological constant, 1/m^2

    def __post_init__(self):
        for name in ("h0_kms_mpc", "t_now_s"):  # t_now_s: t_now_yr in seconds
            require_finite_positive(name, getattr(self, name))
        for name in ("omega_m", "omega_r", "omega_v"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if self.lam is not None and not math.isfinite(self.lam):
            raise ValueError(f"lam must be None or finite, got {self.lam!r}")
        total = self.omega_m + self.omega_r + self.omega_v
        if not abs(total - 1.0) <= _FLATNESS_TOL:
            raise ValueError(
                f"flat universe needs omega_m+omega_r+omega_v = 1, got {total!r}"
            )

    @property
    def h0_per_s(self) -> float:
        return h0_convert(self.h0_kms_mpc)[1]

    @property
    def t_now_s(self) -> float:
        return self.t_now_yr * YEAR_S


_SEGMENT_SLOPES = {"radiation": 0.5, "matter": 2.0 / 3.0}


@dataclass(frozen=True)
class Segment:
    """One closed-form piece of alpha(s) on the half-open interval (s_lo, s_hi],
    anchored so that alpha(s_ref) = alpha_ref exactly.

    kind 'radiation': alpha = alpha_ref - (1/2) ln(s/s_ref)
    kind 'matter':    alpha = alpha_ref - (2/3) ln(s/s_ref)
    kind 'linear':    alpha = alpha_ref + rate * (s_ref - s)  (Hubble/vacuum era)
    """

    s_lo: float
    s_hi: float
    kind: str
    s_ref: float
    alpha_ref: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind != "linear" and self.kind not in _SEGMENT_SLOPES:
            raise ValueError(f"segment kind must be 'radiation', 'matter' or 'linear', "
                             f"got {self.kind!r}")

    def alpha(self, s: float) -> float:
        if self.kind == "linear":
            return self.alpha_ref + self.rate * (self.s_ref - s)
        return self.alpha_ref - _SEGMENT_SLOPES[self.kind] * math.log(s / self.s_ref)

    def delta(self, s_early: float, s_late: float) -> float:
        """alpha(s_early) - alpha(s_late) in closed form (no cancellation)."""
        if self.kind == "linear":
            return self.rate * (s_late - s_early)
        return _SEGMENT_SLOPES[self.kind] * math.log(s_late / s_early)

    def slope(self, s: float) -> float:
        """A(s) = d alpha/ds (negative in an expanding universe)."""
        if self.kind == "linear":
            return -self.rate
        return -_SEGMENT_SLOPES[self.kind] / s

    def slope_rate(self, s: float) -> float:
        """dA/ds."""
        if self.kind == "linear":
            return 0.0
        return _SEGMENT_SLOPES[self.kind] / s ** 2


class AlphaProfile:
    """Piecewise time-only alpha(s) on (0, t_now], continuous and normalized."""

    def __init__(self, segments: list[Segment], t_now: float):
        if not segments:
            raise InvalidBoundaries("profile needs at least one segment")
        for a, b in zip(segments, segments[1:]):
            if not (a.s_hi == b.s_lo):
                raise InvalidBoundaries("segments must abut in order")
            gap = abs(a.alpha(a.s_hi) - b.alpha(b.s_lo))
            if not gap <= 1e-9 * max(1.0, abs(a.alpha(a.s_hi))):  # NaN fails too
                raise InvalidBoundaries(f"alpha jumps by {gap} at s = {a.s_hi}")
        if segments[-1].s_hi != t_now:
            raise InvalidBoundaries("last segment must end at t_now")
        if not abs(segments[-1].alpha(t_now)) <= 1e-9:
            raise InvalidBoundaries(
                f"alpha(t_now) = {segments[-1].alpha(t_now)}, expected 0"
            )
        for seg in segments:
            if not seg.s_lo < seg.s_hi:  # NaN fails too
                raise InvalidBoundaries(f"segment ({seg.s_lo}, {seg.s_hi}] does not run forward")
            if not seg.slope(seg.s_hi) <= 0:  # log kinds fall; linear needs rate >= 0
                raise InvalidBoundaries("alpha must be nonincreasing in s")
        self.segments = list(segments)
        self.t_now = float(t_now)
        self._uppers = [seg.s_hi for seg in self.segments]

    def _segment(self, s: float) -> Segment:
        if not (self.segments[0].s_lo < s <= self.t_now):
            raise OutOfRange(
                f"s = {s} outside ({self.segments[0].s_lo}, {self.t_now}]"
            )
        return self.segments[bisect_left(self._uppers, s)]

    def alpha(self, s: float) -> float:
        return self._segment(s).alpha(s)

    def alpha_diff(self, s_early: float, s_late: float) -> float:
        """alpha(s_early) - alpha(s_late), evaluated segment by segment in
        closed form. Well conditioned even when the two alphas agree to many
        digits (nearby sources)."""
        if s_early > s_late:
            return -self.alpha_diff(s_late, s_early)
        self._segment(s_early), self._segment(s_late)  # range checks
        total = 0.0
        for seg in self.segments:
            a = max(seg.s_lo, s_early)
            b = min(seg.s_hi, s_late)
            if b > a:
                total += seg.delta(a, b)
        return total

    def slope(self, s: float) -> float:
        return self._segment(s).slope(s)

    def slope_rate(self, s: float) -> float:
        return self._segment(s).slope_rate(s)

    def slope_sides(self, s: float) -> tuple[float, float]:
        """One-sided slopes (left, right); they differ only at a segment boundary."""
        left = self._segment(s).slope(s)
        idx = bisect_left(self._uppers, s)
        if s == self._uppers[idx] and idx + 1 < len(self.segments):
            return left, self.segments[idx + 1].slope(s)
        return left, left


def scale_factor(profile: AlphaProfile, s: float) -> float:
    """a(s) = e^{-alpha(s)}, normalized to 1 at t_now."""
    return math.exp(-profile.alpha(s))


def hubble(profile: AlphaProfile, s: float) -> float:
    """H(s) = adot/a = -A(s). At a segment boundary this is the one-sided
    (left) value; ``profile.slope_sides`` exposes both."""
    return -profile.slope(s)


def redshift(profile: AlphaProfile, s_emit: float, s_recv: float) -> float:
    """z = e^{alpha(s_emit)-alpha(s_recv)} - 1; ~ H0*(s_recv-s_emit) nearby."""
    if not s_emit <= s_recv:
        raise OutOfRange("emission must precede reception")
    return math.expm1(profile.alpha_diff(s_emit, s_recv))


def critical_density(params: CosmologyParams) -> float:
    """Density closing a flat universe today: 3 H0^2 / (8 pi G), kg/m^3."""
    h0 = params.h0_per_s
    return 3.0 * h0 ** 2 / (8.0 * math.pi * G_M3_KG_S2)


def density(profile: AlphaProfile, s: float, params: CosmologyParams) -> float:
    """Mass density at time s: the present critical density weighted by the
    matter (a^-3), radiation (a^-4) and vacuum (constant) fractions."""
    dalpha = profile.alpha_diff(s, profile.t_now)
    return critical_density(params) * (
        params.omega_m * math.exp(3.0 * dalpha)
        + params.omega_r * math.exp(4.0 * dalpha)
        + params.omega_v
    )


def friedmann_residuals(profile: AlphaProfile, s: float, rho: float, p: float,
                        params: CosmologyParams) -> tuple[float, float, float]:
    """Residuals of the two Friedmann equations written in A = d alpha/ds,
    plus the combined equation with A^2 eliminated.

        r1 = A^2 - (8 pi G rho / 3 [+ Lambda c^2/3])
        r2 = (-Adot + A^2) + (4 pi G / 3)(rho + 3 p / c^2) [- Lambda c^2/3]
        r3 = Adot - 4 pi G (rho + p / c^2)

    r3 never sees Lambda: the constant cancels when the two equations are
    combined, so it is bitwise identical across Lambda values. Eliminating
    A^2 from r1/r2 forces the p/c^2 division (rho is a mass density here).
    """
    a_slope = profile.slope(s)
    a_rate = profile.slope_rate(s)
    c2 = C_M_PER_S ** 2
    lam_term = (params.lam or 0.0) * c2 / 3.0
    fourpg = 4.0 * math.pi * G_M3_KG_S2
    r1 = a_slope ** 2 - (2.0 * fourpg * rho / 3.0 + lam_term)
    r2 = (-a_rate + a_slope ** 2) + (fourpg / 3.0) * (rho + 3.0 * p / c2) - lam_term
    r3 = a_rate - fourpg * (rho + p / c2)
    return r1, r2, r3


# -- era closed forms and profile construction -----------------------------


def vacuum_rate(params: CosmologyParams) -> float:
    """Exponential expansion rate sqrt(8 pi G rho_V / 3) at the critical
    vacuum density rho_V; it equals H0."""
    return math.sqrt(8.0 * math.pi * G_M3_KG_S2 * critical_density(params) / 3.0)


def linear_hubble_profile(params: CosmologyParams) -> AlphaProfile:
    """Single-segment profile alpha(s) = H0 (t_now - s): constant expansion
    at today's rate, adequate for nearby sources with small redshifts."""
    t = params.t_now_s
    h0 = params.h0_per_s
    seg = Segment(0.0, t, "linear", s_ref=t, alpha_ref=0.0, rate=h0)
    return AlphaProfile([seg], t)


def build_alpha_profile(params: CosmologyParams, s_rm: float, s_de: float) -> AlphaProfile:
    """Stitch radiation (0, s_rm], matter (s_rm, s_de] and accelerating
    (s_de, t_now] segments into a continuous normalized profile.

    The dark-energy segment declines at the vacuum rate (= H0), which exceeds
    the matter slope 2/(3 s_de) at the default 10 Gyr onset, so the profile
    steepens there. alpha diverges like -(1/2) ln s at early times.
    """
    t = params.t_now_s
    if not (0.0 < s_rm < s_de < t):
        raise InvalidBoundaries(
            f"need 0 < s_rm < s_de < t_now, got {s_rm}, {s_de}, {t}"
        )
    de = Segment(s_de, t, "linear", s_ref=t, alpha_ref=0.0, rate=vacuum_rate(params))
    matter = Segment(s_rm, s_de, "matter", s_ref=s_de, alpha_ref=de.alpha(s_de))
    radiation = Segment(0.0, s_rm, "radiation", s_ref=s_rm,
                        alpha_ref=matter.alpha(s_rm))
    return AlphaProfile([radiation, matter, de], t)


# -- experimental bound on local alpha variation ----------------------------


def local_bound_check(obj, region, eps: float = 1e-10,
                      samples_per_axis: int = 1000) -> tuple[float, bool]:
    """Maximum |alpha(y) - alpha(ref)| over a region, against a detectability
    threshold eps. Returns (max_deviation, max_deviation <= eps), the test a
    report row applies to a measured value and its bound.

    The reference is fixed by the region. For an :class:`AlphaProfile`,
    ``region`` is a time interval (s_lo, s_hi) and the reference is s_hi, the
    present end. The profile is nonincreasing, so the maximum is exact: it is
    |alpha(s_lo) - alpha(s_hi)|. For an :class:`AlphaField`, ``region`` is a
    box (lo4, hi4) and the reference its centre; the deviation is *sampled*,
    not bounded, along the axis-aligned lines through the centre plus all
    box corners, with ``samples_per_axis`` points per line.
    """
    require_finite_positive("eps", eps)
    if isinstance(obj, AlphaProfile):
        dev = abs(obj.alpha_diff(float(region[0]), float(region[1])))
        return dev, dev <= eps

    lo = np.asarray(region[0], dtype=float)
    hi = np.asarray(region[1], dtype=float)
    if lo.shape != (4,) or hi.shape != (4,):
        raise ValueError("field region must be a (lo4, hi4) box")
    ref = 0.5 * (lo + hi)
    axes = np.flatnonzero(hi > lo)
    lines = np.tile(ref, (samples_per_axis, axes.size, 1))
    lines[:, np.arange(axes.size), axes] = np.linspace(lo[axes], hi[axes], samples_per_axis)
    corners = np.where(_CORNERS, hi, lo)
    alpha = obj.alpha(np.vstack([ref, lines.reshape(-1, 4), corners]))
    # np.max propagates NaN, so a NaN deviation fails the check
    dev = float(np.max(np.abs(alpha[1:] - alpha[0])))
    return dev, dev <= eps
