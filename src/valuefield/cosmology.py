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

from ._csv import write_csv
from .constants import C_M_PER_S, G_M3_KG_S2, MPC_KM, YEAR_S
from .errors import InvalidBoundaries, OutOfDomain, OutOfRange
from .field import _CORNERS, AlphaField, TimeOnlyField

_FLATNESS_TOL = 1e-12


def h0_convert(h0_kms_mpc: float) -> tuple[float, float]:
    """Hubble constant in km/s/Mpc -> (1/year, 1/second)."""
    if not h0_kms_mpc > 0:
        raise ValueError("H0 must be positive")
    per_second = h0_kms_mpc / MPC_KM
    return per_second * YEAR_S, per_second


@dataclass(frozen=True)
class CosmologyParams:
    """Present-day cosmological parameters; flat (Omega sum 1) by default."""

    h0_kms_mpc: float = 70.0
    omega_m: float = 0.3
    omega_r: float = 0.0
    omega_v: float = 0.7
    G: float = G_M3_KG_S2
    c: float = C_M_PER_S
    t_now_yr: float = 13.8e9
    lam: float | None = None   # cosmological constant, 1/m^2
    require_flat: bool = True

    def __post_init__(self):
        if not self.h0_kms_mpc > 0:
            raise ValueError("H0 must be positive")
        for name in ("omega_m", "omega_r", "omega_v"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.require_flat:
            total = self.omega_m + self.omega_r + self.omega_v
            if abs(total - 1.0) > _FLATNESS_TOL:
                raise ValueError(
                    f"flat universe needs omega_m+omega_r+omega_v = 1, got {total!r}"
                )
        if self.t_now_yr <= 0:
            raise ValueError("t_now must be positive")

    @property
    def h0_per_s(self) -> float:
        return h0_convert(self.h0_kms_mpc)[1]

    @property
    def h0_per_yr(self) -> float:
        return h0_convert(self.h0_kms_mpc)[0]

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

    def __init__(self, segments: list[Segment], t_now: float,
                 require_normalized: bool = True):
        if not segments:
            raise InvalidBoundaries("profile needs at least one segment")
        for a, b in zip(segments, segments[1:]):
            if not (a.s_hi == b.s_lo):
                raise InvalidBoundaries("segments must abut in order")
            gap = abs(a.alpha(a.s_hi) - b.alpha(b.s_lo))
            if gap > 1e-9 * max(1.0, abs(a.alpha(a.s_hi))):
                raise InvalidBoundaries(f"alpha jumps by {gap} at s = {a.s_hi}")
        if segments[-1].s_hi != t_now:
            raise InvalidBoundaries("last segment must end at t_now")
        if require_normalized and abs(segments[-1].alpha(t_now)) > 1e-9:
            raise InvalidBoundaries(
                f"alpha(t_now) = {segments[-1].alpha(t_now)}, expected 0"
            )
        for seg in segments:
            if seg.slope(seg.s_hi) > 0:  # log kinds always fall; linear needs rate >= 0
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

    def at_boundary(self, s: float) -> bool:
        return any(s == seg.s_hi for seg in self.segments[:-1])

    def slope_sides(self, s: float) -> tuple[float, float]:
        """One-sided slopes (left, right); they differ only at a segment boundary."""
        left = self._segment(s).slope(s)
        idx = bisect_left(self._uppers, s)
        if self.at_boundary(s) and idx + 1 < len(self.segments):
            return left, self.segments[idx + 1].slope(s)
        return left, left

    def as_field(self) -> AlphaField:
        """View the profile as a spacetime field (time axis only)."""
        return TimeOnlyField(
            self.alpha,
            lambda t: self.slope(t),
            t_domain=(self.segments[0].s_lo, self.t_now),
        )

    def to_csv(self, path, params: "CosmologyParams", n: int = 512,
               s_min: float | None = None) -> None:
        """Export s, alpha, a, H, rho rows on a log-spaced time grid."""
        lo = s_min if s_min is not None else max(
            self.segments[0].s_lo * (1 + 1e-9), self.t_now * 1e-8)
        ss = np.geomspace(lo, self.t_now, n).tolist()
        write_csv(path, ["s", "alpha", "a", "H", "rho"], (
            (s, self.alpha(s), scale_factor(self, s), hubble(self, s),
             density(self, s, params)) for s in ss))


def scale_factor(profile: AlphaProfile, s: float) -> float:
    """a(s) = e^{-alpha(s)}, normalized to 1 at t_now."""
    return math.exp(-profile.alpha(s))


def hubble(profile: AlphaProfile, s: float) -> float:
    """H(s) = adot/a = -A(s). At a segment boundary this is the one-sided
    (left) value; ``profile.slope_sides`` exposes both."""
    return -profile.slope(s)


def wavelength_at_reception(lam_emit: float, profile: AlphaProfile,
                            s_emit: float, s_recv: float) -> float:
    """Wavelength after transport from emission to reception:
    lam' = e^{-alpha(s_recv)+alpha(s_emit)} * lam. Red shift iff
    alpha(s_emit) > alpha(s_recv)."""
    if lam_emit <= 0:
        raise ValueError("wavelength must be positive")
    if not s_emit <= s_recv:
        raise OutOfRange("emission must precede reception")
    return lam_emit * math.exp(profile.alpha_diff(s_emit, s_recv))


def redshift(profile: AlphaProfile, s_emit: float, s_recv: float) -> float:
    """z = e^{alpha(s_emit)-alpha(s_recv)} - 1; ~ H0*(s_recv-s_emit) nearby."""
    if not s_emit <= s_recv:
        raise OutOfRange("emission must precede reception")
    return math.expm1(profile.alpha_diff(s_emit, s_recv))


def critical_density(params: CosmologyParams) -> float:
    """Density closing a flat universe today: 3 H0^2 / (8 pi G), kg/m^3."""
    h0 = params.h0_per_s
    return 3.0 * h0 ** 2 / (8.0 * math.pi * params.G)


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
    c2 = params.c ** 2
    lam_term = (params.lam or 0.0) * c2 / 3.0
    fourpg = 4.0 * math.pi * params.G
    r1 = a_slope ** 2 - (2.0 * fourpg * rho / 3.0 + lam_term)
    r2 = (-a_rate + a_slope ** 2) + (fourpg / 3.0) * (rho + 3.0 * p / c2) - lam_term
    r3 = a_rate - fourpg * (rho + p / c2)
    return r1, r2, r3


# -- era closed forms and profile construction -----------------------------


def vacuum_rate(params: CosmologyParams, rho_v: float | None = None) -> float:
    """Exponential expansion rate sqrt(8 pi G rho_V / 3); equals H0 when
    rho_V is the critical density."""
    if rho_v is None:
        rho_v = critical_density(params)
    return math.sqrt(8.0 * math.pi * params.G * rho_v / 3.0)


def linear_hubble_profile(params: CosmologyParams) -> AlphaProfile:
    """Single-segment profile alpha(s) = H0 (t_now - s): constant expansion
    at today's rate, adequate for nearby sources with small redshifts."""
    t = params.t_now_s
    h0 = params.h0_per_s
    seg = Segment(0.0, t, "linear", s_ref=t, alpha_ref=0.0, rate=h0)
    return AlphaProfile([seg], t)


def build_alpha_profile(params: CosmologyParams, s_rm: float, s_de: float,
                        de_rate: float | None = None) -> AlphaProfile:
    """Stitch radiation (0, s_rm], matter (s_rm, s_de] and accelerating
    (s_de, t_now] segments into a continuous normalized profile.

    ``de_rate`` is the dark-energy segment's constant decline rate; the
    default is the critical-density vacuum rate (= H0), which exceeds the
    matter slope 2/(3 s_de) at the default 10 Gyr onset, so the profile
    steepens at the onset. alpha diverges like -(1/2) ln s at early times.
    """
    t = params.t_now_s
    if not (0.0 < s_rm < s_de < t):
        raise InvalidBoundaries(
            f"need 0 < s_rm < s_de < t_now, got {s_rm}, {s_de}, {t}"
        )
    rate = de_rate if de_rate is not None else vacuum_rate(params)
    if rate <= 0:
        raise InvalidBoundaries("dark-energy rate must be positive")
    de = Segment(s_de, t, "linear", s_ref=t, alpha_ref=0.0, rate=rate)
    matter = Segment(s_rm, s_de, "matter", s_ref=s_de, alpha_ref=de.alpha(s_de))
    radiation = Segment(0.0, s_rm, "radiation", s_ref=s_rm,
                        alpha_ref=matter.alpha(s_rm))
    return AlphaProfile([radiation, matter, de], t)


# -- experimental bound on local alpha variation ----------------------------


def local_bound_check(obj, region, x_ref=None, eps: float = 1e-10,
                      samples_per_axis: int = 1000) -> tuple[float, bool]:
    """Maximum |alpha(y) - alpha(x_ref)| over a region, against a detectability
    threshold eps. Returns (max_deviation, max_deviation < eps).

    For an :class:`AlphaProfile`, ``region`` is a time interval (s_lo, s_hi)
    and x_ref a time (default s_hi). The profile is nonincreasing, so the
    maximum is exact: it sits at an end of the interval. For an
    :class:`AlphaField`, ``region`` is a box (lo4, hi4) and x_ref a point
    (default the box center); the deviation is *sampled*, not bounded, along
    axis-aligned lines through x_ref plus all box corners, with
    ``samples_per_axis`` points per line.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if isinstance(obj, AlphaProfile):
        s_lo, s_hi = float(region[0]), float(region[1])
        ref = s_hi if x_ref is None else float(x_ref)
        dev = max(abs(obj.alpha_diff(s_lo, ref)), abs(obj.alpha_diff(s_hi, ref)))
        return dev, dev < eps

    lo = np.asarray(region[0], dtype=float)
    hi = np.asarray(region[1], dtype=float)
    if lo.shape != (4,) or hi.shape != (4,):
        raise ValueError("field region must be a (lo4, hi4) box")
    ref = 0.5 * (lo + hi) if x_ref is None else np.asarray(x_ref, dtype=float)
    if np.any(ref < lo) or np.any(ref > hi):
        raise OutOfDomain("reference point outside the region")
    axes = np.flatnonzero(hi > lo)
    lines = np.tile(ref, (samples_per_axis, axes.size, 1))
    lines[:, np.arange(axes.size), axes] = np.linspace(lo[axes], hi[axes], samples_per_axis)
    corners = np.where(_CORNERS, hi, lo)
    alpha = obj.alpha(np.vstack([ref, lines.reshape(-1, 4), corners]))
    # np.max propagates NaN, so a NaN deviation fails the check
    dev = float(np.max(np.abs(alpha[1:] - alpha[0])))
    return dev, dev < eps


def redshift_table_to_csv(profile: AlphaProfile, params: CosmologyParams,
                          s_emits, path) -> None:
    """Export s_emit, z_exact, z_linear rows (reception at t_now)."""
    h0 = params.h0_per_s
    write_csv(path, ["s_emit", "z_exact", "z_linear"], (
        (s, redshift(profile, s, profile.t_now), h0 * (profile.t_now - s))
        for s in map(float, s_emits)))
