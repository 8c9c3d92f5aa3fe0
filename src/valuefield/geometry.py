"""Geodesics and particle energy evolution in the alpha-scaled geometry.

``metric_at`` gives the flat diag(-1, 1, 1, 1) tensor times the transport
factor e^{alpha(y)-alpha(x_ref)}; the geometry is flat iff alpha is constant.
The equation of motion is

    du^mu/dtau = -(A . u) u^mu + (1/2) etainv_mu A_mu * q2,

with A the gradient of alpha in per-meter units, no sum over mu in the second
term, and q2 = (u^0)^2 - |u_spatial|^2 (c^2 on massive paths, 0 on null ones).
It is the Levi-Civita geodesic equation not of that metric but of
e^{alpha(x_ref)-alpha(y)} eta (``metric_at`` with its arguments swapped), plus
-2 (A . u) u^mu: that metric's geodesics at a non-affine parameter, which keep
e^{3 alpha} eta(u, u) constant.
Positions are (t [s], x, y, z [m]); 4-velocities are in m/s with u^0 = c dt/dtau.

Unit convention (single place, used by every formula below): the stored
temporal gradient component is d alpha/dt in 1/s and is divided by c to give
the per-meter component used in contractions.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidEnergy, LeftDomain, OutOfDomain, StepUnstable,
                     require_finite_positive)
from .field import AlphaField, _as_point, transport_factor

ETA = np.array([-1.0, 1.0, 1.0, 1.0])  # its own inverse: used as eta and etainv
_MAX_HALVINGS = 10  # levels of step halving before a step is refused


@dataclass
class GeodesicState:
    """Position p (t, x, y, z) and 4-velocity u = dp/dtau (m/s, u0 = c dt/dtau)."""

    p: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.p = _as_point(self.p)
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != (4,) or not np.all(np.isfinite(self.u)):
            raise ValueError(f"4-velocity must be 4 finite components, got {self.u!r}")
        if not math.isfinite(_eta_uu(*self.u.tolist())):  # some u_k * u_k, or their sum
            raise OverflowError(f"4-velocity u = {self.u.tolist()!r} overflows eta(u, u)")


@dataclass(frozen=True)
class IntegratorConfig:
    step: float
    span: float
    norm_check_tol: float = 1e-6

    def __post_init__(self):
        require_finite_positive("step", self.step)
        require_finite_positive("span", self.span)


@dataclass(frozen=True)
class ParticleSpec:
    m: float
    c: float

    def __post_init__(self):
        require_finite_positive("m", self.m)
        require_finite_positive("c", self.c)
        # c ** 2 past sqrt(max) raises an errno OverflowError; m * c ** 2 gives inf
        if self.c > math.sqrt(sys.float_info.max) or self.rest_energy == math.inf:
            raise OverflowError(f"rest energy m c^2 overflows: m = {self.m!r}, c = {self.c!r}")

    @property
    def rest_energy(self) -> float:
        return self.m * self.c ** 2


def metric_at(field: AlphaField, x_ref, y) -> np.ndarray:
    """Diagonal of the flat metric parallel-transported to the reference point
    x_ref; a factor that is not finite and positive (an underflow to 0, say)
    has no (-,+,+,+) signature and is refused."""
    factor = transport_factor(field, x_ref, y)
    require_finite_positive("transport factor", factor)
    return factor * ETA


def _eta_uu(u0: float, u1: float, u2: float, u3: float) -> float:
    """eta(u, u) on the four floats of u, summed left to right; -c^2 for a
    normalized massive 4-velocity."""
    return ((-(u0 * u0) + u1 * u1) + u2 * u2) + u3 * u3


def geodesic_rhs(field: AlphaField, state: GeodesicState, c: float) -> np.ndarray:
    """du/dtau for a free particle (or light ray) in the scaled geometry."""
    require_finite_positive("c", c)
    return np.array(_geodesic_dy(field, c, state.p.tolist() + state.u.tolist())[4:])


def _geodesic_dy(field: AlphaField, c: float, y: list) -> list:
    """The geodesic equation on floats: d/dtau of the state y, the eight
    floats (t, x, y, z, u0, u1, u2, u3), with dt/dtau = u0 / c."""
    t, x1, x2, x3, u0, u1, u2, u3 = y
    g0, a1, a2, a3 = field.gradient([t, x1, x2, x3]).tolist()
    a0 = g0 / c  # per-meter temporal component, by the unit convention above
    m = -(((a0 * u0 + a1 * u1) + a2 * u2) + a3 * u3)  # -(A . u)
    q2 = -(((-(u0 * u0) + u1 * u1) + u2 * u2) + u3 * u3)  # c^2 massive, 0 null
    return [u0 / c, u1, u2, u3,
            m * u0 - 0.5 * a0 * q2, m * u1 + 0.5 * a1 * q2,
            m * u2 + 0.5 * a2 * q2, m * u3 + 0.5 * a3 * q2]


@dataclass
class Trajectory:
    """Proper-time geodesic trajectory: tau[i], p[i], u[i]."""

    tau: np.ndarray
    p: np.ndarray
    u: np.ndarray
    norm_drift: float = 0.0


def _rk4_path(rhs, y0: np.ndarray, cfg: IntegratorConfig, monitor, what: str):
    """Fixed-step RK4 states y[0..n] and the largest accepted drift, where
    n = max(1, round(cfg.span / cfg.step)) steps of exactly cfg.step, so y[n]
    need not sit at cfg.span. ``monitor(y0)`` returns ``drift(y)``; a step
    whose drift is not <= cfg.norm_check_tol (NaN included) is retried as two
    half steps, up to _MAX_HALVINGS levels deep, and reports the drift of its
    last half.

    The state is a list of eight floats for both callers, taken by ``rhs``
    and ``drift`` and returned by ``rhs``; the stages are written out per
    component in a generic loop's operation order. Overflow gives inf, which
    the finite check turns into StepUnstable: a finite sum of the state has no
    inf or NaN term, so only a non-finite sum checks each component."""
    tol = cfg.norm_check_tol

    def advance(y, h, depth):
        half, sixth = h / 2, h / 6.0
        s0, s1, s2, s3, s4, s5, s6, s7 = y
        a0, a1, a2, a3, a4, a5, a6, a7 = rhs(y)
        b0, b1, b2, b3, b4, b5, b6, b7 = rhs([
            s0 + half * a0, s1 + half * a1, s2 + half * a2, s3 + half * a3,
            s4 + half * a4, s5 + half * a5, s6 + half * a6, s7 + half * a7])
        c0, c1, c2, c3, c4, c5, c6, c7 = rhs([
            s0 + half * b0, s1 + half * b1, s2 + half * b2, s3 + half * b3,
            s4 + half * b4, s5 + half * b5, s6 + half * b6, s7 + half * b7])
        d0, d1, d2, d3, d4, d5, d6, d7 = rhs([
            s0 + h * c0, s1 + h * c1, s2 + h * c2, s3 + h * c3,
            s4 + h * c4, s5 + h * c5, s6 + h * c6, s7 + h * c7])
        ynew = [s0 + sixth * (((a0 + 2 * b0) + 2 * c0) + d0),
                s1 + sixth * (((a1 + 2 * b1) + 2 * c1) + d1),
                s2 + sixth * (((a2 + 2 * b2) + 2 * c2) + d2),
                s3 + sixth * (((a3 + 2 * b3) + 2 * c3) + d3),
                s4 + sixth * (((a4 + 2 * b4) + 2 * c4) + d4),
                s5 + sixth * (((a5 + 2 * b5) + 2 * c5) + d5),
                s6 + sixth * (((a6 + 2 * b6) + 2 * c6) + d6),
                s7 + sixth * (((a7 + 2 * b7) + 2 * c7) + d7)]
        if not (math.isfinite(sum(ynew)) or all(map(math.isfinite, ynew))):
            raise StepUnstable(f"non-finite state during {what} step")
        d = drift(ynew)
        if not (d <= tol):  # NaN drift fails too
            if depth >= _MAX_HALVINGS:
                raise StepUnstable(f"conservation drift {d:.3e} exceeds tolerance "
                                   f"{tol:.3e} at minimum step")
            y, _ = advance(y, h / 2, depth + 1)
            return advance(y, h / 2, depth + 1)
        return ynew, d

    ys = np.empty((max(1, round(cfg.span / cfg.step)) + 1, y0.size))
    ys[0] = y = y0.tolist()
    drift_max = 0.0
    try:
        drift = monitor(y)  # its field calls map to LeftDomain too
        for i in range(1, len(ys)):
            y, d = advance(y, cfg.step, 0)
            ys[i] = y
            drift_max = max(drift_max, d)
    except OutOfDomain as exc:
        raise LeftDomain(f"{what} trajectory left the field domain: {exc}") from exc
    return ys, drift_max


def integrate_geodesic(field: AlphaField, init: GeodesicState, cfg: IntegratorConfig,
                       c: float) -> Trajectory:
    """Fixed-step RK4 on (p, u) with a conservation monitor: max(1,
    round(span / step)) steps of exactly ``cfg.step``, so the last tau need
    not equal ``cfg.span``.

    The monitored quantity is e^{3(alpha(p)-alpha(p0))} * eta(u, u), which the
    evolution equation keeps constant (it reduces to the plain eta-norm check
    when alpha is constant). A step that ends with it more than norm_check_tol
    relative away from its value at the start of the run, not of the step, is
    retried at half the step, up to _MAX_HALVINGS levels deep. So drift that
    earlier steps accumulated counts against every later step; halving cannot remove it.
    """
    require_finite_positive("c", c)

    def monitor(y0):
        t, x1, x2, x3, u0, u1, u2, u3 = y0
        alpha0, q0 = field.alpha([t, x1, x2, x3]), _eta_uu(u0, u1, u2, u3)
        # a NumPy scalar, so the drift is one: a scale of 0 divides as NumPy
        # divides, under the caller's floating-point error state
        scale = np.float64(max(abs(q0), u0 ** 2))

        def drift(y):
            t, x1, x2, x3, u0, u1, u2, u3 = y
            try:
                factor = math.exp(3.0 * (field.alpha([t, x1, x2, x3]) - alpha0))
            except OverflowError:  # an inf drift fails the step, which is then halved
                factor = math.inf
            return abs(factor * _eta_uu(u0, u1, u2, u3) - q0) / scale
        return drift

    ys, drift = _rk4_path(functools.partial(_geodesic_dy, field, c),
                          np.concatenate([init.p, init.u]), cfg, monitor, "geodesic")
    return Trajectory(cfg.step * np.arange(len(ys), dtype=float), ys[:, :4], ys[:, 4:],
                      drift)


# -- coordinate-time form and energy --------------------------------------


def coordinate_time_rhs(field: AlphaField, p, dpds, gamma: float,
                        particle: ParticleSpec) -> list:
    """d/ds of (gamma * dp^mu/ds), the coordinate-time form of the geodesic
    equation: -A_nu gamma dpds^nu dpds^mu + (1/2) etainv_mu A_mu c^2 / gamma,
    as four floats from the four numbers dpds. A gamma that is not finite and
    at least 1 raises ``InvalidEnergy``."""
    if not 1.0 <= gamma < math.inf:  # NaN fails too
        raise InvalidEnergy(f"gamma = {gamma!r} is not finite and at least 1 at coordinate "
                            f"time t = {float(p[0])!r}: below 1 the particle cannot climb "
                            "the field")
    c = particle.c
    g0, a1, a2, a3 = field.gradient(p).tolist()
    a0 = g0 / c  # per-meter temporal component, by the unit convention above
    d0, d1, d2, d3 = dpds
    m = -(((a0 * d0 + a1 * d1) + a2 * d2) + a3 * d3) * gamma  # -(A . dpds) gamma
    c2 = c ** 2
    return [m * d0 - 0.5 * a0 * c2 / gamma, m * d1 + 0.5 * a1 * c2 / gamma,
            m * d2 + 0.5 * a2 * c2 / gamma, m * d3 + 0.5 * a3 * c2 / gamma]


def energy_rate(field: AlphaField, p, dpds, energy: float, particle: ParticleSpec) -> float:
    """dE/ds for a free particle of total energy E = gamma m c^2: the rest
    energy times d gamma/ds, the mu = 0 coordinate-time equation over c
    (dp0/ds = c). d gamma/ds holds no mass, so the fractional energy change is
    the same for any rest mass at the same kinematic state."""
    rest = particle.rest_energy
    if not rest <= energy < math.inf:  # NaN fails too
        raise InvalidEnergy(f"E = {energy} must be finite and at least the rest energy {rest}")
    return rest * (coordinate_time_rhs(field, p, dpds, energy / rest, particle)[0] / particle.c)


@dataclass
class CoordinateTrajectory:
    """Coordinate-time trajectory: s[i], p[i], coordinate velocity v[i], gamma[i]."""

    s: np.ndarray
    p: np.ndarray
    v: np.ndarray
    gamma: np.ndarray


def integrate_coordinate(field: AlphaField, p0, v0, particle: ParticleSpec,
                         cfg: IntegratorConfig) -> CoordinateTrajectory:
    """RK4 on the coordinate-time equations, max(1, round(span / step))
    steps of exactly ``cfg.step``, so the last s need not equal ``cfg.span``.
    State is (x_spatial, w) with w = gamma * (c, v); gamma is recovered from
    w0/c each evaluation."""
    c = particle.c
    p0 = _as_point(p0)
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (3,) or not np.all(np.isfinite(v0)):
        raise ValueError(f"initial velocity must be 3 finite components, got {v0!r}")
    speed2 = float(v0 @ v0)
    if not speed2 < c ** 2:  # NaN fails too
        raise ValueError("initial speed must be below c")
    gamma0 = 1.0 / np.sqrt(1.0 - speed2 / c ** 2)
    t0 = float(p0[0])

    def rhs(y):
        s, x1, x2, x3, w0, w1, w2, w3 = y
        gamma = w0 / c
        v1, v2, v3 = w1 / gamma, w2 / gamma, w3 / gamma
        return [1.0, v1, v2, v3,
                *coordinate_time_rhs(field, [t0 + s, x1, x2, x3], [c, v1, v2, v3], gamma,
                                    particle)]

    y0 = np.concatenate([[0.0], p0[1:], gamma0 * np.array([c, *v0])])
    # nothing is monitored: a drift of 0.0 accepts every step at full size
    ys, _ = _rk4_path(rhs, y0, cfg, lambda _: lambda _: 0.0, "coordinate-time")
    gamma = ys[:, 4] / c
    p = np.column_stack([t0 + ys[:, 0], ys[:, 1:4]])
    v = ys[:, 5:] / gamma[:, None]
    # row 0 is the input itself, not its round trip through the packed state
    p[0], v[0], gamma[0] = p0, v0, gamma0
    return CoordinateTrajectory(ys[:, 0], p, v, gamma)
