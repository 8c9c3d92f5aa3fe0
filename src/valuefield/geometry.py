"""Geodesics and particle energy evolution in the alpha-scaled geometry.

The metric is the flat diag(-1, 1, 1, 1) tensor times the transport factor
e^{-alpha(x_ref)+alpha(y)}; the geometry is flat iff alpha is constant. For a
diagonal metric the geodesic equation reduces to

    du^mu/dtau = -(A . u) u^mu + (1/2) etainv_mu A_mu * q2,

with A the gradient of alpha in per-meter units, no sum over mu in the second
term, and q2 = (u^0)^2 - |u_spatial|^2 (c^2 on massive paths, 0 on null ones).
Positions are (t [s], x, y, z [m]); 4-velocities are in m/s with u^0 = c dt/dtau.

Unit convention (single place, used by every formula below): the stored
temporal gradient component is d alpha/dt in 1/s and is divided by c to give
the per-meter component used in contractions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidEnergy, LeftDomain, OutOfDomain, StepUnstable,
                     require_finite_positive)
from .field import AlphaField, _as_point, transport_factor

ETA = np.array([-1.0, 1.0, 1.0, 1.0])  # its own inverse: used as eta and etainv


@dataclass(frozen=True)
class MetricDiag:
    """Diagonal of a (-,+,+,+) metric times a common positive factor."""

    diag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        if d.shape != (4,):
            raise ValueError("metric diagonal must have 4 entries")
        if not (d[0] < 0 < min(d[1:])):
            raise ValueError(f"metric diagonal must be (-,+,+,+), got {d}")
        object.__setattr__(self, "diag", d)


@dataclass
class GeodesicState:
    """Position p (t, x, y, z) and 4-velocity u = dp/dtau (m/s, u0 = c dt/dtau)."""

    p: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.p = _as_point(self.p)
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != (4,):
            raise ValueError("4-velocity must have shape (4,)")


@dataclass(frozen=True)
class IntegratorConfig:
    step: float
    span: float
    norm_check_tol: float = 1e-6
    max_halvings: int = 10

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

    @property
    def rest_energy(self) -> float:
        return self.m * self.c ** 2


def a_per_meter(field: AlphaField, p, c: float) -> np.ndarray:
    """Gradient of alpha with the temporal component converted to 1/m."""
    g = field.gradient(p)
    return np.array([g[0] / c, g[1], g[2], g[3]])


def metric_at(field: AlphaField, x_ref, y) -> MetricDiag:
    """Flat metric parallel-transported to the reference point x_ref."""
    return MetricDiag(transport_factor(field, x_ref, y) * ETA)


def eta_norm(u) -> float:
    """eta_{mu mu} u^mu u^mu; -c^2 for a normalized massive 4-velocity."""
    return _eta_uu(np.asarray(u, dtype=float).tolist())


def _eta_uu(u: list) -> float:
    """eta_norm on four floats, summed left to right."""
    u0, u1, u2, u3 = u
    return ((-(u0 * u0) + u1 * u1) + u2 * u2) + u3 * u3


def geodesic_rhs(field: AlphaField, state: GeodesicState, c: float) -> np.ndarray:
    """du/dtau for a free particle (or light ray) in the scaled geometry."""
    require_finite_positive("c", c)
    return np.array(_geodesic_dy(field, c, state.p.tolist() + state.u.tolist())[4:])


def _geodesic_dy(field: AlphaField, c: float, y: list) -> list:
    """The geodesic equation on floats: d/dtau of the state y, the eight
    floats (t, x, y, z, u0, u1, u2, u3), with dt/dtau = u0 / c."""
    g0, a1, a2, a3 = field.gradient(y[:4]).tolist()
    a0 = g0 / c  # the per-meter temporal component, as in a_per_meter
    u0, u1, u2, u3 = y[4:]
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
    """Fixed-step RK4 states y[0..n] over cfg.span and the largest accepted
    drift. ``monitor(y0)`` returns ``drift(y)``; a step whose drift is not
    <= cfg.norm_check_tol (NaN included) is retried as two half steps, up to
    cfg.max_halvings levels deep, and reports the drift of its last half.

    The state, the stages and their sums are lists of Python floats: ``rhs``
    and ``drift`` take such a list and ``rhs`` returns one. Float overflow
    gives inf, not an exception, and the finite check turns it into
    StepUnstable."""
    def advance(y, h, depth):
        half, sixth = h / 2, h / 6.0
        k1 = rhs(y)
        k2 = rhs([a + half * b for a, b in zip(y, k1)])
        k3 = rhs([a + half * b for a, b in zip(y, k2)])
        k4 = rhs([a + h * b for a, b in zip(y, k3)])
        ynew = [a + sixth * (((b1 + 2 * b2) + 2 * b3) + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if not all(map(math.isfinite, ynew)):
            raise StepUnstable(f"non-finite state during {what} step")
        d = drift(ynew)
        if not (d <= cfg.norm_check_tol):  # NaN drift fails too
            if depth >= cfg.max_halvings:
                raise StepUnstable(f"conservation drift {d:.3e} exceeds tolerance "
                                   f"{cfg.norm_check_tol:.3e} at minimum step")
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
    """Fixed-step RK4 on (p, u) with a conservation monitor.

    The monitored quantity is e^{3(alpha(p)-alpha(p0))} * eta(u, u), which the
    evolution equation keeps constant (it reduces to the plain eta-norm check
    when alpha is constant). A step that moves it by more than norm_check_tol
    relative is retried at half the step, up to max_halvings levels deep.
    """
    require_finite_positive("c", c)

    def monitor(y0):
        alpha0, q0 = field.alpha(y0[:4]), _eta_uu(y0[4:])
        scale = max(abs(q0), y0[4] ** 2)
        # np.exp, not math.exp: an overflowing factor gives an inf drift, which
        # fails the tolerance and so the step, instead of raising OverflowError
        return lambda yv: abs(
            np.exp(3.0 * (field.alpha(yv[:4]) - alpha0)) * _eta_uu(yv[4:]) - q0) / scale

    ys, drift = _rk4_path(functools.partial(_geodesic_dy, field, c),
                          np.concatenate([init.p, init.u]), cfg, monitor, "geodesic")
    return Trajectory(cfg.step * np.arange(len(ys), dtype=float), ys[:, :4], ys[:, 4:],
                      drift)


# -- coordinate-time form and energy --------------------------------------


def coordinate_time_rhs(field: AlphaField, p, dpds, gamma: float,
                        particle: ParticleSpec) -> np.ndarray:
    """d/ds of (gamma * dp^mu/ds), the coordinate-time form of the geodesic
    equation: -A_nu gamma dpds^nu dpds^mu + (1/2) etainv_mu A_mu c^2 / gamma."""
    dpds = np.asarray(dpds, dtype=float).tolist()
    return np.array(_coordinate_dw(field, p, dpds, gamma, particle))


def _require_gamma(gamma: float, p) -> None:
    if not 1.0 <= gamma < math.inf:  # NaN fails too
        raise InvalidEnergy(f"gamma = {gamma!r} is not finite and at least 1 at coordinate "
                            f"time t = {float(p[0])!r}: below 1 the particle cannot climb "
                            "the field")


def _coordinate_dw(field: AlphaField, p, dpds: list, gamma: float,
                   particle: ParticleSpec) -> list:
    """The coordinate-time equation on floats: four d(gamma dp/ds)/ds from the
    four floats dpds."""
    _require_gamma(gamma, p)
    c = particle.c
    g0, a1, a2, a3 = field.gradient(p).tolist()
    a0 = g0 / c  # the per-meter temporal component, as in a_per_meter
    d0, d1, d2, d3 = dpds
    m = -(((a0 * d0 + a1 * d1) + a2 * d2) + a3 * d3) * gamma  # -(A . dpds) gamma
    c2 = c ** 2
    return [m * d0 - 0.5 * a0 * c2 / gamma, m * d1 + 0.5 * a1 * c2 / gamma,
            m * d2 + 0.5 * a2 * c2 / gamma, m * d3 + 0.5 * a3 * c2 / gamma]


def gamma_rate(field: AlphaField, p, dpds, gamma: float, c: float) -> float:
    """d gamma/ds for a free particle; contains no mass, so the fractional
    energy change is identical for any rest mass at the same kinematic state.

    Derived from the mu = 0 coordinate-time equation with dp0/ds = c, which
    carries the inverse-metric factor etainv_00 = -1 on the gradient source
    term, consistent with :func:`coordinate_time_rhs`. A gamma that is not
    finite and at least 1 raises ``InvalidEnergy``, as there.
    """
    _require_gamma(gamma, p)
    a = a_per_meter(field, p, c)
    dpds = np.asarray(dpds, dtype=float)
    return 0.5 * ETA[0] * a[0] * c / gamma - float(a @ dpds) * gamma


def energy_rate(field: AlphaField, p, dpds, energy: float, particle: ParticleSpec) -> float:
    """dE/ds for a free particle of total energy E = gamma m c^2."""
    rest = particle.rest_energy
    if not rest <= energy < math.inf:  # NaN fails too
        raise InvalidEnergy(f"E = {energy} must be finite and at least the rest energy {rest}")
    gamma = energy / rest
    return rest * gamma_rate(field, p, dpds, gamma, particle.c)


@dataclass
class CoordinateTrajectory:
    """Coordinate-time trajectory: s[i], p[i], coordinate velocity v[i], gamma[i]."""

    s: np.ndarray
    p: np.ndarray
    v: np.ndarray
    gamma: np.ndarray

    def energy(self, particle: ParticleSpec) -> np.ndarray:
        return self.gamma * particle.rest_energy


def integrate_coordinate(field: AlphaField, p0, v0, particle: ParticleSpec,
                         cfg: IntegratorConfig) -> CoordinateTrajectory:
    """RK4 on the coordinate-time equations. State is (x_spatial, w) with
    w = gamma * (c, v); gamma is recovered from w0/c each evaluation."""
    c = particle.c
    p0 = _as_point(p0)
    v0 = np.asarray(v0, dtype=float)
    speed2 = float(v0 @ v0)
    if speed2 >= c ** 2:
        raise ValueError("initial speed must be below c")
    gamma0 = 1.0 / np.sqrt(1.0 - speed2 / c ** 2)
    t0 = float(p0[0])

    def rhs(y):
        s, x1, x2, x3, w0, w1, w2, w3 = y
        gamma = w0 / c
        v1, v2, v3 = w1 / gamma, w2 / gamma, w3 / gamma
        return [1.0, v1, v2, v3,
                *_coordinate_dw(field, [t0 + s, x1, x2, x3], [c, v1, v2, v3], gamma, particle)]

    y0 = np.concatenate([[0.0], p0[1:], gamma0 * np.array([c, *v0])])
    # nothing is monitored: a drift of 0.0 accepts every step at full size
    ys, _ = _rk4_path(rhs, y0, cfg, lambda _: lambda _: 0.0, "coordinate-time")
    gamma = ys[:, 4] / c
    p = np.column_stack([t0 + ys[:, 0], ys[:, 1:4]])
    v = ys[:, 5:] / gamma[:, None]
    # row 0 is the input itself, not its round trip through the packed state
    p[0], v[0], gamma[0] = p0, v0, gamma0
    return CoordinateTrajectory(ys[:, 0], p, v, gamma)
