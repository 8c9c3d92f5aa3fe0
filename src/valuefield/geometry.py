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

from dataclasses import dataclass

import numpy as np

from ._csv import write_csv
from .errors import InvalidEnergy, LeftDomain, OutOfDomain, StepUnstable
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
        if self.step <= 0:
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class ParticleSpec:
    m: float
    c: float

    def __post_init__(self):
        if self.m <= 0 or self.c <= 0:
            raise ValueError("mass and c must be positive")

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
    u = np.asarray(u, dtype=float)
    return float(ETA @ (u * u))


def geodesic_rhs(field: AlphaField, state: GeodesicState, c: float) -> np.ndarray:
    """du/dtau for a free particle (or light ray) in the scaled geometry."""
    a = a_per_meter(field, state.p, c)
    u = state.u
    au = float(a @ u)
    q2 = -eta_norm(u)  # c^2 on massive paths, 0 on null paths
    return -au * u + 0.5 * ETA * a * q2


@dataclass
class Trajectory:
    """Proper-time geodesic trajectory: tau[i], p[i], u[i]."""

    tau: np.ndarray
    p: np.ndarray
    u: np.ndarray
    norm_drift: float = 0.0

    def final(self) -> GeodesicState:
        return GeodesicState(self.p[-1].copy(), self.u[-1].copy())

    def gamma(self, c: float) -> np.ndarray:
        return self.u[:, 0] / c

    def to_csv(self, path, particle: ParticleSpec) -> None:
        gam = self.gamma(particle.c)
        table = np.column_stack([self.tau, self.p, self.u, gam, gam * particle.rest_energy])
        write_csv(path, ["tau", "t", "x", "y", "z", "u0", "u1", "u2", "u3", "gamma", "E"],
                  table)


def _rk4(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_geodesic(field: AlphaField, init: GeodesicState, cfg: IntegratorConfig,
                       c: float) -> Trajectory:
    """Fixed-step RK4 on (p, u) with a conservation monitor.

    The monitored quantity is e^{3(alpha(p)-alpha(p0))} * eta(u, u), which the
    evolution equation keeps constant (it reduces to the plain eta-norm check
    when alpha is constant). A step that moves it by more than norm_check_tol
    relative is retried at half the step, up to max_halvings levels deep.
    """
    def rhs(yv):
        p, u = yv[:4], yv[4:]
        st = GeodesicState(p, u)
        du = geodesic_rhs(field, st, c)
        dp = np.array([u[0] / c, u[1], u[2], u[3]])
        return np.concatenate([dp, du])

    try:
        alpha0 = field.alpha(init.p)
        q0 = eta_norm(init.u)
        scale = max(abs(q0), float(init.u[0]) ** 2)
        n_steps = max(1, round(cfg.span / cfg.step))
        taus = [0.0]
        ps = [init.p.copy()]
        us = [init.u.copy()]
        y = np.concatenate([init.p, init.u])
        drift_max = 0.0

        def conserved(yv):
            return np.exp(3.0 * (field.alpha(yv[:4]) - alpha0)) * eta_norm(yv[4:])

        def advance(yv, h, depth):
            """(state after step h, its drift); the drift is the last substep's."""
            ynew = _rk4(rhs, yv, h)
            if not np.all(np.isfinite(ynew)):
                raise StepUnstable("non-finite state during geodesic step")
            drift = abs(conserved(ynew) - q0) / scale
            if not (drift <= cfg.norm_check_tol):  # NaN drift fails too
                if depth >= cfg.max_halvings:
                    raise StepUnstable(
                        f"conservation drift {drift:.3e} exceeds tolerance "
                        f"{cfg.norm_check_tol:.3e} at minimum step"
                    )
                yv, _ = advance(yv, h / 2, depth + 1)
                return advance(yv, h / 2, depth + 1)
            return ynew, drift

        for i in range(n_steps):
            y, drift = advance(y, cfg.step, 0)
            drift_max = max(drift_max, drift)
            taus.append((i + 1) * cfg.step)
            ps.append(y[:4].copy())
            us.append(y[4:].copy())
    except OutOfDomain as exc:
        raise LeftDomain(f"geodesic left the field domain: {exc}") from exc

    return Trajectory(np.array(taus), np.array(ps), np.array(us), drift_max)


# -- coordinate-time form and energy --------------------------------------


def coordinate_time_rhs(field: AlphaField, p, dpds, gamma: float,
                        particle: ParticleSpec) -> np.ndarray:
    """d/ds of (gamma * dp^mu/ds), the coordinate-time form of the geodesic
    equation: -A_nu gamma dpds^nu dpds^mu + (1/2) etainv_mu A_mu c^2 / gamma."""
    if gamma < 1.0:
        raise ValueError("gamma must be >= 1")
    c = particle.c
    a = a_per_meter(field, p, c)
    dpds = np.asarray(dpds, dtype=float)
    adp = float(a @ dpds)
    return -adp * gamma * dpds + 0.5 * ETA * a * c ** 2 / gamma


def gamma_rate(field: AlphaField, p, dpds, gamma: float, c: float) -> float:
    """d gamma/ds for a free particle; contains no mass, so the fractional
    energy change is identical for any rest mass at the same kinematic state.

    Derived from the mu = 0 coordinate-time equation with dp0/ds = c, which
    carries the inverse-metric factor etainv_00 = -1 on the gradient source
    term, consistent with :func:`coordinate_time_rhs`.
    """
    a = a_per_meter(field, p, c)
    dpds = np.asarray(dpds, dtype=float)
    return 0.5 * ETA[0] * a[0] * c / gamma - float(a @ dpds) * gamma


def energy_rate(field: AlphaField, p, dpds, energy: float, particle: ParticleSpec) -> float:
    """dE/ds for a free particle of total energy E = gamma m c^2."""
    rest = particle.rest_energy
    if energy < rest:
        raise InvalidEnergy(f"E = {energy} below rest energy {rest}")
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

    def to_csv(self, path, particle: ParticleSpec) -> None:
        table = np.column_stack([self.s, self.p, self.gamma * particle.c,
                                 self.gamma[:, None] * self.v, self.gamma,
                                 self.energy(particle)])
        write_csv(path, ["s", "t", "x", "y", "z", "u0", "u1", "u2", "u3", "gamma", "E"],
                  table)


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
    t0 = p0[0]

    def rhs(yv):
        s, x, w = yv[0], yv[1:4], yv[4:]
        gamma = w[0] / c
        v = w[1:] / gamma
        p = np.array([t0 + s, x[0], x[1], x[2]])
        dpds = np.array([c, v[0], v[1], v[2]])
        dw = coordinate_time_rhs(field, p, dpds, gamma, particle)
        return np.concatenate([[1.0], v, dw])

    n_steps = max(1, round(cfg.span / cfg.step))
    y = np.concatenate([[0.0], p0[1:], gamma0 * np.array([c, *v0])])
    ss = [0.0]
    ps = [p0.copy()]
    vs = [v0.copy()]
    gs = [gamma0]
    try:
        for _ in range(n_steps):
            y = _rk4(rhs, y, cfg.step)
            if not np.all(np.isfinite(y)):
                raise StepUnstable("non-finite state during coordinate-time step")
            gamma = y[4] / c
            ss.append(y[0])
            ps.append(np.array([t0 + y[0], y[1], y[2], y[3]]))
            vs.append(y[5:] / gamma)
            gs.append(gamma)
    except OutOfDomain as exc:
        raise LeftDomain(f"trajectory left the field domain: {exc}") from exc
    return CoordinateTrajectory(np.array(ss), np.array(ps), np.array(vs), np.array(gs))
