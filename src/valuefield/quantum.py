"""Alpha-modified quantum mechanics on a 1-D spatial grid.

With a time-only scaling field, the Schroedinger equation picks up the
covariant time derivative: i hbar (d/dt + A(t)) psi = H psi, so

    d psi/dt = -(i/hbar) H psi - A(t) psi.

Because the A(t) term is proportional to the identity it commutes exactly
with the Hamiltonian flow; each step is the exact damping factor
e^{-int A dt} times a unitary Crank-Nicolson substep. The squared norm then
obeys d||psi||^2/dt = -2 A(t) ||psi||^2 with no splitting error, isolating
discretization error in the unitary part.

The spatial grid maps to spacetime axis 1 at the wave function's time; the
free-particle Hamiltonian uses a periodic spectral kinetic operator, the
finite-difference one a Dirichlet tridiagonal stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from ._csv import write_csv
from .errors import NotNormalized, StepUnstable
from .field import AlphaField

NORMALIZATION_TOL = 1e-12


@dataclass
class WaveFunction1D:
    """Complex amplitudes on a uniform spatial grid at one instant."""

    y: np.ndarray
    psi: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.y.ndim != 1 or self.y.shape != self.psi.shape:
            raise ValueError("grid and amplitudes must be matching 1-D arrays")
        if not np.all(np.isfinite(self.psi.view(float))):
            raise ValueError("amplitudes must be finite")
        dy = np.diff(self.y)
        if dy.size and not np.allclose(dy, dy[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniform")

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.dy)

    def normalized(self) -> "WaveFunction1D":
        nrm = self.norm_sq()
        if not 0.0 < nrm < math.inf:
            raise NotNormalized(f"cannot normalize: norm^2 = {nrm!r} at t = {self.t!r}")
        return WaveFunction1D(self.y, self.psi / math.sqrt(nrm), self.t)

    def probability_density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2


def gaussian_packet(y, y0=0.0, sigma=1.0, k0=0.0, t=0.0) -> WaveFunction1D:
    """Normalized Gaussian wave packet: |psi|^2 is N(y0, sigma^2)."""
    y = np.asarray(y, dtype=float)
    amp = (2 * math.pi * sigma ** 2) ** -0.25
    psi = amp * np.exp(-((y - y0) ** 2) / (4 * sigma ** 2) + 1j * k0 * y)
    return WaveFunction1D(y, psi, t).normalized()


@dataclass(frozen=True)
class HamiltonianSpec:
    """Free-particle kinetic operator: periodic spectral or Dirichlet tridiagonal."""

    kind: str = "spectral"
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.kind not in ("spectral", "fd"):
            raise ValueError(f"kind must be 'spectral' or 'fd', got {self.kind!r}")
        if self.mass <= 0 or self.hbar <= 0:
            raise ValueError("mass and hbar must be positive")


class TimeScaling:
    """Time-only scaling data: alpha(t) and its rate A(t) = d alpha/dt.

    Either callable may be omitted; the missing one is derived (A by central
    difference of alpha, the damping exponent of a missing alpha by Simpson
    quadrature of A over the step).
    """

    def __init__(self, alpha: Callable | None = None, rate: Callable | None = None,
                 fd_step: float = 1e-6):
        if alpha is None and rate is None:
            raise ValueError("need alpha(t) or A(t)")
        self.alpha = alpha
        self._fd_step = fd_step
        if rate is not None:
            self.rate = rate
        else:
            def rate(t, _a=alpha, _h=fd_step):
                return (_a(t + _h) - _a(t - _h)) / (2 * _h)
            self.rate = rate

    @classmethod
    def constant(cls, a0: float) -> "TimeScaling":
        return cls(alpha=lambda t: a0 * t, rate=lambda t: a0)

    @classmethod
    def zero(cls) -> "TimeScaling":
        return cls.constant(0.0)

    def rate_consistency(self, t: float, h: float | None = None) -> float:
        """|A(t) - central difference of alpha|; 0.0 when alpha is absent.

        Lets callers assert that independently supplied alpha and A actually
        belong together.
        """
        if self.alpha is None:
            return 0.0
        h = self._fd_step if h is None else h
        fd = (self.alpha(t + h) - self.alpha(t - h)) / (2 * h)
        return abs(self.rate(t) - fd)

    def damping_exponent(self, t0: float, t1: float) -> float:
        """int_{t0}^{t1} A dt, exact as alpha(t1) - alpha(t0) when alpha is known."""
        if self.alpha is not None:
            return self.alpha(t1) - self.alpha(t0)
        h = (t1 - t0) / 2.0
        return (self.rate(t0) + 4.0 * self.rate(t0 + h) + self.rate(t1)) * h / 3.0


class _CrankNicolson:
    """Cached unitary substep for a fixed (grid, Hamiltonian, dt)."""

    def __init__(self, n: int, dy: float, ham: HamiltonianSpec, dt: float):
        self.ham = ham
        self.dt = dt
        lam = dt / (2.0 * ham.hbar)
        if ham.kind == "spectral":
            k = 2.0 * math.pi * np.fft.fftfreq(n, d=dy)
            energy = (ham.hbar * k) ** 2 / (2.0 * ham.mass)
            self.mult = (1.0 - 1j * lam * energy) / (1.0 + 1j * lam * energy)
        else:
            kappa = ham.hbar ** 2 / (2.0 * ham.mass * dy ** 2)
            diag = np.full(n, 2.0 * kappa)
            off = np.full(n - 1, -kappa)
            self.ab = np.zeros((3, n), dtype=complex)
            self.ab[0, 1:] = 1j * lam * off
            self.ab[1, :] = 1.0 + 1j * lam * diag
            self.ab[2, :-1] = 1j * lam * off
            self.b_diag = 1.0 - 1j * lam * diag
            self.b_off = -1j * lam * off

    def apply(self, psi: np.ndarray) -> np.ndarray:
        if self.ham.kind == "spectral":
            return np.fft.ifft(self.mult * np.fft.fft(psi))
        rhs = self.b_diag * psi
        rhs[:-1] += self.b_off * psi[1:]
        rhs[1:] += self.b_off * psi[:-1]
        return solve_banded((1, 1), self.ab, rhs)


def schrodinger_step(psi: WaveFunction1D, ham: HamiltonianSpec, scaling: TimeScaling,
                     dt: float, _cn: _CrankNicolson | None = None) -> WaveFunction1D:
    """Advance one step of i hbar (d/dt + A(t)) psi = H psi."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    cn = _cn if _cn is not None and _cn.dt == dt else _CrankNicolson(
        psi.psi.size, psi.dy, ham, dt)
    damping = math.exp(-scaling.damping_exponent(psi.t, psi.t + dt))
    out = damping * cn.apply(psi.psi)
    if not np.all(np.isfinite(out.view(float))):
        raise StepUnstable("non-finite amplitudes after step")
    return WaveFunction1D(psi.y, out, psi.t + dt)


def evolve(psi: WaveFunction1D, ham: HamiltonianSpec, scaling: TimeScaling,
           dt: float, n_steps: int, observer: Callable | None = None) -> WaveFunction1D:
    """Run n_steps of :func:`schrodinger_step`, reusing the cached substep.

    ``observer(step_index, psi)`` is called after every step when given.
    """
    cn = _CrankNicolson(psi.psi.size, psi.dy, ham, dt)
    for i in range(n_steps):
        psi = schrodinger_step(psi, ham, scaling, dt, _cn=cn)
        if observer is not None:
            observer(i + 1, psi)
    return psi


def position_expectation(psi: WaveFunction1D, field: AlphaField, x_ref) -> float:
    """Transport-corrected <y>: e^{-alpha(x_ref)} sum e^{alpha(y_i)} y_i |psi_i|^2 dy.

    Requires psi normalized under the plain measure; reduces to the ordinary
    discrete expectation when alpha is identically zero.
    """
    nrm = psi.norm_sq()
    if abs(nrm - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"norm^2 = {nrm!r} differs from 1 beyond {NORMALIZATION_TOL}")
    points = np.zeros((psi.y.size, 4))
    points[:, 0], points[:, 1] = psi.t, psi.y
    weights = np.exp(field.alpha(points))
    total = float(np.sum(weights * psi.y * psi.probability_density()) * psi.dy)
    return math.exp(-field.alpha(x_ref)) * total


def free_particle_effective_energy(energy: float, rate_t: float, hbar: float) -> complex:
    """Plane-wave energy seen by the covariant time derivative: E + i hbar A(t)."""
    return complex(energy, hbar * rate_t)


def snapshot_to_csv(psi: WaveFunction1D, path) -> None:
    table = np.column_stack([np.full(psi.y.size, float(psi.t)), psi.y, psi.psi.real,
                             psi.psi.imag, psi.probability_density()])
    write_csv(path, ["t", "y", "re_psi", "im_psi", "prob_density"], table)


def summary_to_csv(rows, path) -> None:
    """rows: iterable of (t, norm_sq, position_expectation)."""
    write_csv(path, ["t", "norm_sq", "position_expectation"],
              ((float(t), float(n2), float(pos)) for t, n2, pos in rows))
