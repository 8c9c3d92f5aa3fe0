"""Alpha-modified quantum mechanics on a 1-D spatial grid.

With a time-only scaling field, the Schroedinger equation picks up the
covariant time derivative: i hbar (d/dt + A(t)) psi = H psi, so

    d psi/dt = -(i/hbar) H psi - A(t) psi.

Because the A(t) term is proportional to the identity it commutes exactly
with the Hamiltonian flow; each step is the exact damping factor
e^{-int A dt} times a unitary Crank-Nicolson substep. The squared norm then
obeys d||psi||^2/dt = -2 A(t) ||psi||^2 with no splitting error, isolating
discretization error in the unitary part.

The spatial grid maps to spacetime axis 1 at the wave function's time. Units
are hbar = m = 1, so the free-particle Hamiltonian is -(1/2) d^2/dy^2: a
periodic spectral kinetic operator, or a Dirichlet tridiagonal stencil.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotNormalized, StepUnstable, require_finite_positive
from .field import AlphaField, _as_point

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
        if self.y.size < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.y.size}")
        require_finite_positive("grid spacing", self.dy)
        dy = np.diff(self.y)
        if not np.allclose(dy, dy[0], rtol=1e-9, atol=0.0):
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
        psi = self.psi / math.sqrt(nrm)
        if not np.isfinite(psi).all():
            raise ValueError("amplitudes must be finite")
        return self._replaced(psi, self.t)  # the same grid, already checked uniform

    def probability_density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2

    def _replaced(self, psi: np.ndarray, t: float) -> "WaveFunction1D":
        """Copy on the same grid holding ``psi`` at ``t``, without re-checking:
        the grid is known uniform and the caller knows ``psi`` is finite."""
        out = object.__new__(WaveFunction1D)
        out.y, out.psi, out.t = self.y, psi, t
        return out


def gaussian_packet(y, y0=0.0, sigma=1.0, k0=0.0) -> WaveFunction1D:
    """Normalized Gaussian wave packet at t = 0: |psi|^2 is N(y0, sigma^2)."""
    require_finite_positive("sigma", sigma)
    y = np.asarray(y, dtype=float)
    amp = (2 * math.pi * sigma ** 2) ** -0.25
    psi = amp * np.exp(-((y - y0) ** 2) / (4 * sigma ** 2) + 1j * k0 * y)
    return WaveFunction1D(y, psi).normalized()


@dataclass(frozen=True)
class HamiltonianSpec:
    """Kinetic operator -(1/2) d^2/dy^2 (hbar = m = 1): periodic spectral or Dirichlet fd."""

    kind: str = "spectral"

    def __post_init__(self):
        if self.kind not in ("spectral", "fd"):
            raise ValueError(f"kind must be 'spectral' or 'fd', got {self.kind!r}")


class TimeScaling:
    """Time-only scaling data: alpha(t), whose rate A(t) = d alpha/dt damps psi."""

    def __init__(self, alpha: Callable):
        self.alpha = alpha

    @classmethod
    def constant(cls, a0: float) -> "TimeScaling":
        return cls(alpha=lambda t: a0 * t)


class _CrankNicolson:
    """Cached unitary substep for a fixed (grid, Hamiltonian, dt); it keeps its ``dt``.

    ``apply`` works in the substep's own basis. For the spectral kinetic
    operator that is Fourier space, where the Crank-Nicolson multiplier is
    diagonal; for fd it is position space. ``into`` and ``position`` move a
    state into that basis and back.

    The fd kinetic operator's constant tridiagonal left-hand matrix is LU
    factored once, with partial pivoting (LAPACK ``zgttrf``); each step is one
    substitution on the stored factors (``zgttrs``). That is the elimination
    of a fresh tridiagonal solve (``zgtsv``), so the amplitudes are the same.
    """

    def __init__(self, n: int, dy: float, ham: HamiltonianSpec, dt: float):
        self.spectral, self.dt = ham.kind == "spectral", dt
        lam = dt / 2.0
        if self.spectral:
            k = 2.0 * math.pi * np.fft.fftfreq(n, d=dy)
            energy = k ** 2 / 2.0
            self.mult = (1.0 - 1j * lam * energy) / (1.0 + 1j * lam * energy)
        else:
            from scipy.linalg.lapack import zgttrf, zgttrs  # deferred: slow to import, fd only
            kappa = 1.0 / (2.0 * dy ** 2)
            diag = np.full(n, 2.0 * kappa)
            off = np.full(n - 1, -kappa)
            *self.lu, info = zgttrf(1j * lam * off, 1.0 + 1j * lam * diag, 1j * lam * off)
            _check_lapack("zgttrf", info)
            self.gttrs = zgttrs
            self.b_diag = 1.0 - 1j * lam * diag
            self.b_off = -1j * lam * off

    def into(self, psi: WaveFunction1D) -> WaveFunction1D:
        """``psi`` in the substep's basis: a copy holding its Fourier amplitudes
        for spectral, ``psi`` itself for fd."""
        return psi._replaced(np.fft.fft(psi.psi), psi.t) if self.spectral else psi

    def position(self, state: WaveFunction1D) -> WaveFunction1D:
        """Inverse of :meth:`into`: a copy holding the position amplitudes for
        spectral, ``state`` itself for fd."""
        return state._replaced(np.fft.ifft(state.psi), state.t) if self.spectral else state

    def apply(self, psi: np.ndarray) -> np.ndarray:
        if self.spectral:
            return self.mult * psi
        rhs = self.b_diag * psi
        rhs[:-1] += self.b_off * psi[1:]
        rhs[1:] += self.b_off * psi[:-1]
        x, info = self.gttrs(*self.lu, rhs, overwrite_b=True)
        _check_lapack("zgttrs", info)
        return x


def _check_lapack(name: str, info: int) -> None:
    """Raise ``LinAlgError`` on a nonzero LAPACK ``info``: a singular matrix
    (info > 0, worded as ``solve_banded`` words it) or an illegal argument."""
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise np.linalg.LinAlgError(f"illegal value in argument {-info} of {name}")


def schrodinger_step(psi: WaveFunction1D, ham: HamiltonianSpec, scaling: TimeScaling,
                     cn: _CrankNicolson) -> WaveFunction1D:
    """One step of i hbar (d/dt + A(t)) psi = H psi over the ``cn.dt`` that the
    substep ``cn`` was built for from ``ham``, in ``cn``'s basis (Fourier
    amplitudes for spectral, see :meth:`_CrankNicolson.into`) on the way in and out."""
    t = psi.t + cn.dt
    damping = math.exp(-(scaling.alpha(t) - scaling.alpha(psi.t)))
    out = cn.apply(psi.psi)  # a fresh array on both paths, so it is damped in place
    out *= damping
    # a finite sum has no NaN or inf term; only a sum that is not finite (an
    # overflow of finite terms included) checks each amplitude
    if not (cmath.isfinite(out.sum()) or np.isfinite(out).all()):
        raise StepUnstable("non-finite amplitudes after step")
    return psi._replaced(out, t)


def evolve(psi: WaveFunction1D, ham: HamiltonianSpec, scaling: TimeScaling,
           dt: float, n_steps: int, observer: Callable | None = None,
           every: int = 1) -> WaveFunction1D:
    """Run n_steps of :func:`schrodinger_step`, reusing one cached substep.

    The state stays in the substep's basis between observations. For the
    spectral Hamiltonian that is Fourier space: one FFT at the start and one
    inverse FFT per observed state and for the returned one, instead of two
    FFTs per step. Each step goes through :func:`schrodinger_step`.

    ``observer(step_index, psi)`` is called after every ``every``-th step
    (step_index = every, 2 every, ...), with ``psi`` in position space.
    ``n_steps == 0`` returns ``psi`` itself; a negative count raises ``ValueError``.
    """
    require_finite_positive("dt", dt)
    if every < 1:
        raise ValueError(f"every must be a positive step count, got {every!r}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be a step count of 0 or more, got {n_steps!r}")
    if n_steps == 0:
        return psi
    cn = _CrankNicolson(psi.psi.size, psi.dy, ham, dt)
    state = cn.into(psi)
    for i in range(1, n_steps + 1):
        state = schrodinger_step(state, ham, scaling, cn)
        if observer is not None and i % every == 0:
            observer(i, cn.position(state))
    return cn.position(state)


def position_expectation(psi: WaveFunction1D, field: AlphaField, x_ref) -> float:
    """Transport-corrected <y>: e^{-alpha(x_ref)} sum e^{alpha(y_i)} y_i |psi_i|^2 dy.

    Requires psi normalized under the plain measure; reduces to the ordinary
    discrete expectation when alpha is identically zero.
    """
    nrm = psi.norm_sq()
    if not abs(nrm - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
        raise NotNormalized(f"norm^2 = {nrm!r} differs from 1 beyond {NORMALIZATION_TOL}")
    # one field call: x_ref in row 0, then the grid points at the wave function's time
    points = np.zeros((psi.y.size + 1, 4))
    points[0] = _as_point(x_ref)
    points[1:, 0], points[1:, 1] = psi.t, psi.y
    alpha = field.alpha(points)
    weights = np.exp(alpha[1:])
    total = float(np.sum(weights * psi.y * psi.probability_density()) * psi.dy)
    return math.exp(-alpha[0]) * total

