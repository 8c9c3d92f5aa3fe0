"""The spacetime value field alpha and its transport-corrected calculus.

The local scale factor at a point p is e^{alpha(p)}. Moving a scalar value
from y to x multiplies it by the transport factor e^{-alpha(x)+alpha(y)};
integrals pick up an e^{alpha(y)} weight under the integral (with the
reference factor e^{-alpha(x)} outside), and derivatives gain the additive
gradient term A_mu = d alpha / d y^mu.

Point convention: a spacetime point is a length-4 ndarray (t, x, y, z) with
t in seconds and x, y, z in meters. The stored temporal gradient component
is d alpha/dt in 1/s; geometry code converts it to 1/m (divide by c) where a
4-vector contraction needs a uniform unit.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Callable

import numpy as np

from ._csv import write_csv
from .errors import NonFiniteIntegrand, OutOfDomain

_REL_FD_STEP = 1e-5  # default finite-difference step, relative to domain extent


def spacetime_point(t=0.0, x=0.0, y=0.0, z=0.0) -> np.ndarray:
    return np.array([t, x, y, z], dtype=float)


def _as_point(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ValueError(f"spacetime point must have shape (4,), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("spacetime point has non-finite components")
    return p


class AlphaField:
    """Base class: a real scalar field over spacetime with gradient access.

    ``domain`` is an optional axis-aligned box (lo, hi), each a 4-vector;
    None means unbounded.
    """

    domain: tuple[np.ndarray, np.ndarray] | None = None
    fd_scale: float = _REL_FD_STEP

    def alpha(self, p) -> float:
        raise NotImplementedError

    def gradient(self, p) -> np.ndarray:
        """(d alpha/dt [1/s], d alpha/dx, d alpha/dy, d alpha/dz [1/m])."""
        p = self._require_inside(p)
        return self._fd_gradient(p)

    # -- shared helpers ---------------------------------------------------

    def _require_inside(self, p) -> np.ndarray:
        p = _as_point(p)
        if self.domain is not None:
            lo, hi = self.domain
            if np.any(p < lo) or np.any(p > hi):
                raise OutOfDomain(f"point {p} outside box [{lo}, {hi}]")
        return p

    def _fd_steps(self, p: np.ndarray) -> np.ndarray:
        steps = self.fd_scale * np.maximum(1.0, np.abs(p))
        if self.domain is not None:
            lo, hi = self.domain
            extent = hi - lo
            bounded = np.isfinite(extent)
            steps[bounded] = self.fd_scale * np.maximum(extent[bounded], 1.0)
        return steps

    def _fd_gradient(self, p: np.ndarray) -> np.ndarray:
        out = np.empty(4)
        steps = self._fd_steps(p)
        for mu in range(4):
            out[mu] = self._fd_axis(p, mu, steps[mu])
        return out

    def _fd_axis(self, p: np.ndarray, mu: int, h: float) -> float:
        """Central difference along one axis; second-order one-sided at a wall."""
        e = np.zeros(4)
        e[mu] = h
        if self.domain is None:
            return (self.alpha(p + e) - self.alpha(p - e)) / (2 * h)
        lo, hi = self.domain
        if p[mu] - h >= lo[mu] and p[mu] + h <= hi[mu]:
            return (self.alpha(p + e) - self.alpha(p - e)) / (2 * h)
        if p[mu] + 2 * h <= hi[mu]:
            return (-3 * self.alpha(p) + 4 * self.alpha(p + e) - self.alpha(p + 2 * e)) / (2 * h)
        if p[mu] - 2 * h >= lo[mu]:
            return (3 * self.alpha(p) - 4 * self.alpha(p - e) + self.alpha(p - 2 * e)) / (2 * h)
        # axis thinner than 2h: clamped two-point difference (exact for the
        # linear variation a one-cell grid axis can represent)
        below, above = max(p[mu] - h, lo[mu]), min(p[mu] + h, hi[mu])
        if above > below:
            pl, ph = p.copy(), p.copy()
            pl[mu], ph[mu] = below, above
            return (self.alpha(ph) - self.alpha(pl)) / (above - below)
        raise OutOfDomain(f"domain is a single point along axis {mu}")


class AnalyticField(AlphaField):
    """Field given by a callable alpha(p), with an optional analytic gradient."""

    def __init__(self, alpha_fn: Callable, grad_fn: Callable | None = None,
                 domain=None, richardson: bool = False,
                 fd_scale: float = _REL_FD_STEP):
        self._alpha_fn = alpha_fn
        self._grad_fn = grad_fn
        self._richardson = richardson
        self.fd_scale = fd_scale
        if domain is not None:
            lo, hi = (np.asarray(domain[0], dtype=float), np.asarray(domain[1], dtype=float))
            self.domain = (lo, hi)

    def alpha(self, p) -> float:
        p = self._require_inside(p)
        return float(self._alpha_fn(p))

    def gradient(self, p) -> np.ndarray:
        p = self._require_inside(p)
        if self._grad_fn is not None:
            return np.asarray(self._grad_fn(p), dtype=float)
        g = self._fd_gradient(p)
        if self._richardson:
            fine = np.empty(4)
            steps = self._fd_steps(p)
            for mu in range(4):
                fine[mu] = self._fd_axis(p, mu, steps[mu] / 2)
            g = (4 * fine - g) / 3
        return g


class ConstantField(AnalyticField):
    """Spatially and temporally constant alpha; mathematics is global here."""

    def __init__(self, value: float = 0.0):
        super().__init__(lambda p: value, lambda p: np.zeros(4))
        self.value = value


class GridField(AlphaField):
    """Alpha sampled on a uniform 4-D box; multilinear interpolation in between."""

    def __init__(self, samples, origin, spacing):
        self.samples = np.asarray(samples, dtype=float)
        if self.samples.ndim != 4:
            raise ValueError("grid samples must be a 4-D array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("grid samples contain non-finite values")
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = np.asarray(spacing, dtype=float)
        if np.any(self.spacing <= 0):
            raise ValueError("grid spacing must be positive on every axis")
        hi = self.origin + self.spacing * (np.array(self.samples.shape) - 1)
        self.domain = (self.origin.copy(), hi)

    def alpha(self, p) -> float:
        p = self._require_inside(p)
        # fractional index per axis, clamped so the top edge stays in the last cell
        frac = (p - self.origin) / self.spacing
        i0 = np.minimum(frac.astype(int), np.array(self.samples.shape) - 2)
        i0 = np.maximum(i0, 0)
        w = frac - i0
        total = 0.0
        for corner in range(16):
            bits = [(corner >> k) & 1 for k in range(4)]
            weight = 1.0
            for ax, bit in enumerate(bits):
                weight *= w[ax] if bit else (1.0 - w[ax])
            if weight != 0.0:
                idx = tuple(i0[ax] + bits[ax] for ax in range(4))
                total += weight * self.samples[idx]
        return float(total)

    def _fd_steps(self, p: np.ndarray) -> np.ndarray:
        return self.spacing.copy()

    @classmethod
    def from_csv(cls, path) -> "GridField":
        """Load a grid field from the CSV layout written by :meth:`to_csv`."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = {row[0]: [float(v) for v in row[1:]] for row in rows[:3]}
        for key in ("axis_sizes", "h_per_axis", "origin"):
            if key not in header:
                raise ValueError(f"grid CSV missing header row {key!r}")
        sizes = [int(v) for v in header["axis_sizes"]]
        flat = np.array([float(row[0]) for row in rows[3:]])
        if flat.size != np.prod(sizes):
            raise ValueError(
                f"grid CSV sample count {flat.size} != product of axis_sizes {sizes}"
            )
        return cls(flat.reshape(sizes), header["origin"], header["h_per_axis"])

    def to_csv(self, path) -> None:
        write_csv(path, ["axis_sizes", *self.samples.shape], itertools.chain(
            [["h_per_axis", *self.spacing], ["origin", *self.origin]],
            ([v] for v in self.samples.ravel())))


class TimeOnlyField(AlphaField):
    """alpha depends on coordinate time only: alpha(p) = alpha_t(p[0])."""

    def __init__(self, alpha_t: Callable, rate_t: Callable | None = None, t_domain=None):
        self._alpha_t = alpha_t
        self._rate_t = rate_t
        if t_domain is not None:
            lo = spacetime_point(t_domain[0], -np.inf, -np.inf, -np.inf)
            hi = spacetime_point(t_domain[1], np.inf, np.inf, np.inf)
            self.domain = (lo, hi)

    def alpha(self, p) -> float:
        p = self._require_inside(p)
        return float(self._alpha_t(p[0]))

    def gradient(self, p) -> np.ndarray:
        p = self._require_inside(p)
        if self._rate_t is not None:
            return np.array([float(self._rate_t(p[0])), 0.0, 0.0, 0.0])
        return np.array([self._fd_axis(p, 0, self._fd_steps(p)[0]), 0.0, 0.0, 0.0])


# -- operations -----------------------------------------------------------


def transport_factor(field: AlphaField, x, y) -> float:
    """Multiplier applied to a value moved from y to x: e^{-alpha(x)+alpha(y)}."""
    return math.exp(field.alpha(y) - field.alpha(x))


def transport_scalar(field: AlphaField, x, y, q) -> float:
    """The value q at y, re-expressed at x. Applies to dot products and
    trigonometric values just as to plain numbers."""
    return q * transport_factor(field, x, y)


def _quad_nodes(lo: float, hi: float, n: int, method: str):
    if n < 2:
        raise ValueError("need at least 2 panels")
    if method == "simpson":
        if n % 2:
            raise ValueError("simpson needs an even number of panels")
        ys = np.linspace(lo, hi, n + 1)
        h = (hi - lo) / n
        w = np.full(n + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return ys, w * (h / 3.0)
    if method == "midpoint":
        h = (hi - lo) / n
        ys = lo + h * (np.arange(n) + 0.5)
        return ys, np.full(n, h)
    raise ValueError(f"unknown quadrature method {method!r}")


def scaled_integral(f, field: AlphaField, x_ref, lo, hi, n=256,
                    method="simpson", axis=1, anchor=None) -> float:
    """Transport-corrected line integral along one coordinate axis.

    Approximates e^{-alpha(x_ref)} * int e^{alpha(y)} f(y) dy, where the
    integration variable runs along ``axis`` through the point ``anchor``
    (default: x_ref) and f takes the scalar coordinate. The field weight is
    evaluated at every quadrature node, not at panel centers of f alone.
    """
    x_ref = _as_point(x_ref)
    base = x_ref if anchor is None else _as_point(anchor)
    ys, weights = _quad_nodes(float(lo), float(hi), int(n), method)
    total = 0.0
    for yv, w in zip(ys, weights):
        p = base.copy()
        p[axis] = yv
        g = math.exp(field.alpha(p)) * f(yv)
        if not math.isfinite(g):
            raise NonFiniteIntegrand(f"integrand not finite at {yv}")
        total += w * g
    return math.exp(-field.alpha(x_ref)) * total


def scaled_integral_3d(f, field: AlphaField, x_ref, lo, hi, n=32,
                       method="simpson", anchor=None) -> float:
    """Transport-corrected volume integral over a spatial box at fixed time.

    ``lo``/``hi`` are 3-vectors over axes (x, y, z); the time slice is taken
    from ``anchor`` (default: x_ref); f takes a 3-vector.
    """
    x_ref = _as_point(x_ref)
    base = x_ref if anchor is None else _as_point(anchor)
    nodes, weights = [], []
    for ax in range(3):
        ys, w = _quad_nodes(float(lo[ax]), float(hi[ax]), int(n), method)
        nodes.append(ys)
        weights.append(w)
    total = 0.0
    for i, wx in enumerate(weights[0]):
        for j, wy in enumerate(weights[1]):
            for k, wz in enumerate(weights[2]):
                p = base.copy()
                p[1:] = nodes[0][i], nodes[1][j], nodes[2][k]
                g = math.exp(field.alpha(p)) * f(p[1:])
                if not math.isfinite(g):
                    raise NonFiniteIntegrand(f"integrand not finite at {p[1:]}")
                total += wx * wy * wz * g
    return math.exp(-field.alpha(x_ref)) * total


def covariant_derivative(f, field: AlphaField, y, mu: int, coupling: float = 1.0,
                         step: float | None = None) -> float:
    """Transport-corrected derivative: d_mu f + coupling * A_mu(y) * f(y).

    The partial derivative is a central difference with the field's default
    step unless ``step`` is given. The kernel identity D(e^{-alpha}) = 0
    holds because d_mu e^{-alpha} = -A_mu e^{-alpha}.
    """
    y = _as_point(y)
    h = float(step) if step is not None else float(field._fd_steps(y)[mu])
    e = np.zeros(4)
    e[mu] = h
    dfd = (f(y + e) - f(y - e)) / (2 * h)
    a_mu = field.gradient(y)[mu]
    return dfd + coupling * a_mu * f(y)


def transport_derivative_quotient(f, field: AlphaField, y, mu: int, h: float) -> float:
    """One-sided transported difference quotient at finite step h:
    [e^{-alpha(y)+alpha(y+h)} f(y+h) - f(y)] / h. Tends to the covariant
    derivative as h -> 0; useful as an independent cross-check."""
    y = _as_point(y)
    e = np.zeros(4)
    e[mu] = h
    moved = math.exp(field.alpha(y + e) - field.alpha(y)) * f(y + e)
    return (moved - f(y)) / h
