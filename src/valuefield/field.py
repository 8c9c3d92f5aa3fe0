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
import functools
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


_VECTOR = np.dtype((float, 4))  # one gradient row, as np.fromiter builds it

# the 16 corners of a 4-D cell: corner c has bit k of c on axis k
_CORNERS = (np.arange(16)[:, None] >> np.arange(4)) & 1


class AlphaField:
    """Base class: a real scalar field over spacetime with gradient access.

    ``alpha(p)`` and ``gradient(p)`` take one point, a length-4 array, and
    return a float and a 4-vector, or take an ``(N, 4)`` array of points and
    return ``(N,)`` and ``(N, 4)`` arrays; row i of a batch equals the call on
    point i. Subclasses implement ``_alpha_rows(rows)`` and, where they have an
    analytic gradient, ``_gradient_rows(rows)`` on an ``(N, 4)`` array whose
    rows are finite and inside the domain.

    ``domain`` is an optional axis-aligned box (lo, hi), each a 4-vector;
    None means unbounded.
    """

    domain: tuple[np.ndarray, np.ndarray] | None = None
    fd_scale: float = _REL_FD_STEP

    def alpha(self, p) -> float | np.ndarray:
        p = np.asarray(p, dtype=float)
        out = self._alpha_rows(self._require_inside(p))
        return float(out[0]) if p.ndim == 1 else out

    def gradient(self, p) -> np.ndarray:
        """(d alpha/dt [1/s], d alpha/dx, d alpha/dy, d alpha/dz [1/m]) per point."""
        p = np.asarray(p, dtype=float)
        out = self._gradient_rows(self._require_inside(p))
        return out[0] if p.ndim == 1 else out

    def _alpha_rows(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------

    def _require_inside(self, p: np.ndarray) -> np.ndarray:
        """The points of float array ``p`` as finite ``(N, 4)`` rows inside the domain."""
        if p.ndim not in (1, 2) or p.shape[-1] != 4:
            raise ValueError(f"spacetime points must have shape (4,) or (N, 4), got {p.shape}")
        rows = p.reshape(-1, 4)
        if not np.isfinite(rows).all():
            raise ValueError("spacetime point has non-finite components")
        if self.domain is not None:
            lo, hi = self.domain
            outside = ((rows < lo) | (rows > hi)).any(axis=1)
            if outside.any():
                raise OutOfDomain(f"point {rows[outside][0]} outside box [{lo}, {hi}]")
        return rows

    def _fd_steps(self, p: np.ndarray) -> np.ndarray:
        steps = self.fd_scale * np.maximum(1.0, np.abs(p))
        if self.domain is not None:
            lo, hi = self.domain
            extent = hi - lo
            bounded = np.isfinite(extent)
            steps[..., bounded] = self.fd_scale * np.maximum(extent[bounded], 1.0)
        return steps

    def _gradient_rows(self, rows: np.ndarray) -> np.ndarray:
        """Finite differences from one ``_alpha_rows`` call over every stencil
        point: central, second-order one-sided at a wall, and a clamped
        two-point difference on an axis thinner than 2h."""
        n = len(rows)
        h = self._fd_steps(rows)  # (N, 4), or (4,) for every row
        lo, hi = self.domain if self.domain is not None else (-np.inf, np.inf)
        up, down = rows + h, rows - h
        central = (down >= lo) & (up <= hi)
        forward = ~central & (rows + 2 * h <= hi)
        backward = ~central & ~forward & (rows - 2 * h >= lo)
        clamped = ~(central | forward | backward)
        # per (row, axis) two stencil coordinates a, b; one-sided formulas also use the row
        a = np.where(backward, down, np.minimum(up, hi))
        b = np.where(forward, rows + 2 * h,
                     np.where(backward, rows - 2 * h, np.maximum(down, lo)))
        if (clamped & (a <= b)).any():
            raise OutOfDomain("domain is a single point along axis "
                              f"{np.flatnonzero((clamped & (a <= b)).any(axis=0))[0]}")
        axes = np.arange(4)
        stencil = np.broadcast_to(rows[:, None, None, :], (n, 4, 2, 4)).copy()
        stencil[:, axes, 0, axes] = a
        stencil[:, axes, 1, axes] = b
        values = self._alpha_rows(np.concatenate([stencil.reshape(-1, 4), rows]))
        fa, fb = values[:8 * n].reshape(n, 4, 2).transpose(2, 0, 1)
        fc = values[8 * n:, None]
        return np.where(forward, (-3 * fc + 4 * fa - fb) / (2 * h),
                        np.where(backward, (3 * fc - 4 * fa + fb) / (2 * h),
                                 (fa - fb) / np.where(central, 2 * h, a - b)))


class AnalyticField(AlphaField):
    """Field given by a callable alpha(p), with an optional analytic gradient."""

    def __init__(self, alpha_fn: Callable, grad_fn: Callable | None = None,
                 domain=None, fd_scale: float = _REL_FD_STEP):
        self._alpha_fn = alpha_fn
        self._grad_fn = grad_fn
        self.fd_scale = fd_scale
        if domain is not None:
            lo, hi = (np.asarray(domain[0], dtype=float), np.asarray(domain[1], dtype=float))
            self.domain = (lo, hi)

    def _alpha_rows(self, rows):
        return np.fromiter(map(self._alpha_fn, rows), float, len(rows))

    def _gradient_rows(self, rows):
        if self._grad_fn is None:
            return super()._gradient_rows(rows)
        return np.fromiter(map(self._grad_fn, rows), _VECTOR, len(rows))


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
        sizes = np.array(self.samples.shape)
        hi = self.origin + self.spacing * (sizes - 1)
        self.domain = (self.origin.copy(), hi)
        self._last_cell, self._last_index = sizes - 2, sizes - 1

    def _alpha_rows(self, rows):
        # fractional index per axis, clamped so the top edge stays in the last cell
        frac = (rows - self.origin) / self.spacing
        i0 = np.maximum(np.minimum(frac.astype(int), self._last_cell), 0)
        w = (frac - i0)[:, None, :]
        weights = np.where(_CORNERS, w, 1.0 - w).prod(axis=2)
        # an axis of one sample has no upper corner; its weight there is 0
        corners = np.minimum(i0[:, None, :] + _CORNERS, self._last_index)
        values = self.samples[tuple(corners.transpose(2, 0, 1))]
        # summed corner by corner in a fixed order, so a row does not depend on its batch
        return np.add.accumulate(weights * values, axis=1)[:, -1]

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


class TimeOnlyField(AnalyticField):
    """alpha depends on coordinate time only: alpha(p) = alpha_t(p[0])."""

    def __init__(self, alpha_t: Callable, rate_t: Callable | None = None, t_domain=None):
        grad = None if rate_t is None else (lambda p: (rate_t(p[0]), 0.0, 0.0, 0.0))
        domain = None if t_domain is None else (
            spacetime_point(t_domain[0], -np.inf, -np.inf, -np.inf),
            spacetime_point(t_domain[1], np.inf, np.inf, np.inf))
        super().__init__(lambda p: alpha_t(p[0]), grad, domain)


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


def _tensor_quadrature(f, field: AlphaField, x_ref, anchor, axes, lo, hi, n,
                       method) -> float:
    """e^{-alpha(x_ref)} * sum of w e^{alpha} f over the tensor product of the
    1-D rules on ``axes``, with one field call for x_ref and every node."""
    x_ref = _as_point(x_ref)
    base = x_ref if anchor is None else _as_point(anchor)
    rules = [_quad_nodes(float(a), float(b), int(n), method) for a, b in zip(lo, hi)]
    coords = np.stack(np.meshgrid(*(ys for ys, _ in rules), indexing="ij"),
                      axis=-1).reshape(-1, len(axes))
    weights = functools.reduce(np.multiply.outer, (w for _, w in rules)).ravel()
    points = np.vstack([x_ref, np.broadcast_to(base, (len(coords), 4))])
    points[1:, axes] = coords
    alpha = field.alpha(points)
    values = np.fromiter(map(f, coords), float, len(coords))
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(alpha[1:]) * values
    bad = ~np.isfinite(g)
    if bad.any():
        raise NonFiniteIntegrand(f"integrand not finite at {coords[bad][0]}")
    return math.exp(-alpha[0]) * float(np.sum(weights * g))


def scaled_integral(f, field: AlphaField, x_ref, lo, hi, n=256,
                    method="simpson", axis=1, anchor=None) -> float:
    """Transport-corrected line integral along one coordinate axis.

    Approximates e^{-alpha(x_ref)} * int e^{alpha(y)} f(y) dy, where the
    integration variable runs along ``axis`` through the point ``anchor``
    (default: x_ref) and f takes the scalar coordinate. The field weight is
    evaluated at every quadrature node, not at panel centers of f alone.
    """
    return _tensor_quadrature(lambda q: f(q[0]), field, x_ref, anchor, [axis],
                              [lo], [hi], n, method)


def scaled_integral_3d(f, field: AlphaField, x_ref, lo, hi, n=32,
                       method="simpson", anchor=None) -> float:
    """Transport-corrected volume integral over a spatial box at fixed time:
    the three-axis case of :func:`scaled_integral`.

    ``lo``/``hi`` are 3-vectors over axes (x, y, z); the time slice is taken
    from ``anchor`` (default: x_ref); f takes a 3-vector.
    """
    return _tensor_quadrature(f, field, x_ref, anchor, [1, 2, 3], lo, hi, n, method)


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
