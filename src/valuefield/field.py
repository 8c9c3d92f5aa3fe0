"""The spacetime value field alpha and its transport-corrected calculus.

The local scale factor at a point p is e^{alpha(p)}. Moving a scalar value
from y to x multiplies it by the transport factor e^{-alpha(x)+alpha(y)};
integrals pick up an e^{alpha(y)} weight under the integral (with the
reference factor e^{-alpha(x)} outside), and derivatives gain the additive
gradient term A_mu = d alpha / d y^mu.

Point convention: a spacetime point is a length-4 ndarray or list (t, x, y,
z) with t in seconds and x, y, z in meters. The stored temporal gradient
component is d alpha/dt in 1/s; geometry code converts it to 1/m (divide by
c) where a 4-vector contraction needs a uniform unit.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
from typing import Callable

import numpy as np

from ._csv import write_csv, write_floats
from .errors import NonFiniteIntegrand, OutOfDomain


def spacetime_point(t=0.0, x=0.0, y=0.0, z=0.0) -> np.ndarray:
    return np.array([t, x, y, z], dtype=float)


def _as_point(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise ValueError(f"spacetime point must have shape (4,), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("spacetime point has non-finite components")
    return p


# the 16 corners of a 4-D cell: corner c has bit k of c on axis k
_CORNERS = (np.arange(16)[:, None] >> np.arange(4)) & 1


class AlphaField:
    """Base class: a real scalar field over spacetime with gradient access.

    ``alpha(p)`` takes one point, a length-4 array or list, and returns a
    float, or takes an ``(N, 4)`` array of points and returns an ``(N,)``
    array whose row i equals the call on point i, bit for bit.
    ``gradient(p)`` takes one point and returns a 4-vector. Subclasses
    implement three hooks: ``_alpha_rows(rows)`` on an ``(N, 4)`` array whose
    rows are finite and inside the domain, and ``_point_alpha(x)`` and
    ``_point_gradient(x)`` on one point.

    A list of 4 Python floats is checked on floats; any other point is checked
    as a batch row is. Either way the one-point hooks get ``x``, the point as a
    list of 4 finite floats inside the domain, so a list and an array of the
    same point give the same result or the same error. The hooks return a float
    equal to row 0 of ``_alpha_rows`` on ``np.array([x])`` and a new float
    array of shape (4,); a hook that needs an array builds its own from ``x``,
    and one without its own gradient returns :meth:`_stencil_gradient`.

    ``domain`` is an axis-aligned box (lo, hi), each a 4-vector, set by
    :class:`GridField` only; None means unbounded.
    """

    domain: tuple[np.ndarray, np.ndarray] | None = None
    _bounds: tuple | None = None  # (lo0, hi0, ..., lo3, hi3) as floats, derived once
    fd_scale: float = 1e-5  # finite-difference step, relative to max(1, |p|)

    def alpha(self, p) -> float | np.ndarray:
        if type(p) is list and len(p) == 4:
            t, x, y, z = p
            if (type(t) is type(x) is type(y) is type(z) is float
                    and math.isfinite(t + x + y + z)
                    and (self._bounds is None or self._inside(t, x, y, z))):
                return self._point_alpha(p)
        p = np.asarray(p, dtype=float)
        if p.ndim != 1:
            return self._alpha_rows(self._require_inside(p))
        return self._point_alpha(self._require_inside(_as_point(p))[0].tolist())

    def gradient(self, p) -> np.ndarray:
        """(d alpha/dt [1/s], d alpha/dx, d alpha/dy, d alpha/dz [1/m]) at one point."""
        if type(p) is list and len(p) == 4:
            t, x, y, z = p
            if (type(t) is type(x) is type(y) is type(z) is float
                    and math.isfinite(t + x + y + z)
                    and (self._bounds is None or self._inside(t, x, y, z))):
                return self._point_gradient(p)
        p = np.asarray(p, dtype=float)
        if p.ndim != 1:
            raise ValueError(f"gradient takes one spacetime point of shape (4,), got {p.shape}")
        return self._point_gradient(self._require_inside(_as_point(p))[0].tolist())

    # -- shared helpers ---------------------------------------------------

    def _inside(self, t, x, y, z) -> bool:
        """Whether the four floats of one point lie in the domain; ``_bounds`` is set."""
        l0, h0, l1, h1, l2, h2, l3, h3 = self._bounds
        return l0 <= t <= h0 and l1 <= x <= h1 and l2 <= y <= h2 and l3 <= z <= h3

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
        return self.fd_scale * np.maximum(1.0, np.abs(p))

    def _stencil_gradient(self, p: np.ndarray) -> np.ndarray:
        """Finite differences at the point ``p`` from one ``_alpha_rows`` call
        over its 9 stencil points (per axis the two coordinates a, b, then p):
        central, second-order one-sided at a wall, and a clamped two-point
        difference on an axis thinner than 2h."""
        h = self._fd_steps(p)
        lo, hi = self.domain if self.domain is not None else (-np.inf, np.inf)
        up, down = p + h, p - h
        central = (down >= lo) & (up <= hi)
        forward = ~central & (p + 2 * h <= hi)
        backward = ~central & ~forward & (p - 2 * h >= lo)
        clamped = ~(central | forward | backward)
        # per axis two stencil coordinates a, b; the one-sided formulas also use p
        a = np.where(backward, down, np.minimum(up, hi))
        b = np.where(forward, p + 2 * h, np.where(backward, p - 2 * h, np.maximum(down, lo)))
        if (clamped & (a <= b)).any():
            raise OutOfDomain("domain is a single point along axis "
                              f"{np.flatnonzero(clamped & (a <= b))[0]}")
        axes = np.arange(4)
        stencil = np.tile(p, (9, 1))
        stencil[2 * axes, axes] = a
        stencil[2 * axes + 1, axes] = b
        values = self._alpha_rows(stencil)
        fa, fb, fc = values[0:8:2], values[1:8:2], values[8]
        return np.where(forward, (-3 * fc + 4 * fa - fb) / (2 * h),
                        np.where(backward, (3 * fc - 4 * fa + fb) / (2 * h),
                                 (fa - fb) / np.where(central, 2 * h, a - b)))


class AnalyticField(AlphaField):
    """Field given by a callable alpha(p), with an optional analytic gradient."""

    def __init__(self, alpha_fn: Callable, grad_fn: Callable | None = None):
        self._alpha_fn = alpha_fn
        self._grad_fn = grad_fn

    def _alpha_rows(self, rows):
        # a copy: a callable that writes its point must not reach the caller's batch
        return np.fromiter(map(self._alpha_fn, rows.copy()), float, len(rows))

    def _point_alpha(self, x):
        a = self._alpha_fn(np.array(x, dtype=float))
        # what is not a float is converted by np.fromiter, as in a batch, for
        # the same value or the same error
        return float(a) if isinstance(a, float) else float(np.fromiter((a,), float, 1)[0])

    def _point_gradient(self, x):
        p = np.array(x, dtype=float)
        if self._grad_fn is None:
            return self._stencil_gradient(p)
        g = np.array(self._grad_fn(p), dtype=float)
        if g.shape != (4,):
            raise ValueError(f"gradient callable must return 4 numbers, got shape {g.shape}")
        return g


class ConstantField(AlphaField):
    """Spatially and temporally constant alpha; mathematics is global here."""

    def __init__(self, value: float = 0.0):
        self.value = value

    def _alpha_rows(self, rows):
        return np.full(len(rows), float(self.value))

    def _point_alpha(self, x):
        return float(self.value)

    def _point_gradient(self, x):
        return np.zeros(4)


class GridField(AlphaField):
    """Alpha sampled on a uniform 4-D box; multilinear interpolation in between."""

    def __init__(self, samples, origin, spacing):
        samples = np.ascontiguousarray(samples, dtype=float)  # a flat take copies nothing
        if samples.ndim != 4:
            raise ValueError("grid samples must be a 4-D array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("grid samples contain non-finite values")
        origin = np.array(origin, dtype=float)
        spacing = np.array(spacing, dtype=float)
        if origin.shape != (4,) or spacing.shape != (4,):
            raise ValueError("grid origin and spacing must have shape (4,)")
        if not (np.isfinite(origin).all() and np.isfinite(spacing).all()
                and (spacing > 0).all()):
            raise ValueError("grid origin must be finite, and spacing finite and positive")
        sizes = np.array(samples.shape)
        self._samples, self._origin, self._spacing = samples.view(), origin, spacing
        self._domain = (origin.copy(), origin + spacing * (sizes - 1))
        # read-only: the domain, the strides and the gather offsets are derived once
        for a in (self._samples, origin, spacing, *self._domain):
            a.flags.writeable = False
        self._last_cell = sizes - 2
        # flat offset of the next sample along each axis, so samples.take(i @ strides)
        # is samples[i]; 0 on an axis of one sample, which has no upper corner
        self._strides = np.append(np.cumprod(sizes[:0:-1])[::-1], 1) * (sizes > 1)
        # flat offsets from a cell's lowest node of its 16 corners and, for the
        # one-point gradient, per corner and axis of the next and the previous
        # sample from the node _reach below it (shape (2, 4, 16), none negative,
        # so a gather slices the flat samples); None when an axis has fewer
        # than 4 samples, so no point takes the gather
        self._flat, self._reach = self._samples.reshape(-1), int(self._strides.max())
        self._corner_offsets = _CORNERS @ self._strides
        self._neighbour_offsets = (
            self._corner_offsets + np.array([self._strides, -self._strides])[:, :, None]
            + self._reach if (self._last_cell >= 2).all() else None)
        # the one-point path's per-axis constants as Python floats and ints; the top
        # cell n - 2 - margin per margin; 2h (an array 2 * spacing warns on overflow)
        self._cell_axes = (*origin.tolist(), *spacing.tolist(), *self._strides.tolist())
        self._cell_tops = (self._last_cell.tolist(), (self._last_cell - 1).tolist())
        lo, hi = (b.tolist() for b in self._domain)
        self._bounds = tuple(v for pair in zip(lo, hi) for v in pair)
        self._stencil_axes = (*spacing.tolist(), *lo, *hi)
        self._two_h = np.array([2.0 * h for h in spacing.tolist()])

    samples = property(lambda self: self._samples, doc="The 4-D sample array (read-only).")
    origin = property(lambda self: self._origin, doc="The lowest node (t, x, y, z) (read-only).")
    spacing = property(lambda self: self._spacing, doc="The node spacing per axis (read-only).")
    domain = property(lambda self: self._domain, doc="The box (origin, top node) (read-only).")

    def _alpha_rows(self, rows):
        # each row's cell, its lowest node clamped to [0, n-2] per axis so the
        # top edge stays in the last cell, and the weights of its 16 corners
        frac = (rows - self._origin) / self._spacing
        i0 = np.maximum(np.minimum(frac.astype(int), self._last_cell), 0)
        w = (frac - i0)[:, None, :]
        weights = np.where(_CORNERS, w, 1.0 - w).prod(axis=2)
        corners = (i0 @ self._strides)[:, None] + self._corner_offsets
        # summed corner by corner in a fixed order, so a row does not depend on its batch
        return np.add.accumulate(weights * self._samples.take(corners), axis=1)[:, -1]

    def _point_cell(self, x, margin):
        """The cell of :meth:`_alpha_rows` on the floats ``x`` of one point,
        clamped to [margin, n - 2 - margin] per axis (np.minimum, then
        np.maximum): the flat index of the cell's lowest node and the 16 corner
        weights, each ((v0*v1)*v2)*v3 as ``prod`` forms it, corner 0 first."""
        x0, x1, x2, x3 = x
        o0, o1, o2, o3, s0, s1, s2, s3, d0, d1, d2, d3 = self._cell_axes
        t0, t1, t2, t3 = self._cell_tops[margin]
        f0, f1, f2, f3 = (x0 - o0) / s0, (x1 - o1) / s1, (x2 - o2) / s2, (x3 - o3) / s3
        i0, i1, i2, i3 = int(f0), int(f1), int(f2), int(f3)
        i0, i1, i2, i3 = (t0 if i0 > t0 else i0, t1 if i1 > t1 else i1,
                          t2 if i2 > t2 else i2, t3 if i3 > t3 else i3)
        i0, i1, i2, i3 = (margin if i0 < margin else i0, margin if i1 < margin else i1,
                          margin if i2 < margin else i2, margin if i3 < margin else i3)
        b0, b1, b2, b3 = f0 - i0, f1 - i1, f2 - i2, f3 - i3
        a0, a1, a2, a3 = 1.0 - b0, 1.0 - b1, 1.0 - b2, 1.0 - b3
        p0, p1, p2, p3 = a0 * a1, b0 * a1, a0 * b1, b0 * b1
        q0, q1, q2, q3 = p0 * a2, p1 * a2, p2 * a2, p3 * a2
        q4, q5, q6, q7 = p0 * b2, p1 * b2, p2 * b2, p3 * b2
        return i0 * d0 + i1 * d1 + i2 * d2 + i3 * d3, [
            q0 * a3, q1 * a3, q2 * a3, q3 * a3, q4 * a3, q5 * a3, q6 * a3, q7 * a3,
            q0 * b3, q1 * b3, q2 * b3, q3 * b3, q4 * b3, q5 * b3, q6 * b3, q7 * b3]

    def _point_alpha(self, x):
        base, weights = self._point_cell(x, 0)
        values = self._flat[base:].take(self._corner_offsets).tolist()
        # summed left to right from corner 0's term, as np.add.accumulate sums a
        # batch row; sum() would start from 0 and turn a -0.0 into 0.0
        return functools.reduce(operator.add, map(operator.mul, weights, values))

    def _point_gradient(self, x):
        """The central difference (f(x + h_k) - f(x - h_k)) / 2h_k one spacing
        wide. On the multilinear interpolant, x +- h_k e_k sits at x's
        fractional position in the next cell, so where the stencil is inside
        the box the difference is the interpolant, over x's cell, of the nodal
        differences (s[i+1] - s[i-1]) / 2h_k: one gather of both neighbours of
        the 16 corners along every axis, summed from corner 0 as a batch row
        is. Other points (the test x - h >= lo and x + h <= hi fails on an
        axis, or an axis has fewer than 4 samples) take :meth:`_stencil_gradient`."""
        x0, x1, x2, x3 = x
        s0, s1, s2, s3, a0, a1, a2, a3, b0, b1, b2, b3 = self._stencil_axes
        if self._neighbour_offsets is None or not (
                x0 - s0 >= a0 and x0 + s0 <= b0 and x1 - s1 >= a1 and x1 + s1 <= b1
                and x2 - s2 >= a2 and x2 + s2 <= b2 and x3 - s3 >= a3 and x3 + s3 <= b3):
            return self._stencil_gradient(np.array(x))
        # the stencil inside the box puts each fractional index in [1, n-2];
        # clamping the cell to [1, n-3] keeps every neighbour in [0, n-1]
        base, weights = self._point_cell(x, 1)
        near = self._flat[base - self._reach:].take(self._neighbour_offsets)
        terms = (near[0] - near[1]) * np.array(weights)  # (axis, corner)
        return np.add.accumulate(terms, axis=1)[:, -1] / self._two_h

    def _fd_steps(self, p: np.ndarray) -> np.ndarray:
        return self._spacing.copy()

    @classmethod
    def from_csv(cls, path) -> "GridField":
        """Load a grid field from the CSV layout written by :meth:`to_csv`:
        three header rows, then one sample per line. A sample line that is
        blank or not one number raises ``ValueError``."""
        with open(path, newline="") as fh:
            header = {row[0]: [float(v) for v in row[1:]]
                      for row in itertools.islice(csv.reader(fh), 3) if row}
            for key in ("axis_sizes", "h_per_axis", "origin"):
                if key not in header:
                    raise ValueError(f"grid CSV missing header row {key!r}")
            sizes = header["axis_sizes"]
            if not all(v.is_integer() and v >= 1 for v in sizes):
                raise ValueError(f"grid CSV axis_sizes must be positive integers, got {sizes}")
            sizes = [int(v) for v in sizes]
            try:  # float() strips the line's end and refuses a blank or a '#' line
                flat = np.fromiter(map(float, fh), dtype=float)
            except ValueError as err:
                raise ValueError(f"grid CSV sample line is not one number: {err}") from err
        if flat.size != np.prod(sizes):
            raise ValueError(
                f"grid CSV sample count {flat.size} != product of axis_sizes {sizes}"
            )
        return cls(flat.reshape(sizes), header["origin"], header["h_per_axis"])

    def to_csv(self, path) -> None:
        """Write the layout :meth:`from_csv` reads: three header rows, then
        one sample per line in C order."""
        with open(path, "w", newline="") as fh:
            write_csv(fh, ["axis_sizes", *self._samples.shape],
                      [["h_per_axis", *self._spacing], ["origin", *self._origin]])
            write_floats(fh, self._samples.reshape(-1, 1))


# -- operations -----------------------------------------------------------


def transport_factor(field: AlphaField, x, y) -> float:
    """Multiplier applied to a value moved from y to x: e^{-alpha(x)+alpha(y)}.
    The value q at y, re-expressed at x, is q times this factor; that holds for
    dot products and trigonometric values just as for plain numbers."""
    return math.exp(field.alpha(y) - field.alpha(x))


def _quad_nodes(lo: float, hi: float, n: int):
    if n < 2 or n % 2:
        raise ValueError(f"simpson needs a positive even number of panels, got {n}")
    ys = np.linspace(lo, hi, n + 1)
    h = (hi - lo) / n
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return ys, w * (h / 3.0)


def _tensor_quadrature(f, field: AlphaField, x_ref, axes, lo, hi, n) -> float:
    """e^{-alpha(x_ref)} * sum of w e^{alpha} f over the tensor product of the 1-D
    Simpson rules on ``axes`` through x_ref, one field call for x_ref and all nodes."""
    try:
        n = operator.index(n)  # a Python or NumPy int, not a float
    except TypeError:
        raise ValueError(f"number of panels must be an integer, got {n!r}") from None
    x_ref = _as_point(x_ref)
    rules = [_quad_nodes(float(a), float(b), n) for a, b in zip(lo, hi)]
    coords = np.stack(np.meshgrid(*(ys for ys, _ in rules), indexing="ij"),
                      axis=-1).reshape(-1, len(axes))
    weights = functools.reduce(np.multiply.outer, (w for _, w in rules)).ravel()
    points = np.tile(x_ref, (len(coords) + 1, 1))
    points[1:, axes] = coords
    alpha = field.alpha(points)
    # one axis: f takes the node's coordinate itself, a float64, not a (1,) row
    values = np.fromiter(map(f, coords[:, 0] if len(axes) == 1 else coords),
                         float, len(coords))
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(alpha[1:]) * values
    bad = ~np.isfinite(g)
    if bad.any():
        raise NonFiniteIntegrand(f"integrand not finite at {coords[bad][0]}")
    return math.exp(-alpha[0]) * float(np.sum(weights * g))


def scaled_integral(f, field: AlphaField, x_ref, lo, hi, n=256, axis=1) -> float:
    """Transport-corrected line integral along one coordinate axis.

    Approximates e^{-alpha(x_ref)} * int e^{alpha(y)} f(y) dy, where the
    integration variable runs along ``axis`` through x_ref. f is called once
    per Simpson node, in order from ``lo`` to ``hi``, on the node's scalar
    coordinate as a NumPy float64 (so a division by zero in f follows
    NumPy's floating-point error state, not Python's). The field weight is
    evaluated at every quadrature node, not at panel centers of f alone.
    """
    return _tensor_quadrature(f, field, x_ref, [axis], [lo], [hi], n)


def scaled_integral_3d(f, field: AlphaField, x_ref, lo, hi, n=32) -> float:
    """Transport-corrected volume integral over a spatial box at fixed time:
    the three-axis case of :func:`scaled_integral`.

    ``lo``/``hi`` are 3-vectors over axes (x, y, z); the time slice is x_ref's
    time; f takes a 3-vector.
    """
    return _tensor_quadrature(f, field, x_ref, [1, 2, 3], lo, hi, n)


def covariant_derivative(f, field: AlphaField, y, mu: int) -> float:
    """Transport-corrected derivative: d_mu f + A_mu(y) * f(y).

    The partial derivative is a central difference with the field's own
    finite-difference step. The kernel identity D(e^{-alpha}) = 0 holds
    because d_mu e^{-alpha} = -A_mu e^{-alpha}.
    """
    y = _as_point(y)
    h = float(field._fd_steps(y)[mu])
    e = np.zeros(4)
    e[mu] = h
    dfd = (f(y + e) - f(y - e)) / (2 * h)
    a_mu = field.gradient(y)[mu]
    return dfd + a_mu * f(y)

