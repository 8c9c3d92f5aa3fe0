import itertools
import math
import warnings

import numpy as np
import pytest

from valuefield.errors import NonFiniteIntegrand, OutOfDomain
from valuefield.field import (
    AlphaField,
    AnalyticField,
    ConstantField,
    GridField,
    _CORNERS,
    _quad_nodes,
    covariant_derivative,
    scaled_integral,
    scaled_integral_3d,
    spacetime_point,
    transport_factor,
)

H0_PER_S = 2.26852902096769e-18  # 70 km/s/Mpc


def linear_x_field(k, with_grad=True):
    grad = (lambda p: np.array([0.0, k, 0.0, 0.0])) if with_grad else None
    return AnalyticField(lambda p: k * p[1], grad)


def transport_derivative_quotient(f, field, y, mu, h):
    """One-sided transported difference quotient at finite step h:
    [e^{-alpha(y)+alpha(y+h)} f(y+h) - f(y)] / h. Tends to the covariant
    derivative as h -> 0, an independent cross-check of it."""
    e = np.zeros(4)
    e[mu] = h
    moved = math.exp(field.alpha(y + e) - field.alpha(y)) * f(y + e)
    return (moved - f(y)) / h


class TestAlphaAt:
    def test_constant(self):
        fld = ConstantField(2.5)
        assert fld.alpha(spacetime_point(1, 2, 3, 4)) == 2.5

    def test_hubble_profile_vanishes_now(self):
        t_now = 4.35e17
        fld = AnalyticField(lambda p: H0_PER_S * (t_now - p[0]))
        assert fld.alpha(spacetime_point(t_now)) == 0.0

    def test_grid_interpolation_identity_at_nodes(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(size=(3, 4, 4, 5))
        fld = GridField(samples, origin=(0, 0, 0, 0), spacing=(1.0, 0.5, 0.5, 0.25))
        assert fld.alpha(spacetime_point(1, 1.0, 1.5, 0.75)) == pytest.approx(
            samples[1, 2, 3, 3], abs=1e-14)

    def test_grid_multilinear_between_nodes(self):
        # linear fields are reproduced exactly by multilinear interpolation
        t = np.arange(2.0)
        x = np.arange(3.0)
        y = np.arange(3.0)
        z = np.arange(4.0)
        tt, xx, yy, zz = np.meshgrid(t, x, y, z, indexing="ij")
        fld = GridField(2 * tt + 3 * xx - yy + 0.5 * zz, (0, 0, 0, 0), (1, 1, 1, 1))
        p = spacetime_point(0.25, 1.75, 0.5, 2.25)
        assert fld.alpha(p) == pytest.approx(2 * 0.25 + 3 * 1.75 - 0.5 + 0.5 * 2.25, rel=1e-14)

    def test_out_of_domain(self):
        fld = GridField(np.zeros((2, 2, 2, 2)), (0, 0, 0, 0), (1, 1, 1, 1))
        with pytest.raises(OutOfDomain):
            fld.alpha(spacetime_point(3, 0, 0, 0))


class TestGradientAt:
    def test_constant_field(self):
        assert np.allclose(ConstantField(1.3).gradient(spacetime_point()), 0.0)

    def test_linear_analytic(self):
        g = linear_x_field(0.7).gradient(spacetime_point(0, 2))
        assert np.array_equal(g, [0.0, 0.7, 0.0, 0.0])

    def test_hubble_rate(self):
        t_now = 4.35e17
        fld = AnalyticField(lambda p: H0_PER_S * (t_now - p[0]))
        g = fld.gradient(spacetime_point(t_now / 2))
        assert g[0] == pytest.approx(-H0_PER_S, rel=1e-6)
        assert np.all(g[1:] == 0.0)

    def test_finite_difference_second_order(self):
        exact = np.array([0.6, math.cos(0.8), 0.0, 0.0])
        p = spacetime_point(0.6, 0.8)  # |p_mu| <= 1, so the step is fd_scale on every axis
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            fld = AnalyticField(lambda p: math.sin(p[1]) + 0.5 * p[0] ** 2)
            fld.fd_scale = h
            num = fld.gradient(p)
            errs.append(np.max(np.abs(num - exact)))
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert order >= 1.9

    def test_one_sided_at_boundary(self):
        # 0.3 x^2 on 5 x-nodes over [-1, 1]: the second-order one-sided
        # differences are exact on a quadratic, a first-order one is off by h
        x = np.linspace(-1.0, 1.0, 5)
        fld = GridField(np.broadcast_to(0.3 * x[:, None, None] ** 2, (2, 5, 2, 2)),
                        (0, -1, 0, 0), (1, 0.5, 1, 1))
        assert fld.gradient(spacetime_point(0, -1.0))[1] == pytest.approx(-0.6, abs=1e-12)
        assert fld.gradient(spacetime_point(0, 1.0))[1] == pytest.approx(0.6, abs=1e-12)

    def test_step_is_relative_to_max_one_abs_p(self):
        # a field without a domain steps fd_scale on |p_mu| <= 1, fd_scale |p_mu| past it
        fld = AnalyticField(lambda p: 0.0)
        h = fld._fd_steps(np.array([0.5, -3.0, 0.0, 1e3]))
        assert np.array_equal(h, fld.fd_scale * np.array([1.0, 3.0, 1.0, 1e3]))

    def test_grid_field_linear_gradient_everywhere(self):
        # linear samples: interpolation and both stencils are exact
        axes = [np.arange(n, dtype=float) for n in (3, 4, 4, 3)]
        tt, xx, yy, zz = np.meshgrid(*axes, indexing="ij")
        fld = GridField(0.5 * tt - 2.0 * xx + 0.25 * yy + zz, (0, 0, 0, 0),
                        (1.0, 1.0, 1.0, 1.0))
        for p in (spacetime_point(1.0, 1.5, 2.0, 1.0),
                  spacetime_point(0.0, 0.0, 0.0, 0.0),      # all-walls corner
                  spacetime_point(2.0, 3.0, 3.0, 2.0)):     # opposite corner
            g = fld.gradient(p)
            assert np.allclose(g, [0.5, -2.0, 0.25, 1.0], atol=1e-12)

    def test_grid_field_smooth_gradient(self):
        xs = np.linspace(-1.0, 1.0, 41)
        samples = np.sin(2.0 * xs)[None, :, None, None] * np.ones((2, 1, 2, 2))
        fld = GridField(samples, (0.0, -1.0, 0.0, 0.0), (1.0, 0.05, 1.0, 1.0))
        g = fld.gradient(spacetime_point(0.5, 0.3, 0.5, 0.5))
        assert g[1] == pytest.approx(2.0 * math.cos(0.6), rel=5e-3)


def _grid_with_one_cell_axis():
    rng = np.random.default_rng(11)
    return GridField(rng.normal(size=(3, 2, 4, 3)), (0.0, -1.0, 0.5, 0.0),
                     (0.5, 0.25, 1.0, 0.75))


def _grid_with_thick_axes():
    # every axis has >= 4 samples, so interior rows take the corner-difference gather;
    # its box is the one-cell-axis grid's box, with exactly representable spacings
    rng = np.random.default_rng(13)
    return GridField(rng.normal(size=(5, 5, 7, 7)), (0.0, -1.0, 0.5, 0.0),
                     (0.25, 0.0625, 0.5, 0.25))


def _grid_with_inexact_spacing():
    # spacings that are not binary fractions: (lo + h) - h is not always lo, so a
    # stencil test written as x >= lo + h sends some knife-edge points elsewhere
    # than x - h >= lo does; the box holds the one-cell-axis grid's box
    rng = np.random.default_rng(19)
    return GridField(rng.normal(size=(13, 6, 13, 11)), (-0.1, -1.1, 0.3, -0.3),
                     (0.1, 0.1, 0.3, 0.2))


# the one-cell-axis grid's box; every field below accepts the points inside it
BOX = np.array([0.0, -1.0, 0.5, 0.0]), np.array([1.0, -0.75, 3.5, 1.5])

FIELDS = {
    "grid": _grid_with_one_cell_axis(),
    "grid-thick": _grid_with_thick_axes(),
    "grid-inexact": _grid_with_inexact_spacing(),
    # every product is -0.0, and so is a corner sum that starts from corner 0's term
    "grid-signed-zero": GridField(np.full((3, 5, 4, 4), -0.0), BOX[0], (0.5, 0.0625, 1.0, 0.5)),
    "analytic-fd": AnalyticField(lambda p: math.sin(p @ [0.1, 0.7, -0.3, 0.2])),
    "analytic-grad": AnalyticField(
        lambda p: math.sin(p @ [0.1, 0.7, -0.3, 0.2]),
        lambda p: np.cos(p @ [0.1, 0.7, -0.3, 0.2]) * np.array([0.1, 0.7, -0.3, 0.2])),
    "constant": ConstantField(0.4),
    "constant-int": ConstantField(0),
    "constant-nan": ConstantField(float("nan")),
    "time-only-fd": AnalyticField(lambda p: 0.2 * p[0] ** 2),
    "time-only-rate": AnalyticField(lambda p: 0.2 * p[0] ** 2,
                                    lambda p: (0.4 * p[0], 0.0, 0.0, 0.0)),
}


def _knife_edge_points(fld, base):
    """Copies of the points ``base`` moved, one axis at a time, onto the planes
    lo + h and hi - h where the field's central stencil starts to fit, and one
    ulp either side of each, where that is inside the domain; an unbounded
    axis takes the planes of BOX."""
    lo, hi = fld.domain if fld.domain is not None else BOX
    lo, hi = np.where(np.isfinite(lo), lo, BOX[0]), np.where(np.isfinite(hi), hi, BOX[1])
    h = fld._fd_steps(lo)
    moved = []
    for k in range(4):
        for plane in (lo[k] + h[k], hi[k] - h[k]):
            for v in (np.nextafter(plane, -np.inf), plane, np.nextafter(plane, np.inf)):
                if not lo[k] <= v <= hi[k]:  # a one-cell axis: lo + h is hi
                    continue
                q = base.copy()
                q[:, k] = v
                moved.append(q)
    return np.vstack(moved)


@pytest.mark.parametrize("fld", FIELDS.values(), ids=FIELDS.keys())
def test_batch_rows_equal_single_point_calls(fld):
    rng = np.random.default_rng(5)
    lo, hi = BOX
    inner = lo + (hi - lo) * (0.3 + 0.4 * rng.random((20, 4)))  # the thick grid's interior
    edges = np.vstack([lo + (hi - lo) * rng.random((40, 4)),
                       lo, hi,                                   # all-walls corners
                       np.where(np.arange(4) == 2, hi, lo + 0.3 * (hi - lo))])  # top edge
    knife = _knife_edge_points(fld, inner[:3])
    for pts in (inner, edges, np.vstack([edges[:20], inner, edges[20:]]), knife):
        alphas = fld.alpha(pts)
        assert alphas.shape == (len(pts),)
        for p, a in zip(pts, alphas):
            alpha = fld.alpha(p)
            assert type(alpha) is float and np.float64(alpha).tobytes() == a.tobytes()


def _raised(call, p):
    with pytest.raises(Exception) as info:
        call(p)
    return type(info.value), str(info.value)


def _assert_one_line_value_error(call, p):
    kind, message = _raised(call, p)
    assert kind is ValueError and message and "\n" not in message


@pytest.mark.parametrize("fld", FIELDS.values(), ids=FIELDS.keys())
def test_bad_single_point_raises_as_its_batch_row(fld):
    lo, hi = BOX
    mid = lo + 0.5 * (hi - lo)
    bad = [np.where(np.arange(4) == k, v, mid) for k in (0, 2) for v in (np.nan, np.inf, -np.inf)]
    if fld.domain is not None:  # one ulp outside each finite wall
        for k in range(4):
            for wall, away in zip(fld.domain, (-np.inf, np.inf)):
                if np.isfinite(wall[k]):
                    bad.append(np.where(np.arange(4) == k, np.nextafter(wall[k], away), mid))
    for p in bad:
        kind, message = _raised(fld.alpha, p)
        assert (kind, message) == _raised(fld.alpha, p[None, :])
        assert issubclass(kind, OutOfDomain if np.isfinite(p).all() else ValueError)
        assert _raised(fld.gradient, p) == (kind, message)
    for n in (3, 5):
        shape_error = rf"^spacetime point must have shape \(4,\), got \({n},\)$"
        for call in (fld.alpha, fld.gradient):
            with pytest.raises(ValueError, match=shape_error):
                call(np.resize(mid, n))


def test_one_sample_axis_single_points_equal_batch_rows():
    # the time axis holds one sample: its cell index clamps to 0 although the
    # last cell index is -1, and the gradient has no stencil along it
    rng = np.random.default_rng(23)
    fld = GridField(rng.normal(size=(1, 4, 3, 5)), (2.0, -1.0, 0.5, 0.0), (0.5, 0.25, 1.0, 0.375))
    lo, hi = fld.domain
    pts = np.vstack([lo + (hi - lo) * rng.random((30, 4)), lo, hi])
    for p, a in zip(pts, fld.alpha(pts)):
        assert np.float64(fld.alpha(p)).tobytes() == a.tobytes()
    with pytest.raises(OutOfDomain, match="single point along axis 0"):
        fld.gradient(pts[0])
    _assert_one_line_value_error(fld.gradient, pts[:1])


@pytest.mark.parametrize("value", [3, True, np.float32(0.1), np.float64(-0.0), np.array(0.5), None],
                         ids=["int", "bool", "float32", "float64", "0-d", "None"])
def test_alpha_callable_value_converts_as_in_a_batch(value):
    fld = AnalyticField(lambda p: value)
    p = spacetime_point(0.1, 0.2, 0.3, 0.4)
    alpha = fld.alpha(p)
    assert type(alpha) is float and np.float64(alpha).tobytes() == fld.alpha(p[None, :]).tobytes()


def test_alpha_callable_returning_a_sequence_is_refused_on_both_paths():
    fld = AnalyticField(lambda p: np.array([0.5]))
    p = spacetime_point(0.1, 0.2, 0.3, 0.4)
    assert _raised(fld.alpha, p) == _raised(fld.alpha, p[None, :])


def test_gradient_callable_of_three_values_is_refused_on_both_paths():
    fld = AnalyticField(lambda p: 0.0, lambda p: (1.0, 2.0, 3.0))
    p = spacetime_point(0.1, 0.2, 0.3, 0.4)
    for q in (p, p[None, :]):
        _assert_one_line_value_error(fld.gradient, q)


def _check_against_the_stencil_formula(fld, pts, monkeypatch):
    """The gradient at each of ``pts`` agrees with the stencil formula of the
    base class to 1e-13 of the largest sample, and is that formula, bit for
    bit, exactly where the central stencil leaves the box or an axis has
    fewer than 4 samples. Returns where the central stencil leaves the box."""
    lo, hi = fld.domain
    stencil = ((pts - fld.spacing < lo) | (pts + fld.spacing > hi)).any(axis=1)
    want = np.array([AlphaField._stencil_gradient(fld, p) for p in pts])
    took = []
    monkeypatch.setattr(fld, "_stencil_gradient",
                        lambda p: took.append(True) or AlphaField._stencil_gradient(fld, p))
    got, used = [], []
    for p in pts:
        took.clear()
        got.append(fld.gradient(p))
        used.append(bool(took))
    got = np.array(got)
    assert used == (stencil | (np.array(fld.samples.shape) < 4).any()).tolist()
    bound = 1e-13 * np.max(np.abs(fld.samples)) / fld.spacing
    assert (np.abs(got - want) <= bound).all()
    assert np.array_equal(got[used], want[used])
    return stencil


@pytest.mark.parametrize("shape", [(5, 6, 7, 8), (4, 4, 4, 4), (3, 6, 5, 4)])
def test_grid_gradient_matches_the_stencil_formula(shape, monkeypatch):
    # interior points take the corner gather, the rest the stencil formula of
    # the base class; a 3-sample axis sends every point to the stencil
    rng = np.random.default_rng(17)
    spacing = np.array([0.25, 0.1, 0.3, 0.2])
    fld = GridField(rng.normal(size=shape), (0.5, -1.0, 0.0, 2.0), spacing)
    lo, hi = fld.domain
    pts = lo + (hi - lo) * rng.random((12000, 4))
    # per (row, axis) one in four coordinates sits on a wall, a top edge or
    # the first or last node whose central stencil still fits
    pick = rng.integers(0, 16, size=pts.shape)
    for k, plane in enumerate((lo, hi, lo + spacing, hi - spacing)):
        pts = np.where(pick == k, plane, pts)
    # and on, or one ulp either side of, each plane where the central stencil starts to fit
    pts = np.vstack([pts, _knife_edge_points(fld, pts[:3])])
    # some of them on a wall or a top edge
    assert _check_against_the_stencil_formula(fld, pts, monkeypatch).any()
    # the same planes on the grids of FIELDS, whose inexact spacings put some
    # of them where x - h >= lo and x >= lo + h disagree
    inner = BOX[0] + np.outer([0.35, 0.5, 0.65], BOX[1] - BOX[0])
    for name in ("grid", "grid-thick", "grid-inexact", "grid-signed-zero"):
        knife = _knife_edge_points(FIELDS[name], inner)
        _check_against_the_stencil_formula(FIELDS[name], knife, monkeypatch)


@pytest.mark.parametrize("name", ["grid", "grid-thick", "grid-inexact", "grid-signed-zero"])
def test_interior_grid_gradient_is_the_corner_difference_reference_bit_for_bit(name):
    # where the central stencil fits and every axis has >= 4 samples, the
    # one-point gradient is the batch's arithmetic on the nodal differences:
    # corner weights as prod forms them, summed by np.add.accumulate from
    # corner 0, over 2h; the other two grids have a 3-sample axis, so none
    # of their points takes it
    fld = FIELDS[name]
    lo, hi = fld.domain
    s, h = fld.samples, fld.spacing
    n = np.array(s.shape)
    rng = np.random.default_rng(29)
    inner = BOX[0] + (BOX[1] - BOX[0]) * rng.random((5, 4))
    pts = np.vstack([lo + h + (hi - lo - 2 * h) * rng.random((300, 4)),
                     _knife_edge_points(fld, inner)])
    interior = ((pts - h >= lo) & (pts + h <= hi)).all(axis=1) & (n >= 4).all()
    assert interior.any() == (n >= 4).all()
    axes = np.eye(4, dtype=int)
    for p in pts[interior]:
        frac = (p - lo) / h
        i0 = np.maximum(np.minimum(frac.astype(int), n - 3), 1)
        w = frac - i0
        weights = np.where(_CORNERS, w, 1.0 - w).prod(axis=-1)
        corners = i0 + _CORNERS
        want = np.array([
            np.add.accumulate((s[tuple((corners + e).T)] - s[tuple((corners - e).T)]) * weights)[-1]
            for e in axes]) / (2 * h)
        for q in (p, p.tolist()):
            assert fld.gradient(q).tobytes() == want.tobytes()


def test_grid_alpha_matches_corner_loop_reference():
    fld = _grid_with_one_cell_axis()
    lo, hi = fld.domain
    rng = np.random.default_rng(2)
    pts = np.vstack([lo + (hi - lo) * rng.random((200, 4)),
                     np.where(rng.random((20, 4)) < 0.5, lo, hi)])  # walls and corners
    scale = np.max(np.abs(fld.samples))
    for p, got in zip(pts, fld.alpha(pts)):
        frac = (p - lo) / fld.spacing
        i0 = np.clip(frac.astype(int), 0, np.array(fld.samples.shape) - 2)
        w = frac - i0
        want = 0.0
        for bits in itertools.product((0, 1), repeat=4):
            weight = np.prod([wk if b else 1.0 - wk for wk, b in zip(w, bits)])
            want += weight * fld.samples[tuple(i0 + bits)]
        assert abs(got - want) <= 1e-14 * scale


def test_batch_with_one_point_outside_raises():
    fld = _grid_with_one_cell_axis()
    lo, hi = fld.domain
    pts = np.vstack([lo, hi, hi + [0.0, 0.0, 0.0, 1e-9]])
    with pytest.raises(OutOfDomain):
        fld.alpha(pts)
    _assert_one_line_value_error(fld.gradient, pts)


@pytest.mark.parametrize("origin, spacing", [
    ((0, np.nan, 0, 0), (1, 1, 1, 1)),
    ((0, np.inf, 0, 0), (1, 1, 1, 1)),
    ((0, 0, 0, 0), (1, np.nan, 1, 1)),
    ((0, 0, 0, 0), (1, 1, np.inf, 1)),
    ((0,), (1, 1, 1, 1)),
    ((0, 0, 0, 0), (1,)),
], ids=["origin-nan", "origin-inf", "spacing-nan", "spacing-inf", "origin-(1,)",
        "spacing-(1,)"])
def test_grid_field_refuses_bad_origin_or_spacing(origin, spacing):
    with pytest.raises(ValueError, match="^grid origin"):
        GridField(np.zeros((2, 2, 2, 2)), origin, spacing)


@pytest.mark.parametrize("samples, message", [
    (np.zeros((2, 2, 2)), "must be a 4-D array"),
    (np.zeros((2, 2, 2, 2, 1)), "must be a 4-D array"),
    (np.where(np.arange(16).reshape(2, 2, 2, 2) == 5, np.nan, 0.0), "contain non-finite"),
    (np.full((2, 2, 2, 2), -np.inf), "contain non-finite"),
], ids=["3-D", "5-D", "one-nan", "all-inf"])
def test_grid_field_refuses_samples_that_are_not_4d_or_not_finite(samples, message):
    with pytest.raises(ValueError, match=f"^grid samples {message}"):
        GridField(samples, (0, 0, 0, 0), (1, 1, 1, 1))


def test_analytic_callable_that_writes_its_point_leaves_the_callers_points_alone():
    def clobbering(p):
        value = float(p[0] + p[1])
        p[1] = 0.0
        return value

    fld = AnalyticField(clobbering)
    points = np.arange(12.0).reshape(3, 4)
    before = points.copy()
    assert fld.alpha(points).tolist() == [1.0, 9.0, 17.0]
    assert fld.alpha(points[1]) == 9.0
    assert np.array_equal(points, before)


@pytest.mark.parametrize("shape", [(3,), (5,), (2, 3), (2, 5), (2, 2, 4), ()])
def test_other_input_shapes_raise_value_error(shape):
    fld = AnalyticField(lambda p: p[1])
    with pytest.raises(ValueError):
        fld.alpha(np.zeros(shape))
    with pytest.raises(ValueError):
        fld.gradient(np.zeros(shape))


class TestTransport:
    def test_same_point(self):
        fld = linear_x_field(1.1)
        p = spacetime_point(0, 0.4)
        assert transport_factor(fld, p, p) == 1.0

    def test_constant_field_is_global(self):
        fld = ConstantField(3.7)
        assert transport_factor(fld, spacetime_point(0, 1), spacetime_point(5, -2)) == 1.0

    def test_exponential_factor(self):
        fld = AnalyticField(lambda p: math.log(2.0) * p[1])
        assert transport_factor(fld, spacetime_point(0, 0), spacetime_point(0, 1)) == pytest.approx(2.0, rel=1e-15)

    def test_scalar_transport_values(self):
        fld = AnalyticField(lambda p: math.log(2.0) * p[1])
        x, y = spacetime_point(0, 0), spacetime_point(0, 1)
        assert 5.0 * transport_factor(fld, x, y) == pytest.approx(10.0, rel=1e-15)
        theta = 0.3
        assert math.cos(theta) * transport_factor(fld, x, y) == pytest.approx(
            2 * math.cos(theta), rel=1e-15)

    def test_chain_rule(self):
        fld = AnalyticField(lambda p: 0.3 * p[1] - 0.2 * p[2])
        x = spacetime_point(0, 0.1, 0.7)
        y = spacetime_point(0, -0.4, 0.2)
        z = spacetime_point(0, 0.9, -0.3)
        via = (3.0 * transport_factor(fld, y, z)) * transport_factor(fld, x, y)
        direct = 3.0 * transport_factor(fld, x, z)
        assert via == pytest.approx(direct, rel=1e-14)


def gaussian_density(y, y0, sigma):
    return math.exp(-((y - y0) ** 2) / (2 * sigma ** 2)) / (sigma * math.sqrt(2 * math.pi))


class TestScaledIntegral:
    def test_flat_field_unit_integral(self):
        out = scaled_integral(lambda y: 1.0, ConstantField(0.0),
                              spacetime_point(), 0.0, 1.0, n=64)
        assert out == pytest.approx(1.0, rel=1e-14)

    def test_constant_field_factor_cancels(self):
        out = scaled_integral(lambda y: 1.0, ConstantField(4.2),
                              spacetime_point(), 0.0, 1.0, n=64)
        assert out == pytest.approx(1.0, rel=1e-13)

    def test_gaussian_with_exponential_weight(self):
        # frozen from an adaptive-quadrature oracle; equals exp(k*y0+(k*sigma)^2/2)
        k, y0, sigma = 0.7, 0.3, 0.5
        oracle = 1.3116029301329453
        fld = linear_x_field(k)
        got = scaled_integral(lambda y: gaussian_density(y, y0, sigma), fld,
                              spacetime_point(), y0 - 12 * sigma, y0 + 12 * sigma,
                              n=2 ** 14)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_simpson_fourth_order_convergence(self):
        k, y0, sigma = 0.7, 0.3, 0.5
        exact = math.exp(k * y0 + (k * sigma) ** 2 / 2)
        fld = linear_x_field(k)
        lo, hi = y0 - 8 * sigma, y0 + 8 * sigma
        errs = []
        for n in (32, 64, 128):
            v = scaled_integral(lambda y: gaussian_density(y, y0, sigma), fld,
                                spacetime_point(), lo, hi, n=n)
            errs.append(abs(v - exact) / exact)
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert order >= 3.5

    def test_reference_point_factor(self):
        k = 0.5
        fld = linear_x_field(k)
        at_zero = scaled_integral(lambda y: 1.0, fld, spacetime_point(0, 0.0), 0, 1, n=64)
        at_xr = scaled_integral(lambda y: 1.0, fld, spacetime_point(0, 2.0), 0, 1, n=64)
        assert at_xr == pytest.approx(math.exp(-2 * k) * at_zero, rel=1e-13)

    @pytest.mark.parametrize("axis", [0, 1, 3])
    def test_f_gets_each_node_once_in_order_as_a_float64(self, axis):
        seen = []
        scaled_integral(lambda y: seen.append(y) or 1.0, linear_x_field(0.3),
                        spacetime_point(0.5, 0.25), -1.5, 2.0, n=16, axis=axis)
        nodes, _ = _quad_nodes(-1.5, 2.0, 16)
        assert all(type(y) is np.float64 for y in seen)
        assert np.array_equal(np.array(seen), nodes)

    def test_non_finite_integrand(self):
        with pytest.raises(NonFiniteIntegrand):
            scaled_integral(lambda y: float("inf") if y == 0.0 else 1.0,
                            ConstantField(0.0), spacetime_point(), -1.0, 1.0, n=4)

    def test_simpson_rejects_odd_panels(self):
        with pytest.raises(ValueError):
            scaled_integral(lambda y: 1.0, ConstantField(0.0), spacetime_point(),
                            0.0, 1.0, n=5)

    @pytest.mark.parametrize("n", [16.5, 3.9, 16.0, np.float64(16.0), "16", None],
                             ids=["16.5", "3.9", "16.0", "float64", "str", "None"])
    def test_non_integral_panel_counts_are_refused(self, n):
        for integral in (scaled_integral, scaled_integral_3d):
            lo, hi = (0.0, 1.0) if integral is scaled_integral else ((0, 0, 0), (1, 1, 1))
            with pytest.raises(ValueError, match="^number of panels must be an integer, got"):
                integral(lambda y: 1.0, ConstantField(0.0), spacetime_point(), lo, hi, n=n)

    @pytest.mark.parametrize("n", [np.int64(16), np.int32(16)], ids=["int64", "int32"])
    def test_numpy_int_panel_counts_are_accepted(self, n):
        out = scaled_integral(lambda y: 1.0, ConstantField(0.0), spacetime_point(), 0.0, 1.0, n=n)
        assert out == pytest.approx(1.0, rel=1e-14)

    def test_3d_box_flat_volume(self):
        out = scaled_integral_3d(lambda r: 1.0, ConstantField(0.0), spacetime_point(),
                                 (0, 0, 0), (1, 2, 0.5), n=8)
        assert out == pytest.approx(1.0, rel=1e-13)

    def test_3d_separable_weight(self):
        k = 0.3
        fld = linear_x_field(k)
        got = scaled_integral_3d(lambda r: 1.0, fld, spacetime_point(),
                                 (0, 0, 0), (1, 1, 1), n=32)
        assert got == pytest.approx((math.exp(k) - 1) / k, rel=1e-9)


class TestCovariantDerivative:
    def test_constant_field_reduces_to_partial(self):
        fld = ConstantField(1.0)
        out = covariant_derivative(lambda p: p[1] ** 2, fld, spacetime_point(0, 1.5), 1)
        assert out == pytest.approx(3.0, rel=1e-8)

    def test_inverse_weight_annihilated(self):
        k = 0.8
        fld = linear_x_field(k)
        for xv in (-0.5, 0.0, 0.4, 1.0):
            out = covariant_derivative(lambda p: math.exp(-k * p[1]), fld,
                                       spacetime_point(0, xv), 1)
            assert abs(out) <= 1e-8

    def test_pure_connection_term(self):
        k = 0.7
        fld = linear_x_field(k)
        out = covariant_derivative(lambda p: 1.0, fld, spacetime_point(0, 0.4), 1)
        assert out == pytest.approx(k, rel=1e-12)

    def test_matches_transported_quotient_as_h_shrinks(self):
        k = 0.6
        fld = linear_x_field(k)
        y = spacetime_point(0, 0.2)
        f = lambda p: math.sin(p[1])
        lim = covariant_derivative(f, fld, y, 1)
        err_h = abs(transport_derivative_quotient(f, fld, y, 1, 1e-3) - lim)
        err_h2 = abs(transport_derivative_quotient(f, fld, y, 1, 5e-4) - lim)
        # one-sided quotient converges at first order
        assert err_h2 == pytest.approx(err_h / 2, rel=0.1)

    def test_temporal_axis_uses_stored_rate(self):
        a0 = 0.05
        fld = AnalyticField(lambda p: a0 * p[0], lambda p: (a0, 0.0, 0.0, 0.0))
        out = covariant_derivative(lambda p: 1.0, fld, spacetime_point(2.0), 0)
        assert out == pytest.approx(a0, rel=1e-12)


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        fld = GridField(rng.normal(size=(2, 3, 3, 2)), (0, -1, -1, 0),
                        (0.5, 1.0, 1.0, 2.0))
        path = tmp_path / "grid.csv"
        fld.to_csv(path)
        back = GridField.from_csv(path)
        assert np.array_equal(back.samples, fld.samples)
        assert np.array_equal(back.origin, fld.origin)
        assert np.array_equal(back.spacing, fld.spacing)

    def test_nan_origin_in_the_file_is_refused(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("axis_sizes,2,1,1,1\nh_per_axis,1,1,1,1\norigin,nan,0,0,0\n0\n1\n")
        with pytest.raises(ValueError, match="origin must be finite"):
            GridField.from_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("axis_sizes,2,2,2,2\norigin,0,0,0,0\n")
        with pytest.raises(ValueError):
            GridField.from_csv(path)

    def test_golden_bytes(self, tmp_path):
        fld = GridField(np.array([0.1, -0.0, 1e-5, 2.5]).reshape(2, 1, 1, 2),
                        (0.0, -1.0, 0.5, 3.0), (0.5, 1.0, 1.0, 0.25))
        path = tmp_path / "grid.csv"
        fld.to_csv(path)
        assert path.read_bytes() == (b"axis_sizes,2,1,1,2\r\n"
                                     b"h_per_axis,0.5,1.0,1.0,0.25\r\n"
                                     b"origin,0.0,-1.0,0.5,3.0\r\n"
                                     b"0.1\r\n-0.0\r\n1e-05\r\n2.5\r\n")

    def test_round_trip_is_bit_exact_at_the_float_extremes(self, tmp_path):
        samples = np.array([-0.0, 5e-324, 1e308, -5e-324]).reshape(1, 2, 1, 2)
        fld = GridField(samples, (-0.0, 5e-324, 1e308, 0.0), (5e-324, 1e308, 1.0, 1.0))
        path = tmp_path / "grid.csv"
        fld.to_csv(path)
        back = GridField.from_csv(path)
        for got, want in ((back.samples, samples), (back.origin, fld.origin),
                          (back.spacing, fld.spacing)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    HEADER = "axis_sizes,2,1,1,2\r\nh_per_axis,1,1,1,1\r\norigin,0,0,0,0\r\n"

    @pytest.mark.parametrize("body", [
        "0\r\n\r\n1\r\n2\r\n3\r\n",  # a blank line among the samples
        "0\r\n1\r\n2\r\n3\r\n\r\n",  # a blank line after them
        "0\r\n1\r\nx\r\n3\r\n",  # not a number
        "0\r\n1\r\n2,5\r\n3\r\n",  # two cells
        "0\r\n#1\r\n2\r\n3\r\n",  # not a comment: a '#' row is refused
        "0\r\n1\r\n2\r\n",  # too few
        "0\r\n1\r\n2\r\n3\r\n4\r\n",  # too many
        "",  # the header rows only
    ], ids=["blank-inside", "blank-after", "word", "two-cells", "hash", "too-few",
            "too-many", "header-only"])
    def test_bad_sample_rows_are_refused(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_bytes((self.HEADER + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid CSV sample"):
                GridField.from_csv(path)

    def test_good_sample_rows_are_read(self, tmp_path):
        path = tmp_path / "good.csv"
        path.write_bytes((self.HEADER + "0\r\n1.5\r\n-2e-3\r\n3").encode())
        assert GridField.from_csv(path).samples.ravel().tolist() == [0.0, 1.5, -2e-3, 3.0]

    @pytest.mark.parametrize("sizes", ["2.5,1,1,2", "0,1,1,2", "-2,1,1,2", "nan,1,1,2"])
    def test_axis_sizes_must_be_positive_integers(self, tmp_path, sizes):
        path = tmp_path / "bad.csv"
        path.write_text(f"axis_sizes,{sizes}\nh_per_axis,1,1,1,1\norigin,0,0,0,0\n0\n1\n2\n3\n")
        with pytest.raises(ValueError, match="axis_sizes must be positive integers"):
            GridField.from_csv(path)


@pytest.mark.parametrize("name, value", [
    ("samples", np.ones((3, 3, 3, 3))), ("origin", np.ones(4)), ("spacing", np.ones(4)),
    ("domain", (np.zeros(4), np.full(4, 9.0)))])
def test_grid_state_is_read_only(name, value):
    fld = GridField(np.arange(16.0).reshape(2, 2, 2, 2), (0, 0, 0, 0), (1, 1, 1, 1))
    with pytest.raises(AttributeError):
        setattr(fld, name, value)
    arrays = fld.domain if name == "domain" else (getattr(fld, name),)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 5.0
    assert fld.domain[1].tolist() == [1.0, 1.0, 1.0, 1.0]
    assert fld.alpha(spacetime_point(1.0, 1.0, 1.0, 1.0)) == 15.0
    with pytest.raises(OutOfDomain):
        fld.alpha(spacetime_point(1.5, 0.5, 0.5, 0.5))


def _outcome(call, p):
    """What ``call(p)`` gives: ("ok", its type and bytes) or (error type, message)."""
    try:
        out = call(p)
    except Exception as exc:  # compared, not swallowed: each side must raise the same
        return type(exc), str(exc)
    return "ok", type(out), np.asarray(out).tobytes()


@pytest.mark.parametrize("fld", FIELDS.values(), ids=FIELDS.keys())
def test_float_list_point_equals_array_point(fld):
    rng = np.random.default_rng(29)
    lo, hi = BOX
    pts = np.vstack([lo + (hi - lo) * (0.3 + 0.4 * rng.random((10, 4))),  # interior
                     lo + (hi - lo) * rng.random((20, 4)),
                     lo, hi,                                                # walls
                     np.where(np.arange(4) == 2, hi, lo + 0.3 * (hi - lo)),  # top edge
                     _knife_edge_points(fld, lo + 0.5 * (hi - lo)[None, :])])
    for p in pts:
        x = p.tolist()
        for call in (fld.alpha, fld.gradient):
            assert _outcome(call, x) == _outcome(call, p)
        assert type(fld.alpha(x)) is float


@pytest.mark.parametrize("fld", FIELDS.values(), ids=FIELDS.keys())
def test_list_point_errors_equal_array_point_errors(fld):
    lo, hi = BOX
    mid = (lo + 0.5 * (hi - lo)).tolist()
    bad = [mid[:3], mid + [0.5], [math.nan, *mid[1:]], [*mid[:2], math.inf, mid[3]],
           [*mid[:3], -math.inf],
           # a NumPy float, a bool, and either in a list of 3 or 5
           [*mid[:3], np.float64(math.nan)], [np.float64(mid[0]), *mid[1:3]],
           [*mid, False]]
    if fld.domain is not None:  # one ulp outside each finite wall
        for k in range(4):
            for wall, away in zip(fld.domain, (-np.inf, np.inf)):
                if np.isfinite(wall[k]):
                    bad.append([*mid[:k], float(np.nextafter(wall[k], away)), *mid[k + 1:]])
    for x in bad:
        for call in (fld.alpha, fld.gradient):
            kind, message = _outcome(call, x)
            assert kind != "ok" and (kind, message) == _outcome(call, np.array(x))


@pytest.mark.parametrize("fld", FIELDS.values(), ids=FIELDS.keys())
def test_finite_coordinates_whose_sum_overflows_are_finite(fld):
    # the one-point check sums the coordinates; a sum that overflows must fall
    # back to the array checks, which accept the point or refuse it by domain
    for x in ([0.5, 1e308, 1e308, 1e308], [0.5, -1e308, 2.0, -1e308],
              [1e308, 1e308, math.nan, 0.5], [math.inf, -math.inf, 2.0, 0.5]):
        for call in (fld.alpha, fld.gradient):
            assert _outcome(call, x) == _outcome(call, np.array(x))
    x = np.array([0.5, 1e308, 1e308, 1e308])
    lo, hi = fld.domain if fld.domain is not None else (-np.inf, np.inf)
    assert ((lo <= x) & (x <= hi)).all() == (_outcome(fld.alpha, x.tolist())[0] == "ok")


@pytest.mark.parametrize("fld", FIELDS.values(), ids=FIELDS.keys())
def test_list_point_of_ints_equals_its_float_array(fld):
    # ints, and floats mixed with ints, NumPy floats or bools, convert as np.asarray does
    points = [[0, -1, 1, 0], [1, -1, 3, 1], [0.5, -1, 2, np.float64(0.75)], [0, 0, 0, 0],
              [2, -1, 1, 0],  # these two lie outside BOX on some axis
              [0.5, -1.0, 2.0, np.float64(0.75)], [True, -1.0, 2.0, 0.75],
              [0.5, -1.0, 2.0], [0.5, -1.0, 2.0, 0.75, 0.5]]
    for x in points:
        p = np.array(x, dtype=float)
        for call in (fld.alpha, fld.gradient):
            assert _outcome(call, x) == _outcome(call, p)


def test_one_point_hooks_get_the_point_as_a_list_of_floats():
    seen = []

    class Recording(ConstantField):
        def _point_alpha(self, x):
            seen.append(x)
            return super()._point_alpha(x)

        def _point_gradient(self, x):
            seen.append(x)
            return super()._point_gradient(x)

    fld = Recording(0.1)
    # np.float64 subclasses float and bool subclasses int: both take np.asarray
    for p in ([0.5, 1, 2, 3], np.array([0.5, 1, 2, 3]), [0.5, 1.0, 2.0, 3.0],
              [0.5, 1.0, 2.0, np.float64(3.0)], [0.5, True, 2.0, 3.0]):
        fld.alpha(p)
        fld.gradient(p)
    assert len(seen) == 10
    for x in seen:
        assert type(x) is list and [type(v) for v in x] == [float] * 4 and x == [0.5, 1, 2, 3]

