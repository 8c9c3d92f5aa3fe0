import itertools
import math

import numpy as np
import pytest

from valuefield.errors import NonFiniteIntegrand, OutOfDomain
from valuefield.field import (
    AnalyticField,
    ConstantField,
    GridField,
    TimeOnlyField,
    covariant_derivative,
    scaled_integral,
    scaled_integral_3d,
    spacetime_point,
    transport_derivative_quotient,
    transport_factor,
    transport_scalar,
)

H0_PER_S = 2.26852902096769e-18  # 70 km/s/Mpc


def linear_x_field(k, with_grad=True):
    grad = (lambda p: np.array([0.0, k, 0.0, 0.0])) if with_grad else None
    return AnalyticField(lambda p: k * p[1], grad)


class TestAlphaAt:
    def test_constant(self):
        fld = ConstantField(2.5)
        assert fld.alpha(spacetime_point(1, 2, 3, 4)) == 2.5

    def test_hubble_profile_vanishes_now(self):
        t_now = 4.35e17
        fld = TimeOnlyField(lambda s: H0_PER_S * (t_now - s))
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
        fld = TimeOnlyField(lambda s: H0_PER_S * (t_now - s))
        g = fld.gradient(spacetime_point(t_now / 2))
        assert g[0] == pytest.approx(-H0_PER_S, rel=1e-6)
        assert np.all(g[1:] == 0.0)

    def test_finite_difference_second_order(self):
        exact = np.array([0.6, math.cos(0.8), 0.0, 0.0])
        p = spacetime_point(0.6, 0.8)  # |p_mu| <= 1, so the step is fd_scale on every axis
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            fld = AnalyticField(lambda p: math.sin(p[1]) + 0.5 * p[0] ** 2, fd_scale=h)
            num = fld.gradient(p)
            errs.append(np.max(np.abs(num - exact)))
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert order >= 1.9

    def test_one_sided_at_boundary(self):
        dom = (spacetime_point(-1, -1, -1, -1), spacetime_point(1, 1, 1, 1))
        fld = AnalyticField(lambda p: 0.3 * p[1] ** 2, domain=dom)
        g = fld.gradient(spacetime_point(0, 1.0))
        assert g[1] == pytest.approx(0.6, rel=1e-6)

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


@pytest.mark.parametrize("fld", [
    _grid_with_one_cell_axis(),
    AnalyticField(lambda p: math.sin(p @ [0.1, 0.7, -0.3, 0.2]),
                  domain=((0.0, -1.0, 0.5, 0.0), (1.0, -0.75, 3.5, 1.5))),
    AnalyticField(lambda p: math.sin(p @ [0.1, 0.7, -0.3, 0.2]),
                  lambda p: np.cos(p @ [0.1, 0.7, -0.3, 0.2]) * np.array([0.1, 0.7, -0.3, 0.2])),
    ConstantField(0.4),
    TimeOnlyField(lambda s: 0.2 * s ** 2, t_domain=(0.0, 1.0)),
    TimeOnlyField(lambda s: 0.2 * s ** 2, lambda s: 0.4 * s),
], ids=["grid", "analytic-fd", "analytic-grad", "constant", "time-only-fd", "time-only-rate"])
def test_batch_rows_equal_single_point_calls(fld):
    rng = np.random.default_rng(5)
    # the one-cell-axis grid's box; every other field accepts these points too
    lo, hi = np.array([0.0, -1.0, 0.5, 0.0]), np.array([1.0, -0.75, 3.5, 1.5])
    pts = np.vstack([lo + (hi - lo) * rng.random((40, 4)),
                     lo, hi,                                   # all-walls corners
                     np.where(np.arange(4) == 2, hi, lo + 0.3 * (hi - lo))])  # top edge
    alphas, grads = fld.alpha(pts), fld.gradient(pts)
    assert alphas.shape == (len(pts),) and grads.shape == (len(pts), 4)
    for p, a, g in zip(pts, alphas, grads):
        assert np.float64(fld.alpha(p)).tobytes() == a.tobytes()
        assert fld.gradient(p).tobytes() == g.tobytes()


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
    with pytest.raises(OutOfDomain):
        fld.gradient(pts)


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
        assert transport_scalar(fld, x, y, 5.0) == pytest.approx(10.0, rel=1e-15)
        theta = 0.3
        assert transport_scalar(fld, x, y, math.cos(theta)) == pytest.approx(
            2 * math.cos(theta), rel=1e-15)

    def test_chain_rule(self):
        fld = AnalyticField(lambda p: 0.3 * p[1] - 0.2 * p[2])
        x = spacetime_point(0, 0.1, 0.7)
        y = spacetime_point(0, -0.4, 0.2)
        z = spacetime_point(0, 0.9, -0.3)
        via = transport_scalar(fld, x, y, transport_scalar(fld, y, z, 3.0))
        direct = transport_scalar(fld, x, z, 3.0)
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

    def test_midpoint_agrees(self):
        fld = linear_x_field(0.4)
        simpson = scaled_integral(lambda y: y * y, fld, spacetime_point(), 0, 1, n=2 ** 12)
        midpoint = scaled_integral(lambda y: y * y, fld, spacetime_point(), 0, 1,
                                   n=2 ** 14, method="midpoint")
        assert midpoint == pytest.approx(simpson, rel=1e-7)

    def test_reference_point_factor(self):
        k = 0.5
        fld = linear_x_field(k)
        at_zero = scaled_integral(lambda y: 1.0, fld, spacetime_point(0, 0.0), 0, 1, n=64)
        at_xr = scaled_integral(lambda y: 1.0, fld, spacetime_point(0, 2.0), 0, 1, n=64)
        assert at_xr == pytest.approx(math.exp(-2 * k) * at_zero, rel=1e-13)

    def test_non_finite_integrand(self):
        with pytest.raises(NonFiniteIntegrand):
            scaled_integral(lambda y: float("inf") if y == 0.0 else 1.0,
                            ConstantField(0.0), spacetime_point(), -1.0, 1.0, n=4)

    def test_simpson_rejects_odd_panels(self):
        with pytest.raises(ValueError):
            scaled_integral(lambda y: 1.0, ConstantField(0.0), spacetime_point(),
                            0.0, 1.0, n=5)

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
        out = covariant_derivative(lambda p: 1.0, fld, spacetime_point(0, 0.4), 1,
                                   coupling=3.0)
        assert out == pytest.approx(3.0 * k, rel=1e-12)

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
        fld = TimeOnlyField(lambda s: a0 * s, lambda s: a0)
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

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("axis_sizes,2,2,2,2\norigin,0,0,0,0\n")
        with pytest.raises(ValueError):
            GridField.from_csv(path)
