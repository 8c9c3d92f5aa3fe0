import math
import sys

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from valuefield import geometry
from valuefield.errors import InvalidEnergy, LeftDomain, OutOfDomain, StepUnstable
from valuefield.field import (AlphaField, AnalyticField, ConstantField, GridField,
                              spacetime_point)
from valuefield.geometry import (
    ETA,
    GeodesicState,
    IntegratorConfig,
    ParticleSpec,
    coordinate_time_rhs,
    energy_rate,
    geodesic_rhs,
    integrate_coordinate,
    integrate_geodesic,
    metric_at,
)
from valuefield.scenarios import run_scenario

C_DESK = 2.0  # small c keeps desk-scale numbers readable


def time_field(rate_per_s):
    """alpha(t) = rate * t with an analytic gradient."""
    return AnalyticField(lambda p: rate_per_s * p[0],
                         lambda p: np.array([rate_per_s, 0.0, 0.0, 0.0]))


def space_field(k):
    """alpha = k * x with an analytic gradient."""
    return AnalyticField(lambda p: k * p[1],
                         lambda p: np.array([0.0, k, 0.0, 0.0]))


K_WAVE = np.array([0.3, 0.7, -0.4, 0.5])


def wave_field():
    """alpha = 0.05 sin(k . p): all four gradient components are nonzero."""
    return AnalyticField(lambda p: 0.05 * math.sin(K_WAVE @ p),
                         lambda p: 0.05 * math.cos(K_WAVE @ p) * K_WAVE)


class DelegatingField(AlphaField):
    """A proxy that forwards the public calls, as a tracing wrapper does."""

    def __init__(self, inner):
        self._inner = inner
        self.domain = inner.domain

    def alpha(self, p):
        return self._inner.alpha(p)

    def gradient(self, p):
        return self._inner.gradient(p)


def a_per_meter(field, p, c):
    """Reference: the gradient of alpha with its temporal component in 1/m."""
    g = field.gradient(p)
    return np.array([g[0] / c, g[1], g[2], g[3]])


def eta_norm(u):
    """Reference: eta(u, u), summed left to right; -c^2 for a normalized
    massive 4-velocity."""
    u0, u1, u2, u3 = np.asarray(u, dtype=float).tolist()
    return ((-(u0 * u0) + u1 * u1) + u2 * u2) + u3 * u3


def assert_same_trajectory(a, b):
    for got, want in zip((a.tau, a.p, a.u), (b.tau, b.p, b.u)):
        assert got.tobytes() == want.tobytes()
    assert a.norm_drift == b.norm_drift


def numpy_rk4_geodesic(field, init, h, n, c):
    """Reference: fixed-step RK4 on (p, u) as NumPy arrays, with the
    geodesic rhs written out as array expressions."""
    def rhs(y):
        p, u = y[:4], y[4:]
        a = a_per_meter(field, p, c)
        du = -float(a @ u) * u + 0.5 * ETA * a * -eta_norm(u)
        return np.concatenate([np.array([u[0] / c, u[1], u[2], u[3]]), du])

    ys = [np.concatenate([init.p, init.u])]
    for _ in range(n):
        y = ys[-1]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        ys.append(y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.array(ys)


def zip_rk4_path(rhs, y0, cfg, monitor, what):
    """Reference: the RK4 loop with its stages and stage sums as zip
    comprehensions over a state of any length, as the loop was written before
    its stages were spelled out on the eight state floats."""
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
            if depth >= geometry._MAX_HALVINGS:
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


class TestIntegratorConfig:
    @pytest.mark.parametrize("kwargs, name", [
        ({"step": 0.1, "span": -5.0}, "span"),
        ({"step": 0.1, "span": float("nan")}, "span"),
        ({"step": float("nan"), "span": 1.0}, "step"),
        ({"step": float("inf"), "span": 1.0}, "step"),
    ], ids=["span=-5", "span=nan", "step=nan", "step=inf"])
    def test_bad_step_or_span_is_refused(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            IntegratorConfig(**kwargs)

    @pytest.mark.parametrize("span, last_tau", [(0.3, 1.0), (2.6, 3.0), (2.4, 2.0)])
    def test_steps_are_whole_so_the_run_can_end_past_or_short_of_span(self, span, last_tau):
        # max(1, round(span / step)) steps of exactly step
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 0, 0, 0]))
        traj = integrate_geodesic(ConstantField(0.0), init,
                                  IntegratorConfig(step=1.0, span=span), C_DESK)
        assert traj.tau[-1] == last_tau


class TestParticleSpec:
    @pytest.mark.parametrize("m, c, name", [
        (float("nan"), 1.0, "m"), (float("inf"), 1.0, "m"),
        (1.0, float("nan"), "c"), (1.0, float("inf"), "c"),
    ], ids=["m=nan", "m=inf", "c=nan", "c=inf"])
    def test_non_finite_mass_or_c_is_refused(self, m, c, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            ParticleSpec(m, c)

    @pytest.mark.parametrize("m, c", [(1e308, 3e8), (1e300, 1e150), (1.0, 1e155),
                                      (0.5, math.nextafter(math.sqrt(sys.float_info.max), 2e154))],
                             ids=["m=1e308", "m*c^2", "c^2", "c^2 just past max"])
    def test_rest_energy_that_overflows_is_refused(self, m, c):
        # m c^2 overflows to inf without raising; c^2 alone raises an errno
        # OverflowError in Python's own pow, whose message names nothing
        with pytest.raises(OverflowError, match=r"^rest energy m c\^2 overflows: m = "):
            ParticleSpec(m, c)

    def test_largest_c_whose_square_is_finite_is_accepted(self):
        c = math.sqrt(sys.float_info.max)
        assert ParticleSpec(0.5, c).rest_energy == 0.5 * c ** 2


class TestMetric:
    def test_constant_alpha_gives_eta(self):
        m = metric_at(ConstantField(0.9), spacetime_point(), spacetime_point(1, 2, 3, 4))
        assert np.array_equal(m, [-1.0, 1.0, 1.0, 1.0])

    def test_log2_offset_doubles(self):
        fld = AnalyticField(lambda p: math.log(2.0) * p[1])
        m = metric_at(fld, spacetime_point(0, 0), spacetime_point(0, 1))
        assert np.allclose(m, [-2.0, 2.0, 2.0, 2.0], rtol=1e-14)

    def test_reference_equals_point(self):
        p = spacetime_point(1, 2, 3, 4)
        m = metric_at(space_field(0.3), p, p)
        assert np.array_equal(m, [-1.0, 1.0, 1.0, 1.0])

    def test_signature_enforced(self):
        # e^{-1000} underflows to 0: an all-zero diagonal has no (-,+,+,+) signature
        with pytest.raises(ValueError, match="^transport factor must be finite and positive"):
            metric_at(space_field(-1000.0), spacetime_point(), spacetime_point(0, 1))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the source term of geodesic_rhs "
                       "has the opposite sign to the Levi-Civita geodesic of metric_at")
    def test_geodesic_rhs_is_the_levi_civita_geodesic_of_metric_at(self):
        fld, x_ref, c = wave_field(), spacetime_point(), C_DESK
        p = spacetime_point(0.1, 0.2, -0.3, 0.4)
        u = np.array([1.2 * c, 0.9, -0.6, 0.5])
        assert np.all(fld.gradient(p) != 0)

        def g(x):  # the metric diagonal at x = (c t, x, y, z)
            return metric_at(fld, x_ref, np.array([x[0] / c, *x[1:]]))

        # dg[s, i, j] = d_s g_ij by central differences
        x, h = np.array([c * p[0], *p[1:]]), 1e-5
        dg = np.array([np.diag((g(x + h * e) - g(x - h * e)) / (2 * h)) for e in np.eye(4)])
        # Gamma^m_ab = (d_a g_mb + d_b g_ma - d_m g_ab) / (2 g_mm)
        christoffel = ((dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg)
                       / (2 * g(x))[:, None, None])
        want = -np.einsum("mab,a,b->m", christoffel, u, u)
        got = geodesic_rhs(fld, GeodesicState(p, u), c)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def test_geodesic_rhs_is_the_geodesic_of_the_swapped_metric_reparameterized(self):
        # the Levi-Civita acceleration of e^{alpha(x_ref) - alpha(y)} eta, metric_at
        # with its arguments swapped, plus -2 (A . u) u: that metric's geodesics
        # at a non-affine parameter, which keep e^{3 alpha} eta(u, u) constant
        fld, x_ref, c = wave_field(), spacetime_point(), C_DESK
        p = spacetime_point(0.1, 0.2, -0.3, 0.4)
        u = np.array([1.2 * c, 0.9, -0.6, 0.5])
        assert np.all(fld.gradient(p) != 0)

        def g(x):  # the swapped metric's diagonal at x = (c t, x, y, z)
            return metric_at(fld, np.array([x[0] / c, *x[1:]]), x_ref)

        x, h = np.array([c * p[0], *p[1:]]), 1e-5
        dg = np.array([np.diag((g(x + h * e) - g(x - h * e)) / (2 * h)) for e in np.eye(4)])
        christoffel = ((dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg)
                       / (2 * g(x))[:, None, None])
        a = a_per_meter(fld, p, c)
        want = -np.einsum("mab,a,b->m", christoffel, u, u) - 2 * (a @ u) * u
        got = geodesic_rhs(fld, GeodesicState(p, u), c)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


class TestGeodesicRhs:
    @pytest.mark.parametrize("u", [[math.nan, 0, 0, 0], [C_DESK, math.inf, 0, 0],
                                   [C_DESK, 0, 0]], ids=["u0=nan", "u1=inf", "shape=3"])
    def test_bad_four_velocity_is_refused_at_entry(self, u):
        with pytest.raises(ValueError, match="^4-velocity must be 4 finite components"):
            GeodesicState(spacetime_point(), u)

    def test_four_velocity_whose_squares_overflow_never_reaches_the_rhs(self):
        # the rhs squares u: at u0 = 1e200 it returned [nan inf nan nan]
        with pytest.raises(OverflowError, match=r"^4-velocity u = \[.*\] overflows eta\(u, u\)$"):
            geodesic_rhs(space_field(1e-3), GeodesicState(spacetime_point(), [1e200, 0, 0, 0]),
                         1.0)

    def test_agrees_with_the_array_formula(self):
        fld = wave_field()
        st = GeodesicState(spacetime_point(0.1, 0.2, -0.3, 0.4),
                           np.array([1.2 * C_DESK, 0.9, -0.6, 0.5]))
        a = a_per_meter(fld, st.p, C_DESK)
        assert np.all(a != 0)
        want = -(a @ st.u) * st.u + 0.5 * ETA * a * -eta_norm(st.u)
        got = geodesic_rhs(fld, st, C_DESK)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_flat_field_straight_line(self):
        st = GeodesicState(spacetime_point(), np.array([C_DESK, 0.5, 0, 0]))
        assert np.array_equal(geodesic_rhs(ConstantField(1.2), st, C_DESK), np.zeros(4))

    def test_rest_particle_time_gradient(self):
        # per-meter temporal component a0 means stored rate a0*c
        a0 = 1e-4
        fld = time_field(a0 * C_DESK)
        st = GeodesicState(spacetime_point(), np.array([C_DESK, 0, 0, 0]))
        rhs = geodesic_rhs(fld, st, C_DESK)
        assert rhs[0] == pytest.approx(-1.5 * a0 * C_DESK ** 2, rel=1e-12)
        assert np.all(rhs[1:] == 0.0)

    def test_spatial_gradient_pushes_rest_particle(self):
        k = 3e-4
        fld = space_field(k)
        st = GeodesicState(spacetime_point(), np.array([C_DESK, 0, 0, 0]))
        rhs = geodesic_rhs(fld, st, C_DESK)
        assert rhs[1] == pytest.approx(0.5 * k * C_DESK ** 2, rel=1e-12)
        assert rhs[0] == 0.0

    def test_linear_in_gradient(self):
        st = GeodesicState(spacetime_point(0, 0.3, 0, 0),
                           np.array([1.2 * C_DESK, 0.4, 0.1, 0]))
        r1 = geodesic_rhs(space_field(1e-6), st, C_DESK)
        r2 = geodesic_rhs(space_field(2e-6), st, C_DESK)
        assert np.allclose(r2, 2 * r1, rtol=0, atol=0)

    def test_sign_reversal(self):
        st = GeodesicState(spacetime_point(0, 0.3, 0, 0),
                           np.array([1.2 * C_DESK, 0.4, 0.1, 0]))
        r1 = geodesic_rhs(space_field(1e-6), st, C_DESK)
        r2 = geodesic_rhs(space_field(-1e-6), st, C_DESK)
        assert np.array_equal(r2, -r1)

    def test_null_path_drops_source_term(self):
        # photon-like: eta-norm zero, so only the -(A.u)u term remains
        k = 1e-5
        fld = space_field(k)
        st = GeodesicState(spacetime_point(), np.array([C_DESK, C_DESK, 0, 0]))
        rhs = geodesic_rhs(fld, st, C_DESK)
        au = k * C_DESK
        assert np.allclose(rhs, -au * st.u, rtol=1e-12)


class TestIntegrateGeodesic:
    def test_straight_line_at_constant_alpha(self):
        beta = 0.3
        gamma = 1 / math.sqrt(1 - beta ** 2)
        u = np.array([gamma * C_DESK, gamma * beta * C_DESK, 0, 0])
        init = GeodesicState(spacetime_point(), u)
        cfg = IntegratorConfig(step=1e-3, span=10.0)
        traj = integrate_geodesic(ConstantField(0.7), init, cfg, C_DESK)
        assert len(traj.tau) == 10001
        straight = init.p[1] + u[1] * traj.tau
        dev = np.max(np.abs(traj.p[:, 1] - straight))
        assert dev <= 1e-9 * abs(u[1]) * cfg.span
        assert traj.norm_drift <= 1e-12

    def test_rest_particle_matches_reference_integration(self):
        # tiny-step RK4 as the independent reference for the same dynamics
        a0 = 1e-3  # per-meter; stored rate a0*c
        fld = time_field(a0 * C_DESK)
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 0, 0, 0]))
        coarse = integrate_geodesic(fld, init, IntegratorConfig(step=1e-2, span=1.0), C_DESK)
        fine = integrate_geodesic(fld, init, IntegratorConfig(step=1e-4, span=1.0), C_DESK)
        assert coarse.u[-1, 0] == pytest.approx(fine.u[-1, 0], rel=1e-10)
        assert coarse.u[-1, 0] < C_DESK  # positive time gradient drains u0

    def test_conservation_drift_small_over_many_steps(self):
        # varying alpha: the monitored invariant stays within tolerance
        # without any step halving over 10^4 steps
        fld = time_field(-2e-3 * C_DESK)
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 0.3, 0, 0]))
        cfg = IntegratorConfig(step=1e-4, span=1.0, norm_check_tol=1e-6)
        traj = integrate_geodesic(fld, init, cfg, C_DESK)
        assert traj.norm_drift <= 1e-6

    def test_one_alpha_call_per_accepted_step(self):
        # the drift that accepts a step is the drift reported: alpha is
        # evaluated once at the start and once per step, never again
        class CountingField(ConstantField):
            calls = 0

            def alpha(self, p):
                self.calls += 1
                return super().alpha(p)

        fld = CountingField(0.4)
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 0.3, 0, 0]))
        traj = integrate_geodesic(fld, init, IntegratorConfig(step=0.1, span=1.0), C_DESK)
        n_steps = len(traj.tau) - 1
        assert n_steps == 10
        assert fld.calls == n_steps + 1
        q0 = eta_norm(init.u)
        scale = max(abs(q0), init.u[0] ** 2)
        assert traj.norm_drift == max(abs(eta_norm(u) - q0) / scale for u in traj.u[1:])

    def test_default_geodesic_calls_the_public_field_methods(self):
        # the geodesic scenario's defaults: four gradient calls per RK4 step,
        # one alpha call per step and one at the start, all through the
        # public methods, so a delegating proxy sees every call
        class CountingField(ConstantField):
            alpha_calls = gradient_calls = 0

            def alpha(self, p):
                self.alpha_calls += 1
                return super().alpha(p)

            def gradient(self, p):
                self.gradient_calls += 1
                return super().gradient(p)

        c, beta, span = 299792458.0, 0.3, 1e-4
        gamma = 1.0 / math.sqrt(1.0 - beta ** 2)
        init = GeodesicState(spacetime_point(), np.array([gamma * c, gamma * beta * c, 0, 0]))
        cfg = IntegratorConfig(step=span / 10000, span=span)
        fld = CountingField(0.4)
        traj = integrate_geodesic(fld, init, cfg, c)
        assert (fld.gradient_calls, fld.alpha_calls) == (40000, 10001)
        inner = CountingField(0.4)
        proxied = integrate_geodesic(DelegatingField(inner), init, cfg, c)
        assert (inner.gradient_calls, inner.alpha_calls) == (40000, 10001)
        assert_same_trajectory(proxied, traj)

    def test_delegating_proxy_gives_the_same_trajectory(self):
        init = GeodesicState(spacetime_point(0.1, 0.2, -0.3, 0.4),
                             np.array([1.2 * C_DESK, 0.9, -0.6, 0.5]))
        cfg = IntegratorConfig(step=1e-2, span=1.0)
        proxied = integrate_geodesic(DelegatingField(wave_field()), init, cfg, C_DESK)
        assert_same_trajectory(proxied, integrate_geodesic(wave_field(), init, cfg, C_DESK))

    def test_unreachable_tolerance_raises(self):
        from valuefield.errors import StepUnstable
        fld = time_field(-0.5 * C_DESK)
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 0.3, 0, 0]))
        cfg = IntegratorConfig(step=0.5, span=2.0, norm_check_tol=1e-30)
        with pytest.raises(StepUnstable):
            integrate_geodesic(fld, init, cfg, C_DESK)

    def test_nan_alpha_fails_the_conservation_monitor(self):
        # a NaN drift must count as a failed step, never as a passing one
        from valuefield.errors import StepUnstable
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 0.3, 0, 0]))
        cfg = IntegratorConfig(step=0.1, span=1.0)
        with pytest.raises(StepUnstable):
            integrate_geodesic(ConstantField(float("nan")), init, cfg, C_DESK)

    @pytest.mark.parametrize("fp_errors", ["warn", "raise"])
    def test_monitor_factor_that_overflows_is_an_unstable_step(self, fp_errors):
        # alpha jumps by 1e3 once t > 0, so e^{3 (alpha - alpha0)} overflows: an
        # inf drift fails the step and each halving of it down to the minimum
        # step, under a NumPy error state that raises as under one that warns
        fld = AnalyticField(lambda p: 1e3 if p[0] > 0 else 0.0, lambda p: np.zeros(4))
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 0.3, 0, 0]))
        with np.errstate(all=fp_errors), pytest.raises(
                StepUnstable, match="^conservation drift inf exceeds tolerance 1.000e-06 at"):
            integrate_geodesic(fld, init, IntegratorConfig(step=0.1, span=1.0), C_DESK)

    def test_matches_numpy_rk4_on_a_field_varying_along_every_axis(self):
        # scalar A . u sums without the fused multiply-add of BLAS ddot, so
        # the last bits may move; nothing more
        init = GeodesicState(spacetime_point(0.1, 0.2, -0.3, 0.4),
                             np.array([1.2 * C_DESK, 0.9, -0.6, 0.5]))
        traj = integrate_geodesic(wave_field(), init, IntegratorConfig(step=1e-2, span=1.0),
                                  C_DESK)
        ref = numpy_rk4_geodesic(wave_field(), init, 1e-2, 100, C_DESK)
        assert np.allclose(traj.p, ref[:, :4], rtol=1e-12, atol=1e-12)
        assert np.allclose(traj.u, ref[:, 4:], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("fld, c, step", [
        (ConstantField(0.7), C_DESK, 1e-2),
        (AnalyticField(lambda p: 2e3 * p[0], lambda p: (2e3, 0.0, 0.0, 0.0)), 299792458.0,
         1e-7),
    ], ids=["constant", "time-only"])
    def test_bit_equal_to_numpy_rk4_with_one_gradient_component(self, fld, c, step):
        beta = np.array([0.3, 0.2, -0.1])
        u0 = np.array([c, *beta * c]) / math.sqrt(1 - beta @ beta)
        init = GeodesicState(spacetime_point(), u0)
        traj = integrate_geodesic(fld, init, IntegratorConfig(step=step, span=100 * step), c)
        ref = numpy_rk4_geodesic(fld, init, step, 100, c)
        assert traj.p.tobytes() == ref[:, :4].tobytes()
        assert traj.u.tobytes() == ref[:, 4:].tobytes()

    @pytest.mark.parametrize("c", [-1.0, 0.0, float("nan"), float("inf")],
                             ids=["c=-1", "c=0", "c=nan", "c=inf"])
    def test_bad_c_is_refused_at_entry(self, c):
        init = GeodesicState(spacetime_point(), np.array([1.0, 0.3, 0, 0]))
        cfg = IntegratorConfig(step=0.1, span=1.0)
        with pytest.raises(ValueError, match="^c must be finite and positive"):
            integrate_geodesic(ConstantField(0.0), init, cfg, c)
        with pytest.raises(ValueError, match="^c must be finite and positive"):
            geodesic_rhs(ConstantField(0.0), init, c)

    def test_reversing_gradient_reverses_initial_acceleration(self):
        st = GeodesicState(spacetime_point(), np.array([C_DESK, 0.2, 0, 0]))
        plus = geodesic_rhs(space_field(2e-4), st, C_DESK)
        minus = geodesic_rhs(space_field(-2e-4), st, C_DESK)
        assert np.array_equal(plus, -minus)

    @pytest.mark.parametrize("u", [[1e200, 0, 0, 0], [1.0, 1e200, 0, 0]],
                             ids=["u0^2", "u1^2"])
    def test_four_velocity_whose_squares_overflow_is_refused_at_entry(self, u):
        with pytest.raises(OverflowError, match=r"^4-velocity u = \[.*\] overflows eta\(u, u\)$"):
            init = GeodesicState(spacetime_point(), np.array(u))
            integrate_geodesic(ConstantField(0.0), init, IntegratorConfig(step=0.1, span=1.0),
                               1.0)

    def test_state_that_overflows_in_the_last_stage_sum_is_unstable(self):
        # dt/dtau = u0 / c = 1e308: every stage point is finite, but the
        # weighted sum of the four t slopes, and so the new t, is not
        init = GeodesicState(spacetime_point(), np.array([1e100, 0, 0, 0]))
        cfg = IntegratorConfig(step=1e-10, span=1e-10)
        with pytest.raises(StepUnstable, match="^non-finite state during geodesic step$"):
            integrate_geodesic(ConstantField(0.0), init, cfg, 1e-208)

    def test_finite_state_whose_sum_overflows_is_accepted(self):
        # t + x overflows although each is finite: the finite check must not
        # stop at the sum
        init = GeodesicState(spacetime_point(1.7e308, 1.7e308, 0, 0), np.array([1.0, 0, 0, 0]))
        traj = integrate_geodesic(ConstantField(0.0), init, IntegratorConfig(step=1.0, span=1.0),
                                  1.0)
        assert traj.p[1].tolist() == [1.7e308 + 1.0, 1.7e308, 0.0, 0.0]
        assert traj.norm_drift == 0.0

    def test_leaves_domain(self):
        fld = GridField(np.zeros((3, 3, 3, 3)), (-1,) * 4, (1,) * 4)  # the box [-1, 1]^4
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 1.0, 0, 0]))
        with pytest.raises(LeftDomain, match="geodesic trajectory left the field domain: point"):
            integrate_geodesic(fld, init, IntegratorConfig(step=0.1, span=10.0), C_DESK)

    def test_leaves_grid_domain(self):
        # the same box; its one-point calls take the gather, then the stencil near a wall
        fld = GridField(1e-8 * np.random.default_rng(3).normal(size=(5, 5, 5, 5)),
                        (-1, -1, -1, -1), (0.5, 0.5, 0.5, 0.5))
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 1.0, 0, 0]))
        with pytest.raises(LeftDomain, match="geodesic trajectory left the field domain: point"):
            integrate_geodesic(fld, init, IntegratorConfig(step=0.1, span=10.0), C_DESK)

    def test_trajectory_csv(self, tmp_path):
        steps = 10
        run_scenario("geodesic", {"steps": str(steps)}, tmp_path)
        lines = (tmp_path / "geodesic_trajectory.csv").read_text().splitlines()
        assert lines[0] == "tau,t,x,y,z,u0,u1,u2,u3,gamma,E"
        assert len(lines) == 1 + steps + 1


class TestCoordinateTime:
    def test_agrees_with_the_array_formula(self):
        fld = wave_field()
        p = spacetime_point(0.1, 0.2, -0.3, 0.4)
        dpds, gamma = np.array([C_DESK, 0.9, -0.6, 0.5]), 1.3
        a = a_per_meter(fld, p, C_DESK)
        assert np.all(a != 0)
        want = -(a @ dpds) * gamma * dpds + 0.5 * ETA * a * C_DESK ** 2 / gamma
        got = np.array(coordinate_time_rhs(fld, p, dpds, gamma, ParticleSpec(1.0, C_DESK)))
        assert got.shape == (4,) and np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_gradient_free_momentum_conserved(self):
        out = coordinate_time_rhs(ConstantField(0.3), spacetime_point(),
                                  np.array([C_DESK, 0.5, 0, 0]), 1.2,
                                  ParticleSpec(1.0, C_DESK))
        assert np.array_equal(np.array(out), np.zeros(4))

    def test_rest_source_term(self):
        # with every velocity component zero only the gradient source survives
        a0 = 2e-4
        fld = time_field(a0 * C_DESK)
        out = coordinate_time_rhs(fld, spacetime_point(), np.zeros(4), 1.0,
                                  ParticleSpec(1.0, C_DESK))
        assert out[0] == pytest.approx(-0.5 * a0 * C_DESK ** 2, rel=1e-12)

    @pytest.mark.parametrize("v0", [[C_DESK, 0.0, 0.0], [0.0, -1.5 * C_DESK, 0.0],
                                    [0.8 * C_DESK, 0.0, 0.8 * C_DESK]],
                             ids=["c", "past-c", "past-c-over-two-axes"])
    def test_initial_speed_of_c_or_more_is_refused(self, v0):
        with pytest.raises(ValueError, match="^initial speed must be below c"):
            integrate_coordinate(ConstantField(0.0), spacetime_point(), np.array(v0),
                                 ParticleSpec(1.0, C_DESK), IntegratorConfig(step=0.1, span=1.0))

    @staticmethod
    def proper_vs_coordinate_gap(a0):
        """Largest |x(t)| gap between the proper-time and coordinate-time
        paths of one particle in alpha = a0 t, relative to the largest |x|."""
        fld = time_field(a0)
        part = ParticleSpec(1.0, C_DESK)
        v0 = 0.25 * C_DESK
        g0 = 1 / math.sqrt(1 - (v0 / C_DESK) ** 2)
        init = GeodesicState(spacetime_point(), np.array([g0 * C_DESK, g0 * v0, 0, 0]))
        span_s = 3.0
        proper = integrate_geodesic(
            fld, init, IntegratorConfig(step=5e-4, span=1.2 * span_s / g0), C_DESK)
        coord = integrate_coordinate(fld, spacetime_point(), np.array([v0, 0, 0]),
                                     part, IntegratorConfig(step=5e-4, span=span_s))
        x_of_t = CubicSpline(proper.p[:, 0], proper.p[:, 1])
        tt = coord.p[:, 0]
        mask = tt <= proper.p[-1, 0]
        err = np.max(np.abs(x_of_t(tt[mask]) - coord.p[mask, 1]))
        return err / np.max(np.abs(coord.p[mask, 1]))

    def test_reparameterized_consistency_with_proper_time(self):
        assert self.proper_vs_coordinate_gap(-1e-5) <= 1e-6

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the proper-time equation keeps "
                       "e^{3 dalpha} eta(u, u) constant, so -eta(u, u) leaves c^2, while "
                       "coordinate_time_rhs hard-codes c^2; the paths part as alpha changes")
    def test_reparameterized_consistency_with_proper_time_at_a_larger_rate(self):
        assert self.proper_vs_coordinate_gap(-1e-2) <= 1e-6

    def test_particle_that_cannot_climb_is_invalid_energy(self):
        # a rest particle in a rising alpha(t) loses energy below its rest energy
        fld = AnalyticField(lambda p: 1e-2 * p[0], lambda p: (1e-2, 0.0, 0.0, 0.0))
        with pytest.raises(InvalidEnergy, match="gamma"):
            integrate_coordinate(fld, spacetime_point(), np.zeros(3), ParticleSpec(1.0, 10.0),
                                 IntegratorConfig(step=0.1, span=1.0))

    def test_nan_gamma_is_invalid_energy(self):
        with pytest.raises(InvalidEnergy, match="gamma = nan"):
            coordinate_time_rhs(ConstantField(0.0), spacetime_point(), [C_DESK, 0, 0, 0],
                                math.nan, ParticleSpec(1.0, C_DESK))

    @pytest.mark.parametrize("gamma", [math.nan, 0.5, math.inf])
    def test_gamma_not_finite_and_at_least_one_is_invalid_energy(self, gamma):
        fld = AnalyticField(lambda p: 1e-2 * p[0], lambda p: (1e-2, 0.0, 0.0, 0.0))
        with pytest.raises(InvalidEnergy, match=f"gamma = {gamma!r}"):
            coordinate_time_rhs(fld, spacetime_point(), [C_DESK, 0, 0, 0], gamma,
                                ParticleSpec(1.0, C_DESK))

    def test_first_row_is_the_input_at_si_c(self):
        # gamma0*v0 / (gamma0*c/c) is not always v0 to the bit at c = 299792458
        rng = np.random.default_rng(7)
        part = ParticleSpec(1.0, 299792458.0)
        for _ in range(20):
            p0 = rng.uniform(-1.0, 1.0, 4)
            v0 = rng.uniform(-0.5, 0.5, 3) * part.c
            gamma0 = 1.0 / np.sqrt(1.0 - float(v0 @ v0) / part.c ** 2)
            tr = integrate_coordinate(ConstantField(0.2), p0, v0, part,
                                      IntegratorConfig(step=1e-3, span=2e-3))
            assert np.array_equal(tr.p[0], p0) and np.array_equal(tr.v[0], v0)
            assert tr.gamma[0] == gamma0

    @pytest.mark.parametrize("v0", [[math.nan, 0, 0], [0.5, math.inf, 0], [0.5, 0]],
                             ids=["v1=nan", "v2=inf", "shape=2"])
    def test_bad_initial_velocity_is_refused_at_entry(self, v0):
        with pytest.raises(ValueError, match="^initial velocity must be 3 finite components"):
            integrate_coordinate(ConstantField(0.0), spacetime_point(), v0,
                                 ParticleSpec(1.0, C_DESK), IntegratorConfig(step=0.1, span=1.0))

    def test_leaves_domain(self):
        fld = GridField(np.zeros((3, 3, 3, 3)), (-1,) * 4, (1,) * 4)  # the box [-1, 1]^4
        with pytest.raises(LeftDomain):
            integrate_coordinate(fld, spacetime_point(), np.array([0.5, 0, 0]),
                                 ParticleSpec(1.0, C_DESK), IntegratorConfig(step=0.1, span=10.0))


class TestWrittenOutStages:
    """The RK4 loop's stages, written out on the eight state floats, give the
    bits of the generic zip loop on paths the NumPy references do not reach."""

    @pytest.mark.parametrize("p0, u0, span, tol", [
        ((0.1, 0.2, -0.3, 0.4), (1.2 * C_DESK, 0.9, -0.6, 0.5), 1.0, 2e-9),
        ((0.0, 0.0, 0.0, 0.0), (C_DESK, 0.0, 0.0, 0.0), 10.0, 1e-9),
    ], ids=["moving", "at-rest"])
    def test_geodesic_with_step_halvings_on_a_field_varying_along_every_axis(
            self, monkeypatch, p0, u0, span, tol):
        class CountingField(DelegatingField):
            gradient_calls = 0

            def gradient(self, p):
                self.gradient_calls += 1
                return super().gradient(p)

        init = GeodesicState(spacetime_point(*p0), np.array(u0))
        cfg = IntegratorConfig(step=0.1, span=span, norm_check_tol=tol)
        fld = CountingField(wave_field())
        traj = integrate_geodesic(fld, init, cfg, C_DESK)
        assert fld.gradient_calls > 4 * (len(traj.tau) - 1)  # the tolerance forces halvings
        monkeypatch.setattr(geometry, "_rk4_path", zip_rk4_path)
        assert_same_trajectory(traj, integrate_geodesic(wave_field(), init, cfg, C_DESK))

    @pytest.mark.parametrize("k, step, span", [(-0.05, 0.1, 10.0), (-0.2, 0.01, 2.0)])
    def test_coordinate_time_form(self, monkeypatch, k, step, span):
        args = (space_field(k), spacetime_point(), np.array([0.5, -0.2, 0.3]),
                ParticleSpec(1.0, C_DESK), IntegratorConfig(step=step, span=span))
        got = integrate_coordinate(*args)
        monkeypatch.setattr(geometry, "_rk4_path", zip_rk4_path)
        want = integrate_coordinate(*args)
        for name in ("s", "p", "v", "gamma"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestFieldTraffic:
    """The integrators hand the field lists of 4 Python floats, which ``alpha``
    and ``gradient`` check on floats: no call reaches the array checks."""

    @pytest.fixture
    def array_checks(self, monkeypatch):
        calls = []
        check = AlphaField._require_inside

        def counting(self, p):
            calls.append(p.shape)
            return check(self, p)

        monkeypatch.setattr(AlphaField, "_require_inside", counting)
        ConstantField(0.0).alpha(np.zeros(4))  # an array point counts
        assert calls == [(4,)]
        calls.clear()
        return calls

    def test_default_scenario_geodesic_on_a_constant_field(self, array_checks):
        c, beta, span, steps = 299792458.0, 0.3, 1e-4, 10000
        gamma = 1.0 / math.sqrt(1.0 - beta ** 2)
        init = GeodesicState(spacetime_point(), np.array([gamma * c, gamma * beta * c, 0, 0]))
        traj = integrate_geodesic(ConstantField(0.4), init,
                                  IntegratorConfig(step=span / steps, span=span), c)
        assert len(traj.tau) == steps + 1 and array_checks == []

    def test_geodesic_inside_a_grid_field(self, array_checks):
        fld = GridField(1e-8 * np.random.default_rng(3).normal(size=(5, 5, 5, 5)),
                        (-1, -1, -1, -1), (0.5, 0.5, 0.5, 0.5))
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 0.2, 0, 0]))
        traj = integrate_geodesic(fld, init, IntegratorConfig(step=0.1, span=0.5), C_DESK)
        assert len(traj.tau) == 6 and array_checks == []

    def test_coordinate_time_on_an_analytic_field(self, array_checks):
        cfg = IntegratorConfig(step=0.1, span=1.0)
        traj = integrate_coordinate(wave_field(), spacetime_point(), np.array([0.5, -0.2, 0.3]),
                                    ParticleSpec(1.0, C_DESK), cfg)
        assert len(traj.s) == 11 and array_checks == []


class TestEnergyRate:
    def test_flat_field_conserves_energy(self):
        part = ParticleSpec(1.0, C_DESK)
        out = energy_rate(ConstantField(0.2), spacetime_point(),
                          np.array([C_DESK, 0.3, 0, 0]), 1.5 * part.rest_energy, part)
        assert out == 0.0

    def test_mass_independent_fractional_rate(self):
        fld = space_field(1e-4)
        dpds = np.array([C_DESK, 0.5, 0, 0])
        gamma = 1.25
        m1, m2 = ParticleSpec(1.0, C_DESK), ParticleSpec(2.0, C_DESK)
        e1, e2 = gamma * m1.rest_energy, gamma * m2.rest_energy
        r1 = energy_rate(fld, spacetime_point(), dpds, e1, m1) / m1.rest_energy
        r2 = energy_rate(fld, spacetime_point(), dpds, e2, m2) / m2.rest_energy
        assert r1 == r2  # bitwise

    def test_rest_particle_gamma_rate_has_no_mass(self):
        # d gamma/ds = dE/ds / (m c^2), the same for m = 1 and m = 3
        fld = time_field(-2e-5 * C_DESK)
        a0 = -2e-5
        for part in (ParticleSpec(1.0, C_DESK), ParticleSpec(3.0, C_DESK)):
            out = energy_rate(fld, spacetime_point(), np.array([C_DESK, 0, 0, 0]),
                              part.rest_energy, part) / part.rest_energy
            assert out == pytest.approx(-1.5 * a0 * C_DESK, rel=1e-12)

    def test_formula_matches_integrator_derivative(self):
        # independent oracle: finite-difference E(s) from the coordinate-time
        # integrator; frozen closed-form value -(3/2) a0_per_meter m c^3
        a0 = -1e-5  # stored 1/s rate
        fld = time_field(a0)
        part = ParticleSpec(1.0, C_DESK)
        traj = integrate_coordinate(fld, spacetime_point(), np.zeros(3), part,
                                    IntegratorConfig(step=1e-3, span=0.01))
        energy = traj.gamma * part.rest_energy
        fd = (energy[2] - energy[0]) / (traj.s[2] - traj.s[0])
        formula = energy_rate(fld, traj.p[1], np.array([C_DESK, *traj.v[1]]),
                              energy[1], part)
        assert formula == pytest.approx(6.000000000000001e-05, rel=1e-9)
        assert fd == pytest.approx(formula, rel=1e-6)

    def test_source_term_carries_inverse_metric_sign(self):
        a0 = -1e-5
        fld = time_field(a0)
        part = ParticleSpec(1.0, C_DESK)
        dpds = np.array([C_DESK, 0, 0, 0])
        derived = energy_rate(fld, spacetime_point(), dpds, part.rest_energy, part)
        atil = a0 / C_DESK
        assert derived == pytest.approx(-1.5 * atil * C_DESK ** 3, rel=1e-12)

    def test_below_rest_energy_rejected(self):
        part = ParticleSpec(1.0, C_DESK)
        with pytest.raises(InvalidEnergy):
            energy_rate(ConstantField(0.0), spacetime_point(),
                        np.array([C_DESK, 0, 0, 0]), 0.5 * part.rest_energy, part)

    @pytest.mark.parametrize("energy", [math.nan, math.inf])
    def test_non_finite_energy_rejected(self, energy):
        part = ParticleSpec(1.0, C_DESK)
        with pytest.raises(InvalidEnergy):
            energy_rate(ConstantField(0.0), spacetime_point(),
                        np.array([C_DESK, 0, 0, 0]), energy, part)


def test_eta_norm_values():
    assert eta_norm([2.0, 0, 0, 0]) == -4.0
    assert eta_norm([2.0, 2.0, 0, 0]) == 0.0
