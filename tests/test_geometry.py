import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from valuefield.errors import InvalidEnergy, LeftDomain
from valuefield.field import AnalyticField, ConstantField, spacetime_point
from valuefield.geometry import (
    GeodesicState,
    IntegratorConfig,
    ParticleSpec,
    coordinate_time_rhs,
    energy_rate,
    eta_norm,
    gamma_rate,
    geodesic_rhs,
    integrate_coordinate,
    integrate_geodesic,
    metric_at,
)

C_DESK = 2.0  # small c keeps desk-scale numbers readable


def time_field(rate_per_s):
    """alpha(t) = rate * t with an analytic gradient."""
    return AnalyticField(lambda p: rate_per_s * p[0],
                         lambda p: np.array([rate_per_s, 0.0, 0.0, 0.0]))


def space_field(k):
    """alpha = k * x with an analytic gradient."""
    return AnalyticField(lambda p: k * p[1],
                         lambda p: np.array([0.0, k, 0.0, 0.0]))


class TestMetric:
    def test_constant_alpha_gives_eta(self):
        m = metric_at(ConstantField(0.9), spacetime_point(), spacetime_point(1, 2, 3, 4))
        assert np.array_equal(m.diag, [-1.0, 1.0, 1.0, 1.0])

    def test_log2_offset_doubles(self):
        fld = AnalyticField(lambda p: math.log(2.0) * p[1])
        m = metric_at(fld, spacetime_point(0, 0), spacetime_point(0, 1))
        assert np.allclose(m.diag, [-2.0, 2.0, 2.0, 2.0], rtol=1e-14)

    def test_reference_equals_point(self):
        p = spacetime_point(1, 2, 3, 4)
        m = metric_at(space_field(0.3), p, p)
        assert np.array_equal(m.diag, [-1.0, 1.0, 1.0, 1.0])

    def test_signature_enforced(self):
        from valuefield.geometry import MetricDiag
        with pytest.raises(ValueError):
            MetricDiag(np.array([1.0, 1.0, 1.0, 1.0]))


class TestGeodesicRhs:
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

    def test_unreachable_tolerance_raises(self):
        from valuefield.errors import StepUnstable
        fld = time_field(-0.5 * C_DESK)
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 0.3, 0, 0]))
        cfg = IntegratorConfig(step=0.5, span=2.0, norm_check_tol=1e-30,
                               max_halvings=2)
        with pytest.raises(StepUnstable):
            integrate_geodesic(fld, init, cfg, C_DESK)

    def test_nan_alpha_fails_the_conservation_monitor(self):
        # a NaN drift must count as a failed step, never as a passing one
        from valuefield.errors import StepUnstable
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 0.3, 0, 0]))
        cfg = IntegratorConfig(step=0.1, span=1.0, max_halvings=3)
        with pytest.raises(StepUnstable):
            integrate_geodesic(ConstantField(float("nan")), init, cfg, C_DESK)

    def test_reversing_gradient_reverses_initial_acceleration(self):
        st = GeodesicState(spacetime_point(), np.array([C_DESK, 0.2, 0, 0]))
        plus = geodesic_rhs(space_field(2e-4), st, C_DESK)
        minus = geodesic_rhs(space_field(-2e-4), st, C_DESK)
        assert np.array_equal(plus, -minus)

    def test_leaves_domain(self):
        dom = (spacetime_point(-1, -1, -1, -1), spacetime_point(1, 1, 1, 1))
        fld = AnalyticField(lambda p: 0.0, lambda p: np.zeros(4), domain=dom)
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 1.0, 0, 0]))
        with pytest.raises(LeftDomain):
            integrate_geodesic(fld, init, IntegratorConfig(step=0.1, span=10.0), C_DESK)

    def test_trajectory_csv(self, tmp_path):
        init = GeodesicState(spacetime_point(), np.array([C_DESK, 0.2, 0, 0]))
        traj = integrate_geodesic(ConstantField(0.0), init,
                                  IntegratorConfig(step=0.1, span=1.0), C_DESK)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, ParticleSpec(1.0, C_DESK))
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,t,x,y,z,u0,u1,u2,u3,gamma,E"
        assert len(lines) == len(traj.tau) + 1


class TestCoordinateTime:
    def test_gradient_free_momentum_conserved(self):
        out = coordinate_time_rhs(ConstantField(0.3), spacetime_point(),
                                  np.array([C_DESK, 0.5, 0, 0]), 1.2,
                                  ParticleSpec(1.0, C_DESK))
        assert np.array_equal(out, np.zeros(4))

    def test_rest_source_term(self):
        # with every velocity component zero only the gradient source survives
        a0 = 2e-4
        fld = time_field(a0 * C_DESK)
        out = coordinate_time_rhs(fld, spacetime_point(), np.zeros(4), 1.0,
                                  ParticleSpec(1.0, C_DESK))
        assert out[0] == pytest.approx(-0.5 * a0 * C_DESK ** 2, rel=1e-12)

    def test_reparameterized_consistency_with_proper_time(self):
        a0 = -1e-5
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
        assert err <= 1e-6 * np.max(np.abs(coord.p[mask, 1]))


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

    def test_gamma_rate_has_no_mass_argument(self):
        fld = time_field(-2e-5 * C_DESK)
        out = gamma_rate(fld, spacetime_point(), np.array([C_DESK, 0, 0, 0]), 1.0, C_DESK)
        a0 = -2e-5
        assert out == pytest.approx(-1.5 * a0 * C_DESK, rel=1e-12)

    def test_formula_matches_integrator_derivative(self):
        # independent oracle: finite-difference E(s) from the coordinate-time
        # integrator; frozen closed-form value -(3/2) a0_per_meter m c^3
        a0 = -1e-5  # stored 1/s rate
        fld = time_field(a0)
        part = ParticleSpec(1.0, C_DESK)
        traj = integrate_coordinate(fld, spacetime_point(), np.zeros(3), part,
                                    IntegratorConfig(step=1e-3, span=0.01))
        energy = traj.energy(part)
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


def test_eta_norm_values():
    assert eta_norm([2.0, 0, 0, 0]) == -4.0
    assert eta_norm([2.0, 2.0, 0, 0]) == 0.0
