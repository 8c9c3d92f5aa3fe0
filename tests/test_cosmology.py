import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from valuefield.constants import AU_LIGHT_TIME_S, GYR_S, YEAR_S
from valuefield.cosmology import (
    AlphaProfile,
    CosmologyParams,
    Segment,
    build_alpha_profile,
    critical_density,
    density,
    friedmann_residuals,
    h0_convert,
    hubble,
    linear_hubble_profile,
    local_bound_check,
    redshift,
    redshift_table_to_csv,
    scale_factor,
    vacuum_rate,
    wavelength_at_reception,
)
from valuefield.errors import InvalidBoundaries, OutOfRange
from valuefield.field import spacetime_point


def matter_only_params(h0=70.0):
    """Matter universe with its self-consistent age 2/(3 H0)."""
    per_s = h0_convert(h0)[1]
    return CosmologyParams(h0_kms_mpc=h0, omega_m=1.0, omega_r=0.0, omega_v=0.0,
                           t_now_yr=(2.0 / (3.0 * per_s)) / YEAR_S)


def radiation_only_params(h0=70.0):
    per_s = h0_convert(h0)[1]
    return CosmologyParams(h0_kms_mpc=h0, omega_m=0.0, omega_r=1.0, omega_v=0.0,
                           t_now_yr=(1.0 / (2.0 * per_s)) / YEAR_S)


def matter_profile(params):
    t = params.t_now_s
    return AlphaProfile([Segment(0.0, t, "matter", s_ref=t, alpha_ref=0.0)], t)


def radiation_profile(params):
    t = params.t_now_s
    return AlphaProfile([Segment(0.0, t, "radiation", s_ref=t, alpha_ref=0.0)], t)


class TestH0Convert:
    def test_quoted_values_for_70(self):
        per_yr, per_s = h0_convert(70.0)
        assert per_yr == pytest.approx(7.16e-11, rel=5e-4)
        assert per_s == pytest.approx(2.3e-18, rel=0.02)

    def test_linear_rescaling(self):
        per_yr70, per_s70 = h0_convert(70.0)
        per_yr, per_s = h0_convert(100.0)
        assert per_yr == pytest.approx(per_yr70 * 100 / 70, rel=1e-14)
        assert per_s == pytest.approx(3.24e-18, rel=1e-3)

    def test_positive_only(self):
        with pytest.raises(ValueError):
            h0_convert(0.0)


class TestParams:
    def test_flatness_enforced(self):
        with pytest.raises(ValueError):
            CosmologyParams(omega_m=0.3, omega_r=0.0, omega_v=0.6)

    def test_flatness_tolerance(self):
        CosmologyParams(omega_m=0.3, omega_r=0.0, omega_v=0.7)  # ok

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError):
            CosmologyParams(omega_m=-0.1, omega_r=0.4, omega_v=0.7)


class TestScaleFactor:
    def test_normalized_now(self):
        prof = linear_hubble_profile(CosmologyParams())
        assert scale_factor(prof, prof.t_now) == 1.0

    def test_matter_power_law(self):
        params = matter_only_params()
        prof = matter_profile(params)
        t = params.t_now_s
        ratio = scale_factor(prof, t / 2) / scale_factor(prof, t / 16)
        assert ratio == pytest.approx(8.0 ** (2.0 / 3.0), rel=1e-12)

    def test_vanishes_at_origin(self):
        params = CosmologyParams()
        prof = build_alpha_profile(params, 50e3 * YEAR_S, 10 * GYR_S)
        assert scale_factor(prof, 1e-12 * prof.t_now) < 1e-6
        assert prof.alpha(1e-12 * prof.t_now) > 10

    def test_out_of_range(self):
        prof = linear_hubble_profile(CosmologyParams())
        with pytest.raises(OutOfRange):
            scale_factor(prof, -1.0)
        with pytest.raises(OutOfRange):
            scale_factor(prof, 2 * prof.t_now)


class TestHubble:
    def test_linear_segment_gives_h0(self):
        params = CosmologyParams()
        prof = linear_hubble_profile(params)
        assert hubble(prof, 0.5 * prof.t_now) == params.h0_per_s

    def test_matter_era(self):
        params = matter_only_params()
        prof = matter_profile(params)
        for s in (0.1, 0.4, 0.9):
            s *= params.t_now_s
            assert hubble(prof, s) == pytest.approx(2.0 / (3.0 * s), rel=1e-14)

    def test_radiation_era(self):
        params = radiation_only_params()
        prof = radiation_profile(params)
        s = 0.3 * params.t_now_s
        assert hubble(prof, s) == pytest.approx(1.0 / (2.0 * s), rel=1e-14)

    def test_matches_finite_difference_of_alpha(self):
        params = CosmologyParams()
        prof = build_alpha_profile(params, 50e3 * YEAR_S, 10 * GYR_S)
        for s in (1e6 * YEAR_S, 5 * GYR_S, 12 * GYR_S):
            h = 1e-6 * s
            fd = -(prof.alpha(s + h) - prof.alpha(s - h)) / (2 * h)
            assert hubble(prof, s) == pytest.approx(fd, rel=1e-6)

    def test_boundary_sides(self):
        params = CosmologyParams()
        s_de = 10 * GYR_S
        prof = build_alpha_profile(params, 50e3 * YEAR_S, s_de)
        left, right = prof.slope_sides(s_de)
        assert prof.at_boundary(s_de)
        assert left == -2.0 / (3.0 * s_de)
        assert right == -vacuum_rate(params)


class TestRedshift:
    def test_equal_times(self):
        prof = linear_hubble_profile(CosmologyParams())
        assert redshift(prof, prof.t_now, prof.t_now) == 0.0

    def test_wavelength_factor_of_two(self):
        params = matter_only_params()
        prof = matter_profile(params)
        t = params.t_now_s
        s_emit = t / 2 ** 1.5  # alpha difference is ln 2
        assert prof.alpha_diff(s_emit, t) == pytest.approx(math.log(2), rel=1e-12)
        assert wavelength_at_reception(500e-9, prof, s_emit, t) == pytest.approx(
            1000e-9, rel=1e-12)

    def test_duality_with_scale_factors(self):
        params = CosmologyParams()
        prof = build_alpha_profile(params, 50e3 * YEAR_S, 10 * GYR_S)
        s_emit, s_recv = 2 * GYR_S, 13 * GYR_S
        z = redshift(prof, s_emit, s_recv)
        assert 1 + z == pytest.approx(
            scale_factor(prof, s_recv) / scale_factor(prof, s_emit), rel=1e-12)

    def test_linearization_within_half_percent_at_100myr(self):
        params = CosmologyParams()
        prof = linear_hubble_profile(params)
        h0 = params.h0_per_s
        dt = 100e6 * YEAR_S
        z = redshift(prof, prof.t_now - dt, prof.t_now)
        assert z == pytest.approx(7.16e-3, rel=5e-3)
        assert abs(z - h0 * dt) / z < 0.005

    def test_rate_of_change_near_h0(self):
        params = CosmologyParams()
        prof = linear_hubble_profile(params)
        t = prof.t_now
        delta = 1e6 * YEAR_S
        for dt_myr in (10.0, 50.0, 100.0):
            dt = dt_myr * 1e6 * YEAR_S
            dz_dt = (redshift(prof, t - dt - delta, t)
                     - redshift(prof, t - dt + delta, t)) / (2 * delta)
            assert abs(dz_dt - params.h0_per_s) / params.h0_per_s < 0.01

    def test_emission_after_reception_rejected(self):
        prof = linear_hubble_profile(CosmologyParams())
        with pytest.raises(OutOfRange):
            redshift(prof, prof.t_now, prof.t_now / 2)


class TestDensity:
    def test_critical_today(self):
        params = CosmologyParams()
        prof = build_alpha_profile(params, 50e3 * YEAR_S, 10 * GYR_S)
        assert density(prof, prof.t_now, params) == pytest.approx(
            critical_density(params), rel=1e-12)

    def test_critical_density_value(self):
        # arithmetic from the constants: 3 H0^2/(8 pi G) for H0 = 70
        assert critical_density(CosmologyParams()) == pytest.approx(9.2e-27, rel=5e-3)

    def test_critical_density_scalings(self):
        base = critical_density(CosmologyParams())
        assert critical_density(CosmologyParams(h0_kms_mpc=140.0)) == pytest.approx(
            4 * base, rel=1e-12)
        doubled_g = CosmologyParams(G=2 * CosmologyParams().G)
        assert critical_density(doubled_g) == pytest.approx(base / 2, rel=1e-12)

    def test_matter_scaling_with_halved_scale_factor(self):
        params = matter_only_params()
        prof = matter_profile(params)
        t = params.t_now_s
        s_half = t / 2 ** 1.5  # a = 1/2
        assert scale_factor(prof, s_half) == pytest.approx(0.5, rel=1e-12)
        assert density(prof, s_half, params) == pytest.approx(
            8 * critical_density(params), rel=1e-9)

    def test_radiation_scaling_with_halved_scale_factor(self):
        params = radiation_only_params()
        prof = radiation_profile(params)
        t = params.t_now_s
        s_half = t / 4  # a ~ s^(1/2)
        assert scale_factor(prof, s_half) == pytest.approx(0.5, rel=1e-12)
        assert density(prof, s_half, params) == pytest.approx(
            16 * critical_density(params), rel=1e-9)


class TestFriedmannResiduals:
    def test_matter_era_solves_both_equations(self):
        params = matter_only_params()
        prof = matter_profile(params)
        for frac in (0.01, 0.1, 0.5, 1.0):
            s = frac * params.t_now_s
            rho = density(prof, s, params)
            r1, r2, r3 = friedmann_residuals(prof, s, rho, 0.0, params)
            scale = prof.slope(s) ** 2
            assert abs(r1) <= 1e-9 * scale
            assert abs(r2) <= 1e-9 * scale

    def test_radiation_era_with_pressure(self):
        params = radiation_only_params()
        prof = radiation_profile(params)
        for frac in (0.01, 0.2, 1.0):
            s = frac * params.t_now_s
            rho = density(prof, s, params)
            p = rho * params.c ** 2 / 3.0
            r1, r2, _ = friedmann_residuals(prof, s, rho, p, params)
            scale = prof.slope(s) ** 2
            assert abs(r1) <= 1e-9 * scale
            assert abs(r2) <= 1e-9 * scale

    def test_vacuum_era_constant_rate(self):
        params = CosmologyParams(omega_m=0.0, omega_r=0.0, omega_v=1.0)
        prof = linear_hubble_profile(params)
        rho_v = critical_density(params)
        s = 0.5 * prof.t_now
        r1, r2, r3 = friedmann_residuals(prof, s, rho_v, -rho_v * params.c ** 2, params)
        assert r3 == 0.0
        assert abs(r1) <= 1e-12 * prof.slope(s) ** 2

    def test_r3_bitwise_lambda_invariant(self):
        params = CosmologyParams()
        with_lam = CosmologyParams(lam=1.1e-52)
        prof = matter_profile(matter_only_params())
        s = 0.5 * prof.t_now
        rho = 2e-27
        p = 1e-11
        r3_plain = friedmann_residuals(prof, s, rho, p, params)[2]
        r3_lam = friedmann_residuals(prof, s, rho, p, with_lam)[2]
        assert r3_plain == r3_lam
        assert friedmann_residuals(prof, s, rho, p, params)[0] != \
            friedmann_residuals(prof, s, rho, p, with_lam)[0]


class TestEraOde:
    """Independent route: integrate adot = H0 a^(1+d/2) and fit exponents."""

    def fit_power(self, dilution, power, h0_per_s):
        t_age = power / h0_per_s
        span = (1e-3 * t_age, t_age)
        a0 = (span[0] / t_age) ** power

        sol = solve_ivp(lambda s, a: h0_per_s * a[0] ** (1 + dilution / 2.0),
                        span, [a0], rtol=1e-10, atol=1e-300, dense_output=True)
        ss = np.geomspace(*span, 300)
        return np.polyfit(np.log(ss), np.log(sol.sol(ss)[0]), 1)[0]

    def test_matter_exponent(self):
        h0 = h0_convert(70.0)[1]
        assert abs(self.fit_power(-3.0, 2.0 / 3.0, h0) - 2.0 / 3.0) < 1e-3

    def test_radiation_exponent(self):
        h0 = h0_convert(70.0)[1]
        assert abs(self.fit_power(-4.0, 0.5, h0) - 0.5) < 1e-3

    def test_vacuum_rate(self):
        params = CosmologyParams(omega_m=0.0, omega_r=0.0, omega_v=1.0)
        rate = vacuum_rate(params)
        t_age = 1.0 / params.h0_per_s
        span = (1e-3 * t_age, t_age)
        sol = solve_ivp(lambda s, a: rate * a[0], span, [1e-3], rtol=1e-10,
                        atol=1e-300, dense_output=True)
        ss = np.linspace(*span, 300)
        fit = np.polyfit(ss, np.log(sol.sol(ss)[0]), 1)[0]
        assert abs(fit - rate) <= 1e-6 * rate
        assert rate == pytest.approx(params.h0_per_s, rel=1e-12)


class TestSegment:
    def test_anchor_identity(self):
        rate = vacuum_rate(CosmologyParams())
        for kind in ("matter", "radiation", "linear"):
            seg = Segment(1 * GYR_S, 12 * GYR_S, kind, s_ref=5 * GYR_S, alpha_ref=1.7,
                          rate=rate)
            assert seg.alpha(5 * GYR_S) == 1.7

    def test_matter_logarithm(self):
        a_ref = 0.9
        seg = Segment(1 * GYR_S, 12 * GYR_S, "matter", s_ref=1 * GYR_S, alpha_ref=a_ref)
        assert seg.alpha(8 * GYR_S) == pytest.approx(a_ref - 2 * math.log(2), rel=1e-12)


class TestBuildProfile:
    def test_default_profile_properties(self):
        params = CosmologyParams()
        prof = build_alpha_profile(params, 50e3 * YEAR_S, 10 * GYR_S)
        t = prof.t_now
        assert prof.alpha(t) == 0.0
        ss = np.geomspace(t * 1e-8, t, 400)
        alphas = [prof.alpha(float(s)) for s in ss]
        assert all(a1 >= a2 - 1e-15 for a1, a2 in zip(alphas, alphas[1:]))
        assert all(hubble(prof, float(s)) > 0 for s in ss)

    def test_onset_steepening(self):
        params = CosmologyParams()
        s_de = 10 * GYR_S
        prof = build_alpha_profile(params, 50e3 * YEAR_S, s_de)
        left, right = prof.slope_sides(s_de)
        assert right < left  # more negative after the onset

    def test_invalid_boundaries(self):
        params = CosmologyParams()
        with pytest.raises(InvalidBoundaries):
            build_alpha_profile(params, 10 * GYR_S, 50e3 * YEAR_S)
        with pytest.raises(InvalidBoundaries):
            build_alpha_profile(params, 50e3 * YEAR_S, 2 * params.t_now_s)

    def test_segment_continuity_validated(self):
        t = 100.0
        good = Segment(0.0, 50.0, "matter", s_ref=50.0, alpha_ref=1.0)
        bad = Segment(50.0, t, "linear", s_ref=t, alpha_ref=0.5, rate=1e-3)
        with pytest.raises(InvalidBoundaries):
            AlphaProfile([good, bad], t, require_normalized=False)

    def test_increasing_alpha_rejected(self):
        t = 100.0
        rising = Segment(0.0, t, "linear", s_ref=t, alpha_ref=0.0, rate=-1e-3)
        with pytest.raises(InvalidBoundaries):
            AlphaProfile([rising], t)


class TestProfileAsField:
    def test_field_view_matches_profile(self):
        params = CosmologyParams()
        prof = build_alpha_profile(params, 50e3 * YEAR_S, 10 * GYR_S)
        fld = prof.as_field()
        for s in (1e6 * YEAR_S, 5 * GYR_S, 13 * GYR_S):
            p = spacetime_point(s, 1.0, -2.0, 3.0)
            assert fld.alpha(p) == prof.alpha(s)
            g = fld.gradient(p)
            assert g[0] == prof.slope(s)
            assert np.all(g[1:] == 0.0)

    def test_field_view_in_bound_check(self):
        params = CosmologyParams()
        prof = linear_hubble_profile(params)
        fld = prof.as_field()
        t = prof.t_now
        region = (spacetime_point(t - 499.0, -1e9, -1e9, -1e9),
                  spacetime_point(t, 1e9, 1e9, 1e9))
        dev, ok = local_bound_check(fld, region, x_ref=spacetime_point(t))
        assert ok and dev < 1e-14


class TestBoundCheck:
    def test_constant_profile_region(self):
        params = CosmologyParams()
        prof = linear_hubble_profile(params)
        t = prof.t_now
        dev, ok = local_bound_check(prof, (t - AU_LIGHT_TIME_S, t))
        assert ok
        assert dev == pytest.approx(params.h0_per_s * AU_LIGHT_TIME_S, rel=0.15)
        assert dev < 1e-14

    def test_interior_reference_takes_the_larger_end(self):
        # region across the matter to dark-energy onset, reference inside it
        params = CosmologyParams()
        prof = build_alpha_profile(params, 50e3 * YEAR_S, 10 * GYR_S)
        lo, hi, ref = 9 * GYR_S, 13 * GYR_S, 10.5 * GYR_S
        dev, ok = local_bound_check(prof, (lo, hi), x_ref=ref, eps=1.0)
        ends = [abs(prof.alpha_diff(lo, ref)), abs(prof.alpha_diff(hi, ref))]
        assert dev == max(ends) and ok
        assert ends[0] != ends[1]
        sampled = max(abs(prof.alpha_diff(float(s), ref)) for s in np.linspace(lo, hi, 1001))
        assert sampled == dev

    def test_threshold_crossing(self):
        from valuefield.field import AnalyticField
        fld = AnalyticField(lambda p: 1e-9 * p[1], lambda p: np.array([0, 1e-9, 0, 0.0]))
        region = (spacetime_point(0, 0, 0, 0), spacetime_point(0, 1.0, 0, 0))
        dev, ok = local_bound_check(fld, region, x_ref=spacetime_point(0, 0, 0, 0),
                                    eps=1e-10)
        assert not ok
        assert dev == pytest.approx(1e-9, rel=1e-9)

    def test_constant_field(self):
        from valuefield.field import ConstantField
        region = (spacetime_point(0, -1, -1, -1), spacetime_point(1, 1, 1, 1))
        dev, ok = local_bound_check(ConstantField(5.0), region)
        assert dev == 0.0 and ok

    @pytest.mark.parametrize("alpha_fn", [
        lambda p: math.nan if p[1] > 0.5 else 0.0,
        lambda p: math.nan,
    ], ids=["nan-inside", "all-nan"])
    def test_nan_alpha_fails_the_check(self, alpha_fn):
        from valuefield.field import AnalyticField
        region = (spacetime_point(0, 0, 0, 0), spacetime_point(1, 1, 1, 1))
        dev, ok = local_bound_check(AnalyticField(alpha_fn), region)
        assert math.isnan(dev) and not ok


class TestCsvExports:
    def test_profile_export(self, tmp_path):
        params = CosmologyParams()
        prof = build_alpha_profile(params, 50e3 * YEAR_S, 10 * GYR_S)
        path = tmp_path / "profile.csv"
        prof.to_csv(path, params, n=64)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,alpha,a,H,rho"
        assert len(lines) == 65

    def test_redshift_table(self, tmp_path):
        params = CosmologyParams()
        prof = linear_hubble_profile(params)
        path = tmp_path / "z.csv"
        emits = [prof.t_now - 100e6 * YEAR_S, prof.t_now - 10e6 * YEAR_S]
        redshift_table_to_csv(prof, params, emits, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s_emit,z_exact,z_linear"
        assert len(lines) == 3
