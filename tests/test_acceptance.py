"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from valuefield import cosmology as cos
from valuefield import field as vfield
from valuefield import geometry as geo
from valuefield import quantum as qm
from valuefield import scaled_numbers as sn
from valuefield.constants import AU_LIGHT_TIME_S, C_M_PER_S, YEAR_S
from valuefield.field import AnalyticField, ConstantField, spacetime_point


def _report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def _round_sig(x: float, digits: int) -> float:
    if x == 0:
        return 0.0
    exp = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - exp)


def test_01_h0_conversion():
    per_yr, per_s = cos.h0_convert(70.0)
    ok = (_round_sig(per_yr, 3) == 7.16e-11
          and _round_sig(per_s, 3) == 2.27e-18
          and _round_sig(per_s, 2) == 2.3e-18)
    _report("1 h0-conversion", ok,
            f"per_year={per_yr:.4e}, per_second={per_s:.4e}")


def test_02_era_exponents():
    h0 = cos.h0_convert(70.0)[1]
    results = []
    for dilution, power in ((-3.0, 2.0 / 3.0), (-4.0, 0.5)):
        t_age = power / h0
        span = (1e-3 * t_age, t_age)
        a0 = (span[0] / t_age) ** power
        sol = solve_ivp(lambda s, a: h0 * a[0] ** (1 + dilution / 2.0), span, [a0],
                        rtol=1e-10, atol=1e-300, dense_output=True)
        ss = np.geomspace(*span, 300)
        slope = np.polyfit(np.log(ss), np.log(sol.sol(ss)[0]), 1)[0]
        results.append((slope, power, abs(slope - power) < 1e-3))

    params = cos.CosmologyParams(omega_m=0.0, omega_r=0.0, omega_v=1.0)
    rate = cos.vacuum_rate(params)
    t_age = 1.0 / h0
    span = (1e-3 * t_age, t_age)
    sol = solve_ivp(lambda s, a: rate * a[0], span, [1e-3], rtol=1e-10,
                    atol=1e-300, dense_output=True)
    ss = np.linspace(*span, 300)
    fit = np.polyfit(ss, np.log(sol.sol(ss)[0]), 1)[0]
    vac_ok = abs(fit - rate) <= 1e-6 * rate
    ok = all(r[2] for r in results) and vac_ok
    _report("2 era-exponents", ok,
            f"matter={results[0][0]:.6f}, radiation={results[1][0]:.6f}, "
            f"vacuum rel err={abs(fit - rate) / rate:.2e}")


def test_03_redshift_linearization():
    params = cos.CosmologyParams()
    prof = cos.linear_hubble_profile(params)
    t, h0 = prof.t_now, params.h0_per_s
    worst = 0.0
    for myr in (1.0, 10.0, 50.0, 100.0):
        dt = myr * 1e6 * YEAR_S
        z = cos.redshift(prof, t - dt, t)
        worst = max(worst, abs(z - h0 * dt) / z)
    delta = 1e6 * YEAR_S
    dt = 50e6 * YEAR_S
    dz_dt = (cos.redshift(prof, t - dt - delta, t)
             - cos.redshift(prof, t - dt + delta, t)) / (2 * delta)
    rate_err = abs(dz_dt - h0) / h0
    ok = worst < 0.01 and rate_err < 0.01
    _report("3 redshift-linearization", ok,
            f"max |z-H0*dt|/z={worst:.4f}, dz/dt rel err={rate_err:.4f}")


def test_04_connection_algebra():
    rng = random.Random(20240901)
    bad = 0
    for _ in range(1000):
        nonzero = [i for i in range(-60, 61) if i]
        s = F(rng.randint(1, 60), rng.randint(1, 40))
        t = F(rng.randint(1, 60), rng.randint(1, 40))
        u = F(rng.randint(1, 60), rng.randint(1, 40))
        a = F(rng.choice(nonzero), rng.randint(1, 40))
        b = F(rng.choice(nonzero), rng.randint(1, 40))

        x = sn.ScaledNumber(a, t)
        if sn.connect_value(s, t, x).raw != x.raw:
            bad += 1
        if sn.connect_value(u, s, sn.connect_value(s, t, x)) != sn.connect_value(u, t, x):
            bad += 1
        if sn.connect_value(s, t, sn.ScaledNumber(F(0), t)).value != 0:
            bad += 1
        _, _, ratio = sn.commutation_table(s, t, "mul", a, b)
        if ratio != t / s:
            bad += 1
        _, _, dratio = sn.commutation_table(s, t, "div", a, b)
        if dratio != s / t:
            bad += 1
        if a + b != 0:
            tr, combo, _ = sn.commutation_table(s, t, "add", a, b)
            if combo != tr:
                bad += 1
    _report("4 connection-algebra", bad == 0, f"violations={bad} over 1000 cases")


def test_05_valuation_homomorphism():
    bad = 0
    checked = 0
    for n in range(1, 101):
        top = 10_000 // n
        qs = sorted(set(list(range(0, min(top, 12))) + [top // 3, top // 2, top]))
        for q1 in qs:
            for q2 in qs:
                m1, m2 = q1 * n, q2 * n
                v1 = sn.valuation_natural(sn.NaturalStructure(n), m1)
                v2 = sn.valuation_natural(sn.NaturalStructure(n), m2)
                prod = sn.natural_op(sn.NaturalStructure(n), "mul", m1, m2)
                added = sn.natural_op(sn.NaturalStructure(n), "add", m1, m2)
                if sn.valuation_natural(sn.NaturalStructure(n), prod) != v1 * v2:
                    bad += 1
                if sn.valuation_natural(sn.NaturalStructure(n), added) != v1 + v2:
                    bad += 1
                checked += 1
    _report("5 valuation-homomorphism", bad == 0,
            f"violations={bad} over {checked} pairs, n up to 100")


def test_06_geodesic_flatness():
    c = 299792458.0
    beta = 0.3
    gamma = 1.0 / math.sqrt(1 - beta ** 2)
    init = geo.GeodesicState(spacetime_point(),
                             np.array([gamma * c, gamma * beta * c, 0.0, 0.0]))
    span = 1e-4
    cfg = geo.IntegratorConfig(step=span / 10_000, span=span)
    traj = geo.integrate_geodesic(ConstantField(0.4), init, cfg, c)
    straight = init.p[1] + init.u[1] * traj.tau
    rel_dev = float(np.max(np.abs(traj.p[:, 1] - straight))) / abs(init.u[1] * span)

    st = geo.GeodesicState(spacetime_point(0, 0.3, 0, 0),
                           np.array([1.1 * c, 0.2 * c, 0.05 * c, 0.0]))
    k = 1e-12
    f1 = AnalyticField(lambda p: k * p[1], lambda p: np.array([0.0, k, 0.0, 0.0]))
    f2 = AnalyticField(lambda p: 2 * k * p[1], lambda p: np.array([0.0, 2 * k, 0.0, 0.0]))
    r1 = geo.geodesic_rhs(f1, st, c)
    r2 = geo.geodesic_rhs(f2, st, c)
    linear_exact = bool(np.all(r2 == 2 * r1))
    ok = rel_dev <= 1e-9 and len(traj.tau) == 10_001 and linear_exact
    _report("6 geodesic-flatness", ok,
            f"rel dev={rel_dev:.2e} over 10^4 steps, rhs linearity exact={linear_exact}")


def test_07_mass_independence():
    c = 2.0
    fld = AnalyticField(lambda p: 1e-4 * p[1], lambda p: np.array([0.0, 1e-4, 0.0, 0.0]))
    dpds = np.array([c, 0.5, 0.0, 0.0])
    gamma = 1.25
    m1 = geo.ParticleSpec(1.0, c)
    m2 = geo.ParticleSpec(2.0, c)
    e1 = gamma * m1.rest_energy
    e2 = gamma * m2.rest_energy
    dg1 = geo.energy_rate(fld, spacetime_point(), dpds, e1, m1) / m1.rest_energy
    dg2 = geo.energy_rate(fld, spacetime_point(), dpds, e2, m2) / m2.rest_energy
    _report("7 mass-independence", dg1 == dg2,
            f"dgamma/ds={float(dg1)!r} for m and 2m (bitwise equal={dg1 == dg2})")


def test_08_quantum_norm_law():
    n = 1024
    y = np.linspace(-40.0, 40.0, n, endpoint=False)
    psi0 = qm.gaussian_packet(y, sigma=1.0)
    ham = qm.HamiltonianSpec("spectral")

    out0 = qm.evolve(psi0, ham, qm.TimeScaling.constant(0.0), dt=1e-3, n_steps=1000)
    unitary_drift = abs(out0.norm_sq() - 1.0)

    a0 = 0.25
    out = qm.evolve(psi0, ham, qm.TimeScaling.constant(a0), dt=1e-3, n_steps=1000)
    law_drift = abs(out.norm_sq() * math.exp(2 * a0 * out.t) - 1.0)

    ok = unitary_drift <= 1e-10 and law_drift <= 1e-8
    _report("8 quantum-norm-law", ok,
            f"unitarity drift={unitary_drift:.2e}, damping-law drift={law_drift:.2e}")


def test_09_scaled_integral_and_kernel():
    k, y0, sigma = 0.7, 0.3, 0.5
    fld = AnalyticField(lambda p: k * p[1], lambda p: np.array([0.0, k, 0.0, 0.0]))

    def gauss(yv):
        return math.exp(-((yv - y0) ** 2) / (2 * sigma ** 2)) / (
            sigma * math.sqrt(2 * math.pi))

    exact = math.exp(k * y0 + (k * sigma) ** 2 / 2)
    got = vfield.scaled_integral(gauss, fld, spacetime_point(),
                                 y0 - 12 * sigma, y0 + 12 * sigma, n=2 ** 14)
    int_err = abs(got - exact) / exact

    kernel_dev = max(
        abs(vfield.covariant_derivative(lambda p: math.exp(-k * p[1]), fld,
                                        spacetime_point(0.0, yv), 1))
        for yv in np.linspace(-1.0, 1.0, 21)
    )
    ok = int_err <= 1e-8 and kernel_dev <= 1e-8
    _report("9 scaled-integral", ok,
            f"integral rel err={int_err:.2e}, kernel identity max={kernel_dev:.2e}")


def test_10_friedmann_residuals():
    h0 = cos.h0_convert(70.0)[1]
    worst = 0.0

    params_m = cos.CosmologyParams(omega_m=1.0, omega_r=0.0, omega_v=0.0,
                                   t_now_yr=(2.0 / (3.0 * h0)) / YEAR_S)
    t_m = params_m.t_now_s
    prof_m = cos.AlphaProfile(
        [cos.Segment(0.0, t_m, "matter", s_ref=t_m, alpha_ref=0.0)], t_m)
    for frac in (0.01, 0.1, 0.5, 1.0):
        s = frac * t_m
        rho = cos.density(prof_m, s, params_m)
        r1, r2, _ = cos.friedmann_residuals(prof_m, s, rho, 0.0, params_m)
        scale = prof_m.slope(s) ** 2
        worst = max(worst, abs(r1) / scale, abs(r2) / scale)

    params_r = cos.CosmologyParams(omega_m=0.0, omega_r=1.0, omega_v=0.0,
                                   t_now_yr=(1.0 / (2.0 * h0)) / YEAR_S)
    t_r = params_r.t_now_s
    prof_r = cos.AlphaProfile(
        [cos.Segment(0.0, t_r, "radiation", s_ref=t_r, alpha_ref=0.0)], t_r)
    for frac in (0.01, 0.1, 0.5, 1.0):
        s = frac * t_r
        rho = cos.density(prof_r, s, params_r)
        p = rho * C_M_PER_S ** 2 / 3.0
        r1, r2, _ = cos.friedmann_residuals(prof_r, s, rho, p, params_r)
        scale = prof_r.slope(s) ** 2
        worst = max(worst, abs(r1) / scale, abs(r2) / scale)

    plain = cos.CosmologyParams()
    lam = cos.CosmologyParams(lam=1.1e-52)
    s = 0.4 * t_m
    rho = cos.density(prof_m, s, params_m)
    r3_plain = cos.friedmann_residuals(prof_m, s, rho, 1e-11, plain)[2]
    r3_lam = cos.friedmann_residuals(prof_m, s, rho, 1e-11, lam)[2]
    bitwise = r3_plain == r3_lam

    ok = worst <= 1e-9 and bitwise
    _report("10 friedmann-residuals", ok,
            f"max rel residual={worst:.2e}, r3 lambda-invariant bitwise={bitwise}")


def test_11_bound_check():
    params = cos.CosmologyParams()
    prof = cos.linear_hubble_profile(params)
    t = prof.t_now
    dev, passed = cos.local_bound_check(prof, (t - AU_LIGHT_TIME_S, t), eps=1e-10)
    ok = passed and dev < 1e-10
    _report("11 bound-check", ok,
            f"max |alpha deviation|={dev:.2e} over 1 AU light time vs 1e-10")
