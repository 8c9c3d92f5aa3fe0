"""Named experiment scenarios executed by the CLI.

``run_scenario`` hands each scenario a RunReport, in which it records a
deterministic set of checks and the CSV artifacts it writes into the output
directory. A check row records the measured value next to its expected value
and tolerance so the report is self-contained.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from . import cosmology as cos
from . import field as vfield
from . import geometry as geo
from . import quantum as qm
from . import scaled_numbers as sn
from ._csv import _END, write_csv
from .constants import C_M_PER_S, CONSTANTS_TABLE, GYR_S, YEAR_S
from .errors import ConfigInvalid, InvalidBoundaries


@dataclass
class Check:
    name: str
    expected: float
    measured: float
    tolerance: float
    passed: bool


@dataclass
class RunReport:
    scenario: str
    out_dir: Path
    wall_time_s: float = 0.0
    checks: list[Check] = dc_field(default_factory=list)
    artifacts: list[str] = dc_field(default_factory=list)

    def add(self, name: str, expected, measured, tolerance) -> Check:
        """Record a check that passes iff |measured - expected| <= tolerance."""
        ok = abs(measured - expected) <= tolerance
        chk = Check(name, float(expected), float(measured), float(tolerance), ok)
        self.checks.append(chk)
        return chk

    def add_bound(self, name: str, measured, bound) -> Check:
        """Record a check that passes iff measured <= bound."""
        chk = Check(name, float(bound), float(measured), float(bound),
                    measured <= bound)
        self.checks.append(chk)
        return chk

    def artifact(self, name: str) -> Path:
        """The path of artifact ``name`` in the output directory, now listed."""
        path = self.out_dir / name
        self.artifacts.append(str(path))
        return path

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            for name, value in CONSTANTS_TABLE:
                fh.write(f"# {name},{value!r}{_END}")
            write_csv(fh, ["name", "expected", "measured", "tolerance", "pass"],
                      ((c.name, c.expected, c.measured, c.tolerance, c.passed)
                       for c in self.checks))


# -- parameter tables ---------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One scenario parameter: value type, default as config text, range
    check and the diagnostic given when the check fails."""

    type: type
    default: str
    check: Callable[[float], bool] = lambda v: True
    message: str = ""


_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_EVEN_COUNT = (lambda v: v > 0 and v % 2 == 0, "must be a positive even count")


@dataclass(frozen=True)
class Scenario:
    """run(p, report), the parameter table and the rule that checks the
    parameters together once each one passes the table."""

    run: Callable[[dict, RunReport], None]
    params: dict[str, Param]
    consistency: Callable[[dict], list[str]] | None = None


SCENARIOS: dict[str, Scenario] = {}


def _scenario(name: str, params: dict[str, Param], consistency=None):
    """Register the decorated function as the run of scenario ``name``."""
    def register(run):
        SCENARIOS[name] = Scenario(run, params, consistency)
        return run
    return register


def parse_params(name: str, raw: dict[str, str]) -> tuple[dict, list[str]]:
    """Typed parameters of scenario ``name`` from config text, with defaults
    filled in, and one ``name.key: ...`` diagnostic per problem. Unknown keys,
    non-finite numbers and ints past the float range are problems; none means valid."""
    scenario = SCENARIOS[name]
    diags = [f"{name}.{key}: unknown key" for key in raw if key not in scenario.params]
    values = {}
    for key, param in scenario.params.items():
        text = raw.get(key, param.default)
        try:
            value = param.type(text)
            finite = math.isfinite(value)
        except ValueError:
            diags.append(f"{name}.{key}: cannot parse {text!r} as {param.type.__name__}")
            continue
        except OverflowError:  # an int that no float can hold, so no check can compare
            diags.append(f"{name}.{key}: outside the float range, got {text!r}")
            continue
        if not finite:
            diags.append(f"{name}.{key}: must be finite, got {text!r}")
        elif not param.check(value):
            diags.append(f"{name}.{key}: {param.message}")
        values[key] = value
    if not diags and scenario.consistency:
        diags = scenario.consistency(values)
    return values, diags


# -- arithmetic-check -------------------------------------------------------


def _nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        f = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        if f != 0:
            return f


def _positive_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 50), rng.randint(1, 40))


@_scenario("arithmetic-check", {
    "seed": Param(int, "0"),
    "cases": Param(int, "1000", *_POSITIVE),
})
def scenario_arithmetic_check(p: dict, report: RunReport) -> None:
    """Exact identities of the scaled-number layer over a seeded random sweep."""
    rng = random.Random(p["seed"])

    rows = []
    failures = {"raw": 0, "compose": 0, "zero": 0, "mul": 0, "div": 0, "add": 0}
    for _ in range(p["cases"]):
        s, t, u = (_positive_fraction(rng) for _ in range(3))
        a = _nonzero_fraction(rng)
        b = _nonzero_fraction(rng)

        x = sn.ScaledNumber(a, t)
        moved = sn.connect_value(s, t, x)
        if moved.raw != x.raw:
            failures["raw"] += 1
        twice = sn.connect_value(u, s, moved)
        if twice != sn.connect_value(u, t, x):
            failures["compose"] += 1
        if sn.connect_value(s, t, sn.ScaledNumber(Fraction(0), t)).value != 0:
            failures["zero"] += 1

        tr, combo, _ = sn.commutation_table(s, t, "mul", a, b)
        if combo * s != tr * t:
            failures["mul"] += 1
        rows.append((s, t, a, b, "mul", tr))
        tr, combo, _ = sn.commutation_table(s, t, "div", a, b)
        if combo * t != tr * s:
            failures["div"] += 1
        rows.append((s, t, a, b, "div", tr))
        if a + b != 0:  # ratio is undefined when the combined value is 0
            tr, combo, _ = sn.commutation_table(s, t, "add", a, b)
            if combo != tr:
                failures["add"] += 1

    for name, count in failures.items():
        report.add(f"exact_{name}_failures", 0, count, 0)

    write_csv(report.artifact("arithmetic_golden.csv"),
              ["s", "t", "a", "b", "op", "expected"], rows)


# -- field-calculus ---------------------------------------------------------


def _field_calculus_consistency(p: dict) -> list[str]:
    """e^{k y} must stay finite on y0 +- 12 sigma, between the identity checks'
    points in [-1, 1] (up to e^{2|k|}) and in the closed form of the integral.
    The first test runs first: passing it keeps (k*sigma)**2 finite."""
    k, y0, sigma, top = p["k"], p["y0"], p["sigma"], math.log(sys.float_info.max)
    if (abs(k) * max(abs(y0) + 12 * sigma, 2.0) <= top
            and k * y0 + 0.5 * (k * sigma) ** 2 <= top):
        return []
    return [f"field-calculus.k: e^(k*y) overflows; needs |k|*max(|y0| + 12*sigma, 2) "
            f"and k*y0 + (k*sigma)^2/2 <= {top:.6g}"]


@_scenario("field-calculus", {
    "k": Param(float, "0.7"),
    "y0": Param(float, "0.3"),
    "sigma": Param(float, "0.5", *_POSITIVE),
    "n": Param(int, "16384", *_EVEN_COUNT),
}, _field_calculus_consistency)
def scenario_field_calculus(p: dict, report: RunReport) -> None:
    """Transport-weighted quadrature and the covariant-derivative identity."""
    k, y0, sigma = p["k"], p["y0"], p["sigma"]

    fld = vfield.AnalyticField(lambda p: k * p[1],
                               lambda p: np.array([0.0, k, 0.0, 0.0]))
    x_ref = vfield.spacetime_point(0.0, 0.0, 0.0, 0.0)

    def gauss(yv):
        return math.exp(-((yv - y0) ** 2) / (2 * sigma ** 2)) / (
            sigma * math.sqrt(2 * math.pi))

    exact = math.exp(k * y0 + 0.5 * (k * sigma) ** 2)
    lo, hi = y0 - 12 * sigma, y0 + 12 * sigma
    got = vfield.scaled_integral(gauss, fld, x_ref, lo, hi, n=p["n"])
    report.add_bound("gaussian_weight_integral_rel_err",
                     abs(got - exact) / exact, 1e-8)

    conv_rows = []
    for nn in (16, 32, 64, 128, 256):
        v = vfield.scaled_integral(gauss, fld, x_ref, lo, hi, n=nn)
        conv_rows.append((nn, abs(v - exact) / exact))
    write_csv(report.artifact("quadrature_convergence.csv"),
              ["n_panels", "rel_error"], conv_rows)

    def inv_weight(p):
        return math.exp(-k * p[1])

    dev = max(
        abs(vfield.covariant_derivative(inv_weight, fld,
                                        vfield.spacetime_point(0.0, yv), 1))
        for yv in np.linspace(-1.0, 1.0, 9)
    )
    report.add_bound("covariant_derivative_kernel_identity", dev, 1e-8)

    x = vfield.spacetime_point(0.0, -0.4)
    ymid = vfield.spacetime_point(0.0, 0.2)
    z = vfield.spacetime_point(0.0, 0.9)
    tf = vfield.transport_factor
    chained = (5.0 * tf(fld, ymid, z)) * tf(fld, x, ymid)
    direct = 5.0 * tf(fld, x, z)
    report.add_bound("transport_chain_rel_err",
                     abs(chained - direct) / abs(direct), 1e-13)


# -- geodesic ---------------------------------------------------------------


def _lorentz_factor(beta: float) -> float:
    return 1.0 / math.sqrt(1.0 - beta ** 2)


def _geodesic_consistency(p: dict) -> list[str]:
    """The integrator's drift monitor squares u^0 = gamma c as a Python float;
    its step span_tau / steps must not underflow to 0."""
    u0, top = _lorentz_factor(p["beta"]) * p["c"], math.sqrt(sys.float_info.max)
    diags = [] if u0 <= top else [
        f"geodesic.c: u0^2 overflows; needs c / sqrt(1 - beta^2) <= {top!r}, got {u0!r}"]
    if p["span_tau"] / p["steps"] == 0.0:
        diags.append(f"geodesic.span_tau: span_tau / steps underflows to 0, got {p['span_tau']!r}")
    return diags


@_scenario("geodesic", {
    "c": Param(float, "299792458.0", *_POSITIVE),
    "steps": Param(int, "10000", *_POSITIVE),
    "beta": Param(float, "0.3", lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    "span_tau": Param(float, "1e-4", *_POSITIVE),
    "mass": Param(float, "1.0", *_POSITIVE),
}, _geodesic_consistency)
def scenario_geodesic(p: dict, report: RunReport) -> None:
    """Straight-line limit at constant alpha and linearity of the rhs in A."""
    c, beta, span = p["c"], p["beta"], p["span_tau"]

    gamma = _lorentz_factor(beta)
    init = geo.GeodesicState(
        vfield.spacetime_point(0.0, 0.0, 0.0, 0.0),
        np.array([gamma * c, gamma * beta * c, 0.0, 0.0]),
    )
    cfg_int = geo.IntegratorConfig(step=span / p["steps"], span=span)
    fld = vfield.ConstantField(0.4)  # any constant: a zero gradient, a monitor factor 1
    traj = geo.integrate_geodesic(fld, init, cfg_int, c)
    straight = init.p[1] + init.u[1] * traj.tau
    dev = float(np.max(np.abs(traj.p[:, 1] - straight)))
    # relative to the distance travelled, or to c times the time elapsed at rest
    scale = abs(init.u[1] * span) or init.u[0] * span
    report.add_bound("straight_line_rel_dev", dev / scale, 1e-9)

    particle = geo.ParticleSpec(p["mass"], c)
    gam = traj.u[:, 0] / particle.c
    write_csv(report.artifact("geodesic_trajectory.csv"),
              ["tau", "t", "x", "y", "z", "u0", "u1", "u2", "u3", "gamma", "E"],
              np.column_stack([traj.tau, traj.p, traj.u, gam,
                               gam * particle.rest_energy]))

    k = 1e-12
    f1 = vfield.AnalyticField(lambda p: k * p[1],
                              lambda p: np.array([0.0, k, 0.0, 0.0]))
    f2 = vfield.AnalyticField(lambda p: 2 * k * p[1],
                              lambda p: np.array([0.0, 2 * k, 0.0, 0.0]))
    r1 = geo.geodesic_rhs(f1, init, c)
    r2 = geo.geodesic_rhs(f2, init, c)
    lin_err = float(np.max(np.abs(r2 - 2 * r1)))
    scale = float(np.max(np.abs(r1)))
    # an rhs that underflowed to 0 (a tiny c, say) shows no linearity: the row fails
    report.add_bound("rhs_linearity_in_gradient", lin_err / scale if scale else math.inf,
                     1e-12)


# -- schrodinger ------------------------------------------------------------


def _schrodinger_consistency(p: dict) -> list[str]:
    """The spreading row squares half the free packet's time, steps * dt / 2,
    as a Python float; the square must not overflow.

    The damped norm is e^(-2 a0 t). Summed over the n grid points, |psi|^2 is
    that norm times n/80, and the damping-law row computes e^(2 a0 t): both
    stay finite while 2 |a0| steps dt + ln(n) <= ln(max float), a margin of
    ln 80 on the sum. The first rule that fails is the one reported."""
    steps, dt, a0 = p["steps"], p["dt"], p["a0"]
    half, top = steps * dt / 2, math.sqrt(sys.float_info.max)
    if not half * half < math.inf:
        return [f"schrodinger.dt: the packet variance 1 + (steps*dt/2)^2 overflows; "
                f"needs steps*dt/2 <= {top:.6g}, got dt = {dt!r} at steps = {steps}"]
    top = math.log(sys.float_info.max) - math.log(p["n"])
    if 2 * abs(a0) * steps * dt <= top:
        return []
    return [f"schrodinger.a0: the damped norm e^(-2*a0*steps*dt) leaves the float range; "
            f"needs 2*|a0|*steps*dt <= ln(max float / n) = {top:.6g}, "
            f"got a0 = {a0!r} at steps*dt = {steps * dt!r}"]


@_scenario("schrodinger", {
    "n": Param(int, "1024", *_EVEN_COUNT),
    "steps": Param(int, "1000", *_POSITIVE),
    "dt": Param(float, "1e-3", *_POSITIVE),
    "a0": Param(float, "0.25"),
}, _schrodinger_consistency)
def scenario_schrodinger(p: dict, report: RunReport) -> None:
    """Damped-unitary evolution: norm law with constant A, unitarity at A = 0."""
    steps, dt, a0 = p["steps"], p["dt"], p["a0"]

    y = np.linspace(-40.0, 40.0, p["n"], endpoint=False)
    psi0 = qm.gaussian_packet(y, y0=0.0, sigma=1.0)
    ham = qm.HamiltonianSpec("spectral")

    psi = qm.evolve(psi0, ham, qm.TimeScaling.constant(0.0), dt, steps)
    report.add_bound("unitarity_norm_drift", abs(psi.norm_sq() - 1.0), 1e-10)
    # the norm checks hold on any grid; the free packet's width sees the
    # resolution: Var(y) = sigma0^2 + (t / (2 sigma0))^2 with sigma0 = 1 (hbar = m = 1)
    rho = psi.probability_density()
    rho = rho / np.sum(rho)
    var = np.sum(rho * (y - np.sum(rho * y)) ** 2)
    spread = 1.0 + (steps * dt / 2) ** 2
    report.add_bound("free_spreading_variance_rel_err", abs(var / spread - 1.0), 1e-6)

    # the transport weight e^{alpha} of <y>: under alpha = k y the unit-variance
    # centred packet has <y> = k e^{k^2/2}, here on a grid of its own, as the
    # spreading row is the one that tests the configured resolution
    k = 0.3
    x_ref = vfield.spacetime_point(0.0, 0.0, 0.0, 0.0)
    packet = qm.gaussian_packet(np.linspace(-40.0, 40.0, 1024, endpoint=False))
    report.add("position_expectation_alpha_ky", k * math.exp(k * k / 2),
               qm.position_expectation(packet, vfield.AnalyticField(lambda q: k * q[1]),
                                       x_ref), 1e-12)

    rows = []
    fld0 = vfield.ConstantField(0.0)

    def record(i, state):
        rows.append((state.t, state.norm_sq(),
                     qm.position_expectation(state.normalized(), fld0, x_ref)))

    psi = qm.evolve(psi0, ham, qm.TimeScaling.constant(a0), dt, steps, observer=record,
                    every=max(1, steps // 50))
    conserved = psi.norm_sq() * math.exp(2 * a0 * psi.t)
    report.add_bound("damping_law_drift", abs(conserved - 1.0), 1e-8)

    write_csv(report.artifact("schrodinger_snapshot.csv"),
              ["t", "y", "re_psi", "im_psi", "prob_density"],
              np.column_stack([np.full(psi.y.size, psi.t), psi.y, psi.psi.real,
                               psi.psi.imag, psi.probability_density()]))
    write_csv(report.artifact("schrodinger_summary.csv"),
              ["t", "norm_sq", "position_expectation"], rows)


# -- cosmology ----------------------------------------------------------------


# era, (omega_m, omega_r, omega_v), equation of state w = p / (rho c^2), and the
# age of a universe holding only that era's content, in units of 1/H0
_ERAS = (
    ("matter", (1.0, 0.0, 0.0), 0.0, 2.0 / 3.0),
    ("radiation", (0.0, 1.0, 0.0), 1.0 / 3.0, 0.5),
    ("vacuum", (0.0, 0.0, 1.0), -1.0, 1.0),
)


def _era_seconds(p: dict) -> tuple[float, float, float]:
    """s_rm, s_de and t_now in seconds, rounded as the profile is built from them."""
    return p["s_rm_kyr"] * 1e3 * YEAR_S, p["s_de_gyr"] * GYR_S, p["t_now_gyr"] * 1e9 * YEAR_S


def _cosmology_model(p: dict) -> tuple[cos.CosmologyParams, cos.AlphaProfile]:
    """The configured parameters and the stitched radiation-matter-vacuum profile."""
    params = cos.CosmologyParams(
        h0_kms_mpc=p["h0_kms_mpc"], omega_m=p["omega_m"], omega_r=p["omega_r"],
        omega_v=p["omega_v"], t_now_yr=p["t_now_gyr"] * 1e9)
    s_rm, s_de, _ = _era_seconds(p)
    return params, cos.build_alpha_profile(params, s_rm, s_de)


def _profile_csv_start(profile: cos.AlphaProfile) -> float:
    """First time of alpha_profile.csv: t_now * 1e-8, kept above the profile's start."""
    return max(profile.segments[0].s_lo * (1 + 1e-9), profile.t_now * 1e-8)


def _cosmology_consistency(p: dict) -> list[str]:
    """Flatness, era ordering, era rows' ages that square to a float and finite
    densities in alpha_profile.csv, whose first row has the largest
    e^{4 (alpha(s) - alpha(t_now))} in density()."""
    diags = []
    total = p["omega_m"] + p["omega_r"] + p["omega_v"]
    if not abs(total - 1.0) <= cos._FLATNESS_TOL:  # NaN fails too
        diags.append(f"cosmology.omega_m+omega_r+omega_v: flatness violated, "
                     f"sum = {total!r} (needs 1)")
    s_rm, s_de, t_now = _era_seconds(p)  # ordered in seconds, as build_alpha_profile needs
    if s_rm >= s_de:
        diags.append("cosmology.s_rm_kyr: must precede s_de_gyr")
    elif s_rm / s_de == 0.0:  # the matter segment's log(s_rm / s_de) has no value
        diags.append(f"cosmology.s_rm_kyr: s_rm / s_de underflows to 0, got {p['s_rm_kyr']!r}")
    if s_de >= t_now:
        diags.append("cosmology.s_de_gyr: must precede t_now_gyr")
    per_s = cos.h0_convert(p["h0_kms_mpc"])[1]  # the era rows' slope rates square each age
    ages = [age / per_s if per_s else math.inf for kind, _, _, age in _ERAS if kind != "vacuum"]
    if not all(t * t < math.inf for t in ages):
        diags.append(f"cosmology.h0_kms_mpc: an era age 2 / (3 H0) or 1 / (2 H0) overflows "
                     f"when squared, got {p['h0_kms_mpc']!r}")
    if diags:
        return diags
    exponent, top = math.inf, math.log(sys.float_info.max)
    if t_now < math.inf:
        try:
            _, profile = _cosmology_model(p)
        except (InvalidBoundaries, OverflowError) as exc:  # a rate too large to stitch
            return [f"cosmology.h0_kms_mpc: no alpha profile: {type(exc).__name__}: {exc}"]
        exponent = 4.0 * profile.alpha_diff(_profile_csv_start(profile), profile.t_now)
    if not exponent <= top:  # NaN fails too
        diags.append(f"cosmology.t_now_gyr: alpha_profile.csv densities overflow; "
                     f"needs 4*(alpha(first row) - alpha(t_now)) <= {top:.6g}, "
                     f"got {exponent:.6g}")
    return diags


@_scenario("cosmology", {
    "h0_kms_mpc": Param(float, "70", *_POSITIVE),
    "omega_m": Param(float, "0.3", *_NONNEGATIVE),
    "omega_r": Param(float, "0", *_NONNEGATIVE),
    "omega_v": Param(float, "0.7", *_NONNEGATIVE),
    "t_now_gyr": Param(float, "13.8", *_POSITIVE),
    "s_rm_kyr": Param(float, "50", *_POSITIVE),
    "s_de_gyr": Param(float, "10"),
}, _cosmology_consistency)
def scenario_cosmology(p: dict, report: RunReport) -> None:
    """Rate conversion, era Friedmann residuals, redshift linearization,
    dark-energy onset."""
    params, profile = _cosmology_model(p)

    # published rates at H0 = 70 km/s/Mpc, scaled to the configured H0
    per_yr, per_s = cos.h0_convert(params.h0_kms_mpc)
    scale = params.h0_kms_mpc / 70.0
    report.add("h0_per_year", 7.16e-11 * scale, per_yr, 0.005e-11 * scale)
    report.add("h0_per_second", 2.3e-18 * scale, per_s, 0.05e-18 * scale)

    # each era's single-segment profile against both Friedmann equations: r2
    # fixes the exponent, r1 the age or the vacuum rate
    for kind, (om, orad, ov), w, age in _ERAS:
        era = cos.CosmologyParams(h0_kms_mpc=params.h0_kms_mpc,
                                  omega_m=om, omega_r=orad, omega_v=ov)
        t = age / per_s
        seg = (cos.Segment(0.0, t, "linear", s_ref=t, rate=cos.vacuum_rate(era))
               if kind == "vacuum" else cos.Segment(0.0, t, kind, s_ref=t))
        prof = cos.AlphaProfile([seg], t)
        rel = []
        for s in (0.01 * t, 0.1 * t, 0.5 * t, t):
            rho = cos.density(prof, s, era)
            r1, r2, _ = cos.friedmann_residuals(prof, s, rho, w * rho * C_M_PER_S ** 2, era)
            a2 = prof.slope(s) ** 2
            rel += [abs(r1) / a2, abs(r2) / a2]
        # np.max propagates NaN, so a NaN residual fails the bound
        report.add_bound(f"{kind}_friedmann_rel_residual", float(np.max(rel)), 1e-9)

    lin = cos.linear_hubble_profile(params)
    t_now = lin.t_now
    dt = 100e6 * YEAR_S
    z = cos.redshift(lin, t_now - dt, t_now)
    report.add_bound("redshift_linearization_rel_err",
                     abs(z - per_s * dt) / z, 0.01)
    delta = 1e6 * YEAR_S
    dz_dt = (cos.redshift(lin, t_now - dt - delta, t_now)
             - cos.redshift(lin, t_now - dt + delta, t_now)) / (2 * delta)
    report.add_bound("dz_dt_vs_h0_rel_err", abs(dz_dt - per_s) / per_s, 0.01)

    left, right = profile.slope_sides(p["s_de_gyr"] * GYR_S)
    report.add_bound("onset_slope_steepening", right - left, 0.0)

    ss = np.geomspace(_profile_csv_start(profile), profile.t_now, 512).tolist()
    write_csv(report.artifact("alpha_profile.csv"), ["s", "alpha", "a", "H", "rho"], (
        (s, profile.alpha(s), cos.scale_factor(profile, s), cos.hubble(profile, s),
         cos.density(profile, s, params)) for s in ss))
    emits = np.linspace(t_now - 200e6 * YEAR_S, t_now - 1e6 * YEAR_S, 40).tolist()
    h0 = params.h0_per_s
    write_csv(report.artifact("redshift_table.csv"), ["s_emit", "z_exact", "z_linear"],
              ((s, cos.redshift(lin, s, t_now), h0 * (t_now - s)) for s in emits))


# -- bound-check --------------------------------------------------------------


_PROFILE_AGE_S = cos.CosmologyParams().t_now_s  # the window must start after s = 0


@_scenario("bound-check", {
    "h0_kms_mpc": Param(float, "70", *_POSITIVE),
    "window_s": Param(float, "499.0", lambda v: 0 < v < _PROFILE_AGE_S,
                      f"must lie in (0, {_PROFILE_AGE_S!r}), the profile age in s"),
    "eps": Param(float, "1e-10", *_POSITIVE),
})
def scenario_bound_check(p: dict, report: RunReport) -> None:
    """Local undetectability: |alpha - alpha_ref| over an occupiable region."""
    params = cos.CosmologyParams(h0_kms_mpc=p["h0_kms_mpc"])
    window, eps = p["window_s"], p["eps"]

    lin = cos.linear_hubble_profile(params)
    t_now = lin.t_now
    dev, ok = cos.local_bound_check(lin, (t_now - window, t_now), eps=eps)
    report.add_bound("solar_region_alpha_deviation", dev, eps)

    write_csv(report.artifact("bound_check.csv"),
              ["window_s", "max_deviation", "epsilon", "pass"], [(window, dev, eps, ok)])


def run_scenario(name: str, cfg: dict[str, str], out_dir: Path) -> RunReport:
    """Run scenario ``name`` on config text ``cfg``; missing keys take defaults."""
    values, diags = parse_params(name, cfg)
    if diags:
        raise ConfigInvalid("; ".join(diags))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    report = RunReport(name, out_dir)
    SCENARIOS[name].run(values, report)
    report.wall_time_s = time.perf_counter() - start
    report.write_csv(report.artifact("report.csv"))
    return report
