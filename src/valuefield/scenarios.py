"""Named experiment scenarios executed by the CLI.

Each scenario runs a deterministic set of checks, writes its CSV artifacts
into the output directory and returns a RunReport. A check row records the
measured value next to its expected value and tolerance so the report is
self-contained.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from . import cosmology as cos
from . import field as vfield
from . import geometry as geo
from . import quantum as qm
from . import scaled_numbers as sn
from ._csv import write_csv
from .constants import CONSTANTS_TABLE, GYR_S, YEAR_S
from .errors import ConfigInvalid


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

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            for name, value in CONSTANTS_TABLE:
                fh.write(f"# {name},{value!r}\n")
            write_csv(fh, ["name", "expected", "measured", "tolerance", "pass"],
                      ((c.name, c.expected, c.measured, c.tolerance, c.passed)
                       for c in self.checks))


def _artifact(report: RunReport, out_dir: Path, name: str) -> Path:
    path = out_dir / name
    report.artifacts.append(str(path))
    return path


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

SCENARIOS: dict[str, Callable] = {}
PARAMS: dict[str, dict[str, Param]] = {}


def _scenario(name: str, params: dict[str, Param]):
    """Register the decorated function as scenario ``name`` with its parameters."""
    def register(run):
        SCENARIOS[name], PARAMS[name] = run, params
        return run
    return register


def parse_params(name: str, raw: dict[str, str]) -> tuple[dict, list[str]]:
    """Typed parameters of scenario ``name`` from config text, with defaults
    filled in, and one ``name.key: ...`` diagnostic per problem. Unknown keys
    and non-finite numbers are problems; no diagnostics means valid."""
    table = PARAMS[name]
    diags = [f"{name}.{key}: unknown key" for key in raw if key not in table]
    values = {}
    for key, param in table.items():
        text = raw.get(key, param.default)
        try:
            value = param.type(text)
        except ValueError:
            diags.append(f"{name}.{key}: cannot parse {text!r} as {param.type.__name__}")
            continue
        if not math.isfinite(value):
            diags.append(f"{name}.{key}: must be finite, got {text!r}")
        elif not param.check(value):
            diags.append(f"{name}.{key}: {param.message}")
        values[key] = value
    if not diags and name in _CONSISTENCY:
        diags = _CONSISTENCY[name](values)
    return values, diags


# -- arithmetic-check -------------------------------------------------------


def _random_fraction(rng: random.Random, nonzero=False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        if not nonzero or f != 0:
            return f


def _positive_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 50), rng.randint(1, 40))


@_scenario("arithmetic-check", {
    "seed": Param(int, "0"),
    "cases": Param(int, "1000", *_POSITIVE),
})
def scenario_arithmetic_check(p: dict, out_dir: Path) -> RunReport:
    """Exact identities of the scaled-number layer over a seeded random sweep."""
    report = RunReport("arithmetic-check")
    rng = random.Random(p["seed"])

    rows = []
    failures = {"raw": 0, "compose": 0, "zero": 0, "mul": 0, "div": 0, "add": 0}
    for _ in range(p["cases"]):
        s, t, u = (_positive_fraction(rng) for _ in range(3))
        a = _random_fraction(rng, nonzero=True)
        b = _random_fraction(rng, nonzero=True)

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

    write_csv(_artifact(report, out_dir, "arithmetic_golden.csv"),
              ["s", "t", "a", "b", "op", "expected"], rows)
    return report


# -- field-calculus ---------------------------------------------------------


@_scenario("field-calculus", {
    "k": Param(float, "0.7"),
    "y0": Param(float, "0.3"),
    "sigma": Param(float, "0.5", *_POSITIVE),
    "n": Param(int, "16384", *_EVEN_COUNT),
})
def scenario_field_calculus(p: dict, out_dir: Path) -> RunReport:
    """Transport-weighted quadrature and the covariant-derivative identity."""
    report = RunReport("field-calculus")
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
    write_csv(_artifact(report, out_dir, "quadrature_convergence.csv"),
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
    chained = vfield.transport_scalar(fld, x, ymid,
                                      vfield.transport_scalar(fld, ymid, z, 5.0))
    direct = vfield.transport_scalar(fld, x, z, 5.0)
    report.add_bound("transport_chain_rel_err",
                     abs(chained - direct) / abs(direct), 1e-13)
    return report


# -- geodesic ---------------------------------------------------------------


@_scenario("geodesic", {
    "c": Param(float, "299792458.0", *_POSITIVE),
    "steps": Param(int, "10000", *_POSITIVE),
    "beta": Param(float, "0.3", lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    "alpha_const": Param(float, "0.4"),
    "span_tau": Param(float, "1e-4", *_POSITIVE),
    "mass": Param(float, "1.0", *_POSITIVE),
})
def scenario_geodesic(p: dict, out_dir: Path) -> RunReport:
    """Straight-line limit at constant alpha and linearity of the rhs in A."""
    report = RunReport("geodesic")
    c, beta, span = p["c"], p["beta"], p["span_tau"]

    gamma = 1.0 / math.sqrt(1.0 - beta ** 2)
    init = geo.GeodesicState(
        vfield.spacetime_point(0.0, 0.0, 0.0, 0.0),
        np.array([gamma * c, gamma * beta * c, 0.0, 0.0]),
    )
    cfg_int = geo.IntegratorConfig(step=span / p["steps"], span=span)
    fld = vfield.ConstantField(p["alpha_const"])
    traj = geo.integrate_geodesic(fld, init, cfg_int, c)
    straight = init.p[1] + init.u[1] * traj.tau
    dev = float(np.max(np.abs(traj.p[:, 1] - straight)))
    report.add_bound("straight_line_rel_dev", dev / abs(init.u[1] * span), 1e-9)

    particle = geo.ParticleSpec(p["mass"], c)
    art = _artifact(report, out_dir, "geodesic_trajectory.csv")
    traj.to_csv(art, particle)

    k = 1e-12
    f1 = vfield.AnalyticField(lambda p: k * p[1],
                              lambda p: np.array([0.0, k, 0.0, 0.0]))
    f2 = vfield.AnalyticField(lambda p: 2 * k * p[1],
                              lambda p: np.array([0.0, 2 * k, 0.0, 0.0]))
    r1 = geo.geodesic_rhs(f1, init, c)
    r2 = geo.geodesic_rhs(f2, init, c)
    lin_err = float(np.max(np.abs(r2 - 2 * r1)))
    scale = float(np.max(np.abs(r1))) or 1.0
    report.add_bound("rhs_linearity_in_gradient", lin_err / scale, 1e-12)
    return report


# -- schrodinger ------------------------------------------------------------


@_scenario("schrodinger", {
    "n": Param(int, "1024", *_EVEN_COUNT),
    "steps": Param(int, "1000", *_POSITIVE),
    "dt": Param(float, "1e-3", *_POSITIVE),
    "a0": Param(float, "0.25"),
})
def scenario_schrodinger(p: dict, out_dir: Path) -> RunReport:
    """Damped-unitary evolution: norm law with constant A, unitarity at A = 0."""
    report = RunReport("schrodinger")
    steps, dt, a0 = p["steps"], p["dt"], p["a0"]

    y = np.linspace(-40.0, 40.0, p["n"], endpoint=False)
    psi0 = qm.gaussian_packet(y, y0=0.0, sigma=1.0)
    ham = qm.HamiltonianSpec("spectral", mass=1.0, hbar=1.0)

    psi = qm.evolve(psi0, ham, qm.TimeScaling.zero(), dt, steps)
    report.add_bound("unitarity_norm_drift", abs(psi.norm_sq() - 1.0), 1e-10)

    rows = []
    fld0 = vfield.ConstantField(0.0)
    x_ref = vfield.spacetime_point(0.0, 0.0, 0.0, 0.0)

    def record(i, state):
        if i % max(1, steps // 50) == 0:
            rows.append((state.t, state.norm_sq(),
                         qm.position_expectation(state.normalized(), fld0, x_ref)))

    psi = qm.evolve(psi0, ham, qm.TimeScaling.constant(a0), dt, steps, observer=record)
    conserved = psi.norm_sq() * math.exp(2 * a0 * psi.t)
    report.add_bound("damping_law_drift", abs(conserved - 1.0), 1e-8)

    snap = _artifact(report, out_dir, "schrodinger_snapshot.csv")
    qm.snapshot_to_csv(psi, snap)
    summ = _artifact(report, out_dir, "schrodinger_summary.csv")
    qm.summary_to_csv(rows, summ)
    return report


# -- cosmology ----------------------------------------------------------------


def _era_ode_exponent(kind: str, params: cos.CosmologyParams):
    """Independent route: integrate adot/a = sqrt(8 pi G rho(a)/3) and fit.

    Returns (fit value, target value): log-log slope for matter/radiation,
    ln-linear rate for vacuum.
    """
    h0 = params.h0_per_s
    if kind == "vacuum":
        t_age = 1.0 / h0
        rate = cos.vacuum_rate(params)

        def rhs(s, a):
            return rate * a[0]

        span = (1e-3 * t_age, t_age)
        sol = solve_ivp(rhs, span, [1e-3], rtol=1e-10, atol=1e-300, dense_output=True)
        ss = np.linspace(*span, 200)
        ln_a = np.log(sol.sol(ss)[0])
        fit = np.polyfit(ss, ln_a, 1)[0]
        return fit, rate

    power = {"matter": 2.0 / 3.0, "radiation": 0.5}[kind]
    t_age = power / h0
    dilution = {"matter": -3.0, "radiation": -4.0}[kind]

    def rhs(s, a):
        # rho(a) = rho_crit * a^dilution  =>  adot = H0 * a^(1 + dilution/2)
        return h0 * a[0] ** (1.0 + dilution / 2.0)

    span = (1e-3 * t_age, t_age)
    a0 = (span[0] / t_age) ** power
    sol = solve_ivp(rhs, span, [a0], rtol=1e-10, atol=1e-300, dense_output=True)
    ss = np.geomspace(*span, 200)
    ln_a = np.log(sol.sol(ss)[0])
    fit = np.polyfit(np.log(ss), ln_a, 1)[0]
    return fit, power


def _cosmology_consistency(p: dict) -> list[str]:
    """Flatness and era ordering, which no single parameter can check."""
    diags = []
    total = p["omega_m"] + p["omega_r"] + p["omega_v"]
    if abs(total - 1.0) > 1e-12:
        diags.append(f"cosmology.omega_m+omega_r+omega_v: flatness violated, "
                     f"sum = {total!r} (needs 1)")
    if p["s_rm_kyr"] * 1e3 >= p["s_de_gyr"] * 1e9:
        diags.append("cosmology.s_rm_kyr: must precede s_de_gyr")
    if p["s_de_gyr"] >= p["t_now_gyr"]:
        diags.append("cosmology.s_de_gyr: must precede t_now_gyr")
    return diags


_CONSISTENCY = {"cosmology": _cosmology_consistency}


@_scenario("cosmology", {
    "h0_kms_mpc": Param(float, "70", *_POSITIVE),
    "omega_m": Param(float, "0.3", *_NONNEGATIVE),
    "omega_r": Param(float, "0", *_NONNEGATIVE),
    "omega_v": Param(float, "0.7", *_NONNEGATIVE),
    "t_now_gyr": Param(float, "13.8", *_POSITIVE),
    "s_rm_kyr": Param(float, "50", *_POSITIVE),
    "s_de_gyr": Param(float, "10"),
})
def scenario_cosmology(p: dict, out_dir: Path) -> RunReport:
    """Rate conversion, era exponents, redshift linearization, residuals."""
    report = RunReport("cosmology")
    params = cos.CosmologyParams(
        h0_kms_mpc=p["h0_kms_mpc"], omega_m=p["omega_m"], omega_r=p["omega_r"],
        omega_v=p["omega_v"], t_now_yr=p["t_now_gyr"] * 1e9)

    # published rates at H0 = 70 km/s/Mpc, scaled to the configured H0
    per_yr, per_s = cos.h0_convert(params.h0_kms_mpc)
    scale = params.h0_kms_mpc / 70.0
    report.add("h0_per_year", 7.16e-11 * scale, per_yr, 0.005e-11 * scale)
    report.add("h0_per_second", 2.3e-18 * scale, per_s, 0.05e-18 * scale)

    for kind in ("matter", "radiation"):
        era_params = cos.CosmologyParams(
            h0_kms_mpc=params.h0_kms_mpc,
            omega_m=1.0 if kind == "matter" else 0.0,
            omega_r=1.0 if kind == "radiation" else 0.0,
            omega_v=0.0,
        )
        fit, target = _era_ode_exponent(kind, era_params)
        report.add(f"{kind}_era_loglog_slope", target, fit, 1e-3)
    vac_params = cos.CosmologyParams(h0_kms_mpc=params.h0_kms_mpc,
                                     omega_m=0.0, omega_r=0.0, omega_v=1.0)
    fit, target = _era_ode_exponent("vacuum", vac_params)
    report.add("vacuum_era_rate", target, fit, 1e-6 * target)

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

    matter_params = cos.CosmologyParams(
        h0_kms_mpc=params.h0_kms_mpc, omega_m=1.0, omega_r=0.0, omega_v=0.0,
        t_now_yr=(2.0 / (3.0 * per_s)) / YEAR_S)
    t_m = matter_params.t_now_s
    prof_m = cos.AlphaProfile(
        [cos.Segment(0.0, t_m, "matter", s_ref=t_m, alpha_ref=0.0)], t_m)
    rel = 0.0
    for frac in (0.01, 0.1, 0.5, 1.0):
        s = frac * t_m
        rho = cos.density(prof_m, s, matter_params)
        r1, r2, _ = cos.friedmann_residuals(prof_m, s, rho, 0.0, matter_params)
        a2 = prof_m.slope(s) ** 2
        rel = max(rel, abs(r1) / a2, abs(r2) / a2)
    report.add_bound("matter_friedmann_rel_residual", rel, 1e-9)

    s_rm = p["s_rm_kyr"] * 1e3 * YEAR_S
    s_de = p["s_de_gyr"] * GYR_S
    profile = cos.build_alpha_profile(params, s_rm, s_de)
    left, right = profile.slope_sides(s_de)
    report.add_bound("onset_slope_steepening", right - left, 0.0)

    art = _artifact(report, out_dir, "alpha_profile.csv")
    profile.to_csv(art, params)
    ztab = _artifact(report, out_dir, "redshift_table.csv")
    emits = np.linspace(t_now - 200e6 * YEAR_S, t_now - 1e6 * YEAR_S, 40)
    cos.redshift_table_to_csv(lin, params, emits, ztab)
    return report


# -- bound-check --------------------------------------------------------------


_PROFILE_AGE_S = cos.CosmologyParams().t_now_s  # the window must start after s = 0


@_scenario("bound-check", {
    "h0_kms_mpc": Param(float, "70", *_POSITIVE),
    "window_s": Param(float, "499.0", lambda v: 0 < v < _PROFILE_AGE_S,
                      f"must lie in (0, {_PROFILE_AGE_S!r}), the profile age in s"),
    "eps": Param(float, "1e-10", *_POSITIVE),
})
def scenario_bound_check(p: dict, out_dir: Path) -> RunReport:
    """Local undetectability: |alpha - alpha_ref| over an occupiable region."""
    report = RunReport("bound-check")
    params = cos.CosmologyParams(h0_kms_mpc=p["h0_kms_mpc"])
    window, eps = p["window_s"], p["eps"]

    lin = cos.linear_hubble_profile(params)
    t_now = lin.t_now
    dev, ok = cos.local_bound_check(lin, (t_now - window, t_now), eps=eps)
    report.add_bound("solar_region_alpha_deviation", dev, eps)

    write_csv(_artifact(report, out_dir, "bound_check.csv"),
              ["window_s", "max_deviation", "epsilon", "pass"], [(window, dev, eps, ok)])
    return report


def run_scenario(name: str, cfg: dict[str, str], out_dir: Path) -> RunReport:
    """Run scenario ``name`` on config text ``cfg``; missing keys take defaults."""
    values, diags = parse_params(name, cfg)
    if diags:
        raise ConfigInvalid("; ".join(diags))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    report = SCENARIOS[name](values, out_dir)
    report.wall_time_s = time.perf_counter() - start
    report.write_csv(_artifact(report, out_dir, "report.csv"))
    return report
