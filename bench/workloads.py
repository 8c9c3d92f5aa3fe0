"""Seeded workloads of the valuefield benchmark and their independent checks.

Each workload turns the benchmark seed into inputs (grids, initial states,
integrand parameters, config files) and a fixed task list. A task runs calls
into valuefield and returns its outputs; its check compares them with a
reference that does not come from the code path under test: closed forms,
scipy's ODE solver and interpolator, the benchmark's own RK4, or exact
equality for a CSV round trip. Every comparison is written so that a NaN
fails it.

Workloads (see METADATA.json for the rationale and the layers each loads):

- ``scenarios``: the six CLI scenarios run in process, what users run.
- ``grid-trajectory``: geodesics through a small smooth GridField and a
  non-constant AnalyticField, where field calls are sequential per point.
- ``bulk-field``: many independent field points (quadrature, bound check,
  position expectation, CSV round trip) on a grid larger than L2.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import RegularGridInterpolator

ETA = np.array([-1.0, 1.0, 1.0, 1.0])


class Mismatch(Exception):
    """A task's output missed its reference."""


@dataclass
class Task:
    name: str
    run: Callable[[Any], Any]     # run(ctx) -> outputs
    check: Callable[[Any], None]  # raises on a wrong or non-finite output


def expect_close(what: str, got, want, rtol: float, atol: float = 0.0) -> None:
    """Fail unless every entry of ``got`` is finite and within tolerance."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{what}: shape {got.shape} != reference {want.shape}")
    err = np.abs(got - want)
    if not (np.all(np.isfinite(got)) and np.all(err <= atol + rtol * np.abs(want))):
        raise Mismatch(f"{what}: error {np.max(err)!r} over tolerance "
                       f"(rtol {rtol!r}, atol {atol!r})")


def expect(what: str, ok: bool) -> None:
    if not ok:
        raise Mismatch(what)


def identical(a, b) -> bool:
    """Bit-for-bit equality of task outputs (arrays, floats, nested tuples)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(identical(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            identical(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return isinstance(b, float) and np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


class Workload:
    """Inputs and tasks for one workload. Construction is the set-up the
    benchmark times; ``prepare`` computes references and is not timed."""

    name = ""

    def __init__(self, vf, seed: int, scratch: Path):
        self.vf = vf
        self.rng = np.random.default_rng(seed)
        self.scratch = Path(scratch)
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.tasks: list[Task] = []

    def prepare(self) -> None:
        pass


# -- scenarios ----------------------------------------------------------------


def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _column(rows, key) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


class ScenariosWorkload(Workload):
    """The six ``cli.DEFAULT_CONFIGS`` scenarios through ``cli.main(["run", ...])``."""

    name = "scenarios"

    def __init__(self, vf, seed, scratch):
        super().__init__(vf, seed, scratch)
        checks = {
            "arithmetic-check": self._check_arithmetic,
            "field-calculus": lambda out, cfg: None,
            "geodesic": self._check_geodesic,
            "schrodinger": self._check_schrodinger,
            "cosmology": self._check_cosmology,
            "bound-check": self._check_bound,
        }
        for name, defaults in vf.cli.DEFAULT_CONFIGS.items():
            cfg = dict(defaults)
            if name == "arithmetic-check":
                cfg["seed"] = str(int(self.rng.integers(0, 2 ** 31 - 1)))
            path = self.scratch / f"{name}.cfg"
            lines = ["[scenario]", f"name = {name}", "", f"[{name}]"]
            lines += [f"{k} = {v}" for k, v in cfg.items()]
            path.write_text("\n".join(lines) + "\n")
            out = self.scratch / f"out-{name}"
            self.tasks.append(Task(name, self._runner(name, path, out),
                                   self._checker(out, cfg, checks[name])))

    def _runner(self, name, path, out):
        cli = self.vf.cli

        def run(ctx):
            with contextlib.redirect_stdout(io.StringIO()), ctx.span(f"scenarios.{name}"):
                rc = cli.main(["run", str(path), "--out", str(out)])
            files = sorted(p for p in out.iterdir() if p.is_file())
            ctx.count("cli.artifact_bytes", sum(p.stat().st_size for p in files))
            return rc, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        return run

    @staticmethod
    def _checker(out, cfg, specific):
        def check(result):
            rc, _ = result
            expect(f"exit code {rc}, expected 0", rc == 0)
            for row in _csv_rows(out / "report.csv"):
                expect(f"{row['name']}: pass flag {row['pass']!r}", row["pass"] == "true")
                m, e, tol = (float(row[k]) for k in ("measured", "expected", "tolerance"))
                # add_bound rows store the bound as both expected and tolerance
                err = m if e == tol else abs(m - e)
                expect(f"{row['name']}: measured {m!r} misses {e!r} +- {tol!r}",
                       math.isfinite(m) and err <= tol)
            specific(out, cfg)
        return check

    @staticmethod
    def _check_arithmetic(out, cfg):
        rows = _csv_rows(out / "arithmetic_golden.csv")
        expect(f"golden rows {len(rows)}", len(rows) == 2 * int(cfg["cases"]))
        for r in rows:
            s, t, a, b = (Fraction(r[k]) for k in ("s", "t", "a", "b"))
            combined = a * b if r["op"] == "mul" else a / b
            expect(f"golden row {r}", Fraction(r["expected"]) == (t / s) * combined)

    @staticmethod
    def _check_geodesic(out, cfg):
        c, beta, span = float(cfg["c"]), float(cfg["beta"]), float(cfg["span_tau"])
        steps = int(cfg["steps"])
        data = np.loadtxt(out / "geodesic_trajectory.csv", delimiter=",", skiprows=1)
        expect(f"trajectory rows {data.shape}", data.shape == (steps + 1, 11))
        gamma = 1.0 / math.sqrt(1.0 - beta ** 2)
        tau = data[:, 0]
        expect_close("tau", tau, np.arange(steps + 1) * (span / steps), 1e-12, 1e-12 * span)
        # constant alpha: a straight line at constant 4-velocity
        expect_close("t(tau)", data[:, 1], gamma * tau, 0.0, 1e-9 * gamma * span)
        expect_close("x(tau)", data[:, 2], gamma * beta * c * tau, 0.0,
                     1e-9 * gamma * beta * c * span)
        expect_close("y, z", data[:, 3:5], np.zeros((steps + 1, 2)), 0.0, 0.0)
        expect_close("u", data[:, 5:9], np.tile([gamma * c, gamma * beta * c, 0.0, 0.0],
                                                (steps + 1, 1)), 1e-12)
        expect_close("gamma", data[:, 9], np.full(steps + 1, gamma), 1e-12)

    @staticmethod
    def _check_schrodinger(out, cfg):
        a0, dt, steps = float(cfg["a0"]), float(cfg["dt"]), int(cfg["steps"])
        rows = _csv_rows(out / "schrodinger_summary.csv")
        every = max(1, steps // 50)
        expect(f"summary rows {len(rows)}", len(rows) == steps // every)
        t = _column(rows, "t")
        expect_close("summary t", t, dt * every * np.arange(1, len(rows) + 1), 1e-9)
        # damping law ||psi||^2 = exp(-2 a0 t), and <y> = 0 for the centred packet
        expect_close("norm law", _column(rows, "norm_sq"), np.exp(-2 * a0 * t), 1e-8)
        expect_close("<y>", _column(rows, "position_expectation"), np.zeros(len(rows)),
                     0.0, 1e-9)
        snap = _csv_rows(out / "schrodinger_snapshot.csv")
        dens = _column(snap, "prob_density")
        re, im = _column(snap, "re_psi"), _column(snap, "im_psi")
        expect_close("density", dens, re * re + im * im, 1e-12, 1e-300)
        y = _column(snap, "y")
        expect_close("final norm", np.sum(dens) * (y[1] - y[0]),
                     math.exp(-2 * a0 * steps * dt), 1e-8)

    def _check_cosmology(self, out, cfg):
        const = self.vf.constants
        h0 = float(cfg["h0_kms_mpc"]) / const.MPC_KM
        t_now = float(cfg["t_now_gyr"]) * 1e9 * const.YEAR_S
        rows = _csv_rows(out / "redshift_table.csv")
        look_back = t_now - _column(rows, "s_emit")
        # linear profile alpha = H0 (t_now - s): z = exp(H0 lookback) - 1
        expect_close("z_exact", _column(rows, "z_exact"), np.expm1(h0 * look_back), 1e-10)
        expect_close("z_linear", _column(rows, "z_linear"), h0 * look_back, 1e-12)
        prof = _csv_rows(out / "alpha_profile.csv")
        alpha, s = _column(prof, "alpha"), _column(prof, "s")
        expect_close("a = exp(-alpha)", _column(prof, "a"), np.exp(-alpha), 1e-12)
        expect("alpha nonincreasing in s", bool(np.all(np.diff(alpha) <= 0.0)))
        expect_close("alpha(t_now)", alpha[-1], 0.0, 0.0, 1e-9)
        expect_close("last sample at t_now", s[-1], t_now, 1e-12)

    def _check_bound(self, out, cfg):
        const = self.vf.constants
        h0 = float(cfg["h0_kms_mpc"]) / const.MPC_KM
        t_now = 13.8e9 * const.YEAR_S  # bound-check uses the default 13.8 Gyr age
        (row,) = _csv_rows(out / "bound_check.csv")
        window = float(row["window_s"])
        # alpha is linear in s, so the deviation over the window is H0 times
        # the window as it is represented at t_now
        expect_close("max deviation", float(row["max_deviation"]),
                     h0 * (t_now - (t_now - window)), 1e-9)
        expect("bound pass flag", row["pass"] == "true")


# -- grid-trajectory ----------------------------------------------------------

C = 1.0  # natural units: positions in light-seconds, so c = 1
SMALL_SHAPE = (9, 12, 12, 12)  # 124 KB of samples: fits one core's L2
SMALL_ORIGIN = np.array([0.0, -1.0, -1.0, -1.0])
SMALL_SPACING = np.array([0.25, 2 / 11, 2 / 11, 2 / 11])


def _axes(shape, origin, spacing):
    return [origin[a] + spacing[a] * np.arange(shape[a]) for a in range(4)]


def _grid_points(shape, origin, spacing) -> np.ndarray:
    return np.stack(np.meshgrid(*_axes(shape, origin, spacing), indexing="ij"), axis=-1)


def geodesic_rhs(grad, c):
    """du/dtau of the scaled-geometry geodesic, written from its formula:
    -(A.u) u + (1/2) eta A q2, with A per meter and q2 = -eta(u, u)."""
    def rhs(_tau, y):
        p, u = y[:4], y[4:]
        g = grad(p)
        a = np.array([g[0] / c, g[1], g[2], g[3]])
        q2 = u[0] ** 2 - u[1] ** 2 - u[2] ** 2 - u[3] ** 2
        du = -(a @ u) * u + 0.5 * ETA * a * q2
        return np.concatenate(([u[0] / c], u[1:], du))
    return rhs


def coordinate_rhs(grad, c, t0):
    """d/ds of (s, x, w) with w = gamma (c, v): the coordinate-time form."""
    def rhs(_s, y):
        s, x, w = y[0], y[1:4], y[4:]
        gamma = w[0] / c
        v = w[1:] / gamma
        g = grad(np.array([t0 + s, *x]))
        a = np.array([g[0] / c, g[1], g[2], g[3]])
        dpds = np.array([c, *v])
        dw = -(a @ dpds) * gamma * dpds + 0.5 * ETA * a * c ** 2 / gamma
        return np.concatenate(([1.0], v, dw))
    return rhs


def rk4_reference(rhs, y0, h, n):
    """Classical RK4 with n fixed steps of h (the right-hand sides are autonomous)."""
    ys = [np.asarray(y0, dtype=float)]
    y = ys[0]
    for _ in range(n):
        k1 = rhs(None, y)
        k2 = rhs(None, y + 0.5 * h * k1)
        k3 = rhs(None, y + 0.5 * h * k2)
        k4 = rhs(None, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ys.append(y)
    return np.array(ys)


def ode_reference(rhs, y0, h, n):
    ts = h * np.arange(n + 1)
    sol = solve_ivp(rhs, (0.0, ts[-1]), y0, method="DOP853", t_eval=ts,
                    rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference solver failed: {sol.message}")
    return sol.y.T


def _unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class GridTrajectoryWorkload(Workload):
    """A seeded ensemble of initial states advanced by ``integrate_geodesic``
    and ``integrate_coordinate``: per-point field latency, no batching."""

    name = "grid-trajectory"
    STEP, SPAN = 0.05, 1.0

    def __init__(self, vf, seed, scratch):
        super().__init__(vf, seed, scratch)
        f, geo, rng = vf.field, vf.geometry, self.rng
        pts = _grid_points(SMALL_SHAPE, SMALL_ORIGIN, SMALL_SPACING)
        # A smooth field of amplitude 1e-3: its multilinear interpolation
        # error keeps the conservation drift near 1e-4, inside the 1e-3
        # monitor tolerance used for the grid tasks.
        k = rng.uniform(-1.5, 1.5, size=(3, 4))
        phase = rng.uniform(0.0, 2 * np.pi, 3)
        amp = 1e-3 * rng.uniform(0.5, 1.0, 3)
        self.smooth_samples = sum(amp[i] * np.sin(pts @ k[i] + phase[i]) for i in range(3))
        lin = rng.uniform(-0.3, 0.3, 4)
        # name -> (field, reference alpha, reference gradient); the smooth
        # grid's reference is built in prepare()
        self.fields = {
            "smooth": (f.GridField(self.smooth_samples, SMALL_ORIGIN, SMALL_SPACING),
                       None, None),
            # linear samples: multilinear interpolation and its FD gradient are exact
            "linear": (f.GridField(pts @ lin, SMALL_ORIGIN, SMALL_SPACING),
                       lambda p: lin @ p, lambda p: lin),
            "wave": self._wave_field(rng, 0.3),
            "weak": self._wave_field(rng, 0.01),
            "steep": self._wave_field(rng, 1.0),
        }
        self.particle = geo.ParticleSpec(1.0, C)
        self._pending = []  # (task, function making its check), resolved in prepare()

        loose = geo.IntegratorConfig(step=self.STEP, span=self.SPAN, norm_check_tol=1e-3)
        plain = geo.IntegratorConfig(step=self.STEP, span=self.SPAN)
        for i in range(3):
            self._geodesic(f"geodesic-grid-{i}", "smooth", loose)
        self._coordinate("coordinate-grid", "smooth", plain)
        self._geodesic("geodesic-linear-grid", "linear", plain)
        for i in range(2):
            self._geodesic(f"geodesic-analytic-{i}", "wave",
                           geo.IntegratorConfig(step=self.STEP, span=2 * self.SPAN))
        # the coordinate-time form needs gamma >= 1 throughout, so its
        # particle must not climb more alpha than its kinetic energy allows
        self._coordinate("coordinate-analytic", "weak", plain)
        # coarse steps on a steep field: the monitor halves some of them
        self._geodesic("geodesic-halving", "steep",
                       geo.IntegratorConfig(step=0.2, span=1.0, norm_check_tol=1e-5))

    def _wave_field(self, rng, scale):
        k = rng.uniform(-2.0, 2.0, 4)
        amp = scale * rng.uniform(0.8, 1.2)
        phase = rng.uniform(0.0, 2 * np.pi)

        def alpha(p):
            return amp * math.sin(k @ p + phase)

        def grad(p):
            return amp * math.cos(k @ p + phase) * k
        return self.vf.field.AnalyticField(alpha, grad), alpha, grad

    def _state(self):
        """Start well inside the grid so every FD stencil stays interior."""
        p0 = np.array([self.rng.uniform(0.3, 0.5), *self.rng.uniform(-0.3, 0.3, 3)])
        v = self.rng.uniform(0.2, 0.3) * _unit_vector(self.rng)
        return p0, v

    def _geodesic(self, name, which, cfg):
        geo = self.vf.geometry
        p0, v = self._state()
        u0 = np.array([C, *v]) / math.sqrt(1.0 - v @ v)

        def run(ctx):
            fld = ctx.wrap(self.fields[which][0])
            traj = geo.integrate_geodesic(fld, geo.GeodesicState(p0, u0), cfg, C)
            return traj.tau, traj.p, traj.u

        self._add(Task(name, run, None), lambda: self._geodesic_check(which, p0, u0, cfg))

    def _coordinate(self, name, which, cfg):
        geo = self.vf.geometry
        p0, v = self._state()

        def run(ctx):
            fld = ctx.wrap(self.fields[which][0])
            tr = geo.integrate_coordinate(fld, p0, v, self.particle, cfg)
            return tr.s, tr.p, tr.v, tr.gamma

        self._add(Task(name, run, None), lambda: self._coordinate_check(which, p0, v, cfg))

    def _add(self, task, make_check):
        self.tasks.append(task)
        self._pending.append((task, make_check))

    def _smooth_reference(self):
        """Multilinear interpolation (scipy) with the grid's documented
        gradient: central differences one grid spacing wide."""
        interp = RegularGridInterpolator(
            _axes(SMALL_SHAPE, SMALL_ORIGIN, SMALL_SPACING), self.smooth_samples)
        h = SMALL_SPACING
        hi = SMALL_ORIGIN + h * (np.array(SMALL_SHAPE) - 1)

        def alpha(p):
            return float(interp(p[None, :])[0])

        def grad(p):
            if np.any(p - h < SMALL_ORIGIN) or np.any(p + h > hi):
                raise RuntimeError(f"reference stencil at {p} leaves the grid interior")
            vals = interp(np.concatenate([p + np.diag(h), p - np.diag(h)]))
            return (vals[:4] - vals[4:]) / (2 * h)
        return alpha, grad

    def _solver(self, which):
        """Reference solver and the tolerance on states against it. The
        smooth grid is replayed with the same RK4 steps; analytic fields are
        solved to 1e-12 by an order-8 method, so the tolerance is RK4's own
        truncation error, largest for the coarse steps of the halving task."""
        if which == "smooth":
            return rk4_reference, 1e-9
        return ode_reference, (3e-3 if which == "steep" else 5e-6)

    def _geodesic_check(self, which, p0, u0, cfg):
        _, alpha, grad = self.fields[which]
        n = round(cfg.span / cfg.step)
        solve, rtol = self._solver(which)
        ref = solve(geodesic_rhs(grad, C), np.concatenate([p0, u0]), cfg.step, n)
        taus = cfg.step * np.arange(n + 1)
        q0 = -u0[0] ** 2 + u0[1:] @ u0[1:]
        scale = u0[0] ** 2

        def check(result):
            tau, p, u = result
            expect_close("step times", tau, taus, 1e-12, 1e-12)
            expect_close("positions", p, ref[:, :4], rtol, rtol)
            expect_close("4-velocities", u, ref[:, 4:], rtol, rtol)
            # the invariant e^{3(alpha - alpha0)} eta(u, u), recomputed here
            # rather than taken from the trajectory's own drift figure
            a = np.array([alpha(pi) for pi in p])
            q = np.exp(3.0 * (a - a[0])) * np.einsum("ij,j,ij->i", u, ETA, u)
            expect_close("conserved norm", (q - q0) / scale, np.zeros(n + 1), 0.0,
                         cfg.norm_check_tol + 1e-12)  # + rounding of the recomputation
        return check

    def _coordinate_check(self, which, p0, v0, cfg):
        _, _, grad = self.fields[which]
        n = round(cfg.span / cfg.step)
        solve, rtol = self._solver(which)
        gamma0 = 1.0 / math.sqrt(1.0 - v0 @ v0)
        y0 = np.concatenate([[0.0], p0[1:], gamma0 * np.array([C, *v0])])
        ref = solve(coordinate_rhs(grad, C, p0[0]), y0, cfg.step, n)
        gamma = ref[:, 4] / C
        want_p = np.column_stack([p0[0] + ref[:, 0], ref[:, 1:4]])

        def check(result):
            s, p, v, g = result
            expect_close("step times", s, cfg.step * np.arange(n + 1), 1e-12, 1e-12)
            expect_close("positions", p, want_p, rtol, rtol)
            expect_close("velocities", v, ref[:, 5:] / gamma[:, None], rtol, rtol)
            expect_close("gamma", g, gamma, rtol)
        return check

    def prepare(self):
        grid = self.fields["smooth"][0]
        self.fields["smooth"] = (grid, *self._smooth_reference())
        for task, make_check in self._pending:
            task.check = make_check()


# -- bulk-field ---------------------------------------------------------------

BIG_SHAPE = (4, 64, 64, 64)  # 8.4 MB of samples: larger than one core's L2
BIG_ORIGIN = np.array([0.0, -1.0, -1.0, -1.0])
BIG_SPACING = np.array([1 / 3, 2 / 63, 2 / 63, 2 / 63])


def simpson_rel_error_bound(k, width, n):
    """Leading Simpson error of prod_i int e^{k_i y} dy, relative, per axis
    (h^4 k^4 / 180 times the spread of e^{k y} over the interval), summed."""
    h = width / n
    return float(np.sum((k * h) ** 4 / 180.0 * (1.0 + np.abs(k) * width)))


class BulkFieldWorkload(Workload):
    """Many independent field points: quadrature, a bound check, a position
    expectation in an fd-Hamiltonian evolution and a grid CSV round trip."""

    name = "bulk-field"
    N3_GRID, N3_ANALYTIC, N1 = 10, 16, 512

    def __init__(self, vf, seed, scratch):
        super().__init__(vf, seed, scratch)
        f, rng = vf.field, self.rng
        ax = _axes(BIG_SHAPE, BIG_ORIGIN, BIG_SPACING)
        a = rng.uniform(-1.0, 1.0, 4)
        c0 = rng.uniform(-0.5, 0.5)
        self.coef, self.c0 = a, c0
        samples = (c0 + a[0] * ax[0][:, None, None, None] + a[1] * ax[1][None, :, None, None]
                   + a[2] * ax[2][None, None, :, None] + a[3] * ax[3][None, None, None, :])
        self.grid = f.GridField(samples, BIG_ORIGIN, BIG_SPACING)
        # the grid's analytic twin: the same linear alpha, exact gradient
        self.analytic = f.AnalyticField(lambda p: c0 + a @ p, lambda p: a.copy())
        x_ref = np.array([rng.uniform(0.2, 0.8), *rng.uniform(-0.3, 0.3, 3)])

        lo = rng.uniform(-0.9, -0.5, 3)
        hi = rng.uniform(0.5, 0.9, 3)
        k = rng.choice([-1.0, 1.0], 3) * rng.uniform(0.2, 1.5, 3)  # total exponent per axis
        b = k - a[1:]
        for label, n in (("grid", self.N3_GRID), ("analytic", self.N3_ANALYTIC)):
            self._integral_3d(f"integral3d-{label}", label, x_ref, lo, hi, b, k, n)
        y0, sigma = rng.uniform(-0.2, 0.2), 0.06
        self._integral_1d("integral1d-grid", "grid", x_ref, 1, y0, sigma)
        self._integral_1d("integral1d-analytic", "analytic", x_ref, 2, y0, sigma)
        box = (np.array([rng.uniform(0.1, 0.4), *rng.uniform(-0.6, -0.3, 3)]),
               np.array([rng.uniform(0.6, 0.9), *rng.uniform(0.3, 0.6, 3)]))
        self._bound_check(box)
        self._evolve(rng)
        csv_grid = f.GridField(rng.normal(size=SMALL_SHAPE), SMALL_ORIGIN, SMALL_SPACING)
        self._csv_round_trip(csv_grid)

    def _field(self, label):
        return self.grid if label == "grid" else self.analytic

    def _integral_3d(self, name, label, x_ref, lo, hi, b, k, n):
        f = self.vf.field

        def run(ctx):
            return f.scaled_integral_3d(lambda q: math.exp(b @ q), ctx.wrap(self._field(label)),
                                        x_ref, lo, hi, n=n)

        # e^{-alpha(x_ref)} int e^{alpha(x_ref[0], q) + b.q} dq factorises per axis
        a = self.coef
        want = math.exp(a[0] * x_ref[0] + self.c0 - (self.c0 + a @ x_ref)) * float(
            np.prod((np.exp(k * hi) - np.exp(k * lo)) / k))
        rtol = 2.0 * simpson_rel_error_bound(k, hi - lo, n) + 1e-12

        def check(got):
            expect_close(name, got, want, rtol)
        self.tasks.append(Task(name, run, check))

    def _integral_1d(self, name, label, x_ref, axis, y0, sigma):
        f = self.vf.field
        norm = 1.0 / (sigma * math.sqrt(2 * math.pi))

        def gauss(y):
            return norm * math.exp(-((y - y0) ** 2) / (2 * sigma ** 2))

        def run(ctx):
            return f.scaled_integral(gauss, ctx.wrap(self._field(label)), x_ref, y0 - 12 * sigma,
                                     y0 + 12 * sigma, n=self.N1, axis=axis)

        # Gaussian moment generating function along the axis
        ka = self.coef[axis]
        want = math.exp(ka * (y0 - x_ref[axis]) + 0.5 * (ka * sigma) ** 2)

        def check(got):
            expect_close(name, got, want, 1e-10)
        self.tasks.append(Task(name, run, check))

    def _bound_check(self, box):
        cos = self.vf.cosmology
        lo, hi = box
        # linear alpha: the largest deviation from the centre is at a corner
        want = float(np.sum(np.abs(self.coef) * (hi - lo) / 2))
        eps = 2.0 * want

        def run(ctx):
            return cos.local_bound_check(ctx.wrap(self.grid), box, eps=eps,
                                         samples_per_axis=200)

        def check(result):
            dev, ok = result
            expect_close("bound-check deviation", dev, want, 1e-9)
            expect("bound-check flag", ok is True)
        self.tasks.append(Task("bound-check-grid", run, check))

    def _evolve(self, rng):
        f, qm = self.vf.field, self.vf.quantum
        n, steps, every, dt = 1024, 200, 10, 5e-3
        y = np.linspace(-40.0, 40.0, n, endpoint=False)
        y0, k0, sigma0 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 1.0
        a0 = rng.uniform(0.1, 0.3)
        kappa = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.5)
        psi0 = qm.gaussian_packet(y, y0=y0, sigma=sigma0, k0=k0)
        ham = qm.HamiltonianSpec("fd")
        qfield = f.AnalyticField(lambda p: kappa * p[1],
                                 lambda p: np.array([0.0, kappa, 0.0, 0.0]))

        def run(ctx):
            fld = ctx.wrap(qfield)
            rows = []

            def observe(i, state):
                if i % every == 0:
                    x_ref = f.spacetime_point(state.t)
                    rows.append((state.t, state.norm_sq(),
                                 qm.position_expectation(state.normalized(), fld, x_ref)))

            psi = qm.evolve(psi0, ham, qm.TimeScaling.constant(a0), dt, steps,
                            observer=observe)
            return psi.psi, np.array(rows)

        ts = dt * every * np.arange(1, steps // every + 1)
        # free Gaussian: |psi|^2 is N(y0 + k0 t, s2(t)), s2 = sigma0^2 (1 + (t / 2 sigma0^2)^2)
        s2 = sigma0 ** 2 * (1.0 + (ts / (2 * sigma0 ** 2)) ** 2)
        mu = y0 + k0 * ts
        want_pos = (mu + kappa * s2) * np.exp(kappa * mu + 0.5 * kappa ** 2 * s2)

        def check(result):
            psi, rows = result
            expect("final amplitudes finite", bool(np.all(np.isfinite(psi.view(float)))))
            expect_close("observer times", rows[:, 0], ts, 1e-9)
            expect_close("damping law", rows[:, 1], np.exp(-2 * a0 * ts), 1e-10)
            # the fd kinetic operator's O(dy^2) dispersion error is ~1e-3 here
            expect_close("position expectation", rows[:, 2], want_pos, 5e-3, 1e-3)
        self.tasks.append(Task("evolve-fd", run, check))

    def _csv_round_trip(self, grid):
        f = self.vf.field
        path = self.scratch / "grid.csv"

        def run(ctx):
            with ctx.span("field.grid_csv"):
                grid.to_csv(path)
                back = f.GridField.from_csv(path)
            return back.samples, back.origin, back.spacing

        def check(result):
            for got, want in zip(result, (grid.samples, grid.origin, grid.spacing)):
                expect("CSV round trip is bit-exact", identical(got, want))
        self.tasks.append(Task("grid-csv", run, check))


WORKLOADS = {w.name: w for w in (ScenariosWorkload, GridTrajectoryWorkload, BulkFieldWorkload)}
