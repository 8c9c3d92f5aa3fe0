import math

import numpy as np
import pytest

from valuefield import quantum
from valuefield.errors import NotNormalized, StepUnstable
from valuefield.field import AnalyticField, ConstantField, spacetime_point
from valuefield.quantum import (
    HamiltonianSpec,
    TimeScaling,
    WaveFunction1D,
    _check_lapack,
    _CrankNicolson,
    evolve,
    gaussian_packet,
    position_expectation,
)
from valuefield.scenarios import run_scenario


def grid(n=1024, half_width=40.0, center=0.0):
    return np.linspace(center - half_width, center + half_width, n, endpoint=False)


SCALINGS = {
    "constant": TimeScaling.constant(0.25),
    "varying": TimeScaling(alpha=lambda t: 0.2 * t + 0.05 * math.sin(3 * t)),
    "zero": TimeScaling.constant(0.0),
}


def reference_steps(psi, ham, scaling, dt, n_steps):
    """The position-space loop, one step at a time: the damping factor times
    ifft(mult * fft(psi)) for spectral, times the fd solve for fd. Returns the
    (t, amplitudes) after each step."""
    cn = _CrankNicolson(psi.psi.size, psi.dy, ham, dt)
    amp, t, out = psi.psi, psi.t, []
    for _ in range(n_steps):
        damping = math.exp(-(scaling.alpha(t + dt) - scaling.alpha(t)))
        if ham.kind == "spectral":
            kinetic = np.fft.ifft(cn.mult * np.fft.fft(amp))
        else:
            kinetic = cn.apply(amp)
        amp, t = damping * kinetic, t + dt
        out.append((t, amp))
    return out


def bits(amp):
    return amp.view(np.uint64)


class TestWaveFunction:
    def test_gaussian_packet_normalized(self):
        psi = gaussian_packet(grid(), sigma=1.0)
        assert psi.norm_sq() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_gaussian_width_that_is_not_finite_and_positive_is_refused(self, sigma):
        # 0 divided by zero, -1 gave the packet of width 1, nan and inf were
        # refused as amplitudes or as a norm
        with pytest.raises(ValueError, match="^sigma must be finite and positive"):
            gaussian_packet(grid(), sigma=sigma)

    @pytest.mark.parametrize("y, psi", [(np.linspace(0.0, 1.0, 4), np.zeros(3)),
                                        (np.zeros((2, 2)), np.zeros((2, 2)))],
                             ids=["lengths-differ", "2-D"])
    def test_grid_and_amplitudes_that_are_not_matching_1d_arrays_rejected(self, y, psi):
        with pytest.raises(ValueError, match="^grid and amplitudes must be matching 1-D"):
            WaveFunction1D(y, psi)

    def test_nonuniform_grid_rejected(self):
        y = np.array([0.0, 1.0, 2.5])
        with pytest.raises(ValueError):
            WaveFunction1D(y, np.ones(3, dtype=complex))

    @pytest.mark.parametrize("y", [[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [5.0, 5.0],
                                   [0.0, math.inf], [math.nan, 1.0]],
                             ids=["decreasing", "zero-3", "zero-2", "inf", "nan"])
    def test_spacing_that_is_not_finite_and_positive_rejected(self, y):
        # each would give a norm that is negative, zero, inf or NaN
        with pytest.raises(ValueError, match="grid spacing must be finite and positive"):
            WaveFunction1D(np.array(y), np.ones(len(y), dtype=complex))

    @pytest.mark.parametrize("y", [[0.0], []], ids=["one-point", "empty"])
    def test_grid_of_fewer_than_two_points_rejected(self, y):
        with pytest.raises(ValueError, match="grid needs at least 2 points"):
            WaveFunction1D(np.array(y), np.ones(len(y), dtype=complex))
        with pytest.raises(ValueError, match="grid needs at least 2 points"):
            gaussian_packet(np.array(y))

    def test_non_finite_amplitudes_rejected(self):
        y = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            WaveFunction1D(y, np.array([1.0, float("nan"), 0.0], dtype=complex))

    def test_normalized_divides_by_the_root_norm_on_the_same_grid(self):
        y = grid(256, half_width=20.0)
        psi = WaveFunction1D(y, (1.5 + 0.5j) * np.exp(-(y - 0.3) ** 2 + 0.7j * y), t=0.25)
        out = psi.normalized()
        assert np.array_equal(bits(out.psi), bits(psi.psi / math.sqrt(psi.norm_sq())))
        assert out.y is psi.y and out.t == psi.t

    def test_normalized_amplitudes_that_are_not_finite_are_refused(self):
        # |psi_i| / sqrt(norm^2) is at most 1 / sqrt(dy), so only a norm that
        # disagrees with the amplitudes, stubbed here, lets the quotient overflow
        psi = WaveFunction1D(grid(4), np.full(4, 1e300, dtype=complex))
        psi.norm_sq = lambda: 1e-320
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="^amplitudes must be finite$"):
            psi.normalized()

    def test_vanished_norm_is_not_normalized(self):
        # damping e^{-a0 dt} underflows to zero over one huge step
        psi = evolve(gaussian_packet(grid(), sigma=1.0), HamiltonianSpec(),
                     TimeScaling.constant(0.25), 1e6, 1)
        with pytest.raises(NotNormalized, match=r"norm\^2 = 0\.0"):
            psi.normalized()

    def test_infinite_norm_is_not_normalized(self):
        psi = WaveFunction1D(grid(4), np.full(4, 1e200, dtype=complex))
        with np.errstate(over="ignore"), pytest.raises(NotNormalized, match="inf"):
            psi.normalized()


class TestTimeScaling:
    def test_constant_rate(self):
        sc = TimeScaling.constant(0.3)
        assert sc.alpha(12.0) == 0.3 * 12.0
        assert sc.alpha(3.0) - sc.alpha(1.0) == pytest.approx(0.6, rel=1e-15)

    def test_requires_something(self):
        with pytest.raises(TypeError):
            TimeScaling()


class TestHamiltonianSpec:
    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="^kind must be 'spectral' or 'fd'"):
            HamiltonianSpec("chebyshev")


class TestEvolution:
    @pytest.mark.parametrize("dt", [float("nan"), float("inf")], ids=["dt=nan", "dt=inf"])
    def test_non_finite_dt_is_refused_before_any_operator_is_built(self, dt):
        # RuntimeWarnings are errors in this suite, so a NaN operator fails here too
        psi = gaussian_packet(grid(n=16, half_width=2.0))
        with pytest.raises(ValueError, match="^dt must be finite and positive"):
            evolve(psi, HamiltonianSpec(), TimeScaling.constant(0.0), dt, 1)

    def test_zero_scaling_is_unitary(self):
        psi = gaussian_packet(grid(), sigma=1.0)
        ham = HamiltonianSpec("spectral")
        out = evolve(psi, ham, TimeScaling.constant(0.0), dt=1e-3, n_steps=1000)
        assert abs(out.norm_sq() - 1.0) <= 1e-10

    def test_constant_damping_law(self):
        a0 = 0.25
        psi = gaussian_packet(grid(), sigma=1.0)
        ham = HamiltonianSpec("spectral")
        out = evolve(psi, ham, TimeScaling.constant(a0), dt=1e-3, n_steps=1000)
        conserved = out.norm_sq() * math.exp(2 * a0 * out.t)
        assert abs(conserved - 1.0) <= 1e-8

    def test_time_varying_rate_norm_law(self):
        scaling = TimeScaling(alpha=lambda t: 0.2 * t + 0.05 * math.sin(3 * t))
        psi = gaussian_packet(grid(), sigma=1.0)
        ham = HamiltonianSpec("spectral")
        out = evolve(psi, ham, scaling, dt=1e-3, n_steps=500)
        conserved = out.norm_sq() * math.exp(2 * scaling.alpha(out.t))
        assert abs(conserved - 1.0) <= 1e-6

    def test_pure_damping_limit(self):
        # constant amplitudes are annihilated by the kinetic operator, so the
        # step reduces to the exact damping factor
        n = 64
        y = grid(n=n, half_width=2.0)
        psi = WaveFunction1D(y, np.full(n, 0.5 + 0.0j))
        ham = HamiltonianSpec("spectral")
        out = evolve(psi, ham, TimeScaling.constant(0.4), 0.25, 1)
        expected = 0.5 * math.exp(-0.4 * 0.25)
        assert np.allclose(out.psi, expected, rtol=1e-13, atol=1e-15)

    def test_negative_rate_grows_norm(self):
        psi = gaussian_packet(grid(), sigma=1.0)
        ham = HamiltonianSpec("spectral")
        out = evolve(psi, ham, TimeScaling.constant(-0.3), dt=1e-3, n_steps=200)
        assert out.norm_sq() > 1.0

    def test_free_dispersion_matches_analytic(self):
        sigma0 = 1.0  # hbar = m = 1
        psi = gaussian_packet(grid(), sigma=sigma0)
        ham = HamiltonianSpec("spectral")
        t_final = 2.0
        out = evolve(psi, ham, TimeScaling.constant(0.0), dt=1e-3, n_steps=2000)
        dens = out.probability_density()
        mean = float(np.sum(dens * out.y) * out.dy)
        var = float(np.sum(dens * (out.y - mean) ** 2) * out.dy)
        sigma_exact = sigma0 * math.sqrt(1 + (t_final / (2 * sigma0 ** 2)) ** 2)
        assert math.sqrt(var) == pytest.approx(sigma_exact, rel=1e-4)

    def test_fd_kinetic_norm_preserving(self):
        psi = gaussian_packet(grid(n=512, half_width=25.0), sigma=1.0)
        ham = HamiltonianSpec("fd")
        out = evolve(psi, ham, TimeScaling.constant(0.0), dt=1e-3, n_steps=300)
        assert abs(out.norm_sq() - 1.0) <= 1e-10

    def test_fd_step_equals_a_fresh_banded_solve_bit_for_bit(self):
        from scipy.linalg import solve_banded  # the reference the factored step replaces
        n, dy, dt = 300, 0.1, 0.05
        cn = _CrankNicolson(n, dy, HamiltonianSpec("fd"), dt)
        lam = dt / 2.0
        kappa = 1.0 / (2.0 * dy ** 2)
        off = np.full(n - 1, -kappa)
        ab = np.zeros((3, n), dtype=complex)
        ab[0, 1:] = 1j * lam * off
        ab[1, :] = 1.0 + 1j * lam * np.full(n, 2.0 * kappa)
        ab[2, :-1] = 1j * lam * off
        rng = np.random.default_rng(11)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        want = psi.copy()
        for _ in range(200):
            psi = cn.apply(psi)
            rhs = cn.b_diag * want
            rhs[:-1] += cn.b_off * want[1:]
            rhs[1:] += cn.b_off * want[:-1]
            want = solve_banded((1, 1), ab, rhs)
            assert np.array_equal(psi.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("info", [1, 7, -2])
    def test_a_failed_lapack_call_raises_linalg_error(self, info):
        with pytest.raises(np.linalg.LinAlgError):
            _check_lapack("zgttrs", info)
        _check_lapack("zgttrs", 0)

    def test_second_order_grid_refinement(self):
        # moving packet: <y>(T) = y0 + k0 T for the exact dynamics (hbar = m = 1);
        # the tridiagonal kinetic term underestimates the group velocity at
        # O(dy^2), so halving (dy, dt) should shrink the error ~4x
        k0, t_final = 2.0, 0.5
        errs = []
        for n in (256, 512):
            y = grid(n=n, half_width=20.0)
            psi = gaussian_packet(y, y0=-3.0, sigma=1.5, k0=k0)
            ham = HamiltonianSpec("fd")
            steps = int(t_final / (2e-3 * 256 / n))
            out = evolve(psi, ham, TimeScaling.constant(0.0), dt=t_final / steps, n_steps=steps)
            dens = out.probability_density()
            mean = float(np.sum(dens * out.y) * out.dy)
            errs.append(abs(mean - (-3.0 + k0 * t_final)))
        ratio = errs[0] / errs[1]
        assert 2.5 <= ratio <= 6.0


class TestSubstepBasis:
    """``evolve`` keeps the state in the substep's basis (Fourier space for the
    spectral kinetic operator) and hands position-space states to its observer."""

    N_STEPS, DT = 200, 2e-3

    def packet(self):
        return gaussian_packet(grid(n=256, half_width=20.0), y0=1.0, sigma=1.2, k0=0.7)

    def observed_run(self, ham, scaling, **kwargs):
        seen = []
        out = evolve(self.packet(), ham, scaling, self.DT, self.N_STEPS,
                     observer=lambda i, state: seen.append((i, state.t, state.psi)), **kwargs)
        return out, seen

    @pytest.mark.parametrize("every", [1, 7, 20])
    @pytest.mark.parametrize("scaling", SCALINGS.values(), ids=SCALINGS.keys())
    def test_spectral_evolve_matches_the_position_space_loop(self, scaling, every):
        ham = HamiltonianSpec("spectral")
        want = reference_steps(self.packet(), ham, scaling, self.DT, self.N_STEPS)
        out, seen = self.observed_run(ham, scaling, every=every)
        assert [i for i, _, _ in seen] == list(range(every, self.N_STEPS + 1, every))
        for i, t, amp in seen:
            assert t == want[i - 1][0]
            assert np.max(np.abs(amp - want[i - 1][1])) <= 1e-12
        assert out.t == want[-1][0]
        assert np.max(np.abs(out.psi - want[-1][1])) <= 1e-12

    @pytest.mark.parametrize("every", [None, 1, 7])
    @pytest.mark.parametrize("scaling", SCALINGS.values(), ids=SCALINGS.keys())
    def test_fd_evolve_is_the_position_space_loop_bit_for_bit(self, scaling, every):
        ham = HamiltonianSpec("fd")
        want = reference_steps(self.packet(), ham, scaling, self.DT, self.N_STEPS)
        out, seen = self.observed_run(ham, scaling, **({} if every is None else {"every": every}))
        assert [i for i, _, _ in seen] == list(range(every or 1, self.N_STEPS + 1, every or 1))
        for i, t, amp in seen:
            assert t == want[i - 1][0]
            assert np.array_equal(bits(amp), bits(want[i - 1][1]))
        assert np.array_equal(bits(out.psi), bits(want[-1][1]))

    @pytest.mark.parametrize("kind", ["spectral", "fd"])
    def test_one_step_without_a_cached_substep(self, kind):
        ham = HamiltonianSpec(kind)
        scaling = SCALINGS["varying"]
        psi = self.packet()
        (t, want), = reference_steps(psi, ham, scaling, self.DT, 1)
        out = evolve(psi, ham, scaling, self.DT, 1)
        assert out.t == t
        if kind == "fd":
            assert np.array_equal(bits(out.psi), bits(want))
        else:
            assert np.max(np.abs(out.psi - want)) <= 1e-12

    @pytest.mark.parametrize("kind", ["spectral", "fd"])
    def test_zero_steps_return_the_input_amplitudes(self, kind):
        psi = self.packet()
        seen = []
        out = evolve(psi, HamiltonianSpec(kind), SCALINGS["constant"], self.DT, 0,
                     observer=lambda *a: seen.append(a))
        assert out.t == psi.t and np.array_equal(bits(out.psi), bits(psi.psi))
        assert seen == []

    @pytest.mark.parametrize("scaling", SCALINGS.values(), ids=SCALINGS.keys())
    @pytest.mark.parametrize("kind", ["spectral", "fd"])
    def test_step_is_the_damping_times_the_substep_bit_for_bit(self, kind, scaling):
        ham = HamiltonianSpec(kind)
        psi = self.packet()
        cn = _CrankNicolson(psi.psi.size, psi.dy, ham, self.DT)
        state = cn.into(psi)
        for _ in range(3):
            damping = math.exp(-(scaling.alpha(state.t + self.DT) - scaling.alpha(state.t)))
            want = damping * cn.apply(state.psi)
            before = state.psi.copy()
            out = quantum.schrodinger_step(state, ham, scaling, cn)
            assert np.array_equal(bits(out.psi), bits(want))
            assert np.array_equal(bits(state.psi), bits(before))  # the input is left as it was
            assert out.t == state.t + self.DT and out.y is state.y
            state = out

    @pytest.mark.parametrize("every", [0, -1])
    def test_every_below_one_is_refused(self, every):
        with pytest.raises(ValueError, match="^every must be"):
            evolve(self.packet(), HamiltonianSpec(), TimeScaling.constant(0.0), self.DT, 10,
                   every=every)

    def test_negative_step_count_is_refused(self):
        with pytest.raises(ValueError, match="^n_steps must be a step count of 0 or more"):
            evolve(self.packet(), HamiltonianSpec(), TimeScaling.constant(0.0), self.DT, -5)

    @pytest.mark.parametrize("kind", ["spectral", "fd"])
    def test_amplitudes_that_overflow_are_an_unstable_step(self, kind):
        # a growth of e^{700} per unit step overflows the amplitudes within 3 steps
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepUnstable, match="^non-finite amplitudes"):
                evolve(self.packet(), HamiltonianSpec(kind), TimeScaling.constant(-700.0), 1.0, 3)

    def test_evolve_calls_the_module_step_once_per_step(self, monkeypatch):
        # a tracer times the Crank-Nicolson steps by wrapping this module
        # attribute, so evolve must go through it on every step
        step, substeps = quantum.schrodinger_step, []

        def counting(*args, **kwargs):
            substeps.append(args[3])
            return step(*args, **kwargs)

        monkeypatch.setattr(quantum, "schrodinger_step", counting)
        evolve(self.packet(), HamiltonianSpec("spectral"), SCALINGS["constant"], self.DT, 37,
               observer=lambda *a: None, every=5)
        assert len(substeps) == 37
        assert all(isinstance(cn, _CrankNicolson) for cn in substeps)

class TestPositionExpectation:
    def test_flat_field_symmetric_packet(self):
        psi = gaussian_packet(grid(), y0=0.0, sigma=1.0)
        out = position_expectation(psi, ConstantField(0.0), spacetime_point())
        assert out == pytest.approx(0.0, abs=1e-12)

    def test_flat_field_recovers_plain_mean(self):
        psi = gaussian_packet(grid(center=0.0), y0=3.25, sigma=0.9)
        out = position_expectation(psi, ConstantField(0.0), spacetime_point())
        plain = float(np.sum(psi.y * psi.probability_density()) * psi.dy)
        assert out == plain  # identical code path when the weights are 1

    def test_exponential_weight_shifts_mean(self):
        # frozen from an adaptive-quadrature oracle of
        # e^{-k x_r} int e^{k y} y N(y; y0, sigma^2) dy
        k, y0, sigma, x_r = 0.3, 0.5, 0.8, 0.4
        oracle = 0.7339096699790222
        psi = gaussian_packet(grid(n=4096, half_width=25.0, center=y0), y0=y0, sigma=sigma)
        fld = AnalyticField(lambda p: k * p[1])
        out = position_expectation(psi, fld, spacetime_point(0.0, x_r))
        assert out == pytest.approx(oracle, rel=1e-8)

    def test_one_batched_field_call_gives_the_two_call_value_bit_for_bit(self):
        class CountingField(AnalyticField):
            calls = []

            def alpha(self, p):
                self.calls.append(np.shape(p))
                return super().alpha(p)

        psi = gaussian_packet(grid(n=256, half_width=10.0), y0=0.5, sigma=0.8)
        fld, x_ref = CountingField(lambda p: 0.3 * p[1] + 0.1 * p[0]), [0.2, 0.4, 0.0, 0.0]
        out = position_expectation(psi, fld, x_ref)
        assert fld.calls == [(257, 4)]  # x_ref in row 0, then the 256 grid points
        points = np.zeros((256, 4))
        points[:, 0], points[:, 1] = psi.t, psi.y
        total = float(np.sum(np.exp(fld.alpha(points)) * psi.y * psi.probability_density())
                      * psi.dy)
        assert out == math.exp(-fld.alpha(x_ref)) * total

    def test_unnormalized_rejected(self):
        psi = gaussian_packet(grid(), sigma=1.0)
        bad = WaveFunction1D(psi.y, 1.5 * psi.psi, psi.t)
        with pytest.raises(NotNormalized):
            position_expectation(bad, ConstantField(0.0), spacetime_point())

    def test_a_norm_that_is_nan_is_not_normalized(self, monkeypatch):
        psi = gaussian_packet(grid(), sigma=1.0)
        monkeypatch.setattr(psi, "norm_sq", lambda: math.nan)
        with pytest.raises(NotNormalized, match=r"^norm\^2 = nan"):
            position_expectation(psi, ConstantField(0.0), spacetime_point())


def effective_energy(rate, hbar, dt=1e17):
    """E + i hbar A, the plane-wave energy seen by the covariant time
    derivative, read off one step on the zero-energy plane wave: its constant
    amplitudes come back times e^{-i E dt / hbar} e^{-A dt}. The solver works
    in hbar = 1; the energy is scaled to ``hbar`` here."""
    n = 64
    psi = WaveFunction1D(grid(n=n, half_width=2.0), np.full(n, 0.5 + 0.0j))
    out = evolve(psi, HamiltonianSpec("spectral"), TimeScaling.constant(rate), dt, 1)
    log = np.log(out.psi / psi.psi)
    return hbar * (-log.imag - 1j * log.real) / dt


class TestEffectiveEnergy:
    def test_zero_rate(self):
        assert np.abs(effective_energy(0.0, 1.0, dt=0.25)).max() <= 1e-14

    def test_hubble_rate_magnitude(self):
        # A = 2.3e-18 1/s over about the age of the universe: imaginary part
        # hbar*A ~ 1.5e-33 eV, and no real (phase) part at zero energy
        hbar_ev_s = 6.582119569e-16
        out = effective_energy(2.3e-18, hbar_ev_s)
        assert np.abs(out.real).max() <= 1e-45
        assert out.imag == pytest.approx(1.514e-33, rel=1e-3)

    def test_expanding_universe_sign(self):
        out = effective_energy(-2.3e-18, 1.0)
        assert (out.imag < 0).all()  # negative A: norm grows, e^{-2 int A} > 1


class TestCsvOutputs:
    def test_snapshot_schema(self, tmp_path):
        n = 16
        run_scenario("schrodinger", {"n": str(n), "steps": "10"}, tmp_path)
        lines = (tmp_path / "schrodinger_snapshot.csv").read_text().splitlines()
        assert lines[0] == "t,y,re_psi,im_psi,prob_density"
        assert len(lines) == 1 + n

    def test_summary_schema(self, tmp_path):
        steps = 120  # an observation every 2 steps
        run_scenario("schrodinger", {"n": "16", "steps": str(steps)}, tmp_path)
        lines = (tmp_path / "schrodinger_summary.csv").read_text().splitlines()
        assert lines[0] == "t,norm_sq,position_expectation"
        assert len(lines) == 1 + steps // max(1, steps // 50)
