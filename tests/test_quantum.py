import math

import numpy as np
import pytest

from valuefield.errors import NotNormalized
from valuefield.field import AnalyticField, ConstantField, spacetime_point
from valuefield.quantum import (
    HamiltonianSpec,
    TimeScaling,
    WaveFunction1D,
    evolve,
    free_particle_effective_energy,
    gaussian_packet,
    position_expectation,
    schrodinger_step,
    snapshot_to_csv,
    summary_to_csv,
)


def grid(n=1024, half_width=40.0, center=0.0):
    return np.linspace(center - half_width, center + half_width, n, endpoint=False)


class TestWaveFunction:
    def test_gaussian_packet_normalized(self):
        psi = gaussian_packet(grid(), sigma=1.0)
        assert psi.norm_sq() == pytest.approx(1.0, abs=1e-13)

    def test_nonuniform_grid_rejected(self):
        y = np.array([0.0, 1.0, 2.5])
        with pytest.raises(ValueError):
            WaveFunction1D(y, np.ones(3, dtype=complex))

    def test_non_finite_amplitudes_rejected(self):
        y = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            WaveFunction1D(y, np.array([1.0, float("nan"), 0.0], dtype=complex))

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
        assert sc.rate(12.0) == 0.3
        assert sc.damping_exponent(1.0, 3.0) == pytest.approx(0.6, rel=1e-15)

    def test_rate_derived_from_alpha(self):
        sc = TimeScaling(alpha=lambda t: 0.5 * t * t)
        assert sc.rate(2.0) == pytest.approx(2.0, rel=1e-6)

    def test_exponent_from_rate_only(self):
        # quadratic alpha: Simpson is exact for its linear rate
        sc = TimeScaling(rate=lambda t: 3.0 * t)
        assert sc.damping_exponent(0.0, 2.0) == pytest.approx(6.0, rel=1e-14)

    def test_requires_something(self):
        with pytest.raises(ValueError):
            TimeScaling()

    def test_rate_consistency_detects_mismatch(self):
        good = TimeScaling(alpha=lambda t: 0.3 * t, rate=lambda t: 0.3)
        bad = TimeScaling(alpha=lambda t: 0.3 * t, rate=lambda t: 0.7)
        assert good.rate_consistency(1.0) <= 1e-9
        assert bad.rate_consistency(1.0) == pytest.approx(0.4, rel=1e-6)


class TestEvolution:
    def test_zero_scaling_is_unitary(self):
        psi = gaussian_packet(grid(), sigma=1.0)
        ham = HamiltonianSpec("spectral")
        out = evolve(psi, ham, TimeScaling.zero(), dt=1e-3, n_steps=1000)
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
        out = schrodinger_step(psi, ham, TimeScaling.constant(0.4), dt=0.25)
        expected = 0.5 * math.exp(-0.4 * 0.25)
        assert np.allclose(out.psi, expected, rtol=1e-13, atol=1e-15)

    def test_negative_rate_grows_norm(self):
        psi = gaussian_packet(grid(), sigma=1.0)
        ham = HamiltonianSpec("spectral")
        out = evolve(psi, ham, TimeScaling.constant(-0.3), dt=1e-3, n_steps=200)
        assert out.norm_sq() > 1.0

    def test_free_dispersion_matches_analytic(self):
        hbar, mass, sigma0 = 1.0, 1.0, 1.0
        psi = gaussian_packet(grid(), sigma=sigma0)
        ham = HamiltonianSpec("spectral", mass=mass, hbar=hbar)
        t_final = 2.0
        out = evolve(psi, ham, TimeScaling.zero(), dt=1e-3, n_steps=2000)
        dens = out.probability_density()
        mean = float(np.sum(dens * out.y) * out.dy)
        var = float(np.sum(dens * (out.y - mean) ** 2) * out.dy)
        sigma_exact = sigma0 * math.sqrt(1 + (hbar * t_final / (2 * mass * sigma0 ** 2)) ** 2)
        assert math.sqrt(var) == pytest.approx(sigma_exact, rel=1e-4)

    def test_fd_kinetic_norm_preserving(self):
        psi = gaussian_packet(grid(n=512, half_width=25.0), sigma=1.0)
        ham = HamiltonianSpec("fd")
        out = evolve(psi, ham, TimeScaling.zero(), dt=1e-3, n_steps=300)
        assert abs(out.norm_sq() - 1.0) <= 1e-10

    def test_second_order_grid_refinement(self):
        # moving packet: <y>(T) = y0 + (hbar k0 / m) T for the exact dynamics;
        # the tridiagonal kinetic term underestimates the group velocity at
        # O(dy^2), so halving (dy, dt) should shrink the error ~4x
        hbar, mass, k0, t_final = 1.0, 1.0, 2.0, 0.5
        errs = []
        for n in (256, 512):
            y = grid(n=n, half_width=20.0)
            psi = gaussian_packet(y, y0=-3.0, sigma=1.5, k0=k0)
            ham = HamiltonianSpec("fd", mass=mass, hbar=hbar)
            steps = int(t_final / (2e-3 * 256 / n))
            out = evolve(psi, ham, TimeScaling.zero(), dt=t_final / steps, n_steps=steps)
            dens = out.probability_density()
            mean = float(np.sum(dens * out.y) * out.dy)
            errs.append(abs(mean - (-3.0 + hbar * k0 / mass * t_final)))
        ratio = errs[0] / errs[1]
        assert 2.5 <= ratio <= 6.0


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

    def test_unnormalized_rejected(self):
        psi = gaussian_packet(grid(), sigma=1.0)
        bad = WaveFunction1D(psi.y, 1.5 * psi.psi, psi.t)
        with pytest.raises(NotNormalized):
            position_expectation(bad, ConstantField(0.0), spacetime_point())


class TestEffectiveEnergy:
    def test_zero_rate(self):
        assert free_particle_effective_energy(1.7, 0.0, 1.0) == 1.7 + 0j

    def test_hubble_rate_magnitude(self):
        # 1 eV energy, A = 2.3e-18 1/s: imaginary part hbar*A ~ 1.5e-33 eV
        hbar_ev_s = 6.582119569e-16
        out = free_particle_effective_energy(1.0, 2.3e-18, hbar_ev_s)
        assert out.real == 1.0
        assert out.imag == pytest.approx(1.514e-33, rel=1e-3)

    def test_expanding_universe_sign(self):
        out = free_particle_effective_energy(1.0, -2.3e-18, 1.0)
        assert out.imag < 0  # negative A: norm grows, e^{-2 int A} > 1


class TestCsvOutputs:
    def test_snapshot_schema(self, tmp_path):
        psi = gaussian_packet(grid(n=16, half_width=2.0))
        path = tmp_path / "snap.csv"
        snapshot_to_csv(psi, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,y,re_psi,im_psi,prob_density"
        assert len(lines) == 17

    def test_summary_schema(self, tmp_path):
        path = tmp_path / "summary.csv"
        summary_to_csv([(0.0, 1.0, 0.5), (0.1, 0.9, 0.4)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,norm_sq,position_expectation"
        assert len(lines) == 3
