"""Stability classification, discriminant factors and dimensional analysis."""

import math

import numpy as np
import pytest

from hemoflow.analysis import (
    DimensionalScales,
    classify_eigenvalues,
    dimensional_coefficients,
    discriminant_factors,
    eigenvalues_pin_pout,
    eigenvalues_pin_qout,
    eigenvalues_qin_pout,
    eigenvalues_qin_qout,
    format_network_report,
    stability_report,
    velocity_stats,
)
from hemoflow.netio import aortic_bifurcation
from hemoflow.vessel import FluidProps, VesselSpec, WallModel, lumped_constants
from oracle0d import matrix_pin_pout, matrix_pin_qout, matrix_qin_pout, matrix_qin_qout


def _sorted(eigs):
    return sorted(eigs, key=lambda z: (round(z.real, 12), z.imag))


class TestClosedForms:
    def test_critically_damped_hand_case(self):
        # R0 = 2, L0 = 1, C0 = 1: lambda^2 + 2 lambda + 1 -> double root -1
        eigs = eigenvalues_pin_qout(2.0, 1.0, 1.0)
        assert eigs[0] == eigs[1] == complex(-1.0)

    def test_lossless_oscillator(self):
        # R0 = 0: purely imaginary pair at +/- i/sqrt(C0 L0)
        eigs = eigenvalues_pin_qout(0.0, 2.0, 0.5)
        freq = 1.0 / math.sqrt(0.5 * 2.0)
        assert _sorted(eigs) == [complex(0.0, -freq), complex(0.0, freq)]

    def test_qin_pout_identical_spectrum(self):
        assert eigenvalues_qin_pout(3.0, 2.0, 0.1) == \
            eigenvalues_pin_qout(3.0, 2.0, 0.1)

    def test_pin_pout_hand_case(self):
        # R0 = 4, L0 = C0 = 1: -R0/L0 = -4 plus double root of
        # lambda^2 + 4 lambda + 4 -> (-4, -2, -2)
        eigs = eigenvalues_pin_pout(4.0, 1.0, 1.0)
        assert _sorted(eigs) == [complex(-4.0), complex(-2.0), complex(-2.0)]

    def test_qin_qout_hand_case(self):
        eigs = eigenvalues_qin_qout(4.0, 1.0, 1.0)
        assert eigs[0] == complex(0.0)
        assert _sorted(eigs[1:]) == [complex(-2.0), complex(-2.0)]

    def test_benchmark_decay_rate(self):
        # underdamped pair with real part exactly -R0/(2 L0)
        wall = WallModel.arterial(A0=2.3235, h0=0.1032, E=5.0e6)
        spec = VesselSpec(vessel_id="aorta", length=8.6, wall=wall,
                          fluid=FluidProps(rho=1.06, mu=0.04, zeta=9.0))
        cons = lumped_constants(spec)
        eigs = eigenvalues_pin_qout(cons.R0, cons.L0, cons.C0)
        assert all(ev.imag != 0.0 for ev in eigs)
        for ev in eigs:
            assert ev.real == pytest.approx(-cons.R0 / (2.0 * cons.L0),
                                            rel=1e-12)
        assert eigs[0].real == pytest.approx(-0.561, rel=2e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            eigenvalues_pin_qout(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            eigenvalues_qin_qout(1.0, 0.0, 1.0)


class TestMatricesAgree:
    CASES = [(2.0, 1.0, 1.0), (0.5, 3.0, 0.01), (1.0e3, 0.1, 1.0e-5),
             (0.0, 1.0, 1.0), (7.0, 2.0, 4.0)]

    @pytest.mark.parametrize("R0,L0,C0", CASES)
    def test_two_state(self, R0, L0, C0):
        for closed, matrix in ((eigenvalues_pin_qout, matrix_pin_qout),
                               (eigenvalues_qin_pout, matrix_qin_pout)):
            want = _sorted(closed(R0, L0, C0))
            got = _sorted(np.linalg.eigvals(matrix(R0, L0, C0)))
            scale = max(abs(ev) for ev in want) or 1.0
            for w, g in zip(want, got):
                assert abs(w - g) < 1e-9 * scale

    @pytest.mark.parametrize("R0,L0,C0", CASES)
    def test_three_state(self, R0, L0, C0):
        for closed, matrix in ((eigenvalues_pin_pout, matrix_pin_pout),
                               (eigenvalues_qin_qout, matrix_qin_qout)):
            want = _sorted(closed(R0, L0, C0))
            got = _sorted(np.linalg.eigvals(matrix(R0, L0, C0)))
            scale = max(abs(ev) for ev in want) or 1.0
            for w, g in zip(want, got):
                assert abs(w - g) < 1e-8 * scale

    def test_qin_qout_conserves_total_volume(self):
        # the row sums of the V rows are the flows in/out; the matrix has a
        # left null vector (1, 0, 1): total volume is invariant
        M = matrix_qin_qout(3.0, 2.0, 0.5)
        np.testing.assert_allclose(np.array([1.0, 0.0, 1.0]) @ M, 0.0,
                                   atol=1e-15)


class TestClassification:
    def test_stable(self):
        assert classify_eigenvalues([complex(-1.0), complex(-0.5, 2.0)]) == \
            "asymptotically stable"

    def test_marginal(self):
        assert classify_eigenvalues([complex(0.0), complex(-2.0)]) == \
            "marginal (zero eigenvalue)"

    def test_unstable(self):
        assert classify_eigenvalues([complex(0.1), complex(-2.0)]) == \
            "unstable"

    def test_reports(self):
        rep = stability_report("PinQout", 2.0, 1.0, 1.0)
        assert rep.eigenvalues == (complex(-1.0), complex(-1.0))
        assert rep.classification == "asymptotically stable"
        rep = stability_report("QinQout", 4.0, 1.0, 1.0)
        assert rep.classification == "marginal (zero eigenvalue)"


class TestDiscriminantFactors:
    def _spec(self, length, A0=2.3235, h0=0.1032, E=5.0e6):
        wall = WallModel.arterial(A0=A0, h0=h0, E=E)
        return VesselSpec(vessel_id="v", length=length, wall=wall,
                          fluid=FluidProps(rho=1.06, mu=0.04, zeta=9.0))

    def test_benchmark_values(self, bifurcation):
        f1_a, f2_a, sign_a = discriminant_factors(bifurcation.vessels["aorta"])
        assert f1_a == pytest.approx(2.4695, rel=5e-4)
        assert f2_a == pytest.approx(1.6e5, rel=5e-4)
        assert sign_a == -1
        f1_i, f2_i, sign_i = discriminant_factors(
            bifurcation.vessels["left_iliac"])
        assert f1_i == pytest.approx(7.1870, rel=5e-4)
        assert f2_i == pytest.approx(1.58118e5, rel=5e-4)
        assert sign_i == -1

    def test_sign_flips_with_length(self):
        # f1 grows linearly with l and f2 decays as 1/l: a long enough
        # vessel becomes overdamped
        short = self._spec(8.6)
        long = self._spec(8.6e3)
        assert discriminant_factors(short)[2] == -1
        assert discriminant_factors(long)[2] == 1

    def test_crossover_length(self):
        # f1 = a*l, f2 = b/l cross at l = sqrt(b/a)
        spec = self._spec(1.0)
        a = discriminant_factors(spec)[0]
        b = discriminant_factors(spec)[1]
        l_star = math.sqrt(b / a)
        assert discriminant_factors(self._spec(0.99 * l_star))[2] == -1
        assert discriminant_factors(self._spec(1.01 * l_star))[2] == 1


class TestDimensionalAnalysis:
    def test_convective_to_pressure_is_mach_squared(self):
        scales = DimensionalScales(T0=1.1, ell_scale=8.6, A0=2.0, U0=20.0)
        coeff = dimensional_coefficients(scales, c=500.0, k_R=2.6, A0=2.0)
        assert coeff.convective_to_pressure == pytest.approx(
            (20.0 / 500.0) ** 2, rel=1e-12)

    def test_velocity_equal_to_wave_speed(self):
        scales = DimensionalScales(T0=1.0, ell_scale=1.0, A0=1.0, U0=500.0)
        coeff = dimensional_coefficients(scales, c=500.0, k_R=1.0, A0=1.0)
        assert coeff.convective_to_pressure == pytest.approx(1.0, rel=1e-12)

    def test_ratios_independent_of_t0_and_length(self):
        a = dimensional_coefficients(
            DimensionalScales(T0=1.1, ell_scale=8.6, A0=2.0, U0=20.0),
            c=500.0, k_R=2.6, A0=2.0)
        b = dimensional_coefficients(
            DimensionalScales(T0=0.8, ell_scale=12.0, A0=2.0, U0=20.0),
            c=500.0, k_R=2.6, A0=2.0)
        assert a.convective_to_pressure == pytest.approx(
            b.convective_to_pressure, rel=1e-12)
        # friction/pressure ratio does depend on the length scale
        assert a.friction_to_pressure != b.friction_to_pressure

    def test_friction_ratio_formula(self):
        scales = DimensionalScales(T0=2.0, ell_scale=4.0, A0=3.0, U0=10.0)
        coeff = dimensional_coefficients(scales, c=100.0, k_R=1.5, A0=3.0)
        gamma_P = 2.0 * 100.0 ** 2 / (4.0 * 10.0)
        assert coeff.gamma_F == pytest.approx(1.5 * 2.0 / 3.0, rel=1e-12)
        assert coeff.friction_to_pressure == pytest.approx(
            coeff.gamma_F / gamma_P, rel=1e-12)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            DimensionalScales(T0=0.0, ell_scale=1.0, A0=1.0, U0=1.0)


class TestVelocityStats:
    def test_constant_velocity(self):
        t = np.linspace(0.0, 1.0, 50)
        u_mean, u_max = velocity_stats(t, np.full(50, 20.0), np.full(50, 2.0))
        assert u_mean == pytest.approx(10.0, rel=1e-12)
        assert u_max == pytest.approx(10.0, rel=1e-12)

    def test_rectified_sine_mean(self):
        t = np.linspace(0.0, 1.0, 20001)
        q = 30.0 * np.sin(2.0 * math.pi * t)
        u_mean, u_max = velocity_stats(t, q, np.full(t.size, 1.0))
        assert u_mean == pytest.approx(30.0 * 2.0 / math.pi, rel=1e-4)
        assert u_max == pytest.approx(30.0, rel=1e-6)

    def test_mean_below_max(self):
        t = np.linspace(0.0, 1.0, 100)
        q = 5.0 + 3.0 * np.sin(2.0 * math.pi * t)
        u_mean, u_max = velocity_stats(t, q, np.full(t.size, 1.5))
        assert u_mean < u_max

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            velocity_stats([0.0], [1.0], [1.0])


class TestReport:
    def test_contains_per_vessel_sections(self, bifurcation):
        text = format_network_report(bifurcation)
        for vid in bifurcation.vessels:
            assert f"[vessel {vid}]" in text
        assert "f1 = 2.4695" in text
        assert "classification_PinQout = asymptotically stable" in text
        assert "classification_QinQout = marginal (zero eigenvalue)" in text
        assert "unavailable" in text

    def test_velocity_section(self, bifurcation):
        text = format_network_report(bifurcation, velocity={"aorta": (11.0, 60.0)})
        assert "U_mean = 11" in text
        assert "gamma_C_over_gamma_P" in text
        # vessels without velocity data still flag the missing ratios
        assert "unavailable" in text
