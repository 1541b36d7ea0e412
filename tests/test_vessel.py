"""Vessel physics: tube law, stiffness, wave speed, lumped constants."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hemoflow.errors import CollapseError
from hemoflow.vessel import (
    FluidProps,
    VesselSpec,
    WallModel,
    adan_wall_thickness,
    arterial_stiffness,
    coriolis_alpha,
    lumped_constants,
    lumped_nonlinear,
    tube_law_area,
    tube_law_pressure,
    tube_law_slope,
    viscous_resistance_coeff,
    wave_speed,
)

BLOOD = FluidProps(rho=1.06, mu=0.04, zeta=9.0)


def aorta_spec() -> VesselSpec:
    wall = WallModel.arterial(A0=2.3235, h0=0.1032, E=5.0e6, nu=0.5,
                              P0=94666.66666666667)
    return VesselSpec(vessel_id="aorta", length=8.6, wall=wall, fluid=BLOOD)


def venous_wall() -> WallModel:
    return WallModel(A0=0.8, K=3.0e4, m=10.0, n=-1.5)


class TestProfileConstants:
    def test_alpha_plug_like(self):
        assert coriolis_alpha(9.0) == pytest.approx(1.1, rel=1e-15)

    def test_alpha_parabolic(self):
        # zeta = 2 gives the parabolic-profile value 4/3
        assert coriolis_alpha(2.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_alpha_invalid(self):
        with pytest.raises(ValueError):
            coriolis_alpha(0.0)

    def test_k_r_hand_value(self):
        # 2 (zeta+2) pi mu / rho with zeta=9, mu=0.04, rho=1.06
        expected = 2.0 * 11.0 * math.pi * 0.04 / 1.06
        assert viscous_resistance_coeff(BLOOD) == pytest.approx(expected, rel=1e-15)
        assert BLOOD.k_R == pytest.approx(expected, rel=1e-15)

    def test_fluid_validation(self):
        with pytest.raises(ValueError):
            FluidProps(rho=0.0, mu=0.04)
        with pytest.raises(ValueError):
            FluidProps(rho=1.0, mu=-1.0)


class TestStiffness:
    def test_arterial_stiffness_hand_value(self):
        # sqrt(pi) h0 E / ((1 - nu^2) sqrt(A0)) for the big test vessel
        K = arterial_stiffness(h0=0.1032, E=5.0e6, nu=0.5, A0=2.3235)
        expected = math.sqrt(math.pi) * 0.1032 * 5.0e6 / (0.75 * math.sqrt(2.3235))
        assert K == pytest.approx(expected, rel=1e-15)

    def test_adan_thickness_formula(self):
        r0 = 0.5
        expected = r0 * (0.2802 * math.exp(-5.053 * r0)
                         + 0.1324 * math.exp(-0.1114 * r0))
        assert adan_wall_thickness(r0) == pytest.approx(expected, rel=1e-15)

    def test_adan_thickness_positive_and_thinner_than_radius(self):
        for r0 in (0.05, 0.2, 0.5, 1.0, 1.5):
            h = adan_wall_thickness(r0)
            assert 0.0 < h < r0


class TestTubeLaw:
    def test_reference_area_gives_reference_pressure(self):
        wall = aorta_spec().wall
        assert tube_law_pressure(wall.A0, wall) == pytest.approx(wall.P0, rel=1e-15)

    def test_arterial_inverse_closed_form(self):
        wall = aorta_spec().wall
        # at p = 0 the closed form gives A0 (1 + (0 - P0)/K)^2
        A = tube_law_area(0.0, wall)
        root = 1.0 - wall.P0 / wall.K
        assert A == pytest.approx(wall.A0 * root * root, rel=1e-14)

    def test_arterial_collapse_pressure(self):
        wall = aorta_spec().wall
        with pytest.raises(CollapseError):
            tube_law_area(wall.P0 - 1.001 * wall.K, wall)

    def test_pressure_rejects_nonpositive_area(self):
        wall = aorta_spec().wall
        with pytest.raises(CollapseError):
            tube_law_pressure(0.0, wall)
        with pytest.raises(CollapseError):
            tube_law_slope(-1.0, wall)

    @given(st.floats(min_value=-0.9, max_value=3.0))
    def test_arterial_round_trip(self, scaled_p):
        wall = WallModel.arterial(A0=1.5, h0=0.08, E=4.0e6)
        p = scaled_p * wall.K
        A = tube_law_area(p, wall)
        assert tube_law_pressure(A, wall) == pytest.approx(p, abs=1e-9 * wall.K)

    @given(st.floats(min_value=0.3, max_value=3.0))
    @example(area_ratio=1.0)  # the exact root at the reference pressure
    @settings(max_examples=50)
    def test_general_exponent_round_trip(self, area_ratio):
        wall = venous_wall()
        p = tube_law_pressure(area_ratio * wall.A0, wall)
        A = tube_law_area(p, wall)
        assert A == pytest.approx(area_ratio * wall.A0, rel=1e-10)

    @given(st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=50)
    def test_slope_matches_finite_difference(self, area_ratio):
        wall = aorta_spec().wall
        A = area_ratio * wall.A0
        h = 1e-6 * A
        fd = (tube_law_pressure(A + h, wall) - tube_law_pressure(A - h, wall)) / (2 * h)
        assert tube_law_slope(A, wall) == pytest.approx(fd, rel=1e-6)

    def test_monotone_in_area(self):
        wall = aorta_spec().wall
        areas = [0.5, 1.0, 1.5, 2.0, 3.0]
        pressures = [tube_law_pressure(a, wall) for a in areas]
        assert pressures == sorted(pressures)


class TestWaveSpeed:
    @given(st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=50)
    def test_identity_with_slope(self, area_ratio):
        # c^2 = (A / rho) dp/dA
        spec = aorta_spec()
        A = area_ratio * spec.wall.A0
        c = wave_speed(A, spec.wall, spec.fluid)
        expected = A / spec.fluid.rho * tube_law_slope(A, spec.wall)
        assert c * c == pytest.approx(expected, rel=1e-12)

    def test_arterial_reference_value(self):
        # at A = A0 the arterial law gives c = sqrt(K / (2 rho))
        spec = aorta_spec()
        c = wave_speed(spec.wall.A0, spec.wall, spec.fluid)
        assert c == pytest.approx(math.sqrt(spec.wall.K / (2.0 * spec.fluid.rho)),
                                  rel=1e-14)

    def test_increases_with_area_for_arterial(self):
        spec = aorta_spec()
        c1 = wave_speed(0.8 * spec.wall.A0, spec.wall, spec.fluid)
        c2 = wave_speed(1.2 * spec.wall.A0, spec.wall, spec.fluid)
        assert c1 < c2


class TestLumpedConstants:
    def test_aorta_values(self):
        # closed arterial forms: R0 = rho k_R l / A0^2, L0 = rho l / A0,
        # C0 = 2 l A0 / K
        spec = aorta_spec()
        cons = lumped_constants(spec)
        w, f = spec.wall, spec.fluid
        assert cons.R0 == pytest.approx(f.rho * f.k_R * 8.6 / w.A0 ** 2, rel=1e-14)
        assert cons.L0 == pytest.approx(f.rho * 8.6 / w.A0, rel=1e-14)
        assert cons.C0 == pytest.approx(2.0 * 8.6 * w.A0 / w.K, rel=1e-14)
        assert cons.C0 == pytest.approx(4.995e-5, rel=1e-3)

    def test_nonlinear_reduces_to_constants_at_reference(self):
        spec = aorta_spec()
        cons = lumped_constants(spec)
        R, L = lumped_nonlinear(spec, spec.wall.A0)
        assert R == pytest.approx(cons.R0, rel=1e-14)
        assert L == pytest.approx(cons.L0, rel=1e-14)

    @given(st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=50)
    def test_nonlinear_scaling(self, ratio):
        spec = aorta_spec()
        cons = lumped_constants(spec)
        R, L = lumped_nonlinear(spec, ratio * spec.wall.A0)
        assert R == pytest.approx(cons.R0 / ratio ** 2, rel=1e-12)
        assert L == pytest.approx(cons.L0 / ratio, rel=1e-12)

    def test_collapse_guard(self):
        spec = aorta_spec()
        with pytest.raises(CollapseError):
            lumped_nonlinear(spec, 0.0)


class TestValidation:
    def test_wall_exponent_order(self):
        with pytest.raises(ValueError):
            WallModel(A0=1.0, K=1.0, m=0.0, n=0.5)

    def test_wall_positive_area(self):
        with pytest.raises(ValueError):
            WallModel(A0=-1.0, K=1.0)

    def test_vessel_positive_length(self):
        with pytest.raises(ValueError):
            VesselSpec(vessel_id="x", length=0.0, wall=aorta_spec().wall,
                       fluid=BLOOD)

    # NaN passed the old ``<= 0`` tests, and a run then failed many steps
    # later with a non-finite state
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["rho", "mu", "zeta"])
    def test_fluid_field_must_be_finite(self, field, bad):
        values = {"rho": 1.06, "mu": 0.04, "zeta": 9.0, field: bad}
        with pytest.raises(ValueError, match=f"must be positive and finite, got {bad}$"):
            FluidProps(**values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["A0", "K", "m", "n", "P0", "p_ext"])
    def test_wall_field_must_be_finite(self, field, bad):
        values = {"A0": 0.8, "K": 3.0e4, "m": 10.0, "n": -1.5, "P0": 1.0e4,
                  "p_ext": 0.0, field: bad}
        with pytest.raises(ValueError, match=f"finite.*{field}={bad}|finite, got {bad}$"):
            WallModel(**values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_vessel_length_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=f"must be positive and finite, got {bad}$"):
            VesselSpec(vessel_id="x", length=bad, wall=aorta_spec().wall,
                       fluid=BLOOD)
