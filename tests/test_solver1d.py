"""Finite-volume solver: mesh, slopes, fluxes, junctions and boundaries."""

import math

import numpy as np
import pytest

from hemoflow.errors import ConfigurationError, SupercriticalError
from hemoflow.netio import (
    SingleResistance,
    WaveformSeries,
    Windkessel,
    parse_network,
    synthetic_inflow,
)
from hemoflow.solver1d import (
    JunctionNode,
    Simulation1D,
    Vessel1D,
    _eno_slope,
    build_mesh,
    cfl_dt,
    inflow_bc,
    junction_solve,
    muscl_hancock_step,
    reflective_flux,
    run_1d,
    terminal_bc,
)
from hemoflow.vessel import FluidProps, VesselSpec, WallModel

BLOOD = FluidProps(rho=1.06, mu=0.04, zeta=9.0)


def aorta_spec() -> VesselSpec:
    wall = WallModel.arterial(A0=2.3235, h0=0.1032, E=5.0e6,
                              P0=94666.66666666667)
    return VesselSpec(vessel_id="aorta", length=8.6, wall=wall, fluid=BLOOD)


def iliac_spec(vid="iliac") -> VesselSpec:
    wall = WallModel.arterial(A0=1.1310, h0=0.072, E=7.0e6,
                              P0=94666.66666666667)
    return VesselSpec(vessel_id=vid, length=8.5, wall=wall, fluid=BLOOD)


def pulse_vessel(M_target=50, amplitude=0.05) -> Vessel1D:
    """Isolated vessel holding a smooth Gaussian area pulse at rest flow."""
    wall = WallModel.arterial(A0=1.0, h0=0.05, E=2.0e6)
    spec = VesselSpec(vessel_id="pulse", length=10.0, wall=wall, fluid=BLOOD)
    ves = Vessel1D(spec, dx_max=spec.length / M_target)
    x = ves.mesh.centers
    ves.A = wall.A0 * (1.0 + amplitude * np.exp(-((x - 5.0) / 1.0) ** 2))
    return ves


class TestMesh:
    def test_benchmark_aorta_cells(self):
        mesh = build_mesh(8.6, 0.2)
        assert mesh.M == 43
        assert mesh.dx == pytest.approx(0.2, rel=1e-12)

    def test_minimum_two_cells(self):
        assert build_mesh(0.1, 1.0).M == 2

    def test_exact_multiple(self):
        # l = 8.6, dx_max = 0.2 divides evenly; no extra cell from roundoff
        assert build_mesh(8.6, 0.2).M == 43
        assert build_mesh(8.5, 0.2).M == 43  # 42.5 rounds up

    def test_centers(self):
        mesh = build_mesh(1.0, 0.25)
        np.testing.assert_allclose(mesh.centers,
                                   [0.125, 0.375, 0.625, 0.875], rtol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_mesh(0.0, 0.2)
        with pytest.raises(ValueError):
            build_mesh(1.0, -0.1)


class TestEnoSlope:
    def test_interior_picks_smaller_magnitude(self):
        U = np.array([0.0, 1.0, 1.5, 4.0])
        s = _eno_slope(U, 1.0)
        # cell 1: left diff 1.0, right diff 0.5 -> 0.5
        assert s[1] == 0.5
        # cell 2: left diff 0.5, right diff 2.5 -> 0.5
        assert s[2] == 0.5

    def test_one_sided_at_ends(self):
        U = np.array([0.0, 2.0, 3.0, 10.0])
        s = _eno_slope(U, 0.5)
        assert s[0] == pytest.approx(4.0)
        assert s[-1] == pytest.approx(14.0)

    def test_linear_data_exact(self):
        x = np.linspace(0.0, 1.0, 11)
        s = _eno_slope(3.0 * x + 1.0, 0.1)
        np.testing.assert_allclose(s, 3.0, rtol=1e-12)

    def test_constant_data_zero(self):
        s = _eno_slope(np.full(7, 2.5), 0.3)
        np.testing.assert_array_equal(s, 0.0)


class TestCfl:
    def test_hand_value(self):
        # u = 0, c = 100, dx = 0.2, CFL = 0.9 -> dt = 0.9 * 0.2/100
        wall = WallModel.arterial(A0=1.0, h0=0.05, E=2.0e6)
        wall_K = wall.K
        # pick E so c(A0) = sqrt(K/(2 rho)) = 100 exactly by scaling K
        spec = VesselSpec(
            vessel_id="v", length=1.0,
            wall=WallModel(A0=1.0, K=2.0 * BLOOD.rho * 100.0 ** 2),
            fluid=BLOOD)
        assert wall_K > 0
        ves = Vessel1D(spec, dx_max=0.2)
        assert cfl_dt([ves], 0.9) == pytest.approx(0.9 * 0.2 / 100.0, rel=1e-12)

    def test_min_over_vessels(self):
        fast = VesselSpec(vessel_id="f", length=1.0,
                          wall=WallModel(A0=1.0, K=2.0 * BLOOD.rho * 400.0 ** 2),
                          fluid=BLOOD)
        slow = VesselSpec(vessel_id="s", length=1.0,
                          wall=WallModel(A0=1.0, K=2.0 * BLOOD.rho * 100.0 ** 2),
                          fluid=BLOOD)
        vessels = [Vessel1D(fast, 0.2), Vessel1D(slow, 0.2)]
        assert cfl_dt(vessels, 0.9) == pytest.approx(0.9 * 0.2 / 400.0, rel=1e-12)

    def test_benchmark_order_of_magnitude(self):
        ves = Vessel1D(aorta_spec(), 0.2)
        dt = cfl_dt([ves], 0.9)
        # rest wave speed ~ 580 cm/s -> dt ~ 3.1e-4 s
        assert 2e-4 < dt < 4e-4

    def test_supercritical_raises(self):
        ves = Vessel1D(aorta_spec(), 0.2)
        c0 = float(ves.celerity(ves.A[0]))
        ves.q[:] = 1.5 * c0 * ves.A
        with pytest.raises(SupercriticalError, match="aorta"):
            cfl_dt([ves], 0.9)

    def test_invalid_cfl(self):
        ves = Vessel1D(aorta_spec(), 0.2)
        with pytest.raises(ValueError):
            cfl_dt([ves], 0.0)
        with pytest.raises(ValueError):
            cfl_dt([ves], 1.5)


class TestFluxKernels:
    def test_equal_states_give_physical_flux(self):
        ves = pulse_vessel()
        A = np.array([1.03])
        q = np.array([5.0])
        F_A, F_q = ves.interface_flux(A, q, A, q)
        exact = ves.flux(A, q)
        assert F_A[0] == pytest.approx(exact[0][0], rel=1e-14)
        assert F_q[0] == pytest.approx(exact[1][0], rel=1e-14)

    def test_dam_break_mass_flux_sign(self):
        # higher area on the left drives flow to the right
        ves = pulse_vessel()
        F_A, _ = ves.interface_flux(np.array([1.2]), np.array([0.0]),
                                    np.array([1.0]), np.array([0.0]))
        assert F_A[0] > 0.0

    def test_pressure_and_celerity_consistency(self):
        ves = Vessel1D(aorta_spec(), 0.2)
        A = 1.1 * ves.A0
        h = 1e-6 * A
        fd = (ves.pressure(A + h) - ves.pressure(A - h)) / (2.0 * h)
        c = ves.celerity(A)
        assert c * c == pytest.approx(A / ves.rho * fd, rel=1e-6)


class TestWellBalancedAndConservation:
    def test_rest_state_preserved_sealed_vessel(self):
        ves = Vessel1D(aorta_spec(), 0.2)
        A_rest = ves.A.copy()
        dt = cfl_dt([ves], 0.9)
        for _ in range(1000):
            prep = ves.prepare(dt)
            lf = reflective_flux(ves, prep, "left")
            rf = reflective_flux(ves, prep, "right")
            ves.commit(dt, prep, lf, rf)
        np.testing.assert_allclose(ves.A, A_rest, rtol=1e-14)
        np.testing.assert_allclose(ves.q, 0.0, atol=1e-14)

    def test_sealed_vessel_mass_conserved(self):
        ves = pulse_vessel()
        mass0 = np.sum(ves.A) * ves.mesh.dx
        for _ in range(500):
            dt = cfl_dt([ves], 0.9)
            prep = ves.prepare(dt)
            lf = reflective_flux(ves, prep, "left")
            rf = reflective_flux(ves, prep, "right")
            ves.commit(dt, prep, lf, rf)
            mass = np.sum(ves.A) * ves.mesh.dx
            assert mass == pytest.approx(mass0, rel=1e-12)

    def test_reflective_mass_flux_exactly_zero(self):
        ves = pulse_vessel()
        ves.q[:] = 3.0  # moving fluid at the wall
        prep = ves.prepare(cfl_dt([ves], 0.5))
        F_A, _ = reflective_flux(ves, prep, "left")
        assert F_A == 0.0
        F_A, _ = reflective_flux(ves, prep, "right")
        assert F_A == 0.0


class TestJunctionSolve:
    def _bifurcation(self):
        vessels = {
            "p": Vessel1D(aorta_spec(), 0.2),
            "d1": Vessel1D(iliac_spec("d1"), 0.2),
            "d2": Vessel1D(iliac_spec("d2"), 0.2),
        }
        node = JunctionNode(members=(("p", "right"), ("d1", "left"),
                                     ("d2", "left")))
        return node, vessels

    def test_rest_fixed_point(self):
        node, vessels = self._bifurcation()
        states = [(vessels[v].A0, 0.0) for v, _ in node.members]
        stars = junction_solve(node, vessels, states)
        for (vid, _), (A_s, q_s) in zip(node.members, stars):
            assert A_s == pytest.approx(vessels[vid].A0, rel=1e-12)
            assert abs(q_s) < 1e-12

    def test_symmetric_split(self):
        node, vessels = self._bifurcation()
        states = [(vessels["p"].A0, 20.0),
                  (vessels["d1"].A0, 0.0),
                  (vessels["d2"].A0, 0.0)]
        stars = junction_solve(node, vessels, states)
        (_, qp), (A1, q1), (A2, q2) = stars
        assert q1 == pytest.approx(q2, rel=1e-12)
        assert A1 == pytest.approx(A2, rel=1e-12)
        assert qp == pytest.approx(q1 + q2, rel=1e-10)

    def test_generic_residuals(self):
        # asymmetric daughters and states; verify the coupling conditions
        # by recomputing them from the returned stars
        vessels = {
            "p": Vessel1D(aorta_spec(), 0.2),
            "d1": Vessel1D(iliac_spec("d1"), 0.2),
            "d2": Vessel1D(VesselSpec(
                vessel_id="d2", length=6.0,
                wall=WallModel.arterial(A0=0.8, h0=0.06, E=6.0e6,
                                        P0=94666.66666666667),
                fluid=BLOOD), 0.2),
        }
        node = JunctionNode(members=(("p", "right"), ("d1", "left"),
                                     ("d2", "left")))
        states = [(1.05 * vessels["p"].A0, 35.0),
                  (0.98 * vessels["d1"].A0, 12.0),
                  (1.02 * vessels["d2"].A0, 9.0)]
        stars = junction_solve(node, vessels, states)

        rho = BLOOD.rho
        # mass
        total = stars[0][1] - stars[1][1] - stars[2][1]
        assert abs(total) < 1e-8
        # total pressure continuity and invariant preservation
        sign = {"right": 1.0, "left": -1.0}
        pt_ref = None
        for (vid, end), (A_b, q_b), (A_s, q_s) in zip(node.members, states,
                                                      stars):
            v = vessels[vid]
            pt = float(v.pressure(A_s)) + 0.5 * rho * (q_s / A_s) ** 2
            if pt_ref is None:
                pt_ref = pt
            else:
                assert pt == pytest.approx(pt_ref, abs=1e-6 * abs(pt_ref))
            W_b = q_b / A_b + sign[end] * 4.0 * float(v.celerity(A_b))
            W_s = q_s / A_s + sign[end] * 4.0 * float(v.celerity(A_s))
            assert W_s == pytest.approx(W_b, abs=1e-8 * max(1.0, abs(W_b)))

    def test_zero_pressure_start_with_large_reference_pressure(self):
        # From initial_pressure = 0 with pressure_ref ~ 9.5e4 the total
        # pressures at the junction are near zero, while Vessel1D.pressure
        # carries round-off of order eps * pressure_ref; the residual scale
        # must allow for it or the first step stalls in the Newton solve.
        text = """
[fluid]
rho = 1.060
mu = 0.04
zeta = 9
pressure_ref = 94666.66666666667
initial_pressure = 0.0

[vessel aorta]
length = 8.6
area = 2.3235
wall_thickness = 0.1032
youngs_modulus = 5.0e6

[vessel left_iliac]
length = 8.5
area = 0.624
wall_thickness = 0.072
youngs_modulus = 7.0e6

[vessel right_iliac]
length = 8.5
area = 0.624
wall_thickness = 0.072
youngs_modulus = 7.0e6

[junction]
parent = aorta
daughters = left_iliac right_iliac

[inflow]
vessel = aorta

[terminal left_iliac]
type = rcr
r1 = 6.8123e2
c = 3.6664e-5
r2 = 3.1013e4

[terminal right_iliac]
type = rcr
r1 = 6.8123e2
c = 3.6664e-5
r2 = 3.1013e4
"""
        sim = Simulation1D(parse_network(text), synthetic_inflow())
        for _ in range(5):
            sim.step()  # raised ConvergenceError before the scale included P0
        for ves in sim.vessels.values():
            assert np.all(np.isfinite(ves.A)) and np.all(ves.A > 0.0)

    def test_too_few_members(self):
        with pytest.raises(ConfigurationError):
            JunctionNode(members=(("p", "right"),))


class TestBoundaryConditions:
    def test_inflow_matching_state(self):
        ves = Vessel1D(aorta_spec(), 0.2)
        A_i = ves.A0
        A_s, q_s = inflow_bc(ves, (A_i, 0.0), 0.0)
        assert q_s == 0.0
        assert A_s == pytest.approx(A_i, rel=1e-12)

    def test_inflow_pulse_raises_area(self):
        ves = Vessel1D(aorta_spec(), 0.2)
        A_s, q_s = inflow_bc(ves, (ves.A0, 0.0), 50.0)
        assert q_s == 50.0
        assert A_s > ves.A0

    def test_inflow_preserves_invariant(self):
        ves = Vessel1D(aorta_spec(), 0.2)
        A_i, q_i = 1.02 * ves.A0, 8.0
        W = q_i / A_i - 4.0 * float(ves.celerity(A_i))
        A_s, q_s = inflow_bc(ves, (A_i, q_i), 30.0)
        W_s = q_s / A_s - 4.0 * float(ves.celerity(A_s))
        assert W_s == pytest.approx(W, abs=1e-8 * abs(W))

    def test_terminal_blocks_flow_at_huge_resistance(self):
        ves = Vessel1D(aorta_spec(), 0.2)
        term = SingleResistance(R=1e12, P_v=0.0)
        (A_s, q_s), _ = terminal_bc(ves, (ves.A0, 0.0), term, 0.0, 1e-4)
        assert abs(q_s) < 1e-6

    def test_terminal_equilibrium_no_flow(self):
        # capacitor pressure equal to the boundary pressure: nothing moves
        ves = Vessel1D(aorta_spec(), 0.2)
        p_i = float(ves.pressure(ves.A0))
        term = Windkessel(R1=6.8123e2, C=3.6664e-5, R2=3.1013e4, P_v=p_i)
        (A_s, q_s), P_new = terminal_bc(ves, (ves.A0, 0.0), term, p_i, 1e-4)
        assert abs(q_s) < 1e-9
        assert P_new == pytest.approx(p_i, rel=1e-12)

    def test_windkessel_steady_state_mini_run(self):
        # constant inflow through a single coarse vessel: the capacitor
        # pressure settles at P_v + R2 * q
        text = """
[fluid]
rho = 1.06
mu = 0.04
pressure_ref = 1.0e5
initial_pressure = 1.0e5

[vessel v]
length = 8.0
area = 2.0
wall_thickness = 0.1
youngs_modulus = 5.0e6

[inflow]
vessel = v

[terminal v]
type = rcr
r1 = 6.8123e2
c = 1.0e-5
r2 = 1.0e4
p_out = 1.0e5
"""
        net = parse_network(text)
        q_bar = 10.0
        wave = WaveformSeries(t=np.array([0.0, 1.0]),
                              q=np.array([q_bar, q_bar]), period=1.0)
        sim = Simulation1D(net, wave, dx_max=1.0, CFL=0.9)
        # many time constants of the combined vessel + windkessel compliance
        while sim.t < 5.0:
            sim.step()
        assert sim.P_wk["v"] == pytest.approx(1.0e5 + 1.0e4 * q_bar, rel=1e-3)
        # the vessel flow itself settles at the inflow rate
        assert sim.vessels["v"].q[-1] == pytest.approx(q_bar, rel=1e-3)

    def test_rejects_non_arterial_network(self):
        text = """
[fluid]
rho = 1.06
mu = 0.04

[vessel v]
length = 5.0
radius = 0.5
wall_thickness = 0.05
youngs_modulus = 4.0e6
m = 10
n = -1.5

[inflow]
vessel = v

[terminal v]
type = r
r = 100.0
"""
        net = parse_network(text)
        with pytest.raises(ConfigurationError, match="arterial"):
            Simulation1D(net, synthetic_inflow())


class TestRun:
    def test_zero_inflow_stays_at_equilibrium(self):
        text = """
[fluid]
rho = 1.06
mu = 0.04
pressure_ref = 0.0
initial_pressure = 0.0

[vessel v]
length = 8.0
area = 2.0
wall_thickness = 0.1
youngs_modulus = 5.0e6

[inflow]
vessel = v

[terminal v]
type = rcr
r1 = 6.8123e2
c = 3.6664e-5
r2 = 3.1013e4
p_out = 0.0
"""
        net = parse_network(text)
        zero = WaveformSeries(t=np.array([0.0, 1.0]), q=np.zeros(2),
                              period=1.0)
        res = run_1d(net, zero, t_end=0.05, dx_max=0.5, T0=1.0)
        np.testing.assert_allclose(res.vessels["v"]["Q"], 0.0, atol=1e-10)
        np.testing.assert_allclose(res.vessels["v"]["A"], 2.0, rtol=1e-12)

    def test_sample_grid_and_timing(self):
        text = """
[fluid]
rho = 1.06
mu = 0.04
pressure_ref = 0.0
initial_pressure = 0.0

[vessel v]
length = 8.0
area = 2.0
wall_thickness = 0.1
youngs_modulus = 5.0e6

[inflow]
vessel = v

[terminal v]
type = r
r = 1.0e4
p_out = 0.0
"""
        net = parse_network(text)
        res = run_1d(net, synthetic_inflow(), t_end=0.02, dx_max=0.5, T0=1.1)
        assert res.t[0] == 0.0
        assert res.t[-1] == pytest.approx(0.02, abs=1e-9)
        assert res.cpu_seconds > 0.0
        assert set(res.vessels["v"]) == {"P", "Q", "A"}

    def test_muscl_hancock_step_helper(self):
        ves = pulse_vessel()
        dt = cfl_dt([ves], 0.5)
        prep = ves.prepare(dt)
        lf = reflective_flux(ves, prep, "left")
        rf = reflective_flux(ves, prep, "right")
        A_before = ves.A.copy()
        muscl_hancock_step(ves, dt, lf, rf)
        assert not np.array_equal(ves.A, A_before)
