"""Finite-volume solver: mesh, slopes, fluxes, junctions and boundaries."""

import math
import sys

import numpy as np
import pytest

from hemoflow.errors import (
    CollapseError,
    ConfigurationError,
    ConvergenceError,
    SupercriticalError,
)
from hemoflow.netio import (
    Junction,
    SingleResistance,
    WaveformSeries,
    Windkessel,
    aortic_bifurcation,
    parse_network,
    synthetic_inflow,
)
from hemoflow.solver1d import (
    Simulation1D,
    Vessel1D,
    _End,
    _EnoScratch,
    _eno_slope,
    _junction,
    _terminal,
    build_mesh,
    cfl_dt,
    inflow_bc,
    junction_solve,
    run_1d,
    terminal_bc,
)
from hemoflow.vessel import (
    FluidProps,
    VesselSpec,
    WallModel,
    tube_law_area,
    tube_law_pressure,
)
from oracle1d import OracleVessel, sealed_flux

BLOOD = FluidProps(rho=1.06, mu=0.04, zeta=9.0)


def aorta_spec() -> VesselSpec:
    wall = WallModel.arterial(A0=2.3235, h0=0.1032, E=5.0e6,
                              P0=94666.66666666667)
    return VesselSpec(vessel_id="aorta", length=8.6, wall=wall, fluid=BLOOD)


def iliac_spec(vid="iliac") -> VesselSpec:
    wall = WallModel.arterial(A0=1.1310, h0=0.072, E=7.0e6,
                              P0=94666.66666666667)
    return VesselSpec(vessel_id=vid, length=8.5, wall=wall, fluid=BLOOD)


def stack(*specs, dx_max=0.2) -> Vessel1D:
    """The cells of ``specs`` at their reference areas, at rest."""
    return Vessel1D(specs, dx_max, [spec.wall.A0 for spec in specs])


def cfl_step(cells: Vessel1D, CFL: float) -> float:
    """``cfl_dt`` of the stack's current state."""
    return cfl_dt(cells, CFL, cells.centre_values())


def prepare(cells: Vessel1D, dt: float):
    """``Vessel1D.prepare`` of the stack's current state."""
    return cells.prepare(dt, cells.centre_values())


def pulse_vessel(M_target=50, amplitude=0.05) -> tuple[Vessel1D, OracleVessel]:
    """Isolated vessel holding a smooth Gaussian area pulse at rest flow, as
    a one-vessel stack, and its oracle."""
    wall = WallModel.arterial(A0=1.0, h0=0.05, E=2.0e6)
    spec = VesselSpec(vessel_id="pulse", length=10.0, wall=wall, fluid=BLOOD)
    ves = stack(spec, dx_max=spec.length / M_target)
    oracle = OracleVessel(spec, spec.length / M_target)
    x = (np.arange(oracle.mesh.M) + 0.5) * oracle.mesh.dx
    ves.U[0] = wall.A0 * (1.0 + amplitude * np.exp(-((x - 5.0) / 1.0) ** 2))
    return ves, oracle


def law(spec) -> tuple:
    """(A0, K, rho, K/rho, P0 + p_ext, alpha) of a vessel: the constants of
    its closures."""
    w, f = spec.wall, spec.fluid
    return w.A0, w.K, f.rho, w.K / f.rho, w.P0 + w.p_ext, f.alpha


def flat(left, right) -> list[float]:
    """The flat boundary flux list ``commit`` takes, from the (F_A, F_q)
    pairs at the left and at the right end of each segment: per segment,
    its left pair, then its right pair."""
    return [f for ends in zip(left, right) for pair in ends for f in pair]


#: positions of the evolved face states of the oracle's ``prepare`` in
#: ``_Prep.Ub[var, face]``
FACES = {"AbL": (0, 0), "AbR": (0, 1), "qbL": (1, 0), "qbR": (1, 1)}


def midpoint_samples(sim) -> np.ndarray:
    """(P, q, A) at every vessel's midpoint cell, shape (3, vessels), with
    the arterial tube law of each vessel's wall."""
    out = []
    for vid, spec in sim.network.vessels.items():
        A, q = sim.vessels[vid][:, sim.vessels[vid].shape[1] // 2]
        w = spec.wall
        out.append((w.K * (np.sqrt(A / w.A0) - 1.0) + (w.P0 + w.p_ext), q, A))
    return np.array(out).T


def junction_members(node):
    """(vessel, end) of each member of the junction ``node``: the parent's
    right end, then each daughter's left end."""
    return ((node.parent, "right"), *((d, "left") for d in node.daughters))


def solve_junction(node, specs, states):
    """``junction_solve`` of ``node`` planned over the vessels ``specs``
    (by id), at the evolved ``states`` given per member: per member
    (A*, q*, F_q*)."""
    ends = [(vid, law(specs[vid]), 2 * k)
            for k, (vid, _) in enumerate(junction_members(node))]
    return junction_solve(_junction(node, ends),
                          [x for state in states for x in state])


def inflow_star(spec, state, q_in):
    """``inflow_bc`` at the left end of the vessel ``spec`` in the evolved
    ``state``: (A*, q*, F_q*)."""
    return inflow_bc(_End(spec.vessel_id, law(spec), 0), list(state), q_in)


def terminal_star(spec, state, term, P_wk, dt):
    """``terminal_bc`` at the right end of the vessel ``spec`` in the
    evolved ``state``: ((A*, q*, F_q*), P_wk)."""
    return terminal_bc(_terminal(term, spec.vessel_id, law(spec), 0),
                       list(state), P_wk, dt)


def eno(U, dx):
    """``_eno_slope`` of a single segment ``U``."""
    return _eno_slope(U, dx, np.array([0, U.size]), _EnoScratch(U.shape))


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

    def test_validation(self):
        with pytest.raises(ValueError):
            build_mesh(0.0, 0.2)
        with pytest.raises(ValueError):
            build_mesh(1.0, -0.1)
        # nan once failed converting to an integer; inf gave two cells
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^length must be positive and finite"):
                build_mesh(bad, 0.2)
            with pytest.raises(ValueError, match="^dx_max must be positive and finite"):
                build_mesh(1.0, bad)


class TestEnoSlope:
    def test_interior_picks_smaller_magnitude(self):
        U = np.array([0.0, 1.0, 1.5, 4.0])
        s = eno(U, 1.0)
        # cell 1: left diff 1.0, right diff 0.5 -> 0.5
        assert s[1] == 0.5
        # cell 2: left diff 0.5, right diff 2.5 -> 0.5
        assert s[2] == 0.5

    def test_one_sided_at_ends(self):
        U = np.array([0.0, 2.0, 3.0, 10.0])
        s = eno(U, 0.5)
        assert s[0] == pytest.approx(4.0)
        assert s[-1] == pytest.approx(14.0)

    def test_linear_data_exact(self):
        x = np.linspace(0.0, 1.0, 11)
        s = eno(3.0 * x + 1.0, 0.1)
        np.testing.assert_allclose(s, 3.0, rtol=1e-12)

    def test_constant_data_zero(self):
        s = eno(np.full(7, 2.5), 0.3)
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
        assert cfl_step(stack(spec), 0.9) == pytest.approx(0.9 * 0.2 / 100.0, rel=1e-12)

    def test_min_over_vessels(self):
        fast = VesselSpec(vessel_id="f", length=1.0,
                          wall=WallModel(A0=1.0, K=2.0 * BLOOD.rho * 400.0 ** 2),
                          fluid=BLOOD)
        slow = VesselSpec(vessel_id="s", length=1.0,
                          wall=WallModel(A0=1.0, K=2.0 * BLOOD.rho * 100.0 ** 2),
                          fluid=BLOOD)
        assert cfl_step(stack(fast, slow), 0.9) == pytest.approx(0.9 * 0.2 / 400.0,
                                                                 rel=1e-12)

    def test_benchmark_order_of_magnitude(self):
        dt = cfl_step(stack(aorta_spec()), 0.9)
        # rest wave speed ~ 580 cm/s -> dt ~ 3.1e-4 s
        assert 2e-4 < dt < 4e-4

    def test_supercritical_raises(self):
        ves = stack(aorta_spec())
        c0 = float(OracleVessel(aorta_spec(), 0.2).celerity(ves.U[0, 0]))
        ves.U[1] = 1.5 * c0 * ves.U[0]
        with pytest.raises(SupercriticalError, match="aorta"):
            cfl_step(ves, 0.9)

    def test_invalid_cfl(self, monkeypatch):
        # refused before any set-up: a simulation once was built with CFL =
        # 1.5 and failed only at its first step
        monkeypatch.setattr(Vessel1D, "__init__", None)
        for CFL in (0.0, -0.5, 1.5, math.nan):
            for build in (Simulation1D, run_1d):
                with pytest.raises(ValueError, match=r"^CFL must be in \(0, 1\], got"):
                    build(aortic_bifurcation(), synthetic_inflow(), CFL=CFL)


class TestFluxKernels:
    """The interior HLL fluxes of ``commit``, read from the stack's
    workspace after a commit with zero boundary fluxes."""

    @staticmethod
    def interior_fluxes(ves, prep):
        ves.commit(1e-6, prep, [0.0] * 4)
        return ves._ws.F_hll.copy()

    def test_equal_states_give_physical_flux(self):
        ves, oracle = pulse_vessel()
        ves.U[0], ves.U[1] = 1.03, 5.0  # no slopes: equal face states
        prep = prepare(ves, 1e-6)
        F = self.interior_fluxes(ves, prep)
        exact = oracle.flux(prep.Ub[0, 1, :-1], prep.Ub[1, 1, :-1])
        np.testing.assert_allclose(F[0], exact[0], rtol=1e-14)
        np.testing.assert_allclose(F[1], exact[1], rtol=1e-14)

    def test_dam_break_mass_flux_sign(self):
        # higher area on the left drives flow to the right
        ves, _ = pulse_vessel()
        M = ves.U.shape[1]
        ves.U[0, :M // 2], ves.U[0, M // 2:], ves.U[1] = 1.2, 1.0, 0.0
        F = self.interior_fluxes(ves, prepare(ves, 1e-6))
        assert F[0, M // 2 - 1] > 0.0

    def test_pressure_and_celerity_consistency(self):
        spec = aorta_spec()
        A = 1.1 * spec.wall.A0
        _, c = Vessel1D([spec], 0.2, [A]).centre_values()
        h = 1e-6 * A
        fd = (tube_law_pressure(A + h, spec.wall)
              - tube_law_pressure(A - h, spec.wall)) / (2.0 * h)
        assert c[0] * c[0] == pytest.approx(A / spec.fluid.rho * fd, rel=1e-6)


class TestWellBalancedAndConservation:
    """One-vessel stacks closed at both ends by ``sealed_flux``."""

    def test_rest_state_preserved_sealed_vessel(self):
        ves, oracle = stack(aorta_spec()), OracleVessel(aorta_spec(), 0.2)
        A_rest = ves.U[0].copy()
        dt = cfl_step(ves, 0.9)
        for _ in range(1000):
            prep = prepare(ves, dt)
            ves.commit(dt, prep, sealed_flux(oracle, prep.Ub))
        np.testing.assert_allclose(ves.U[0], A_rest, rtol=1e-14)
        np.testing.assert_allclose(ves.U[1], 0.0, atol=1e-14)

    def test_sealed_vessel_mass_conserved(self):
        ves, oracle = pulse_vessel()
        dx = oracle.mesh.dx
        mass0 = np.sum(ves.U[0]) * dx
        for _ in range(500):
            dt = cfl_step(ves, 0.9)
            prep = prepare(ves, dt)
            ves.commit(dt, prep, sealed_flux(oracle, prep.Ub))
            mass = np.sum(ves.U[0]) * dx
            assert mass == pytest.approx(mass0, rel=1e-12)

    def test_reflective_mass_flux_exactly_zero(self):
        # the sealed ends the tests above rely on pass no mass
        ves, oracle = pulse_vessel()
        ves.U[1] = 3.0  # moving fluid at the wall
        prep = prepare(ves, cfl_step(ves, 0.5))
        F_A, _, G_A, _ = sealed_flux(oracle, prep.Ub)
        assert F_A == 0.0 and G_A == 0.0


class TestJunctionSolve:
    def _bifurcation(self):
        vessels = {"p": aorta_spec(), "d1": iliac_spec("d1"), "d2": iliac_spec("d2")}
        return Junction("p", ("d1", "d2")), vessels

    def test_rest_fixed_point(self):
        node, vessels = self._bifurcation()
        states = [(vessels[v].wall.A0, 0.0) for v, _ in junction_members(node)]
        stars = solve_junction(node, vessels, states)
        for (vid, _), (A_s, q_s, _) in zip(junction_members(node), stars):
            assert A_s == pytest.approx(vessels[vid].wall.A0, rel=1e-12)
            assert abs(q_s) < 1e-12

    def test_symmetric_split(self):
        node, vessels = self._bifurcation()
        states = [(vessels["p"].wall.A0, 20.0),
                  (vessels["d1"].wall.A0, 0.0),
                  (vessels["d2"].wall.A0, 0.0)]
        stars = solve_junction(node, vessels, states)
        (_, qp, _), (A1, q1, _), (A2, q2, _) = stars
        assert q1 == pytest.approx(q2, rel=1e-12)
        assert A1 == pytest.approx(A2, rel=1e-12)
        assert qp == pytest.approx(q1 + q2, rel=1e-10)

    def test_generic_residuals(self):
        # asymmetric daughters and states; verify the coupling conditions
        # by recomputing them from the returned stars
        vessels = {
            "p": aorta_spec(),
            "d1": iliac_spec("d1"),
            "d2": VesselSpec(
                vessel_id="d2", length=6.0,
                wall=WallModel.arterial(A0=0.8, h0=0.06, E=6.0e6,
                                        P0=94666.66666666667),
                fluid=BLOOD),
        }
        node = Junction("p", ("d1", "d2"))
        states = [(1.05 * vessels["p"].wall.A0, 35.0),
                  (0.98 * vessels["d1"].wall.A0, 12.0),
                  (1.02 * vessels["d2"].wall.A0, 9.0)]
        stars = solve_junction(node, vessels, states)

        rho = BLOOD.rho
        # mass
        total = stars[0][1] - stars[1][1] - stars[2][1]
        assert abs(total) < 1e-8
        # total pressure continuity and invariant preservation
        sign = {"right": 1.0, "left": -1.0}
        pt_ref = None
        for (vid, end), (A_b, q_b), (A_s, q_s, _) in zip(junction_members(node),
                                                         states, stars):
            v = OracleVessel(vessels[vid], 0.2)
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
        # pressures at the junction are near zero, while the tube law
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
        for A, _ in sim.vessels.values():
            assert np.all(np.isfinite(A)) and np.all(A > 0.0)

    def test_too_few_members(self):
        with pytest.raises(ConfigurationError):
            Junction("p", ())


class TestBoundaryConditions:
    def test_inflow_matching_state(self):
        spec = aorta_spec()
        A_i = spec.wall.A0
        A_s, q_s, _ = inflow_star(spec, (A_i, 0.0), 0.0)
        assert q_s == 0.0
        assert A_s == pytest.approx(A_i, rel=1e-12)

    def test_inflow_pulse_raises_area(self):
        spec = aorta_spec()
        A_s, q_s, _ = inflow_star(spec, (spec.wall.A0, 0.0), 50.0)
        assert q_s == 50.0
        assert A_s > spec.wall.A0

    def test_inflow_preserves_invariant(self):
        ves = OracleVessel(aorta_spec(), 0.2)
        A_i, q_i = 1.02 * ves.A0, 8.0
        W = q_i / A_i - 4.0 * float(ves.celerity(A_i))
        A_s, q_s, _ = inflow_star(ves.spec, (A_i, q_i), 30.0)
        W_s = q_s / A_s - 4.0 * float(ves.celerity(A_s))
        assert W_s == pytest.approx(W, abs=1e-8 * abs(W))

    def test_terminal_blocks_flow_at_huge_resistance(self):
        spec = aorta_spec()
        term = SingleResistance(R=1e12, P_v=0.0)
        (A_s, q_s, _), _ = terminal_star(spec, (spec.wall.A0, 0.0), term, 0.0, 1e-4)
        assert abs(q_s) < 1e-6

    def test_terminal_equilibrium_no_flow(self):
        # capacitor pressure equal to the boundary pressure: nothing moves
        ves = OracleVessel(aorta_spec(), 0.2)
        p_i = float(ves.pressure(ves.A0))
        term = Windkessel(R1=6.8123e2, C=3.6664e-5, R2=3.1013e4, P_v=p_i)
        (A_s, q_s, _), P_new = terminal_star(ves.spec, (ves.A0, 0.0), term, p_i, 1e-4)
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
        assert sim.vessels["v"][1, -1] == pytest.approx(q_bar, rel=1e-3)

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

    @pytest.mark.parametrize("dx_max", [math.nan, math.inf])
    def test_degenerate_cell_size_is_refused(self, dx_max):
        # nan once failed converting to an integer, and inf gave every
        # vessel two cells
        with pytest.raises(ValueError,
                           match=f"^dx_max must be positive and finite, got {dx_max}$"):
            run_1d(aortic_bifurcation(), synthetic_inflow(), t_end=0.01,
                   dx_max=dx_max)


# ---------------------------------------------------------------------------
# Oracle: the per-vessel step composition the stacked cells replaced. Each
# vessel (``oracle1d.OracleVessel``) holds its own arrays and runs its own
# numpy pipeline; the junction Newton solves its system with np.linalg.solve.
# ---------------------------------------------------------------------------

def _oracle_cfl_dt(vessels, CFL):
    return CFL * min(v.mesh.dx / v.max_signal_speed() for v in vessels)


def _oracle_junction_solve(node, vessels, states, tol=1e-10, max_iter=50):
    members = junction_members(node)
    N = len(members)
    ves = [vessels[vid] for vid, _ in members]
    sgn = np.array([1.0 if end == "right" else -1.0 for _, end in members])
    A = np.array([s[0] for s in states])
    q = np.array([s[1] for s in states])
    W = q / A + sgn * 4.0 * np.array([v.celerity(a) for v, a in zip(ves, A)])
    rho = ves[0].rho
    p_ref = max(abs(v.spec.wall.P0 + v.spec.wall.p_ext) for v in ves)
    x = np.concatenate([A, q])

    def residual(x):
        A, q = x[:N], x[N:]
        if np.any(A <= 0):
            return None, None
        u = q / A
        c = np.array([v.celerity(a) for v, a in zip(ves, A)])
        p = np.array([v.pressure(a) for v, a in zip(ves, A)])
        pt = p + 0.5 * rho * u * u
        r = np.empty(2 * N)
        r[0] = np.dot(sgn, q)
        r[1:N] = pt[1:] - pt[0]
        r[N:] = u + sgn * 4.0 * c - W
        scale = np.empty(2 * N)
        scale[0] = max(1.0, np.max(np.abs(q)))
        scale[1:N] = max(1.0, abs(pt[0]), p_ref)
        scale[N:] = np.maximum(1.0, np.abs(W))
        return r, scale

    def jacobian(x):
        A, q = x[:N], x[N:]
        u = q / A
        c = np.array([v.celerity(a) for v, a in zip(ves, A)])
        dpdA = rho * c * c / A
        J = np.zeros((2 * N, 2 * N))
        J[0, N:] = sgn
        dpt_dA = dpdA - rho * u * u / A
        dpt_dq = rho * u / A
        for k in range(1, N):
            J[k, k] = dpt_dA[k]
            J[k, N + k] = dpt_dq[k]
            J[k, 0] = -dpt_dA[0]
            J[k, N] = -dpt_dq[0]
        for k in range(N):
            J[N + k, k] = -u[k] / A[k] + sgn[k] * c[k] / A[k]
            J[N + k, N + k] = 1.0 / A[k]
        return J

    r, scale = residual(x)
    norm = np.max(np.abs(r / scale))
    for _ in range(max_iter):
        if norm < tol:
            break
        step = np.linalg.solve(jacobian(x), r)
        lam = 1.0
        for _ in range(10):
            x_new = x - lam * step
            r_new, scale_new = residual(x_new)
            if r_new is not None:
                norm_new = np.max(np.abs(r_new / scale_new))
                if norm_new < norm:
                    break
            lam *= 0.5
        else:
            raise AssertionError("oracle junction Newton stalled")
        x, r, scale, norm = x_new, r_new, scale_new, norm_new
    return list(zip(x[:N], x[N:]))


def _oracle_inflow_bc(ves, boundary_state, q_in, tol=1e-10):
    A_i, q_i = boundary_state
    W = q_i / A_i - 4.0 * ves.celerity(A_i)
    A = A_i
    tol_abs = tol * max(1.0, abs(W))
    for _ in range(50):
        f = q_in / A - 4.0 * ves.celerity(A) - W
        if abs(f) < tol_abs:
            return A, q_in
        df = -q_in / (A * A) - ves.celerity(A) / A
        A_new = A - f / df
        A = A_new if A_new > 0 else 0.5 * A
    raise AssertionError("oracle inflow solve did not converge")


def _oracle_terminal_bc(ves, boundary_state, terminal, P_wk, dt, tol=1e-10):
    A_i, q_i = boundary_state
    W = q_i / A_i + 4.0 * ves.celerity(A_i)
    if isinstance(terminal, Windkessel):
        beta = 1.0 / (1.0 + dt / (terminal.R2 * terminal.C))
        R_eff = terminal.R1 + beta * dt / terminal.C
        P_c = beta * (P_wk + dt * terminal.P_v / (terminal.R2 * terminal.C))
    else:
        R_eff, P_c = terminal.R, terminal.P_v
    A = A_i
    tol_abs = tol * max(1.0, abs(W))
    for _ in range(100):
        p = ves.pressure(A)
        c = ves.celerity(A)
        qs = (p - P_c) / R_eff
        g = qs / A + 4.0 * c - W
        if abs(g) < tol_abs:
            break
        dg = (ves.rho * c * c / A / R_eff) / A - qs / (A * A) + c / A
        A_new = A - g / dg
        A = A_new if A_new > 0 else 0.5 * A
    q_star = (ves.pressure(A) - P_c) / R_eff
    if isinstance(terminal, Windkessel):
        P_wk = beta * (P_wk + dt * q_star / terminal.C
                       + dt * terminal.P_v / (terminal.R2 * terminal.C))
    return (A, q_star), P_wk


class _OracleSimulation:
    """One Vessel per vessel, each prepared and committed on its own."""

    def __init__(self, network, inflow, dx_max=0.2, CFL=0.9):
        self.network, self.inflow, self.CFL = network, inflow, CFL
        self.vessels = {vid: OracleVessel(spec, dx_max, network.initial_area(vid))
                        for vid, spec in network.vessels.items()}
        self.P_wk = {vid: network.initial_pressure
                     for vid, term in network.terminals.items()
                     if isinstance(term, Windkessel)}
        self.t = 0.0

    def step(self, dt):
        preps = {vid: v.prepare(dt) for vid, v in self.vessels.items()}
        left, right = {}, {}
        root = self.network.root
        ves, p = self.vessels[root], preps[root]
        A_s, q_s = _oracle_inflow_bc(ves, (float(p["AbL"][0]), float(p["qbL"][0])),
                                     float(self.inflow(self.t + 0.5 * dt)))
        left[root] = tuple(float(f) for f in ves.flux(A_s, q_s))
        for node in self.network.junctions:
            states = []
            for vid, end in junction_members(node):
                p = preps[vid]
                states.append((float(p["AbR"][-1]), float(p["qbR"][-1]))
                              if end == "right"
                              else (float(p["AbL"][0]), float(p["qbL"][0])))
            stars = _oracle_junction_solve(node, self.vessels, states)
            for (vid, end), (A_s, q_s) in zip(junction_members(node), stars):
                F = tuple(float(f) for f in self.vessels[vid].flux(A_s, q_s))
                (right if end == "right" else left)[vid] = F
        for vid, term in self.network.terminals.items():
            ves, p = self.vessels[vid], preps[vid]
            (A_s, q_s), P_new = _oracle_terminal_bc(
                ves, (float(p["AbR"][-1]), float(p["qbR"][-1])), term,
                self.P_wk.get(vid, 0.0), dt)
            right[vid] = tuple(float(f) for f in ves.flux(A_s, q_s))
            if vid in self.P_wk:
                self.P_wk[vid] = P_new
        for vid, v in self.vessels.items():
            v.commit(dt, preps[vid], left[vid], right[vid])
        self.t += dt


def _oracle_run_1d(network, inflow, t_end, sample_interval=1e-3):
    sim = _OracleSimulation(network, inflow)

    def sample():
        out = {}
        for vid, v in sim.vessels.items():
            A = float(v.A[v.mesh.M // 2])
            out[vid] = (float(v.pressure(A)), float(v.q[v.mesh.M // 2]), A)
        return out

    # the first step to reach each k * sample_interval, and the last step
    times, records = [0.0], [sample()]
    k = 1
    while sim.t < t_end - 1e-12:
        dt = min(_oracle_cfl_dt(sim.vessels.values(), sim.CFL), t_end - sim.t)
        sim.step(dt)
        if sim.t >= k * sample_interval - 1e-12 or sim.t >= t_end - 1e-12:
            times.append(sim.t)
            records.append(sample())
            while k * sample_interval <= sim.t + 1e-12:
                k += 1
    return np.array(times), {
        vid: {ch: np.array([rec[vid][i] for rec in records])
              for i, ch in enumerate("PQA")}
        for vid in network.vessels}


#: an asymmetric tree: a trifurcation, a bifurcation below one of its
#: daughters, vessels of different lengths (and so cell counts), walls and
#: reference pressures, and both terminal kinds
ASYMMETRIC_TREE = """
[fluid]
rho = 1.06
mu = 0.04
zeta = 9
pressure_ref = 9.0e4
initial_pressure = 1.0e5

[vessel a]
length = 6.3
area = 2.1
wall_thickness = 0.1
youngs_modulus = 5.0e6

[vessel b]
length = 4.1
area = 0.9
wall_thickness = 0.07
youngs_modulus = 6.0e6

[vessel c]
length = 7.7
area = 0.6
wall_thickness = 0.06
youngs_modulus = 8.0e6
pressure_ref = 9.5e4

[vessel d]
length = 2.9
area = 0.45
wall_thickness = 0.05
youngs_modulus = 7.0e6

[vessel e]
length = 3.3
area = 0.5
wall_thickness = 0.05
youngs_modulus = 6.5e6

[vessel f]
length = 5.2
area = 0.35
wall_thickness = 0.045
youngs_modulus = 9.0e6

[junction]
parent = a
daughters = b c d

[junction]
parent = b
daughters = e f

[inflow]
vessel = a

[terminal c]
type = rcr
r1 = 2.0e3
c = 1.0e-5
r2 = 4.0e4

[terminal d]
type = r
r = 3.0e4
p_out = 1.0e4

[terminal e]
type = rcr
r1 = 3.0e3
c = 8.0e-6
r2 = 5.0e4

[terminal f]
type = rcr
r1 = 4.0e3
c = 6.0e-6
r2 = 6.0e4
"""


def _disturbed_pair(network, seed):
    """A Simulation1D and an oracle with equal, non-trivial cell states."""
    rng = np.random.default_rng(seed)
    sim = Simulation1D(network, synthetic_inflow())
    oracle = _OracleSimulation(network, synthetic_inflow())
    for vid, U in sim.vessels.items():
        M = U.shape[1]
        U[0] = U[0] * (1.0 + 0.05 * rng.standard_normal(M))
        U[1] = 20.0 * rng.standard_normal(M)
        oracle.vessels[vid].A = U[0].copy()
        oracle.vessels[vid].q = U[1].copy()
    return sim, oracle


class TestStackedCells:
    """The stacked prepare/commit against the per-vessel oracle."""

    @pytest.mark.parametrize("network", ["bifurcation", "asymmetric"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_prepare_commit_bit_identical(self, network, seed):
        net = (parse_network(ASYMMETRIC_TREE) if network == "asymmetric"
               else aortic_bifurcation())
        sim, oracle = _disturbed_pair(net, seed)
        cells = sim.cells
        dt = cfl_step(cells, 0.9)
        assert dt == _oracle_cfl_dt(oracle.vessels.values(), 0.9)
        prep = prepare(cells, dt)
        left, right = [], []
        for k, (vid, ves) in enumerate(oracle.vessels.items()):
            ref = ves.prepare(dt)
            s, e = cells.bounds[k], cells.bounds[k + 1]
            for key, face in FACES.items():
                np.testing.assert_array_equal(prep.Ub[face][s:e], ref[key])
            np.testing.assert_array_equal(prep.S_q[s:e], ref["S_q"])
            # transmissive ends: the physical flux of the evolved face states
            lf = tuple(float(f) for f in ves.flux(ref["AbL"][0], ref["qbL"][0]))
            rf = tuple(float(f) for f in ves.flux(ref["AbR"][-1], ref["qbR"][-1]))
            ves.commit(dt, ref, lf, rf)
            left.append(lf)
            right.append(rf)
        cells.commit(dt, prep, flat(left, right))
        for vid, (A, q) in sim.vessels.items():
            np.testing.assert_array_equal(A, oracle.vessels[vid].A)
            np.testing.assert_array_equal(q, oracle.vessels[vid].q)

    def test_end_states_are_segment_ends(self):
        sim, _ = _disturbed_pair(parse_network(ASYMMETRIC_TREE), 2)
        prep = prepare(sim.cells, cfl_step(sim.cells, 0.9))
        ends = sim.cells.end_states(prep)
        (AbL, AbR), (qbL, qbR) = prep.Ub
        for k, spec in enumerate(sim.network.vessels.values()):
            s, e = sim.cells.bounds[k], sim.cells.bounds[k + 1]
            i, j = Vessel1D.end_index(k, "left"), Vessel1D.end_index(k, "right")
            assert ends[i] == AbL[s] and ends[i + 1] == qbL[s]
            assert ends[j] == AbR[e - 1] and ends[j + 1] == qbR[e - 1]
            assert e - s == build_mesh(spec.length, 0.2).M

    def test_flux_at_an_end_state_position_enters_that_cell(self):
        # position i of commit's flux list belongs to the end whose evolved
        # state end_states reports at position i
        sim, _ = _disturbed_pair(parse_network(ASYMMETRIC_TREE), 7)
        cells = sim.cells
        dt = cfl_step(cells, 0.9)
        prep = prepare(cells, dt)
        ends = cells.end_states(prep)
        before = cells.U.copy()
        zero = [0.0] * len(ends)
        cells.commit(dt, prep, zero)
        base = cells.U.copy()
        for i, value in enumerate(ends):
            # the disturbed face states are distinct: one cell holds each
            [(var, face, cell)] = np.argwhere(prep.Ub == value).tolist()
            cells.U[:] = before
            flux = list(zero)
            flux[i] = 1.0
            cells.commit(dt, prep, flux)
            changed = np.argwhere(cells.U != base)
            assert changed.tolist() == [[var, cell]], i
            # an inflow through the left face adds, through the right removes
            sign = 1.0 if face == 0 else -1.0
            assert sign * (cells.U[var, cell] - base[var, cell]) > 0.0, i

    def test_vessel_arrays_are_views_updated_in_place(self):
        sim = Simulation1D(parse_network(ASYMMETRIC_TREE), synthetic_inflow())
        views = dict(sim.vessels)
        for _ in range(3):
            sim.step()
        for k, (vid, U) in enumerate(sim.vessels.items()):
            assert U is views[vid] and U.shape[0] == 2
            assert np.shares_memory(U, sim.cells.U)
            s, e = sim.cells.bounds[k], sim.cells.bounds[k + 1]
            np.testing.assert_array_equal(U, sim.cells.U[:, s:e])
        assert np.any(sim.vessels["a"][1] != 0.0)

    def test_single_vessel_is_one_segment_stack(self):
        ves = stack(aorta_spec())
        assert ves.ids == ("aorta",) and list(ves.bounds) == [0, 43]
        stacked = stack(aorta_spec(), iliac_spec())
        assert stacked.ids == ("aorta", "iliac")
        assert list(stacked.bounds) == [0, 43, 86]
        assert np.array_equal(stacked._table[..., 43:], stack(iliac_spec())._table)
        with pytest.raises(ConfigurationError, match="at least one vessel"):
            Vessel1D([], 0.2, [])

    def test_run_matches_oracle_over_two_cycles(self):
        net = aortic_bifurcation()
        inflow = synthetic_inflow()
        res = run_1d(net, inflow, t_end=2.2, T0=1.1)
        t_ref, ref = _oracle_run_1d(net, inflow, 2.2)
        assert res.t.shape == t_ref.shape
        np.testing.assert_allclose(res.t, t_ref, rtol=0.0, atol=1e-12)
        for vid, series in ref.items():
            for ch, values in series.items():
                peak = np.max(np.abs(values))
                assert np.max(np.abs(res.vessels[vid][ch] - values)) <= 1e-9 * peak
        for ch in "PQA":
            np.testing.assert_array_equal(res.vessels["left_iliac"][ch],
                                          res.vessels["right_iliac"][ch])


class TestStackErrors:
    """Errors raised from the stack name the vessel and its local cell."""

    @staticmethod
    def _sim():
        sim = Simulation1D(parse_network(ASYMMETRIC_TREE), synthetic_inflow())
        ids = list(sim.vessels)
        return sim, ids[1], ids[-1]

    def test_supercritical_second_and_last(self):
        sim, second, last = self._sim()
        for vid, cell in ((second, 5), (last, 2)):
            A, q = sim.vessels[vid]
            c = OracleVessel(sim.network.vessels[vid], 0.2).celerity(A[cell])
            q[cell] = 2.0 * float(c) * A[cell]
        with pytest.raises(SupercriticalError, match=f"'{second}' at cell 5"):
            cfl_step(sim.cells, 0.9)
        sim.vessels[second][1] = 0.0
        with pytest.raises(SupercriticalError, match=f"'{last}' at cell 2"):
            sim.step()

    def test_reconstructed_collapse_second_and_last(self):
        sim, second, last = self._sim()
        sim.vessels[second][0, 7] = -0.5
        sim.vessels[last][0, 3] = -0.5
        for vid, cell in ((second, 7), (last, 3)):
            # the celerity of a negative area is NaN, and prepare reads it
            # only after the reconstruction has failed
            with np.errstate(invalid="ignore"):
                centre = sim.cells.centre_values()
            with pytest.raises(CollapseError, match=f"'{vid}' at cell {cell}"):
                sim.cells.prepare(1e-5, centre)
            sim.vessels[second][0, 7] = sim.vessels[second][0, 6]

    def test_negative_area_second_and_last(self):
        sim, second, last = self._sim()
        cells = sim.cells
        dt = cfl_step(cells, 0.9)
        before = cells.U.copy()
        for drained in ([second, last], [last]):
            prep = prepare(cells, dt)
            # no flux in, and a huge outflow at the right end of the drained
            left = [(0.0, 0.0)] * len(sim.vessels)
            right = [(1e7 if vid in drained else 0.0, 0.0) for vid in sim.vessels]
            M = sim.vessels[drained[0]].shape[1]
            with pytest.raises(CollapseError,
                               match=f"'{drained[0]}' at cell {M - 1}"):
                cells.commit(dt, prep, flat(left, right))
            # a failed commit leaves the state as it was
            np.testing.assert_array_equal(cells.U, before)


class TestWorkspace:
    """Each stack runs its kernels on buffers of its own, made at its first
    kernel call; what a kernel hands out never lives in them."""

    def test_construction_allocates_no_workspace(self):
        sim = Simulation1D(aortic_bifurcation(), synthetic_inflow())
        assert "_ws" not in sim.cells.__dict__
        sim.step()
        assert "_ws" in sim.cells.__dict__

    def test_interleaved_simulations_match_separate_runs(self):
        # a kernel that left state in a buffer for a later call, or buffers
        # shared between stacks, would let one run change the other; the
        # last two stacks have the same cells but different walls. The
        # midpoint samples are the run's own indices into the state
        networks = [aortic_bifurcation(),
                    parse_network(_netgen().make_tree(0, 8).to_text()),
                    parse_network(ASYMMETRIC_TREE),
                    parse_network(ASYMMETRIC_TREE.replace("5.0e6", "1.0e7"))]

        def record(sim, series):
            series.append((sim.t, sim.cells.U.copy(),
                           sim.cells.U.take(sim._midpoints[0])))

        separate = []
        for network in networks:
            sim, series = Simulation1D(network, synthetic_inflow()), []
            for _ in range(60):
                sim.step()
                record(sim, series)
            separate.append(series)
        sims = [Simulation1D(network, synthetic_inflow()) for network in networks]
        interleaved = [[] for _ in sims]
        for _ in range(60):
            for sim, series in zip(sims, interleaved):
                sim.step()
                record(sim, series)
        for ref, got in zip(separate, interleaved):
            for (t_ref, U_ref, mid_ref), (t, U, mid) in zip(ref, got):
                assert t == t_ref
                assert np.array_equal(U, U_ref) and np.array_equal(mid, mid_ref)

    def test_interleaved_stacks_match_oracle(self):
        # equal cell counts, different walls: each stack must read its own
        # parameter rows, whichever stack ran its kernels first
        pairs = [_disturbed_pair(parse_network(text), seed) for seed, text in
                 enumerate((ASYMMETRIC_TREE, ASYMMETRIC_TREE.replace("5.0e6", "1.0e7")))]
        for _ in range(3):
            dts = [cfl_step(sim.cells, 0.9) for sim, _ in pairs]
            preps = [prepare(sim.cells, dt) for (sim, _), dt in zip(pairs, dts)]
            for (sim, oracle), dt, prep in zip(pairs, dts, preps):
                assert dt == _oracle_cfl_dt(oracle.vessels.values(), 0.9)
                left, right = [], []
                for k, ves in enumerate(oracle.vessels.values()):
                    ref = ves.prepare(dt)
                    s, e = sim.cells.bounds[k], sim.cells.bounds[k + 1]
                    for key, face in FACES.items():
                        assert np.array_equal(prep.Ub[face][s:e], ref[key])
                    assert np.array_equal(prep.S_q[s:e], ref["S_q"])
                    left.append(tuple(float(f) for f in ves.flux(ref["AbL"][0], ref["qbL"][0])))
                    right.append(tuple(float(f) for f in ves.flux(ref["AbR"][-1], ref["qbR"][-1])))
                    ves.commit(dt, ref, left[-1], right[-1])
                sim.cells.commit(dt, prep, flat(left, right))
                for vid, (A, q) in sim.vessels.items():
                    assert np.array_equal(A, oracle.vessels[vid].A)
                    assert np.array_equal(q, oracle.vessels[vid].q)

    def test_prep_outlives_a_later_prepare(self):
        sim, _ = _disturbed_pair(parse_network(ASYMMETRIC_TREE), 3)
        cells = sim.cells
        dt = cfl_step(cells, 0.9)
        first = prepare(cells, dt)
        Ub, S_q = first.Ub.copy(), first.S_q.copy()
        cells.U[1] *= 0.5
        second = prepare(cells, 0.5 * dt)
        assert not np.shares_memory(first.Ub, second.Ub)
        assert not np.shares_memory(first.S_q, second.S_q)
        assert not np.array_equal(second.Ub, Ub)
        assert np.array_equal(first.Ub, Ub) and np.array_equal(first.S_q, S_q)

    def test_failed_commit_leaves_state_and_next_commit_intact(self):
        network = parse_network(ASYMMETRIC_TREE)
        sim, twin = (_disturbed_pair(network, 4)[0] for _ in range(2))
        cells = sim.cells
        dt = cfl_step(cells, 0.9)
        prep, twin_prep = prepare(cells, dt), prepare(twin.cells, dt)
        n = len(sim.vessels)
        left, right = [(0.0, 0.0)] * n, [(0.0, 0.0)] * n
        drained = list(sim.vessels).index("d")
        before = cells.U.copy()
        with pytest.raises(CollapseError, match="'d' at cell"):
            cells.commit(dt, prep, flat(left, [(1e7, 0.0) if k == drained
                                               else (0.0, 0.0) for k in range(n)]))
        assert np.array_equal(cells.U, before)
        # the failed commit leaves nothing behind that the next one reads
        cells.commit(dt, prep, flat(left, right))
        twin.cells.commit(dt, twin_prep, flat(left, right))
        assert np.array_equal(cells.U, twin.cells.U)

    def test_boundary_flux_count_is_checked(self):
        # one pair per segment end: a pair for each end of the whole stack
        # is refused
        sim = Simulation1D(parse_network(ASYMMETRIC_TREE), synthetic_inflow())
        cells = sim.cells
        dt = cfl_step(cells, 0.9)
        prep = prepare(cells, dt)
        before = cells.U.copy()
        with pytest.raises(ValueError):
            cells.commit(dt, prep, [0.0] * 4)
        assert np.array_equal(cells.U, before)

    @pytest.mark.parametrize("flux", [[5.0], 5.0, [5.0] * 13, [[5.0] * 6] * 2])
    def test_boundary_flux_is_not_broadcast(self, flux):
        # one value once filled all 12 boundary slots of the bifurcation
        cells = Simulation1D(aortic_bifurcation(), synthetic_inflow()).cells
        dt = cfl_step(cells, 0.9)
        prep = prepare(cells, dt)
        before = cells.U.copy()
        got = np.size(flux)
        with pytest.raises(ValueError, match=f"^commit takes 12 boundary flux values, "
                                             f"4 for each of 3 segments, got {got}$"):
            cells.commit(dt, prep, flux)
        assert np.array_equal(cells.U, before)

    def test_non_finite_face_state_names_vessel(self):
        sim, _ = _disturbed_pair(parse_network(ASYMMETRIC_TREE), 5)
        cells = sim.cells
        dt = cfl_step(cells, 0.9)
        prep = prepare(cells, dt)
        k = list(sim.vessels).index("e")
        prep.Ub[1, 1, cells.bounds[k] + 3] = math.inf
        n = len(sim.vessels)
        before = cells.U.copy()
        with pytest.raises(ConvergenceError,
                           match="^wave-speed estimate failure in vessel 'e'$"):
            cells.commit(dt, prep, [0.0] * (4 * n))
        assert np.array_equal(cells.U, before)


class TestStepPasses:
    """A step computes the cell-centre values once, skips the upwind masks
    of the HLL flux where every interface is subsonic, and samples run_1d
    as raw midpoint states; each keeps the bits of the full computation."""

    def test_interface_flux_upwind_by_slow_path(self):
        # the three interior interfaces of a four-cell vessel, with the
        # evolved face states on either side written into the prep
        spec = aorta_spec()
        ves = stack(spec, dx_max=spec.length / 4)
        A = spec.wall.A0 * np.array([1.0, 1.02, 0.98])
        c = OracleVessel(spec, 0.2).celerity(A)
        # interfaces: subsonic, all waves right-going (SL >= 0), all
        # left-going (SR <= 0)
        qL = np.array([10.0, 3.0 * c[1] * A[1], -3.0 * c[2] * A[2]])
        qR = np.array([-5.0, 3.5 * c[1] * A[1], -3.5 * c[2] * A[2]])

        def interior_fluxes(AL, qL, AR, qR):
            """HLL fluxes of commit at the interfaces, and the physical
            fluxes (q, F_q) of the face states, [var, face, cell]."""
            prep = prepare(ves, 1e-6)
            prep.Ub[:, 1, :-1] = AL, qL
            prep.Ub[:, 0, 1:] = AR, qR
            ves.commit(1e-6, prep, [0.0] * 4)
            return ves._ws.F_hll.copy(), ves._ws.Fb.copy()

        F, Fb = interior_fluxes(A, qL, A[::-1].copy(), qR)
        assert ves._ws.hll.left.any() and ves._ws.hll.right.any()
        # upwind: the flux of the state left of interface 1 (the right face
        # of cell 1), and of the state right of interface 2 (the left face
        # of cell 3)
        assert np.array_equal(F[:, 1], Fb[:, 1, 1])
        assert np.array_equal(F[:, 2], Fb[:, 0, 3])
        # the subsonic interface alone takes the fast path: the same bits
        alone, _ = interior_fluxes(A[[0, 0, 0]], qL[[0, 0, 0]], A[[2, 2, 2]],
                                   qR[[0, 0, 0]])
        assert np.array_equal(alone[:, 0], F[:, 0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stack_with_supersonic_interfaces_matches_oracle(self, seed):
        sim, oracle = _disturbed_pair(parse_network(ASYMMETRIC_TREE), seed)
        for vid, sign in (("b", 3.0), ("e", -3.0)):
            A, q = sim.vessels[vid]
            q[4:9] = sign * oracle.vessels[vid].celerity(A[4:9]) * A[4:9]
            oracle.vessels[vid].q = q.copy()
        cells, dt = sim.cells, 1e-5
        prep = prepare(cells, dt)
        upwind = cells._ws.hll
        upwind.left[:] = upwind.right[:] = False
        left, right = [], []
        for k, (vid, ves) in enumerate(oracle.vessels.items()):
            ref = ves.prepare(dt)
            s, e = cells.bounds[k], cells.bounds[k + 1]
            assert np.array_equal(prep.Ub[0, 1, s:e], ref["AbR"])
            left.append(tuple(float(f) for f in ves.flux(ref["AbL"][0], ref["qbL"][0])))
            right.append(tuple(float(f) for f in ves.flux(ref["AbR"][-1], ref["qbR"][-1])))
            ves.commit(dt, ref, left[-1], right[-1])
        cells.commit(dt, prep, flat(left, right))
        # the masks of the slow path were taken
        assert upwind.left.any() and upwind.right.any()
        for vid, (A, q) in sim.vessels.items():
            assert np.array_equal(A, oracle.vessels[vid].A)
            assert np.array_equal(q, oracle.vessels[vid].q)

    @pytest.mark.parametrize("network", ["bifurcation", "asymmetric"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_prepare_on_step_centre_values_matches_standalone(self, network, seed):
        # a step hands the centre values it gave cfl_dt on to prepare:
        # cfl_dt leaves them as they were, and prepare reads them as it
        # reads a copy
        net = (parse_network(ASYMMETRIC_TREE) if network == "asymmetric"
               else aortic_bifurcation())
        cells = _disturbed_pair(net, seed)[0].cells
        centre = cells.centre_values()
        alone = tuple(a.copy() for a in centre)
        dt = cfl_dt(cells, 0.9, centre)
        assert all(np.array_equal(a, b) for a, b in zip(centre, alone))
        handed = cells.prepare(dt, centre)
        ref = cells.prepare(dt, alone)
        assert np.array_equal(handed.Ub, ref.Ub)
        assert np.array_equal(handed.S_q, ref.S_q)

    def test_write_between_cfl_dt_and_prepare_is_honoured(self):
        sim, twin = (_disturbed_pair(parse_network(ASYMMETRIC_TREE), 6)[0]
                     for _ in range(2))
        dt = cfl_step(sim.cells, 0.9)
        before = prepare(sim.cells, dt)
        sim.vessels["c"][1, 2:5] += 15.0
        sim.vessels["c"][0] *= 1.01
        twin.cells.U[:] = sim.cells.U
        got, ref = prepare(sim.cells, dt), prepare(twin.cells, dt)
        assert not np.array_equal(got.Ub, before.Ub)
        assert np.array_equal(got.Ub, ref.Ub) and np.array_equal(got.S_q, ref.S_q)
        sim.vessels["d"][1, 0] = -12.0
        twin.cells.U[:] = sim.cells.U
        assert sim.step() == twin.step()
        assert np.array_equal(sim.cells.U, twin.cells.U)

    # each case is named by the rows of its sample buffer
    @pytest.mark.parametrize("network, t_end, every, dx_max, rows", [
        pytest.param("asymmetric", 0.02, 1e-3, 0.2, 23, id="23"),
        # t_end / every is 42.99999999999999
        pytest.param("asymmetric", 0.043, 1e-3, 0.2, 45, id="45"),
        # a run shorter than one interval: the first and the last sample
        pytest.param("asymmetric", 5e-4, 1e-3, 0.2, 3, id="3"),
        # an interval below the CFL step: a sample each step, and most of
        # the buffer's rows left unwritten
        pytest.param("asymmetric", 0.04093, 1e-5, 0.2, 4096, id="4096"),
        # the benchmark's 1D run: CFL steps below 1 ms, a sample at each k
        pytest.param("bifurcation", 2.2, 1e-3, 0.2, 2203, id="2203"),
        # two cells a vessel: CFL steps of about 5.4 ms, a sample each
        pytest.param("bifurcation", 0.1, 1e-3, 4.5, 103, id="103")])
    def test_run_samples_equal_midpoint_samples(self, network, t_end, every, dx_max,
                                                rows, monkeypatch):
        # run_1d's sample buffer is made once, with the rows its docstring
        # states, and the samples are those of a step-by-step reference
        buffers, empty = [], np.empty

        def recorded(shape, *args, **kwargs):
            if sys._getframe(1).f_code is run_1d.__code__:
                buffers.append(shape)
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", recorded)
        network = (parse_network(ASYMMETRIC_TREE) if network == "asymmetric"
                   else aortic_bifurcation())
        inflow = synthetic_inflow()
        res = run_1d(network, inflow, t_end=t_end, dx_max=dx_max, T0=1.1,
                     sample_interval=every)
        monkeypatch.undo()
        assert buffers == [(int(t_end / every) + 3, 2 * len(network.vessels))]
        assert buffers[0][0] == rows
        sim = Simulation1D(network, inflow, dx_max=dx_max)
        times, samples = [0.0], [midpoint_samples(sim)]
        k = 1
        while sim.t < t_end - 1e-12:
            sim.step(until=t_end)
            if sim.t >= k * every - 1e-12 or sim.t >= t_end - 1e-12:
                times.append(sim.t)
                samples.append(midpoint_samples(sim))
                while k * every <= sim.t + 1e-12:
                    k += 1
        samples = np.array(samples)
        assert np.array_equal(res.t, times)
        assert len(times) <= rows
        for k, vid in enumerate(network.vessels):
            for j, ch in enumerate("PQA"):
                assert np.array_equal(res.vessels[vid][ch], samples[:, j, k]), (vid, ch)

    @pytest.mark.parametrize("bad", [{"t_end": 0.0}, {"t_end": -1.0},
                                     {"t_end": math.inf}, {"T0": 0.0},
                                     {"T0": -1.1}, {"sample_interval": 0.0},
                                     {"sample_interval": math.nan}])
    def test_run_without_time_is_refused(self, bad, monkeypatch):
        name, value = next(iter(bad.items()))
        monkeypatch.setattr(Simulation1D, "__init__", None)  # no work begins
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            run_1d(aortic_bifurcation(), synthetic_inflow(), **bad)


def _random_junction(n_members, seed, mirrored=False):
    """Members of different walls at states near a common pressure, in
    Python floats as in a simulation."""
    rng = np.random.default_rng(seed)
    P0 = float(rng.choice([0.0, 94666.66666666667]))
    p = P0 + rng.uniform(0.0, 2.0e4)
    specs, states = [], []
    for k in range(n_members):
        if mirrored and k > 1:
            specs.append(VesselSpec(vessel_id=f"v{k}", length=specs[1].length,
                                    wall=specs[1].wall, fluid=BLOOD))
            states.append(states[1])
            continue
        wall = WallModel.arterial(A0=rng.uniform(0.3, 3.0),
                                  h0=rng.uniform(0.04, 0.12),
                                  E=rng.uniform(2e6, 9e6), P0=P0)
        specs.append(VesselSpec(vessel_id=f"v{k}", length=5.0, wall=wall,
                                fluid=BLOOD))
        states.append((tube_law_area(p, wall) * rng.uniform(0.98, 1.02),
                       rng.uniform(-20.0, 40.0)))
    return Junction("v0", tuple(f"v{k}" for k in range(1, n_members))), specs, states


class TestFloatJunction:
    @pytest.mark.parametrize("n_members", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_numpy_newton(self, n_members, seed):
        node, specs, states = _random_junction(n_members, seed)
        vessels = {s.vessel_id: s for s in specs}
        oracle = {s.vessel_id: OracleVessel(s, 0.2) for s in specs}
        stars = solve_junction(node, vessels, states)
        ref = _oracle_junction_solve(node, oracle, states)
        q_scale = max(1.0, max(abs(q) for _, q in ref))
        for (A, q, _), (A_ref, q_ref) in zip(stars, ref):
            assert abs(A - A_ref) <= 1e-12 * A_ref
            assert abs(q - q_ref) <= 1e-12 * q_scale

    @pytest.mark.parametrize("n_members", [3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_mirrored_daughters_bit_identical(self, n_members, seed):
        node, specs, states = _random_junction(n_members, seed, mirrored=True)
        vessels = {s.vessel_id: s for s in specs}
        stars = solve_junction(node, vessels, states)
        for star in stars[2:]:
            assert star == stars[1]

    @pytest.mark.parametrize("seed", range(5))
    def test_boundaries_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ves, ref = aorta_spec(), OracleVessel(aorta_spec(), 0.2)
        state = (ref.A0 * rng.uniform(0.9, 1.1), rng.uniform(-20.0, 40.0))
        q_in = rng.uniform(0.0, 300.0)
        A, q, _ = inflow_star(ves, state, q_in)
        A_ref, _ = _oracle_inflow_bc(ref, state, q_in)
        assert q == q_in and abs(A - A_ref) <= 1e-12 * A_ref
        p_wk = float(ref.pressure(ref.A0)) * rng.uniform(0.9, 1.1)
        term = Windkessel(R1=6.8123e2, C=3.6664e-5, R2=3.1013e4, P_v=0.0)
        (A, q, _), P = terminal_star(ves, state, term, p_wk, 1e-4)
        (A_ref, q_ref), P_ref = _oracle_terminal_bc(ref, state, term, p_wk, 1e-4)
        assert abs(A - A_ref) <= 1e-12 * A_ref
        assert abs(q - q_ref) <= 1e-12 * max(1.0, abs(q_ref))
        assert abs(P - P_ref) <= 1e-12 * abs(P_ref)


# ---------------------------------------------------------------------------
# Oracle: the loop-form closures the planned ones replaced. They rebuild
# their constants from each vessel's specification (``law``) on every call,
# and the junction Newton loops over lists of members; the planned closures
# do the same floating-point operations in the same order, so they must
# agree bit for bit, errors included.
# ---------------------------------------------------------------------------

def _loop_boundary_flux(law, A, q):
    A0, K, rho, _, _, alpha = law
    return q, alpha * q * q / A + (K * A / rho) * ((0.5 / 1.5) * math.sqrt(A / A0))


def _loop_junction_solve(node, vessels, states, tol=1e-10, max_iter=50):
    members = junction_members(node)
    N = len(members)
    sqrt = math.sqrt
    consts = []
    for vid, end in members:
        s = 1.0 if end == "right" else -1.0
        A0, K, _, K_rho, P_ref, _ = law(vessels[vid])
        consts.append((A0, K, K_rho, P_ref, s, 4.0 * s))
    rho = law(vessels[members[0][0]])[2]
    W = [q / A + fs * sqrt(K_rho * (0.5 * sqrt(A / A0)))
         for (A, q), (A0, _, K_rho, _, _, fs) in zip(states, consts)]
    W_scale = [max(1.0, abs(w)) for w in W]
    p_ref = max(abs(k[3]) for k in consts)

    def evaluate(A, q):
        u, c, pt, r_inv = [], [], [], []
        mass, q_scale, norm = 0.0, 1.0, 0.0
        for Ak, qk, (A0, K, K_rho, P_ref, s, fs), w, w_scale in zip(
                A, q, consts, W, W_scale):
            if Ak <= 0.0:
                return None
            sx = sqrt(Ak / A0)
            uk = qk / Ak
            ck = sqrt(K_rho * (0.5 * sx))
            u.append(uk)
            c.append(ck)
            pt.append(K * (sx - 1.0) + P_ref + 0.5 * rho * uk * uk)
            mass += s * qk
            q_scale = max(q_scale, abs(qk))
            rk = uk + fs * ck - w
            r_inv.append(rk)
            norm = max(norm, abs(rk) / w_scale)
        p_scale = max(1.0, abs(pt[0]), p_ref)
        r_pt = [p - pt[0] for p in pt[1:]]
        for rk in r_pt:
            norm = max(norm, abs(rk) / p_scale)
        return [mass, *r_pt, *r_inv], max(norm, abs(mass) / q_scale), u, c

    A = [s[0] for s in states]
    q = [s[1] for s in states]
    res = evaluate(A, q)
    if res is None:
        raise CollapseError(f"non-positive junction state for members {members}")
    r, norm, u, c = res
    for _ in range(max_iter):
        if norm < tol:
            break
        g, h, m, n, d = [], [], [], [], [0.0, *r[1:N]]
        sum_sg = sum_w = sum_wdn = 0.0
        for k, (Ak, uk, ck, rk, cst) in enumerate(zip(A, u, c, r[N:], consts)):
            s = cst[4]
            gk, hk = Ak * rk, s * ck - uk
            mk, nk = rho * ck * (ck - s * uk) / Ak, rho * uk * rk
            wk = Ak / (rho * ck)
            g.append(gk)
            h.append(hk)
            m.append(mk)
            n.append(nk)
            sum_sg += s * gk
            sum_w += wk
            sum_wdn += wk * (d[k] - nk)
        X = (sum_sg - r[0] - sum_wdn) / sum_w
        try:
            dA = [(X + dk - nk) / mk for dk, nk, mk in zip(d, n, m)]
        except ZeroDivisionError:
            raise ConvergenceError(
                f"critical flow makes the junction Jacobian singular for "
                f"members {members}") from None
        dq = [gk - hk * dAk for gk, hk, dAk in zip(g, h, dA)]
        lam = 1.0
        for _ in range(10):
            A_new = [Ak - lam * dAk for Ak, dAk in zip(A, dA)]
            q_new = [qk - lam * dqk for qk, dqk in zip(q, dq)]
            res = evaluate(A_new, q_new)
            if res is not None and res[1] < norm:
                break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"junction Newton stalled at residual {norm:.3e} "
                f"for members {members}")
        A, q = A_new, q_new
        r, norm, u, c = res
    else:
        raise ConvergenceError(
            f"junction Newton did not converge: residual {norm:.3e} "
            f"for members {members}")
    for k in range(N):
        if abs(u[k]) >= c[k]:
            raise SupercriticalError(
                f"supercritical junction state at {members[k]}")
    return list(zip(A, q))


def _loop_inflow_bc(spec, boundary_state, q_in, tol=1e-10, max_iter=50):
    A0, _, _, K_rho, _, _ = law(spec)
    A_i, q_i = boundary_state
    W = q_i / A_i - 4.0 * math.sqrt(K_rho * (0.5 * math.sqrt(A_i / A0)))
    A = A_i
    tol_abs = tol * max(1.0, abs(W))
    for _ in range(max_iter):
        c = math.sqrt(K_rho * (0.5 * math.sqrt(A / A0)))
        f = q_in / A - 4.0 * c - W
        if abs(f) < tol_abs:
            return A, q_in
        df = -q_in / (A * A) - c / A
        A_new = A - f / df
        if A_new <= 0:
            A_new = 0.5 * A
        A = A_new
    raise AssertionError("loop-form inflow solve did not converge")


def _loop_terminal_bc(spec, boundary_state, terminal, P_wk, dt, tol=1e-10,
                      max_iter=100):
    A0, K, rho, K_rho, P_ref, _ = law(spec)
    A_i, q_i = boundary_state
    W = q_i / A_i + 4.0 * math.sqrt(K_rho * (0.5 * math.sqrt(A_i / A0)))
    if isinstance(terminal, Windkessel):
        beta = 1.0 / (1.0 + dt / (terminal.R2 * terminal.C))
        R_eff = terminal.R1 + beta * dt / terminal.C
        P_c = beta * (P_wk + dt * terminal.P_v / (terminal.R2 * terminal.C))
    else:
        R_eff = terminal.R
        P_c = terminal.P_v
    A = A_i
    tol_abs = tol * max(1.0, abs(W))
    for _ in range(max_iter):
        sx = math.sqrt(A / A0)
        c = math.sqrt(K_rho * (0.5 * sx))
        qs = (K * (sx - 1.0) + P_ref - P_c) / R_eff
        g = qs / A + 4.0 * c - W
        if abs(g) < tol_abs:
            break
        dpdA = rho * c * c / A
        dg = (dpdA / R_eff) / A - qs / (A * A) + c / A
        A_new = A - g / dg
        if A_new <= 0:
            A_new = 0.5 * A
        A = A_new
    else:
        raise AssertionError("loop-form terminal solve did not converge")
    q_star = (K * (math.sqrt(A / A0) - 1.0) + P_ref - P_c) / R_eff
    if isinstance(terminal, Windkessel):
        P_wk = beta * (P_wk + dt * q_star / terminal.C
                       + dt * terminal.P_v / (terminal.R2 * terminal.C))
    return (A, q_star), P_wk


def _loop_step(sim, until=math.inf):
    """``Simulation1D.step`` with the loop-form closures, reading each
    vessel's constants from its specification."""
    cells = sim.cells
    dt = min(cfl_step(cells, sim.CFL), until - sim.t)
    prep = prepare(cells, dt)
    ends = cells.end_states(prep)
    specs = list(sim.network.vessels.values())
    n = len(specs)
    seg = {vid: k for k, vid in enumerate(sim.network.vessels)}
    left, right = [None] * n, [None] * n

    def state(k, is_right):
        """(A, q) at segment k's right or left end: the stack's end states
        hold per segment A, q of its left end, then of its right end."""
        i = 4 * k + 2 * is_right
        return ends[i], ends[i + 1]

    k = seg[sim.network.root]
    A_s, q_s = _loop_inflow_bc(specs[k], state(k, False),
                               float(sim.inflow(sim.t + 0.5 * dt)))
    left[k] = _loop_boundary_flux(law(specs[k]), A_s, q_s)
    for node in sim.network.junctions:
        sides = [(seg[vid], end == "right") for vid, end in junction_members(node)]
        states = [state(k, is_right) for k, is_right in sides]
        stars = _loop_junction_solve(node, sim.network.vessels, states)
        for (k, is_right), (A_s, q_s) in zip(sides, stars):
            (right if is_right else left)[k] = _loop_boundary_flux(
                law(specs[k]), A_s, q_s)
    for vid, term in sim.network.terminals.items():
        k = seg[vid]
        (A_s, q_s), P_new = _loop_terminal_bc(
            specs[k], state(k, True), term,
            sim.P_wk.get(vid, 0.0), dt)
        right[k] = _loop_boundary_flux(law(specs[k]), A_s, q_s)
        if vid in sim.P_wk:
            sim.P_wk[vid] = P_new
    cells.commit(dt, prep, flat(left, right))
    sim.t += dt
    return dt


def _outcome(solve):
    """('ok', result) or (exception type, message) of ``solve()``."""
    try:
        return "ok", solve()
    except (ArithmeticError, ValueError, ConvergenceError, CollapseError,
            SupercriticalError) as exc:
        return type(exc), str(exc)


def _extreme_junction(seed):
    """Members of walls up to 1e13 stiff at areas and flows far from any
    equilibrium: most solves stall, some end supercritical and a few run
    out of iterations."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    P0 = float(rng.choice([0.0, 94666.66666666667]))
    E = 10.0 ** rng.uniform(5.0, 13.0)
    specs, states = [], []
    for k in range(n):
        wall = WallModel.arterial(A0=rng.uniform(0.3, 3.0), h0=rng.uniform(0.04, 0.12),
                                  E=E * rng.uniform(0.5, 2.0), P0=P0)
        specs.append(VesselSpec(vessel_id=f"v{k}", length=5.0, wall=wall, fluid=BLOOD))
        states.append((wall.A0 * 10.0 ** rng.uniform(-2.0, 2.0),
                       rng.normal() * 10.0 ** rng.uniform(0.0, 6.0)))
    node = Junction("v0", tuple(f"v{k}" for k in range(1, n)))
    return node, {s.vessel_id: s for s in specs}, states


class TestPlannedClosures:
    """The planned closures against the loop-form oracle, bit for bit."""

    @staticmethod
    def assert_junction_agrees(node, vessels, states):
        """Both solves give the same states and fluxes, or the same error;
        returns the outcome of the loop form."""
        ref = _outcome(lambda: _loop_junction_solve(node, vessels, states))
        got = _outcome(lambda: solve_junction(node, vessels, states))
        if ref[0] != "ok":
            assert got == ref
            return ref
        assert got[0] == "ok"
        for (vid, _), star, (A, q) in zip(junction_members(node), got[1], ref[1]):
            assert star == (A, q) + _loop_boundary_flux(law(vessels[vid]), A, q)[1:]
        return ref

    @pytest.mark.parametrize("n_members", [2, 3, 4])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_junction_matches_loop_form(self, n_members, mirrored):
        for seed in range(20):
            node, specs, states = _random_junction(n_members, seed, mirrored)
            vessels = {s.vessel_id: s for s in specs}
            assert self.assert_junction_agrees(node, vessels, states)[0] == "ok"

    def test_junction_errors_match_loop_form(self):
        # about 1 in 160 of these states runs out of iterations; the last
        # three seeds are such states
        kinds = set()
        for seed in (*range(100), 658, 702, 873):
            kind, message = self.assert_junction_agrees(*_extreme_junction(seed))
            kinds.add(kind if kind == "ok" else (kind, message.split(":")[0][:24]))
        assert kinds == {"ok", (SupercriticalError, "supercritical junction s"),
                         (ConvergenceError, "junction Newton stalled "),
                         (ConvergenceError, "junction Newton did not ")}

    def test_junction_entry_and_critical_errors_match_loop_form(self):
        # Python floats throughout, as in a simulation: a numpy float
        # divides by zero without raising
        node, vessels = TestJunctionSolve()._bifurcation()
        states = [(2.4, 30.0), (1.1, 12.0), (1.2, 14.0)]
        # a non-positive area fails while the invariants are taken
        for A, kind in ((-0.5, ValueError), (0.0, ZeroDivisionError)):
            bad = [states[0], (A, 1.0), states[2]]
            assert self.assert_junction_agrees(node, vessels, bad)[0] is kind
        # member 0 exactly sonic (u = c): its pressure row has no slope
        A0, _, _, K_rho, _, _ = law(vessels["p"])
        A = A0
        while True:
            c = math.sqrt(K_rho * (0.5 * math.sqrt(A / A0)))
            if (c * A) / A == c:
                break
            A = math.nextafter(A, math.inf)
        sonic = [(A, c * A), states[1], states[2]]
        kind, message = self.assert_junction_agrees(node, vessels, sonic)
        assert kind is ConvergenceError and message.startswith("critical flow")

    @pytest.mark.parametrize("n_members", [2, 3, 4])
    def test_random_junction_with_sonic_member_is_critical(self, n_members):
        # member 0 exactly sonic (u = c) at its drawn area or just above
        node, specs, states = _random_junction(n_members, n_members)
        vessels = {s.vessel_id: s for s in specs}
        A0, _, _, K_rho, _, _ = law(vessels["v0"])
        A = states[0][0]
        while True:
            c = math.sqrt(K_rho * (0.5 * math.sqrt(A / A0)))
            if (c * A) / A == c:
                break
            A = math.nextafter(A, math.inf)
        states[0] = (A, c * A)
        kind, message = self.assert_junction_agrees(node, vessels, states)
        assert kind is ConvergenceError and message.startswith("critical flow")

    @pytest.mark.parametrize("seed", range(5))
    def test_boundaries_match_loop_form(self, seed):
        rng = np.random.default_rng(seed)
        ves = aorta_spec()
        state = (ves.wall.A0 * rng.uniform(0.9, 1.1), rng.uniform(-20.0, 40.0))
        q_in = rng.uniform(0.0, 300.0)
        A, q = _loop_inflow_bc(ves, state, q_in)
        assert inflow_star(ves, state, q_in) == (A, q) + _loop_boundary_flux(law(ves), A, q)[1:]
        # the pressure at the reference area
        p_wk = (ves.wall.P0 + ves.wall.p_ext) * rng.uniform(0.9, 1.1)
        for term in (Windkessel(R1=6.8123e2, C=3.6664e-5, R2=3.1013e4, P_v=1.0e3),
                     SingleResistance(R=rng.uniform(1e3, 1e5), P_v=1.0e3)):
            (A, q), P = _loop_terminal_bc(ves, state, term, p_wk, 1e-4)
            star, P_new = terminal_star(ves, state, term, p_wk, 1e-4)
            assert star == (A, q) + _loop_boundary_flux(law(ves), A, q)[1:]
            assert P_new == P

    def test_resistance_checked_at_construction(self):
        network = parse_network(ASYMMETRIC_TREE.replace("r = 3.0e4", "r = 0.0"))
        with pytest.raises(ConfigurationError,
                           match="^terminal resistance must be positive$"):
            Simulation1D(network, synthetic_inflow())

    @staticmethod
    def assert_run_matches_loop_form(network, t_end, monkeypatch):
        inflow = synthetic_inflow()
        res = run_1d(network, inflow, t_end=t_end, T0=1.1)
        with monkeypatch.context() as patch:
            patch.setattr(Simulation1D, "step", _loop_step)
            ref = run_1d(network, inflow, t_end=t_end, T0=1.1)
        assert np.array_equal(res.t, ref.t)
        for vid, series in ref.vessels.items():
            for ch, values in series.items():
                assert np.array_equal(res.vessels[vid][ch], values), (vid, ch)

    def test_run_matches_loop_form_on_bifurcation(self, monkeypatch):
        self.assert_run_matches_loop_form(aortic_bifurcation(), 1.1, monkeypatch)

    @pytest.mark.parametrize("initial_pressure", [None, 0.0])
    def test_run_matches_loop_form_on_generated_tree(self, initial_pressure,
                                                      monkeypatch):
        tree = _netgen().make_tree(0, 8)
        kwargs = {} if initial_pressure is None else {"initial_pressure": initial_pressure}
        network = parse_network(tree.to_text(**kwargs))
        assert len(network.vessels) == 15
        self.assert_run_matches_loop_form(network, 0.05, monkeypatch)

    def test_step_reads_no_view(self):
        sim = Simulation1D(parse_network(ASYMMETRIC_TREE), synthetic_inflow())
        for _ in range(3):
            sim.step()
        assert "vessels" not in sim.__dict__


def _netgen():
    """The benchmark's seeded tree generator (``perfbench/netgen.py``)."""
    import importlib.util
    from pathlib import Path

    name = "perfbench_netgen"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "netgen.py"
        spec = importlib.util.spec_from_file_location(name, path)
        # registered before it runs: its dataclasses look their module up
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]
