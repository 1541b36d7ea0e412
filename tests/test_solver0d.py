"""Lumped-parameter vessel models, network assembly and RK4 integration."""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import expm

from hemoflow.errors import CollapseError, ConfigurationError, ModelError
from hemoflow.netio import (
    WaveformSeries,
    parse_network,
    synthetic_inflow,
)
from hemoflow.solver0d import (
    ModelMode,
    NetworkModel0D,
    assemble_network,
    rk4_integrate,
    run_0d,
)
from hemoflow.netio import Windkessel, SingleResistance
from hemoflow.vessel import FluidProps, VesselSpec, WallModel, lumped_constants
from oracle0d import (
    Composition,
    PinPoutVessel,
    PinQoutVessel,
    QinPoutVessel,
    QinQoutVessel,
    pressure_of_volume,
    terminal_flow_coupling,
    terminal_pressure_coupling,
    vessel_inputs,
)

NL = ModelMode.nonlinear()
LIN = ModelMode.linear()


def unit_spec() -> VesselSpec:
    """rho = l = A0 = K = 1 and mu chosen so that k_R = 1."""
    fluid = FluidProps(rho=1.0, mu=1.0 / (22.0 * math.pi), zeta=9.0)
    wall = WallModel(A0=1.0, K=1.0)
    return VesselSpec(vessel_id="unit", length=1.0, wall=wall, fluid=fluid)


def aorta_like_spec(P0=94666.66666666667) -> VesselSpec:
    fluid = FluidProps(rho=1.06, mu=0.04, zeta=9.0)
    wall = WallModel.arterial(A0=2.3235, h0=0.1032, E=5.0e6, P0=P0)
    return VesselSpec(vessel_id="aorta", length=8.6, wall=wall, fluid=fluid)


def zero_inflow(period=1.1) -> WaveformSeries:
    return WaveformSeries(t=np.array([0.0, period]), q=np.zeros(2),
                          period=period)


class TestModelMode:
    def test_from_name(self):
        assert ModelMode.from_name("linear") == LIN
        assert ModelMode.from_name("nonlinear") == NL
        assert ModelMode.from_name("nl-p").nonlinear_pressure
        assert not ModelMode.from_name("nl-p").nonlinear_resistance
        assert ModelMode.from_name("nl-r").nonlinear_resistance
        assert ModelMode.from_name("nl-l").nonlinear_inductance

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            ModelMode.from_name("bogus")


class TestPressureOfVolume:
    def test_reference_volume_both_modes(self):
        spec = aorta_like_spec()
        V0 = spec.wall.A0 * spec.length
        for mode in (NL, LIN):
            assert pressure_of_volume(V0, spec, mode) == pytest.approx(
                spec.wall.P0, rel=1e-14)

    def test_nonlinear_matches_tube_law_at_benchmark_area(self):
        # the area listed for zero transmural pressure gives P near zero in
        # the nonlinear mode
        spec = aorta_like_spec()
        P = pressure_of_volume(1.8062 * 8.6, spec, NL)
        assert abs(P) < 100.0  # dyne/cm^2; 5-digit rounding of the area

    def test_linear_mode_differs_strongly(self):
        # the linear law extrapolates the reference-slope compliance and
        # misses by O(10^3) dyne/cm^2 at a 22% area reduction
        spec = aorta_like_spec()
        C0 = lumped_constants(spec).C0
        V = 1.8062 * 8.6
        P = pressure_of_volume(V, spec, LIN)
        expected = spec.wall.P0 + (V - spec.wall.A0 * 8.6) / C0
        assert P == pytest.approx(expected, rel=1e-12)
        assert P == pytest.approx(5.6e3, rel=0.05)

    def test_collapse(self):
        with pytest.raises(CollapseError):
            pressure_of_volume(0.0, aorta_like_spec(), NL)


class TestRhsConfigurations:
    def test_pin_qout_equilibrium(self):
        spec = aorta_like_spec()
        V0 = spec.wall.A0 * spec.length
        dV, dQ = PinQoutVessel(spec).rhs((V0, 0.0), spec.wall.P0, 0.0, NL)
        assert dV == 0.0 and dQ == 0.0

    def test_pin_qout_unit_arithmetic(self):
        # rho = l = A_hat = k_R = 1, P_in - P = 2, Q = 1 -> dQ/dt = 1
        spec = unit_spec()
        dV, dQ = PinQoutVessel(spec).rhs((1.0, 1.0), 2.0, 0.0, NL)
        assert dQ == pytest.approx(1.0, rel=1e-12)
        assert dV == pytest.approx(1.0, rel=1e-12)

    def test_pin_qout_pressure_step_sign(self):
        spec = aorta_like_spec()
        V0 = spec.wall.A0 * spec.length
        _, dQ = PinQoutVessel(spec).rhs((V0, 0.0), spec.wall.P0 + 1000.0, 0.0, NL)
        assert dQ > 0.0

    def test_qin_pout_unit_arithmetic(self):
        spec = unit_spec()
        dV, dQ = QinPoutVessel(spec).rhs((1.0, 1.0), 0.0, -2.0, NL)
        assert dQ == pytest.approx(1.0, rel=1e-12)
        assert dV == pytest.approx(-1.0, rel=1e-12)

    def test_qin_pout_mirror_symmetry(self):
        # with p_in = 2P - p_out and q_out = q_in the flow derivative
        # matches and the volume derivative flips sign
        spec = aorta_like_spec()
        state = (0.9 * spec.wall.A0 * spec.length, 12.0)
        P = pressure_of_volume(state[0], spec, NL)
        q_in, p_out = 5.0, P - 800.0
        dV_m, dQ_m = QinPoutVessel(spec).rhs(state, q_in, p_out, NL)
        dV_p, dQ_p = PinQoutVessel(spec).rhs(state, 2.0 * P - p_out, q_in, NL)
        assert dQ_p == pytest.approx(dQ_m, rel=1e-12)
        assert dV_p == pytest.approx(-dV_m, rel=1e-12)

    def test_pin_pout_equilibrium(self):
        spec = aorta_like_spec()
        V0 = spec.wall.A0 * spec.length
        d = PinPoutVessel(spec).rhs((V0, 0.0, 0.0), spec.wall.P0, spec.wall.P0, NL)
        assert d == (0.0, 0.0, 0.0)

    def test_pin_pout_unit_arithmetic(self):
        # half elements R = L = 1/2: dQ/dt = (2 - 0.5)/0.5 = 3 at Q = 1
        spec = unit_spec()
        dV, dQ, dQd = PinPoutVessel(spec).rhs((1.0, 1.0, 0.0), 2.0, 0.0, NL)
        assert dQ == pytest.approx(3.0, rel=1e-12)
        assert dQd == pytest.approx(0.0, abs=1e-12)
        assert dV == pytest.approx(1.0, rel=1e-12)

    def test_pin_pout_antisymmetric_drive(self):
        spec = aorta_like_spec()
        V0 = spec.wall.A0 * spec.length
        P = pressure_of_volume(V0, spec, NL)
        d = 500.0
        dV, dQ, dQd = PinPoutVessel(spec).rhs((V0, 0.0, 0.0), P + d, P - d, NL)
        assert dQ == pytest.approx(dQd, rel=1e-12)
        assert dV == 0.0

    def test_qin_qout_equilibrium(self):
        spec = aorta_like_spec()
        Vh = spec.wall.A0 * spec.length / 2.0
        d = QinQoutVessel(spec).rhs((Vh, 0.0, Vh), 0.0, 0.0, NL)
        assert d == (0.0, 0.0, 0.0)

    def test_qin_qout_proximal_filling_sign(self):
        spec = aorta_like_spec()
        Vh = spec.wall.A0 * spec.length / 2.0
        dV, dQ, dVd = QinQoutVessel(spec).rhs((Vh, 0.0, Vh), 5.0, 0.0, NL)
        assert dV > 0.0
        assert dVd == 0.0

    def test_qin_qout_unit_arithmetic(self):
        # interior R = R_tot/2 = 1/2 at A_hat = 1, L = 1: dQ/dt = -1/2
        spec = unit_spec()
        dV, dQ, dVd = QinQoutVessel(spec).rhs((0.5, 1.0, 0.5), 0.0, 0.0, NL)
        assert dQ == pytest.approx(-0.5, rel=1e-12)
        assert dV == pytest.approx(-1.0, rel=1e-12)
        assert dVd == pytest.approx(1.0, rel=1e-12)

    def test_qin_qout_split_validation(self):
        with pytest.raises(ConfigurationError):
            QinQoutVessel(unit_spec(), rp_frac=0.6, rd_frac=0.5)

    def test_exposed_interface_pressures(self):
        spec = aorta_like_spec()
        Vh = spec.wall.A0 * spec.length / 2.0
        ves = QinQoutVessel(spec)
        y = (Vh, 0.0, Vh)
        P0 = spec.wall.P0
        assert ves.inlet_pressure(y, 0.0, NL) == pytest.approx(P0, rel=1e-14)
        assert ves.outlet_pressure(y, 0.0, NL) == pytest.approx(P0, rel=1e-14)
        # a positive outflow lowers the exposed outlet pressure
        assert ves.outlet_pressure(y, 10.0, NL) < P0

    def test_zero_distal_split_exposes_compartment_pressure(self):
        spec = aorta_like_spec()
        ves = QinQoutVessel(spec, rp_frac=0.25, rd_frac=0.0)
        y = (1.1 * spec.wall.A0 * spec.length / 2.0, 3.0,
             0.9 * spec.wall.A0 * spec.length / 2.0)
        assert ves.outlet_pressure(y, 25.0, NL) == ves.half.pressure(y[2], NL)

    def test_frozen_area_pins_r_and_l(self):
        spec = aorta_like_spec()
        frozen = ModelMode(nonlinear_pressure=True, nonlinear_resistance=True,
                           nonlinear_inductance=True, frozen_area=True)
        ves = PinQoutVessel(spec)
        cons = lumped_constants(spec)
        assert ves.comp.resistance(0.5 * spec.wall.A0, frozen) == cons.R0
        assert ves.comp.inductance(0.5 * spec.wall.A0, frozen) == cons.L0


class TestTerminalCoupling:
    WK = Windkessel(R1=6.8123e2, C=3.6664e-5, R2=3.1013e4, P_v=0.0)

    def test_no_pressure_drop_no_flow(self):
        q, _ = terminal_flow_coupling(1.0e5, 10.0, self.WK, 1.0e5)
        assert q == 0.0

    def test_windkessel_fixed_point(self):
        # dP_wk/dt vanishes exactly at P_wk = P_v + R2 * Q
        Q = 10.0
        P_star = self.WK.P_v + self.WK.R2 * Q
        assert P_star == pytest.approx(3.1013e5, rel=1e-12)
        _, dP = terminal_pressure_coupling(Q, self.WK, P_star)
        assert dP == pytest.approx(0.0, abs=1e-9)

    def test_fixed_point_is_attracting(self):
        # explicit relaxation of the capacitor ODE under constant inflow
        Q, P = 10.0, 0.0
        dt = 1e-3
        for _ in range(20000):
            _, dP = terminal_pressure_coupling(Q, self.WK, P)
            P += dt * dP
        assert P == pytest.approx(3.1013e5, rel=1e-4)

    def test_pressure_coupling_formula(self):
        p_out, _ = terminal_pressure_coupling(5.0, self.WK, 2.0e5)
        assert p_out == pytest.approx(2.0e5 + self.WK.R1 * 5.0, rel=1e-14)

    def test_single_resistance(self):
        term = SingleResistance(R=100.0, P_v=50.0)
        q, dP = terminal_flow_coupling(1050.0, 0.0, term, None)
        assert q == pytest.approx(10.0, rel=1e-14)
        assert dP == 0.0
        p_out, dP = terminal_pressure_coupling(2.0, term, None)
        assert p_out == pytest.approx(250.0, rel=1e-14)

    def test_zero_total_resistance(self):
        with pytest.raises(ConfigurationError):
            terminal_flow_coupling(1.0, 0.0, SingleResistance(R=0.0), None)


def two_vessel_network():
    text = """
[fluid]
rho = 1.06
mu = 0.04
pressure_ref = 0.0
initial_pressure = 0.0

[vessel a]
length = 8.6
area = 2.3235
wall_thickness = 0.1032
youngs_modulus = 5.0e6

[vessel b]
length = 8.5
area = 1.1310
wall_thickness = 0.072
youngs_modulus = 7.0e6

[junction]
parent = a
daughters = b

[inflow]
vessel = a

[terminal b]
type = r
r = 1.0e4
p_out = 0.0
"""
    return parse_network(text)


def three_level_network():
    """Root -> interior -> two leaves, to exercise the two-split chain."""
    text = """
[fluid]
rho = 1.06
mu = 0.04
pressure_ref = 0.0
initial_pressure = 0.0

[vessel root]
length = 8.6
area = 2.3235
wall_thickness = 0.1032
youngs_modulus = 5.0e6

[vessel mid]
length = 6.0
area = 1.5
wall_thickness = 0.09
youngs_modulus = 5.0e6

[vessel leaf1]
length = 8.5
area = 1.1310
wall_thickness = 0.072
youngs_modulus = 7.0e6

[vessel leaf2]
length = 8.5
area = 1.1310
wall_thickness = 0.072
youngs_modulus = 7.0e6

[junction]
parent = root
daughters = mid

[junction]
parent = mid
daughters = leaf1 leaf2

[inflow]
vessel = root

[terminal leaf1]
type = rcr
r1 = 6.8123e2
c = 3.6664e-5
r2 = 3.1013e4

[terminal leaf2]
type = rcr
r1 = 6.8123e2
c = 3.6664e-5
r2 = 3.1013e4
"""
    return parse_network(text)


class TestAssembly:
    def test_bifurcation_dimension(self, bifurcation):
        model = assemble_network(bifurcation, NL, synthetic_inflow())
        # root QinQout (3) + two PinPout leaves (3 each) + two capacitors
        assert model.dim == 11
        assert model._root[0] == model.layout[bifurcation.root]
        assert model._interior == []
        assert sorted(model._vid_at[leaf[0]] for leaf in model._leaves) == [
            "left_iliac", "right_iliac"]

    def test_interior_vessel_is_two_split_chain(self):
        net = three_level_network()
        model = assemble_network(net, NL, synthetic_inflow())
        assert [model._vid_at[v[0]] for v in model._interior] == ["mid"]
        # 3 + 4 + 3 + 3 + 2 capacitors
        assert model.dim == 15

    def test_symmetric_junction_identical_daughter_pressures(self, bifurcation):
        model = assemble_network(bifurcation, NL, synthetic_inflow())
        y = model.initial_state()
        rng = np.random.default_rng(7)
        y += rng.normal(scale=0.01, size=y.size) * np.abs(y + 1.0)
        # make the daughters' states identical
        off_l = model.layout["left_iliac"]
        off_r = model.layout["right_iliac"]
        y[off_r:off_r + 3] = y[off_l:off_l + 3]
        inputs, _ = vessel_inputs(model, 0.3, y)
        assert inputs["left_iliac"][0] == inputs["right_iliac"][0]

    def test_single_daughter_junction_reduces_to_j2(self):
        net = two_vessel_network()
        model = assemble_network(net, NL, synthetic_inflow())
        y = model.initial_state()
        off_a, off_b = model.layout["a"], model.layout["b"]
        y[off_b + 1] = 4.0  # daughter proximal flow
        inputs, _ = vessel_inputs(model, 0.1, y)
        assert inputs["a"][1] == 4.0  # parent sees the daughter's flow
        parent = QinQoutVessel(net.vessels["a"])
        expected = parent.outlet_pressure(y[off_a:off_a + 3], 4.0, NL)
        assert inputs["b"][0] == expected

    def test_mass_balance_at_random_states(self, bifurcation):
        model = assemble_network(bifurcation, NL, synthetic_inflow())
        ref = Composition(model)
        rng = np.random.default_rng(42)
        vol = ref.volume_indices
        for trial in range(20):
            y = model.initial_state()
            y[vol] *= rng.uniform(0.8, 1.2, size=len(vol))
            flows = rng.normal(scale=20.0, size=y.size)
            for i in range(y.size):
                if i not in vol:
                    y[i] = flows[i]
            t = rng.uniform(0.0, 1.1)
            dy = model.rhs(t, y)
            q_in, outflows = ref.boundary_flows(t, y)
            balance = q_in - sum(outflows.values())
            scale = max(1.0, abs(q_in) + sum(abs(v) for v in outflows.values()))
            assert abs(np.sum(dy[vol]) - balance) < 1e-10 * scale

    def test_rest_state_is_exact_equilibrium(self):
        net = two_vessel_network()
        model = assemble_network(net, NL, zero_inflow())
        y0 = model.initial_state()
        assert np.all(model.rhs(0.0, y0) == 0.0)
        integ = rk4_integrate(model.rhs, y0, 1e-3, 0.1)
        np.testing.assert_array_equal(integ.y[-1], y0)

    def test_relabeling_invariance(self, bifurcation):
        text_reordered = """
[fluid]
rho = 1.060
mu = 0.04
zeta = 9
pressure_ref = 94666.66666666667
initial_pressure = 0.0

[vessel right_iliac]
length = 8.5
area = 1.1310
wall_thickness = 0.072
youngs_modulus = 7.0e6

[vessel left_iliac]
length = 8.5
area = 1.1310
wall_thickness = 0.072
youngs_modulus = 7.0e6

[vessel aorta]
length = 8.6
area = 2.3235
wall_thickness = 0.1032
youngs_modulus = 5.0e6

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
        w = synthetic_inflow()
        res_a = run_0d(bifurcation, w, NL, dt=1e-3, t_end=1.1)
        res_b = run_0d(parse_network(text_reordered), w, NL, dt=1e-3, t_end=1.1)
        for vid in res_a.vessels:
            for ch in ("P", "Q", "A"):
                np.testing.assert_array_equal(res_a.vessels[vid][ch],
                                              res_b.vessels[vid][ch])

    def test_collapse_reported(self):
        net = two_vessel_network()
        model = assemble_network(net, NL, synthetic_inflow())
        y = model.initial_state()
        y[model.layout["a"]] = -1.0
        with pytest.raises(CollapseError):
            model.rhs(0.0, y)


def single_vessel_network(terminal: str):
    """One QinQout vessel whose outlet couples flow-typed to ``terminal``."""
    return parse_network(f"""
[fluid]
rho = 1.06
mu = 0.04
pressure_ref = 1.0e4
initial_pressure = 1.2e4

[vessel v]
length = 8.0
area = 2.0
wall_thickness = 0.1
youngs_modulus = 5.0e6

[inflow]
vessel = v

[terminal v]
{terminal}
""")


RCR_TERMINAL = "type = rcr\nr1 = 6.8e2\nc = 3.7e-5\nr2 = 3.1e4\np_out = 500.0"
R_TERMINAL = "type = r\nr = 2.0e4\np_out = 300.0"

#: parent -> daughters of a 17-vessel tree with a trifurcation, a
#: single-daughter junction and branches of unequal depth
ASYMMETRIC_TREE = {
    "v0": ("v1", "v2", "v3"), "v1": ("v4", "v5"), "v2": ("v6",),
    "v4": ("v7", "v8"), "v6": ("v9", "v10"), "v7": ("v11", "v12"),
    "v9": ("v13", "v14"), "v13": ("v15", "v16"),
}


def asymmetric_tree_network():
    """The tree above, vessels listed in reverse so that the state layout
    differs from tree order; leaves alternate RCR and single-resistance
    terminals."""
    depth = {"v0": 0}
    for parent, daughters in ASYMMETRIC_TREE.items():
        for d in daughters:
            depth[d] = depth[parent] + 1
    lines = ["[fluid]", "rho = 1.06", "mu = 0.04", "pressure_ref = 1.0e4",
             "initial_pressure = 1.3e4", ""]
    for i in reversed(range(17)):
        vid = f"v{i}"
        lines += [f"[vessel {vid}]", f"length = {3.0 + (i * 7) % 5}",
                  f"area = {2.4 * 0.75 ** depth[vid] * (1.0 + 0.03 * i)}",
                  f"wall_thickness = {0.1 * 0.85 ** depth[vid]}",
                  f"youngs_modulus = {5.0e6 + 2.0e5 * i}", ""]
    for parent, daughters in ASYMMETRIC_TREE.items():
        lines += ["[junction]", f"parent = {parent}",
                  f"daughters = {' '.join(daughters)}", ""]
    lines += ["[inflow]", "vessel = v0", ""]
    leaves = [f"v{i}" for i in range(17) if f"v{i}" not in ASYMMETRIC_TREE]
    for k, vid in enumerate(leaves):
        lines += [f"[terminal {vid}]", RCR_TERMINAL if k % 2 == 0 else R_TERMINAL, ""]
    return parse_network("\n".join(lines))


def random_state(model, rng):
    """Volumes within 30% of the initial state, random flows and
    capacitor pressures."""
    y = model.initial_state()
    vol = Composition(model).volume_indices
    y[vol] *= rng.uniform(0.7, 1.3, size=len(vol))
    for i in set(range(model.dim)) - set(vol):
        y[i] = rng.normal(scale=30.0) if y[i] == 0.0 else y[i] * rng.uniform(0.5, 1.5)
    return y


def rk4_step(model, dt):
    """``step(t, y) -> y_next``: one classical RK4 step of the network on
    lists of floats, a one-step call of its compiled run loop that takes no
    sample (a stride of 2 and a last step of 0). The loop is written with
    no copies, each state its own source: an arbitrary state, unlike the
    initial one, differs between identical sibling subtrees."""
    alone = NetworkModel0D(model.network, model.mode, model.inflow)
    alone._copies = np.arange(alone.dim)
    run, inflow, half = alone._run, model.inflow, 0.5 * dt

    def step(t, y):
        return run(y, t, 0, dt, (float(inflow(t)),), (float(inflow(t + half)),),
                   (float(inflow(t + dt)),), 2, 0, None, None)
    return step


def numpy_pressure(c, V, nonlinear):
    """Compartment pressure at the sampled volumes V, on the oracle's
    compartment constants ``c``, by the tube law in numpy."""
    V0, K, m, n, P_ref, C0 = c[:6]
    if nonlinear:
        x = V / V0
        return K * (x ** m - x ** n) + P_ref
    return P_ref + (V - V0) / C0


EQUIVALENCE_MODES = {name: ModelMode.from_name(name)
                     for name in ("linear", "nonlinear", "nl-p", "nl-r", "nl-l")}
EQUIVALENCE_MODES["frozen_area"] = ModelMode(True, True, True, frozen_area=True)


class TestAssembledPlan:
    """The assembled network pass against the per-vessel composition."""

    NETWORKS = {
        "two_vessel": two_vessel_network,
        "three_level": three_level_network,
        "single_rcr": lambda: single_vessel_network(RCR_TERMINAL),
        "single_r": lambda: single_vessel_network(R_TERMINAL),
        "asymmetric_tree": asymmetric_tree_network,
    }

    def networks(self, bifurcation):
        yield "bifurcation", bifurcation
        for name, build in self.NETWORKS.items():
            yield name, build()

    @pytest.mark.parametrize("mode_name", sorted(EQUIVALENCE_MODES))
    def test_matches_per_vessel_composition(self, bifurcation, mode_name):
        mode = EQUIVALENCE_MODES[mode_name]
        rng = np.random.default_rng(2024)
        for name, net in self.networks(bifurcation):
            model = assemble_network(net, mode, synthetic_inflow())
            ref = Composition(model)
            for _ in range(10):
                y = random_state(model, rng)
                t = rng.uniform(0.0, 2.2)
                for state in (y, y.tolist()):  # an array for any sequence
                    d = model.rhs(t, state)
                    assert type(d) is np.ndarray, name
                    assert np.array_equal(d, ref.rhs(t, y)), name
                assert vessel_inputs(model, t, y) == ref.inputs(t, y), name

    @pytest.mark.parametrize("mode_name", sorted(EQUIVALENCE_MODES))
    def test_accessors_match_the_composition(self, bifurcation, mode_name):
        # the layout, initial state and observe read the plan; the
        # composition lays out and couples the vessels on its own
        mode = EQUIVALENCE_MODES[mode_name]
        rng = np.random.default_rng(77)
        for name, net in self.networks(bifurcation):
            model = assemble_network(net, mode, synthetic_inflow())
            ref = Composition(model)
            assert model.layout == ref.layout and list(model.layout) == list(net.vessels)
            assert (model.wk_index, model.dim) == (ref.wk_index, ref.dim), name
            assert model.initial_state().tolist() == ref.initial_state(), name
            states = [random_state(model, rng) for _ in range(6)]
            # random states keep the pressures away from zero, where the
            # tube law cancels and a relative tolerance means nothing
            Y = np.array(states)
            series = model.observe(Y)
            rows = [ref.observe(y) for y in Y.tolist()]
            assert list(series) == list(ref.models), name
            nl = mode.nonlinear_pressure
            for vid, values in series.items():
                for ch in ("Q", "A"):
                    assert values[ch].tolist() == [r[vid][ch] for r in rows], (name, vid, ch)
                # numpy's power may round apart from Python's
                np.testing.assert_allclose(values["P"], [r[vid]["P"] for r in rows],
                                           rtol=1e-14, err_msg=f"{name} {vid}")
                # and the tube law in numpy, on the oracle's constants, gives
                # observe's bits
                vessel, off = ref.models[vid], ref.layout[vid]
                V = Y[:, off]
                if isinstance(vessel, PinPoutVessel):
                    P = numpy_pressure(vessel.comp.consts, V, nl)
                else:
                    first, second = ((vessel.half, vessel.half)
                                     if isinstance(vessel, QinQoutVessel) else
                                     (vessel.first.comp, vessel.second.comp))
                    Vd = Y[:, off + 2]
                    P = (V * numpy_pressure(first.consts, V, nl)
                         + Vd * numpy_pressure(second.consts, Vd, nl)) / (V + Vd)
                assert np.array_equal(values["P"], P), (name, vid)

    def test_tree_assembly(self):
        model = assemble_network(asymmetric_tree_network(), NL, synthetic_inflow())
        assert model._vid_at[model._root[0]] == "v0"
        interior = {model._vid_at[v[0]] for v in model._interior}
        assert interior == set(ASYMMETRIC_TREE) - {"v0"}
        assert len(model._leaves) == 17 - len(ASYMMETRIC_TREE)
        assert 0 < len(model.wk_index) < len(model._leaves)

    @pytest.mark.parametrize("network", ["asymmetric_tree", "single_rcr"])
    @pytest.mark.parametrize("mode", [NL, LIN], ids=["nonlinear", "linear"])
    def test_non_positive_volume_collapses(self, network, mode):
        model = assemble_network(self.NETWORKS[network](), mode, synthetic_inflow())
        for i in Composition(model).volume_indices:
            for bad in (0.0, -1.0e-3):
                y = model.initial_state()
                y[i] = bad
                with pytest.raises(CollapseError):
                    model.rhs(0.1, y)


#: the largest deviation of a run of a linear mode (its step map) from the
#: generic integrator, relative to the largest magnitude of each series:
#: 2.1e-12 at most on the networks of these tests, 300 steps of 1e-4 s
#: or 1250 of 1e-3 s
STEP_MAP_RTOL = 1e-11


def assert_same_run(mode, values, reference, where):
    """``values`` of a run in ``mode`` are those of the generic
    integrator: the same bits, or within ``STEP_MAP_RTOL`` in a mode with
    every flag off."""
    if any(mode.flags):
        assert np.array_equal(values, reference), where
    else:
        scale = np.abs(reference).max(axis=0)
        assert (np.abs(values - reference) <= STEP_MAP_RTOL * scale).all(), where


class TestCompiledStep:
    """``run_0d`` advances with the network's compiled RK4 run loop (or,
    in the linear mode, its step map), and ``rk4_step`` is a one-step call
    of the loop; the generic integrator on ``model.rhs`` is their
    reference."""

    @pytest.mark.parametrize("mode_name", sorted(EQUIVALENCE_MODES))
    def test_run_matches_generic_integration(self, bifurcation, mode_name):
        # a linear mode runs its step map, which rounds apart from the
        # generic step; every other mode runs the loop, with its bits
        mode = EQUIVALENCE_MODES[mode_name]
        inflow = synthetic_inflow()
        # 300 steps; the small test vessels need a step below 2e-4 s
        dt = 1e-4
        for name, net in TestAssembledPlan().networks(bifurcation):
            res = run_0d(net, inflow, mode, dt=dt, t_end=300 * dt, sample_interval=dt)
            model = assemble_network(net, mode, inflow)
            integ = rk4_integrate(model.rhs, model.initial_state(),
                                  dt, 300 * dt, sample_interval=dt)
            assert integ.t.size == 301
            assert np.array_equal(res.t, integ.t), name
            ref = model.observe(integ.y)
            for vid, series in ref.items():
                for ch in ("P", "Q", "A"):
                    assert_same_run(mode, res.vessels[vid][ch], series[ch], (name, vid, ch))

    @pytest.mark.parametrize("mode_name", ["linear", "nonlinear", "frozen_area"])
    def test_run_across_a_period_with_a_stride(self, bifurcation, mode_name):
        # 1250 steps cross the inflow's period of 1.1 s, and the last step
        # falls between two samples of the stride of 7 steps
        mode = EQUIVALENCE_MODES[mode_name]
        inflow = synthetic_inflow()
        dt, t_end, every = 1e-3, 1.25, 7e-3
        res = run_0d(bifurcation, inflow, mode, dt=dt, t_end=t_end,
                     sample_interval=every)
        model = assemble_network(bifurcation, mode, inflow)
        integ = rk4_integrate(model.rhs, model.initial_state(),
                              dt, t_end, sample_interval=every)
        assert integ.t[-1] == 1250 * dt and integ.t[-2] == 1246 * dt
        assert np.array_equal(res.t, integ.t)
        direct = model.integrate(dt, t_end, every)
        assert np.array_equal(direct.t, integ.t)
        assert_same_run(mode, direct.y, integ.y, "states")
        for vid, series in model.observe(integ.y).items():
            for ch in ("P", "Q", "A"):
                assert_same_run(mode, res.vessels[vid][ch], series[ch], (vid, ch))

    @pytest.mark.parametrize("network", sorted(TestAssembledPlan.NETWORKS))
    @pytest.mark.parametrize("mode", [NL, LIN], ids=["nonlinear", "linear"])
    def test_non_positive_volume_collapses(self, network, mode):
        model = assemble_network(TestAssembledPlan.NETWORKS[network](), mode,
                                 synthetic_inflow())
        step = rk4_step(model, 1e-3)
        for i in Composition(model).volume_indices:
            for bad in (0.0, -1.0e-3):
                y = model.initial_state().tolist()
                y[i] = bad
                with pytest.raises(CollapseError) as compiled:
                    step(0.1, y)
                with pytest.raises(CollapseError) as generic:
                    model.rhs(0.1, y)
                assert str(compiled.value) == str(generic.value)

    @pytest.mark.parametrize("mode", [NL, LIN], ids=["nonlinear", "linear"])
    def test_collapse_names_vessel_compartment_and_time(self, mode):
        model = assemble_network(asymmetric_tree_network(), mode, synthetic_inflow())
        step = rk4_step(model, 1e-3)
        ref = Composition(model)
        offsets = sorted((off, vid) for vid, off in ref.layout.items())
        for i in ref.volume_indices:
            off, vid = max(o for o in offsets if o[0] <= i)
            if isinstance(ref.models[vid], PinPoutVessel):
                part = "whole vessel"
            else:
                part = "proximal half" if i == off else "distal half"
            y = model.initial_state().tolist()
            y[i] = -1.0e-3
            message = (f"compartment volume became non-positive in vessel "
                       f"{vid!r} ({part}) at t = 0.25 s: -0.001")
            for fail in (lambda: step(0.25, y), lambda: model.rhs(0.25, y)):
                with pytest.raises(CollapseError) as exc:
                    fail()
                assert str(exc.value) == message

    def test_collapse_in_a_later_stage_names_its_time(self, bifurcation):
        # a nearly empty leaf drained by its distal flow is positive at the
        # first pass and negative at the second, at t + dt/2
        model = assemble_network(bifurcation, NL, synthetic_inflow())
        off = model.layout["left_iliac"]
        y = model.initial_state().tolist()
        y[off:off + 3] = [1.0e-9, 0.0, 100.0]
        model.rhs(0.25, y)
        with pytest.raises(CollapseError,
                           match=r"^compartment volume became non-positive in "
                                 r"vessel 'left_iliac' \(whole vessel\) at "
                                 r"t = 0\.2505 s: "):
            rk4_step(model, 1e-3)(0.25, y)

    def test_stages_raise_as_the_generic_step(self, bifurcation):
        # large steps drive volumes negative in later stages; the compiled
        # step must fail, or not, exactly where the generic one does
        from hemoflow.solver0d import _rk4_array_step

        rng = np.random.default_rng(5)
        outcomes = set()
        for mode in (NL, LIN):
            model = assemble_network(bifurcation, mode, synthetic_inflow())
            for dt in (1e-3, 2e-3, 5e-3, 1e-2, 3e-2):
                compiled = rk4_step(model, dt)
                generic = _rk4_array_step(model.rhs, dt)
                for _ in range(20):
                    y = random_state(model, rng).tolist()
                    results = []
                    for step in (compiled, generic):
                        try:
                            results.append(np.array(step(0.2, y)).tobytes())
                        except CollapseError as exc:
                            results.append(str(exc))
                    assert results[0] == results[1]
                    outcomes.add(type(results[0]))
        assert outcomes == {bytes, str}

    def test_state_dependent_zero_total_resistance(self):
        # R1 = -R_d / 2 at the initial state: a distal half 1.6 times as
        # full divides R_d by 2.56, so that R_d + R1 <= 0
        probe = assemble_network(single_vessel_network(RCR_TERMINAL), NL,
                                 synthetic_inflow())
        y = probe.initial_state()
        R_d = QinQoutVessel(probe.network.vessels["v"]).distal_resistance(y, NL)
        terminal = RCR_TERMINAL.replace("r1 = 6.8e2", f"r1 = {-0.5 * float(R_d)!r}")
        model = assemble_network(single_vessel_network(terminal), NL,
                                 synthetic_inflow())
        step = rk4_step(model, 1e-3)
        step(0.0, y.tolist())
        y[2] *= 1.6
        for evaluate in (lambda: step(0.0, y.tolist()), lambda: model.rhs(0.0, y)):
            with pytest.raises(ConfigurationError, match="zero total resistance"):
                evaluate()

    def test_nonfinite_state_aborts_run(self, bifurcation):
        # ``run_0d`` evaluates the inflow on arrays of stage times
        def inflow(t):
            return np.where(t > 0.05, np.nan, 0.0)

        with pytest.raises(ModelError, match=r"non-finite state at t = 0\.06 s"):
            run_0d(bifurcation, inflow, NL, dt=1e-3, t_end=0.2,
                   sample_interval=0.01)

    @pytest.mark.parametrize("block", [7, 100, 1249])
    def test_blocks_of_inflow_tables_keep_the_bits(self, bifurcation, block,
                                                   monkeypatch):
        # blocks of the stride, of a size the stride does not divide, and a
        # last block of one step; the last step falls inside a block
        import hemoflow.solver0d as solver0d

        monkeypatch.setattr(solver0d, "_BLOCK_STEPS", block)
        inflow = synthetic_inflow()
        dt, t_end, every = 1e-3, 1.25, 7e-3
        model = assemble_network(bifurcation, NL, inflow)
        direct = model.integrate(dt, t_end, every)
        integ = rk4_integrate(model.rhs, model.initial_state(),
                              dt, t_end, sample_interval=every)
        assert integ.t[-1] == 1250 * dt
        assert np.array_equal(direct.t, integ.t)
        assert np.array_equal(direct.y, integ.y)

    def test_failures_across_blocks_keep_their_messages(self, bifurcation,
                                                        monkeypatch):
        import hemoflow.solver0d as solver0d

        def inflow(t):
            return np.where(t > 0.05, np.nan, 0.0)

        def messages():
            out = []
            with pytest.raises(ModelError) as exc:
                run_0d(bifurcation, inflow, NL, dt=1e-3, t_end=0.2,
                       sample_interval=0.01)
            out.append(str(exc.value))
            with pytest.raises(CollapseError) as exc:
                run_0d(bifurcation, synthetic_inflow(), NL, dt=0.05, t_end=20.0)
            out.append(str(exc.value))
            return out

        whole = messages()
        assert whole[0] == "non-finite state at t = 0.06 s"
        monkeypatch.setattr(solver0d, "_BLOCK_STEPS", 9)
        assert messages() == whole

    def test_inflow_tables_are_bounded_on_a_long_run(self, bifurcation):
        # 2.97 million steps: their tables once took 68 MiB, and 163 MiB
        # while being built; the loop is replaced by one that only records
        # the blocks it is given
        import tracemalloc

        import hemoflow.solver0d as solver0d

        model = assemble_network(bifurcation, NL, synthetic_inflow())
        blocks = []

        def run(y, t0, n, dt, q_t, q_half, q_dt, stride, last, times, samples):
            assert len(q_t) == len(q_half) == len(q_dt) and last == 2_970_000
            blocks.append((n, len(q_t)))
            return y

        model.__dict__["_run"] = run
        tracemalloc.start()
        try:
            model.integrate(1e-5, 29.7, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        starts = [n for n, _ in blocks]
        assert starts == list(range(0, 2_970_000, solver0d._BLOCK_STEPS))
        assert sum(size for _, size in blocks) == 2_970_000

    @pytest.mark.parametrize("bad", [{"t_end": 0.0}, {"t_end": -1.0},
                                     {"t_end": math.nan}, {"T0": 0.0},
                                     {"T0": math.inf}, {"sample_interval": 0.0},
                                     {"sample_interval": -1e-3}])
    def test_run_without_time_is_refused(self, bifurcation, bad, monkeypatch):
        import hemoflow.solver0d as solver0d

        name = next(iter(bad))
        monkeypatch.setattr(solver0d, "assemble_network", None)  # no work begins
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            run_0d(bifurcation, synthetic_inflow(), NL, **bad)

    @pytest.fixture
    def compiled_names(self, monkeypatch):
        """The file names ``solver0d`` compiles from here on, its code
        cache emptied of the code earlier tests compiled."""
        import hemoflow.solver0d as solver0d

        names = []

        def counting_compile(source, filename, *args, **kwargs):
            names.append(filename)
            return compile(source, filename, *args, **kwargs)

        monkeypatch.setattr(solver0d, "compile", counting_compile, raising=False)
        monkeypatch.setattr(solver0d, "_code", {})
        return names

    @pytest.fixture
    def written(self, monkeypatch):
        """The generated functions ``_PassSource`` writes from here on,
        the code cache emptied of the code earlier tests compiled."""
        import hemoflow.solver0d as solver0d

        names = []
        for name in ("evaluator", "runner"):
            def counting(source, _write=getattr(solver0d._PassSource, name),
                         _name=name):
                names.append(_name)
                return _write(source)

            monkeypatch.setattr(solver0d._PassSource, name, counting)
        monkeypatch.setattr(solver0d, "_code", {})
        return names

    def test_second_model_writes_no_source(self, bifurcation, written):
        # the code is looked up by the plan, not by the text written from it
        for net in (bifurcation, asymmetric_tree_network()):
            del written[:]
            # (mode, each function's writes so far)
            for mode, writes in ((NL, 1), (NL, 1), (LIN, 2), (LIN, 2)):
                model = assemble_network(net, mode, synthetic_inflow())
                rk4_step(model, 1e-4)
                model.rhs(0.0, model.initial_state())
                assert len(written) == 2 * writes
                assert written.count("evaluator") == written.count("runner")

    def test_negative_zero_constant_has_its_own_code(self, written):
        # -0.0 == 0.0, but the source writes them apart: a venous pressure
        # of -0.0 is subtracted as (-0.0)
        models = [assemble_network(single_vessel_network(
            R_TERMINAL.replace("p_out = 300.0", f"p_out = {p_v}")), NL,
            synthetic_inflow()) for p_v in ("0.0", "-0.0")]
        assert models[0]._plan_key != models[1]._plan_key
        for model in models:
            rk4_step(model, 1e-3)
        assert written == ["runner", "runner"]

    def test_assembly_compiles_nothing(self, bifurcation, compiled_names):
        # compiling the step costs far more than assembling the network,
        # so it waits for the first integration or evaluation, and so does
        # finding the copies
        names = compiled_names
        model = assemble_network(bifurcation, NL, synthetic_inflow())
        y0 = model.initial_state()
        assert names == [] and "_copies" not in vars(model)
        model.integrate(1e-3, 0.01)
        model.integrate(2e-3, 0.01)
        model.rhs(0.0, y0)
        model.rhs(0.1, y0)
        assert names == ["<0D network run>", "<0D network evaluate>"]
        # the loop with no copies is other code, compiled once
        rk4_step(model, 1e-3)
        rk4_step(model, 2e-3)
        assert names[2:] == ["<0D network run>"]

    def test_models_of_one_network_share_compiled_code(self, bifurcation,
                                                       compiled_names):
        # a model built again compiles nothing, and each binds its own inflow
        from hemoflow.solver0d import _rk4_array_step

        names = compiled_names
        first = assemble_network(bifurcation, NL, synthetic_inflow())
        y = first.initial_state()
        y[1] = 3.0
        expected = first.rhs(0.1, y)
        rk4_step(first, 1e-3)
        run = first.integrate(1e-3, 0.01)
        assert len(names) == 3
        second = assemble_network(bifurcation, NL, synthetic_inflow())
        assert np.array_equal(second.rhs(0.1, y), expected)
        rk4_step(second, 1e-3)
        assert np.array_equal(second.integrate(1e-3, 0.01).y, run.y)
        assert len(names) == 3
        # the inflow enters the root's first volume derivative only
        other = assemble_network(bifurcation, NL, synthetic_inflow(period=0.9))
        d = other.rhs(0.1, y)
        other.integrate(1e-3, 0.01)
        assert len(names) == 3
        q_in = float(synthetic_inflow(period=0.9)(0.1))
        assert q_in != float(synthetic_inflow()(0.1))
        assert d[0] == q_in - y[1] and expected[0] != d[0]
        assert np.array_equal(d[1:], expected[1:])
        step = rk4_step(other, 1e-3)(0.1, y.tolist())
        generic = _rk4_array_step(other.rhs, 1e-3)(0.1, y)
        assert step == generic.tolist()


def symmetric_tree_network():
    """A root, two identical daughters, each with two identical leaves."""
    lines = ["[fluid]", "rho = 1.06", "mu = 0.04", "pressure_ref = 1.0e4",
             "initial_pressure = 1.3e4", ""]
    for vid, depth in (("v0", 0), ("v1", 1), ("v2", 1), ("v3", 2), ("v4", 2),
                       ("v5", 2), ("v6", 2)):
        lines += [f"[vessel {vid}]", f"length = {8.0 - 2.0 * depth}",
                  f"area = {2.4 * 0.6 ** depth}", f"wall_thickness = {0.1 * 0.85 ** depth}",
                  f"youngs_modulus = {5.0e6 + 1.0e6 * depth}", ""]
    for parent, daughters in (("v0", "v1 v2"), ("v1", "v3 v4"), ("v2", "v5 v6")):
        lines += ["[junction]", f"parent = {parent}", f"daughters = {daughters}", ""]
    lines += ["[inflow]", "vessel = v0", ""]
    for vid in ("v3", "v4", "v5", "v6"):
        lines += [f"[terminal {vid}]", RCR_TERMINAL, ""]
    return parse_network("\n".join(lines))


class TestStepMap:
    """A mode with every flag off runs its RK4 step map (``_StepMap``);
    its agreement with the generic integrator is checked in
    ``TestCompiledStep``."""

    @pytest.mark.parametrize("network, dt, pairs, computed", [
        ("bifurcation", 1e-3, [("left_iliac", "right_iliac")], 11 - 4),
        ("symmetric_tree", 1e-4, [("v1", "v2"), ("v3", "v4"), ("v3", "v5"),
                                  ("v3", "v6")], 27 - 16)])
    def test_identical_subtrees_stay_equal(self, bifurcation, network, dt, pairs,
                                           computed):
        # a dense product rounds identical vessels apart; the map computes
        # the states of the first of identical sibling subtrees only, and
        # copies them
        net = bifurcation if network == "bifurcation" else symmetric_tree_network()
        inflow = synthetic_inflow()
        res = run_0d(net, inflow, LIN, dt=dt, t_end=2000 * dt, sample_interval=dt)
        for a, b in pairs:
            for ch in ("P", "Q", "A"):
                assert np.array_equal(res.vessels[a][ch], res.vessels[b][ch]), (a, b, ch)
        model = assemble_network(net, LIN, inflow)
        assert len(set(model._copies)) == computed

    def test_frozen_area_with_linear_pressure_is_the_linear_run(self, bifurcation):
        frozen = ModelMode(nonlinear_pressure=False, nonlinear_resistance=True,
                           nonlinear_inductance=True, frozen_area=True)
        inflow = synthetic_inflow()
        a = run_0d(bifurcation, inflow, frozen, dt=1e-3, t_end=1.1)
        b = run_0d(bifurcation, inflow, LIN, dt=1e-3, t_end=1.1)
        assert np.array_equal(a.t, b.t)
        for vid in a.vessels:
            for ch in ("P", "Q", "A"):
                assert np.array_equal(a.vessels[vid][ch], b.vessels[vid][ch]), (vid, ch)

    @pytest.mark.parametrize("block", [7, 100, 1249])
    def test_blocks_keep_the_bits(self, bifurcation, block, monkeypatch):
        # blocks of the stride, of a size the stride does not divide, and a
        # last block of one step; the last step falls inside a block
        import hemoflow.solver0d as solver0d

        for net, dt in ((bifurcation, 1e-3), (asymmetric_tree_network(), 1e-4)):
            t_end, every = 1250 * dt, 7 * dt
            model = assemble_network(net, LIN, synthetic_inflow())
            whole = model.integrate(dt, t_end, every)
            monkeypatch.setattr(solver0d, "_BLOCK_STEPS", block)
            part = model.integrate(dt, t_end, every)
            monkeypatch.undo()
            assert whole.t[-1] == t_end and whole.t.size == 180
            assert np.array_equal(part.t, whole.t)
            assert np.array_equal(part.y, whole.y)

    @pytest.mark.parametrize("network, dt, q, message", [
        ("bifurcation", 1e-3, -400.0,
         "compartment volume became non-positive in vessel 'aorta' (distal half) "
         "at t = 0.1085 s"),
        ("asymmetric_tree", 1e-4, -1000.0,
         "compartment volume became non-positive in vessel 'v0' (proximal half) "
         "at t = 0.00505 s")])
    def test_collapse_names_vessel_compartment_and_stage_time(
            self, bifurcation, network, dt, q, message, monkeypatch):
        # a strongly negative inflow drains the root in a middle stage
        import hemoflow.solver0d as solver0d

        net = bifurcation if network == "bifurcation" else asymmetric_tree_network()
        model = assemble_network(net, LIN, lambda t: q + 0.0 * np.asarray(t))
        with pytest.raises(CollapseError) as generic:
            rk4_integrate(model.rhs, model.initial_state(), dt, 2.0)
        failures = []
        for block in (solver0d._BLOCK_STEPS, 9):
            monkeypatch.setattr(solver0d, "_BLOCK_STEPS", block)
            with pytest.raises(CollapseError) as mapped:
                model.integrate(dt, 2.0)
            failures.append(str(mapped.value))
        assert failures[0] == failures[1]
        where, V = failures[0].rsplit(": ", 1)
        expected, V_generic = str(generic.value).rsplit(": ", 1)
        assert where == expected == message
        assert float(V) == pytest.approx(float(V_generic), rel=1e-9)

    @pytest.mark.parametrize("block", [None, 9])
    def test_nonfinite_state_aborts_run(self, bifurcation, block, monkeypatch):
        import hemoflow.solver0d as solver0d

        def inflow(t):
            return np.where(t > 0.05, np.nan, 0.0)

        if block is not None:
            monkeypatch.setattr(solver0d, "_BLOCK_STEPS", block)
        with pytest.raises(ModelError, match=r"^non-finite state at t = 0\.06 s$"):
            run_0d(bifurcation, inflow, LIN, dt=1e-3, t_end=0.2, sample_interval=0.01)

    def test_blocks_are_bounded_on_a_long_run(self, bifurcation):
        # 200 000 steps, whose forcing would take 29 MiB in one array; the
        # run's peak is 0.9 MiB, blocks of 256 KiB arrays and the samples
        import tracemalloc

        model = assemble_network(bifurcation, LIN, synthetic_inflow())
        model.integrate(1e-3, 0.01)  # compiled before tracing
        tracemalloc.start()
        try:
            integ = model.integrate(1e-5, 2.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert integ.t.size == 2001
        assert peak < 2 * 2**20


#: the modes that run the generated loop: every flag off runs the step map
LOOPED_MODES = sorted(name for name, mode in EQUIVALENCE_MODES.items() if any(mode.flags))

#: pairs of vessels in identical sibling subtrees, and the number of
#: states computed, of each network with copies
SIBLINGS = {
    "bifurcation": ([("left_iliac", "right_iliac")], 11 - 4),
    "symmetric_tree": ([("v1", "v2"), ("v3", "v4"), ("v3", "v5"), ("v3", "v6")],
                       27 - 16),
}


class TestSharedSubtrees:
    """The run loop computes the states of the first of identical sibling
    subtrees only (``NetworkModel0D._copies``), and reads them for their
    copies; the generic integrator on ``model.rhs`` computes every state."""

    @staticmethod
    def networks(bifurcation):
        """(name, network, a stable step) of each network with copies."""
        return [("bifurcation", bifurcation, 1e-3),
                ("symmetric_tree", symmetric_tree_network(), 1e-4)]

    @pytest.mark.parametrize("mode_name", LOOPED_MODES)
    def test_run_is_the_generic_integration(self, bifurcation, mode_name):
        mode = EQUIVALENCE_MODES[mode_name]
        inflow = synthetic_inflow()
        for name, net, dt in self.networks(bifurcation):
            t_end = 1200 * dt
            res = run_0d(net, inflow, mode, dt=dt, t_end=t_end, sample_interval=dt)
            model = assemble_network(net, mode, inflow)
            integ = rk4_integrate(model.rhs, model.initial_state(), dt, t_end,
                                  sample_interval=dt)
            assert np.array_equal(model.integrate(dt, t_end, dt).y, integ.y), name
            assert np.array_equal(res.t, integ.t), name
            for vid, series in model.observe(integ.y).items():
                for ch in ("P", "Q", "A"):
                    assert np.array_equal(res.vessels[vid][ch], series[ch]), (name, vid, ch)
            for a, b in SIBLINGS[name][0]:
                for ch in ("P", "Q", "A"):
                    assert np.array_equal(res.vessels[a][ch], res.vessels[b][ch]), (a, b, ch)

    @pytest.mark.parametrize("mode_name", LOOPED_MODES)
    def test_only_sources_are_computed(self, bifurcation, mode_name):
        from hemoflow.solver0d import _PassSource

        for name, net, _ in self.networks(bifurcation):
            model = assemble_network(net, EQUIVALENCE_MODES[mode_name], synthetic_inflow())
            src = model._copies
            computed = np.flatnonzero(src == np.arange(model.dim))
            assert computed.size == len(set(src)) == SIBLINGS[name][1], name
            # a copy's source is a computed state of its vessel's twin,
            # which comes before it in plan order
            volumes = [i for i, *_ in model._compartments]
            assert all(volumes.index(src[i]) <= k for k, i in enumerate(volumes))
            runner = _PassSource(model).runner()
            assigned = {int(i) for i in re.findall(r"^ +y(\d+) = ", runner, re.M)}
            assert assigned == set(computed.tolist()), name
            if name == "bifurcation":
                assert "'left_iliac'" in runner and "'right_iliac'" not in runner

    @pytest.mark.parametrize("mode_name", LOOPED_MODES)
    def test_drained_root_fails_as_the_generic_integration(self, bifurcation,
                                                           mode_name):
        mode = EQUIVALENCE_MODES[mode_name]
        for name, net, dt in self.networks(bifurcation):
            model = assemble_network(net, mode, lambda t: -1000.0 + 0.0 * np.asarray(t))
            with pytest.raises(CollapseError) as generic:
                rk4_integrate(model.rhs, model.initial_state(), dt, 2.0)
            with pytest.raises(CollapseError) as looped:
                model.integrate(dt, 2.0)
            assert str(looped.value) == str(generic.value), name

    def test_nonfinite_sample_aborts_as_the_generic_integration(self, bifurcation):
        # the loop packs each sample; a NaN inflow from t = 0.05 s reaches
        # every state, copies included, by the sample at 0.06 s
        def inflow(t):
            return np.where(t > 0.05, np.nan, 0.0)

        for name, net, dt in self.networks(bifurcation):
            model = assemble_network(net, NL, inflow)
            assert len(set(model._copies.tolist())) < model.dim, name
            with pytest.raises(ModelError) as generic:
                rk4_integrate(model.rhs, model.initial_state(), dt, 0.2, 0.01)
            with pytest.raises(ModelError) as looped:
                model.integrate(dt, 0.2, 0.01)
            assert str(looped.value) == str(generic.value), name
            assert str(looped.value) == "non-finite state at t = 0.06 s", name

    def test_collapse_in_twin_subtrees_names_the_first(self, bifurcation):
        # both iliacs nearly empty and drained by their distal flow: the
        # loop fails at the left one, the source, as the generic step does
        from hemoflow.solver0d import _rk4_array_step

        model = assemble_network(bifurcation, NL, synthetic_inflow())
        y = model.initial_state()
        for vid in ("left_iliac", "right_iliac"):
            off = model.layout[vid]
            y[off:off + 3] = [1.0e-9, 0.0, 100.0]
        assert model._copies[model.layout["right_iliac"]] == model.layout["left_iliac"]
        dt, inflow = 1e-3, model.inflow
        messages = []
        for step in (lambda: model._run(y.tolist(), 0.25, 0, dt, (float(inflow(0.25)),),
                                        (float(inflow(0.2505)),), (float(inflow(0.251)),),
                                        2, 0, None, None),
                     lambda: _rk4_array_step(model.rhs, dt)(0.25, y)):
            with pytest.raises(CollapseError) as exc:
                step()
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("compartment volume became non-positive in "
                                      "vessel 'left_iliac' (whole vessel) at t = 0.2505 s")

    @pytest.mark.parametrize("seed, leaves", [(5, 8), (3, 32)])
    def test_generated_trees_have_no_copies(self, seed, leaves):
        # daughter radii differ by a random factor, so no two siblings match
        from test_solver1d import _netgen

        net = parse_network(_netgen().make_tree(seed, leaves).to_text())
        model = assemble_network(net, NL, synthetic_inflow())
        assert model._copies.tolist() == list(range(model.dim))


class TestCollapseTests:
    """The pass tests each leaf and each interior half for collapse once:
    a mean area A = V / l that is not positive raises the volume's collapse
    if V is not positive either, else the area's."""

    @pytest.mark.parametrize("mode_name, tests", [
        # per interior half and leaf, and the root's
        ("nonlinear", (1, 4)), ("nl-r", (1, 4)), ("nl-l", (1, 3)),
        ("nl-p", (1, 2)), ("linear", (1, 2))])
    def test_one_test_per_compartment(self, mode_name, tests):
        from hemoflow.solver0d import _PassSource

        model = assemble_network(asymmetric_tree_network(),
                                 EQUIVALENCE_MODES[mode_name], synthetic_inflow())
        source = _PassSource(model).evaluator()
        count = len(model._compartments) - 2
        assert source.count(" <= 0.0: raise _") == tests[0] * count + tests[1]

    def test_underflowing_area_collapses_as_the_area(self, bifurcation):
        # a positive volume whose mean area V / l rounds to zero
        model = assemble_network(bifurcation, NL, synthetic_inflow())
        y = model.initial_state().tolist()
        y[model.layout["left_iliac"]] = 5e-324
        message = ("mean area became non-positive in vessel 'left_iliac' "
                   "(whole vessel) at t = 0.25 s: 0.0")
        for fail in (lambda: rk4_step(model, 1e-3)(0.25, y),
                     lambda: model.rhs(0.25, y)):
            with pytest.raises(CollapseError) as exc:
                fail()
            assert str(exc.value) == message
        with pytest.raises(CollapseError, match="mean area"):
            Composition(model).rhs(0.25, y)

    @pytest.mark.parametrize("p_v, term", [("0.0", None), ("-0.0", "(y3 - (-0.0))")])
    def test_positive_zero_venous_pressure_is_not_subtracted(self, p_v, term):
        from hemoflow.solver0d import _PassSource

        net = single_vessel_network(RCR_TERMINAL.replace("p_out = 500.0",
                                                         f"p_out = {p_v}"))
        model = assemble_network(net, NL, synthetic_inflow())
        runner = _PassSource(model).runner()
        assert "- 0.0)" not in runner
        assert (term is None) == ("(-0.0)" not in runner)
        if term is not None:
            assert term in runner

    @pytest.mark.parametrize("mode_name", ["nonlinear", "nl-p"])
    @pytest.mark.parametrize("vid, part", [
        ("root", "proximal half"), ("root", "distal half"), ("mid", "proximal half"),
        ("mid", "distal half"), ("leaf1", "whole vessel")])
    def test_underflowing_ratio_collapses_as_the_ratio(self, mode_name, vid, part):
        # 0.0 has no negative power: a positive volume whose ratio V / V0
        # rounds to zero, where its mean area V / l does not
        model = assemble_network(negative_exponent_network(),
                                 EQUIVALENCE_MODES[mode_name], synthetic_inflow())
        spec = model.network.vessels[vid]
        l = spec.length * (1.0 if part == "whole vessel" else 0.5)
        V = next(k * 5e-324 for k in range(1, 100) if k * 5e-324 / l > 0.0)
        assert V / (spec.wall.A0 * l) == 0.0
        y = model.initial_state().tolist()
        y[model.layout[vid] + (2 if part == "distal half" else 0)] = V
        message = (f"volume ratio V / V0 underflowed to 0.0 in vessel {vid!r} "
                   f"({part}) at t = 0.25 s: {V}")
        for fail in (lambda: rk4_step(model, 1e-3)(0.25, y),
                     lambda: model.rhs(0.25, y)):
            with pytest.raises(CollapseError) as exc:
                fail()
            assert str(exc.value) == message
        with pytest.raises(CollapseError, match="volume ratio"):
            Composition(model).rhs(0.25, y)

    @pytest.mark.parametrize("mode_name", sorted(EQUIVALENCE_MODES))
    def test_ratio_is_tested_only_under_a_negative_exponent(self, bifurcation,
                                                            mode_name):
        from hemoflow.solver0d import _PassSource

        mode = EQUIVALENCE_MODES[mode_name]
        arterial = _PassSource(assemble_network(bifurcation, mode, synthetic_inflow()))
        assert "_ratio_collapse" not in arterial.evaluator() + arterial.runner()
        model = assemble_network(negative_exponent_network(), mode, synthetic_inflow())
        tests = len(model._compartments) if mode.nonlinear_pressure else 0
        assert _PassSource(model).evaluator().count("if x <= 0.0: raise ") == tests
        # and away from collapse the pass is the composition's
        ref, rng = Composition(model), np.random.default_rng(11)
        for _ in range(10):
            y, t = random_state(model, rng), rng.uniform(0.0, 2.2)
            assert np.array_equal(model.rhs(t, y), ref.rhs(t, y))


def negative_exponent_network():
    """A root, an interior vessel and two leaves whose tube laws have the
    exponent n = -1.5. Every reference area exceeds 1 cm^2, so that a
    volume with a positive mean area V / l can have a ratio V / V0 that
    rounds to zero."""
    lines = ["[fluid]", "rho = 1.06", "mu = 0.04", "pressure_ref = 1.0e4",
             "initial_pressure = 1.3e4", ""]
    for vid, length, area in (("root", 8.6, 2.3235), ("mid", 6.0, 2.5),
                              ("leaf1", 4.0, 3.0), ("leaf2", 4.0, 3.0)):
        lines += [f"[vessel {vid}]", f"length = {length}", f"area = {area}",
                  "wall_thickness = 0.1", "youngs_modulus = 5.0e6", "m = 0.5",
                  "n = -1.5", ""]
    lines += ["[junction]", "parent = root", "daughters = mid", "",
              "[junction]", "parent = mid", "daughters = leaf1 leaf2", "",
              "[inflow]", "vessel = root", ""]
    for vid in ("leaf1", "leaf2"):
        lines += [f"[terminal {vid}]", RCR_TERMINAL, ""]
    return parse_network("\n".join(lines))


def generated_tree(seed, leaves):
    """A ``perfbench/netgen.py`` tree of ``leaves`` leaves."""
    from test_solver1d import _netgen

    return parse_network(_netgen().make_tree(seed, leaves).to_text())


def plan_numerators() -> list[float]:
    """The numerators rho k_R l and rho l of R and L that the plans of the
    bundled bifurcation and of a generated 15-vessel tree hold."""
    from hemoflow.netio import aortic_bifurcation

    out = set()
    for net in (aortic_bifurcation(), generated_tree(5, 8)):
        model = assemble_network(net, NL, synthetic_inflow())
        for c in (model._root[3], *(v[1] for v in model._interior),
                  *(v[1] for v in model._leaves)):
            out.update(c[8:])
    return sorted(out)


#: the smallest plan numerator, and the largest area at which its quotient
#: by A * A, scaled by 1/4, is still normal: the forms first differ a few
#: ulps above it
NUMERATORS = plan_numerators()
EDGE_AREA = 2.0 ** 511 * math.sqrt(0.25 * NUMERATORS[0])
while 0.25 * NUMERATORS[0] / (EDGE_AREA * EDGE_AREA) < 2.0 ** -1022:
    EDGE_AREA = math.nextafter(EDGE_AREA, 0.0)
while 0.25 * NUMERATORS[0] / (EDGE_AREA * EDGE_AREA) >= 2.0 ** -1022:
    EDGE_AREA = math.nextafter(EDGE_AREA, math.inf)
EDGE_AREA = math.nextafter(EDGE_AREA, 0.0)


def loop_lines(model) -> int:
    """Lines of the body of the nonlinear run loop of a network of
    arterial walls with daughters at its root, from the plan. Per stage:
    the root 16 (per half a volume test and a pressure; the mean area, its
    test, R and L; the distal half's area, its test and R_d; the junction's
    flow and pressure; three derivatives), each computed interior vessel
    19 (per half an area, its test, a pressure, R and L; the junction's
    flow and pressure; two halved R; the split pressure; four
    derivatives), each computed leaf 8 (an area, its test, a pressure, half
    R and half L; three derivatives) and its terminal's 2 (RCR) or 1.
    Per step: the time and the count, three stage states and the new state
    per computed state, and the sample block of 7."""
    src = model._copies
    computed = int((src == np.arange(model.dim)).sum())
    stage = 16 + 19 * sum(src[o] == o for o, *_ in model._interior)
    stage += sum(10 if isinstance(term, Windkessel) else 9
                 for o, _, _, _, _, term, _ in model._leaves if src[o] == o)
    return 2 + 4 * stage + 4 * computed + 7


class TestFoldedConstants:
    """A leaf's halves of R and L and the root's shares of R and R_d come
    from numerators scaled by a power of two while the source is written;
    the per-vessel configurations scale the quotient, with the same bits."""

    @pytest.mark.parametrize("network", ["bifurcation", "s5/8"])
    def test_leaves_and_root_scale_no_quotient(self, bifurcation, network):
        from hemoflow.solver0d import _PassSource

        net = bifurcation if network == "bifurcation" else generated_tree(5, 8)
        model = assemble_network(net, NL, synthetic_inflow())
        runner = _PassSource(model).runner()
        loop = runner.split("\ndef pressures")[0]
        assert sum(line.startswith(" " * 8) for line in loop.split("\n")) == loop_lines(model)
        assert not re.search(r"\b(Rr|Rd)_\d+ =", runner)
        for o, *_ in model._leaves:
            assert not re.search(rf"\bh[RL]_{o} =", runner), o
        for o, *_ in model._interior:  # an interior half reads R whole too
            assert f"hR_{o} = 0.5 * R_{o}" in runner, o

    def test_root_fractions_are_powers_of_two(self):
        from hemoflow.solver0d import _ROOT_R_FRAC, _ROOT_RD_FRAC

        for frac in (_ROOT_R_FRAC, _ROOT_RD_FRAC):
            assert 0.0 < frac <= 1.0 and math.frexp(frac)[0] == 0.5

    @given(A=st.floats(1e-150, 1e153), c=st.sampled_from(NUMERATORS),
           s=st.sampled_from([0.5, 0.25]))
    @example(A=EDGE_AREA, c=NUMERATORS[0], s=0.25)
    def test_folded_quotient_is_the_scaled_quotient(self, A, c, s):
        D = A * A
        assert math.isfinite(c / D) and math.isfinite(c / A)
        if (s * c) / D >= 2.0 ** -1022:
            assert (s * c) / D == s * (c / D)
        if (0.5 * c) / A >= 2.0 ** -1022:
            assert (0.5 * c) / A == 0.5 * (c / A)

    @pytest.mark.parametrize("s", [0.5, 0.25])
    def test_forms_differ_only_outside_the_normal_range(self, s):
        for c in NUMERATORS:
            # large areas: where the forms first differ, the scaled quotient
            # is subnormal, and the unfolded form rounds it twice; with
            # s c >= 4, A * A overflows first and both forms give 0.0
            A = 2.0 ** 511 * math.sqrt(s * c) * (1.0 - 2.0 ** -48)
            for _ in range(1000):
                D = A * A
                if (s * c) / D != s * (c / D):
                    assert (s * c) / D < 2.0 ** -1022 and s * c < 4.0, c
                    break
                A = math.nextafter(A, math.inf)
            else:
                assert s * c >= 4.0 and D == math.inf, c
            # small areas: a quotient c / D above the largest double is
            # infinite in the unfolded form only
            A = 0.9 * 2.0 ** -512 * math.sqrt(c)
            assert s * (c / (A * A)) == math.inf, c
            assert math.isfinite((s * c) / (A * A)), c
            A = 0.9 * 2.0 ** -1024 * c
            assert s * (c / A) == math.inf and math.isfinite((s * c) / A), c


class TestStepSizeCheck:
    """A linear run refuses, before its first step, a time step outside
    RK4's stability region for the eigenvalues of its pass."""

    @staticmethod
    def refused(net, dt) -> tuple[float, str]:
        """(the largest stable step, the vessel) that a run at ``dt``
        reports; the run takes no step."""
        import re

        model = assemble_network(net, LIN, synthetic_inflow())
        with pytest.raises(ConfigurationError) as exc:
            model.integrate(dt, 100 * dt)
        found = re.fullmatch(
            rf"time step dt = {dt:g} s is outside RK4's stability region for this "
            r"linear 0D network: the largest stable step is (\S+) s, and the "
            r"fastest-growing mode is dominated by vessel '(\w+)'", str(exc.value))
        assert found, str(exc.value)
        return float(found[1]), found[2]

    @pytest.mark.parametrize("network, dt, stable, vessel", [
        ("bifurcation", 0.05, (0.0134, 0.0137), "left_iliac"),
        ("asymmetric_tree", 1e-3, (1.40e-4, 1.45e-4), "v5"),
        ("asymmetric_tree", 2e-4, (1.40e-4, 1.45e-4), "v5")])
    def test_unstable_step_is_refused(self, bifurcation, network, dt, stable, vessel,
                                      monkeypatch):
        import hemoflow.solver0d as solver0d

        net = bifurcation if network == "bifurcation" else asymmetric_tree_network()
        # refused before the inflow is tabulated for the first block
        monkeypatch.setattr(solver0d, "_inflow_tables", None)
        h, vid = self.refused(net, dt)
        assert stable[0] < h < stable[1] and vid == vessel
        monkeypatch.undo()
        model = assemble_network(net, LIN, synthetic_inflow())
        integ = model.integrate(0.9 * h, 200 * 0.9 * h)
        assert integ.t.size == 201
        self.refused(net, 1.01 * h)

    def test_benchmark_networks_pass_at_the_default_step(self, bifurcation):
        from test_solver1d import _netgen

        for net in (bifurcation, *(parse_network(_netgen().make_tree(seed, leaves).to_text())
                                   for seed, leaves in ((1, 8), (3, 32)))):
            res = run_0d(net, synthetic_inflow(), LIN, dt=1e-3, t_end=0.05)
            assert res.t[-1] == 0.05

    def test_nonlinear_modes_are_not_checked(self, bifurcation):
        # an unstable step of a nonlinear mode still fails as a collapse
        with pytest.raises(CollapseError):
            run_0d(bifurcation, synthetic_inflow(), NL, dt=0.05, t_end=20.0)


class TestRK4:
    def test_exponential_decay(self):
        integ = rk4_integrate(lambda t, y: -y, np.array([1.0]), 0.05, 1.0)
        assert integ.y[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_linear_pin_qout_matrix_exponential(self):
        # constant-input linear vessel against the exact affine solution
        spec = aorta_like_spec(P0=0.0)
        cons = lumped_constants(spec)
        V0 = spec.wall.A0 * spec.length
        p_in, q_out = 2000.0, 5.0
        ves = PinQoutVessel(spec)

        def rhs(t, y):
            return np.array(ves.rhs(y, p_in, q_out, LIN))

        y0 = np.array([V0, 0.0])
        t_end = 0.1
        integ = rk4_integrate(rhs, y0, 1e-4, t_end)

        M = np.array([[0.0, 1.0],
                      [-1.0 / (cons.C0 * cons.L0), -cons.R0 / cons.L0]])
        b = np.array([-q_out, (p_in + V0 / cons.C0) / cons.L0])
        aug = np.zeros((3, 3))
        aug[:2, :2] = M
        aug[:2, 2] = b
        exact = (expm(aug * t_end) @ np.array([V0, 0.0, 1.0]))[:2]
        assert np.max(np.abs(integ.y[-1] - exact)) < 1e-8 * max(1.0, abs(exact[0]))

    def test_nonfinite_abort(self):
        with np.errstate(over="ignore"), pytest.raises(ModelError,
                                                       match="non-finite"):
            rk4_integrate(lambda t, y: y * y, np.array([1.0]), 0.05, 3.0)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            rk4_integrate(lambda t, y: -y, np.array([1.0]), 0.0, 1.0)

    @pytest.mark.parametrize("dt, t_end, message", [
        (math.inf, 1.1, "time step must be positive and finite, got dt = inf "
                        "(t_end = 1.1)"),
        (math.nan, 1.1, "time step must be positive and finite, got dt = nan "
                        "(t_end = 1.1)"),
        (3.0, 1.1, "time step dt = 3.0 takes no finite, positive number of "
                   "steps to t_end = 1.1"),
        (1e-3, 5e-4, "time step dt = 0.001 takes no finite, positive number of "
                     "steps to t_end = 0.0005"),
        (1e-3, math.inf, "time step dt = 0.001 takes no finite, positive number "
                         "of steps to t_end = inf"),
        (1e-3, math.nan, "time step dt = 0.001 takes no finite, positive number "
                         "of steps to t_end = nan")])
    def test_degenerate_time_step_is_refused(self, dt, t_end, message):
        # a run of no step once "succeeded" with one sample at t = 0
        for y0 in (np.array([1.0]), [1.0]):
            with pytest.raises(ValueError) as exc:
                rk4_integrate(lambda t, y: y, y0, dt, t_end)
            assert str(exc.value) == message
        if math.isfinite(t_end):
            model = assemble_network(two_vessel_network(), NL, synthetic_inflow())
            for run in (lambda: model.integrate(dt, t_end),
                        lambda: run_0d(model.network, model.inflow, NL, dt=dt,
                                       t_end=t_end)):
                with pytest.raises(ValueError) as exc:
                    run()
                assert str(exc.value) == message

    @pytest.mark.parametrize("every", [math.nan, math.inf, 0.0, -1.0])
    def test_degenerate_sample_interval_is_refused(self, every):
        # nan once failed converting to an integer, inf overflowed, and 0.0
        # or -1.0 silently sampled every step
        message = f"^sample_interval must be positive and finite, got {every}$"
        for y0 in (np.array([1.0]), [1.0]):
            with pytest.raises(ValueError, match=message):
                rk4_integrate(lambda t, y: y, y0, 1e-3, 0.01, sample_interval=every)
        model = assemble_network(two_vessel_network(), NL, synthetic_inflow())
        with pytest.raises(ValueError, match=message):
            model.integrate(1e-3, 0.01, every)

    def test_list_states_nonfinite_abort(self):
        # a list y0 is taken as an array
        with np.errstate(over="ignore"), pytest.raises(ModelError,
                                                       match="non-finite"):
            rk4_integrate(lambda t, y: y * y, [1.0], 0.05, 3.0)

    def test_cpu_seconds_exclude_waiting(self):
        # CPU time of this thread: time spent asleep does not count
        def rhs(t, y):
            time.sleep(0.01)
            return -y

        integ = rk4_integrate(rhs, np.array([1.0]), 0.1, 0.5)
        assert integ.t.size == 6
        assert integ.cpu_seconds < 0.1

    def test_sampling_stride(self):
        integ = rk4_integrate(lambda t, y: -y, np.array([1.0]), 0.01, 1.0,
                              sample_interval=0.1)
        assert integ.t[-1] == 100 * 0.01
        assert integ.t.size == 11
        np.testing.assert_allclose(np.diff(integ.t), 0.1, rtol=1e-12)


class TestSmallSignalAgreement:
    def test_linear_nonlinear_gap_is_quadratic(self):
        # the gap between linear and nonlinear trajectories shrinks ~4x
        # when the forcing amplitude is halved
        spec = aorta_like_spec(P0=0.0)
        Vh = spec.wall.A0 * spec.length / 2.0

        def gap(eps):
            ves = QinQoutVessel(spec)

            def make_rhs(mode):
                def rhs(t, y):
                    q_in = eps * math.sin(2.0 * math.pi * t)
                    q_out = eps * math.sin(4.0 * math.pi * t)
                    return np.array(ves.rhs(y, q_in, q_out, mode))
                return rhs

            y0 = np.array([Vh, 0.0, Vh])
            a = rk4_integrate(make_rhs(NL), y0, 1e-3, 2.0)
            b = rk4_integrate(make_rhs(LIN), y0, 1e-3, 2.0)
            return np.max(np.abs(a.y - b.y) / np.array([Vh, 1.0, Vh]))

        g1, g2 = gap(8.0), gap(4.0)
        assert g1 / g2 == pytest.approx(4.0, rel=0.25)
