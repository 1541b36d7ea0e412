"""Lumped-parameter vessel models, network assembly and RK4 integration."""

import math
import time

import numpy as np
import pytest
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
    sample (a stride of 2 and a last step of 0)."""
    run, inflow, half = model._run, model.inflow, 0.5 * dt

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


class TestCompiledStep:
    """``run_0d`` advances with the network's compiled RK4 run loop, and
    ``rk4_step`` is a one-step call of it; the generic integrator on
    ``model.rhs`` is their reference."""

    @pytest.mark.parametrize("mode_name", sorted(EQUIVALENCE_MODES))
    def test_run_matches_generic_integration(self, bifurcation, mode_name):
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
                    assert np.array_equal(res.vessels[vid][ch], series[ch]), (name, vid, ch)

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
        assert np.array_equal(direct.y, integ.y)
        for vid, series in model.observe(integ.y).items():
            for ch in ("P", "Q", "A"):
                assert np.array_equal(res.vessels[vid][ch], series[ch]), (vid, ch)

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
        # so it waits for the first integration or evaluation
        names = compiled_names
        model = assemble_network(bifurcation, NL, synthetic_inflow())
        y0 = model.initial_state()
        assert names == []
        rk4_step(model, 1e-3)
        rk4_step(model, 2e-3)
        model.rhs(0.0, y0)
        model.rhs(0.1, y0)
        assert len(names) == 2

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
        assert len(names) == 2
        second = assemble_network(bifurcation, NL, synthetic_inflow())
        assert np.array_equal(second.rhs(0.1, y), expected)
        rk4_step(second, 1e-3)
        assert len(names) == 2
        # the inflow enters the root's first volume derivative only
        other = assemble_network(bifurcation, NL, synthetic_inflow(period=0.9))
        d = other.rhs(0.1, y)
        assert len(names) == 2
        q_in = float(synthetic_inflow(period=0.9)(0.1))
        assert q_in != float(synthetic_inflow()(0.1))
        assert d[0] == q_in - y[1] and expected[0] != d[0]
        assert np.array_equal(d[1:], expected[1:])
        step = rk4_step(other, 1e-3)(0.1, y.tolist())
        generic = _rk4_array_step(other.rhs, 1e-3)(0.1, y)
        assert step == generic.tolist()


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
