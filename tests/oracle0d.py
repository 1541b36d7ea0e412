"""The 0D reference: each vessel configuration as a class that evaluates
the compartment laws itself, and their composition into a network.

``hemoflow.solver0d`` describes a network once, as an evaluation plan from
which it writes the network pass; nothing here reads that plan. A
``Composition`` assigns the configurations, lays out the states and couples
the vessels at the junctions and terminals on its own, so the tests can
require the plan's pass, layout, initial state and ``observe`` to equal it.
Its volume indices and boundary flows are the mass audits' own. The
linearised coefficient matrices of the configurations are the reference of
the closed-form eigenvalues of ``hemoflow.analysis``.
"""

from __future__ import annotations

import numpy as np

from hemoflow.errors import CollapseError, ConfigurationError
from hemoflow.netio import Windkessel
from hemoflow.solver0d import ModelMode
from hemoflow.vessel import VesselSpec, tube_law_slope


class _Compartment:
    """A lumped piece of a vessel: ``fraction`` of its length, with the
    reference volume and constants scaled accordingly.

    ``consts`` holds (V0, K, m, n, P0 + p_ext, C0, R0, L0, rho k_R l, rho l).
    """

    __slots__ = ("length", "consts")

    def __init__(self, spec: VesselSpec, fraction: float = 1.0):
        w, f = spec.wall, spec.fluid
        length = fraction * spec.length
        rho_kR_l = f.rho * f.k_R * length
        rho_l = f.rho * length
        self.length = length
        self.consts = (w.A0 * length, w.K, w.m, w.n, w.P0 + w.p_ext,
                       length / tube_law_slope(w.A0, w),
                       rho_kR_l / (w.A0 * w.A0), rho_l / w.A0, rho_kR_l, rho_l)

    @staticmethod
    def pressure_law(c: tuple, V: float, nonlinear: bool) -> float:
        """Pressure at volume V: the elastic tube law at the mean area V/l,
        or its linearisation with the reference compliance C0."""
        if V <= 0.0:
            raise CollapseError(f"compartment volume became non-positive: {V}")
        V0, K, m, n, P_ref, C0, R0, L0, rho_kR_l, rho_l = c
        if nonlinear:
            x = V / V0  # = A_hat / A0
            if x <= 0.0 and min(m, n) < 0.0:  # 0.0 has no negative power
                raise CollapseError(f"volume ratio V / V0 underflowed to 0.0: {V}")
            return K * (x ** m - x ** n) + P_ref
        return P_ref + (V - V0) / C0

    @staticmethod
    def flow_law(c: tuple, A_hat: float, nonlinear_r: bool,
                 nonlinear_l: bool) -> tuple[float, float]:
        """(R, L) at mean area A_hat, or the reference values R0, L0."""
        if (nonlinear_r or nonlinear_l) and A_hat <= 0.0:
            raise CollapseError(f"mean area became non-positive: {A_hat}")
        V0, K, m, n, P_ref, C0, R0, L0, rho_kR_l, rho_l = c
        return (rho_kR_l / (A_hat * A_hat) if nonlinear_r else R0,
                rho_l / A_hat if nonlinear_l else L0)

    def pressure(self, V: float, mode: ModelMode) -> float:
        """Compartment pressure from its volume, per the mode's law."""
        return self.pressure_law(self.consts, V, mode.nonlinear_pressure)

    def flow(self, A_hat: float, mode: ModelMode) -> tuple[float, float]:
        _, nl_r, nl_l = mode.flags
        return self.flow_law(self.consts, A_hat, nl_r, nl_l)

    def resistance(self, A_hat: float, mode: ModelMode) -> float:
        return self.flow_law(self.consts, A_hat, mode.flags[1], False)[0]

    def inductance(self, A_hat: float, mode: ModelMode) -> float:
        return self.flow_law(self.consts, A_hat, False, mode.flags[2])[1]


def pressure_of_volume(V: float, spec: VesselSpec, mode: ModelMode) -> float:
    """Whole-vessel pressure at volume V (mean area V/l)."""
    return _Compartment(spec).pressure(V, mode)


# ---------------------------------------------------------------------------
# The four vessel configurations
# ---------------------------------------------------------------------------

class PinQoutVessel:
    """(P_in, Q_out)-type vessel: states (V, Q).

    dV/dt = Q - Q_out;  dQ/dt = [P_in - R(A_hat) Q - P]/L(A_hat).
    With the distal split enabled, half of the total resistance is moved to
    the outlet and the exposed outlet pressure is P - R_d Q_out.
    """

    nstates = 2

    def __init__(self, spec: VesselSpec, fraction: float = 1.0,
                 distal_split: bool = False):
        self.comp = _Compartment(spec, fraction)
        self.distal_split = distal_split

    def rhs(self, y, p_in: float, q_out: float, mode: ModelMode):
        V, Q = y
        c = self.comp
        P = c.pressure(V, mode)
        R, L = c.flow(V / c.length, mode)
        return (Q - q_out, (p_in - R * Q - P) / L)

    def outlet_pressure(self, y, q_out: float, mode: ModelMode) -> float:
        V, _ = y
        P = self.comp.pressure(V, mode)
        if not self.distal_split:
            return P
        R_d = 0.5 * self.comp.resistance(V / self.comp.length, mode)
        return P - R_d * q_out


class QinPoutVessel:
    """(Q_in, P_out)-type vessel: states (V, Q), mirror of PinQout."""

    nstates = 2

    def __init__(self, spec: VesselSpec, fraction: float = 1.0,
                 proximal_split: bool = False):
        self.comp = _Compartment(spec, fraction)
        self.proximal_split = proximal_split

    def rhs(self, y, q_in: float, p_out: float, mode: ModelMode):
        V, Q = y
        c = self.comp
        P = c.pressure(V, mode)
        R, L = c.flow(V / c.length, mode)
        return (q_in - Q, (P - R * Q - p_out) / L)

    def inlet_pressure(self, y, q_in: float, mode: ModelMode) -> float:
        V, _ = y
        P = self.comp.pressure(V, mode)
        if not self.proximal_split:
            return P
        R_p = 0.5 * self.comp.resistance(V / self.comp.length, mode)
        return P + R_p * q_in


class PinPoutVessel:
    """(P_in, P_out)-type vessel: states (V, Q, Q_d).

    The total resistance and inductance are split evenly between the
    proximal (flow Q) and distal (flow Q_d) portions around one capacitor.
    """

    nstates = 3

    def __init__(self, spec: VesselSpec):
        self.comp = _Compartment(spec)

    def rhs(self, y, p_in: float, p_out: float, mode: ModelMode):
        V, Q, Qd = y
        c = self.comp
        P = c.pressure(V, mode)
        R, L = c.flow(V / c.length, mode)
        Rh, Lh = 0.5 * R, 0.5 * L
        return (Q - Qd, (p_in - Rh * Q - P) / Lh, (P - Rh * Qd - p_out) / Lh)


class QinQoutVessel:
    """(Q_in, Q_out)-type vessel: states (V, Q, V_d).

    Two half-length compartments (reference volume A0 l/2 each) exchange the
    interior flow Q through resistance R and inductance L evaluated at the
    whole-vessel mean area. The total resistance is split as R_p : R : R_d =
    rp_frac : 1 - rp_frac - rd_frac : rd_frac; end resistances are evaluated
    at the mean area of the compartment they attach to.
    """

    nstates = 3

    def __init__(self, spec: VesselSpec, rp_frac: float = 0.25,
                 rd_frac: float = 0.25):
        if rp_frac < 0 or rd_frac < 0 or rp_frac + rd_frac >= 1.0:
            raise ConfigurationError(
                f"resistance split fractions must be non-negative with sum < 1, "
                f"got rp={rp_frac}, rd={rd_frac}")
        self.half = _Compartment(spec, 0.5)
        self.full = _Compartment(spec, 1.0)
        self.rp_frac = rp_frac
        self.rd_frac = rd_frac
        self.r_frac = 1.0 - rp_frac - rd_frac

    def rhs(self, y, q_in: float, q_out: float, mode: ModelMode):
        V, Q, Vd = y
        P = self.half.pressure(V, mode)
        Pd = self.half.pressure(Vd, mode)
        R, L = self.full.flow((V + Vd) / self.full.length, mode)
        R = self.r_frac * R
        return (q_in - Q, (P - R * Q - Pd) / L, Q - q_out)

    def inlet_pressure(self, y, q_in: float, mode: ModelMode) -> float:
        V = y[0]
        R_p = self.rp_frac * self.full.resistance(V / self.half.length, mode)
        return self.half.pressure(V, mode) + R_p * q_in

    def outlet_pressure(self, y, q_out: float, mode: ModelMode) -> float:
        Vd = y[2]
        return self.half.pressure(Vd, mode) - self.distal_resistance(y, mode) * q_out

    def distal_resistance(self, y, mode: ModelMode) -> float:
        return self.rd_frac * self.full.resistance(y[2] / self.half.length, mode)


class TwoSplitPinQout:
    """Interior vessel realized as two PinQout half-compartments in series,
    coupled by a two-vessel junction: states (V1, Q1, V2, Q2)."""

    nstates = 4

    def __init__(self, spec: VesselSpec):
        self.first = PinQoutVessel(spec, fraction=0.5, distal_split=True)
        self.second = PinQoutVessel(spec, fraction=0.5, distal_split=True)

    def rhs(self, y, p_in: float, q_out: float, mode: ModelMode):
        y1, y2 = y[:2], y[2:]
        # junction between the halves: Q_out of the first is the flow state
        # of the second, and the second sees the first's outlet pressure
        q_mid = y2[1]
        p_mid = self.first.outlet_pressure(y1, q_mid, mode)
        d1 = self.first.rhs(y1, p_in, q_mid, mode)
        d2 = self.second.rhs(y2, p_mid, q_out, mode)
        return d1 + d2

    def outlet_pressure(self, y, q_out: float, mode: ModelMode) -> float:
        return self.second.outlet_pressure(y[2:], q_out, mode)


# ---------------------------------------------------------------------------
# The linearised configurations
# ---------------------------------------------------------------------------

# Coefficient matrices of each configuration's linear dynamics with frozen
# inputs, whose eigenvalues the closed forms of ``hemoflow.analysis`` give.

def matrix_pin_qout(R0: float, L0: float, C0: float) -> np.ndarray:
    """Coefficient matrix of the linear (V, Q) system with frozen inputs."""
    return np.array([[0.0, 1.0],
                     [-1.0 / (C0 * L0), -R0 / L0]])


def matrix_qin_pout(R0: float, L0: float, C0: float) -> np.ndarray:
    """Coefficient matrix of the mirrored (V, Q) system."""
    return np.array([[0.0, -1.0],
                     [1.0 / (C0 * L0), -R0 / L0]])


def matrix_pin_pout(R0: float, L0: float, C0: float) -> np.ndarray:
    """Coefficient matrix of the (V, Q, Q_d) system: one capacitor C0
    between half resistances R0/2 and half inductances L0/2."""
    a = R0 / L0
    b = 2.0 / (C0 * L0)
    return np.array([[0.0, 1.0, -1.0],
                     [-b, -a, 0.0],
                     [b, 0.0, -a]])


def matrix_qin_qout(R0: float, L0: float, C0: float) -> np.ndarray:
    """Coefficient matrix of the (V, Q, V_d) system: two half capacitors
    C0/2 around the interior resistance R0 and inductance L0."""
    a = R0 / L0
    b = 2.0 / (C0 * L0)
    return np.array([[0.0, -1.0, 0.0],
                     [b, -a, -b],
                     [0.0, 1.0, 0.0]])


# ---------------------------------------------------------------------------
# Terminal coupling
# ---------------------------------------------------------------------------

def terminal_flow_coupling(P: float, R_d: float, terminal, P_wk: float):
    """Flow-typed coupling of a vessel outlet (distal pressure P behind
    split resistance R_d) to a terminal element.

    Returns (Q_out, dP_wk/dt); the capacitor derivative is 0 for a single
    resistance.
    """
    if isinstance(terminal, Windkessel):
        R_tot = R_d + terminal.R1
        if R_tot <= 0.0:
            raise ConfigurationError("terminal coupling has zero total resistance")
        q = (P - P_wk) / R_tot
        dP_wk = (q - (P_wk - terminal.P_v) / terminal.R2) / terminal.C
        return q, dP_wk
    R_tot = R_d + terminal.R
    if R_tot <= 0.0:
        raise ConfigurationError("terminal coupling has zero total resistance")
    return (P - terminal.P_v) / R_tot, 0.0


def terminal_pressure_coupling(Q: float, terminal, P_wk: float):
    """Pressure-typed coupling: the vessel's distal flow Q enters the
    terminal and the outlet pressure is returned with dP_wk/dt."""
    if isinstance(terminal, Windkessel):
        p_out = P_wk + terminal.R1 * Q
        dP_wk = (Q - (P_wk - terminal.P_v) / terminal.R2) / terminal.C
        return p_out, dP_wk
    return terminal.P_v + terminal.R * Q, 0.0


# ---------------------------------------------------------------------------
# The composed network
# ---------------------------------------------------------------------------

class Composition:
    """The network of a ``NetworkModel0D`` composed from the per-vessel
    classes: the root is QinQout, a vessel with daughters TwoSplitPinQout,
    a leaf PinPout, laid out in the network's vessel order, then one
    capacitor pressure per RCR terminal."""

    def __init__(self, model):
        net = self.network = model.network
        self.mode, self.inflow = model.mode, model.inflow
        has_daughters = {j.parent for j in net.junctions}
        self.models, self.layout, self.wk_index = {}, {}, {}
        offset = 0
        for vid, spec in net.vessels.items():
            if vid == net.root:
                vessel = QinQoutVessel(spec)
            elif vid in has_daughters:
                vessel = TwoSplitPinQout(spec)
            else:
                vessel = PinPoutVessel(spec)
            self.models[vid] = vessel
            self.layout[vid] = offset
            offset += vessel.nstates
        for vid, term in net.terminals.items():
            if isinstance(term, Windkessel):
                self.wk_index[vid] = offset
                offset += 1
        self.dim = offset

    @property
    def volume_indices(self) -> list[int]:
        idx = []
        for vid, vessel in self.models.items():
            off = self.layout[vid]
            if isinstance(vessel, (QinQoutVessel, TwoSplitPinQout)):
                idx.extend([off, off + 2])
            else:
                idx.append(off)
        return idx

    def initial_state(self) -> list[float]:
        net = self.network
        y0 = [0.0] * self.dim
        for vid, vessel in self.models.items():
            off = self.layout[vid]
            A_init = net.initial_area(vid)
            l = net.vessels[vid].length
            if isinstance(vessel, PinPoutVessel):
                y0[off] = A_init * l
            else:
                y0[off] = A_init * l / 2.0
                y0[off + 2] = A_init * l / 2.0
        for idx in self.wk_index.values():
            y0[idx] = net.initial_pressure
        return y0

    def inputs(self, t, y):
        """Per-vessel (inlet, outlet) inputs and terminal capacitor
        derivatives."""
        net, mode = self.network, self.mode
        inputs = {vid: [None, None] for vid in self.models}
        dwk = {}
        inputs[net.root][0] = float(self.inflow(t))
        for j in net.junctions:
            off = self.layout[j.parent]
            parent = self.models[j.parent]
            q_out = sum(y[self.layout[d] + 1] for d in j.daughters)
            p_if = parent.outlet_pressure(y[off:off + parent.nstates], q_out, mode)
            inputs[j.parent][1] = q_out
            for d in j.daughters:
                inputs[d][0] = p_if
        for vid, term in net.terminals.items():
            vessel, off = self.models[vid], self.layout[vid]
            P_wk = y[self.wk_index[vid]] if vid in self.wk_index else 0.0
            if isinstance(vessel, PinPoutVessel):
                out, dP_wk = terminal_pressure_coupling(y[off + 2], term, P_wk)
            else:
                y_v = y[off:off + 3]
                out, dP_wk = terminal_flow_coupling(
                    vessel.half.pressure(y_v[2], mode),
                    vessel.distal_resistance(y_v, mode), term, P_wk)
            inputs[vid][1] = out
            if vid in self.wk_index:
                dwk[vid] = dP_wk
        return inputs, dwk

    def rhs(self, t, y) -> list[float]:
        """Each per-vessel class's rhs on its slice of the state, driven by
        ``inputs``."""
        inputs, dwk = self.inputs(t, y)
        dy = [None] * self.dim
        for vid, vessel in self.models.items():
            off = self.layout[vid]
            dy[off:off + vessel.nstates] = vessel.rhs(
                y[off:off + vessel.nstates], inputs[vid][0], inputs[vid][1],
                self.mode)
        for vid, idx in self.wk_index.items():
            dy[idx] = dwk[vid]
        return dy

    def boundary_flows(self, t, y):
        """(inflow at the root, per-terminal outflow): a leaf's distal
        flow, or the flow of a single vessel's flow-typed coupling."""
        inputs, _ = self.inputs(t, y)
        outflows = {}
        for vid in self.network.terminals:
            if isinstance(self.models[vid], PinPoutVessel):
                outflows[vid] = y[self.layout[vid] + 2]
            else:
                outflows[vid] = inputs[vid][1]
        return inputs[self.network.root][0], outflows

    def observe(self, y) -> dict[str, dict[str, float]]:
        """Per-vessel (P, Q, A) of one state: volume-weighted mean
        pressure, mid-vessel flow and mean area."""
        out = {}
        for vid, vessel in self.models.items():
            off = self.layout[vid]
            l = self.network.vessels[vid].length
            if isinstance(vessel, PinPoutVessel):
                V = y[off]
                out[vid] = {"P": vessel.comp.pressure(V, self.mode),
                            "Q": 0.5 * (y[off + 1] + y[off + 2]), "A": V / l}
                continue
            if isinstance(vessel, QinQoutVessel):
                first, second, Q = vessel.half, vessel.half, y[off + 1]
            else:
                first, second, Q = vessel.first.comp, vessel.second.comp, y[off + 3]
            V, Vd = y[off], y[off + 2]
            P, Pd = first.pressure(V, self.mode), second.pressure(Vd, self.mode)
            out[vid] = {"P": (V * P + Vd * Pd) / (V + Vd), "Q": Q,
                        "A": (V + Vd) / l}
        return out


def vessel_inputs(model, t, y):
    """The coupling values of the model's compiled pass, per vessel
    (inlet, outlet) as ``Composition.inputs`` gives them, and the terminal
    capacitor derivatives."""
    q_in = float(model.inflow(t))
    d, p_if, q_if, t_out = model._evaluate(t, q_in, [float(v) for v in y])
    inputs = {vid: [None, None] for vid in model.network.vessels}
    inputs[model.network.root][0] = q_in
    for j, junction in enumerate(model._junctions):
        inputs[junction.parent][1] = q_if[j]
        for daughter in junction.daughters:
            inputs[daughter][0] = p_if[j]
    for k, vid in enumerate(model._terminals):
        inputs[vid][1] = t_out[k]
    dwk = {vid: d[idx] for vid, idx in model.wk_index.items()}
    return inputs, dwk
