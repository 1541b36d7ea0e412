"""Lumped-parameter (0D) vessel models and their network assembly.

Each vessel is described by volume/flow states coupled through resistance,
inductance and compliance elements. Four configurations exist, named by
which quantities are prescribed at the inlet and outlet: (P_in, Q_out),
(Q_in, P_out), (P_in, P_out) and (Q_in, Q_out). The nonlinear variants
evaluate R and L at the instantaneous mean area and use the full elastic
tube law for the pressure-volume relation; the linear variants use the
constant reference values R0, L0, C0.

A network is assembled into one global ODE system (root vessel QinQout,
interior vessels as chains of two PinQout compartments, terminal vessels
PinPout, plus one capacitor pressure per RCR terminal) and advanced with
classical RK4. Assembly flattens the tree into an evaluation plan of
constant tuples, state offsets and junction/terminal coupling in tree
order; the network right-hand side is one pass over that plan on Python
floats. The compartment laws (``_Compartment.pressure_law`` and
``_Compartment.flow_law``) are shared by that pass and the per-vessel
classes, which remain the single-vessel API.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import CollapseError, ConfigurationError, ModelError
from .netio import Network, WaveformSeries, Windkessel
from .vessel import VesselSpec, tube_law_slope


@dataclass(frozen=True)
class ModelMode:
    """Switches between linear (reference-area) and nonlinear
    (instantaneous-area) evaluation of the pressure law, resistance and
    inductance. ``frozen_area`` keeps the nonlinear code paths but pins the
    mean area at A0 (used for consistency checks)."""

    nonlinear_pressure: bool = True
    nonlinear_resistance: bool = True
    nonlinear_inductance: bool = True
    frozen_area: bool = False

    @classmethod
    def linear(cls) -> "ModelMode":
        return cls(False, False, False)

    @classmethod
    def nonlinear(cls) -> "ModelMode":
        return cls(True, True, True)

    @property
    def flags(self) -> tuple[bool, bool, bool]:
        """Whether pressure, resistance and inductance follow the
        instantaneous area. A frozen area pins R and L at A0, where the
        nonlinear expressions equal the reference values R0 and L0."""
        return (self.nonlinear_pressure,
                self.nonlinear_resistance and not self.frozen_area,
                self.nonlinear_inductance and not self.frozen_area)

    @classmethod
    def from_name(cls, name: str) -> "ModelMode":
        table = {
            "linear": cls(False, False, False),
            "nonlinear": cls(True, True, True),
            "nl-p": cls(True, False, False),
            "nl-r": cls(False, True, False),
            "nl-l": cls(False, False, True),
        }
        try:
            return table[name.strip().lower()]
        except KeyError:
            raise ConfigurationError(
                f"unknown 0D mode {name!r}; choose from {sorted(table)}") from None


class _Compartment:
    """A lumped piece of a vessel: ``fraction`` of its length, with the
    reference volume and constants scaled accordingly.

    ``consts`` holds (V0, K, m, n, P0 + p_ext, C0, R0, L0, rho k_R l, rho l).
    The two static laws below are the only place where a compartment's
    pressure, resistance and inductance are evaluated; the per-vessel
    classes and the assembled network pass both call them.
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

    def pressure_array(self, V: np.ndarray, mode: ModelMode) -> np.ndarray:
        """Vectorized ``pressure_law``, for post-processing sampled volumes."""
        V0, K, m, n, P_ref, C0 = self.consts[:6]
        if mode.nonlinear_pressure:
            x = V / V0
            return K * (x ** m - x ** n) + P_ref
        return P_ref + (V - V0) / C0


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


# Spec-level functional entry points over the class machinery.

def rhs_pin_qout(state, p_in, q_out, spec, mode, distal_split=False):
    return PinQoutVessel(spec, distal_split=distal_split).rhs(state, p_in, q_out, mode)


def rhs_qin_pout(state, q_in, p_out, spec, mode, proximal_split=False):
    return QinPoutVessel(spec, proximal_split=proximal_split).rhs(state, q_in, p_out, mode)


def rhs_pin_pout(state, p_in, p_out, spec, mode):
    return PinPoutVessel(spec).rhs(state, p_in, p_out, mode)


def rhs_qin_qout(state, q_in, q_out, spec, mode, rp_frac=0.25, rd_frac=0.25):
    return QinQoutVessel(spec, rp_frac, rd_frac).rhs(state, q_in, q_out, mode)


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
# Network assembly
# ---------------------------------------------------------------------------

class NetworkModel0D:
    """Global ODE system for a vessel tree.

    Configuration assignment: the root vessel is QinQout (inflow rate
    prescribed), interior vessels are two-split PinQout chains, and leaf
    vessels are PinPout. One capacitor pressure per RCR terminal is appended
    to the state vector.

    Assembly also flattens the network into an evaluation plan: per vessel
    its state offset and compartment constants, junctions numbered in tree
    order (parents before daughters) with the state indices of the flows
    they collect, and per terminal its element and capacitor index.
    ``rhs`` walks that plan once over Python floats.
    """

    def __init__(self, network: Network, mode: ModelMode,
                 inflow: WaveformSeries):
        self.network = network
        self.mode = mode
        self.inflow = inflow
        self.models: dict[str, object] = {}
        self.layout: dict[str, int] = {}
        self.wk_index: dict[str, int] = {}

        has_daughters = {j.parent for j in network.junctions}
        offset = 0
        for vid in network.vessels:
            spec = network.vessels[vid]
            if vid == network.root:
                model = QinQoutVessel(spec)
            elif vid in has_daughters:
                model = TwoSplitPinQout(spec)
            else:
                model = PinPoutVessel(spec)
            self.models[vid] = model
            self.layout[vid] = offset
            offset += model.nstates
        for vid, term in network.terminals.items():
            if isinstance(term, Windkessel):
                self.wk_index[vid] = offset
                offset += 1
        self.dim = offset

        root_model = self.models[network.root]
        if isinstance(root_model, QinQoutVessel) and network.root in network.terminals:
            term = network.terminals[network.root]
            R1 = term.R1 if isinstance(term, Windkessel) else term.R
            if R1 <= 0.0 and root_model.rd_frac == 0.0:
                raise ConfigurationError(
                    "flow-typed terminal coupling has zero total resistance")
        self._build_plan()

    def _build_plan(self) -> None:
        net, layout, models = self.network, self.layout, self.models
        by_parent = {j.parent: j for j in net.junctions}
        self._flags = self.mode.flags
        #: junctions and terminal vessels in plan order
        self._junctions = junctions = []
        self._terminals = terminals = []
        self._interior = interior = []
        self._leaves = leaves = []
        j_in: dict[str, int] = {}
        order = [net.root]
        for vid in order:  # breadth-first: parents before daughters
            model, off = models[vid], layout[vid]
            # outlet: (junction or terminal position, the daughters' proximal
            # flows a junction collects, terminal, capacitor index)
            junction = by_parent.get(vid)
            if junction is None:
                outlet = (len(terminals), (), net.terminals[vid],
                          self.wk_index.get(vid, -1))
                terminals.append(vid)
            else:
                j = len(junctions)
                junctions.append(junction)
                # a proximal flow is the state after its vessel's first volume
                flows = []
                for d in junction.daughters:
                    order.append(d)
                    j_in[d] = j
                    flows.append(layout[d] + 1)
                outlet = (j, tuple(flows), None, -1)
            if vid == net.root:
                self._root = (off, model.half.consts, model.half.length,
                              model.full.consts, model.full.length,
                              model.r_frac, model.rd_frac, *outlet)
            elif junction is not None:  # interior: two PinQout halves
                c = model.first.comp
                interior.append((off, c.consts, c.length, j_in[vid], *outlet[:2]))
            else:  # PinPout leaf
                c = model.comp
                k, _, term, wk = outlet
                leaves.append((off, c.consts, c.length, j_in[vid], k, term, wk))

    def _evaluate(self, t: float, s: list[float]):
        """One pass of the plan at time t over the state list s.

        Returns the derivative list, the root inflow, per junction its
        interface pressure and the flow its daughters draw, and per
        terminal the value handed back to its vessel: the outlet pressure of
        a PinPout leaf, or the outlet flow of a single-vessel network.
        """
        pressure, flow = _Compartment.pressure_law, _Compartment.flow_law
        nl_p, nl_r, nl_l = self._flags
        d = [0.0] * self.dim
        p_if = [0.0] * len(self._junctions)
        q_if = [0.0] * len(self._junctions)
        t_out = [0.0] * len(self._terminals)

        q_in = float(self.inflow(t))
        o, hc, hl, fc, fl, r_frac, rd_frac, j, flows, term, wk = self._root
        V, Q, Vd = s[o:o + 3]
        P = pressure(hc, V, nl_p)
        Pd = pressure(hc, Vd, nl_p)
        R, L = flow(fc, (V + Vd) / fl, nl_r, nl_l)
        R = r_frac * R
        # the distal end resistance sits at the distal half's mean area
        R_d = rd_frac * flow(fc, Vd / hl, nl_r, False)[0]
        if term is None:
            q_out = 0.0
            for i in flows:
                q_out += s[i]
            p_if[j] = Pd - R_d * q_out
            q_if[j] = q_out
        else:  # single-vessel network: flow-typed terminal coupling
            q_out, dP_wk = terminal_flow_coupling(
                Pd, R_d, term, s[wk] if wk >= 0 else 0.0)
            t_out[j] = q_out
            if wk >= 0:
                d[wk] = dP_wk
        d[o:o + 3] = (q_in - Q, (P - R * Q - Pd) / L, Q - q_out)

        for o, c, l, j_in, j, flows in self._interior:
            V1, Q1, V2, Q2 = s[o:o + 4]
            P1 = pressure(c, V1, nl_p)
            R1, L1 = flow(c, V1 / l, nl_r, nl_l)
            P2 = pressure(c, V2, nl_p)
            R2, L2 = flow(c, V2 / l, nl_r, nl_l)
            q_out = 0.0
            for i in flows:
                q_out += s[i]
            p_if[j] = P2 - 0.5 * R2 * q_out
            q_if[j] = q_out
            # the halves meet at the first half's distal-split pressure
            p_mid = P1 - 0.5 * R1 * Q2
            d[o:o + 4] = (Q1 - Q2, (p_if[j_in] - R1 * Q1 - P1) / L1,
                          Q2 - q_out, (p_mid - R2 * Q2 - P2) / L2)

        for o, c, l, j_in, k, term, wk in self._leaves:
            V, Q, Qd = s[o:o + 3]
            P = pressure(c, V, nl_p)
            R, L = flow(c, V / l, nl_r, nl_l)
            Rh, Lh = 0.5 * R, 0.5 * L
            p_out, dP_wk = terminal_pressure_coupling(
                Qd, term, s[wk] if wk >= 0 else 0.0)
            t_out[k] = p_out
            if wk >= 0:
                d[wk] = dP_wk
            d[o:o + 3] = (Q - Qd, (p_if[j_in] - Rh * Q - P) / Lh,
                          (P - Rh * Qd - p_out) / Lh)
        return d, q_in, p_if, q_if, t_out

    @property
    def volume_indices(self) -> list[int]:
        """State indices holding compartment volumes (for mass audits)."""
        idx = []
        for vid, model in self.models.items():
            off = self.layout[vid]
            if isinstance(model, (QinQoutVessel, TwoSplitPinQout)):
                idx.extend([off, off + 2])
            else:
                idx.append(off)
        return idx

    def initial_state(self) -> np.ndarray:
        """All vessels at the area matching the initial pressure, zero flow,
        terminal capacitors at the initial pressure."""
        net = self.network
        y0 = np.zeros(self.dim)
        for vid, model in self.models.items():
            off = self.layout[vid]
            A_init = net.initial_area(vid)
            l = net.vessels[vid].length
            if isinstance(model, QinQoutVessel):
                y0[off] = A_init * l / 2.0
                y0[off + 2] = A_init * l / 2.0
            elif isinstance(model, TwoSplitPinQout):
                y0[off] = A_init * l / 2.0
                y0[off + 2] = A_init * l / 2.0
            else:  # PinPout
                y0[off] = A_init * l
        for vid, idx in self.wk_index.items():
            y0[idx] = net.initial_pressure
        return y0

    def _vessel_inputs(self, t: float, y):
        """Junction and terminal coupling: per-vessel (inlet, outlet) input
        values and the terminal capacitor derivatives."""
        d, q_in, p_if, q_if, t_out = self._evaluate(
            t, np.asarray(y, dtype=float).tolist())
        inputs: dict[str, list] = {vid: [None, None] for vid in self.models}
        inputs[self.network.root][0] = q_in
        for j, junction in enumerate(self._junctions):
            inputs[junction.parent][1] = q_if[j]
            for daughter in junction.daughters:
                inputs[daughter][0] = p_if[j]
        for k, vid in enumerate(self._terminals):
            inputs[vid][1] = t_out[k]
        dwk = {vid: d[idx] for vid, idx in self.wk_index.items()}
        return inputs, dwk

    def rhs(self, t: float, y):
        """dy/dt at (t, y): a list for a list of floats, else an array."""
        if isinstance(y, list):
            return self._evaluate(t, y)[0]
        return np.array(self._evaluate(t, y.tolist())[0])

    def boundary_flows(self, t: float, y):
        """(inflow at the root, per-leaf outflow into the terminals);
        used for mass-balance verification."""
        inputs, _ = self._vessel_inputs(t, y)
        outflows = {}
        for vid in self.network.terminals:
            model = self.models[vid]
            off = self.layout[vid]
            if isinstance(model, PinPoutVessel):
                outflows[vid] = y[off + 2]
            else:
                outflows[vid] = inputs[vid][1]
        return inputs[self.network.root][0], outflows

    def observe(self, Y: np.ndarray) -> dict[str, dict[str, np.ndarray]]:
        """Per-vessel sampled (P, Q, A): volume-weighted mean pressure,
        mid-vessel interface flow and mean area, from sampled states Y with
        shape (n_samples, dim)."""
        out = {}
        mode = self.mode
        for vid, model in self.models.items():
            off = self.layout[vid]
            l = self.network.vessels[vid].length
            if isinstance(model, QinQoutVessel):
                V, Q, Vd = Y[:, off], Y[:, off + 1], Y[:, off + 2]
                P = model.half.pressure_array(V, mode)
                Pd = model.half.pressure_array(Vd, mode)
                P_mean = (V * P + Vd * Pd) / (V + Vd)
                A = (V + Vd) / l
            elif isinstance(model, TwoSplitPinQout):
                V1, V2 = Y[:, off], Y[:, off + 2]
                P1 = model.first.comp.pressure_array(V1, mode)
                P2 = model.second.comp.pressure_array(V2, mode)
                P_mean = (V1 * P1 + V2 * P2) / (V1 + V2)
                Q = Y[:, off + 3]
                A = (V1 + V2) / l
            else:  # PinPout: the capacitor node sits mid-vessel between the
                # proximal and distal flows, so their mean stands in for the
                # midpoint flow
                V = Y[:, off]
                Q = 0.5 * (Y[:, off + 1] + Y[:, off + 2])
                P_mean = model.comp.pressure_array(V, mode)
                A = V / l
            out[vid] = {"P": np.asarray(P_mean), "Q": np.asarray(Q),
                        "A": np.asarray(A)}
        return out


def assemble_network(network: Network, mode: ModelMode,
                     inflow: WaveformSeries) -> NetworkModel0D:
    """Build the global 0D ODE system for a network."""
    return NetworkModel0D(network, mode, inflow)


# ---------------------------------------------------------------------------
# Time integration
# ---------------------------------------------------------------------------

@dataclass
class Integration:
    """Sampled trajectory of an ODE integration plus stepping-loop timing."""

    t: np.ndarray
    y: np.ndarray  # (n_samples, dim)
    cpu_seconds: float
    n_steps: int


def rk4_integrate(rhs, y0, dt: float, t_end: float,
                  sample_interval: float | None = None) -> Integration:
    """Classical fourth-order Runge-Kutta with fixed step.

    ``y0`` is an array, or a list of floats: then ``rhs`` maps (t, list) to
    a list and the stages are combined on Python floats, by the same
    operations element by element. For the few dozen states of a vessel
    network that is faster than a numpy call per stage. Samples the state
    every ``sample_interval`` (rounded to a whole number of steps; every
    step if None). The reported CPU time covers only the stepping loop.
    """
    if dt <= 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    n_steps = int(round(t_end / dt))
    if sample_interval is None:
        stride = 1
    else:
        stride = max(1, int(round(sample_interval / dt)))
    if isinstance(y0, list):
        steps, y = _rk4_list_steps, [float(v) for v in y0]
    else:
        steps, y = _rk4_array_steps, np.asarray(y0, dtype=float).copy()
    start = time.perf_counter()
    times, samples = steps(rhs, y, dt, n_steps, stride)
    cpu = time.perf_counter() - start
    return Integration(t=np.array(times), y=samples.reshape(len(times), -1),
                       cpu_seconds=cpu, n_steps=n_steps)


def _rk4_array_steps(rhs, y, dt, n_steps, stride):
    times, samples = [0.0], [y]
    half = 0.5 * dt
    sixth = dt / 6.0
    t = 0.0
    for step in range(1, n_steps + 1):
        k1 = rhs(t, y)
        k2 = rhs(t + half, y + half * k1)
        k3 = rhs(t + half, y + half * k2)
        k4 = rhs(t + dt, y + dt * k3)
        # a new array each step, never written in place, so samples keep it
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        t = step * dt
        if step % stride == 0 or step == n_steps:
            if not np.isfinite(y).all():
                raise ModelError(f"non-finite state at t = {t:.6g} s")
            times.append(t)
            samples.append(y)
    return times, np.array(samples)


def _rk4_list_steps(rhs, y, dt, n_steps, stride):
    # the samples go into one flat buffer of doubles: a list per sample
    # would hold every value as a float object, three times the memory
    times, samples = [0.0], array("d", y)
    half = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite
    t = 0.0
    for step in range(1, n_steps + 1):
        k1 = rhs(t, y)
        k2 = rhs(t + half, [a + half * b for a, b in zip(y, k1)])
        k3 = rhs(t + half, [a + half * b for a, b in zip(y, k2)])
        k4 = rhs(t + dt, [a + dt * b for a, b in zip(y, k3)])
        y = [a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        t = step * dt
        if step % stride == 0 or step == n_steps:
            if not all(map(isfinite, y)):
                raise ModelError(f"non-finite state at t = {t:.6g} s")
            times.append(t)
            samples.extend(y)
    return times, np.frombuffer(samples)


@dataclass
class RunResult:
    """Sampled per-vessel midpoint series of a network run."""

    t: np.ndarray
    vessels: dict[str, dict[str, np.ndarray]]
    cpu_seconds: float
    seconds_per_cycle: float


def run_0d(network: Network, inflow: WaveformSeries, mode: ModelMode,
           dt: float = 1e-3, t_end: float = 29.7, T0: float = 1.1,
           sample_interval: float = 1e-3) -> RunResult:
    """Advance the assembled 0D network and return per-vessel series."""
    model = assemble_network(network, mode, inflow)
    integ = rk4_integrate(model.rhs, model.initial_state().tolist(), dt, t_end,
                          sample_interval)
    vessels = model.observe(integ.y)
    cycles = t_end / T0
    return RunResult(t=integ.t, vessels=vessels, cpu_seconds=integ.cpu_seconds,
                     seconds_per_cycle=integ.cpu_seconds / cycles)
