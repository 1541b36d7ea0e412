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
order. From that plan the model writes the network pass as straight-line
Python source, each state a local and each constant a literal, and
compiles it on first use (never at assembly): ``rhs`` runs one pass, and
``run_0d`` advances with one compiled function per RK4 step that inlines
the four passes and their combination. Compiled code is cached by its
source text (``_compiled``), so models of one network and mode share one
code object and each binds its own inflow. The generated statements are
those of the compartment laws (``_Compartment.pressure_law`` and
``_Compartment.flow_law``), operation for operation; the per-vessel
classes call the laws themselves and remain the single-vessel API and the
tests' reference.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

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


def _at(vid: str | None, part: str | None, t: float | None) -> str:
    """Where and when a network pass failed: the vessel, the compartment
    and the time of the pass; nothing for a lone compartment."""
    return "" if vid is None else f" in vessel {vid!r} ({part}) at t = {t:.6g} s"


def _volume_collapse(V: float, vid=None, part=None, t=None) -> CollapseError:
    return CollapseError(f"compartment volume became non-positive{_at(vid, part, t)}: {V}")


def _area_collapse(A_hat: float, vid=None, part=None, t=None) -> CollapseError:
    return CollapseError(f"mean area became non-positive{_at(vid, part, t)}: {A_hat}")


class _Compartment:
    """A lumped piece of a vessel: ``fraction`` of its length, with the
    reference volume and constants scaled accordingly.

    ``consts`` holds (V0, K, m, n, P0 + p_ext, C0, R0, L0, rho k_R l, rho l).
    The per-vessel classes evaluate a compartment's pressure, resistance
    and inductance with the two static laws below; the network pass
    (``_PassSource``) writes out their statements, and a change to a law
    must be made in both.
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
            raise _volume_collapse(V)
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
            raise _area_collapse(A_hat)
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

@lru_cache(maxsize=16)
def _compiled(source: str, filename: str):
    """Code object of the generated module ``source``, compiled once per
    process. The parser's memory stays in the C heap after ``compile``
    returns, so a model built again (every round of a sweep, a second run
    of one network) must not compile its source again; the code holds no
    per-model value, which its namespace binds at ``exec``."""
    return compile(source, filename, "exec")


def _lit(v) -> str:
    """Source text of a value: a local name, or a float as a literal."""
    if isinstance(v, str):
        return v
    v = float(v)
    if math.isfinite(v):
        text = repr(v)
    else:
        text = "_nan" if v != v else ("-_inf" if v < 0.0 else "_inf")
    return f"({text})" if text.startswith("-") else text


#: the compartments a collapse error names: a half of a two-compartment
#: vessel, or a whole vessel (a leaf, or the root's mean area)
_PROXIMAL, _DISTAL, _WHOLE = "proximal half", "distal half", "whole vessel"


class _PassSource:
    """Python source of the network pass, written from the evaluation plan
    of a ``NetworkModel0D``: each state a local, each compartment constant a
    literal, and the mode's flags resolved while writing. The statements
    are those of the compartment laws and the terminal couplings, operation
    for operation and in plan order, so the compiled pass gives the same
    bits as the laws and raises the same errors in the same order.

    While writing, a value is a local name (str) or a constant (float); a
    product of two constants is folded, as Python would fold it. A collapse
    error names the vessel and the compartment as literals and the time of
    the pass as the stage's time expression; that text runs only when the
    pass fails.
    """

    def __init__(self, model: "NetworkModel0D"):
        self.model = model
        self.vid_at = {off: vid for vid, off in model.layout.items()}
        self.dim = model.dim
        self.nl_p, self.nl_r, self.nl_l = model.mode.flags
        self.p_if = [f"pif_{j}" for j in range(len(model._junctions))]
        self.q_if = [f"qif_{j}" for j in range(len(model._junctions))]
        self.t_out = [f"tout_{k}" for k in range(len(model._terminals))]

    def names(self, prefix: str) -> list[str]:
        return [f"{prefix}{i}" for i in range(self.dim)]

    def evaluator(self) -> str:
        """``evaluate(t, s)``: one pass, returning the derivative list, the
        root inflow and the junction and terminal values."""
        s, d = self.names("s"), self.names("d")
        return "\n".join([
            "def evaluate(t, s):",
            f"    {', '.join(s)}, = s",
            "    q_in = float(inflow(t))",
            *(f"    {line}" for line in self.stage(s, d, "t")),
            f"    return [{', '.join(d)}], q_in, [{', '.join(self.p_if)}], "
            f"[{', '.join(self.q_if)}], [{', '.join(self.t_out)}]", ""])

    def step_factory(self) -> str:
        """``make_step(dt)``, which returns ``step(t, y) -> y_next``: the
        four passes of a classical RK4 step and their combination, inlined.
        The inflow is evaluated once for both passes at t + dt/2."""
        y, u = self.names("y"), self.names("u")
        k = [self.names(prefix) for prefix in "abce"]
        body = [f"{', '.join(y)}, = y", "q_in = float(inflow(t))",
                *self.stage(y, k[0], "t")]
        for i, (h, t_stage) in enumerate((("half", "t + half"), ("half", "t + half"),
                                          ("dt", "t + dt"))):
            body += [f"{a} = {b} + {h} * {c}" for a, b, c in zip(u, y, k[i])]
            if i != 1:
                body.append(f"q_in = float(inflow({t_stage}))")
            body += self.stage(u, k[i + 1], t_stage)
        new = (f"{b} + sixth * ({k1} + 2.0 * ({k2} + {k3}) + {k4})"
               for b, k1, k2, k3, k4 in zip(y, *k))
        body.append(f"return [{', '.join(new)}]")
        return "\n".join([
            "def make_step(dt):",
            "    half = 0.5 * dt",
            "    sixth = dt / 6.0",
            "    def step(t, y):",
            *(f"        {line}" for line in body),
            "    return step", ""])

    # -- one pass --------------------------------------------------------

    def pressure(self, out: list, name: str, V: str, c: tuple, where: str) -> str:
        """``_Compartment.pressure_law``; ``where`` is the source of the
        location arguments of its collapse error."""
        V0, K, m, n, P_ref, C0 = c[:6]
        out.append(f"if {V} <= 0.0: raise _volume_collapse({V}, {where})")
        if self.nl_p:
            x = f"({V} / {_lit(V0)})"
            if m != 0.0 and n != 0.0:
                out.append(f"x = {x}")
                x = "x"
            # x ** 0.0 is 1.0 for every x, NaN included
            xm, xn = ("1.0" if e == 0.0 else f"{x} ** {_lit(e)}" for e in (m, n))
            out.append(f"{name} = {_lit(K)} * ({xm} - {xn}) + {_lit(P_ref)}")
        else:
            out.append(f"{name} = {_lit(P_ref)} + ({V} - {_lit(V0)}) / {_lit(C0)}")
        return name

    @staticmethod
    def flow(out: list, tag: str, A_hat: str, c: tuple, nl_r: bool, nl_l: bool,
             where: str):
        """``_Compartment.flow_law``: (R, L) at the mean area ``A_hat``."""
        R0, L0, rho_kR_l, rho_l = c[6:]
        R, L = float(R0), float(L0)
        if nl_r or nl_l:
            A = f"A_{tag}"
            out.append(f"{A} = {A_hat}")
            out.append(f"if {A} <= 0.0: raise _area_collapse({A}, {where})")
            if nl_r:
                R = f"R_{tag}"
                out.append(f"{R} = {_lit(rho_kR_l)} / ({A} * {A})")
            if nl_l:
                L = f"L_{tag}"
                out.append(f"{L} = {_lit(rho_l)} / {A}")
        return R, L

    @staticmethod
    def mul(out: list, a, b, name: str):
        if not isinstance(a, str) and not isinstance(b, str):
            return float(a) * float(b)
        out.append(f"{name} = {_lit(a)} * {_lit(b)}")
        return name

    def stage(self, s: list[str], d: list[str], t: str) -> list[str]:
        """Statements of one pass over the states named ``s`` at the time
        expression ``t``, with the root inflow in ``q_in``, in plan order
        (root, interior vessels, leaves): they assign the derivative of
        state i to ``d[i]``, the junction values to ``p_if``/``q_if`` and
        the terminal values to ``t_out``."""
        model, out = self.model, []
        nl_r, nl_l = self.nl_r, self.nl_l
        p_if, q_if, t_out = self.p_if, self.q_if, self.t_out
        pressure, flow, mul = self.pressure, self.flow, self.mul

        def at(o, part):
            """Location arguments of a collapse in vessel at offset ``o``."""
            return f"{self.vid_at[o]!r}, {part!r}, {t}"

        def inflows(name, flows):
            out.append(f"{name} = 0.0" + "".join(f" + {s[i]}" for i in flows))

        o, hc, hl, fc, fl, r_frac, rd_frac, j, flows, term, wk = model._root
        V, Q, Vd = s[o:o + 3]
        P = pressure(out, f"P_{o}", V, hc, at(o, _PROXIMAL))
        Pd = pressure(out, f"P_{o + 2}", Vd, hc, at(o, _DISTAL))
        R, L = flow(out, f"{o}", f"({V} + {Vd}) / {_lit(fl)}", fc, nl_r, nl_l,
                    at(o, _WHOLE))
        R = mul(out, r_frac, R, f"Rr_{o}")
        # the distal end resistance sits at the distal half's mean area
        R_d = flow(out, f"{o + 2}", f"{Vd} / {_lit(hl)}", fc, nl_r, False,
                   at(o, _DISTAL))[0]
        R_d = mul(out, rd_frac, R_d, f"Rd_{o}")
        if term is None:
            q_out = q_if[j]
            inflows(q_out, flows)
            out.append(f"{p_if[j]} = {Pd} - {_lit(R_d)} * {q_out}")
        else:  # single-vessel network: ``terminal_flow_coupling``
            q_out = t_out[j]
            rcr = isinstance(term, Windkessel)
            out.append(f"Rt_{o} = {_lit(R_d)} + {_lit(term.R1 if rcr else term.R)}")
            out.append(f"if Rt_{o} <= 0.0: raise ConfigurationError("
                       f"'terminal coupling has zero total resistance')")
            if rcr:
                out += [f"{q_out} = ({Pd} - {s[wk]}) / Rt_{o}",
                        f"{d[wk]} = ({q_out} - ({s[wk]} - {_lit(term.P_v)}) / "
                        f"{_lit(term.R2)}) / {_lit(term.C)}"]
            else:
                out.append(f"{q_out} = ({Pd} - {_lit(term.P_v)}) / Rt_{o}")
        out += [f"{d[o]} = q_in - {Q}",
                f"{d[o + 1]} = ({P} - {_lit(R)} * {Q} - {Pd}) / {_lit(L)}",
                f"{d[o + 2]} = {Q} - {q_out}"]

        for o, c, l, j_in, j, flows in model._interior:
            V1, Q1, V2, Q2 = s[o:o + 4]
            P1 = pressure(out, f"P_{o}", V1, c, at(o, _PROXIMAL))
            R1, L1 = flow(out, f"{o}", f"{V1} / {_lit(l)}", c, nl_r, nl_l,
                          at(o, _PROXIMAL))
            P2 = pressure(out, f"P_{o + 2}", V2, c, at(o, _DISTAL))
            R2, L2 = flow(out, f"{o + 2}", f"{V2} / {_lit(l)}", c, nl_r, nl_l,
                          at(o, _DISTAL))
            inflows(q_if[j], flows)
            hR2 = mul(out, 0.5, R2, f"hR_{o + 2}")
            out.append(f"{p_if[j]} = {P2} - {_lit(hR2)} * {q_if[j]}")
            # the halves meet at the first half's distal-split pressure
            hR1 = mul(out, 0.5, R1, f"hR_{o}")
            out += [f"pm_{o} = {P1} - {_lit(hR1)} * {Q2}",
                    f"{d[o]} = {Q1} - {Q2}",
                    f"{d[o + 1]} = ({p_if[j_in]} - {_lit(R1)} * {Q1} - {P1}) / {_lit(L1)}",
                    f"{d[o + 2]} = {Q2} - {q_if[j]}",
                    f"{d[o + 3]} = (pm_{o} - {_lit(R2)} * {Q2} - {P2}) / {_lit(L2)}"]

        for o, c, l, j_in, k, term, wk in model._leaves:
            V, Q, Qd = s[o:o + 3]
            P = pressure(out, f"P_{o}", V, c, at(o, _WHOLE))
            R, L = flow(out, f"{o}", f"{V} / {_lit(l)}", c, nl_r, nl_l, at(o, _WHOLE))
            Rh = mul(out, 0.5, R, f"hR_{o}")
            Lh = mul(out, 0.5, L, f"hL_{o}")
            # ``terminal_pressure_coupling``
            if isinstance(term, Windkessel):
                out += [f"{t_out[k]} = {s[wk]} + {_lit(term.R1)} * {Qd}",
                        f"{d[wk]} = ({Qd} - ({s[wk]} - {_lit(term.P_v)}) / "
                        f"{_lit(term.R2)}) / {_lit(term.C)}"]
            else:
                out.append(f"{t_out[k]} = {_lit(term.P_v)} + {_lit(term.R)} * {Qd}")
            out += [f"{d[o]} = {Q} - {Qd}",
                    f"{d[o + 1]} = ({p_if[j_in]} - {_lit(Rh)} * {Q} - {P}) / {_lit(Lh)}",
                    f"{d[o + 2]} = ({P} - {_lit(Rh)} * {Qd} - {t_out[k]}) / {_lit(Lh)}"]
        return out


class NetworkModel0D:
    """Global ODE system for a vessel tree.

    Configuration assignment: the root vessel is QinQout (inflow rate
    prescribed), interior vessels are two-split PinQout chains, and leaf
    vessels are PinPout. One capacitor pressure per RCR terminal is appended
    to the state vector.

    Assembly also flattens the network into an evaluation plan: per vessel
    its state offset and compartment constants, junctions numbered in tree
    order (parents before daughters) with the state indices of the flows
    they collect, and per terminal its element and capacitor index. The
    network pass over that plan (``rhs``) and the fused RK4 step
    (``rk4_step``) are generated from it as Python source and compiled the
    first time each is used.
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

    def _compile(self, source: str, name: str):
        namespace = {"inflow": self.inflow, "_inf": math.inf, "_nan": math.nan,
                     "_volume_collapse": _volume_collapse,
                     "_area_collapse": _area_collapse,
                     "ConfigurationError": ConfigurationError}
        exec(_compiled(source, f"<0D network {name}>"), namespace)
        return namespace[name]

    @cached_property
    def _evaluate(self):
        """The network pass, compiled on first use: ``_evaluate(t, s)``
        takes the state as a list and returns the derivative list, the root
        inflow, per junction its interface pressure and the flow its
        daughters draw, and per terminal the value handed back to its
        vessel: the outlet pressure of a PinPout leaf, or the outlet flow
        of a single-vessel network."""
        return self._compile(_PassSource(self).evaluator(), "evaluate")

    @cached_property
    def _make_step(self):
        return self._compile(_PassSource(self).step_factory(), "make_step")

    def rk4_step(self, dt: float):
        """``step(t, y) -> y_next``: one classical RK4 step of the network
        on lists of floats, the four passes and their combination compiled
        into one function (on first use). Its floating-point operations are
        those of ``rk4_integrate`` on ``self.rhs`` and a list state."""
        return self._make_step(dt)

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
    operations element by element. Samples the state every
    ``sample_interval`` (rounded to a whole number of steps; every step if
    None). The reported CPU time, of this thread, covers only the stepping
    loop. ``run_0d`` runs the same loop with the network's compiled step
    (``NetworkModel0D.rk4_step``), which gives the same bits as this
    function on ``model.rhs`` and a list state.
    """
    if isinstance(y0, list):
        y, step = [float(v) for v in y0], _rk4_list_step(rhs, dt)
    else:
        y, step = np.asarray(y0, dtype=float).copy(), _rk4_array_step(rhs, dt)
    return _sample_steps(step, y, dt, t_end, sample_interval)


def _rk4_array_step(rhs, dt):
    half = 0.5 * dt
    sixth = dt / 6.0

    def step(t, y):
        k1 = rhs(t, y)
        k2 = rhs(t + half, y + half * k1)
        k3 = rhs(t + half, y + half * k2)
        k4 = rhs(t + dt, y + dt * k3)
        return y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return step


def _rk4_list_step(rhs, dt):
    half = 0.5 * dt
    sixth = dt / 6.0

    def step(t, y):
        k1 = rhs(t, y)
        k2 = rhs(t + half, [a + half * b for a, b in zip(y, k1)])
        k3 = rhs(t + half, [a + half * b for a, b in zip(y, k2)])
        k4 = rhs(t + dt, [a + dt * b for a, b in zip(y, k3)])
        return [a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return step


def _sample_steps(step, y, dt: float, t_end: float,
                  sample_interval: float | None) -> Integration:
    """Advance ``y`` with ``step(t, y) -> y_next`` to ``t_end``, sampling
    every ``sample_interval`` and checking the samples are finite."""
    if dt <= 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    n_steps = int(round(t_end / dt))
    if sample_interval is None:
        stride = 1
    else:
        stride = max(1, int(round(sample_interval / dt)))
    # the samples go into one flat buffer of doubles: a list per sample
    # would hold every value as a float object, three times the memory
    times, samples = [0.0], array("d", y)
    isfinite = math.isfinite
    t = 0.0
    start = time.thread_time()
    for n in range(1, n_steps + 1):
        y = step(t, y)
        t = n * dt
        if n % stride == 0 or n == n_steps:
            if not all(map(isfinite, y)):
                raise ModelError(f"non-finite state at t = {t:.6g} s")
            times.append(t)
            samples.extend(y)
    cpu = time.thread_time() - start
    return Integration(t=np.array(times),
                       y=np.frombuffer(samples).reshape(len(times), -1),
                       cpu_seconds=cpu, n_steps=n_steps)


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
    integ = _sample_steps(model.rk4_step(dt), model.initial_state().tolist(),
                          dt, t_end, sample_interval)
    vessels = model.observe(integ.y)
    cycles = t_end / T0
    return RunResult(t=integ.t, vessels=vessels, cpu_seconds=integ.cpu_seconds,
                     seconds_per_cycle=integ.cpu_seconds / cycles)
