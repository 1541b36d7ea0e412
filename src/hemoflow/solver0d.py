"""Lumped-parameter (0D) network models: assembly, generated RK4 run loop.

Each vessel is described by volume/flow states coupled through resistance,
inductance and compliance elements. The configurations are named by which
quantities are prescribed at the inlet and outlet: (P_in, Q_out),
(Q_in, P_out), (P_in, P_out) and (Q_in, Q_out). The nonlinear variants
evaluate R and L at the instantaneous mean area and use the full elastic
tube law for the pressure-volume relation; the linear variants use the
constant reference values R0, L0, C0.

A network is assembled into one global ODE system (root vessel (Q_in,
Q_out), interior vessels as two (P_in, Q_out) halves in series, terminal
vessels (P_in, P_out), plus one capacitor pressure per RCR terminal) and
advanced with classical RK4. Assembly builds the one description of that
system, an evaluation plan of constant tuples, state offsets and
junction/terminal coupling in tree order, straight from the vessel specs.
The layout and the initial state read the plan. From it the model also
writes the network pass as straight-line Python source, each state a local
and each constant a literal, and compiles it on first use (never at
assembly): ``rhs`` runs one pass, and ``run_0d`` runs one compiled
function for the whole run, whose loop keeps the states in locals from
step to step and inlines the four passes of an RK4 step, their combination
and the sampling. The module of that run loop also holds the compartment
pressures on sampled columns, which ``observe`` weighs into per-vessel
series. The inflow at every stage time of the run
(t_n = n dt, t_n + dt/2, t_n + dt) is tabulated before the loop, in three
calls of the waveform on arrays. Compiled code is cached by the plan it
was written from (``_compiled``, ``_plan_key``), so models of one network
and mode neither write nor compile their source again, share one code
object and each bind their own inflow. The compartment laws are written
once, in ``_PassSource``; the tests keep the per-vessel configurations as
classes, composed into the reference network.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CollapseError, ConfigurationError, ModelError
from .netio import Network, WaveformSeries, Windkessel
from .vessel import _compartment


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


def _volume_collapse(V: float, vid: str, part: str, t: float) -> CollapseError:
    return CollapseError(f"compartment volume became non-positive in vessel "
                         f"{vid!r} ({part}) at t = {t:.6g} s: {V}")


def _area_collapse(A_hat: float, vid: str, part: str, t: float) -> CollapseError:
    return CollapseError(f"mean area became non-positive in vessel "
                         f"{vid!r} ({part}) at t = {t:.6g} s: {A_hat}")


# ---------------------------------------------------------------------------
# Network assembly
# ---------------------------------------------------------------------------

#: compiled generated modules by (file name, plan key), oldest first
_code: dict = {}
_CODE_ENTRIES = 16


def _compiled(filename: str, key, write):
    """Code object of the generated module ``filename`` for ``key``,
    compiled once per process; ``write()`` returns its source and runs only
    when the key is not cached. The parser's memory stays in the C heap
    after ``compile`` returns, so a model built again (every round of a
    sweep, a second run of one network) must neither compile nor write its
    source again; the code holds no per-model value, which its namespace
    binds at ``exec``. The cache keeps the latest ``_CODE_ENTRIES``."""
    code = _code.pop((filename, key), None)
    if code is None:
        code = compile(write(), filename, "exec")
        if len(_code) >= _CODE_ENTRIES:
            del _code[next(iter(_code))]
    _code[filename, key] = code
    return code


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
    literal, and the mode's flags resolved while writing. This is where
    the compartment laws (``pressure``, ``flow``) and the junction and
    terminal couplings (``stage``) are written, in plan order; the tests
    compose the per-vessel configurations from the same laws, operation for
    operation, and require the same bits and the same errors.

    While writing, a value is a local name (str) or a constant (float); a
    product of two constants is folded, as Python would fold it. A collapse
    error names the vessel and the compartment as literals and the time of
    the pass as the stage's time expression; that text runs only when the
    pass fails.
    """

    def __init__(self, model: "NetworkModel0D"):
        self.model = model
        self.vid_at = model._vid_at
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
            *(f"    {line}" for line in self.stage(s, d, "t", "q_in")),
            f"    return [{', '.join(d)}], q_in, [{', '.join(self.p_if)}], "
            f"[{', '.join(self.q_if)}], [{', '.join(self.t_out)}]", ""])

    def runner(self) -> str:
        """The run module: ``pressures`` and ``run(y, t0, n, dt, q_t,
        q_half, q_dt, stride, last, times, samples) -> y_end``, classical
        RK4 steps n, n + 1, ... from the state list ``y`` at ``t0 + n * dt``,
        one per entry of the inflow tables, which hold the inflow at each
        step's t, t + dt/2 and t + dt. The states stay locals from step to
        step; each step inlines the four passes and their combination.
        After every ``stride``-th step and after step ``last`` (counted from
        ``t0``) the state is checked to be finite and appended to
        ``samples``, its time to ``times``."""
        y, u = self.names("y"), self.names("u")
        k = [self.names(prefix) for prefix in "abce"]
        state = ", ".join(y)
        body = ["t = t0 + n * dt", "n += 1", *self.stage(y, k[0], "t", "qa")]
        for i, (h, t_stage, q) in enumerate((("half", "t + half", "qh"),
                                             ("half", "t + half", "qh"),
                                             ("dt", "t + dt", "qe"))):
            body += [f"{a} = {b} + {h} * {c}" for a, b, c in zip(u, y, k[i])]
            body += self.stage(u, k[i + 1], t_stage, q)
        body += [f"{b} = {b} + sixth * ({k1} + 2.0 * ({k2} + {k3}) + {k4})"
                 for b, k1, k2, k3, k4 in zip(y, *k)]
        # a sum is finite only if every term is: the exact test runs only
        # on a sum that is not
        body += ["if n % stride == 0 or n == last:",
                 "    t = t0 + n * dt",
                 f"    s = ({state},)",
                 "    if not isfinite(sum(s)) and not all(map(isfinite, s)):",
                 "        raise ModelError(f'non-finite state at t = {t:.6g} s')",
                 "    times.append(t)",
                 "    samples.extend(s)"]
        return "\n".join([
            "def run(y, t0, n, dt, q_t, q_half, q_dt, stride, last, times, samples):",
            "    half = 0.5 * dt",
            "    sixth = dt / 6.0",
            f"    {state}, = y",
            "    for qa, qh, qe in zip(q_t, q_half, q_dt):",
            *(f"        {line}" for line in body),
            f"    return [{state}]", "", self.pressures()])

    def pressures(self) -> str:
        """``pressures(Y)``: a generator of the pressure of each compartment
        at the sampled volumes, the columns ``Y[:, o]`` of sampled states,
        in plan order: the root's two halves, each interior vessel's two
        halves, each leaf. Each is computed when it is drawn, so a caller
        holds one at a time. The columns are not tested for collapse."""
        model, out = self.model, []
        o, c = model._root[:2]
        volumes = [(o, c), (o + 2, c)]
        for o, c, *_ in model._interior:
            volumes += [(o, c), (o + 2, c)]
        volumes += [(o, c) for o, c, *_ in model._leaves]
        for o, c in volumes:
            P = self.pressure(out, "P", f"Y[:, {o}]", c)
            out.append(f"yield {P}")
        return "\n".join(["def pressures(Y):", *(f"    {line}" for line in out), ""])

    # -- one pass --------------------------------------------------------

    def pressure(self, out: list, name: str, V: str, c: tuple,
                 where: str | None = None) -> str:
        """Pressure at volume ``V``: the elastic tube law at the mean area
        V/l, or its linearisation with the reference compliance C0.
        ``where`` is the source of the location arguments of its collapse
        error; without it, ``V`` is not tested for collapse."""
        V0, K, m, n, P_ref, C0 = c[:6]
        if where is not None:
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
        """(R, L) at the mean area ``A_hat``, rho k_R l / A_hat^2 and
        rho l / A_hat, or the reference values R0 and L0."""
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

    def stage(self, s: list[str], d: list[str], t: str, q_in: str) -> list[str]:
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
        else:  # single-vessel network: flow-typed terminal coupling
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
        out += [f"{d[o]} = {q_in} - {Q}",
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
            # pressure-typed terminal coupling: the distal flow enters it
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


#: steps of the 0D run loop per block of inflow tables: 384 KiB of tables
#: whatever the length of the run
_BLOCK_STEPS = 1 << 14


def _inflow_tables(inflow, first: int, stop: int, dt: float) -> list[array]:
    """The inflow at the stage times t_n = n dt, t_n + dt/2 and t_n + dt of
    steps ``first`` <= n < ``stop``, one call on an array each.
    ``np.arange(first, stop) * dt`` is ``n * dt`` as Python computes it,
    and ``WaveformSeries`` gives the same bits on an array as on a float."""
    t = np.arange(first, stop) * dt
    return [array("d", np.broadcast_to(np.asarray(inflow(ts), dtype=float),
                                       t.shape).tobytes())
            for ts in (t, t + 0.5 * dt, t + dt)]


#: the root's resistance split R_p : R : R_d = 1/4 : 1/2 : 1/4 of its total
#: resistance; R_p sits at the inlet, whose flow is prescribed, and enters
#: no derivative
_ROOT_R_FRAC, _ROOT_RD_FRAC = 0.5, 0.25


class NetworkModel0D:
    """Global ODE system for a vessel tree, described by one evaluation
    plan built at assembly.

    Configuration assignment: the root vessel is (Q_in, Q_out), states
    (V, Q, V_d) over two half-length compartments; each interior vessel is
    two (P_in, Q_out) halves in series, states (V1, Q1, V2, Q2); each leaf
    is (P_in, P_out), states (V, Q, Q_d). One capacitor pressure per RCR
    terminal follows the vessels in the state vector.

    The plan holds per vessel its state offset and compartment constants
    (``_root``, ``_interior``, ``_leaves``), the junctions numbered in tree
    order (parents before daughters) with the state indices of the flows
    they collect, and per terminal its element and capacitor index. The
    network pass over that plan (``rhs``), and the RK4 run loop
    (``integrate``) with the compartment pressures that ``observe`` weighs,
    are generated from it as Python source and compiled the first time each
    is used; the initial state reads it too.
    """

    def __init__(self, network: Network, mode: ModelMode,
                 inflow: WaveformSeries):
        self.network = network
        self.mode = mode
        self.inflow = inflow
        self.layout: dict[str, int] = {}
        self.wk_index: dict[str, int] = {}

        has_daughters = {j.parent for j in network.junctions}
        offset = 0
        for vid in network.vessels:
            self.layout[vid] = offset
            offset += 4 if vid != network.root and vid in has_daughters else 3
        for vid, term in network.terminals.items():
            if isinstance(term, Windkessel):
                self.wk_index[vid] = offset
                offset += 1
        self.dim = offset
        self._build_plan()

    def _build_plan(self) -> None:
        net, layout = self.network, self.layout
        by_parent = {j.parent: j for j in net.junctions}
        #: junctions and terminal vessels in plan order
        self._junctions = junctions = []
        self._terminals = terminals = []
        self._interior = interior = []
        self._leaves = leaves = []
        j_in: dict[str, int] = {}
        order = [net.root]
        for vid in order:  # breadth-first: parents before daughters
            spec, off = net.vessels[vid], layout[vid]
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
            if vid == net.root:  # two halves, R and L of the whole vessel
                hl, hc = _compartment(spec, 0.5)
                fl, fc = _compartment(spec, 1.0)
                self._root = (off, hc, hl, fc, fl, _ROOT_R_FRAC, _ROOT_RD_FRAC,
                              *outlet)
            elif junction is not None:  # interior: two equal halves
                l, c = _compartment(spec, 0.5)
                interior.append((off, c, l, j_in[vid], *outlet[:2]))
            else:  # leaf: one compartment
                l, c = _compartment(spec)
                k, _, term, wk = outlet
                leaves.append((off, c, l, j_in[vid], k, term, wk))

    @cached_property
    def _vid_at(self) -> dict[int, str]:
        """The vessel at each state offset."""
        return {off: vid for vid, off in self.layout.items()}

    @cached_property
    def _plan_key(self) -> str:
        """What the generated source is written from, as text: the mode's
        flags, the layout and the plan tuples, each float as its ``repr``
        (so that -0.0 and 0.0 differ, as they do in the source)."""
        return repr((self.mode.flags, self.dim, tuple(self.layout.items()),
                     self._root, tuple(self._interior), tuple(self._leaves)))

    def _compile(self, name: str, write):
        namespace = {"inflow": self.inflow, "_inf": math.inf, "_nan": math.nan,
                     "_volume_collapse": _volume_collapse,
                     "_area_collapse": _area_collapse,
                     "ConfigurationError": ConfigurationError,
                     "ModelError": ModelError, "isfinite": math.isfinite}
        exec(_compiled(f"<0D network {name}>", self._plan_key,
                       lambda: write(_PassSource(self))), namespace)
        return namespace[name]

    @cached_property
    def _evaluate(self):
        """The network pass, compiled on first use: ``_evaluate(t, s)``
        takes the state as a list and returns the derivative list, the root
        inflow, per junction its interface pressure and the flow its
        daughters draw, and per terminal the value handed back to its
        vessel: the outlet pressure of a PinPout leaf, or the outlet flow
        of a single-vessel network."""
        return self._compile("evaluate", _PassSource.evaluator)

    @cached_property
    def _run(self):
        """The RK4 sampling loop of the run module (``_PassSource.runner``),
        compiled on first use; ``pressures`` is in its globals."""
        return self._compile("run", _PassSource.runner)

    def integrate(self, dt: float, t_end: float,
                  sample_interval: float | None = None) -> Integration:
        """RK4 from the initial state to ``t_end`` with the compiled run
        loop, sampled as ``rk4_integrate`` samples and with its bits on
        ``self.rhs``. The inflow is tabulated at every stage time, three
        calls on arrays for each block of ``_BLOCK_STEPS`` steps; the loop
        runs block by block, carrying the state and the step count. The
        reported CPU time covers the tables and the loop."""
        n_steps, stride = _step_count(dt, t_end, sample_interval)
        run = self._run  # compiled, if it must be, before the clock starts
        y = self.initial_state().tolist()
        times, samples = [0.0], array("d", y)
        start = time.thread_time()
        for first in range(0, n_steps, _BLOCK_STEPS):
            stop = min(first + _BLOCK_STEPS, n_steps)
            y = run(y, 0.0, first, dt, *_inflow_tables(self.inflow, first, stop, dt),
                    stride, n_steps, times, samples)
        cpu = time.thread_time() - start
        return Integration(t=np.array(times),
                           y=np.frombuffer(samples).reshape(len(times), -1),
                           cpu_seconds=cpu)

    def initial_state(self) -> np.ndarray:
        """All vessels at the area matching the initial pressure, zero flow,
        terminal capacitors at the initial pressure."""
        net, vid_at = self.network, self._vid_at
        y0 = np.zeros(self.dim)
        # the vessels of two compartments: the root and the interior ones
        for o in (self._root[0], *(v[0] for v in self._interior)):
            vid = vid_at[o]
            y0[o] = y0[o + 2] = net.initial_area(vid) * net.vessels[vid].length / 2.0
        for o, *_ in self._leaves:
            vid = vid_at[o]
            y0[o] = net.initial_area(vid) * net.vessels[vid].length
        for idx in self.wk_index.values():
            y0[idx] = net.initial_pressure
        return y0

    def rhs(self, t: float, y) -> np.ndarray:
        """dy/dt at (t, y), an array for any sequence of floats."""
        return np.array(self._evaluate(t, np.asarray(y, dtype=float).tolist())[0])

    def observe(self, Y: np.ndarray) -> dict[str, dict[str, np.ndarray]]:
        """Per-vessel sampled (P, Q, A): volume-weighted mean pressure,
        mid-vessel interface flow and mean area, from sampled states Y with
        shape (n_samples, dim). The compartment pressures are those of the
        run module's ``pressures``, in plan order."""
        vessels, vid_at = self.network.vessels, self._vid_at
        pressures = self._run.__globals__["pressures"](Y)
        out = {}

        def halves(o, Q):
            V, Vd = Y[:, o], Y[:, o + 2]
            P, Pd = next(pressures), next(pressures)
            out[vid_at[o]] = {"P": (V * P + Vd * Pd) / (V + Vd), "Q": Q,
                              "A": (V + Vd) / vessels[vid_at[o]].length}

        o = self._root[0]
        halves(o, Y[:, o + 1])
        for o, *_ in self._interior:  # the flow into the second half
            halves(o, Y[:, o + 3])
        for o, *_ in self._leaves:
            # the capacitor node sits mid-vessel between the proximal and
            # distal flows, so their mean stands in for the midpoint flow
            V = Y[:, o]
            out[vid_at[o]] = {"P": next(pressures),
                              "Q": 0.5 * (Y[:, o + 1] + Y[:, o + 2]),
                              "A": V / vessels[vid_at[o]].length}
        return {vid: out[vid] for vid in self.layout}


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


def _step_count(dt: float, t_end: float,
                sample_interval: float | None) -> tuple[int, int]:
    """(steps to ``t_end``, steps between samples) of a fixed-step run.
    Raises ValueError unless ``dt`` and a given ``sample_interval`` are
    positive and finite and the run takes at least one step."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"time step must be positive and finite, got dt = {dt} "
                         f"(t_end = {t_end})")
    steps = t_end / dt
    # round() takes 0.5 to no step, and fails on an infinite or NaN count
    if not 0.5 < steps < math.inf:
        raise ValueError(f"time step dt = {dt} takes no finite, positive number "
                         f"of steps to t_end = {t_end}")
    n_steps = int(round(steps))
    if sample_interval is None:
        return n_steps, 1
    if not 0.0 < sample_interval < math.inf:
        raise ValueError(f"sample_interval must be positive and finite, "
                         f"got {sample_interval}")
    return n_steps, max(1, int(round(sample_interval / dt)))


def rk4_integrate(rhs, y0, dt: float, t_end: float,
                  sample_interval: float | None = None) -> Integration:
    """Classical fourth-order Runge-Kutta with fixed step, on arrays.

    ``y0`` is any sequence of floats, taken as an array; ``rhs`` maps
    (t, array) to an array. Samples the state every ``sample_interval``
    (rounded to a whole number of steps; every step if None) and after the
    last step, and checks the samples are finite. The reported CPU time, of
    this thread, covers only the stepping loop. This is the generic
    integrator and the reference of the 0D network's generated run loop
    (``NetworkModel0D.integrate``, behind ``run_0d``), which gives the same
    bits as this function on ``model.rhs``.
    """
    n_steps, stride = _step_count(dt, t_end, sample_interval)
    y, step = np.array(y0, dtype=float), _rk4_array_step(rhs, dt)
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
                       cpu_seconds=cpu)


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


def check_run_times(t_end: float, T0: float, sample_interval: float) -> None:
    """Raise ValueError unless the end time, the cardiac period and the
    sample interval of a run are positive and finite."""
    for name, value in (("t_end", t_end), ("T0", T0),
                        ("sample_interval", sample_interval)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


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
    """Advance the assembled 0D network with its generated run loop
    (``NetworkModel0D.integrate``) and return per-vessel series
    (``NetworkModel0D.observe``). The inflow is evaluated on arrays, once
    per stage time of the run; the series are those of ``rk4_integrate`` on
    ``model.rhs``."""
    check_run_times(t_end, T0, sample_interval)
    model = assemble_network(network, mode, inflow)
    integ = model.integrate(dt, t_end, sample_interval)
    vessels = model.observe(integ.y)
    cycles = t_end / T0
    return RunResult(t=integ.t, vessels=vessels, cpu_seconds=integ.cpu_seconds,
                     seconds_per_cycle=integ.cpu_seconds / cycles)
