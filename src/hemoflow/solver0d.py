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
and the sampling. A third generated module computes the compartment
pressures on sampled columns, which ``observe`` weighs into per-vessel
series. The pass takes the root inflow as an argument, which ``rhs``
evaluates at its time; the inflow at every stage time of the run
(t_n = n dt, t_n + dt/2, t_n + dt) is tabulated before the loop, in three
calls of the waveform on arrays. Identical sibling subtrees (same shape,
plan constants, terminals and initial states; ``NetworkModel0D._copies``)
carry equal states on every RK4 step, so the loop computes the first of
them only and names its locals for the others; the pass behind ``rhs``
and the pressures compute every state. So each generated function
depends on the plan and the copies map alone, and is cached by them
(``_compiled``, ``_plan_key``): models of one network and mode neither
write nor compile their source again, and share the function objects.
The compartment laws are written once, in ``_PassSource``; the tests keep
the per-vessel configurations as classes, composed into the reference
network.

The linear mode (every flag off) does not run that loop: its pass is
affine and time-invariant, dy/dt = A y + b q_in + c, with (A, b, c) read
off the compiled pass by ``NetworkModel0D.linearisation``. So its RK4 step
is one affine map of the state and the step's inflow, which ``_StepMap``
builds from (A, b, c) and the generic RK4 step, sharing identical
subtrees through the same copies map. It runs groups of K steps: one
matrix-vector product carries the state from a group's start to the
next, and the steps inside the groups of a block are advanced together,
one product call per step of a group. The stage volumes of the collapse
test are computed only for the steps that one bound per block does not
show positive, none on a healthy run. Its states agree with
``rk4_integrate`` on ``rhs`` within round-off, not bit for bit; its
times, failures and messages are those of the loop. Before stepping, it
refuses a ``dt`` outside RK4's stability region for the eigenvalues of
the pass.
"""

from __future__ import annotations

import math
import struct
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


def _ratio_collapse(V: float, vid: str, part: str, t: float) -> CollapseError:
    return CollapseError(f"volume ratio V / V0 underflowed to 0.0 in vessel "
                         f"{vid!r} ({part}) at t = {t:.6g} s: {V}")


def _collapse(V: float, A_hat: float, vid: str, part: str, t: float) -> CollapseError:
    """The collapse of a compartment whose mean area ``A_hat`` = V / l is
    not positive: of its volume ``V`` if that is not positive either, else
    of its area."""
    if V <= 0.0:
        return _volume_collapse(V, vid, part, t)
    return _area_collapse(A_hat, vid, part, t)


# ---------------------------------------------------------------------------
# Network assembly
# ---------------------------------------------------------------------------

#: generated functions by (name, plan key), oldest first
_code: dict = {}
_CODE_ENTRIES = 16

#: the names a generated module reads besides its own
_GENERATED_GLOBALS = {"_inf": math.inf, "_nan": math.nan,
                      "_volume_collapse": _volume_collapse,
                      "_area_collapse": _area_collapse, "_collapse": _collapse,
                      "_ratio_collapse": _ratio_collapse,
                      "ConfigurationError": ConfigurationError,
                      "ModelError": ModelError, "isfinite": math.isfinite}


def _compiled(name: str, key, write, dim: int):
    """The generated function ``name`` for the plan ``key``, compiled and
    executed once per process; ``write()`` returns its module's source and
    runs only when the key is not cached. The parser's memory stays in the
    C heap after ``compile`` returns, so a model built again (every round
    of a sweep, a second run of one network) must neither compile nor
    write its source again. The module binds nothing of one model, only
    ``_GENERATED_GLOBALS`` and ``pack``, a ``struct.Struct`` of ``dim``
    doubles, so models of one plan share the function. The cache keeps the
    latest ``_CODE_ENTRIES``."""
    fn = _code.pop((name, key), None)
    if fn is None:
        namespace = {**_GENERATED_GLOBALS, "pack": struct.Struct(f"{dim}d").pack}
        exec(compile(write(), f"<0D network {name}>", "exec"), namespace)
        fn = namespace[name]
        if len(_code) >= _CODE_ENTRIES:
            del _code[next(iter(_code))]
    _code[name, key] = fn
    return fn


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


def _minus(a: str, b: float) -> str:
    """Source text of ``a - b``: ``a`` alone where ``b`` is +0.0, since
    x - (+0.0) is x for every x (x + (+0.0) is not, for x = -0.0)."""
    if b == 0.0 and math.copysign(1.0, b) > 0.0:
        return a
    return f"({a} - {_lit(b)})"


#: the compartments a collapse error names: a half of a two-compartment
#: vessel, or a whole vessel (a leaf, or the root's mean area)
_PROXIMAL, _DISTAL, _WHOLE = "proximal half", "distal half", "whole vessel"


class _PassSource:
    """Python source of the network pass, written from the evaluation plan
    of a ``NetworkModel0D``: each state a local, each compartment constant a
    literal, and the mode's flags resolved while writing. This is where
    the compartment laws (``pressure``, ``compartment``, ``flow``) and the
    junction and terminal couplings (``stage``) are written, in plan order;
    the tests compose the per-vessel configurations from the same laws,
    operation for operation, and require the same bits and the same errors.

    While writing, a value is a local name (str) or a constant (float); a
    product of two constants is folded, as Python would fold it. A collapse
    error names the vessel and the compartment as literals and the time of
    the pass as the stage's time expression; that text runs only when the
    pass fails.
    """

    def __init__(self, model: "NetworkModel0D"):
        self.model = model
        self.owner = model._owner
        self.dim = model.dim
        self.nl_p, self.nl_r, self.nl_l = model.mode.flags
        self.p_if = [f"pif_{j}" for j in range(len(model._junctions))]
        self.q_if = [f"qif_{j}" for j in range(len(model._junctions))]
        self.t_out = [f"tout_{k}" for k in range(len(model._terminals))]

    def names(self, prefix: str) -> list[str]:
        return [f"{prefix}{i}" for i in range(self.dim)]

    def evaluator(self) -> str:
        """``evaluate(t, q_in, s)``: one pass at the root inflow ``q_in``,
        returning the derivative list and the junction and terminal values.
        The time ``t`` enters only the collapse errors."""
        s, d = self.names("s"), self.names("d")
        return "\n".join([
            "def evaluate(t, q_in, s):",
            f"    {', '.join(s)}, = s",
            *(f"    {line}" for line in self.stage(s, d, "t", "q_in")),
            f"    return [{', '.join(d)}], [{', '.join(self.p_if)}], "
            f"[{', '.join(self.q_if)}], [{', '.join(self.t_out)}]", ""])

    def runner(self) -> str:
        """The run module: ``run(y, n, dt, q_t, q_half, q_dt, stride, last,
        samples) -> y_end``, classical RK4 steps n, n + 1, ... from the
        state list ``y`` at step n, one per entry of the inflow tables,
        which hold the inflow at each step's t = n dt, t + dt/2 and t + dt.
        Steps are counted from 0. The states stay locals from step to step;
        each step inlines the four passes and their combination. After
        every ``stride``-th step and after step ``last`` the state is
        checked to be finite and appended to ``samples``; the caller knows
        the sampled steps (``_sample_steps``), and so their times, and the
        loop computes a sample's time only in its error. The state goes in
        as one packed copy of its doubles (``pack``, a ``struct.Struct`` of
        ``dim`` doubles bound by ``_compiled``): ``array.extend`` on a tuple
        converts it one value at a time, several times slower.

        Only the states that are their own source in the model's copies map
        (``NetworkModel0D._copies``) are computed: a copied vessel gets no
        statement, and every reference to one of its states, in a junction
        sum, the sample or the returned list, names its source's local. So
        ``y`` must hold equal values at a state and its source, as the
        initial state does; RK4 keeps them equal bit for bit."""
        src = self.model._copies
        computed = [i for i in range(self.dim) if src[i] == i]
        copied = {o for o in self.model.layout.values() if src[o] != o}

        def sources(prefix):
            return [f"{prefix}{i}" for i in src]

        y, u = sources("y"), sources("u")
        k = [sources(prefix) for prefix in "abce"]
        state = ", ".join(y)
        body = ["t = n * dt", "n += 1", *self.stage(y, k[0], "t", "qa", copied)]
        for i, (h, t_stage, q) in enumerate((("half", "t + half", "qh"),
                                             ("half", "t + half", "qh"),
                                             ("dt", "t + dt", "qe"))):
            body += [f"{u[j]} = {y[j]} + {h} * {k[i][j]}" for j in computed]
            body += self.stage(u, k[i + 1], t_stage, q, copied)
        body += [f"{y[j]} = {y[j]} + sixth * ({k[0][j]} + 2.0 * ({k[1][j]} + "
                 f"{k[2][j]}) + {k[3][j]})" for j in computed]
        # a sum is finite only if every term is: the exact test runs only
        # on a sum that is not
        body += ["if n % stride == 0 or n == last:",
                 f"    s = ({state},)",
                 "    if not isfinite(sum(s)) and not all(map(isfinite, s)):",
                 "        raise ModelError(f'non-finite state at t = {n * dt:.6g} s')",
                 "    samples.frombytes(pack(*s))"]
        unpack = ", ".join(name if src[i] == i else "_" for i, name in enumerate(y))
        return "\n".join([
            "def run(y, n, dt, q_t, q_half, q_dt, stride, last, samples):",
            "    half = 0.5 * dt",
            "    sixth = dt / 6.0",
            f"    {unpack}, = y",
            "    for qa, qh, qe in zip(q_t, q_half, q_dt):",
            *(f"        {line}" for line in body),
            f"    return [{state}]", ""])

    def pressures(self) -> str:
        """``pressures(Y)``: a generator of the pressure of each compartment
        at the sampled volumes, the columns ``Y[:, o]`` of sampled states,
        in plan order: the root's two halves, each interior vessel's two
        halves, each leaf. Each is computed when it is drawn, so a caller
        holds one at a time. The columns are not tested for collapse."""
        out = []
        for i, c, *_ in self.model._compartments:
            P = self.pressure(out, "P", f"Y[:, {i}]", c)
            out.append(f"yield {P}")
        return "\n".join(["def pressures(Y):", *(f"    {line}" for line in out), ""])

    # -- one pass --------------------------------------------------------

    def pressure(self, out: list, name: str, V: str, c: tuple,
                 where: str | None = None, positive: bool = False) -> str:
        """Pressure at volume ``V``: the elastic tube law at the mean area
        V/l, or its linearisation with the reference compliance C0.
        ``where`` is the source of the location arguments of its collapse
        errors; without it, nothing is tested. With it, ``V`` is tested
        unless it is known to be ``positive`` (its mean area was tested),
        and where an exponent of the tube law is negative, so is the ratio
        V / V0, which a positive subnormal volume can underflow to 0.0, a
        value with no negative power."""
        V0, K, m, n, P_ref, C0 = c[:6]
        if where is not None and not positive:
            out.append(f"if {V} <= 0.0: raise _volume_collapse({V}, {where})")
        if self.nl_p:
            x = f"({V} / {_lit(V0)})"
            ratio_test = where is not None and min(m, n) < 0.0
            if (m != 0.0 and n != 0.0) or ratio_test:
                out.append(f"x = {x}")
                x = "x"
            if ratio_test:
                out.append(f"if x <= 0.0: raise _ratio_collapse({V}, {where})")
            # x ** 0.0 is 1.0 for every x, NaN included
            xm, xn = ("1.0" if e == 0.0 else f"{x} ** {_lit(e)}" for e in (m, n))
            out.append(f"{name} = {_lit(K)} * ({xm} - {xn}) + {_lit(P_ref)}")
        else:
            out.append(f"{name} = {_lit(P_ref)} + ({V} - {_lit(V0)}) / {_lit(C0)}")
        return name

    def compartment(self, out: list, tag: str, V: str, c: tuple, l: float,
                    where: str, scale: float = 1.0):
        """(P, R, L) of a compartment of length ``l`` at volume ``V``: a
        leaf or a half of an interior vessel, with R and L times ``scale``
        (``flow``). With a mean area A = V / l, one test ``A <= 0`` stands
        for the volume's and the area's, since A > 0 implies V > 0;
        ``_collapse`` tells them apart. Without one, the volume is
        tested."""
        A = None
        if self.nl_r or self.nl_l:
            A = f"A_{tag}"
            out += [f"{A} = {V} / {_lit(l)}",
                    f"if {A} <= 0.0: raise _collapse({V}, {A}, {where})"]
        P = self.pressure(out, f"P_{tag}", V, c, where, positive=A is not None)
        return (P, *self.flow(out, tag, A, c, self.nl_r, self.nl_l, scale))

    @staticmethod
    def area(out: list, tag: str, A_hat: str, where: str) -> str:
        """The local of the mean area ``A_hat``, tested for collapse."""
        A = f"A_{tag}"
        out += [f"{A} = {A_hat}",
                f"if {A} <= 0.0: raise _area_collapse({A}, {where})"]
        return A

    @staticmethod
    def flow(out: list, tag: str, A: str | None, c: tuple, nl_r: bool, nl_l: bool,
             scale: float = 1.0):
        """``scale`` times (R, L) at the mean area in the local ``A``,
        rho k_R l / A^2 and rho l / A, or the reference values R0 and L0.
        ``scale`` is a power of two no greater than 1, folded into the
        numerator or the constant while the source is written.

        The folded form (s c) / D has the bits of the unfolded s (c / D)
        that the per-vessel configurations compute. Scaling by a power of
        two is exact, and commutes with rounding, while the result stays
        normal: so the two are equal whenever s c / D >= 2^-1022 and c / D
        is finite, given a numerator whose product s c is exact (any
        c >= 2^-1022 / s). Where D is infinite both give 0.0, where it is
        0.0 both raise ``ZeroDivisionError``, and NaN gives NaN. They can
        differ only where a quotient leaves the normal range: below
        2^-1022, where the unfolded form rounds twice (for R, a mean area
        above 2^511 sqrt(s c), about 6.7e153 sqrt(s c) cm^2, and none for
        s c >= 4, where A * A overflows first), or above the largest
        double, where only the unfolded form is infinite (for R, a mean
        area below about 7e-155 sqrt(c) cm^2; for L, below about
        5.6e-309 c cm^2)."""
        R0, L0, rho_kR_l, rho_l = c[6:]
        R, L = scale * R0, scale * L0
        if nl_r:
            R = f"R_{tag}"
            out.append(f"{R} = {_lit(scale * rho_kR_l)} / ({A} * {A})")
        if nl_l:
            L = f"L_{tag}"
            out.append(f"{L} = {_lit(scale * rho_l)} / {A}")
        return R, L

    @staticmethod
    def mul(out: list, a, b, name: str):
        if not isinstance(a, str) and not isinstance(b, str):
            return float(a) * float(b)
        out.append(f"{name} = {_lit(a)} * {_lit(b)}")
        return name

    def stage(self, s: list[str], d: list[str], t: str, q_in: str,
              copied: set[int] = frozenset()) -> list[str]:
        """Statements of one pass over the states named ``s`` at the time
        expression ``t``, with the root inflow in ``q_in``, in plan order
        (root, interior vessels, leaves): they assign the derivative of
        state i to ``d[i]``, the junction values to ``p_if``/``q_if`` and
        the terminal values to ``t_out``. The vessels at the offsets
        ``copied`` get no statement; only they read the values of their
        own junctions and terminals. A leaf's halves of R and L, and the
        root's shares of R and R_d, are computed from numerators scaled
        while writing (``flow``); an interior half reads its R whole and
        halved, and halves it in the pass."""
        model, out = self.model, []
        nl_r, nl_l = self.nl_r, self.nl_l
        p_if, q_if, t_out = self.p_if, self.q_if, self.t_out
        pressure, compartment, flow, mul = (self.pressure, self.compartment,
                                            self.flow, self.mul)

        def at(o, part):
            """Location arguments of a collapse in vessel at offset ``o``."""
            return f"{self.owner[o]!r}, {part!r}, {t}"

        def inflows(name, flows):
            out.append(f"{name} = 0.0" + "".join(f" + {s[i]}" for i in flows))

        # the root keeps its four tests in their order: merged, they would
        # raise another of them first where an area underflows
        o, hc, hl, fc, fl, r_frac, rd_frac, j, flows, term, wk = model._root
        V, Q, Vd = s[o:o + 3]
        P = pressure(out, f"P_{o}", V, hc, at(o, _PROXIMAL))
        Pd = pressure(out, f"P_{o + 2}", Vd, hc, at(o, _DISTAL))
        A = None
        if nl_r or nl_l:
            A = self.area(out, f"{o}", f"({V} + {Vd}) / {_lit(fl)}", at(o, _WHOLE))
        # the root's shares of its resistance, folded into the numerators
        R = flow(out, f"{o}", A, fc, nl_r, False, r_frac)[0]
        L = flow(out, f"{o}", A, fc, False, nl_l)[1]
        # the distal end resistance sits at the distal half's mean area
        if nl_r:
            A = self.area(out, f"{o + 2}", f"{Vd} / {_lit(hl)}", at(o, _DISTAL))
        R_d = flow(out, f"{o + 2}", A, fc, nl_r, False, rd_frac)[0]
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
                        f"{d[wk]} = ({q_out} - {_minus(s[wk], term.P_v)} / "
                        f"{_lit(term.R2)}) / {_lit(term.C)}"]
            else:
                out.append(f"{q_out} = {_minus(Pd, term.P_v)} / Rt_{o}")
        out += [f"{d[o]} = {q_in} - {Q}",
                f"{d[o + 1]} = ({P} - {_lit(R)} * {Q} - {Pd}) / {_lit(L)}",
                f"{d[o + 2]} = {Q} - {q_out}"]

        for o, c, l, j_in, j, flows in model._interior:
            if o in copied:
                continue
            V1, Q1, V2, Q2 = s[o:o + 4]
            P1, R1, L1 = compartment(out, f"{o}", V1, c, l, at(o, _PROXIMAL))
            P2, R2, L2 = compartment(out, f"{o + 2}", V2, c, l, at(o, _DISTAL))
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
            if o in copied:
                continue
            V, Q, Qd = s[o:o + 3]
            # half of R and of L on each side of the capacitor
            P, Rh, Lh = compartment(out, f"{o}", V, c, l, at(o, _WHOLE), 0.5)
            # pressure-typed terminal coupling: the distal flow enters it
            if isinstance(term, Windkessel):
                out += [f"{t_out[k]} = {s[wk]} + {_lit(term.R1)} * {Qd}",
                        f"{d[wk]} = ({Qd} - {_minus(s[wk], term.P_v)} / "
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
#: no derivative. Powers of two: the pass folds them into the numerators
#: of R and R_d (``_PassSource.flow``)
_ROOT_R_FRAC, _ROOT_RD_FRAC = 0.5, 0.25

#: the state and inflow steps of the probes that read the affine pass off
#: the compiled one (``NetworkModel0D.linearisation``): a power of two, so
#: that dividing by it is exact, and large enough that the pass's value at
#: the probed state is lost in the rounding of the probe's
_PROBE = 2.0 ** 30


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
    network pass over that plan (``rhs``, ``linearisation``), the RK4 run
    loop (``integrate``) and the compartment pressures that ``observe``
    weighs are generated from it as Python source and compiled the first
    time each is used; the initial state reads it too.
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
    def _owner(self) -> list[str]:
        """The vessel that owns each state: a vessel owns the states from its
        offset to the next vessel's, and its terminal's capacitor pressure."""
        offsets = [*self.layout.values(), self.dim - len(self.wk_index)]
        return [vid for vid, first, stop in zip(self.layout, offsets, offsets[1:])
                for _ in range(first, stop)] + list(self.wk_index)

    @cached_property
    def _compartments(self) -> list[tuple[int, tuple, str, str]]:
        """(state index of its volume, constants, vessel, part) of each
        compartment, in plan order: the root's two halves, each interior
        vessel's two halves, each leaf."""
        owner, out = self._owner, []
        for o, c, *_ in (self._root, *self._interior):
            out += [(o, c, owner[o], _PROXIMAL), (o + 2, c, owner[o], _DISTAL)]
        out += [(o, c, owner[o], _WHOLE) for o, c, *_ in self._leaves]
        return out

    @cached_property
    def _copies(self) -> np.ndarray:
        """For each state, the state whose values it takes on every RK4
        step: the same state of the first of the identical sibling subtrees
        it lies in, or itself. Sibling subtrees are identical when their
        shapes, plan constants, terminals and initial states are; a source
        comes before its copies in plan order. Found at the first use (the
        first integration or pass), from the plan and the initial state."""
        y0 = self.initial_state()
        # per vessel offset: what its pass reads, its states, and its
        # daughters' offsets (a proximal flow follows its vessel's volume)
        vessels = {o: ((c, l), [*range(o, o + 4)], [f - 1 for f in flows])
                   for o, c, l, _, _, flows in self._interior}
        for o, c, l, _, _, term, wk in self._leaves:
            vessels[o] = ((c, l, term), [o, o + 1, o + 2, *([wk] if wk >= 0 else [])], [])
        trees = {}

        def tree(o):
            """(signature, states) of the subtree of the vessel at ``o``."""
            if o not in trees:
                key, states, daughters = vessels[o]
                subtrees = [tree(d) for d in daughters]
                trees[o] = (repr((key, y0[states].tolist(), [k for k, _ in subtrees])),
                            [*states, *(i for _, s in subtrees for i in s)])
            return trees[o]

        src = np.arange(self.dim)
        siblings = [[f - 1 for f in self._root[-3]]]
        for daughters in siblings:
            first = {}
            for d in daughters:
                key, states = tree(d)
                if key in first:
                    src[states] = first[key]
                else:
                    first[key] = states
                    siblings.append(vessels[d][2])
        while (src[src] != src).any():  # a copy of a copy
            src = src[src]
        return src

    @cached_property
    def _plan_key(self) -> str:
        """What the generated source is written from, as text: the mode's
        flags, the layout, the plan tuples and the copies map, each float
        as its ``repr`` (so that -0.0 and 0.0 differ, as they do in the
        source)."""
        return repr((self.mode.flags, self.dim, tuple(self.layout.items()),
                     self._root, tuple(self._interior), tuple(self._leaves),
                     self._copies.tolist()))

    def _compile(self, name: str, write):
        """The generated function ``name`` of this model's plan, written
        by ``write(_PassSource(self))``: shared by every model of the plan."""
        return _compiled(name, self._plan_key, lambda: write(_PassSource(self)),
                         self.dim)

    @cached_property
    def _evaluate(self):
        """The network pass, compiled on first use: ``_evaluate(t, q_in,
        s)`` takes the time, the root inflow and the state as a list and
        returns the derivative list, per junction its interface pressure
        and the flow its daughters draw, and per terminal the value handed
        back to its vessel: the outlet pressure of a PinPout leaf, or the
        outlet flow of a single-vessel network."""
        return self._compile("evaluate", _PassSource.evaluator)

    @cached_property
    def _run(self):
        """The RK4 sampling loop (``_PassSource.runner``), compiled on
        first use."""
        return self._compile("run", _PassSource.runner)

    @cached_property
    def _pressures(self):
        """``pressures(Y)`` (``_PassSource.pressures``), compiled on first
        use."""
        return self._compile("pressures", _PassSource.pressures)

    def linearisation(self, y: np.ndarray):
        """(A, b, c) of the pass dy/dt = A y + b q_in + c, read off the
        compiled pass in dim + 2 probes: at the state ``y`` and a zero
        inflow, and after a step ``_PROBE`` in each state and in the
        inflow. Exact only where the pass is affine in the state and the
        inflow, which it is in the mode with every flag off; there it is
        the same at every ``y``. A pass reads the time only in its
        collapse errors, which name t = 0 here."""

        def f(q, x):
            return np.array(self._evaluate(0.0, q, x.tolist())[0])

        f0 = f(0.0, y)
        A = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            yi = y.copy()
            yi[i] += _PROBE
            A[:, i] = f(0.0, yi) - f0
        A /= _PROBE
        return A, (f(_PROBE, y) - f0) / _PROBE, f0 - np.vecdot(A, y)

    def integrate(self, dt: float, t_end: float,
                  sample_interval: float) -> Integration:
        """RK4 from the initial state to ``t_end``, sampled as
        ``rk4_integrate`` samples, at the steps ``_sample_steps`` lists and
        the times ``steps * dt``. The inflow is tabulated at every stage
        time, three calls on arrays per block of steps; the run goes block
        by block, carrying the state and the step count.

        A mode with every flag off is linear and time-invariant: it is
        advanced by its exact RK4 step map (``_StepMap``), in groups of K
        steps whose starts follow one another and whose inner steps go
        together, within round-off of ``rk4_integrate`` on ``self.rhs``,
        after a step-size check that refuses an unstable ``dt`` with a
        ``ConfigurationError``. Every other mode runs the compiled run
        loop, in blocks of ``_BLOCK_STEPS``, with the bits of
        ``rk4_integrate`` on ``self.rhs``. Both compute the states of
        identical sibling subtrees once (``_copies``, found here at the
        first integration), which the initial state holds equal. The
        reported CPU time covers the tables, the loop, and the building of
        a step map."""
        n_steps, stride = _step_count(dt, t_end, sample_interval)
        steps = _sample_steps(n_steps, stride)
        y = self.initial_state()
        if not any(self.mode.flags):
            self._evaluate  # compiled, if it must be, before the clock starts
            start = time.thread_time()
            # each sample's row written once, by the block that reaches it
            Y = np.empty((steps.size, self.dim))
            Y[0] = y
            _StepMap(self, y, dt).run(steps, Y)
        else:
            run = self._run  # compiled, if it must be, before the clock starts
            samples, y = array("d", y), y.tolist()
            start = time.thread_time()
            for first in range(0, n_steps, _BLOCK_STEPS):
                stop = min(first + _BLOCK_STEPS, n_steps)
                y = run(y, first, dt, *_inflow_tables(self.inflow, first, stop, dt),
                        stride, n_steps, samples)
            Y = np.frombuffer(samples).reshape(steps.size, -1)
        cpu = time.thread_time() - start
        return Integration(t=steps * dt, y=Y, cpu_seconds=cpu)

    def initial_state(self) -> np.ndarray:
        """All vessels at the area matching the initial pressure, zero flow,
        terminal capacitors at the initial pressure."""
        net = self.network
        y0 = np.zeros(self.dim)
        leaves = {o for o, *_ in self._leaves}
        for vid, o in self.layout.items():
            volume = net.initial_area(vid) * net.vessels[vid].length
            if o in leaves:
                y0[o] = volume
            else:  # the root and the interior vessels: two compartments
                y0[o] = y0[o + 2] = volume / 2.0
        for idx in self.wk_index.values():
            y0[idx] = net.initial_pressure
        return y0

    def rhs(self, t: float, y) -> np.ndarray:
        """dy/dt at (t, y), an array for any sequence of floats."""
        return np.array(self._evaluate(t, float(self.inflow(t)),
                                       np.asarray(y, dtype=float).tolist())[0])

    def observe(self, Y: np.ndarray) -> dict[str, dict[str, np.ndarray]]:
        """Per-vessel sampled (P, Q, A): volume-weighted mean pressure,
        mid-vessel interface flow and mean area, from sampled states Y with
        shape (n_samples, dim). The compartment pressures are those of
        ``_pressures``, in plan order."""
        vessels, owner = self.network.vessels, self._owner
        pressures = self._pressures(Y)
        out = {}

        def halves(o, Q):
            V, Vd = Y[:, o], Y[:, o + 2]
            P, Pd = next(pressures), next(pressures)
            out[owner[o]] = {"P": (V * P + Vd * Pd) / (V + Vd), "Q": Q,
                             "A": (V + Vd) / vessels[owner[o]].length}

        o = self._root[0]
        halves(o, Y[:, o + 1])
        for o, *_ in self._interior:  # the flow into the second half
            halves(o, Y[:, o + 3])
        for o, *_ in self._leaves:
            # the capacitor node sits mid-vessel between the proximal and
            # distal flows, so their mean stands in for the midpoint flow
            V = Y[:, o]
            out[owner[o]] = {"P": next(pressures),
                             "Q": 0.5 * (Y[:, o + 1] + Y[:, o + 2]),
                             "A": V / vessels[owner[o]].length}
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


#: the relative tolerance to which a run's ``t_end`` and ``sample_interval``
#: must be whole multiples of its ``dt``
_GRID_RTOL = 1e-9


def _step_count(dt: float, t_end: float,
                sample_interval: float) -> tuple[int, int]:
    """(steps to ``t_end``, steps between samples) of a fixed-step run.
    Raises ValueError unless ``dt`` and ``sample_interval`` are positive
    and finite, the run takes at least one step, and ``t_end`` and
    ``sample_interval`` are whole, positive numbers of steps to within
    ``_GRID_RTOL`` (so ``dt`` is at most ``sample_interval``): no end time
    or sample interval is rounded to another grid without a word."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"time step must be positive and finite, got dt = {dt} "
                         f"(t_end = {t_end})")
    steps = t_end / dt
    # round() takes 0.5 to no step, and fails on an infinite or NaN count
    if not 0.5 < steps < math.inf:
        raise ValueError(f"time step dt = {dt} takes no finite, positive number "
                         f"of steps to t_end = {t_end}")
    if not 0.0 < sample_interval < math.inf:
        raise ValueError(f"sample_interval must be positive and finite, "
                         f"got {sample_interval}")
    grid = f"dt = {dt}, t_end = {t_end}, sample_interval = {sample_interval}"
    counts = []
    for name, x in (("t_end", steps), ("sample_interval", sample_interval / dt)):
        n = max(1, round(x)) if x < math.inf else 0
        if abs(x - n) > _GRID_RTOL * n:
            what = ("shorter than a time step" if x < 1.0 else
                    f"not a whole number of time steps ({x:.9g}) to within {_GRID_RTOL:g}")
            raise ValueError(f"{name} is {what}: {grid}")
        counts.append(n)
    return tuple(counts)


def _sample_steps(n_steps: int, stride: int) -> np.ndarray:
    """The sampled steps of a run of ``n_steps``: 0, the initial state,
    every ``stride``-th step and the last. A sample's time is its step
    times ``dt``: ``steps * dt`` has the bits of Python's ``n * dt``."""
    return np.append(np.arange(0, n_steps, stride), n_steps)


def rk4_integrate(rhs, y0, dt: float, t_end: float,
                  sample_interval: float) -> Integration:
    """Classical fourth-order Runge-Kutta with fixed step, on arrays.

    ``y0`` is any sequence of floats, taken as an array; ``rhs`` maps
    (t, array) to an array. Samples the state every ``sample_interval``
    (a whole number of steps, ``dt`` for every step) and after the last step,
    at the steps ``_sample_steps`` lists and the times ``steps * dt``, and
    checks the samples are finite. The reported CPU time, of this thread,
    covers only the stepping loop. This is the generic integrator and the
    reference of ``NetworkModel0D.integrate`` (behind ``run_0d``), which
    gives the same bits as this function on ``model.rhs`` in every mode but
    the linear one, and agrees with it within round-off in that one.
    """
    n_steps, stride = _step_count(dt, t_end, sample_interval)
    steps = _sample_steps(n_steps, stride)
    y, step = np.array(y0, dtype=float), _rk4_array_step(rhs, dt)
    # the samples go into one flat buffer of doubles: a list per sample
    # would hold every value as a float object, three times the memory
    samples = array("d", y)
    start = time.thread_time()
    for n in range(1, n_steps + 1):
        y = step((n - 1) * dt, y)
        if n % stride == 0 or n == n_steps:
            if not all(map(math.isfinite, y)):
                raise ModelError(f"non-finite state at t = {n * dt:.6g} s")
            samples.extend(y)
    cpu = time.thread_time() - start
    return Integration(steps * dt, np.frombuffer(samples).reshape(steps.size, -1), cpu)


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


#: bytes of the largest per-block array of a step map run, sized by its
#: widest rows a step, (the state, g) or the stage volumes of a step the
#: screen does not clear: small enough that the blocks add little to the
#: largest resident size of a run, whose samples take more; larger blocks
#: are no faster
_BLOCK_BYTES = 1 << 18

#: the largest |R(dt λ)| the step-size check accepts, where R is RK4's
#: stability polynomial. The eigenvalues of a mode that neither grows nor
#: decays (|R| = 1) come out of the eigenvalue solver a few ulps off the
#: imaginary axis; a mode growing by 1e-9 a step grows by 1% in 1e7 steps
_GROWTH_TOL = 1e-9


def _product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B, each entry the dot product of a row of A and a column of B
    on its own. ``np.vecdot`` does not thread a dot product of fewer than
    10 000 terms, as a BLAS matrix product may, so the bits depend neither
    on BLAS's threads nor on the shapes."""
    return np.vecdot(A[:, None], np.ascontiguousarray(B.T))


def _group_steps(n: int) -> int:
    """The steps of a group of a step map (``_StepMap``) of ``n`` computed
    states: the largest power of two at most 256 / n, and at most 16. The
    map computes M^K - I in log2 K products of n^3 terms, and a group saves
    the calls of K - 1 steps; on generated trees of 11 to 251 states this
    K was at or near the fastest, on runs of 220 to 8800 steps."""
    return min(16, 1 << (max(1, 256 // n).bit_length() - 1))


def _rk4_growth(z: np.ndarray) -> np.ndarray:
    """|R(z)|, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24: RK4's amplification
    of a linear mode over one step, z being dt times its eigenvalue."""
    return np.abs(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))


class _StepMap:
    """The RK4 step of a network whose mode has every flag off, as one
    affine map of the state and the step's inflow, run K steps at a time.

    Such a pass is dy/dt = A y + b q_in(t) + c, and an RK4 step is
    y <- M y + W g with g = (q(t), q(t + dt/2), q(t + dt), 1), with (A, b,
    c) the model's ``linearisation`` of its pass. The step's change
    [M - I | W] and the changes of the stage states are
    ``_rk4_array_step`` applied, from zero, to the change Z of the state
    over the step, whose pass is A Z + [A | b e_q(t) | c e_4] as a map of
    (y, g); so no law and no RK4 formula is written twice, and the change
    is not rounded to the state's scale before it is added.

    A run goes in groups of K steps (``_group_steps``), counted from step
    0. Only the state e at each group's start is computed one group after
    another, by one dot product per row (``np.vecdot``):
    e <- e + [M^K - I | H] (e, u), where u is the inflow at the stage times
    of the group's steps, and 1, and H its forcing (M^(K-1-l) W for step
    l). Then the steps inside the groups of a block go from the groups'
    starts one step at a time, every group at once: one ``np.vecdot`` call
    per step of a group but the last gives the change of the n states, and
    the state after a group's last step is the next group's start. So a
    block of steps costs about steps / K + K calls, where the plain map
    (K = 1) costs a few calls a step. M^K - I and H are built by
    ``_product``, M^K - I by squaring in change form. No BLAS matrix product
    enters the maps or the steps, and blocks hold whole groups, so the bits
    of the run depend neither on the block's size nor on BLAS's threads,
    and a shorter run's states are the first states of a longer run of the
    same network, bit for bit.

    The collapse test reads the volumes of the four RK4 stages of every
    step. Their changes are 3 rows per compartment (``stages``), more than
    half of all rows on the generated trees; they are computed only for the
    steps that one bound per block (``screen``) does not show positive,
    none on a healthy run, so a step costs n dot products, not
    n + 3 x the compartments.

    The states of identical sibling subtrees are equal on every step of
    RK4; the map computes those of the first subtree only, by the model's
    copies map (``NetworkModel0D._copies``), which the run loop reads too,
    and copies them to the others, so that they stay equal bit for bit.
    """

    def __init__(self, model: NetworkModel0D, y0: np.ndarray, dt: float):
        """The map of ``model`` at the step ``dt``, from its linearisation
        at its initial state ``y0``."""
        self.model, self.dt = model, dt
        A, b, c = model.linearisation(y0)
        self.check_step_size(model, A, dt)
        src = model._copies
        keep = np.flatnonzero(src == np.arange(model.dim))
        pos = np.zeros(model.dim, dtype=int)
        pos[keep] = np.arange(keep.size)
        #: the position in the computed states of each state
        self.expand = pos[src]
        n = self.n = keep.size
        A = _product(A[keep], np.eye(n)[self.expand])
        b, c = b[keep], c[keep]
        self.y0 = y0[keep]
        #: the computed state of each compartment's volume, in plan order
        self.volumes = pos[[i for i, *_ in model._compartments]]

        column = {0.0: n, 0.5 * dt: n + 1, dt: n + 2}
        stages = []

        def rhs(t, Z):
            stages.append(Z)
            F = _product(A, Z)
            F[:, :n] += A
            F[:, column[t]] += b
            F[:, n + 3] += c
            return F

        #: [M - I | W], the change of the state over a step, as a map of the
        #: state and its step's g
        G = self.G = _rk4_array_step(rhs, dt)(0.0, np.zeros((n, n + 4)))
        #: the changes of the volumes in the last three stages (the first is
        #: the state itself), stage by stage in plan order, as maps of the
        #: same, and their magnitudes; they feed the collapse test only
        self.stages = np.vstack([S[self.volumes] for S in stages[1:]])
        self.magnitudes = np.abs(self.stages)
        K = self.K = _group_steps(n)
        # M^K - I by squaring, M^2k - I = 2 (M^k - I) + (M^k - I)^2, and the
        # forcing M^m W of a group's step K - 1 - m, by
        # M^m W = M^(m-1) W + (M - I) M^(m-1) W
        D = G[:, :n]
        P, MW = D, [G[:, n:]]
        for _ in range(K.bit_length() - 1):
            P = P + (P + _product(P, P))
        for _ in range(K - 1):
            MW.append(MW[-1] + _product(D, MW[-1]))
        #: [M^K - I | the forcing of a group], as a map of the state at its
        #: start, the inflow at the stage times of its steps, and 1
        self.P = np.hstack([P, *(w[:, :3] for w in MW[::-1]), sum(MW)[:, 3:]])

    @staticmethod
    def check_step_size(model: NetworkModel0D, A: np.ndarray, dt: float) -> None:
        """Refuse a ``dt`` at which RK4 amplifies a mode of the pass
        dy/dt = A y + ... by more than 1 + ``_GROWTH_TOL`` a step, with the
        largest step it accepts (by bisection) and the vessel of the largest
        component of the mode that grows fastest at ``dt``."""
        lam = np.linalg.eigvals(A)
        if _rk4_growth(dt * lam).max() <= 1.0 + _GROWTH_TOL:
            return
        stable, unstable = 0.0, dt
        for _ in range(60):
            h = 0.5 * (stable + unstable)
            if _rk4_growth(h * lam).max() <= 1.0 + _GROWTH_TOL:
                stable = h
            else:
                unstable = h
        lam, modes = np.linalg.eig(A)
        size = np.abs(modes[:, np.argmax(_rk4_growth(dt * lam))])
        # the first state within 0.1% of the largest: of a mode shared by
        # identical vessels, the first of them in the layout
        vid = model._owner[int(np.argmax(size >= 0.999 * size.max()))]
        raise ConfigurationError(
            f"time step dt = {dt:g} s is outside RK4's stability region for this "
            f"linear 0D network: the largest stable step is {stable:.4g} s, and "
            f"the fastest-growing mode is dominated by vessel {vid!r}")

    def run(self, steps: np.ndarray, out: np.ndarray) -> None:
        """Steps 1 to the last of ``steps`` from the initial state, writing
        the state after each of the sampled ``steps`` (``_sample_steps``)
        but step 0 to its row of ``out``, the model's states, copies
        included. Raises the run loop's errors at its first failure: a
        stage volume that is not positive, as ``_volume_collapse`` of its
        vessel and compartment at the stage's time, and a sampled state
        that is not finite."""
        y, K, n_steps = self.y0, self.K, int(steps[-1])
        # the widest per-step rows a block allocates: (the state, g), and
        # the stage volumes of the steps the screen does not clear
        width = max(self.n + 4, 4 * len(self.volumes))
        block = min(_BLOCK_STEPS, max(1, _BLOCK_BYTES // (8 * width)))
        block = K * max(1, block // K)  # whole groups, counted from step 0
        for first in range(0, n_steps, block):
            y = self.block(y, first, min(first + block, n_steps), steps, out)

    def block(self, y: np.ndarray, first: int, stop: int, steps: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        """Steps ``first`` + 1 to ``stop`` from the state ``y``, writing the
        state after each of the sampled ``steps`` among them to its row of
        ``out``, as ``run`` does; returns the last state. ``first``
        starts a group of K steps, and the block's last group is padded with
        steps of zero inflow, whose states are not kept. The stage volumes
        are computed only for the steps that ``screen`` does not clear, none
        on a healthy run. The block's arrays are freed on return."""
        dt, n, K, volumes = self.dt, self.n, self.K, self.volumes
        G, vecdot = self.G, np.vecdot
        m = stop - first
        groups = -(-m // K)
        # the inflow at the stage times of each step, zero past the last
        q = np.zeros((groups * K, 3))
        for k, table in enumerate(_inflow_tables(self.model.inflow, first, stop, dt)):
            q[:m, k] = np.frombuffer(table)
        # the state at each group's start, one group after another, from
        # X = (the state, the group's inflow, 1): e + [M^K - I | forcing] X
        X = np.empty((groups + 1, n + 3 * K + 1))
        X[0, :n] = y
        X[:-1, n:-1] = q.reshape(groups, 3 * K)
        X[:, -1] = 1.0
        for x, e in zip(X, X[1:, :n]):
            vecdot(self.P, x, out=e)
            e += x[:n]
        # then, from the groups' starts, each step's change of the state, a
        # step of every group at a time, from Z = (the state, g); the state
        # after a group's last step is the next group's start
        Z = np.empty((groups * K + 1, n + 4))
        Z[::K, :n] = X[:, :n]
        Z[:-1, n:-1] = q
        Z[:, -1] = 1.0
        C = np.empty((groups, n))
        for i in range(K - 1):
            z = Z[i:-1:K]
            vecdot(G, z[:, None], out=C)
            np.add(z[:, :n], C, out=Z[i + 1::K, :n])
        # the volumes of the stages of the steps not cleared, (step, stage,
        # compartment): the state's, and the state's plus their change
        kept = self.screen(Z[:-1], m)
        x = Z[kept]
        V = np.empty((kept.size, 4, len(volumes)))
        V[:, 0] = x[:, volumes]
        V[:, 1:] = vecdot(self.stages, x[:, None]).reshape(V[:, 1:].shape)
        V[:, 1:] += V[:, :1]
        # the sampled steps of this block and their rows
        rows = slice(*np.searchsorted(steps, (first, stop), side="right"))
        sampled = steps[rows]
        S = Z[sampled - first, :n]
        collapsed = V <= 0.0  # NaN is no collapse, as in the run loop
        infinite = ~np.isfinite(S).all(axis=1)
        if collapsed.any() or infinite.any():
            self.fail(first + 1 + kept, V, collapsed, sampled[infinite])
        # the copies map is in range, and take's default mode would buffer
        # its output
        np.take(S, self.expand, axis=1, out=out[rows], mode="clip")
        return Z[m, :n].copy()

    def screen(self, x: np.ndarray, m: int) -> np.ndarray:
        """The indices of the first ``m`` rows of ``x`` whose stage volumes
        must be computed. Each row x_s = (the start state, g) is a step of a
        block, in whole groups of K (the rows past ``m`` pad the last
        group); the screen clears a step when one bound for the block shows
        that each of its stage volumes, computed as ``block`` computes
        them, fl(V_s + fl(g . x_s)) for each stage row g of a compartment of
        start volume V_s, is positive.

        The bound. Take the block's first step as the reference x_r. For
        each stage row g, B = |g . x_r| + |g| . D + c (|g| . |x_r|) + lambda,
        where D_j is max(max_s x_sj - x_rj, x_rj - min_s x_sj) over every row,
        not less than |x_sj - x_rj| on any step, c = 4 N u, with N = n + 4,
        the terms of a row, u = 2^-53, and lambda = 2^-1022, the smallest
        normal double. That is three products per block, summed in that
        order. A step is cleared when each compartment's start volume
        V_s > 2 B for each of its three stage rows.

        Proof that a cleared step's stage volumes are positive, in double
        arithmetic without overflow, with gradual underflow. A sum or a
        difference is off by a factor 1 + e, |e| <= u, and a product by that
        and an absolute error eta, |eta| <= u lambda, so a dot product of N
        terms, in any order of its sums, is off by at most
        gamma |g| . |x| + mu, gamma = N u / (1 - N u), mu = (1 + gamma) N u
        lambda (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
        sections 2.1 and 3.1). With d = x_s - x_r and b = fl(g . x_r), which
        is within gamma |g| . |x_r| + mu of g . x_r,
            |fl(g . x_s)| <= |g . x_s| + gamma |g| . |x_s| + mu
                          <= |g . x_r| + (1 + gamma) |g| . |d| + gamma |g| . |x_r| + mu
                          <= |b| + (1 + gamma) |g| . |d| + 2 gamma |g| . |x_r| + 2 mu.
        A difference does not underflow, so the computed D_j is at least
        (1 - u) |d_j|. The computed dot products of |g|, sums of terms that
        are not negative, are at least (1 - gamma) |g| . D - mu and
        (1 - gamma) |g| . |x_r| - mu, the computed c times the second at least
        (1 - u) c ((1 - gamma) |g| . |x_r| - mu) - u lambda, and each of the
        three sums of B, of terms that are not negative, is off by at most a
        factor 1 - u. So 2 B is at least 2 (1 - u)^3 times
            |b| + (1 - u) (1 - gamma) (|g| . |d| + c |g| . |x_r|)
                + lambda (1 - u) - (1 + c) mu.
        For N < 2^50, N u < 2^-3, gamma <= 2 N u = c / 2 and mu < lambda / 6,
        and term by term this bounds |fl(g . x_s)| above:
        1 + gamma <= 2 (1 - u)^4 (1 - gamma), 2 gamma <= 2 (1 - u)^4
        (1 - gamma) c, and 2 mu <= 2 (1 - u)^3 (lambda (1 - u) - (1 + c) mu).
        So on a cleared step V_s > 2 B >= |fl(g . x_s)|: the
        exact sum V_s + fl(g . x_s) is positive, a multiple of 2^-1074, and
        so is its rounding. Without lambda, B rounds to 0.0 where the terms
        of its products underflow, while a product of g . x_s rounds to
        -2^-1074 against a start volume of 2^-1074. Without taking c out of
        the product, c |x_r| would underflow by up to u lambda, an error that
        a large |g| would multiply past lambda.
        The test is written not (V_s > 2 B): a NaN or an infinite value in
        any row makes D, and so every B, NaN or infinite (0 inf is NaN),
        and no step of the block is cleared."""
        r, K = x[0], self.K
        # a group a row: a reduction over rows of a few values is slow
        by_group = x.reshape(-1, K * x.shape[1])
        hi = by_group.max(axis=0).reshape(K, -1).max(axis=0)
        lo = by_group.min(axis=0).reshape(K, -1).min(axis=0)
        # a non-finite value or an overflow makes B NaN or infinite, which
        # keeps the steps: it is the verdict, not a fault to warn of
        with np.errstate(invalid="ignore", over="ignore"):
            D = np.maximum(hi - r, r - lo)
            B = (np.abs(np.vecdot(self.stages, r)) + np.vecdot(self.magnitudes, D)
                 + (self.n + 4) * 2.0**-51 * np.vecdot(self.magnitudes, np.abs(r))
                 + 2.0**-1022)
            bound = 2.0 * B.reshape(3, -1).max(axis=0)
        return np.flatnonzero(~(x[:m, self.volumes] > bound).all(axis=1))

    def fail(self, steps: np.ndarray, V: np.ndarray, collapsed: np.ndarray,
             infinite: np.ndarray):
        """Raise the first failure of a block: a collapse in (step, stage,
        plan) order among the steps ``steps``, the rows of ``V``, or a
        non-finite sample at one of the steps ``infinite``, which step n's
        collapse precedes."""
        dt = self.dt
        if collapsed.any():
            i, stage, k = np.unravel_index(np.argmax(collapsed), collapsed.shape)
            if not infinite.size or steps[i] <= infinite[0]:
                t = int(steps[i] - 1) * dt
                t = t + (0.0, 0.5 * dt, 0.5 * dt, dt)[stage]
                _, _, vid, part = self.model._compartments[k]
                raise _volume_collapse(float(V[i, stage, k]), vid, part, t)
        raise ModelError(f"non-finite state at t = {infinite[0] * dt:.6g} s")


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
    """Advance the assembled 0D network (``NetworkModel0D.integrate``)
    and return per-vessel series (``NetworkModel0D.observe``). The inflow
    is evaluated on arrays, once per stage time of the run. The series are
    those of ``rk4_integrate`` on ``model.rhs``: bit for bit from the
    generated run loop of a nonlinear mode, within round-off from the step
    map of the linear mode, which runs groups of steps and refuses an
    unstable ``dt`` with a ``ConfigurationError`` before its first step. A
    shorter linear run gives the first samples of a longer one, bit for
    bit. Both compute identical sibling subtrees once, and their series
    are equal bit for bit."""
    check_run_times(t_end, T0, sample_interval)
    model = assemble_network(network, mode, inflow)
    integ = model.integrate(dt, t_end, sample_interval)
    vessels = model.observe(integ.y)
    cycles = t_end / T0
    return RunResult(t=integ.t, vessels=vessels, cpu_seconds=integ.cpu_seconds,
                     seconds_per_cycle=integ.cpu_seconds / cycles)
