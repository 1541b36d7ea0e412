"""Second-order finite-volume (MUSCL-Hancock) solver for the 1D equations.

Conserved variables per cell are (A, q). The scheme reconstructs linear
slopes with the first-degree ENO criterion, evolves face-extrapolated
values a half step, solves interface Riemann problems with an HLL flux
(Davis wave-speed estimates), and treats the friction source with a
half-step predictor in the spirit of ADER schemes.

The cells of every vessel of a network live in one stacked (A, q) array,
``Vessel1D``, with a per-cell copy of each vessel's parameters and the
segment bounds marking the vessel ends, so each stage of a step is one
numpy pass over the whole network. The stack is the only description of
the 1D network: ``Simulation1D.vessels`` gives each vessel's cells as a
view of it.

At the 100 to 800 cells of the networks simulated here, a step costs the
number of numpy calls and the temporary array each one allocates, not the
arithmetic. So each stack has one workspace, made at its first kernel
call: preallocated buffers for every intermediate of the CFL limit,
``prepare`` and ``commit``, which write through ``out=``, and the table
rows bound once as views. The HLL flux is computed for the mass and the
momentum at once. Every element sees the floating-point operations it saw
without the buffers, in the same order. What a kernel returns is fresh:
the evolved face states and source of a ``_Prep`` stay valid after a later
``prepare``.

Network coupling enforces, at every junction and boundary, conservation of
mass, continuity of total pressure and preservation of the outgoing
generalized Riemann invariants u -/+ 4c (arterial tube law, m = 1/2, n = 0).
Terminals are RCR windkessels advanced implicitly alongside the boundary
solve. These closures work on Python floats, a few unknowns at a time, and
return the boundary flux at their solution. All vessels advance with one
global CFL-limited time step.

``Simulation1D`` plans the closures once, at its first step: each vessel
end holds its constants, read from the stack's table, and one index
(``Vessel1D.end_index``) that places both its state in ``end_states`` and
its flux in ``commit``'s list, which share one order, so a step reads no
per-vessel view. The junction Newton solve is generated source, one
function per member count with the members' unknowns as locals, compiled
once per process. Its code depends on the member count alone, so it is not
compiled again per network: with the constants as literals, every junction
of every network built would compile its own function (about 1.4 ms for
three members).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    CollapseError,
    ConfigurationError,
    ConvergenceError,
    SupercriticalError,
)
from .netio import Junction, Network, WaveformSeries, Windkessel
from .solver0d import RunResult, check_run_times

#: m / (m + 1) of the arterial tube law, in the momentum flux
_THIRD = 0.5 / 1.5

#: the right face of cells 0 .. N-2 and the left face of cells 1 .. N-1 in
#: an array [face, cell]: the states left and right of the interior interfaces
_RIGHT_FACES, _LEFT_FACES = (1, slice(None, -1)), (0, slice(1, None))

# rows of the per-cell parameter table
(_A0, _K, _RHO, _K_RHO, _ALPHA, _TWO_ALPHA, _NEG_KR, _DX, _HALF_DX,
 _A_FLOOR, _P_REF, _A_INIT) = range(12)


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of M cells of width dx over a vessel."""

    M: int
    dx: float


def build_mesh(length: float, dx_max: float) -> Mesh1D:
    """M = max(ceil(l/dx_max), 2); dx = l/M."""
    if not 0.0 < length < math.inf:
        raise ValueError(f"length must be positive and finite, got {length}")
    if not 0.0 < dx_max < math.inf:
        raise ValueError(f"dx_max must be positive and finite, got {dx_max}")
    M = max(math.ceil(length / dx_max - 1e-12), 2)
    return Mesh1D(M=M, dx=length / M)


# -- kernels of the stacked cells --------------------------------------------

# The kernels write their intermediates into the stack's workspace, through
# ``out=``.

def _momentum_flux(A, q, sx, alpha, K, rho, out, tmp):
    """alpha q^2/A + (K A/rho) (m/(m+1)) x^m, with sx = sqrt(A/A0); ``tmp``
    is scratch of the shape of ``out``."""
    p = np.multiply(K, A, out=out)
    p = np.divide(p, rho, out=out)
    p = np.multiply(p, np.multiply(_THIRD, sx, out=tmp), out=out)
    a = np.multiply(alpha, q, out=tmp)
    a = np.multiply(a, q, out=tmp)
    a = np.divide(a, A, out=tmp)
    return np.add(a, p, out=out)


def _celerity(sx, K_rho, out):
    """sqrt((K/rho) m x^m), with sx = sqrt(A/A0)."""
    c = np.multiply(0.5, sx, out=out)
    c = np.multiply(K_rho, c, out=out)
    return np.sqrt(c, out=out)


class _HLLScratch:
    """Scratch of the HLL flux at the N - 1 interior interfaces of N cells:
    u -/+ c of every face state, bound once as views on the states left
    and right of each interface, the wave speeds and their span and
    product, one (2, N - 1) operand and the upwind masks."""

    __slots__ = ("a", "b", "aL", "aR", "bL", "bR", "SL", "SR", "span", "SLSR",
                 "t", "left", "right")

    def __init__(self, N: int):
        self.a, self.b = np.empty((2, 2, N))
        self.aL, self.aR = self.a[_RIGHT_FACES], self.a[_LEFT_FACES]
        self.bL, self.bR = self.b[_RIGHT_FACES], self.b[_LEFT_FACES]
        self.SL, self.SR, self.span, self.SLSR = np.empty((4, N - 1))
        self.t = np.empty((2, N - 1))
        self.left, self.right = np.empty((2, N - 1), dtype=bool)


def _hll(UL, UR, FL, FR, u, c, out, buf: _HLLScratch):
    """HLL flux with Davis wave-speed estimates, for the mass and the
    momentum at once, written to ``out`` (2, N - 1).

    ``UL``, ``UR`` are the conserved (A, q) and ``FL``, ``FR`` the physical
    fluxes (q, F_q) left and right of each interface, stacked as (mass,
    momentum); ``u`` and ``c`` hold the velocity and celerity of every face
    state, from which ``buf`` picks the left and right states of the
    interfaces.

    Where SL SR < 0 at every interface (a NaN fails the test), every wave
    fan straddles its interface, so neither upwind mask can hold and both
    are skipped. The ``np.errstate`` scope stays: an infinite wave speed
    passes that test, and the arithmetic then meets infinities."""
    np.subtract(u, c, out=buf.a)
    np.add(u, c, out=buf.b)
    SL = np.minimum(buf.aL, buf.aR, out=buf.SL)
    SR = np.maximum(buf.bL, buf.bR, out=buf.SR)
    t = buf.t
    with np.errstate(divide="ignore", invalid="ignore"):
        span = np.subtract(SR, SL, out=buf.span)
        SLSR = np.multiply(SL, SR, out=buf.SLSR)
        np.multiply(SR, FL, out=out)
        np.subtract(out, np.multiply(SL, FR, out=t), out=out)
        np.add(out, np.multiply(SLSR, np.subtract(UR, UL, out=t), out=t), out=out)
        np.divide(out, span, out=out)
    if not np.maximum.reduce(SLSR, axis=None) < 0.0:
        # upwind where all waves go one way: the left state wins over the right
        np.copyto(out, FR, where=np.less_equal(SR, 0.0, out=buf.right))
        np.copyto(out, FL, where=np.greater_equal(SL, 0.0, out=buf.left))
    return out


class _EnoScratch:
    """Scratch of ``_eno_slope`` for a ``U`` of shape ``shape``: the
    one-sided differences ``d`` and their magnitudes, as views on the
    left and right side of each cell, which side to take, and the slope."""

    __slots__ = ("d_mid", "d", "ad", "adL", "adR", "dL", "dR", "pick", "slope")

    def __init__(self, shape):
        n = math.prod(shape)
        self.d, self.ad = np.empty((2, n + 1))
        self.d_mid = self.d[1:-1]
        self.dL, self.dR = self.d[:-1].reshape(shape), self.d[1:].reshape(shape)
        self.adL, self.adR = self.ad[:-1].reshape(shape), self.ad[1:].reshape(shape)
        self.pick = np.empty(shape, dtype=bool)
        self.slope = np.empty(shape)


def _eno_slope(U: np.ndarray, dx, breaks: np.ndarray, buf: _EnoScratch):
    """First-degree ENO slope: the smaller-magnitude one-sided difference,
    one-sided at the ends of each segment, in ``buf.slope``.

    The segments are runs of the flattened ``U``; ``breaks`` lists where
    each one starts, and the end of the last one. The difference across a
    break is set to infinity, so that the cells next to it take their
    other side."""
    u = U.reshape(-1)
    np.subtract(u[1:], u[:-1], out=buf.d_mid)
    d = buf.d
    d[breaks] = np.inf
    np.abs(d, out=buf.ad)
    pick = np.less_equal(buf.adL, buf.adR, out=buf.pick)
    np.divide(buf.dR, dx, out=buf.slope)
    return np.divide(buf.dL, dx, out=buf.slope, where=pick)


class _Segments(NamedTuple):
    """Index arrays of a stack's segment ends (N cells in all)."""

    breaks: np.ndarray  # segment starts in the flattened (A, q), and 2N
    ends: np.ndarray  # flat indices of each end's A and q in _Prep.Ub and F


class _Workspace:
    """Buffers for every intermediate of one stack's kernels (``cfl_dt``,
    ``prepare``, ``commit``) over its N cells, and the parameter rows they
    read, bound once as views of the table: (2, N) rows for arrays of both
    faces or both variables, (N) rows named ``*_c`` for cell-centre arrays.

    At 100 to 800 cells a step costs the number of numpy calls and the
    temporaries they allocate, not the arithmetic, so each kernel writes
    through ``out=`` into these buffers. Nothing in them outlives a kernel
    call: a kernel hands out only fresh arrays (``_Prep``) or the state. So
    stacks never share buffers, but one stack is stepped by one thread at
    a time."""

    def __init__(self, table: np.ndarray):
        N = table.shape[-1]
        T, T1 = table, table[:, 0]
        self.A0, self.K, self.rho, self.K_rho, self.alpha, self.neg_kR = (
            T[_A0], T[_K], T[_RHO], T[_K_RHO], T[_ALPHA], T[_NEG_KR])
        self.dx, self.half_dx = T[_DX], T[_HALF_DX]
        (self.A0_c, self.K_rho_c, self.alpha_c, self.two_alpha_c,
         self.neg_kR_c, self.A_floor_c, self.dx_c) = (
            T1[_A0], T1[_K_RHO], T1[_ALPHA], T1[_TWO_ALPHA], T1[_NEG_KR],
            T1[_A_FLOOR], T1[_DX])
        # cell-centre scratch and mask
        self.u_c, self.c_c, self.t_c, self.s_c = np.empty((4, N))
        self.mask_c = np.empty(N, dtype=bool)
        # (2, N) scratch
        self.sx, self.tmp, self.dv = np.empty((3, 2, N))
        # prepare: slopes; face values W[var, face] then the face momentum
        # flux in one array, so that the fluxes F[var, face] = (q, F_q) of
        # the face states are a view of it
        self.eno = _EnoScratch((2, N))
        X = np.empty((3, 2, N))
        self.W, self.WL, self.WR = X[:2], X[:2, 0], X[:2, 1]
        self.Af, self.qf, self.Fqf = X[0], X[1], X[2]
        self.FfL, self.FfR = X[1:, 0], X[1:, 1]
        self.dv_b = self.dv[:, None]
        # commit: face velocity and celerity, fluxes (q, F_q) of the evolved
        # face states, and the face fluxes F[var, face, cell], laid out as
        # Ub so that an end's flat index in Ub is that of its flux in F
        self.u_f, self.c_f = np.empty((2, 2, N))
        self.Fb = np.empty((2, 2, N))
        self.FbL, self.FbR = self.Fb[:, 1, :-1], self.Fb[:, 0, 1:]
        self.F = np.empty((2, 2, N))
        self.F_hll, self.F_in = self.F[:, 1, :-1], self.F[:, 0, 1:]
        self.F_flat = self.F.reshape(-1)
        self.finite = np.empty((2, N - 1), dtype=bool)
        self.hll = _HLLScratch(N)
        self.U_new = np.empty((2, N))


class Vessel1D:
    """The cells of a network's vessels, stacked in one state array.

    ``Vessel1D(specs, dx_max, initial_areas)`` meshes each vessel of
    ``specs`` and starts its cells at rest, at its entry of
    ``initial_areas``. ``U`` has shape (2, N): areas ``U[0]`` and flows
    ``U[1]`` of the N cells of all segments, one segment per vessel, in
    order. Each vessel's parameters are repeated per cell in a table of
    shape (rows, 2, N), both copies equal, so the kernels see arrays of the
    shape they work on. ``ids`` holds the vessel ids and ``bounds`` the
    first cell of each segment, then N.
    """

    def __init__(self, specs, dx_max: float, initial_areas):
        specs = tuple(specs)
        if not specs:
            raise ConfigurationError("a 1D stack needs at least one vessel")
        rows, counts, starts = [], [], [0]
        for spec, A_init in zip(specs, initial_areas):
            w, f = spec.wall, spec.fluid
            if not w.is_arterial:
                raise ConfigurationError(
                    f"1D junction/boundary closures require the arterial tube "
                    f"law (m = 1/2, n = 0); vessel {spec.vessel_id!r} has m = "
                    f"{w.m}, n = {w.n}")
            mesh = build_mesh(spec.length, dx_max)
            alpha = f.alpha
            rows.append((w.A0, w.K, f.rho, w.K / f.rho, alpha, 2.0 * alpha,
                         -f.k_R, mesh.dx, 0.5 * mesh.dx, 1e-12 * w.A0,
                         w.P0 + w.p_ext, A_init))
            counts.append(mesh.M)
            starts.append(starts[-1] + mesh.M)
        N = starts[-1]
        cells = np.repeat(np.array(rows).T, counts, axis=1)
        self._table = np.empty((len(cells), 2, N))
        self._table[:, 0] = cells
        self._table[:, 1] = cells
        self.U = np.zeros((2, N))
        self.U[0] = cells[_A_INIT]
        self.ids = tuple(spec.vessel_id for spec in specs)
        self.bounds = np.array(starts, dtype=np.intp)

    @cached_property
    def _segs(self) -> _Segments:
        firsts = self.bounds[:-1]
        lasts = self.bounds[1:] - 1
        N = int(self.bounds[-1])
        # per segment: A and q of the left face of its first cell, then of
        # the right face of its last cell
        ends = np.stack((firsts, 2 * N + firsts, N + lasts, 3 * N + lasts), axis=1)
        return _Segments(breaks=np.concatenate((firsts, N + self.bounds)),
                         ends=ends.ravel())

    @staticmethod
    def end_index(k: int, side: str) -> int:
        """Position of segment k's left or right end in ``end_states`` and
        in ``commit``'s flux list: A and F_A sit there, q and F_q next."""
        return 4 * k + (2 if side == "right" else 0)

    @cached_property
    def _ws(self) -> _Workspace:
        """The kernels' buffers, made at the first kernel call: a stack
        that is only built allocates none."""
        return _Workspace(self._table)

    def _locate(self, bad: np.ndarray) -> tuple[str, int, int, int]:
        """(vessel id, local index of the cell, first cell, end) of the
        first segment where the per-cell mask ``bad`` holds, at its first
        such cell."""
        i = int(np.flatnonzero(bad)[0])
        k = int(np.searchsorted(self.bounds, i, side="right")) - 1
        s, e = int(self.bounds[k]), int(self.bounds[k + 1])
        return self.ids[k], i - s, s, e

    def centre_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Velocity u = q/A and celerity c at every cell centre of the
        current state, in the workspace: valid until the next kernel call
        of this stack. A step computes them once and hands them to
        ``cfl_dt`` and to ``prepare``."""
        ws = self._ws
        A, q = self.U
        u = np.divide(q, A, out=ws.u_c)
        c = _celerity(np.sqrt(np.divide(A, ws.A0_c, out=ws.c_c), out=ws.c_c),
                      ws.K_rho_c, out=ws.c_c)
        return u, c

    def prepare(self, dt: float, centre) -> "_Prep":
        """Slope reconstruction, half-step evolution of the face values and
        the ADER-style source predictor, for every cell at once. ``centre``
        is the ``centre_values()`` of the current state. ``Ub`` and ``S_q``
        of the result are fresh arrays; the rest stays in the workspace."""
        ws = self._ws
        U = self.U
        A, q = U[0], U[1]
        slope = _eno_slope(U, ws.dx, self._segs.breaks, ws.eno)
        # face values W[var, face, cell], face 0 = left, 1 = right
        h_slope = np.multiply(ws.half_dx, slope, out=ws.tmp)
        np.subtract(U, h_slope, out=ws.WL)
        np.add(U, h_slope, out=ws.WR)
        Af, qf = ws.Af, ws.qf
        if not np.minimum.reduce(Af, axis=None) > 0.0:
            vid, cell, _, _ = self._locate(~(Af > 0.0).all(axis=0))
            raise CollapseError(
                f"non-positive reconstructed area in vessel {vid!r} at cell {cell}")

        # fluxes F[var, face, cell] = (qf, F_q); the half step adds
        # r (F_left - F_right) to both faces, and the friction source of
        # each face to its flow
        sx = np.sqrt(np.divide(Af, ws.A0, out=ws.sx), out=ws.sx)
        _momentum_flux(Af, qf, sx, ws.alpha, ws.K, ws.rho, out=ws.Fqf, tmp=ws.tmp)
        hdt = 0.5 * dt
        r_dF = np.subtract(ws.FfL, ws.FfR, out=ws.dv)
        np.multiply(np.divide(hdt, ws.dx, out=ws.tmp), r_dF, out=r_dF)
        Ub = np.add(ws.W, ws.dv_b)
        src = np.divide(np.multiply(ws.neg_kR, qf, out=ws.tmp), Af, out=ws.tmp)
        np.add(Ub[1], np.multiply(hdt, src, out=src), out=Ub[1])
        if not np.minimum.reduce(Ub[0], axis=None) > 0.0:
            vid, cell, _, _ = self._locate(~(Ub[0] > 0.0).all(axis=0))
            raise CollapseError(
                f"non-positive evolved face area in vessel {vid!r} at cell {cell}")

        # source predictor: S evaluated at Q + dt/2 (-J(Q) dQ/dx + S(Q))
        sA, sq = slope[0], slope[1]
        u, c = centre
        adv_q = np.multiply(c, c, out=ws.t_c)
        x = np.multiply(np.multiply(ws.alpha_c, u, out=ws.s_c), u, out=ws.s_c)
        np.multiply(np.subtract(adv_q, x, out=adv_q), sA, out=adv_q)
        x = np.multiply(np.multiply(ws.two_alpha_c, u, out=ws.s_c), sq, out=ws.s_c)
        np.add(adv_q, x, out=adv_q)
        A_pred = np.multiply(hdt, sq, out=ws.s_c)
        np.maximum(np.subtract(A, A_pred, out=A_pred), ws.A_floor_c, out=A_pred)
        q_pred = np.divide(np.multiply(ws.neg_kR_c, q, out=ws.c_c), A, out=ws.c_c)
        np.subtract(q_pred, adv_q, out=q_pred)
        np.add(q, np.multiply(hdt, q_pred, out=q_pred), out=q_pred)
        S_q = np.multiply(ws.neg_kR_c, q_pred)
        return _Prep(Ub=Ub, S_q=np.divide(S_q, A_pred, out=S_q))

    def end_states(self, prep: "_Prep") -> list[float]:
        """Evolved face states at the segment ends as floats: A and q at the
        left end of each segment, then at its right end, in segment order
        (see ``end_index``)."""
        return prep.Ub.take(self._segs.ends).tolist()

    def commit(self, dt: float, prep: "_Prep", flux) -> None:
        """Interior Riemann problems, conservative update and sanity checks.

        ``flux`` holds the boundary fluxes as one flat sequence in the order
        of ``end_states``: F_A, F_q at the left end of each segment, then at
        its right end, 4 values per segment (ValueError otherwise). ``U`` is
        written only once every check has passed."""
        ends = self._segs.ends
        flux = np.asarray(flux, dtype=float)
        if flux.shape != ends.shape:
            raise ValueError(f"commit takes {ends.size} boundary flux values, 4 "
                             f"for each of {ends.size // 4} segments, got {flux.size}")
        ws = self._ws
        U = self.U
        N = U.shape[1]
        Ub = prep.Ub
        Ab, qb = Ub[0], Ub[1]
        sx = np.sqrt(np.divide(Ab, ws.A0, out=ws.sx), out=ws.sx)
        u = np.divide(qb, Ab, out=ws.u_f)
        c = _celerity(sx, ws.K_rho, out=ws.c_f)
        Fb = ws.Fb
        np.copyto(Fb[0], qb)
        _momentum_flux(Ab, qb, sx, ws.alpha, ws.K, ws.rho, out=Fb[1], tmp=ws.tmp)
        # face fluxes F[var, face, cell]. Interface i + 1/2 is the right
        # face of cell i against the left face of cell i + 1; the pairs that
        # straddle two segments are then replaced by the boundary fluxes
        F = ws.F
        F_hll = _hll(Ub[:, 1, :-1], Ub[:, 0, 1:], ws.FbL, ws.FbR, u, c,
                     ws.F_hll, ws.hll)
        # a sum is finite only if every term is: the exact test runs only
        # on a sum that is not
        if (not math.isfinite(np.add.reduce(F_hll, axis=None))
                and not np.logical_and.reduce(np.isfinite(F_hll, out=ws.finite),
                                              axis=None)):
            bad = np.zeros(N, dtype=bool)
            bad[:-1] = ~ws.finite.all(axis=0)
            raise ConvergenceError(
                f"wave-speed estimate failure in vessel {self._locate(bad)[0]!r}")
        np.copyto(ws.F_in, F_hll)
        ws.F_flat[ends] = flux
        dU = np.subtract(F[:, 1], F[:, 0], out=ws.dv)
        np.multiply(np.divide(dt, ws.dx, out=ws.tmp), dU, out=dU)
        U_new = np.subtract(U, dU, out=ws.U_new)
        np.add(U_new[1], np.multiply(dt, prep.S_q, out=ws.t_c), out=U_new[1])
        A_new = U_new[0]
        if not np.minimum.reduce(A_new) > 0.0:
            vid, _, s, e = self._locate(~(A_new > 0.0))
            cell = int(np.argmin(A_new[s:e]))
            raise CollapseError(
                f"negative area in vessel {vid!r} at cell {cell}: "
                f"A = {A_new[s + cell]:.6g}")
        np.copyto(U, U_new)


@dataclass
class _Prep:
    """Evolved face states ``Ub[var, face, cell]`` (var 0 = A, 1 = q; face
    0 = left, 1 = right) and the predicted friction source per cell, in
    arrays of their own, outside the stack's workspace."""

    Ub: np.ndarray
    S_q: np.ndarray


def cfl_dt(cells: Vessel1D, CFL: float, centre) -> float:
    """Global time step: CFL * min over the cells of dx/(|u| + c); raises
    on supercritical flow. ``centre`` is the ``centre_values()`` of the
    current state."""
    ws = cells._ws
    u, c = centre
    # |q/A| is |q|/A bit for bit at A > 0: division rounds symmetrically
    # about zero
    u = np.abs(u, out=ws.s_c)
    if np.logical_or.reduce(np.greater_equal(u, c, out=ws.mask_c)):
        vid, _, s, e = cells._locate(ws.mask_c)
        cell = int(np.argmax(u[s:e] - c[s:e]))
        raise SupercriticalError(
            f"supercritical flow in vessel {vid!r} at cell {cell}: "
            f"|u| = {u[s + cell]:.6g} >= c = {c[s + cell]:.6g}")
    return CFL * float(np.minimum.reduce(
        np.divide(ws.dx_c, np.add(u, c, out=ws.t_c), out=ws.t_c)))


# ---------------------------------------------------------------------------
# Junction and boundary solves, on Python floats
# ---------------------------------------------------------------------------

class _End(NamedTuple):
    """Constants of the closure at one vessel end, built once per
    simulation: the vessel, its ``law`` (A0, K, rho, K/rho, P0 + p_ext,
    alpha) and its index ``i`` (``Vessel1D.end_index``): the end's evolved
    A and its F_A sit at i in ``end_states`` and in the flux list, q and
    F_q at i + 1. A terminal end also holds R1 of an RCR or R of a single
    resistance, R2 C (None for a single resistance), C and P_v."""

    vid: str
    law: tuple
    i: int
    R: float = 0.0
    RC: float | None = None
    C: float = 0.0
    P_v: float = 0.0


def _terminal(term, vid: str, law: tuple, i: int) -> _End:
    """The planned end of vessel ``vid`` at the terminal ``term`` (a single
    resistance is checked to be positive by ``Simulation1D``)."""
    if isinstance(term, Windkessel):
        return _End(vid, law, i, term.R1, term.R2 * term.C, term.C, term.P_v)
    return _End(vid, law, i, term.R, None, 0.0, term.P_v)


class _Junction(NamedTuple):
    """A junction's Newton solve for its member count, the constants it
    reads (see ``_junction_source``) and the end index of each member."""

    solve: Callable
    consts: tuple
    ends: tuple


def _junction(junction: Junction, ends) -> _Junction:
    """The planned ``junction``, given per member its end as (vessel, law,
    end index): the parent's right end, then each daughter's left end."""
    consts, p_refs = [], []
    for _, law, i in ends:
        A0, K, rho, K_rho, P_ref, alpha = law
        consts += (A0, K, K_rho, P_ref, alpha, rho, i)
        p_refs.append(abs(P_ref))
    members = ((junction.parent, "right"), *((d, "left") for d in junction.daughters))
    # the total pressures carry round-off of order eps * |P0 + p_ext|, so
    # their rows are scaled by at least that magnitude
    consts += (ends[0][1][2], max(p_refs), members)
    return _Junction(_junction_solver(len(ends)), tuple(consts),
                     tuple(i for _, _, i in ends))


def _junction_source(n: int) -> str:
    """Source of ``solve(e, c)``, the Newton solve of a junction of ``n``
    members, written out member by member.

    ``e`` is the list of evolved end states and ``c`` holds, per member,
    A0, K, K/rho, P0 + p_ext, alpha, rho and the index i of its A in ``e``
    (q follows); then the junction's rho (member 0's), max |P0 + p_ext| and
    the members. Member 0 is the parent's right end, where flow leaves the
    vessel into the junction (orientation sign s = +1); the others are the
    daughters' left ends (s = -1). The signs are written into the source as
    operators, which gives the bits of multiplying by +-1.0. Unknowns
    (A_k*, q_k*) per member; equations: (i) sum of oriented flows s_k q_k
    is zero, (ii) total pressure equal across members, (iii) the outgoing
    Riemann invariant u + 4c (member 0) or u - 4c (the others) of each
    member keeps its value at the evolved state. Each row is scaled: the
    mass row by max(1, |q|), the pressure rows by max(1, |pt_0|,
    max |P0 + p_ext|), the invariant rows by max(1, |W_k|); Newton stops
    below 1e-10 and halves its step up to ten times until the scaled
    residual falls.

    The Newton system has an arrow structure: each invariant row involves
    one member, each total-pressure row one member and member 0.
    Eliminating the members one at a time leaves one scalar equation, for
    the change X of member 0's total pressure, so a step takes O(n) float
    operations, needs no pivoting and treats mirrored members identically,
    bit for bit. Returns per member (A*, q*, F_q*), with F_q* = alpha q*^2
    / A* + (K A*/rho) x^m/(m+1) the momentum flux (the mass flux is q*).

    The code depends on n alone, never on a network's values, so it is
    compiled once per process for each member count."""
    K = range(n)
    s = ["+", *["-"] * (n - 1)]  # the orientation sign of each member
    fields = ("A0", "K", "Kr", "Pr", "al", "rh", "i")
    out = [", ".join(f"{f}_{k}" for k in K for f in fields)
           + ", rho, p_ref, members = c"]
    out += [f"A_{k} = e[i_{k}]; q_{k} = e[i_{k} + 1]" for k in K]
    out += [f"W_{k} = q_{k} / A_{k} {s[k]} 4.0 * sqrt(Kr_{k} * (0.5 * sqrt(A_{k} / A0_{k})))"
            for k in K]
    for k in K:
        out += [f"Ws_{k} = abs(W_{k})", f"if not Ws_{k} > 1.0: Ws_{k} = 1.0"]

    def evaluate(A, q, norm, fail):
        """Statements of the residual at the state in the locals
        ``{A}_k``, ``{q}_k``: sx_k, u_k, c_k, the rows mass, rp_k (total
        pressure of member k less member 0's) and r_k (invariant of member
        k less W_k), and in ``norm`` the max of |row| / row scale. ``fail``
        runs where an area is not positive. A NaN never replaces a maximum,
        as with ``max``."""
        lines = []
        for k in K:
            lines += [f"if {A}_{k} <= 0.0: {fail}",
                      f"sx_{k} = sqrt({A}_{k} / A0_{k})",
                      f"u_{k} = {q}_{k} / {A}_{k}",
                      f"c_{k} = sqrt(Kr_{k} * (0.5 * sx_{k}))",
                      f"pt_{k} = K_{k} * (sx_{k} - 1.0) + Pr_{k} + 0.5 * rho * u_{k} * u_{k}"]
        lines.append("mass = 0.0" + "".join(f" {s[k]} {q}_{k}" for k in K))
        lines.append("qs = 1.0")
        for k in K:
            lines += [f"x = abs({q}_{k})", "if x > qs: qs = x"]
        lines.append(f"{norm} = 0.0")
        for k in K:
            lines += [f"r_{k} = u_{k} {s[k]} 4.0 * c_{k} - W_{k}",
                      f"x = abs(r_{k}) / Ws_{k}", f"if x > {norm}: {norm} = x"]
        lines += ["ps = abs(pt_0)", "if not ps > 1.0: ps = 1.0",
                  "if p_ref > ps: ps = p_ref"]
        for k in K[1:]:
            lines += [f"rp_{k} = pt_{k} - pt_0",
                      f"x = abs(rp_{k}) / ps", f"if x > {norm}: {norm} = x"]
        lines += ["x = abs(mass) / qs", f"if x > {norm}: {norm} = x"]
        return lines

    out += evaluate("A", "q", "norm", "raise CollapseError("
                    "f'non-positive junction state for members {members}')")
    # Newton step J (dA, dq) = r. Invariant row k gives dq_k = g_k - h_k dA_k
    # with g_k = A_k r_k, h_k = s_k c_k - u_k; the total pressure of member
    # k then moves by m_k dA_k + n_k with m_k = rho c_k (c_k - s_k u_k) / A_k,
    # n_k = rho u_k r_k. Member 0 moves by X and member k by X + rp_k, and
    # the mass row, with s_k h_k / m_k = A_k / (rho c_k), fixes X.
    step = []
    for k in K:
        step += [f"g_{k} = A_{k} * r_{k}; h_{k} = {'-' if k else ''}c_{k} - u_{k}",
                 f"m_{k} = rho * c_{k} * (c_{k} {'+' if k else '-'} u_{k}) / A_{k}; "
                 f"n_{k} = rho * u_{k} * r_{k}",
                 f"w_{k} = A_{k} / (rho * c_{k})"]
    d = ["0.0", *(f"rp_{k}" for k in K[1:])]
    step += ["sg = 0.0" + "".join(f" {s[k]} g_{k}" for k in K),
             "sw = 0.0" + "".join(f" + w_{k}" for k in K),
             "swd = 0.0" + "".join(f" + w_{k} * ({d[k]} - n_{k})" for k in K),
             "X = (sg - mass - swd) / sw",
             "try:",
             *(f"    dA_{k} = (X + {d[k]} - n_{k}) / m_{k}" for k in K),
             "except ZeroDivisionError:",
             "    raise ConvergenceError("
             "f'critical flow makes the junction Jacobian singular for "
             "members {members}') from None",
             *(f"dq_{k} = g_{k} - h_{k} * dA_{k}" for k in K),
             "lam = 1.0",
             "for _ in range(10):",
             *(f"    An_{k} = A_{k} - lam * dA_{k}" for k in K),
             *(f"    qn_{k} = q_{k} - lam * dq_{k}" for k in K),
             *(f"    {line}" for line in evaluate("An", "qn", "trial",
                                                  "lam *= 0.5; continue")),
             "    if trial < norm: break",
             "    lam *= 0.5",
             "else:",
             "    raise ConvergenceError(f'junction Newton stalled at residual "
             "{norm:.3e} for members {members}')",
             *(f"A_{k} = An_{k}; q_{k} = qn_{k}" for k in K),
             "norm = trial"]
    out += ["for _ in range(50):",
            "    if norm < 1e-10: break",
            *(f"    {line}" for line in step),
            "else:",
            "    raise ConvergenceError(f'junction Newton did not converge: "
            "residual {norm:.3e} for members {members}')"]
    out += [f"if abs(u_{k}) >= c_{k}: raise SupercriticalError("
            f"f'supercritical junction state at {{members[{k}]}}')" for k in K]
    fluxes = (f"(A_{k}, q_{k}, al_{k} * q_{k} * q_{k} / A_{k}"
              f" + (K_{k} * A_{k} / rh_{k}) * ({_THIRD!r} * sx_{k}))" for k in K)
    out.append(f"return ({', '.join(fluxes)},)")
    return "\n".join(["def solve(e, c):", *(f"    {line}" for line in out), ""])


@cache
def _junction_solver(n: int):
    """The compiled ``solve`` of ``_junction_source(n)``."""
    namespace = {"sqrt": math.sqrt, "CollapseError": CollapseError,
                 "ConvergenceError": ConvergenceError,
                 "SupercriticalError": SupercriticalError}
    exec(compile(_junction_source(n), f"<1D junction of {n} members>", "exec"),
         namespace)
    return namespace["solve"]


def junction_solve(junction: _Junction, ends: list[float]):
    """Newton solve of a planned junction at the evolved end states
    ``ends`` (see ``_junction_source``): per member (A*, q*, F_q*)."""
    return junction.solve(ends, junction.consts)


#: the boundary Newton solves stop where the invariant's residual is below
#: _BC_TOL times max(1, |invariant|), and fail after their iteration limit
_BC_TOL, _INFLOW_MAX_ITER, _TERMINAL_MAX_ITER = 1e-10, 50, 100


def inflow_bc(end: _End, ends: list[float], q_in: float):
    """Left-end state with prescribed inflow rate, as (A*, q*, F_q*).

    q* = q_in and A* preserves the outgoing (left-running) invariant
    u - 4c of the evolved state.
    """
    A0, K, rho, K_rho, _, alpha = end.law
    A_i, q_i = ends[end.i], ends[end.i + 1]
    W = q_i / A_i - 4.0 * math.sqrt(K_rho * (0.5 * math.sqrt(A_i / A0)))
    A = A_i
    tol_abs = _BC_TOL * max(1.0, abs(W))
    for _ in range(_INFLOW_MAX_ITER):
        sx = math.sqrt(A / A0)
        c = math.sqrt(K_rho * (0.5 * sx))
        f = q_in / A - 4.0 * c - W
        if abs(f) < tol_abs:
            return A, q_in, alpha * q_in * q_in / A + (K * A / rho) * (_THIRD * sx)
        df = -q_in / (A * A) - c / A
        A_new = A - f / df
        if A_new <= 0:
            A_new = 0.5 * A
        A = A_new
    raise ConvergenceError(
        f"inflow boundary solve did not converge in vessel "
        f"{end.vid!r} (q_in = {q_in:.6g})")


def terminal_bc(end: _End, ends: list[float], P_wk: float, dt: float):
    """Right-end state coupled to a terminal element.

    The outgoing invariant u + 4c is preserved while the boundary flow
    satisfies q* = (p(A*) - P_wk)/R1, with the windkessel capacitor
    advanced by backward Euler using q* (solved simultaneously). Returns
    ((A*, q*, F_q*), updated P_wk); a single resistance keeps ``P_wk``.
    """
    A0, K, rho, K_rho, P_ref, alpha = end.law
    A_i, q_i = ends[end.i], ends[end.i + 1]
    W = q_i / A_i + 4.0 * math.sqrt(K_rho * (0.5 * math.sqrt(A_i / A0)))
    RC = end.RC
    if RC is not None:
        beta = 1.0 / (1.0 + dt / RC)
        R_eff = end.R + beta * dt / end.C
        P_c = beta * (P_wk + dt * end.P_v / RC)
    else:
        R_eff, P_c = end.R, end.P_v

    A = A_i
    tol_abs = _BC_TOL * max(1.0, abs(W))
    for _ in range(_TERMINAL_MAX_ITER):
        sx = math.sqrt(A / A0)
        c = math.sqrt(K_rho * (0.5 * sx))
        q = (K * (sx - 1.0) + P_ref - P_c) / R_eff
        g = q / A + 4.0 * c - W
        if abs(g) < tol_abs:
            break
        dpdA = rho * c * c / A
        dg = (dpdA / R_eff) / A - q / (A * A) + c / A
        A_new = A - g / dg
        if A_new <= 0:
            A_new = 0.5 * A
        A = A_new
    else:
        raise ConvergenceError(
            f"terminal boundary solve did not converge in vessel "
            f"{end.vid!r}")

    if RC is not None:
        P_wk = beta * (P_wk + dt * q / end.C + dt * end.P_v / RC)
    return (A, q, alpha * q * q / A + (K * A / rho) * (_THIRD * sx)), P_wk


# ---------------------------------------------------------------------------
# Network simulation
# ---------------------------------------------------------------------------

class Simulation1D:
    """All vessels of a network advanced with one global CFL time step.

    ``cells`` stacks every vessel's cells in network order; ``vessels``
    maps each vessel id to its (A, q) of shape (2, M), a view of
    ``cells.U``, made on first use. The inflow, junction and terminal
    closures are planned once, at the first step: each holds its constants
    as floats and the index of its end states and fluxes, so a step reads
    no view."""

    def __init__(self, network: Network, inflow: WaveformSeries,
                 dx_max: float = 0.2, CFL: float = 0.9):
        if not 0.0 < CFL <= 1.0:
            raise ValueError(f"CFL must be in (0, 1], got {CFL}")
        self.network = network
        self.inflow = inflow
        self.CFL = CFL
        self.cells = Vessel1D(network.vessels.values(), dx_max,
                              [network.initial_area(vid) for vid in network.vessels])
        self.P_wk = {}
        for vid, term in network.terminals.items():
            if isinstance(term, Windkessel):
                self.P_wk[vid] = network.initial_pressure
            elif term.R <= 0:
                raise ConfigurationError("terminal resistance must be positive")
        self.t = 0.0

    @cached_property
    def _plan(self) -> tuple[_End, list[_Junction], list[_End]]:
        """The planned inflow end, junctions and terminal ends. Built at
        the first step rather than here: a simulation that is only set up
        pays nothing for it, and the junction code compiles when needed."""
        network, cells = self.network, self.cells
        seg = {vid: k for k, vid in enumerate(network.vessels)}
        # (A0, K, rho, K/rho, P0 + p_ext, alpha) of each vessel, as floats
        laws = cells._table[[_A0, _K, _RHO, _K_RHO, _P_REF, _ALPHA], 0][
            :, cells.bounds[:-1]].T.tolist()

        def end(vid, side):
            """(vessel, law, end index) of a vessel end."""
            k = seg[vid]
            return vid, tuple(laws[k]), cells.end_index(k, side)

        return (_End(*end(network.root, "left")),
                [_junction(j, [end(j.parent, "right"),
                               *(end(d, "left") for d in j.daughters)])
                 for j in network.junctions],
                [_terminal(term, *end(vid, "right"))
                 for vid, term in network.terminals.items()])

    @cached_property
    def vessels(self) -> dict[str, np.ndarray]:
        """Each vessel's (A, q) of shape (2, M): a view of ``cells.U``,
        which every step updates in place."""
        U, b = self.cells.U, self.cells.bounds
        return {vid: U[:, s:e] for vid, s, e in zip(self.cells.ids, b, b[1:])}

    def step(self, until: float = math.inf) -> float:
        """Advance by the CFL step cut to end no later than ``until``;
        returns the step taken. The CFL step and ``prepare`` read the
        cell-centre velocity and celerity of one pass."""
        cells = self.cells
        centre = cells.centre_values()
        dt = min(cfl_dt(cells, self.CFL, centre), until - self.t)
        prep = cells.prepare(dt, centre)
        ends = cells.end_states(prep)
        flux = [0.0] * len(ends)

        root, junctions, terminals = self._plan
        # inflow at the network root (half-step time for second order)
        _, q, F = inflow_bc(root, ends, float(self.inflow(self.t + 0.5 * dt)))
        flux[root.i] = q
        flux[root.i + 1] = F

        for junction in junctions:
            for i, (_, q, F) in zip(junction.ends, junction_solve(junction, ends)):
                flux[i] = q
                flux[i + 1] = F

        P_wk = self.P_wk
        for term in terminals:
            (_, q, F), P_new = terminal_bc(term, ends, P_wk.get(term.vid, 0.0), dt)
            flux[term.i] = q
            flux[term.i + 1] = F
            if term.RC is not None:
                P_wk[term.vid] = P_new

        cells.commit(dt, prep, flux=flux)
        self.t += dt
        return dt

    @cached_property
    def _midpoints(self):
        """Flat indices in the stack's U of the area, then of the flow, at
        each vessel's midpoint cell, and the tube-law parameters there."""
        b = self.cells.bounds
        mids = b[:-1] + (b[1:] - b[:-1]) // 2
        T = self.cells._table[:, 0]
        N = self.cells.U.shape[1]
        return (np.concatenate((mids, N + mids)),
                T[_A0, mids], T[_K, mids], T[_P_REF, mids])


def run_1d(network: Network, inflow: WaveformSeries, t_end: float = 29.7,
           dx_max: float = 0.2, CFL: float = 0.9, T0: float = 1.1,
           sample_interval: float = 1e-3) -> RunResult:
    """Advance the network to t_end, sampling vessel midpoints.

    The first step to reach k * sample_interval is sampled for each k, and
    so is the step that ends at t_end. A sample copies (A, q) at the
    midpoint cells into a buffer made once, before the first step; the
    pressures of all samples are computed after the loop, with the tube law
    at each vessel's midpoint cell.

    The buffer's m + 3 rows, m = int(t_end / sample_interval), hold every
    sample. A sample before the last is taken below t_end - 1e-12, so at a
    time of at least k * sample_interval - 1e-12 for the current grid index
    k, which it then passes: it uses up its own k >= 1 with
    k * sample_interval < t_end. No k >= m + 2 is one, since it gives
    k * sample_interval > t_end + sample_interval - 3 ulp(t_end) > t_end
    for any ratio t_end / sample_interval below 1e15. So at most m + 1
    samples lie between the first and the last. ``np.empty`` touches no
    row, so a run's resident memory grows only by the rows it writes."""
    check_run_times(t_end, T0, sample_interval)
    sim = Simulation1D(network, inflow, dx_max=dx_max, CFL=CFL)
    vids = list(network.vessels)
    U, (take, A0, K, P_ref) = sim.cells.U, sim._midpoints
    rows = np.empty((int(t_end / sample_interval) + 3, take.size))
    U.take(take, out=rows[0], mode="clip")
    times = [0.0]
    k, next_sample = 1, sample_interval

    start = time.thread_time()
    while sim.t < t_end - 1e-12:
        sim.step(until=t_end)
        if sim.t >= min(next_sample, t_end) - 1e-12:
            U.take(take, out=rows[len(times)], mode="clip")
            times.append(sim.t)
            while next_sample <= sim.t + 1e-12:
                k += 1
                next_sample = k * sample_interval
    cpu = time.thread_time() - start

    t = np.array(times)
    A, q = rows[:len(t)].reshape(len(t), 2, -1).transpose(1, 0, 2)
    # (vessel, channel, sample), each series contiguous
    P = K * (np.sqrt(A / A0) - 1.0) + P_ref
    series = np.stack((P, q, A)).transpose(2, 0, 1).copy()
    vessels = {vid: {"P": series[k, 0], "Q": series[k, 1], "A": series[k, 2]}
               for k, vid in enumerate(vids)}
    cycles = t_end / T0
    return RunResult(t=t, vessels=vessels, cpu_seconds=cpu,
                     seconds_per_cycle=cpu / cycles)
