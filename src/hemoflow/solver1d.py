"""Second-order finite-volume (MUSCL-Hancock) solver for the 1D equations.

Conserved variables per cell are (A, q). The scheme reconstructs linear
slopes with the first-degree ENO criterion, evolves face-extrapolated
values a half step, solves interface Riemann problems with an HLL flux
(Davis wave-speed estimates), and treats the friction source with a
half-step predictor in the spirit of ADER schemes.

The cells of every vessel of a network live in one stacked (A, q) array,
with a per-cell copy of each vessel's parameters and the segment bounds
marking the vessel ends, so each stage of a step is one numpy pass over the
whole network. A single vessel is the one-segment case of the same stack.

Network coupling enforces, at every junction and boundary, conservation of
mass, continuity of total pressure and preservation of the outgoing
generalized Riemann invariants u -/+ 4c (arterial tube law, m = 1/2, n = 0).
Terminals are RCR windkessels advanced implicitly alongside the boundary
solve. These closures work on Python floats, a few unknowns at a time. All
vessels advance with one global CFL-limited time step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    CollapseError,
    ConfigurationError,
    ConvergenceError,
    SupercriticalError,
)
from .netio import Network, WaveformSeries, Windkessel
from .solver0d import RunResult
from .vessel import VesselSpec

#: m / (m + 1) of the arterial tube law, in the momentum flux
_THIRD = 0.5 / 1.5

# rows of the per-cell parameter table
(_A0, _K, _RHO, _K_RHO, _ALPHA, _TWO_ALPHA, _NEG_KR, _DX, _HALF_DX,
 _A_FLOOR, _P_REF, _A_INIT) = range(12)


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of M cells of width dx over a vessel."""

    M: int
    dx: float

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.M) + 0.5) * self.dx


def build_mesh(length: float, dx_max: float) -> Mesh1D:
    """M = max(ceil(l/dx_max), 2); dx = l/M."""
    if length <= 0 or dx_max <= 0:
        raise ValueError(f"length and dx_max must be positive, got {length}, {dx_max}")
    M = max(math.ceil(length / dx_max - 1e-12), 2)
    return Mesh1D(M=M, dx=length / M)


# -- kernels shared by the stacked cells and the single-vessel API -----------

def _momentum_flux(A, q, sx, alpha, K, rho, out=None):
    """alpha q^2/A + (K A/rho) (m/(m+1)) x^m, with sx = sqrt(A/A0)."""
    return np.add(alpha * q * q / A, (K * A / rho) * (_THIRD * sx), out=out)


def _celerity(sx, K_rho):
    """sqrt((K/rho) m x^m), with sx = sqrt(A/A0)."""
    return np.sqrt(K_rho * (0.5 * sx))


def _hll(AL, qL, uL, cL, FL_q, AR, qR, uR, cR, FR_q):
    """HLL flux with Davis wave-speed estimates; the mass flux is q."""
    SL = np.minimum(uL - cL, uR - cR)
    SR = np.maximum(uL + cL, uR + cR)
    with np.errstate(divide="ignore", invalid="ignore"):
        span = SR - SL
        SLSR = SL * SR
        Fh_A = (SR * qL - SL * qR + SLSR * (AR - AL)) / span
        Fh_q = (SR * FL_q - SL * FR_q + SLSR * (qR - qL)) / span
    left, right = SL >= 0.0, SR <= 0.0
    F_A = np.where(left, qL, np.where(right, qR, Fh_A))
    F_q = np.where(left, FL_q, np.where(right, FR_q, Fh_q))
    return F_A, F_q


def _eno_slope(U: np.ndarray, dx, breaks=None) -> np.ndarray:
    """First-degree ENO slope: the smaller-magnitude one-sided difference,
    one-sided at the ends of each segment.

    The segments are runs of the flattened ``U``; ``breaks``
    lists where each one starts, and the end of the last one. By default
    each row of ``U`` is a segment. The difference across a break is set to
    infinity, so that the cells next to it take their other side."""
    u = U.reshape(-1)
    if breaks is None:
        breaks = np.arange(0, u.size + 1, U.shape[-1])
    d = np.empty(u.size + 1)
    np.subtract(u[1:], u[:-1], out=d[1:-1])
    d[breaks] = np.inf
    ad = np.abs(d)
    s = np.where(ad[:-1] <= ad[1:], d[:-1], d[1:])
    return s.reshape(U.shape) / dx


class _Segments(NamedTuple):
    """Index arrays of a stack's segment ends (N cells in all)."""

    breaks: np.ndarray  # segment starts in the flattened (A, q), and 2N
    ends: np.ndarray  # flat indices of the end face states in _Prep.Ub
    fluxes: np.ndarray  # flat indices of the boundary fluxes in commit


class Vessel1D:
    """Cells of one or more vessels, stacked in one state array.

    ``U`` has shape (2, N): areas ``A = U[0]`` and flows ``q = U[1]`` of the
    N cells of all segments, one segment per vessel, in order. Each vessel's
    parameters are repeated per cell in a table of shape (rows, 2, N), both
    copies equal, so the kernels see arrays of the shape they work on.
    ``bounds`` holds the first cell of each segment and N.

    ``Vessel1D(spec, dx_max, initial_area)`` is one vessel, the one-segment
    case; ``Vessel1D.stack(specs, dx_max, initial_areas)`` stacks several.
    ``segments`` holds one single-vessel ``Vessel1D`` per segment whose
    ``U`` (and so ``A`` and ``q``) are views into the stack's arrays, which
    every step updates in place. The vessel-level attributes (``spec``,
    ``mesh``, ``A0``, ``K``, ``rho``, ``alpha``, ``k_R``, ``law``) and the
    pointwise kernels belong to single vessels. The closures read ``law``
    = (A0, K, rho, K/rho, P0 + p_ext, alpha) as Python floats.
    """

    def __init__(self, spec: VesselSpec, dx_max: float,
                 initial_area: float | None = None):
        self._build((spec,), dx_max, (initial_area,))

    @classmethod
    def stack(cls, specs, dx_max: float, initial_areas=None) -> "Vessel1D":
        """The cells of ``specs``, in order, as one stack."""
        specs = tuple(specs)
        if initial_areas is None:
            initial_areas = (None,) * len(specs)
        self = cls.__new__(cls)
        self._build(specs, dx_max, initial_areas)
        return self

    def _build(self, specs, dx_max, initial_areas) -> None:
        if not specs:
            raise ConfigurationError("a 1D stack needs at least one vessel")
        rows, meshes, starts = [], [], [0]
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
                         w.P0 + w.p_ext, w.A0 if A_init is None else A_init))
            meshes.append(mesh)
            starts.append(starts[-1] + mesh.M)
        N = starts[-1]
        cells = np.repeat(np.array(rows).T, [m.M for m in meshes], axis=1)
        self._table = np.empty((len(cells), 2, N))
        self._table[:, 0] = cells
        self._table[:, 1] = cells
        self.U = np.zeros((2, N))
        self.U[0] = cells[_A_INIT]
        self.ids = tuple(spec.vessel_id for spec in specs)
        self._specs, self._rows, self._meshes, self._starts = specs, rows, meshes, starts
        if len(specs) == 1:
            self._set_vessel(specs[0], meshes[0], rows[0])

    def _view(self, k: int) -> "Vessel1D":
        """Single-vessel Vessel1D over segment k, sharing the arrays."""
        s, e = self._starts[k], self._starts[k + 1]
        view = Vessel1D.__new__(Vessel1D)
        view.U = self.U[:, s:e]
        view._table = self._table[:, :, s:e]
        view.ids = (self.ids[k],)
        view._starts = [0, e - s]
        view._set_vessel(self._specs[k], self._meshes[k], self._rows[k])
        return view

    def _set_vessel(self, spec, mesh, row) -> None:
        A0, K, rho, K_rho, alpha, _, neg_kR, _, _, _, P_ref, _ = row
        self.spec = spec
        self.mesh = mesh
        self.A0, self.K, self.rho, self.alpha, self.k_R = A0, K, rho, alpha, -neg_kR
        self.law = (A0, K, rho, K_rho, P_ref, alpha)

    @property
    def segments(self) -> list["Vessel1D"]:
        """One single-vessel Vessel1D per segment, made on first use; a
        single vessel is its own (and does not keep itself in a list, which
        would make it a reference cycle)."""
        if len(self.ids) == 1:
            return [self]
        views = self.__dict__.get("_views")
        if views is None:
            views = self._views = [self._view(k) for k in range(len(self.ids))]
        return views

    @cached_property
    def bounds(self) -> np.ndarray:
        """First cell of each segment, then N."""
        return np.array(self._starts, dtype=np.intp)

    # -- state ------------------------------------------------------------

    @property
    def A(self) -> np.ndarray:
        return self.U[0]

    @A.setter
    def A(self, value) -> None:
        self.U[0] = value

    @property
    def q(self) -> np.ndarray:
        return self.U[1]

    @q.setter
    def q(self, value) -> None:
        self.U[1] = value

    @cached_property
    def _segs(self) -> _Segments:
        firsts = self.bounds[:-1]
        lasts = self.bounds[1:] - 1
        N = int(self.bounds[-1])
        left = np.stack((firsts, N + firsts), axis=1).ravel()
        right = np.stack((2 * N + lasts, 3 * N + lasts), axis=1).ravel()
        return _Segments(
            breaks=np.concatenate((firsts, N + self.bounds)),
            ends=np.concatenate((firsts, 2 * N + firsts, N + lasts, 3 * N + lasts)),
            fluxes=np.concatenate((left, right)))

    def _locate(self, bad: np.ndarray) -> tuple[str, int, int, int]:
        """(vessel id, local index of the cell, first cell, end) of the
        first segment where the per-cell mask ``bad`` holds, at its first
        such cell."""
        i = int(np.flatnonzero(bad)[0])
        k = int(np.searchsorted(self.bounds, i, side="right")) - 1
        s, e = int(self.bounds[k]), int(self.bounds[k + 1])
        return self.ids[k], i - s, s, e

    # -- pointwise kernels of a single vessel (scalars or arrays) ----------

    def pressure(self, A):
        return self.K * (np.sqrt(A / self.A0) - 1.0) + self.law[4]

    def celerity(self, A):
        return _celerity(np.sqrt(A / self.A0), self.law[3])

    def flux(self, A, q):
        sx = np.sqrt(A / self.A0)
        return q, _momentum_flux(A, q, sx, self.alpha, self.K, self.rho)

    def interface_flux(self, AL, qL, AR, qR):
        """HLL flux with Davis wave-speed estimates (vectorized)."""
        sL, sR = np.sqrt(AL / self.A0), np.sqrt(AR / self.A0)
        K_rho = self.law[3]
        F_A, F_q = _hll(
            AL, qL, qL / AL, _celerity(sL, K_rho),
            _momentum_flux(AL, qL, sL, self.alpha, self.K, self.rho),
            AR, qR, qR / AR, _celerity(sR, K_rho),
            _momentum_flux(AR, qR, sR, self.alpha, self.K, self.rho))
        if not (np.all(np.isfinite(F_A)) and np.all(np.isfinite(F_q))):
            raise ConvergenceError(
                f"wave-speed estimate failure in vessel {self.ids[0]!r}")
        return F_A, F_q

    @property
    def mid_cell(self) -> int:
        return self.mesh.M // 2

    # -- stacked MUSCL-Hancock pieces ---------------------------------------

    def max_stable_dt(self) -> float:
        """min over cells of dx/(|u| + c); raises on supercritical flow."""
        T = self._table[:, 0]
        A, q = self.U
        u = np.abs(q) / A
        c = _celerity(np.sqrt(A / T[_A0]), T[_K_RHO])
        if (u >= c).any():
            vid, _, s, e = self._locate(u >= c)
            cell = int(np.argmax(u[s:e] - c[s:e]))
            raise SupercriticalError(
                f"supercritical flow in vessel {vid!r} at cell {cell}: "
                f"|u| = {u[s + cell]:.6g} >= c = {c[s + cell]:.6g}")
        return float((T[_DX] / (u + c)).min())

    def prepare(self, dt: float) -> "_Prep":
        """Slope reconstruction, half-step evolution of the face values and
        the ADER-style source predictor, for every cell at once."""
        T = self._table
        U = self.U
        A, q = U
        N = U.shape[1]
        slope = _eno_slope(U, T[_DX], self._segs.breaks)
        # face values W[var, face, cell], face 0 = left, 1 = right
        h_slope = T[_HALF_DX] * slope
        W = np.empty((2, 2, N))
        np.subtract(U, h_slope, out=W[:, 0])
        np.add(U, h_slope, out=W[:, 1])
        Af, qf = W
        if not Af.min() > 0.0:
            vid, cell, _, _ = self._locate(~(Af > 0.0).all(axis=0))
            raise CollapseError(
                f"non-positive reconstructed area in vessel {vid!r} at cell {cell}")

        # fluxes F[var, face, cell]; the half step adds r (F_left - F_right)
        # to both faces, and the friction source of each face to its flow
        F = np.empty((2, 2, N))
        F[0] = qf
        _momentum_flux(Af, qf, np.sqrt(Af / T[_A0]), T[_ALPHA], T[_K], T[_RHO],
                       out=F[1])
        hdt = 0.5 * dt
        r_dF = (hdt / T[_DX]) * (F[:, 0] - F[:, 1])
        Ub = np.empty((2, 2, N))
        np.add(W[:, 0], r_dF, out=Ub[:, 0])
        np.add(W[:, 1], r_dF, out=Ub[:, 1])
        Ub[1] += hdt * (T[_NEG_KR] * qf / Af)
        if not Ub[0].min() > 0.0:
            vid, cell, _, _ = self._locate(~(Ub[0] > 0.0).all(axis=0))
            raise CollapseError(
                f"non-positive evolved face area in vessel {vid!r} at cell {cell}")

        # source predictor: S evaluated at Q + dt/2 (-J(Q) dQ/dx + S(Q))
        T1 = T[:, 0]
        sA, sq = slope
        u = q / A
        c = _celerity(np.sqrt(A / T1[_A0]), T1[_K_RHO])
        adv_q = (c * c - T1[_ALPHA] * u * u) * sA + T1[_TWO_ALPHA] * u * sq
        A_pred = np.maximum(A - hdt * sq, T1[_A_FLOOR])
        q_pred = q + hdt * (T1[_NEG_KR] * q / A - adv_q)
        return _Prep(Ub=Ub, S_q=T1[_NEG_KR] * q_pred / A_pred)

    def end_states(self, prep: "_Prep") -> list[float]:
        """Evolved face states at the segment ends as floats: left-end
        areas, left-end flows, right-end areas, right-end flows, each in
        segment order."""
        return prep.Ub.take(self._segs.ends).tolist()

    def commit(self, dt: float, prep: "_Prep", left_flux, right_flux) -> None:
        """Interior Riemann problems, conservative update and sanity checks.

        ``left_flux`` and ``right_flux`` are the (F_A, F_q) at the left and
        right end of each segment: one pair for a single segment, or a
        sequence of pairs in segment order."""
        T = self._table
        U = self.U
        N = U.shape[1]
        Ab, qb = prep.Ub
        sx = np.sqrt(Ab / T[_A0])
        u = qb / Ab
        c = _celerity(sx, T[_K_RHO])
        Fq = _momentum_flux(Ab, qb, sx, T[_ALPHA], T[_K], T[_RHO])
        # face fluxes F[face, var, cell]. Interface i + 1/2 is the right
        # face of cell i against the left face of cell i + 1; the pairs that
        # straddle two segments are then replaced by the boundary fluxes
        F = np.empty((2, 2, N))
        F[1, 0, :-1], F[1, 1, :-1] = _hll(
            Ab[1, :-1], qb[1, :-1], u[1, :-1], c[1, :-1], Fq[1, :-1],
            Ab[0, 1:], qb[0, 1:], u[0, 1:], c[0, 1:], Fq[0, 1:])
        if not np.isfinite(F[1, :, :-1]).all():
            bad = np.zeros(N, dtype=bool)
            bad[:-1] = ~np.isfinite(F[1, :, :-1]).all(axis=0)
            raise ConvergenceError(
                f"wave-speed estimate failure in vessel {self._locate(bad)[0]!r}")
        F[0, :, 1:] = F[1, :, :-1]
        F.ravel()[self._segs.fluxes] = np.ravel(
            np.array((left_flux, right_flux), dtype=float))
        U_new = U - (dt / T[_DX]) * (F[1] - F[0])
        U_new[1] += dt * prep.S_q
        A_new = U_new[0]
        if not A_new.min() > 0.0:
            vid, _, s, e = self._locate(~(A_new > 0.0))
            cell = int(np.argmin(A_new[s:e]))
            raise CollapseError(
                f"negative area in vessel {vid!r} at cell {cell}: "
                f"A = {A_new[s + cell]:.6g}")
        U[...] = U_new


@dataclass
class _Prep:
    """Evolved face states ``Ub[var, face, cell]`` (var 0 = A, 1 = q; face
    0 = left, 1 = right) and the predicted friction source per cell."""

    Ub: np.ndarray
    S_q: np.ndarray

    @property
    def AbL(self) -> np.ndarray:
        return self.Ub[0, 0]

    @property
    def AbR(self) -> np.ndarray:
        return self.Ub[0, 1]

    @property
    def qbL(self) -> np.ndarray:
        return self.Ub[1, 0]

    @property
    def qbR(self) -> np.ndarray:
        return self.Ub[1, 1]


def cfl_dt(vessels, CFL: float) -> float:
    """Global time step: CFL * min over cells of dx/(|u| + c)."""
    if not 0.0 < CFL <= 1.0:
        raise ValueError(f"CFL must be in (0, 1], got {CFL}")
    dt = math.inf
    for ves in vessels:
        dt = min(dt, ves.max_stable_dt())
    return CFL * dt


def muscl_hancock_step(ves: Vessel1D, dt: float, left_flux, right_flux) -> None:
    """Advance one stack one step with externally supplied boundary
    fluxes (the BC/junction layer provides them)."""
    prep = ves.prepare(dt)
    ves.commit(dt, prep, left_flux, right_flux)


def reflective_flux(ves: Vessel1D, prep: _Prep, end: str) -> tuple[float, float]:
    """Sealed-end boundary flux of a single vessel: mirror the evolved
    face state."""
    if end == "left":
        A, q = prep.AbL[0], prep.qbL[0]
        F_A, F_q = ves.interface_flux(np.array([A]), np.array([-q]),
                                      np.array([A]), np.array([q]))
    else:
        A, q = prep.AbR[-1], prep.qbR[-1]
        F_A, F_q = ves.interface_flux(np.array([A]), np.array([q]),
                                      np.array([A]), np.array([-q]))
    return float(F_A[0]), float(F_q[0])


# ---------------------------------------------------------------------------
# Junction and boundary solves, on Python floats
# ---------------------------------------------------------------------------

def _boundary_flux(law, A: float, q: float) -> tuple[float, float]:
    """Physical flux (q, alpha q^2/A + (K A/rho) x^m/(m+1)) at a float state."""
    A0, K, rho, _, _, alpha = law
    return q, alpha * q * q / A + (K * A / rho) * (_THIRD * math.sqrt(A / A0))


@dataclass(frozen=True)
class JunctionNode:
    """Vessels meeting at a junction: (vessel id, end) with end in
    {'left', 'right'}; orientation sign +1 for a right end (flow leaves the
    vessel into the junction), -1 for a left end."""

    members: tuple[tuple[str, str], ...]
    signs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.members) < 2:
            raise ConfigurationError("a junction needs at least two vessel ends")
        object.__setattr__(self, "signs", tuple(
            1.0 if end == "right" else -1.0 for _, end in self.members))


def junction_solve(node: JunctionNode, vessels, states: list[tuple[float, float]],
                   tol: float = 1e-10, max_iter: int = 50):
    """Newton solve of the 2N junction system.

    Unknowns (A_k*, q_k*) per member; equations: (i) sum of oriented flows
    is zero, (ii) total pressure equal across members, (iii) the outgoing
    Riemann invariant u + 4c (right end) or u - 4c (left end) of each
    member keeps its value at the supplied evolved boundary state.

    ``vessels`` maps the member ids to single-vessel ``Vessel1D``. The
    Newton system has an arrow structure: each invariant row involves one
    member, each total-pressure row one member and member 0. Eliminating
    the members one at a time leaves one scalar equation, for the change X
    of member 0's total pressure, so a step takes O(N) float operations,
    needs no pivoting and treats mirrored members identically, bit for bit.
    """
    members = node.members
    N = len(members)
    sqrt = math.sqrt
    # per member: A0, K, K/rho, P0 + p_ext, orientation sign s, 4 s
    consts = []
    for (vid, _), s in zip(members, node.signs):
        A0, K, _, K_rho, P_ref, _ = vessels[vid].law
        consts.append((A0, K, K_rho, P_ref, s, 4.0 * s))
    rho = vessels[members[0][0]].law[2]
    W = [q / A + fs * sqrt(K_rho * (0.5 * sqrt(A / A0)))
         for (A, q), (A0, _, K_rho, _, _, fs) in zip(states, consts)]
    W_scale = [max(1.0, abs(w)) for w in W]
    # the total pressures carry round-off of order eps * |P0 + p_ext|, so
    # their rows are scaled by at least that magnitude
    p_ref = max(abs(k[3]) for k in consts)

    def evaluate(A, q):
        """(residual rows, max of |row| / row scale, u, c) at (A, q), or
        None outside the domain. Rows: oriented mass flux, total pressure
        of member k less member 0's, invariant of member k less W_k."""
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
        # Newton step J (dA, dq) = r. Invariant row k gives
        # dq_k = g_k - h_k dA_k with g_k = A_k r_k, h_k = s_k c_k - u_k; the
        # total pressure of member k then moves by m_k dA_k + n_k with
        # m_k = rho c_k (c_k - s_k u_k) / A_k, n_k = rho u_k r_k. Member 0
        # moves by X and member k by X + (its total-pressure row), and the
        # mass row, with s_k h_k / m_k = A_k / (rho c_k), fixes X.
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


def inflow_bc(ves: Vessel1D, boundary_state: tuple[float, float],
              q_in: float, tol: float = 1e-10, max_iter: int = 50):
    """Left-end state with prescribed inflow rate.

    q* = q_in and A* preserves the outgoing (left-running) invariant
    u - 4c of the interior state.
    """
    A0, _, _, K_rho, _, _ = ves.law
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
    raise ConvergenceError(
        f"inflow boundary solve did not converge in vessel "
        f"{ves.ids[0]!r} (q_in = {q_in:.6g})")


def terminal_bc(ves: Vessel1D, boundary_state: tuple[float, float],
                terminal, P_wk: float, dt: float,
                tol: float = 1e-10, max_iter: int = 100):
    """Right-end state coupled to a terminal element.

    The outgoing invariant u + 4c is preserved while the boundary flow
    satisfies q* = (p(A*) - P_wk)/R1, with the windkessel capacitor
    advanced by backward Euler using q* (solved simultaneously). Returns
    ((A*, q*), updated P_wk).
    """
    A0, K, rho, K_rho, P_ref, _ = ves.law
    A_i, q_i = boundary_state
    W = q_i / A_i + 4.0 * math.sqrt(K_rho * (0.5 * math.sqrt(A_i / A0)))
    if isinstance(terminal, Windkessel):
        beta = 1.0 / (1.0 + dt / (terminal.R2 * terminal.C))
        R_eff = terminal.R1 + beta * dt / terminal.C
        P_c = beta * (P_wk + dt * terminal.P_v / (terminal.R2 * terminal.C))
    else:
        R_eff = terminal.R
        P_c = terminal.P_v
        if R_eff <= 0:
            raise ConfigurationError("terminal resistance must be positive")

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
        raise ConvergenceError(
            f"terminal boundary solve did not converge in vessel "
            f"{ves.ids[0]!r}")

    q_star = (K * (math.sqrt(A / A0) - 1.0) + P_ref - P_c) / R_eff
    if isinstance(terminal, Windkessel):
        P_wk = beta * (P_wk + dt * q_star / terminal.C
                       + dt * terminal.P_v / (terminal.R2 * terminal.C))
    return (A, q_star), P_wk


# ---------------------------------------------------------------------------
# Network simulation
# ---------------------------------------------------------------------------

class Simulation1D:
    """All vessels of a network advanced with one global CFL time step.

    ``cells`` stacks every vessel's cells in network order; ``vessels``
    maps each vessel id to its single-vessel view, made on first use."""

    def __init__(self, network: Network, inflow: WaveformSeries,
                 dx_max: float = 0.2, CFL: float = 0.9):
        self.network = network
        self.inflow = inflow
        self.CFL = CFL
        vids = list(network.vessels)
        self.cells = Vessel1D.stack(
            network.vessels.values(), dx_max,
            [network.initial_area(vid) for vid in vids])
        seg = {vid: k for k, vid in enumerate(vids)}
        self.junctions = [
            JunctionNode(members=((j.parent, "right"),
                                  *((d, "left") for d in j.daughters)))
            for j in network.junctions]
        self.P_wk = {vid: network.initial_pressure
                     for vid, term in network.terminals.items()
                     if isinstance(term, Windkessel)}
        self.t = 0.0
        # (segment, right end?) of each junction member, for the step
        self._junction_ends = [
            [(seg[vid], end == "right") for vid, end in node.members]
            for node in self.junctions]
        self._root = seg[network.root]
        self._terminals = [(vid, seg[vid], term)
                           for vid, term in network.terminals.items()]

    @cached_property
    def vessels(self) -> dict[str, Vessel1D]:
        return dict(zip(self.network.vessels, self.cells.segments))

    def step(self, dt: float | None = None) -> float:
        cells = self.cells
        if dt is None:
            dt = cfl_dt((cells,), self.CFL)
        prep = cells.prepare(dt)
        ends = cells.end_states(prep)
        segments = cells.segments
        n = len(segments)
        left_flux: list = [None] * n
        right_flux: list = [None] * n

        # inflow at the network root (half-step time for second order)
        k = self._root
        ves = segments[k]
        A_s, q_s = inflow_bc(ves, (ends[k], ends[n + k]),
                             float(self.inflow(self.t + 0.5 * dt)))
        left_flux[k] = _boundary_flux(ves.law, A_s, q_s)

        # junctions
        for node, members in zip(self.junctions, self._junction_ends):
            states = [(ends[2 * n + k], ends[3 * n + k]) if right
                      else (ends[k], ends[n + k]) for k, right in members]
            stars = junction_solve(node, self.vessels, states)
            for (k, right), (A_s, q_s) in zip(members, stars):
                F = _boundary_flux(segments[k].law, A_s, q_s)
                if right:
                    right_flux[k] = F
                else:
                    left_flux[k] = F

        # terminals
        P_wk = self.P_wk
        for vid, k, term in self._terminals:
            ves = segments[k]
            (A_s, q_s), P_new = terminal_bc(ves, (ends[2 * n + k], ends[3 * n + k]),
                                            term, P_wk.get(vid, 0.0), dt)
            right_flux[k] = _boundary_flux(ves.law, A_s, q_s)
            if vid in P_wk:
                P_wk[vid] = P_new

        cells.commit(dt, prep, left_flux, right_flux)
        self.t += dt
        return dt

    @cached_property
    def _midpoints(self):
        """Stack index of each vessel's midpoint cell and the tube-law
        parameters there."""
        mids = np.array([int(b) + ves.mid_cell for b, ves
                         in zip(self.cells.bounds, self.cells.segments)])
        T = self.cells._table[:, 0]
        return mids, T[_A0, mids], T[_K, mids], T[_P_REF, mids]

    def midpoint_samples(self) -> np.ndarray:
        """(P, q, A) at every vessel's midpoint cell, shape (3, vessels)."""
        mids, A0, K, P_ref = self._midpoints
        A, q = self.cells.U[:, mids]
        return np.stack((K * (np.sqrt(A / A0) - 1.0) + P_ref, q, A))


def run_1d(network: Network, inflow: WaveformSeries, t_end: float = 29.7,
           dx_max: float = 0.2, CFL: float = 0.9, T0: float = 1.1,
           sample_interval: float = 1e-3) -> RunResult:
    """Advance the network to t_end, sampling vessel midpoints."""
    sim = Simulation1D(network, inflow, dx_max=dx_max, CFL=CFL)
    vids = list(network.vessels)
    times = [0.0]
    records = [sim.midpoint_samples()]
    next_sample = sample_interval

    start = time.thread_time()
    while sim.t < t_end - 1e-12:
        dt = cfl_dt((sim.cells,), sim.CFL)
        dt = min(dt, t_end - sim.t)
        sim.step(dt)
        if sim.t >= next_sample - 1e-12:
            times.append(sim.t)
            records.append(sim.midpoint_samples())
            while next_sample <= sim.t + 1e-12:
                next_sample += sample_interval
    cpu = time.thread_time() - start

    t = np.array(times)
    # (vessel, channel, sample), each series contiguous
    series = np.array(records).transpose(2, 1, 0).copy()
    vessels = {vid: {"P": series[k, 0], "Q": series[k, 1], "A": series[k, 2]}
               for k, vid in enumerate(vids)}
    cycles = t_end / T0
    return RunResult(t=t, vessels=vessels, cpu_seconds=cpu,
                     seconds_per_cycle=cpu / cycles)
