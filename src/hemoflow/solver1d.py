"""Second-order finite-volume (MUSCL-Hancock) solver for the 1D equations.

Conserved variables per cell are (A, q). The scheme reconstructs linear
slopes with the first-degree ENO criterion, evolves face-extrapolated
values a half step, solves interface Riemann problems with an HLL flux
(Davis wave-speed estimates), and treats the friction source with a
half-step predictor in the spirit of ADER schemes.

Network coupling enforces, at every junction and boundary, conservation of
mass, continuity of total pressure and preservation of the outgoing
generalized Riemann invariants u -/+ 4c (arterial tube law, m = 1/2, n = 0).
Terminals are RCR windkessels advanced implicitly alongside the boundary
solve. All vessels advance with one global CFL-limited time step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of M cells of width dx over a vessel."""

    M: int
    dx: float
    centers: np.ndarray


def build_mesh(length: float, dx_max: float) -> Mesh1D:
    """M = max(ceil(l/dx_max), 2); dx = l/M."""
    if length <= 0 or dx_max <= 0:
        raise ValueError(f"length and dx_max must be positive, got {length}, {dx_max}")
    M = max(math.ceil(length / dx_max - 1e-12), 2)
    dx = length / M
    centers = (np.arange(M) + 0.5) * dx
    return Mesh1D(M=M, dx=dx, centers=centers)


class Vessel1D:
    """Discretized vessel: mesh, conserved arrays and flux/source kernels."""

    def __init__(self, spec: VesselSpec, dx_max: float,
                 initial_area: float | None = None):
        self.spec = spec
        self.mesh = build_mesh(spec.length, dx_max)
        w, f = spec.wall, spec.fluid
        self.A0 = w.A0
        self.K = w.K
        self.m = w.m
        self.n = w.n
        self.rho = f.rho
        self.alpha = f.alpha
        self.k_R = f.k_R
        A_init = w.A0 if initial_area is None else initial_area
        self.A = np.full(self.mesh.M, A_init, dtype=float)
        self.q = np.zeros(self.mesh.M)

    # -- pointwise/vectorized kernels (accept scalars or arrays) ----------

    def pressure(self, A):
        x = A / self.A0
        return self.K * (x ** self.m - x ** self.n) + self.spec.wall.P0 \
            + self.spec.wall.p_ext

    def celerity(self, A):
        x = A / self.A0
        return np.sqrt((self.K / self.rho)
                       * (self.m * x ** self.m - self.n * x ** self.n))

    def flux(self, A, q):
        x = A / self.A0
        elastic = (self.K * A / self.rho) * (
            self.m / (self.m + 1.0) * x ** self.m
            - self.n / (self.n + 1.0) * x ** self.n)
        return q, self.alpha * q * q / A + elastic

    def source_q(self, A, q):
        """Friction source of the momentum equation."""
        return -self.k_R * q / A

    def max_signal_speed(self) -> float:
        u = np.abs(self.q) / self.A
        c = self.celerity(self.A)
        if np.any(u >= c):
            cell = int(np.argmax(u - c))
            raise SupercriticalError(
                f"supercritical flow in vessel {self.spec.vessel_id!r} "
                f"at cell {cell}: |u| = {u[cell]:.6g} >= c = {c[cell]:.6g}")
        return float(np.max(u + c))

    # -- MUSCL-Hancock pieces --------------------------------------------

    def prepare(self, dt: float) -> "_Prep":
        """Slope reconstruction, half-step evolution of the face values and
        the ADER-style source predictor."""
        A, q, dx = self.A, self.q, self.mesh.dx
        sA = _eno_slope(A, dx)
        sq = _eno_slope(q, dx)
        h = 0.5 * dx
        AL, AR = A - h * sA, A + h * sA
        qL, qR = q - h * sq, q + h * sq
        if np.any(AL <= 0) or np.any(AR <= 0):
            raise CollapseError(
                f"non-positive reconstructed area in vessel {self.spec.vessel_id!r}")

        FL_A, FL_q = self.flux(AL, qL)
        FR_A, FR_q = self.flux(AR, qR)
        r = 0.5 * dt / dx
        dF_A, dF_q = FL_A - FR_A, FL_q - FR_q
        hdt = 0.5 * dt
        AbL = AL + r * dF_A
        AbR = AR + r * dF_A
        qbL = qL + r * dF_q + hdt * self.source_q(AL, qL)
        qbR = qR + r * dF_q + hdt * self.source_q(AR, qR)
        if np.any(AbL <= 0) or np.any(AbR <= 0):
            raise CollapseError(
                f"non-positive evolved face area in vessel {self.spec.vessel_id!r}")

        # source predictor: S evaluated at Q + dt/2 (-J(Q) dQ/dx + S(Q))
        u = q / A
        c2 = self.celerity(A) ** 2
        adv_A = sq
        adv_q = (c2 - self.alpha * u * u) * sA + 2.0 * self.alpha * u * sq
        A_pred = A + hdt * (-adv_A)
        q_pred = q + hdt * (-adv_q + self.source_q(A, q))
        A_pred = np.maximum(A_pred, 1e-12 * self.A0)
        S_q = self.source_q(A_pred, q_pred)
        return _Prep(AbL=AbL, qbL=qbL, AbR=AbR, qbR=qbR, S_q=S_q)

    def interface_flux(self, AL, qL, AR, qR):
        """HLL flux with Davis wave-speed estimates (vectorized)."""
        uL, uR = qL / AL, qR / AR
        cL, cR = self.celerity(AL), self.celerity(AR)
        SL = np.minimum(uL - cL, uR - cR)
        SR = np.maximum(uL + cL, uR + cR)
        FL_A, FL_q = self.flux(AL, qL)
        FR_A, FR_q = self.flux(AR, qR)
        with np.errstate(divide="ignore", invalid="ignore"):
            span = SR - SL
            Fh_A = (SR * FL_A - SL * FR_A + SL * SR * (AR - AL)) / span
            Fh_q = (SR * FL_q - SL * FR_q + SL * SR * (qR - qL)) / span
        F_A = np.where(SL >= 0.0, FL_A, np.where(SR <= 0.0, FR_A, Fh_A))
        F_q = np.where(SL >= 0.0, FL_q, np.where(SR <= 0.0, FR_q, Fh_q))
        if not (np.all(np.isfinite(F_A)) and np.all(np.isfinite(F_q))):
            raise ConvergenceError(
                f"wave-speed estimate failure in vessel {self.spec.vessel_id!r}")
        return F_A, F_q

    def commit(self, dt: float, prep: "_Prep",
               left_flux: tuple[float, float],
               right_flux: tuple[float, float]) -> None:
        """Interior Riemann problems, conservative update and sanity checks."""
        M, dx = self.mesh.M, self.mesh.dx
        Fi_A, Fi_q = self.interface_flux(prep.AbR[:-1], prep.qbR[:-1],
                                         prep.AbL[1:], prep.qbL[1:])
        F_A = np.empty(M + 1)
        F_q = np.empty(M + 1)
        F_A[0], F_q[0] = left_flux
        F_A[-1], F_q[-1] = right_flux
        F_A[1:-1], F_q[1:-1] = Fi_A, Fi_q
        lam = dt / dx
        A_new = self.A - lam * (F_A[1:] - F_A[:-1])
        q_new = self.q - lam * (F_q[1:] - F_q[:-1]) + dt * prep.S_q
        if np.any(A_new <= 0):
            cell = int(np.argmin(A_new))
            raise CollapseError(
                f"negative area in vessel {self.spec.vessel_id!r} at cell "
                f"{cell}: A = {A_new[cell]:.6g}")
        self.A, self.q = A_new, q_new

    @property
    def mid_cell(self) -> int:
        return self.mesh.M // 2


@dataclass
class _Prep:
    AbL: np.ndarray
    qbL: np.ndarray
    AbR: np.ndarray
    qbR: np.ndarray
    S_q: np.ndarray


def _eno_slope(U: np.ndarray, dx: float) -> np.ndarray:
    """First-degree ENO slope: the smaller-magnitude one-sided difference;
    one-sided at the domain ends."""
    d = np.diff(U)
    s = np.empty_like(U)
    left, right = d[:-1], d[1:]
    s[1:-1] = np.where(np.abs(left) <= np.abs(right), left, right)
    s[0] = d[0]
    s[-1] = d[-1]
    return s / dx


def cfl_dt(vessels, CFL: float) -> float:
    """Global time step: CFL * min over cells of dx/(|u| + c)."""
    if not 0.0 < CFL <= 1.0:
        raise ValueError(f"CFL must be in (0, 1], got {CFL}")
    dt = math.inf
    for ves in vessels:
        dt = min(dt, ves.mesh.dx / ves.max_signal_speed())
    return CFL * dt


def muscl_hancock_step(ves: Vessel1D, dt: float,
                       left_flux: tuple[float, float],
                       right_flux: tuple[float, float]) -> None:
    """Advance one vessel one step with externally supplied boundary
    fluxes (the BC/junction layer provides them)."""
    prep = ves.prepare(dt)
    ves.commit(dt, prep, left_flux, right_flux)


def reflective_flux(ves: Vessel1D, prep: _Prep, end: str) -> tuple[float, float]:
    """Sealed-end boundary flux: mirror the evolved face state."""
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
# Junction and boundary solves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JunctionNode:
    """Vessels meeting at a junction: (vessel id, end) with end in
    {'left', 'right'}; orientation sign +1 for a right end (flow leaves the
    vessel into the junction), -1 for a left end."""

    members: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ConfigurationError("a junction needs at least two vessel ends")

    @property
    def signs(self) -> tuple[float, ...]:
        return tuple(1.0 if end == "right" else -1.0 for _, end in self.members)


def junction_solve(node: JunctionNode, vessels: dict[str, Vessel1D],
                   states: list[tuple[float, float]],
                   tol: float = 1e-10, max_iter: int = 50):
    """Newton solve of the 2N junction system.

    Unknowns (A_k*, q_k*) per member; equations: (i) sum of oriented flows
    is zero, (ii) total pressure equal across members, (iii) the outgoing
    Riemann invariant u + 4c (right end) or u - 4c (left end) of each
    member keeps its value at the supplied evolved boundary state.
    """
    N = len(node.members)
    ves = [vessels[vid] for vid, _ in node.members]
    sgn = np.array(node.signs)
    inv_sign = sgn  # +4c at a right end, -4c at a left end
    A = np.array([s[0] for s in states])
    q = np.array([s[1] for s in states])
    W = q / A + inv_sign * 4.0 * np.array([v.celerity(a)
                                           for v, a in zip(ves, A)])

    rho = ves[0].rho
    # Vessel1D.pressure carries round-off of order eps * |P0 + p_ext|, so the
    # total-pressure rows are scaled by at least that magnitude
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
        r[N:] = u + inv_sign * 4.0 * c - W
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
        # total pressure rows: d(pt_k)/dA_k, d(pt_k)/dq_k
        dpt_dA = dpdA - rho * u * u / A
        dpt_dq = rho * u / A
        for k in range(1, N):
            J[k, k] = dpt_dA[k]
            J[k, N + k] = dpt_dq[k]
            J[k, 0] = -dpt_dA[0]
            J[k, N] = -dpt_dq[0]
        # invariant rows (d(4c)/dA = c/A for the arterial tube law)
        for k in range(N):
            J[N + k, k] = -u[k] / A[k] + inv_sign[k] * c[k] / A[k]
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
            raise ConvergenceError(
                f"junction Newton stalled at residual {norm:.3e} "
                f"for members {node.members}")
        x, r, scale, norm = x_new, r_new, scale_new, norm_new
    else:
        raise ConvergenceError(
            f"junction Newton did not converge: residual {norm:.3e} "
            f"for members {node.members}")

    A_star, q_star = x[:N], x[N:]
    for k, v in enumerate(ves):
        if abs(q_star[k] / A_star[k]) >= v.celerity(A_star[k]):
            raise SupercriticalError(
                f"supercritical junction state at {node.members[k]}")
    return list(zip(A_star, q_star))


def inflow_bc(ves: Vessel1D, boundary_state: tuple[float, float],
              q_in: float, tol: float = 1e-10, max_iter: int = 50):
    """Left-end state with prescribed inflow rate.

    q* = q_in and A* preserves the outgoing (left-running) invariant
    u - 4c of the interior state.
    """
    A_i, q_i = boundary_state
    W = q_i / A_i - 4.0 * ves.celerity(A_i)
    A = A_i
    tol_abs = tol * max(1.0, abs(W))
    for _ in range(max_iter):
        f = q_in / A - 4.0 * ves.celerity(A) - W
        if abs(f) < tol_abs:
            return A, q_in
        df = -q_in / (A * A) - ves.celerity(A) / A
        A_new = A - f / df
        if A_new <= 0:
            A_new = 0.5 * A
        A = A_new
    raise ConvergenceError(
        f"inflow boundary solve did not converge in vessel "
        f"{ves.spec.vessel_id!r} (q_in = {q_in:.6g})")


def terminal_bc(ves: Vessel1D, boundary_state: tuple[float, float],
                terminal, P_wk: float, dt: float,
                tol: float = 1e-10, max_iter: int = 100):
    """Right-end state coupled to a terminal element.

    The outgoing invariant u + 4c is preserved while the boundary flow
    satisfies q* = (p(A*) - P_wk)/R1, with the windkessel capacitor
    advanced by backward Euler using q* (solved simultaneously). Returns
    ((A*, q*), updated P_wk).
    """
    A_i, q_i = boundary_state
    W = q_i / A_i + 4.0 * ves.celerity(A_i)
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
        p = ves.pressure(A)
        c = ves.celerity(A)
        qs = (p - P_c) / R_eff
        g = qs / A + 4.0 * c - W
        if abs(g) < tol_abs:
            break
        dpdA = ves.rho * c * c / A
        dg = (dpdA / R_eff) / A - qs / (A * A) + c / A
        A_new = A - g / dg
        if A_new <= 0:
            A_new = 0.5 * A
        A = A_new
    else:
        raise ConvergenceError(
            f"terminal boundary solve did not converge in vessel "
            f"{ves.spec.vessel_id!r}")

    q_star = (ves.pressure(A) - P_c) / R_eff
    if isinstance(terminal, Windkessel):
        P_wk = beta * (P_wk + dt * q_star / terminal.C
                       + dt * terminal.P_v / (terminal.R2 * terminal.C))
    return (A, q_star), P_wk


# ---------------------------------------------------------------------------
# Network simulation
# ---------------------------------------------------------------------------

class Simulation1D:
    """All vessels of a network advanced with one global CFL time step."""

    def __init__(self, network: Network, inflow: WaveformSeries,
                 dx_max: float = 0.2, CFL: float = 0.9):
        for vid, spec in network.vessels.items():
            if not spec.wall.is_arterial:
                raise ConfigurationError(
                    f"1D junction/boundary closures require the arterial tube "
                    f"law (m = 1/2, n = 0); vessel {vid!r} has m = "
                    f"{spec.wall.m}, n = {spec.wall.n}")
        self.network = network
        self.inflow = inflow
        self.CFL = CFL
        self.vessels = {
            vid: Vessel1D(spec, dx_max, initial_area=network.initial_area(vid))
            for vid, spec in network.vessels.items()}
        self.junctions = [
            JunctionNode(members=((j.parent, "right"),
                                  *((d, "left") for d in j.daughters)))
            for j in network.junctions]
        self.P_wk = {vid: network.initial_pressure
                     for vid, term in network.terminals.items()
                     if isinstance(term, Windkessel)}
        self.t = 0.0

    def step(self, dt: float | None = None) -> float:
        if dt is None:
            dt = cfl_dt(self.vessels.values(), self.CFL)
        preps = {vid: ves.prepare(dt) for vid, ves in self.vessels.items()}
        left_flux: dict[str, tuple[float, float]] = {}
        right_flux: dict[str, tuple[float, float]] = {}

        # inflow at the network root (half-step time for second order)
        root = self.network.root
        ves = self.vessels[root]
        prep = preps[root]
        state = (float(prep.AbL[0]), float(prep.qbL[0]))
        A_s, q_s = inflow_bc(ves, state, float(self.inflow(self.t + 0.5 * dt)))
        F = ves.flux(A_s, q_s)
        left_flux[root] = (float(F[0]), float(F[1]))

        # junctions
        for node in self.junctions:
            states = []
            for vid, end in node.members:
                p = preps[vid]
                if end == "right":
                    states.append((float(p.AbR[-1]), float(p.qbR[-1])))
                else:
                    states.append((float(p.AbL[0]), float(p.qbL[0])))
            stars = junction_solve(node, self.vessels, states)
            for (vid, end), (A_s, q_s) in zip(node.members, stars):
                F = self.vessels[vid].flux(A_s, q_s)
                F = (float(F[0]), float(F[1]))
                if end == "right":
                    right_flux[vid] = F
                else:
                    left_flux[vid] = F

        # terminals
        for vid, term in self.network.terminals.items():
            ves = self.vessels[vid]
            prep = preps[vid]
            state = (float(prep.AbR[-1]), float(prep.qbR[-1]))
            (A_s, q_s), P_new = terminal_bc(ves, state, term,
                                            self.P_wk.get(vid, 0.0), dt)
            F = ves.flux(A_s, q_s)
            right_flux[vid] = (float(F[0]), float(F[1]))
            if vid in self.P_wk:
                self.P_wk[vid] = P_new

        for vid, ves in self.vessels.items():
            ves.commit(dt, preps[vid], left_flux[vid], right_flux[vid])
        self.t += dt
        return dt

    def midpoint_sample(self, vid: str) -> tuple[float, float, float]:
        ves = self.vessels[vid]
        i = ves.mid_cell
        A = float(ves.A[i])
        return float(ves.pressure(A)), float(ves.q[i]), A


def run_1d(network: Network, inflow: WaveformSeries, t_end: float = 29.7,
           dx_max: float = 0.2, CFL: float = 0.9, T0: float = 1.1,
           sample_interval: float = 1e-3) -> RunResult:
    """Advance the network to t_end, sampling vessel midpoints."""
    sim = Simulation1D(network, inflow, dx_max=dx_max, CFL=CFL)
    vids = list(network.vessels)
    times = [0.0]
    records = {vid: [sim.midpoint_sample(vid)] for vid in vids}
    next_sample = sample_interval

    start = time.perf_counter()
    while sim.t < t_end - 1e-12:
        dt = cfl_dt(sim.vessels.values(), sim.CFL)
        dt = min(dt, t_end - sim.t)
        sim.step(dt)
        if sim.t >= next_sample - 1e-12:
            times.append(sim.t)
            for vid in vids:
                records[vid].append(sim.midpoint_sample(vid))
            while next_sample <= sim.t + 1e-12:
                next_sample += sample_interval
    cpu = time.perf_counter() - start

    t = np.array(times)
    vessels = {}
    for vid in vids:
        arr = np.array(records[vid])
        vessels[vid] = {"P": arr[:, 0], "Q": arr[:, 1], "A": arr[:, 2]}
    cycles = t_end / T0
    return RunResult(t=t, vessels=vessels, cpu_seconds=cpu,
                     seconds_per_cycle=cpu / cycles)
