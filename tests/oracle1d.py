"""The 1D reference: one vessel holding its own arrays and running its own
numpy pipeline, with its own tube law, celerity, physical flux and HLL
flux.

``hemoflow.solver1d`` describes a network once, as a stack of cells with a
per-cell parameter table and preallocated kernels; nothing here reads it.
The tests compare the stack against this per-vessel reference, and drive
one-vessel stacks with boundary fluxes written on its HLL flux.
"""

from __future__ import annotations

import numpy as np

from hemoflow.solver1d import build_mesh


def oracle_eno_slope(U, dx):
    """First-degree ENO slope of one vessel's cells, one-sided at its ends."""
    d = np.diff(U)
    s = np.empty_like(U)
    left, right = d[:-1], d[1:]
    s[1:-1] = np.where(np.abs(left) <= np.abs(right), left, right)
    s[0] = d[0]
    s[-1] = d[-1]
    return s / dx


class OracleVessel:
    def __init__(self, spec, dx_max, initial_area=None):
        self.spec = spec
        self.mesh = build_mesh(spec.length, dx_max)
        w, f = spec.wall, spec.fluid
        self.A0, self.K, self.m, self.n = w.A0, w.K, w.m, w.n
        self.rho, self.alpha, self.k_R = f.rho, f.alpha, f.k_R
        A_init = w.A0 if initial_area is None else initial_area
        self.A = np.full(self.mesh.M, A_init, dtype=float)
        self.q = np.zeros(self.mesh.M)

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
        return -self.k_R * q / A

    def max_signal_speed(self):
        u = np.abs(self.q) / self.A
        c = self.celerity(self.A)
        assert not np.any(u >= c)
        return float(np.max(u + c))

    def prepare(self, dt):
        A, q, dx = self.A, self.q, self.mesh.dx
        sA = oracle_eno_slope(A, dx)
        sq = oracle_eno_slope(q, dx)
        h = 0.5 * dx
        AL, AR = A - h * sA, A + h * sA
        qL, qR = q - h * sq, q + h * sq
        FL_A, FL_q = self.flux(AL, qL)
        FR_A, FR_q = self.flux(AR, qR)
        r = 0.5 * dt / dx
        dF_A, dF_q = FL_A - FR_A, FL_q - FR_q
        hdt = 0.5 * dt
        prep = {"AbL": AL + r * dF_A, "AbR": AR + r * dF_A,
                "qbL": qL + r * dF_q + hdt * self.source_q(AL, qL),
                "qbR": qR + r * dF_q + hdt * self.source_q(AR, qR)}
        u = q / A
        c2 = self.celerity(A) ** 2
        adv_q = (c2 - self.alpha * u * u) * sA + 2.0 * self.alpha * u * sq
        A_pred = A + hdt * (-sq)
        q_pred = q + hdt * (-adv_q + self.source_q(A, q))
        A_pred = np.maximum(A_pred, 1e-12 * self.A0)
        prep["S_q"] = self.source_q(A_pred, q_pred)
        return prep

    def interface_flux(self, AL, qL, AR, qR):
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
        return F_A, F_q

    def commit(self, dt, prep, left_flux, right_flux):
        M, dx = self.mesh.M, self.mesh.dx
        Fi_A, Fi_q = self.interface_flux(prep["AbR"][:-1], prep["qbR"][:-1],
                                         prep["AbL"][1:], prep["qbL"][1:])
        F_A = np.empty(M + 1)
        F_q = np.empty(M + 1)
        F_A[0], F_q[0] = left_flux
        F_A[-1], F_q[-1] = right_flux
        F_A[1:-1], F_q[1:-1] = Fi_A, Fi_q
        lam = dt / dx
        A_new = self.A - lam * (F_A[1:] - F_A[:-1])
        q_new = self.q - lam * (F_q[1:] - F_q[:-1]) + dt * prep["S_q"]
        assert np.all(A_new > 0)
        self.A, self.q = A_new, q_new


def sealed_flux(oracle: OracleVessel, Ub) -> list[float]:
    """Boundary fluxes of a one-vessel stack closed at both ends, from its
    evolved face states ``Ub[var, face, cell]``: at each end the oracle's
    HLL flux between the end state and its mirror image (the flow
    reversed), as the flat list ``commit`` takes (F_A, F_q at the left
    end, then at the right end)."""
    (A, q), (B, p) = Ub[:, 0, 0], Ub[:, 1, -1]
    left = oracle.interface_flux(A, -q, A, q)
    right = oracle.interface_flux(B, p, B, -p)
    return [float(f) for f in (*left, *right)]


def transmissive_flux(oracle: OracleVessel, Ub) -> list[float]:
    """Boundary fluxes of a one-vessel stack open at both ends: the
    oracle's physical flux of each evolved end state, flat as in
    ``sealed_flux``."""
    left = oracle.flux(float(Ub[0, 0, 0]), float(Ub[1, 0, 0]))
    right = oracle.flux(float(Ub[0, 1, -1]), float(Ub[1, 1, -1]))
    return [float(f) for f in (*left, *right)]
