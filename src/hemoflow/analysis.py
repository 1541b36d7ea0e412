"""Stability and dimensional analysis of the lumped vessel models.

Closed-form eigenvalues of the linearized dynamics of each vessel
configuration, the discriminant factors that fix the sign of the
oscillatory/overdamped transition and the convective/pressure/friction
coefficient ratios of the 1D equations, reported by ``hemoflow analyze``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vessel import VesselSpec, lumped_constants, wave_speed


# ---------------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------------

def _quadratic_pair(a: float, b: float):
    """Roots of lambda^2 + a*lambda + b with the discriminant branches
    handled explicitly (a = R0/L0, b the restoring coefficient)."""
    delta = a * a - 4.0 * b
    if delta > 0.0:
        s = math.sqrt(delta)
        return complex((-a + s) / 2.0), complex((-a - s) / 2.0)
    if delta == 0.0:
        return complex(-a / 2.0), complex(-a / 2.0)
    s = math.sqrt(-delta)
    return complex(-a / 2.0, s / 2.0), complex(-a / 2.0, -s / 2.0)


def _check_rlc(R0: float, L0: float, C0: float) -> None:
    if R0 < 0 or L0 <= 0 or C0 <= 0:
        raise ValueError(f"need R0 >= 0, L0 > 0, C0 > 0; got {R0}, {L0}, {C0}")


def eigenvalues_pin_qout(R0: float, L0: float, C0: float):
    """Pair from lambda^2 + (R0/L0) lambda + 1/(C0 L0) = 0;
    discriminant (R0/L0)^2 - 4/(C0 L0)."""
    _check_rlc(R0, L0, C0)
    return _quadratic_pair(R0 / L0, 1.0 / (C0 * L0))


def eigenvalues_qin_pout(R0: float, L0: float, C0: float):
    """Identical characteristic polynomial to the (P_in, Q_out) case."""
    return eigenvalues_pin_qout(R0, L0, C0)


def eigenvalues_pin_pout(R0: float, L0: float, C0: float):
    """Triple: lambda_1 = -R0/L0 and a pair from
    lambda^2 + (R0/L0) lambda + 4/(C0 L0) = 0; discriminant
    (R0/L0)^2 - 16/(C0 L0)."""
    _check_rlc(R0, L0, C0)
    l2, l3 = _quadratic_pair(R0 / L0, 4.0 / (C0 * L0))
    return complex(-R0 / L0), l2, l3


def eigenvalues_qin_qout(R0: float, L0: float, C0: float):
    """Triple: lambda_1 = 0 exactly and a pair from
    lambda^2 + (R0/L0) lambda + 4/(C0 L0) = 0; discriminant
    (R0/L0)^2 - 16/(C0 L0)."""
    _check_rlc(R0, L0, C0)
    l2, l3 = _quadratic_pair(R0 / L0, 4.0 / (C0 * L0))
    return complex(0.0), l2, l3


def classify_eigenvalues(eigs) -> str:
    """'asymptotically stable' (all Re < 0), 'marginal (zero eigenvalue)'
    or 'unstable'."""
    re = [ev.real for ev in eigs]
    if all(r < 0.0 for r in re):
        return "asymptotically stable"
    if any(r > 0.0 for r in re):
        return "unstable"
    return "marginal (zero eigenvalue)"


_EIGEN_FNS = {
    "PinQout": eigenvalues_pin_qout,
    "QinPout": eigenvalues_qin_pout,
    "PinPout": eigenvalues_pin_pout,
    "QinQout": eigenvalues_qin_qout,
}


# ---------------------------------------------------------------------------
# Discriminant factors
# ---------------------------------------------------------------------------

def discriminant_factors(spec: VesselSpec) -> tuple[float, float, int]:
    """(f1, f2, sign of the oscillation discriminant).

    f1 = (zeta+2)^2 mu^2 l / (rho r0^3), f2 = (8/3) E h0 / l; the
    two-capacitor configurations have an oscillatory (negative-discriminant)
    transient exactly when f1 < f2.
    """
    w, f = spec.wall, spec.fluid
    r0 = w.r0
    f1 = (f.zeta + 2.0) ** 2 * f.mu ** 2 * spec.length / (f.rho * r0 ** 3)
    f2 = (8.0 / 3.0) * w.E * w.h0 / spec.length
    if f1 < f2:
        sign = -1
    elif f1 > f2:
        sign = 1
    else:
        sign = 0
    return f1, f2, sign


# ---------------------------------------------------------------------------
# Dimensional analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionalCoefficients:
    """Nondimensional weights of the convective (gamma_C), pressure
    (gamma_P) and friction (gamma_F) terms, plus their ratios."""

    gamma_C: float
    gamma_P: float
    gamma_F: float
    convective_to_pressure: float  # = U0^2 / c^2
    friction_to_pressure: float


def dimensional_coefficients(T0: float, ell_scale: float, U0: float, c: float,
                             k_R: float, A0: float) -> DimensionalCoefficients:
    """Coefficients at the characteristic scales: period T0 (s),
    longitudinal length ell_scale (cm), velocity U0 (cm/s) and area A0
    (cm^2), with wave speed c and friction coefficient k_R."""
    for name, value in (("T0", T0), ("ell_scale", ell_scale), ("A0", A0), ("U0", U0)):
        if value <= 0:
            raise ValueError(f"scale {name} must be positive")
    gamma_C = T0 * U0 / ell_scale
    gamma_P = T0 * c * c / (ell_scale * U0)
    gamma_F = k_R * T0 / A0
    return DimensionalCoefficients(
        gamma_C=gamma_C, gamma_P=gamma_P, gamma_F=gamma_F,
        convective_to_pressure=gamma_C / gamma_P,
        friction_to_pressure=gamma_F / gamma_P)


def velocity_stats(t, q, a) -> tuple[float, float]:
    """Time-mean and maximum of |q/A| over the supplied cycle samples."""
    t = np.asarray(t, dtype=float)
    u = np.abs(np.asarray(q, dtype=float) / np.asarray(a, dtype=float))
    if t.size < 2:
        raise ValueError("velocity stats need at least two samples")
    span = t[-1] - t[0]
    u_mean = float(np.trapezoid(u, t) / span)
    return u_mean, float(np.max(u))


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def format_network_report(network, velocity: dict | None = None,
                          T0: float = 1.1) -> str:
    """Per-vessel stability/dimensional report as key = value lines, from
    each vessel's lumped constants. ``velocity`` optionally maps vessel id
    -> (U_mean, U_max) from a converged 1D run.
    """
    lines = []
    for vid, spec in network.vessels.items():
        cons = lumped_constants(spec)
        f1, f2, sign = discriminant_factors(spec)
        lines.append(f"[vessel {vid}]")
        lines.append(f"f1 = {f1:.6g}")
        lines.append(f"f2 = {f2:.6g}")
        lines.append(f"discriminant_sign = {sign}")
        for config, eigenvalues in _EIGEN_FNS.items():
            eigs = eigenvalues(cons.R0, cons.L0, cons.C0)
            eig_str = "; ".join(f"{ev.real:.6g}{ev.imag:+.6g}j" for ev in eigs)
            lines.append(f"eigenvalues_{config} = {eig_str}")
            lines.append(f"classification_{config} = {classify_eigenvalues(eigs)}")
        if velocity is not None and vid in velocity:
            u_mean, u_max = velocity[vid]
            c0 = wave_speed(spec.wall.A0, spec.wall, spec.fluid)
            coeff = dimensional_coefficients(T0, spec.length, u_mean, c0,
                                             spec.fluid.k_R, spec.wall.A0)
            lines.append(f"U_mean = {u_mean:.6g}")
            lines.append(f"U_max = {u_max:.6g}")
            lines.append(f"gamma_C_over_gamma_P = {coeff.convective_to_pressure:.6g}")
            lines.append(f"gamma_F_over_gamma_P = {coeff.friction_to_pressure:.6g}")
        else:
            lines.append("gamma_ratios = unavailable (no 1D run supplied)")
        lines.append("")
    return "\n".join(lines)
