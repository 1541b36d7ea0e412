"""Closed-form vessel physics.

Tube law and its inverse, wall stiffness, wave speed, velocity-profile
constants and the lumped (R, L, C) parameters of a single compliant vessel.
All quantities are in CGS units (cm, g, s, dyne).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CollapseError, ConvergenceError

#: 1 mmHg in dyne/cm^2, for presentation-layer conversions only.
MMHG = 1333.22


def coriolis_alpha(zeta: float) -> float:
    """Momentum correction factor for a power-law axial velocity profile."""
    if zeta <= 0:
        raise ValueError(f"velocity profile order must be positive, got {zeta}")
    return (zeta + 2.0) / (zeta + 1.0)


@dataclass(frozen=True)
class FluidProps:
    """Blood properties: density rho (g/cm^3), dynamic viscosity mu
    (dyne*s/cm^2) and velocity-profile order zeta (dimensionless)."""

    rho: float
    mu: float
    zeta: float = 9.0

    def __post_init__(self):
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"density must be positive and finite, got {self.rho}")
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"viscosity must be positive and finite, got {self.mu}")
        if not 0.0 < self.zeta < math.inf:
            raise ValueError(f"profile order must be positive and finite, got {self.zeta}")

    @property
    def alpha(self) -> float:
        return coriolis_alpha(self.zeta)

    @property
    def k_R(self) -> float:
        """Viscous resistance coefficient per unit length (cm^2/s)."""
        return viscous_resistance_coeff(self)


def viscous_resistance_coeff(fluid: FluidProps) -> float:
    """k_R = 2 (zeta + 2) pi mu / rho."""
    return 2.0 * (fluid.zeta + 2.0) * math.pi * fluid.mu / fluid.rho


def arterial_stiffness(h0: float, E: float, nu: float, A0: float) -> float:
    """Wall stiffness of a thin elastic arterial wall (dyne/cm^2)."""
    if A0 <= 0:
        raise ValueError(f"reference area must be positive, got {A0}")
    if not 0.0 <= nu < 1.0:
        raise ValueError(f"Poisson ratio must be in [0, 1), got {nu}")
    return math.sqrt(math.pi) * h0 * E / ((1.0 - nu * nu) * math.sqrt(A0))


def adan_wall_thickness(r0: float) -> float:
    """Empirical wall thickness (cm) as a function of reference radius."""
    if r0 <= 0:
        raise ValueError(f"radius must be positive, got {r0}")
    a, b, c, d = 0.2802, -5.053, 0.1324, -0.1114
    return r0 * (a * math.exp(b * r0) + c * math.exp(d * r0))


@dataclass(frozen=True)
class WallModel:
    """Elastic wall description: reference area A0 (cm^2), stiffness K
    (dyne/cm^2), tube-law exponents (m, n), reference pressure P0 and
    external pressure p_ext (dyne/cm^2). h0, E, nu are kept for reporting."""

    A0: float
    K: float
    m: float = 0.5
    n: float = 0.0
    P0: float = 0.0
    p_ext: float = 0.0
    h0: float = 0.0
    E: float = 0.0
    nu: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.A0 < math.inf:
            raise ValueError(f"reference area must be positive and finite, got {self.A0}")
        if not 0.0 < self.K < math.inf:
            raise ValueError(f"stiffness must be positive and finite, got {self.K}")
        if not -math.inf < self.n < self.m < math.inf:
            raise ValueError(f"tube-law exponents require finite m > n, "
                             f"got m={self.m}, n={self.n}")
        if not (math.isfinite(self.P0) and math.isfinite(self.p_ext)):
            raise ValueError(f"reference and external pressures must be finite, "
                             f"got P0={self.P0}, p_ext={self.p_ext}")
        if not 0.0 <= self.nu < 1.0:
            raise ValueError(f"Poisson ratio must be in [0, 1), got {self.nu}")

    @classmethod
    def arterial(cls, A0: float, h0: float, E: float, nu: float = 0.5,
                 P0: float = 0.0, p_ext: float = 0.0) -> "WallModel":
        """Arterial wall with K computed from thickness, Young's modulus
        and Poisson ratio; exponents m = 1/2, n = 0."""
        K = arterial_stiffness(h0, E, nu, A0)
        return cls(A0=A0, K=K, P0=P0, p_ext=p_ext, h0=h0, E=E, nu=nu)

    @property
    def is_arterial(self) -> bool:
        return self.m == 0.5 and self.n == 0.0

    @property
    def r0(self) -> float:
        """Reference radius (cm)."""
        return math.sqrt(self.A0 / math.pi)


@dataclass(frozen=True)
class VesselSpec:
    """One vessel: identifier, length (cm), wall mechanics and fluid."""

    vessel_id: str
    length: float
    wall: WallModel
    fluid: FluidProps

    def __post_init__(self):
        if not 0.0 < self.length < math.inf:
            raise ValueError(f"vessel length must be positive and finite, got {self.length}")


@dataclass(frozen=True)
class LumpedConstants:
    """Constant lumped parameters evaluated at the reference area."""

    R0: float  # dyne*s/cm^5
    L0: float  # g/cm^4
    C0: float  # cm^5/dyne


def tube_law_pressure(A: float, wall: WallModel) -> float:
    """Internal pressure from the elastic tube law (dyne/cm^2)."""
    if A <= 0:
        raise CollapseError(f"area must be positive, got {A}")
    x = A / wall.A0
    return wall.K * (x ** wall.m - x ** wall.n) + wall.P0 + wall.p_ext


def tube_law_slope(A: float, wall: WallModel) -> float:
    """dp/dA of the tube law (dyne/cm^4)."""
    if A <= 0:
        raise CollapseError(f"area must be positive, got {A}")
    x = A / wall.A0
    return wall.K * (wall.m * x ** wall.m - wall.n * x ** wall.n) / A


def tube_law_area(p: float, wall: WallModel, rtol: float = 1e-12,
                  max_iter: int = 100) -> float:
    """Invert the tube law: area at internal pressure p.

    For the arterial exponents (m = 1/2, n = 0) the quadratic closed form is
    used; for general (m, n) a safeguarded Newton iteration with bisection
    fallback is applied on the bracket (0, 1e6 * A0].
    """
    if wall.is_arterial:
        root = 1.0 + (p - wall.P0 - wall.p_ext) / wall.K
        if root <= 0:
            raise CollapseError(
                f"pressure {p} is below the collapse limit of the arterial tube law")
        return wall.A0 * root * root

    target = p
    lo, hi = 1e-300, 1e6 * wall.A0
    if tube_law_pressure(hi, wall) < target:
        raise ConvergenceError(f"pressure {p} exceeds tube law range at A = 1e6*A0")
    A = wall.A0
    for _ in range(max_iter):
        f = tube_law_pressure(A, wall) - target
        if f > 0:
            hi = min(hi, A)
        else:
            lo = max(lo, A)
        step = f / tube_law_slope(A, wall)
        A_new = A - step
        # converged before the safeguard: at an exact root the zero step
        # leaves A on a bracket end, which the safeguard would bisect away
        if abs(A_new - A) <= rtol * abs(A_new):
            return A_new
        if not (lo < A_new < hi):
            A_new = 0.5 * (lo + hi)
        A = A_new
    raise ConvergenceError(
        f"tube law inversion did not converge for p={p} (m={wall.m}, n={wall.n})")


def wave_speed(A: float, wall: WallModel, fluid: FluidProps) -> float:
    """Wave speed c = sqrt(A/rho * dp/dA) (cm/s)."""
    if A <= 0:
        raise CollapseError(f"area must be positive, got {A}")
    x = A / wall.A0
    radicand = (wall.K / fluid.rho) * (wall.m * x ** wall.m - wall.n * x ** wall.n)
    if radicand < 0:
        raise ValueError(
            f"negative wave speed radicand at A={A} (m={wall.m}, n={wall.n})")
    return math.sqrt(radicand)


def _compartment(spec: VesselSpec, fraction: float = 1.0) -> tuple[float, tuple]:
    """(length, consts) of a lumped piece of a vessel: ``fraction`` of its
    length, with the reference volume and constants scaled accordingly.

    ``consts`` holds (V0, K, m, n, P0 + p_ext, C0, R0, L0, rho k_R l, rho l):
    the reference volume, the tube law's K, m, n and reference pressure,
    the reference compliance, resistance and inductance, and the
    numerators of the resistance and inductance at a mean area A_hat,
    rho k_R l / A_hat^2 and rho l / A_hat.
    """
    w, f = spec.wall, spec.fluid
    length = fraction * spec.length
    rho_kR_l = f.rho * f.k_R * length
    rho_l = f.rho * length
    return length, (w.A0 * length, w.K, w.m, w.n, w.P0 + w.p_ext,
                    length / tube_law_slope(w.A0, w),
                    rho_kR_l / (w.A0 * w.A0), rho_l / w.A0, rho_kR_l, rho_l)


def lumped_constants(spec: VesselSpec) -> LumpedConstants:
    """Constant (R0, L0, C0) of a vessel evaluated at A = A0."""
    C0, R0, L0 = _compartment(spec)[1][5:8]
    return LumpedConstants(R0=R0, L0=L0, C0=C0)


def lumped_nonlinear(spec: VesselSpec, A_hat: float) -> tuple[float, float]:
    """(R, L) evaluated at the instantaneous mean area A_hat."""
    if A_hat <= 0:
        raise CollapseError(f"mean area must be positive, got {A_hat}")
    rho_kR_l, rho_l = _compartment(spec)[1][8:]
    return rho_kR_l / (A_hat * A_hat), rho_l / A_hat


def nonlinear_compliance(spec: VesselSpec, A_hat: float) -> float:
    """Compliance l * (dA/dp) evaluated at A_hat (diagnostic only)."""
    if A_hat <= 0:
        raise CollapseError(f"mean area must be positive, got {A_hat}")
    return spec.length / tube_law_slope(A_hat, spec.wall)
