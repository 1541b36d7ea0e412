"""Seeded arterial-tree generator for the benchmark.

Writes network files in the hemoflow text format from a seed, using only
the standard library, so that the program under test receives nothing but
the generated file. The rules (documented in README.md):

* root vessel: radius U(0.80, 0.90) cm, length U(8, 9) cm;
* growth: split a leaf drawn from the larger half (by radius) of the
  current leaves until the tree has ``n_leaves`` leaves; daughter radii
  follow Murray's law r_p^3 = r_1^3 + r_2^3 with asymmetry r_2/r_1 drawn
  from U(0.6, 0.9);
* vessel length U(15, 25) x radius, Young's modulus U(1.2e7, 2.0e7)
  dyne/cm^2, wall thickness from the 'adan' radius fit;
* RCR terminals: leaf i gets the total resistance R_T * sum(r^3) / r_i^3
  with R_T = P_MEAN / Q_MEAN, of which R1 is the characteristic impedance
  rho c0 / A0 of the leaf and R2 the rest; the terminal compliances share
  C_TOT minus the vessels' own compliance in proportion to r_i^3, so every
  tree has the same total compliance and the same transient time scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

RHO = 1.06
MU = 0.04
ZETA = 9.0
NU = 0.5
P_REF = 94666.66666666667
#: mean of the synthetic half-sine inflow (peak 70 cm^3/s over 30% of T0)
Q_MEAN = 70.0 * 2.0 * 0.3 / math.pi
P_MEAN = 1.2e5
C_TOT = 1.5e-4


def adan_thickness(r0: float) -> float:
    return r0 * (0.2802 * math.exp(-5.053 * r0) + 0.1324 * math.exp(-0.1114 * r0))


def stiffness(r0: float, h0: float, E: float) -> float:
    A0 = math.pi * r0 * r0
    return math.sqrt(math.pi) * h0 * E / ((1.0 - NU * NU) * math.sqrt(A0))


@dataclass(frozen=True)
class Vessel:
    radius: float
    length: float
    E: float

    @property
    def A0(self) -> float:
        return math.pi * self.radius * self.radius

    @property
    def K(self) -> float:
        return stiffness(self.radius, adan_thickness(self.radius), self.E)

    def lumped(self) -> tuple[float, float, float]:
        """(R0, L0, C0) at the reference area, arterial tube law."""
        k_R = 2.0 * (ZETA + 2.0) * math.pi * MU / RHO
        A0, l = self.A0, self.length
        return RHO * k_R * l / (A0 * A0), RHO * l / A0, 2.0 * A0 * l / self.K


@dataclass(frozen=True)
class Terminal:
    R1: float
    C: float
    R2: float
    P_v: float = 0.0


@dataclass(frozen=True)
class TreeSpec:
    """A generated network: vessels in creation order (root first), binary
    junctions parent -> (daughter, daughter) and one RCR per leaf."""

    vessels: dict[str, Vessel]
    junctions: dict[str, tuple[str, str]]
    terminals: dict[str, Terminal]
    root: str = "v0"

    @property
    def leaves(self) -> list[str]:
        return list(self.terminals)

    def to_text(self, initial_pressure: float = P_REF) -> str:
        out = ["[fluid]", f"rho = {RHO!r}", f"mu = {MU!r}", f"zeta = {ZETA!r}",
               f"pressure_ref = {P_REF!r}",
               f"initial_pressure = {initial_pressure!r}"]
        for vid, v in self.vessels.items():
            out += ["", f"[vessel {vid}]", f"length = {v.length!r}",
                    f"radius = {v.radius!r}", "wall_thickness = adan",
                    f"youngs_modulus = {v.E!r}"]
        for parent, daughters in self.junctions.items():
            out += ["", "[junction]", f"parent = {parent}",
                    f"daughters = {' '.join(daughters)}"]
        out += ["", "[inflow]", f"vessel = {self.root}"]
        for vid, t in self.terminals.items():
            out += ["", f"[terminal {vid}]", "type = rcr", f"r1 = {t.R1!r}",
                    f"c = {t.C!r}", f"r2 = {t.R2!r}", f"p_out = {t.P_v!r}"]
        return "\n".join(out) + "\n"


def make_tree(seed: int, n_leaves: int) -> TreeSpec:
    """Seeded binary tree with ``n_leaves`` leaves (2 n_leaves - 1 vessels)."""
    if n_leaves < 2:
        raise ValueError("a tree needs at least two leaves")
    rng = random.Random(seed)
    radius = {"v0": rng.uniform(0.80, 0.90)}
    length = {"v0": rng.uniform(8.0, 9.0)}
    junctions: dict[str, tuple[str, str]] = {}
    leaves = ["v0"]
    while len(leaves) < n_leaves:
        by_size = sorted(leaves, key=lambda v: -radius[v])
        parent = rng.choice(by_size[:max(1, (len(by_size) + 1) // 2)])
        leaves.remove(parent)
        gamma = rng.uniform(0.6, 0.9)
        r1 = radius[parent] / (1.0 + gamma ** 3) ** (1.0 / 3.0)
        pair = (f"v{len(radius)}", f"v{len(radius) + 1}")
        for vid, r in zip(pair, (r1, gamma * r1)):
            radius[vid] = r
            length[vid] = rng.uniform(15.0, 25.0) * r
        junctions[parent] = pair
        leaves += pair
    vessels = {vid: Vessel(radius[vid], length[vid], rng.uniform(1.2e7, 2.0e7))
               for vid in radius}

    c_vessels = sum(v.lumped()[2] for v in vessels.values())
    c_terminals = C_TOT - c_vessels
    if c_terminals <= 0.0:
        raise ValueError(f"vessel compliance {c_vessels:.3g} exceeds C_TOT")
    s3 = sum(radius[v] ** 3 for v in leaves)
    R_T = P_MEAN / Q_MEAN
    terminals = {}
    for vid in sorted(leaves, key=lambda v: int(v[1:])):
        v = vessels[vid]
        z_c = RHO * math.sqrt(v.K / (2.0 * RHO)) / v.A0
        R = R_T * s3 / radius[vid] ** 3
        if R <= z_c:
            raise ValueError(f"leaf {vid}: resistance below its impedance")
        terminals[vid] = Terminal(R1=z_c, C=c_terminals * radius[vid] ** 3 / s3,
                                  R2=R - z_c)
    return TreeSpec(vessels=vessels, junctions=junctions, terminals=terminals)
