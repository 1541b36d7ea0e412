"""Correctness checks on the program's outputs.

Every check compares against an independent computation (a few lines of
numpy here, or a closed form) or a property the method must have; none
compares against a stored copy of earlier output. A run is a pair
``(t, vessels)`` with ``vessels[vid] = {"P": ..., "Q": ..., "A": ...}``,
whether it comes from the Python API or from the CSV files of the CLI.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from netgen import Q_MEAN

#: periodicity criterion of the paper: normalised L-inf distance between
#: consecutive cycles below this on P, Q and A of every vessel
PERIODIC_THRESHOLD = 1e-3
#: relative tolerances, see README.md
TOL_ROOT_FLOW = 1e-4
TOL_JUNCTION = 5e-4
TOL_LEAF_PRESSURE = 1e-3
TOL_FROZEN = 1e-12
TOL_ERROR_TABLE = 1e-7
TOL_EIGEN = 1e-5


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def finite_positive(t, vessels, t_end: float, label: str) -> None:
    """All samples finite, all areas positive, the run reaches t_end."""
    require(len(t) > 1 and abs(t[-1] - t_end) < 1e-6,
            f"{label}: run ends at t = {t[-1] if len(t) else None}, expected {t_end}")
    for vid, s in vessels.items():
        for ch in ("P", "Q", "A"):
            require(s[ch].shape == t.shape and bool(np.all(np.isfinite(s[ch]))),
                    f"{label}: {vid}.{ch} has non-finite or missing samples")
        require(bool(np.all(s["A"] > 0.0)), f"{label}: {vid} has a non-positive area")


def samples_per_cycle(t, T0: float) -> int:
    dt = (t[-1] - t[0]) / (len(t) - 1)
    n = round(T0 / dt)
    require(n > 1 and bool(np.allclose(np.diff(t), dt, rtol=1e-6, atol=1e-9)),
            "0D samples are not on a uniform grid")
    return n


def periodic_cycle(t, vessels, T0: float) -> int | None:
    """1-based number of the first cycle whose waveforms differ from the
    previous cycle by less than the threshold, or None."""
    n = samples_per_cycle(t, T0)
    n_cycles = (len(t) - 1) // n
    for k in range(1, n_cycles):
        cur, prev = slice(k * n, (k + 1) * n + 1), slice((k - 1) * n, k * n + 1)
        gap = 0.0
        for s in vessels.values():
            for ch in ("P", "Q", "A"):
                a, b = s[ch][cur], s[ch][prev]
                norm = np.max(a) if ch == "Q" else np.mean(a)
                gap = max(gap, float(np.max(np.abs(a - b)) / abs(norm)))
        if gap < PERIODIC_THRESHOLD:
            return k + 1
    return None


def last_cycle_means(t, vessels, T0: float) -> dict[str, tuple[float, float]]:
    """(mean P, mean Q) of every vessel over the last cycle (trapezoid)."""
    n = samples_per_cycle(t, T0)
    last = slice(len(t) - n - 1, len(t))
    span = t[-1] - t[len(t) - n - 1]
    return {vid: (float(np.trapezoid(s["P"][last], t[last]) / span),
                  float(np.trapezoid(s["Q"][last], t[last]) / span))
            for vid, s in vessels.items()}


def flow_balance(t, vessels, T0: float, tree, label: str) -> None:
    """Periodic-regime balances over the last cycle of a 0D run of a
    generated tree: root mean flow = mean inflow; parent mean flow = sum
    of the daughters'; leaf mean pressure = P_v + Q (R1 + R2 + R0/2), the
    last term being the leaf's own distal half resistance."""
    means = last_cycle_means(t, vessels, T0)
    q_in = Q_MEAN
    q_root = means[tree.root][1]
    require(abs(q_root - q_in) <= TOL_ROOT_FLOW * q_in,
            f"{label}: root mean flow {q_root:.8g} != mean inflow {q_in:.8g}")
    for parent, daughters in tree.junctions.items():
        q_p = means[parent][1]
        q_d = sum(means[d][1] for d in daughters)
        require(abs(q_p - q_d) <= TOL_JUNCTION * abs(q_p),
                f"{label}: junction {parent}: mean flow {q_p:.8g} != "
                f"daughters' {q_d:.8g}")
    for leaf, term in tree.terminals.items():
        p, q = means[leaf]
        R0 = tree.vessels[leaf].lumped()[0]
        expected = term.P_v + q * (term.R1 + term.R2 + 0.5 * R0)
        require(abs(p - expected) <= TOL_LEAF_PRESSURE * abs(expected),
                f"{label}: leaf {leaf}: mean pressure {p:.8g} != {expected:.8g}")


def rms_errors(t_ref, ref, t_test, test, end_time: float, T0: float,
               n: int = 1101) -> tuple[float, float]:
    """(pressure, flow) RMS relative errors in percent of ``test`` against
    ``ref`` over the cycle ending at end_time; pressure normalised
    pointwise, flow by the maximum reference flow."""
    grid = np.linspace(end_time - T0, end_time, n)
    P1, Q1 = np.interp(grid, t_ref, ref["P"]), np.interp(grid, t_ref, ref["Q"])
    P0, Q0 = np.interp(grid, t_test, test["P"]), np.interp(grid, t_test, test["Q"])
    return _rms(P0, Q0, P1, Q1)


def _rms(P0, Q0, P1, Q1) -> tuple[float, float]:
    eps_p = math.sqrt(float(np.mean(((P0 - P1) / P1) ** 2)))
    eps_q = math.sqrt(float(np.mean(((Q0 - Q1) / np.max(Q1)) ** 2)))
    return 100.0 * eps_p, 100.0 * eps_q


def same_series(a, b, tol: float, label: str) -> None:
    """Series a and b agree to tol relative to the magnitude of b."""
    for ch in ("P", "Q", "A"):
        x, y = np.asarray(a[ch]), np.asarray(b[ch])
        require(x.shape == y.shape, f"{label}: {ch} lengths differ")
        scale = float(np.max(np.abs(y)))
        err = float(np.max(np.abs(x - y)))
        require(err <= tol * scale, f"{label}: {ch} differs by {err:.3e} (scale {scale:.3e})")


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def load_csv(path: Path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Read a t,P,Q,A series file with numpy alone."""
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: unreadable series: {exc}") from exc
    require(header == ["t", "P", "Q", "A"] and data.shape[1] == 4,
            f"{path.name}: unexpected columns {header}")
    return data[:, 0], {"P": data[:, 1], "Q": data[:, 2], "A": data[:, 3]}


def load_run_dir(path: Path, vessel_ids) -> tuple[np.ndarray, dict]:
    t = None
    vessels = {}
    for vid in vessel_ids:
        tv, s = load_csv(path / f"{vid}.csv")
        if t is not None:
            require(tv.shape == t.shape and bool(np.all(tv == t)),
                    f"{path.name}/{vid}.csv: time grid differs between vessels")
        t = tv
        vessels[vid] = s
    return t, vessels


def read_timing(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def error_table(path: Path, t, ref, test, T0: float, vessel_ids) -> None:
    """The RMS columns of a ``compare`` table equal a recomputation from
    the run series on the same last-cycle grid."""
    rows = {}
    lines = path.read_text().splitlines()
    require(len(lines) >= 2 and lines[0].split(",")[:4] ==
            ["vessel", "model", "eps_p_rms", "eps_q_rms"],
            f"{path.name}: unexpected header")
    for line in lines[1:]:
        cols = line.split(",")
        rows[cols[0]] = (float(cols[2]), float(cols[3]))
    require(set(rows) == set(vessel_ids), f"{path.name}: vessels {sorted(rows)}")
    n = samples_per_cycle(t, T0) + 1
    grid = np.linspace(t[-1] - T0, t[-1], n)
    for vid in vessel_ids:
        P1, Q1 = np.interp(grid, t, ref[vid]["P"]), np.interp(grid, t, ref[vid]["Q"])
        P0, Q0 = np.interp(grid, t, test[vid]["P"]), np.interp(grid, t, test[vid]["Q"])
        # the first and last grid points are the same phase; the test value
        # there may come from either end of the cycle
        wrapped = [np.concatenate(([x[-1]], x[1:])) for x in (P0, Q0)]
        candidates = (_rms(P0, Q0, P1, Q1), _rms(*wrapped, P1, Q1))
        for i, what in enumerate(("eps_p_rms", "eps_q_rms")):
            got = rows[vid][i]
            require(any(abs(got - c[i]) <= TOL_ERROR_TABLE * abs(c[i]) + 1e-9
                        for c in candidates),
                    f"{path.name}: {vid} {what} = {got!r}, recomputed "
                    f"{[c[i] for c in candidates]}")


def pin_qout_eigenvalues(report: str) -> dict[str, list[complex]]:
    out, vid = {}, None
    for line in report.splitlines():
        if line.startswith("[vessel "):
            vid = line[len("[vessel "):-1]
        elif line.startswith("eigenvalues_PinQout"):
            values = line.split("=", 1)[1].split(";")
            out[vid] = [complex(v.strip()) for v in values]
    return out


def analyze_report(report: str, tree) -> None:
    """PinQout eigenvalues of every vessel equal numpy.roots of
    lambda^2 + (R0/L0) lambda + 1/(C0 L0), with R0, L0, C0 derived here
    from the vessel geometry and wall written to the network file."""
    eigs = pin_qout_eigenvalues(report)
    require(set(eigs) == set(tree.vessels), f"report lists vessels {sorted(eigs)}")
    for vid, vessel in tree.vessels.items():
        R0, L0, C0 = vessel.lumped()
        want = sorted(np.roots([1.0, R0 / L0, 1.0 / (C0 * L0)]), key=lambda z: z.imag)
        got = sorted(eigs[vid], key=lambda z: z.imag)
        require(len(got) == 2 and all(abs(g - w) <= TOL_EIGEN * abs(w)
                                      for g, w in zip(got, want)),
                f"report: {vid} eigenvalues {got} != {want}")
