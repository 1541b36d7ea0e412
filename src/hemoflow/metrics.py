"""Waveform comparison: relative error metrics over one cardiac cycle and
periodicity detection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError


@dataclass(frozen=True)
class CycleSeries:
    """Sampled midpoint waveforms over exactly one cardiac cycle.
    The area channel A is optional (used by the periodicity criterion)."""

    t: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    A: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        P = np.asarray(self.P, dtype=float)
        Q = np.asarray(self.Q, dtype=float)
        if t.size < 2:
            raise ValueError("a cycle needs at least two samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError("cycle times must be strictly increasing")
        if P.shape != t.shape or Q.shape != t.shape:
            raise ValueError("cycle channels must match the time grid")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        if self.A is not None:
            A = np.asarray(self.A, dtype=float)
            if A.shape != t.shape:
                raise ValueError("cycle channels must match the time grid")
            object.__setattr__(self, "A", A)

    @property
    def span(self) -> float:
        return float(self.t[-1] - self.t[0])


@dataclass(frozen=True)
class ErrorReport:
    """Six relative error metrics, in percent. RMS metrics are magnitudes;
    systolic/diastolic metrics keep the sign of the mismatch."""

    eps_p_rms: float
    eps_q_rms: float
    eps_p_sys: float
    eps_q_sys: float
    eps_p_dias: float
    eps_q_dias: float


def _resample(cycle: CycleSeries, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channels of ``cycle`` at relative times tau, by linear interpolation
    of its samples. The samples include both ends of the cycle, so a cycle
    that is not yet periodic has two values at phase 0: tau = 0 takes the
    first and tau = span the last. Relative times past the span wrap around
    to the start of the cycle."""
    rel = cycle.t - cycle.t[0]
    span = cycle.span
    phase = np.where(tau > span, np.mod(tau, span), tau)
    P = np.interp(phase, rel, cycle.P)
    Q = np.interp(phase, rel, cycle.Q)
    return P, Q


def error_metrics(test: CycleSeries, reference: CycleSeries) -> ErrorReport:
    """Relative errors of ``test`` against ``reference``.

    Pressure errors are normalized pointwise (RMS) or by the reference
    extremum (SYS/DIAS); all flow errors are normalized by the maximum
    reference flow. The test series is first resampled onto the reference
    grid by linear interpolation.
    """
    tau = reference.t - reference.t[0]
    P1, Q1 = reference.P, reference.Q
    P0, Q0 = _resample(test, tau)

    if np.any(P1 == 0.0):
        raise ModelError("reference pressure crosses zero; relative "
                         "pressure errors are undefined")
    q_max = float(np.max(Q1))
    if q_max == 0.0:
        raise ModelError("maximum reference flow is zero; relative "
                         "flow errors are undefined")
    p_sys = float(np.max(P1))
    p_dias = float(np.min(P1))
    if p_sys == 0.0 or p_dias == 0.0:
        raise ModelError("reference pressure extremum is zero")

    n = tau.size
    eps_p_rms = np.sqrt(np.sum(((P0 - P1) / P1) ** 2) / n)
    eps_q_rms = np.sqrt(np.sum(((Q0 - Q1) / q_max) ** 2) / n)
    eps_p_sys = (np.max(P0) - p_sys) / p_sys
    eps_q_sys = (np.max(Q0) - q_max) / q_max
    eps_p_dias = (np.min(P0) - p_dias) / p_dias
    eps_q_dias = (np.min(Q0) - np.min(Q1)) / q_max
    return ErrorReport(
        eps_p_rms=100.0 * float(eps_p_rms),
        eps_q_rms=100.0 * float(eps_q_rms),
        eps_p_sys=100.0 * float(eps_p_sys),
        eps_q_sys=100.0 * float(eps_q_sys),
        eps_p_dias=100.0 * float(eps_p_dias),
        eps_q_dias=100.0 * float(eps_q_dias))


def periodicity_reached(cycle: CycleSeries, previous: CycleSeries,
                        threshold: float = 1e-3) -> bool:
    """True when the normalized L-infinity distance between two consecutive
    cycles is below the threshold on every channel: pressure and area are
    normalized by their cycle mean, flow by its cycle maximum."""
    if cycle.t.shape != previous.t.shape:
        raise ValueError("periodicity check needs equal sample grids")
    gaps = []
    for name in ("P", "Q", "A"):
        a = getattr(cycle, name)
        b = getattr(previous, name)
        if a is None or b is None:
            continue
        if name == "Q":
            norm = float(np.max(a))
        else:
            norm = float(np.mean(a))
        if norm == 0.0:
            raise ModelError(f"zero normalizer for channel {name} in the "
                             f"periodicity criterion")
        gaps.append(np.max(np.abs(a - b)) / abs(norm))
    return max(gaps) < threshold


def _cycle_samples(t: np.ndarray, T0: float) -> int:
    """Samples of a uniform grid over one cycle at the median step of t."""
    dt = float(np.median(np.diff(t)))
    return max(2, int(round(T0 / dt)) + 1)


def sample_cycle(t, channels: dict, T0: float, end_time: float | None = None,
                 n: int | None = None) -> CycleSeries:
    """Extract one cycle ending at ``end_time`` (default: last sample) on a
    uniform grid, interpolating the sampled channels linearly."""
    t = np.asarray(t, dtype=float)
    if end_time is None:
        end_time = float(t[-1])
    start = end_time - T0
    if start < t[0] - 1e-9:
        raise ValueError(f"cycle [{start}, {end_time}] not covered by samples")
    if n is None:
        n = _cycle_samples(t, T0)
    grid = np.linspace(start, end_time, n)
    out = {key: np.interp(grid, t, np.asarray(val, dtype=float))
           for key, val in channels.items()}
    return CycleSeries(t=grid, P=out["P"], Q=out["Q"], A=out.get("A"))


def first_periodic_cycle(t, channels: dict, T0: float,
                         threshold: float = 1e-3) -> int | None:
    """Smallest cycle index k (1-based) whose waveforms differ from cycle
    k-1 by less than the threshold, or None if never reached."""
    t = np.asarray(t, dtype=float)
    n_cycles = int(np.floor((t[-1] - t[0]) / T0 + 1e-9))
    if n_cycles < 1:
        return None
    n = _cycle_samples(t, T0)
    prev = None
    for k in range(1, n_cycles + 1):
        cyc = sample_cycle(t, channels, T0, end_time=t[0] + k * T0, n=n)
        if prev is not None and periodicity_reached(cyc, prev, threshold):
            return k
        prev = cyc
    return None
