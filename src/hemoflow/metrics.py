"""Waveform comparison: relative error metrics over one cardiac cycle and
periodicity detection.

``periodicity_reached`` compares two sampled cycles; ``first_periodic_cycle``
finds the first cycle of a run that matches the one before it, by the same
criterion (``_periodic``), with every cycle of the run sampled at once, in
passes of up to ``_PASS_POINTS`` grid points: a run that becomes periodic
early is sampled to the end of the pass that finds it."""

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


#: the channels of the periodicity criterion, in the order it takes them
_CHANNELS = ("P", "Q", "A")


def _periodic(cycle: dict, previous: dict, threshold: float):
    """The periodicity criterion of cycles against their predecessors.

    ``cycle`` and ``previous`` map channel names, in ``_CHANNELS`` order, to
    samples: one cycle a row, sampled along the last axis. The gap of a
    channel is the largest |a - b| over the cycle, normalized by the cycle's
    mean for P and A and by its maximum for Q. Returns, for each row,
    whether the gaps are below ``threshold`` as ``max(gaps) < threshold``
    takes them (a NaN gap of the first channel fails the test, one of a
    later channel is passed over), and, for each channel, whether its
    normalizer is zero in each row."""
    gaps, zero = [], []
    for name, a in cycle.items():
        norm = np.max(a, axis=-1) if name == "Q" else np.mean(a, axis=-1)
        gap = np.max(np.abs(a - previous[name]), axis=-1)
        # a zero normalizer is the caller's error to raise, by row
        with np.errstate(divide="ignore", invalid="ignore"):
            gaps.append(gap / np.abs(norm))
        zero.append(norm == 0.0)
    below = gaps[0] < threshold
    for gap in gaps[1:]:
        below = below & ~(gap >= threshold)
    return below, zero


def _zero_normalizer(name: str) -> ModelError:
    return ModelError(f"zero normalizer for channel {name} in the "
                      f"periodicity criterion")


def periodicity_reached(cycle: CycleSeries, previous: CycleSeries,
                        threshold: float = 1e-3) -> bool:
    """True when the normalized L-infinity distance between two consecutive
    cycles is below the threshold on every channel: pressure and area are
    normalized by their cycle mean, flow by its cycle maximum
    (``_periodic``). Raises ModelError for the first channel, of P, Q and A,
    whose normalizer is zero."""
    if cycle.t.shape != previous.t.shape:
        raise ValueError("periodicity check needs equal sample grids")
    names = [name for name in _CHANNELS
             if getattr(cycle, name) is not None and getattr(previous, name) is not None]
    below, zero = _periodic({name: getattr(cycle, name) for name in names},
                            {name: getattr(previous, name) for name in names},
                            threshold)
    for name, z in zip(names, zero):
        if z:
            raise _zero_normalizer(name)
    return bool(below)


def _cycle_samples(t: np.ndarray, T0: float) -> int:
    """Samples of a uniform grid over one cycle at the median step of t.
    Raises ValueError for a period that the samples cannot resolve: one
    that is NaN, not positive, or shorter than two steps."""
    dt = float(np.median(np.diff(t)))
    if not (T0 > 0.0 and T0 >= 2.0 * dt):
        raise ValueError(f"the period T0 = {T0:.6g} s must be at least two sample "
                         f"steps; the median step is {dt:.6g} s")
    return int(round(T0 / dt)) + 1


def sample_cycle(t, channels: dict, T0: float, end_time: float | None = None,
                 n: int | None = None) -> CycleSeries:
    """Extract one cycle ending at ``end_time`` (default: last sample) on a
    uniform grid, interpolating the sampled channels linearly. Raises
    ValueError for a cycle that the samples do not cover or, unless ``n``
    is given, for a period that they cannot resolve (``_cycle_samples``)."""
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


#: grid points that ``first_periodic_cycle`` samples in one pass: every
#: cycle of a run of up to about this many samples, and about 2 MiB a
#: channel for longer runs
_PASS_POINTS = 2**18


def first_periodic_cycle(t, channels: dict, T0: float,
                         threshold: float = 1e-3) -> int | None:
    """Smallest cycle index k (1-based) whose waveforms differ from cycle
    k-1 by less than the threshold (``periodicity_reached``), or None if
    never reached.

    Cycle k ends at t[0] + k T0 and is sampled as ``sample_cycle`` samples
    it, on the grid size of the whole series. All cycles are sampled at
    once, one ``np.linspace`` over the windows' ends and one ``np.interp``
    a channel, with the bits of sampling them one at a time, and each is
    compared with the one before it by ``periodicity_reached``'s criterion
    (``_periodic``). The cycles are sampled in passes of up to
    ``_PASS_POINTS`` grid points, and the search stops at the first pass
    that finds a periodic cycle or an error: a run of up to that many grid
    points that becomes periodic early is still sampled to its end. On
    27-cycle runs, a 7-vessel tree periodic at cycle 7 takes about 1.2
    times as long as a search that stops there, and the bundled
    bifurcation, periodic at cycle 15 or 16, about 0.9 times. The result,
    and the error that a cycle-by-cycle search raises at the first cycle it
    cannot sample or compare, are those of that search. A period that the
    samples cannot resolve is refused as ``sample_cycle`` refuses it,
    before any cycle is sampled; a series shorter than one period, or an
    infinite period, gives None."""
    t = np.asarray(t, dtype=float)
    if t.size < 2 or T0 == np.inf:  # no cycle ends within the samples
        return None
    n = _cycle_samples(t, T0)
    n_cycles = int(np.floor((t[-1] - t[0]) / T0 + 1e-9))
    if n_cycles < 1:
        return None
    ends = t[0] + np.arange(1, n_cycles + 1) * T0
    starts = ends - T0
    uncovered = starts < t[0] - 1e-9
    names = [name for name in _CHANNELS if name != "A" or name in channels]
    values = {name: np.asarray(channels[name], dtype=float) for name in names}
    rows = max(2, _PASS_POINTS // n)
    done = 0
    while done < n_cycles:
        # cycles first to stop - 1, 0-based: the pass decides those from
        # done on, the one before done (which the last pass left undecided)
        # being their first predecessor
        first = max(done - 1, 0)
        stop = min(first + rows, n_cycles)
        # a cycle a contiguous row: np.interp copies a strided grid, and a
        # row's mean then has the bits of the cycle's own
        grid = np.ascontiguousarray(
            np.linspace(starts[first:stop], ends[first:stop], n, axis=1))
        cycles = {name: np.interp(grid, t, v) for name, v in values.items()}
        below, zero = _periodic({name: c[1:] for name, c in cycles.items()},
                                {name: c[:-1] for name, c in cycles.items()},
                                threshold)
        # per cycle: not sampled (a window past the samples' start, or a
        # grid that does not increase), a zero normalizer, periodic
        bad = uncovered[first:stop] | (np.diff(grid, axis=1) <= 0.0).any(axis=1)
        zeros = np.zeros((len(names), stop - first), dtype=bool)
        zeros[:, 1:] = zero
        decided = bad | zeros.any(axis=0)
        decided[1:] |= below
        if decided.any():
            i = int(np.argmax(decided))
            if bad[i]:  # the error of sampling that cycle on its own
                sample_cycle(t, channels, T0, end_time=ends[first + i], n=n)
            if zeros[:, i].any():
                raise _zero_normalizer(names[int(np.argmax(zeros[:, i]))])
            return first + i + 1
        done = stop
    return None
