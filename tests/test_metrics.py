"""Error metrics and periodicity detection."""

import math

import numpy as np
import pytest

from hemoflow.errors import ModelError
from hemoflow.metrics import (
    CycleSeries,
    error_metrics,
    first_periodic_cycle,
    periodicity_reached,
    sample_cycle,
)


def smooth_cycle(n=400, p_mean=1.0e5, q_peak=60.0):
    t = np.linspace(0.0, 1.1, n)
    phase = 2.0 * math.pi * t / 1.1
    P = p_mean * (1.0 + 0.2 * np.sin(phase))
    Q = q_peak * np.maximum(np.sin(phase), 0.0) + 5.0
    A = 2.0 + 0.1 * np.sin(phase)
    return CycleSeries(t=t, P=P, Q=Q, A=A)


class TestCycleSeries:
    def test_validation(self):
        with pytest.raises(ValueError, match="two samples"):
            CycleSeries(t=[0.0], P=[1.0], Q=[1.0])
        with pytest.raises(ValueError, match="increasing"):
            CycleSeries(t=[0.0, 0.0], P=[1.0, 1.0], Q=[1.0, 1.0])
        with pytest.raises(ValueError, match="match"):
            CycleSeries(t=[0.0, 1.0], P=[1.0], Q=[1.0, 1.0])

    def test_span(self):
        cyc = smooth_cycle()
        assert cyc.span == pytest.approx(1.1, rel=1e-12)


class TestErrorMetrics:
    def test_identical_series_zero_errors(self):
        cyc = smooth_cycle()
        rep = error_metrics(cyc, cyc)
        for value in (rep.eps_p_rms, rep.eps_q_rms, rep.eps_p_sys,
                      rep.eps_q_sys, rep.eps_p_dias, rep.eps_q_dias):
            assert value == 0.0

    def test_uniform_one_percent_scaling(self):
        ref = smooth_cycle()
        test = CycleSeries(t=ref.t, P=1.01 * ref.P, Q=ref.Q)
        rep = error_metrics(test, ref)
        assert rep.eps_p_rms == pytest.approx(1.0, rel=1e-9)
        assert rep.eps_p_sys == pytest.approx(1.0, rel=1e-9)
        assert rep.eps_p_dias == pytest.approx(1.0, rel=1e-9)
        assert rep.eps_q_rms == 0.0

    def test_hand_case(self):
        t = np.array([0.0, 1.0, 2.0])
        ref = CycleSeries(t=t, P=[100.0, 200.0, 100.0], Q=[10.0, 20.0, 10.0])
        test = CycleSeries(t=t, P=[101.0, 198.0, 101.0],
                           Q=[10.2, 19.8, 10.2])
        rep = error_metrics(test, ref)
        assert rep.eps_p_rms == pytest.approx(1.0, rel=1e-12)
        assert rep.eps_q_rms == pytest.approx(1.0, rel=1e-12)
        # signed extremum errors: systolic undershoot, diastolic overshoot
        assert rep.eps_p_sys == pytest.approx(-1.0, rel=1e-12)
        assert rep.eps_p_dias == pytest.approx(1.0, rel=1e-12)
        assert rep.eps_q_sys == pytest.approx(-1.0, rel=1e-12)
        assert rep.eps_q_dias == pytest.approx(1.0, rel=1e-12)

    def test_flow_errors_normalized_by_reference_peak(self):
        # a constant flow offset of 1% of the peak gives 1% everywhere
        ref = smooth_cycle()
        q_max = float(np.max(ref.Q))
        test = CycleSeries(t=ref.t, P=ref.P, Q=ref.Q + 0.01 * q_max)
        rep = error_metrics(test, ref)
        assert rep.eps_q_rms == pytest.approx(1.0, rel=1e-9)
        assert rep.eps_q_sys == pytest.approx(1.0, rel=1e-9)
        assert rep.eps_q_dias == pytest.approx(1.0, rel=1e-9)
        assert rep.eps_p_rms == 0.0

    def test_resampling_different_grids(self):
        # the same smooth waveform sampled on shifted grids agrees to the
        # interpolation error
        ref = smooth_cycle(n=400)
        t2 = np.linspace(0.0, 1.1, 263)
        phase = 2.0 * math.pi * t2 / 1.1
        test = CycleSeries(t=t2, P=1.0e5 * (1.0 + 0.2 * np.sin(phase)),
                           Q=60.0 * np.maximum(np.sin(phase), 0.0) + 5.0)
        rep = error_metrics(test, ref)
        assert abs(rep.eps_p_rms) < 1e-2
        assert abs(rep.eps_q_rms) < 0.1

    def test_non_periodic_cycle_compared_pointwise(self):
        # a cycle that has not yet reached the periodic regime: its ends
        # differ, and each end is compared with the reference's same end
        t = np.linspace(0.0, 1.1, 301)
        phase = 2.0 * math.pi * t / 1.1
        ref = CycleSeries(t=t, P=1.0e5 * (1.0 + 0.2 * np.sin(phase)) + 4.0e3 * t,
                          Q=60.0 * np.maximum(np.sin(phase), 0.0) + 5.0 + 3.0 * t)
        rep = error_metrics(ref, ref)
        assert rep.eps_p_rms == 0.0 and rep.eps_q_rms == 0.0
        test = CycleSeries(t=t, P=1.01 * ref.P, Q=ref.Q)
        assert error_metrics(test, ref).eps_p_rms == pytest.approx(1.0, rel=1e-12)

    def test_relative_times_past_the_span_wrap(self):
        test = CycleSeries(t=[0.0, 1.0, 2.0], P=[100.0, 200.0, 150.0],
                           Q=[1.0, 2.0, 1.5])
        # tau = 3 lies one unit past the test's span of 2: phase 1
        ref = CycleSeries(t=[0.0, 1.0, 2.0, 3.0], P=[100.0, 200.0, 150.0, 200.0],
                          Q=[1.0, 2.0, 1.5, 2.0])
        rep = error_metrics(test, ref)
        assert rep.eps_p_rms == 0.0 and rep.eps_q_rms == 0.0

    def test_zero_pressure_rejected(self):
        t = np.array([0.0, 1.0, 2.0])
        ref = CycleSeries(t=t, P=[0.0, 1.0, 0.0], Q=[1.0, 2.0, 1.0])
        test = CycleSeries(t=t, P=[1.0, 1.0, 1.0], Q=[1.0, 2.0, 1.0])
        with pytest.raises(ModelError, match="pressure"):
            error_metrics(test, ref)

    def test_zero_flow_rejected(self):
        t = np.array([0.0, 1.0, 2.0])
        ref = CycleSeries(t=t, P=[1.0, 2.0, 1.0], Q=[-1.0, 0.0, -1.0])
        test = CycleSeries(t=t, P=[1.0, 2.0, 1.0], Q=[1.0, 2.0, 1.0])
        with pytest.raises(ModelError, match="flow"):
            error_metrics(test, ref)


class TestPeriodicity:
    def test_identical_cycles(self):
        cyc = smooth_cycle()
        assert periodicity_reached(cyc, cyc)

    def test_small_shift_above_threshold(self):
        # a pressure offset of 0.2% of the mean exceeds the 1e-3 gap
        cyc = smooth_cycle()
        prev = CycleSeries(t=cyc.t, P=cyc.P - 0.002 * np.mean(cyc.P),
                           Q=cyc.Q, A=cyc.A)
        assert not periodicity_reached(cyc, prev)
        assert periodicity_reached(cyc, prev, threshold=3e-3)

    def test_shift_below_threshold(self):
        cyc = smooth_cycle()
        prev = CycleSeries(t=cyc.t, P=cyc.P * (1.0 + 2e-4), Q=cyc.Q, A=cyc.A)
        assert periodicity_reached(cyc, prev)

    def test_flow_channel_uses_peak_normalizer(self):
        cyc = smooth_cycle()
        q_max = float(np.max(cyc.Q))
        prev = CycleSeries(t=cyc.t, P=cyc.P, Q=cyc.Q - 2e-3 * q_max, A=cyc.A)
        assert not periodicity_reached(cyc, prev)
        prev = CycleSeries(t=cyc.t, P=cyc.P, Q=cyc.Q - 5e-4 * q_max, A=cyc.A)
        assert periodicity_reached(cyc, prev)

    def test_grid_mismatch(self):
        cyc = smooth_cycle(n=100)
        other = smooth_cycle(n=101)
        with pytest.raises(ValueError, match="grids"):
            periodicity_reached(cyc, other)


class TestSampleCycle:
    def test_extracts_last_cycle(self):
        T0 = 1.1
        t = np.linspace(0.0, 5 * T0, 5 * 200 + 1)
        P = 1.0e5 + 100.0 * t  # ramp: easy to verify the window
        Q = np.full(t.size, 5.0)
        cyc = sample_cycle(t, {"P": P, "Q": Q}, T0)
        assert cyc.t[0] == pytest.approx(4 * T0, rel=1e-12)
        assert cyc.t[-1] == pytest.approx(5 * T0, rel=1e-12)
        assert cyc.P[0] == pytest.approx(1.0e5 + 100.0 * 4 * T0, rel=1e-9)

    def test_window_not_covered(self):
        t = np.linspace(0.0, 0.5, 50)
        with pytest.raises(ValueError, match="not covered"):
            sample_cycle(t, {"P": t, "Q": t}, 1.1)

    def test_explicit_sample_count(self):
        t = np.linspace(0.0, 2.2, 100)
        cyc = sample_cycle(t, {"P": t + 1.0, "Q": t + 1.0}, 1.1, n=37)
        assert cyc.t.size == 37


class TestFirstPeriodicCycle:
    T0 = 1.1

    def _transient(self, a, r, n_cycles=12, per_cycle=200):
        """Per-cycle geometric decay: cycle j carries a relative
        perturbation a * r**j on a sine shape that vanishes at the cycle
        boundaries, so the signal is continuous."""
        dt = self.T0 / per_cycle
        t = np.arange(n_cycles * per_cycle + 1) * dt
        j = np.floor(t / self.T0 - 1e-12).astype(int)
        j[0] = 0
        s = np.sin(2.0 * math.pi * t / self.T0)
        P = 1.0e5 * (1.0 + a * r ** j * s)
        Q = 40.0 * (1.0 + a * r ** j * s)
        return t, {"P": P, "Q": Q}

    def test_analytic_cycle_count(self):
        # 1-based cycle k carries a * r**(k-1), so the normalized gap
        # between cycles k-1 and k is a * (1-r) * r**(k-2); the first cycle
        # k matching its predecessor is 2 + ceil(log(threshold / (a (1-r)))
        # / log r)
        a, r, thr = 0.1, 0.5, 1e-3
        expected = 2 + math.ceil(math.log(thr / (a * (1.0 - r)))
                                 / math.log(r))
        assert expected == 8
        t, channels = self._transient(a, r)
        assert first_periodic_cycle(t, channels, self.T0, thr) == expected

    def test_threshold_monotonicity(self):
        t, channels = self._transient(0.1, 0.5)
        loose = first_periodic_cycle(t, channels, self.T0, threshold=1e-2)
        tight = first_periodic_cycle(t, channels, self.T0, threshold=1e-4)
        assert loose < tight

    def test_never_reached(self):
        t, channels = self._transient(0.5, 0.95, n_cycles=6)
        assert first_periodic_cycle(t, channels, self.T0, 1e-3) is None

    def _per_call_grid(self, t, channels, threshold=1e-3):
        """The reference loop: sample_cycle works out the grid size from
        the whole series again for every cycle."""
        n_cycles = int(np.floor((t[-1] - t[0]) / self.T0 + 1e-9))
        prev = None
        for k in range(1, n_cycles + 1):
            cyc = sample_cycle(t, channels, self.T0, end_time=t[0] + k * self.T0)
            if prev is not None and periodicity_reached(cyc, prev, threshold):
                return k
            prev = cyc
        return None

    @pytest.mark.parametrize("a, r, n_cycles, thr, jitter", [
        (0.1, 0.5, 12, 1e-3, 0.0),
        (0.1, 0.5, 12, 1e-2, 0.0),
        (0.1, 0.5, 12, 1e-4, 0.0),
        (0.5, 0.95, 6, 1e-3, 0.0),
        (0.0, 0.5, 12, 1e-3, 0.0),
        (0.1, 0.5, 12, 1e-3, 0.3),
        (0.2, 0.7, 16, 1e-3, 0.45),
    ])
    def test_matches_per_call_grid(self, a, r, n_cycles, thr, jitter):
        t, channels = self._transient(a, r, n_cycles=n_cycles)
        # jitter moves every interior sample by up to the given share of
        # the step, so the steps differ and their median is not T0 / 200
        rng = np.random.default_rng(17)
        t = t.copy()
        t[1:-1] += jitter * (t[1] - t[0]) * rng.uniform(-1.0, 1.0, t.size - 2)
        assert (jitter == 0.0) == (np.ptp(np.diff(t)) < 1e-12)
        expected = self._per_call_grid(t, channels, thr)
        assert first_periodic_cycle(t, channels, self.T0, thr) == expected

    def test_steady_signal_immediate(self):
        # the second cycle is the first with a predecessor to match
        t, channels = self._transient(0.0, 0.5)
        assert first_periodic_cycle(t, channels, self.T0) == 2
