"""Error metrics and periodicity detection."""

import math

import numpy as np
import pytest

from hemoflow.errors import ModelError
from hemoflow.metrics import (
    CycleSeries,
    cycle_samples,
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

    @pytest.mark.parametrize("channel", ["P", "Q", "A"])
    def test_zero_normalizer(self, channel):
        cyc = smooth_cycle()
        zeros = {channel: np.zeros_like(cyc.t)}
        cyc, prev = (CycleSeries(**{**vars(cyc), **zeros}) for _ in range(2))
        with pytest.raises(ModelError, match=f"channel {channel} "):
            periodicity_reached(cyc, prev)

    @pytest.mark.parametrize("channel", ["P", "Q", "A"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_gap_as_the_loop_takes_it(self, channel, value):
        # a NaN gap fails the test on P and is passed over on Q and A, as
        # Python's max of the gaps takes it; an infinite value in the cycle
        # makes its gap inf / inf, which the loop warned of
        cyc = smooth_cycle()
        values = getattr(cyc, channel).copy()
        values[7] = value
        prev = CycleSeries(**{**vars(cyc), channel: values})
        for a, b in ((cyc, prev), (prev, cyc)):
            with np.errstate(invalid="ignore"):
                expected = reference_reached(a, b, 1e-3)
            assert periodicity_reached(a, b) == expected


#: the sample step of ``steady_series``, exact in binary
STEP = 2.0**-8


def steady_series(samples=401):
    """A constant signal sampled every STEP seconds from t = 0."""
    t = np.arange(samples) * STEP
    return t, {"P": np.full(samples, 1.0e5), "Q": np.full(samples, 5.0)}


def period_refusal(T0, step=STEP):
    return (f"the period T0 = {T0:.6g} s must be at least two sample steps; "
            f"the median step is {step:.6g} s")


#: times whose median step is zero: more than half the steps repeat a time
REPEATED_TIMES = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0])

#: what the period rule says of a median step of zero
STEP_REFUSAL = "the sample step must be positive; the median step is 0 s"


class TestCycleSamples:
    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan])
    def test_step_that_is_not_positive(self, step):
        with pytest.raises(ValueError) as exc:
            cycle_samples(1.1, step)
        assert str(exc.value) == (f"the sample step must be positive; the median "
                                  f"step is {step:.6g} s")


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

    @pytest.mark.parametrize("T0", [0.0, -1.1, math.nan, 1.9 * STEP])
    def test_period_the_samples_cannot_resolve(self, T0):
        t, channels = steady_series()
        with pytest.raises(ValueError) as exc:
            sample_cycle(t, channels, T0)
        assert str(exc.value) == period_refusal(T0)

    def test_period_of_two_steps(self):
        t, channels = steady_series()
        cyc = sample_cycle(t, channels, 2.0 * STEP)
        assert np.array_equal(cyc.t, t[-3:])

    def test_infinite_period_not_covered(self):
        t, channels = steady_series()
        with pytest.raises(ValueError, match="not covered by samples$"):
            sample_cycle(t, channels, math.inf)

    def test_median_step_of_zero(self):
        t = REPEATED_TIMES
        with pytest.raises(ValueError) as exc:
            sample_cycle(t, {"P": t + 1.0, "Q": t + 1.0}, 1.1)
        assert str(exc.value) == STEP_REFUSAL


def reference_reached(cycle, previous, threshold):
    """The periodicity criterion of one pair of cycles, as the cycle-by-cycle
    search computed it: each channel's gap on its own, and Python's max of
    the gaps."""
    gaps = []
    for name in ("P", "Q", "A"):
        a, b = getattr(cycle, name), getattr(previous, name)
        if a is None or b is None:
            continue
        norm = float(np.max(a)) if name == "Q" else float(np.mean(a))
        if norm == 0.0:
            raise ModelError(f"zero normalizer for channel {name} in the "
                             f"periodicity criterion")
        gaps.append(np.max(np.abs(a - b)) / abs(norm))
    return max(gaps) < threshold


def outcome(search, *args):
    """What a search returns, or the type and the text of what it raises."""
    try:
        return search(*args)
    except (ModelError, ValueError) as exc:
        return type(exc), str(exc)


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

    def _per_call_grid(self, t, channels, threshold=1e-3, T0=None):
        """The reference loop: one cycle after another, sample_cycle
        working out the grid size from the whole series again for every
        cycle, each pair compared by ``reference_reached``."""
        T0 = self.T0 if T0 is None else T0
        t = np.asarray(t, dtype=float)
        n_cycles = int(np.floor((t[-1] - t[0]) / T0 + 1e-9))
        prev = None
        for k in range(1, n_cycles + 1):
            cyc = sample_cycle(t, channels, T0, end_time=t[0] + k * T0)
            if prev is not None and reference_reached(cyc, prev, threshold):
                return k
            prev = cyc
        return None

    def assert_same_search(self, t, channels, threshold=1e-3, T0=None):
        """``first_periodic_cycle`` gives the reference loop's cycle, or
        raises its error; returns that outcome."""
        T0 = self.T0 if T0 is None else T0
        expected = outcome(self._per_call_grid, t, channels, threshold, T0)
        assert outcome(first_periodic_cycle, t, channels, T0, threshold) == expected
        return expected

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
        self.assert_same_search(t, channels, thr)

    def test_steady_signal_immediate(self):
        # the second cycle is the first with a predecessor to match
        t, channels = self._transient(0.0, 0.5)
        assert first_periodic_cycle(t, channels, self.T0) == 2

    def test_run_shorter_than_two_cycles(self):
        # less than one cycle has none to sample, one cycle none to compare
        t, channels = self._transient(0.1, 0.5, n_cycles=2)
        for samples in (150, 201, 300):
            part = {name: v[:samples] for name, v in channels.items()}
            assert self.assert_same_search(t[:samples], part) is None

    def test_long_run_periodic_early(self):
        # 27 cycles, periodic at the fifth: every cycle is sampled, and the
        # fifth is still the first periodic one
        a, r, thr = 0.1, 0.2, 1e-3
        expected = 2 + math.ceil(math.log(thr / (a * (1.0 - r))) / math.log(r))
        assert expected == 5
        t, channels = self._transient(a, r, n_cycles=27)
        assert self.assert_same_search(t, channels, thr) == expected

    def test_first_window_before_the_samples(self):
        # at t[0] = 2^30, (t[0] + T0) - T0 rounds 2^-23 below t[0]: the
        # first cycle is not covered, and the search says which window
        t, channels = self._transient(0.1, 0.5, n_cycles=4)
        t = 2.0**30 + t
        assert (t[0] + self.T0) - self.T0 < t[0] - 1e-9
        kind, message = self.assert_same_search(t, channels)
        assert kind is ValueError and message.endswith("not covered by samples")

    def test_period_below_the_spacing_of_the_times(self):
        # near t = 2^30, doubles are 2^-22 apart: a window of 2^-25 would
        # end where it starts, and the period is refused before any window
        t = 2.0**30 + np.arange(1000) * 2.0**-22
        channels = {"P": 1.0 + 0.0 * t, "Q": 1.0 + 0.0 * t}
        kind, message = self.assert_same_search(t, channels, 1e-3, 2.0**-25)
        assert (kind, message) == (ValueError, period_refusal(2.0**-25, 2.0**-22))

    @pytest.mark.parametrize("T0", [0.0, -1.1, math.nan, 1.9 * STEP])
    def test_period_the_samples_cannot_resolve(self, T0):
        # refused before the count of cycles, which a tiny period makes
        # huge: at T0 = 1e-9 s, the ends of an 8.8 s run's cycles take 65.6 GiB
        t, channels = steady_series()
        with pytest.raises(ValueError) as exc:
            first_periodic_cycle(t, channels, T0)
        assert str(exc.value) == period_refusal(T0)

    def test_period_of_two_steps(self):
        # the second cycle is the first with a predecessor to match
        t, channels = steady_series()
        assert self.assert_same_search(t, channels, 1e-3, 2.0 * STEP) == 2

    def test_infinite_period_never_reached(self):
        t, channels = steady_series()
        assert first_periodic_cycle(t, channels, math.inf) is None

    def test_median_step_of_zero(self):
        t = REPEATED_TIMES
        with pytest.raises(ValueError) as exc:
            first_periodic_cycle(t, {"P": t + 1.0, "Q": t + 1.0}, 1.1)
        assert str(exc.value) == STEP_REFUSAL

    @pytest.mark.parametrize("channel", ["P", "Q", "A"])
    @pytest.mark.parametrize("r, zero_from, expected", [(0.95, 5, ModelError), (0.1, 9, 4)])
    def test_zero_normalizer_where_the_loop_reaches_it(self, channel, r, zero_from,
                                                       expected):
        # the channel is 0 from shortly before cycle zero_from ends, so
        # cycle zero_from + 1 has a zero normalizer: the slow transient
        # reaches it and raises, the fast one is periodic at cycle 4 first
        t, channels = self._transient(0.1, r)
        channels["A"] = channels["P"] / 5.0e4
        zero = t > (zero_from - 0.1) * self.T0
        channels[channel] = np.where(zero, 0.0, channels[channel])
        found = self.assert_same_search(t, channels)
        if expected is ModelError:
            assert found == (ModelError, f"zero normalizer for channel {channel} "
                                         f"in the periodicity criterion")
        else:
            assert found == expected

    @pytest.mark.parametrize("points", [1, 1000, 5000])
    def test_passes_of_any_size(self, monkeypatch, points):
        # a pass of 2 cycles (the fewest), or several, gives the one pass's
        # cycle and errors, the cycle before a pass's first being compared
        # with it
        import hemoflow.metrics as metrics

        cases = [self._transient(a, r, n_cycles=c) for a, r, c in
                 [(0.1, 0.5, 12), (0.1, 0.2, 27), (0.5, 0.95, 6), (0.0, 0.5, 12)]]
        t, channels = self._transient(0.1, 0.95)
        cases.append((t, {**channels, "P": np.where(t > 4.9 * self.T0, 0.0, channels["P"])}))
        expected = [outcome(first_periodic_cycle, t, ch, self.T0) for t, ch in cases]
        monkeypatch.setattr(metrics, "_PASS_POINTS", points)
        for (t, channels), found in zip(cases, expected):
            assert self.assert_same_search(t, channels) == found

    @pytest.fixture(scope="class")
    def cli_series(self, tmp_path_factory):
        """Series read back from CLI runs: the bundled bifurcation in 0D,
        27 cycles sampled at every step, and a one-vessel network in 1D, 6
        cycles sampled at its step ends, 1.4 to 2.9 ms apart."""
        from test_cli import NETWORK_TEXT

        from hemoflow.cli import main
        from hemoflow.netio import read_series

        root = tmp_path_factory.mktemp("periodic-search")
        net = root / "v.txt"
        net.write_text(NETWORK_TEXT)
        runs = {"0d-nonlinear": ["aortic_bif", "--solver", "0d", "--mode", "nonlinear"],
                "0d-linear": ["aortic_bif", "--solver", "0d", "--mode", "linear"],
                "1d": [str(net), "--solver", "1d", "--t-end", "6.6", "--dx-max", "2.0"]}
        series = []
        for name, args in runs.items():
            assert main(["run", "--network", *args, "--out", str(root / name)]) == 0
            for f in sorted((root / name).glob("*.csv")):
                run = read_series(f)
                series.append((f"{name}/{f.stem}", run["t"],
                               {ch: run[ch] for ch in ("P", "Q", "A")}))
        return series

    @pytest.mark.parametrize("T0, thr", [(1.1, 1e-3), (1.1, 1e-2), (1.1, 1e-4),
                                         (0.9, 1e-2), (0.37, 1e-1)])
    def test_cli_series_match_per_call_grid(self, cli_series, T0, thr):
        found = {name: self.assert_same_search(t, channels, thr, T0)
                 for name, t, channels in cli_series}
        if (T0, thr) == (1.1, 1e-3):
            # timing.txt's periodic cycle of the 0D runs is the latest
            assert max(k for name, k in found.items() if name.startswith("0d-")) == 16
            assert found["1d/v"] is None

    def test_stacked_rows_have_the_bits_of_each_cycle(self, cli_series):
        # the windows' grid and the channels on it, row by row, and their
        # row means are sample_cycle's cycles and their means, bit for bit
        for name, t, channels in cli_series:
            n = cycle_samples(self.T0, float(np.median(np.diff(t))))
            n_cycles = int(np.floor((t[-1] - t[0]) / self.T0 + 1e-9))
            ends = t[0] + np.arange(1, n_cycles + 1) * self.T0
            grid = np.ascontiguousarray(np.linspace(ends - self.T0, ends, n, axis=1))
            cycles = [sample_cycle(t, channels, self.T0, end_time=t[0] + k * self.T0)
                      for k in range(1, n_cycles + 1)]
            assert np.array_equal(grid, [c.t for c in cycles]), name
            for ch, values in channels.items():
                rows = np.interp(grid, t, values)
                assert np.array_equal(rows, [getattr(c, ch) for c in cycles]), (name, ch)
                means = np.mean(rows, axis=-1)
                assert np.array_equal(means, [np.mean(getattr(c, ch)) for c in cycles]), \
                    (name, ch)
