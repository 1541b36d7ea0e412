"""Network file parsing, waveforms, and results persistence."""

import math

import numpy as np
import pytest

from hemoflow.errors import ConfigurationError
from hemoflow.metrics import ErrorReport
from hemoflow.netio import (
    Junction,
    Network,
    SingleResistance,
    WaveformSeries,
    Windkessel,
    aortic_bifurcation,
    load_network,
    load_waveform,
    parse_network,
    read_series,
    serialize_network,
    synthetic_inflow,
    write_error_table,
    write_series,
)
from hemoflow.vessel import FluidProps, VesselSpec, WallModel

MINIMAL = """
[fluid]
rho = 1.06
mu = 0.04

[vessel v1]
length = 5.0
radius = 0.5
wall_thickness = 0.05
youngs_modulus = 4.0e6

[inflow]
vessel = v1

[terminal v1]
type = rcr
r1 = 100.0
c = 1e-5
r2 = 1e4
"""


class TestBundledBenchmark:
    def test_structure(self):
        net = aortic_bifurcation()
        assert set(net.vessels) == {"aorta", "left_iliac", "right_iliac"}
        assert net.root == "aorta"
        assert len(net.junctions) == 1
        assert net.junctions[0].daughters == ("left_iliac", "right_iliac")
        assert set(net.terminals) == {"left_iliac", "right_iliac"}
        for term in net.terminals.values():
            assert isinstance(term, Windkessel)
            assert term.R1 == pytest.approx(6.8123e2)
            assert term.C == pytest.approx(3.6664e-5)
            assert term.R2 == pytest.approx(3.1013e4)
            assert term.P_v == 0.0

    def test_initial_areas(self):
        net = aortic_bifurcation()
        assert net.initial_area("aorta") == pytest.approx(1.8062, rel=5e-4)
        assert net.initial_area("left_iliac") == pytest.approx(0.94789, rel=5e-4)
        assert net.initial_area("right_iliac") == pytest.approx(0.94789, rel=5e-4)

    def test_fluid_block(self):
        net = aortic_bifurcation()
        assert net.fluid.rho == pytest.approx(1.06)
        assert net.fluid.mu == pytest.approx(0.04)
        assert net.fluid.zeta == pytest.approx(9.0)
        for spec in net.vessels.values():
            assert spec.wall.P0 == pytest.approx(94666.6667, rel=1e-6)


class TestParsing:
    def test_minimal_network(self):
        net = parse_network(MINIMAL)
        spec = net.vessels["v1"]
        assert spec.length == 5.0
        assert spec.wall.A0 == pytest.approx(math.pi * 0.25)
        assert net.root == "v1"

    def test_radius_and_area_exclusive(self):
        bad = MINIMAL.replace("radius = 0.5", "radius = 0.5\narea = 0.8")
        with pytest.raises(ConfigurationError, match="exactly one"):
            parse_network(bad)

    def test_missing_required_key(self):
        bad = MINIMAL.replace("youngs_modulus = 4.0e6\n", "")
        with pytest.raises(ConfigurationError, match="youngs_modulus"):
            parse_network(bad)

    def test_unknown_section(self):
        with pytest.raises(ConfigurationError, match="line"):
            parse_network(MINIMAL + "\n[plumbing]\nx = 1\n")

    def test_duplicate_vessel(self):
        dup = MINIMAL + """
[vessel v1]
length = 1.0
radius = 0.2
wall_thickness = 0.02
youngs_modulus = 1e6
"""
        with pytest.raises(ConfigurationError, match="duplicate vessel"):
            parse_network(dup)

    def test_error_reports_line_number(self):
        bad = MINIMAL.replace("rho = 1.06", "rho 1.06")
        with pytest.raises(ConfigurationError, match=r"line 3"):
            parse_network(bad)

    def test_adan_thickness_flag(self):
        net = parse_network(MINIMAL.replace("wall_thickness = 0.05",
                                            "wall_thickness = adan"))
        h = net.vessels["v1"].wall.h0
        assert 0.0 < h < 0.5

    def test_single_resistance_terminal(self):
        text = MINIMAL.replace(
            "type = rcr\nr1 = 100.0\nc = 1e-5\nr2 = 1e4",
            "type = r\nr = 500.0\np_out = 10.0")
        net = parse_network(text)
        term = net.terminals["v1"]
        assert isinstance(term, SingleResistance)
        assert term.R == 500.0
        assert term.P_v == 10.0

    def test_general_exponents(self):
        text = MINIMAL.replace("youngs_modulus = 4.0e6",
                               "youngs_modulus = 4.0e6\nm = 10\nn = -1.5")
        wall = parse_network(text).vessels["v1"].wall
        assert (wall.m, wall.n) == (10.0, -1.5)
        assert not wall.is_arterial


class TestTopologyValidation:
    @staticmethod
    def _spec(vid):
        wall = WallModel.arterial(A0=1.0, h0=0.05, E=4e6)
        return VesselSpec(vessel_id=vid, length=5.0, wall=wall,
                          fluid=FluidProps(rho=1.06, mu=0.04))

    def _net(self, vessels, root, junctions, terminals):
        return Network(fluid=FluidProps(rho=1.06, mu=0.04),
                       vessels={v: self._spec(v) for v in vessels},
                       root=root, junctions=tuple(junctions),
                       terminals=terminals)

    def test_leaf_without_terminal(self):
        with pytest.raises(ConfigurationError, match="no terminal"):
            self._net(["a"], "a", [], {})

    def test_terminal_on_interior_vessel(self):
        term = SingleResistance(R=1.0)
        with pytest.raises(ConfigurationError, match="both a junction"):
            self._net(["a", "b"], "a", [Junction("a", ("b",))],
                      {"a": term, "b": term})

    def test_dangling_inlet(self):
        term = SingleResistance(R=1.0)
        with pytest.raises(ConfigurationError, match="dangling"):
            self._net(["a", "b"], "a", [], {"a": term, "b": term})

    def test_unknown_junction_member(self):
        with pytest.raises(ConfigurationError, match="unknown vessel"):
            self._net(["a"], "a", [Junction("a", ("ghost",))], {})

    def test_root_cannot_be_daughter(self):
        term = SingleResistance(R=1.0)
        with pytest.raises(ConfigurationError):
            self._net(["a", "b"], "a",
                      [Junction("a", ("b",)), Junction("b", ("a",))],
                      {"b": term})

    def test_duplicate_outlet(self):
        term = SingleResistance(R=1.0)
        with pytest.raises(ConfigurationError, match="more than one"):
            self._net(["a", "b", "c"], "a",
                      [Junction("a", ("b",)), Junction("a", ("c",))],
                      {"b": term, "c": term})


class TestSerialization:
    def test_round_trip_bundled(self):
        net = aortic_bifurcation()
        net2 = parse_network(serialize_network(net))
        assert set(net2.vessels) == set(net.vessels)
        for vid in net.vessels:
            a, b = net.vessels[vid], net2.vessels[vid]
            assert b.length == a.length
            assert b.wall.A0 == a.wall.A0
            assert b.wall.K == a.wall.K
            assert b.wall.P0 == a.wall.P0
        assert net2.junctions == net.junctions
        assert net2.terminals == net.terminals
        assert net2.root == net.root
        assert net2.initial_pressure == net.initial_pressure

    def test_load_network(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(MINIMAL)
        net = load_network(path)
        assert net.root == "v1"


class TestWaveforms:
    def test_synthetic_peak_and_diastole(self):
        w = synthetic_inflow(period=1.1, systole_fraction=0.3, peak=70.0)
        t_sys = 0.3 * 1.1
        assert w(t_sys / 2.0) == pytest.approx(70.0, rel=1e-12)
        assert w(0.5) == 0.0
        assert w(1.05) == 0.0

    def test_synthetic_mean_analytic(self):
        # mean of a half-sine over the period: peak * (2/pi) * systole_fraction
        w = synthetic_inflow(period=1.1, systole_fraction=0.3, peak=70.0)
        assert w.mean() == pytest.approx(70.0 * 2.0 / math.pi * 0.3, rel=1e-4)

    def test_periodic_extension(self):
        w = synthetic_inflow()
        for t in (0.05, 0.17, 0.9):
            assert w(t + 1.1) == pytest.approx(w(t), rel=1e-12)
            assert w(t + 5 * 1.1) == pytest.approx(w(t), rel=1e-12)

    def test_vectorized_call(self):
        w = synthetic_inflow()
        t = np.linspace(0.0, 3.3, 100)
        q = w(t)
        assert q.shape == t.shape
        assert np.all(q >= 0.0)

    @pytest.mark.parametrize("period, t_end", [(1.1, 1.1), (1.0, 0.7), (1.0, 1.0)])
    def test_scalar_call_matches_numpy(self, period, t_end):
        # a float takes the scalar path; it must give np.interp's bits
        rng = np.random.default_rng(7)
        w = WaveformSeries(t=np.concatenate(([0.0], np.sort(rng.uniform(0.0, t_end, 40)),
                                             [t_end])),
                           q=rng.uniform(-5.0, 80.0, 42), period=period)
        times = np.concatenate((rng.uniform(-3.0, 30.0, 5000), w.t, w.t + period,
                                np.arange(0.0, 3.0, 5e-4), [-0.0, period, 2 * period]))
        expected = np.interp(np.mod(times, period), w._tp, w._qp)
        got = [w(float(x)) for x in times]
        assert all(type(v) is float for v in got)
        np.testing.assert_array_equal(got, expected)
        assert math.isnan(w(float("nan")))

    def test_validation(self):
        with pytest.raises(ValueError, match="start at t = 0"):
            WaveformSeries(t=np.array([0.1, 0.2]), q=np.array([1.0, 2.0]),
                           period=1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            WaveformSeries(t=np.array([0.0, 0.0]), q=np.array([1.0, 2.0]),
                           period=1.0)
        with pytest.raises(ValueError, match="past its period"):
            WaveformSeries(t=np.array([0.0, 2.0]), q=np.array([1.0, 2.0]),
                           period=1.0)

    def test_load_waveform(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("t,Q\n0.0,0.0\n0.5,10.0\n1.0,0.0\n")
        w = load_waveform(path)
        assert w.period == 1.0
        assert w(0.25) == pytest.approx(5.0)

    def test_load_waveform_no_header(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("# comment\n0.0,0.0\n1.0,3.0\n")
        w = load_waveform(path, period=2.0)
        assert w.period == 2.0
        assert w(0.5) == pytest.approx(1.5)


class TestSeriesPersistence:
    def test_round_trip(self, tmp_path):
        t = np.linspace(0.0, 1.0, 11)
        P = 1e5 * (1.0 + 0.1 * np.sin(t))
        Q = 30.0 * np.cos(t)
        A = 2.0 + 0.05 * np.sin(t)
        path = tmp_path / "mid.csv"
        write_series(path, t, P, Q, A)
        data = read_series(path)
        assert set(data) == {"t", "P", "Q", "A"}
        np.testing.assert_allclose(data["P"], P, rtol=1e-8)
        np.testing.assert_allclose(data["Q"], Q, rtol=1e-8)

    def test_bytes_match_per_value_format(self, tmp_path):
        # the reference is the per-value "{:.9e}" formatting, row by row
        rng = np.random.default_rng(11)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                   -2.2250738585072e-308, 1e308]
        values = np.concatenate([
            rng.normal(scale=1e5, size=2000),
            rng.uniform(-1.0, 1.0, size=2000) * 10.0 ** rng.integers(-300, 300, 2000),
            np.tile(special, 4),
        ])
        columns = values.reshape(4, -1)
        path = tmp_path / "s.csv"
        write_series(path, *columns)
        expected = "t,P,Q,A\n" + "".join(
            ",".join("{:.9e}".format(c[i]) for c in columns) + "\n"
            for i in range(columns.shape[1]))
        assert path.read_bytes() == expected.encode()

    def test_empty_series(self, tmp_path):
        path = tmp_path / "e.csv"
        write_series(path, [], [], [], [])
        assert path.read_text() == "t,P,Q,A\n"

    def test_read_matches_genfromtxt(self, tmp_path):
        # the reference is the structured-array reader read_series replaced
        rng = np.random.default_rng(3)
        for n in (1, 2, 500):
            columns = rng.normal(scale=1e5, size=(4, n))
            path = tmp_path / f"r{n}.csv"
            write_series(path, *columns)
            ref = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
            data = read_series(path)
            assert list(data) == list(ref.dtype.names) == ["t", "P", "Q", "A"]
            for name in data:
                assert np.array_equal(data[name], ref[name])

    def test_read_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_series(path, [], [], [], [])
        data = read_series(path)
        assert list(data) == ["t", "P", "Q", "A"]
        assert all(v.size == 0 for v in data.values())

    def test_read_errors(self, tmp_path):
        with pytest.raises(OSError, match="cannot read series from"):
            read_series(tmp_path / "missing.csv")
        path = tmp_path / "bad.csv"
        path.write_text("t,P,Q,A\n0.0,1.0,2.0\n")
        with pytest.raises(ValueError, match="3 columns under a header of 4"):
            read_series(path)

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="mismatched"):
            write_series(tmp_path / "x.csv", [0.0, 1.0], [1.0], [1.0, 2.0],
                         [1.0, 2.0])

    def test_error_table(self, tmp_path):
        report = ErrorReport(eps_p_rms=1.0, eps_q_rms=2.0, eps_p_sys=-0.5,
                             eps_q_sys=0.25, eps_p_dias=0.0, eps_q_dias=-1.0)
        path = tmp_path / "errors.csv"
        write_error_table(path, [("aorta", "0d-nl", report)])
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("vessel,model,eps_p_rms")
        assert lines[1].startswith("aorta,0d-nl,")
        assert len(lines) == 2
