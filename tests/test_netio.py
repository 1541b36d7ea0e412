"""Network file parsing, waveforms, and results persistence."""

import math
import re
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hemoflow.errors import ConfigurationError
from hemoflow.metrics import ErrorReport
from hemoflow.netio import (
    _BLOCK_ROWS,
    _KEYS,
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

#: the bundled network's file: [fluid] at line 4, [vessel aorta] at 12,
#: [vessel right_iliac] at 24, [junction] at 30, [inflow] at 34 and
#: [terminal left_iliac] at 37
BUNDLED = resources.files("hemoflow.data").joinpath("aortic_bifurcation.txt").read_text()

README = Path(__file__).resolve().parents[1] / "README.md"


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

    @pytest.mark.parametrize("old, new, message", [
        # each of these was once accepted: the key was ignored, a second
        # [fluid] replaced the first, and the header's last word was dropped
        ("daughters = left_iliac right_iliac",
         "daughters = left_iliac right_iliac\nsplit = 0.5",
         "line 30: [junction] unknown key 'split'"),
        ("vessel = aorta", "vessel = aorta\nwavefrom = q.csv",
         "line 34: [inflow] unknown key 'wavefrom'"),
        ("p_out = 0.0", "p_ot = 5000.0", "line 37: [terminal left_iliac] unknown key 'p_ot'"),
        ("[inflow]", "[fluid]\nrho = 1.0\nmu = 0.04\n\n[inflow]",
         "line 34: duplicate fluid section [fluid], first at line 4"),
        ("[vessel aorta]", "[vessel aorta extra]",
         "line 12: malformed section header '[vessel aorta extra]'"),
        ("[inflow]", "[inflow aorta]", "line 34: section [inflow] takes no name, got 'aorta'"),
        ("[terminal left_iliac]", "[terminal]", "line 37: section [terminal] needs a name"),
        # a [fluid] without rho or mu once raised KeyError
        ("rho = 1.060\n", "", "line 4: [fluid] misses 'rho'"),
        ("mu = 0.04\n", "", "line 4: [fluid] misses 'mu'"),
        ("type = rcr\nr1", "type = rc\nr1",
         "line 37: [terminal left_iliac] unknown terminal type 'rc'"),
        # the geometry and the wall are checked by name first: a negative
        # area once reached math.sqrt ("math domain error"), a negative
        # radius was once squared into A0 = 2.3235, and a negative thickness
        # or Young's modulus was once reported as a negative stiffness
        ("area = 2.3235", "area = -2.3235",
         "line 12: [vessel aorta] area must be positive and finite, got -2.3235"),
        ("area = 2.3235", "area = nan",
         "line 12: [vessel aorta] area must be positive and finite, got nan"),
        ("area = 2.3235", "radius = -0.86",
         "line 12: [vessel aorta] radius must be positive and finite, got -0.86"),
        ("wall_thickness = 0.1032", "wall_thickness = -0.1",
         "line 12: [vessel aorta] wall_thickness must be positive and finite, got -0.1"),
        ("youngs_modulus = 5.0e6", "youngs_modulus = -5.0e6",
         "line 12: [vessel aorta] youngs_modulus must be positive and finite, "
         "got -5000000.0"),
        ("youngs_modulus = 5.0e6", "youngs_modulus = 0",
         "line 12: [vessel aorta] youngs_modulus must be positive and finite, got 0.0"),
        ("youngs_modulus = 7.0e6\n\n[junction]", "youngs_modulus = nan\n\n[junction]",
         "line 24: [vessel right_iliac] youngs_modulus must be positive and finite, "
         "got nan"),
    ])
    def test_bad_section_is_refused(self, old, new, message):
        text = BUNDLED.replace(old, new, 1)
        assert text != BUNDLED
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            parse_network(text)

    @pytest.mark.parametrize("old, new, message", [
        # a build step's error once named neither the line nor the section
        ("youngs_modulus = 7.0e6\n\n[junction]",
         "youngs_modulus = 7.0e6\npoisson = nan\n\n[junction]",
         "line 24: [vessel right_iliac] Poisson ratio must be in [0, 1), got nan"),
        # a Poisson ratio of -1 once divided by zero in the stiffness
        ("youngs_modulus = 5.0e6", "youngs_modulus = 5.0e6\npoisson = -1.0",
         "line 12: [vessel aorta] Poisson ratio must be in [0, 1), got -1.0"),
        ("r1 = 6.8123e2", "r1 = x",
         "line 37: [terminal left_iliac] could not convert string to float: 'x'"),
        ("mu = 0.04", "mu = -0.04", "line 4: [fluid] viscosity must be positive and finite, "
         "got -0.04"),
    ])
    def test_build_error_names_line_and_section(self, old, new, message):
        text = BUNDLED.replace(old, new, 1)
        assert text != BUNDLED
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_network(text)

    def test_build_error_keeps_its_type(self):
        text = BUNDLED.replace("c = 3.6664e-5", "c = 0.0", 1)
        with pytest.raises(ConfigurationError, match=re.escape(
                "line 37: [terminal left_iliac] Windkessel compliance must be positive")):
            parse_network(text)


@st.composite
def mutated_bundled_network(draw):
    """The bundled network's file with one to three mutations: a line
    dropped or repeated, a section repeated, a value set to nan, x or
    nothing, a key misspelled, or a terminal added for an unknown vessel."""
    lines = BUNDLED.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "repeat", "section", "value",
                                     "misspell", "ghost"]))
        key, sep, value = lines[i].partition("=")
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "section":
            heads = [k for k, line in enumerate(lines) if line.startswith("[")]
            start = max((k for k in heads if k <= i), default=0)
            stop = min((k for k in heads if k > i), default=len(lines))
            lines += lines[start:stop]
        elif kind == "value" and sep:
            lines[i] = f"{key}= {draw(st.sampled_from(['nan', 'x', '']))}"
        elif kind == "misspell" and sep and key.strip():
            # a key misspelled down to nothing has no character left to drop
            key = key.strip()
            j = draw(st.integers(0, len(key) - 1))
            lines[i] = f"{key[:j]}{key[j + 1:]} ={value}"
        elif kind == "ghost":
            lines += ["[terminal ghost]", "type = r", "r = 1.0e3"]
    return "\n".join(lines)


class TestParserProperty:
    @given(mutated_bundled_network())
    @example(BUNDLED.replace("rho = 1.060\n", ""))
    @example(BUNDLED + "[terminal ghost]\ntype = r\nr = 1.0e3\n")
    def test_mutated_file_parses_or_raises_typed_error(self, text):
        # the parser returns a network or refuses the file with a typed
        # error: nothing else escapes it
        try:
            network = parse_network(text)
        except (ConfigurationError, ValueError):
            return
        assert isinstance(network, Network)


class TestReadme:
    """The README's network file example and key table."""

    @staticmethod
    def _section() -> str:
        text = README.read_text()
        return text[text.index("## Network file format"):text.index("## Tests")]

    def test_example_is_the_bundled_network(self):
        example = self._section().split("```ini\n", 1)[1].split("```", 1)[0]
        assert (serialize_network(parse_network(example))
                == serialize_network(aortic_bifurcation()))

    def test_key_table_matches_the_parser(self):
        # every row of the README's table is a kind (and terminal type) of
        # _KEYS with its required and optional keys, and every kind is a row
        table = {}
        for line in self._section().splitlines():
            if not line.startswith("| `["):
                continue
            section, types, required, optional = line.split("|")[1:-1]
            kind = re.search(r"\[(\w+)", section).group(1)
            keys = tuple(set(re.findall(r"`(\w+)`", cell)) for cell in (required, optional))
            for name in re.findall(r"`(\w+)`", types) or [None]:
                table[kind, name] = keys
        expected = {}
        for kind, keys in _KEYS.items():
            for name, entry in (keys.items() if kind == "terminal" else [(None, keys)]):
                expected[kind, name] = entry
        assert table == expected


class TestTerminalValidation:
    # NaN passed the old ``<= 0`` tests of the Windkessel, and nothing
    # tested a single resistance
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["R1", "C", "R2", "P_v"])
    def test_windkessel_field_must_be_finite(self, field, bad):
        values = {"R1": 6.8e2, "C": 3.7e-5, "R2": 3.1e4, "P_v": 0.0, field: bad}
        with pytest.raises(ConfigurationError, match=f"finite.*{field}={bad}|finite, got {bad}$"):
            Windkessel(**values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["R", "P_v"])
    def test_single_resistance_field_must_be_finite(self, field, bad):
        values = {"R": 1.0e3, "P_v": 0.0, field: bad}
        with pytest.raises(ConfigurationError, match=f"finite.*{field}={bad}"):
            SingleResistance(**values)

    def test_single_resistance_must_not_be_negative(self):
        # a negative resistance once ran in 0D until a volume collapsed at
        # t = 0.073 s; zero stays allowed
        with pytest.raises(ConfigurationError,
                           match=r"^terminal resistance R must not be negative, got -1000.0$"):
            SingleResistance(R=-1000.0)
        assert SingleResistance(R=0.0).R == 0.0


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

    def test_terminal_of_unknown_vessel(self):
        # once accepted: the 0D run then failed with a NameError in its
        # generated pass and the 1D run with a KeyError
        term = SingleResistance(R=1.0)
        with pytest.raises(ConfigurationError, match="^terminal of unknown vessel 'ghost'$"):
            self._net(["a"], "a", [], {"a": term, "ghost": term})

    def test_root_cannot_be_daughter(self):
        term = SingleResistance(R=1.0)
        with pytest.raises(ConfigurationError):
            self._net(["a", "b"], "a",
                      [Junction("a", ("b",)), Junction("b", ("a",))],
                      {"b": term})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_initial_pressure_must_be_finite(self, bad):
        term = SingleResistance(R=1.0)
        with pytest.raises(ConfigurationError,
                           match=f"^initial pressure must be finite, got {bad}$"):
            Network(fluid=FluidProps(rho=1.06, mu=0.04),
                    vessels={"a": self._spec("a")}, root="a", junctions=(),
                    terminals={"a": term}, initial_pressure=bad)

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

    @pytest.mark.parametrize("dt", [1e-3, 1e-4])
    def test_array_call_matches_scalar_at_stage_times(self, dt):
        # ``run_0d`` tabulates the inflow at every stage time of a run, one
        # call on an array per stage; the generic integrator evaluates
        # t_n = n dt, t_n + dt/2 and t_n + dt one float at a time
        w = synthetic_inflow()
        n_steps = int(round(29.7 / dt))
        t = np.arange(n_steps) * dt
        times = [n * dt for n in range(n_steps)]
        assert np.array_equal(t, times)
        for offset in (0.0, 0.5 * dt, dt):
            np.testing.assert_array_equal(w(t + offset), [w(s + offset) for s in times])

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

    @pytest.mark.parametrize("period", [math.nan, math.inf, 0.0, -1.0])
    def test_period_must_be_positive_and_finite(self, tmp_path, period):
        # nan once made every inflow value NaN, and inf closed the waveform
        # with a sample at t = inf
        message = f"^waveform period must be positive and finite, got {period}$"
        with pytest.raises(ValueError, match=message):
            WaveformSeries(t=np.array([0.0, 0.5]), q=np.array([1.0, 2.0]),
                           period=period)
        path = tmp_path / "wave.csv"
        path.write_text("t,Q\n0.0,0.0\n0.5,10.0\n")
        with pytest.raises(ValueError, match=message):
            load_waveform(path, period=period)

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

    def test_header_after_comments_and_blank_lines(self, tmp_path):
        # the header is the first line that is neither blank nor a comment,
        # wherever it stands in the file
        path = tmp_path / "wave.csv"
        path.write_text("# inflow\n\n# columns\nt,Q\n0.0,0.0\n0.5,10.0\n1.0,0.0\n")
        w = load_waveform(path)
        assert w.period == 1.0 and w.t.tolist() == [0.0, 0.5, 1.0]
        assert w(0.25) == pytest.approx(5.0)

    @pytest.mark.parametrize("text, lineno, line", [
        ("t,Q\n0.0,0.0\nt,Q\n", 3, "t,Q"),
        ("# inflow\nt,Q\n0.0,abc\n", 3, "0.0,abc"),
        ("0.0,0.0\nnan?,1.0\n", 2, "nan?,1.0"),
        ("# inflow\n\n0.0,0.0\n0.5,10.0\n1.0,1e\n", 5, "1.0,1e"),
    ])
    def test_unparsed_field_names_file_and_line(self, tmp_path, text, lineno, line):
        # only the first line that is not blank or a comment may be a header
        path = tmp_path / "wave.csv"
        path.write_text(text)
        message = f"{path}:{lineno}: expected two numbers, got {line!r}"
        with pytest.raises(ValueError) as exc:
            load_waveform(path)
        assert str(exc.value) == message


    @pytest.mark.parametrize("text, lineno, line", [
        ("t,Q\n0.0,0.0\n0.5,10.0,x\n1.0,0.0\n", 3, "0.5,10.0,x"),
        ("# t, Q, P\n0.0,0.0,80.0\n0.5,10.0,120.0\n", 2, "0.0,0.0,80.0"),
        ("t,Q\n0.0,0.0\n0.5\n", 3, "0.5"),
    ])
    def test_row_of_other_than_two_fields_names_file_and_line(self, tmp_path, text,
                                                             lineno, line):
        # a (t, Q, P) file once loaded as its first two columns, silently
        path = tmp_path / "wave.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_waveform(path)
        assert str(exc.value) == f"{path}:{lineno}: expected two columns, got {line!r}"


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
        # empty columns, and no "input contained no data" warning of loadtxt
        path = tmp_path / "e.csv"
        write_series(path, [], [], [], [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = read_series(path)
        assert list(data) == ["t", "P", "Q", "A"]
        assert all(v.size == 0 for v in data.values())

    def test_read_skips_comments_and_blank_lines(self, tmp_path):
        # loadtxt's default comments, "#", after the header line
        path = tmp_path / "c.csv"
        path.write_text("t,P,Q,A\n# first sample\n0.0,1.0,2.0,3.0\n\n"
                        "1.0,4.0,5.0,6.0  # last\n")
        data = read_series(path)
        assert list(data) == ["t", "P", "Q", "A"]
        assert np.array_equal(np.column_stack(list(data.values())),
                              [[0.0, 1.0, 2.0, 3.0], [1.0, 4.0, 5.0, 6.0]])

    def test_read_errors(self, tmp_path):
        with pytest.raises(OSError, match="cannot read series from"):
            read_series(tmp_path / "missing.csv")
        path = tmp_path / "bad.csv"
        path.write_text("t,P,Q,A\n0.0,1.0,2.0\n")
        with pytest.raises(ValueError, match="3 columns under a header of 4"):
            read_series(path)
        path.write_text("t,P,Q,A\n0.0,1.0,2.0,3.0\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="the number of columns changed"):
            read_series(path)

    @staticmethod
    def _near_tie(m: int, e: int, ulps: int) -> float:
        """The double nearest to the decimal m5e{e}, with m of ten digits
        (a tie for rounding to ten significant digits), moved by a few
        ulps."""
        x = float(f"{m}5e{e}")
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        return x

    # any float, doubles within a few ulps of a decimal tie at the tenth
    # significant digit, and floats within about 2e-4 of such a tie, where
    # the writer leaves its fast path
    _values = st.one_of(
        st.floats(),
        st.builds(_near_tie.__func__, st.integers(10**9, 10**10 - 1),
                  st.integers(-120, 110), st.integers(-2, 2)),
        st.builds(lambda m, f, e: (m + f) * 10.0 ** e,
                  st.integers(10**9, 10**10 - 1),
                  st.floats(0.4998, 0.5002), st.integers(-110, 110)))

    @given(st.lists(st.tuples(_values, _values, _values, _values),
                    max_size=40))
    @example([(12345678905.0, 9.9999999995e5, 9.99999999949e-100, -0.0)])
    def test_bytes_match_per_value_format_property(self, tmp_path_factory,
                                                   per_value_csv, rows):
        columns = np.array(rows, dtype=float).reshape(-1, 4).T
        path = tmp_path_factory.getbasetemp() / "property.csv"
        write_series(path, *columns)
        assert path.read_bytes() == per_value_csv(columns)

    def test_crafted_values(self, tmp_path, per_value_csv):
        values = [
            # ties and near-ties at the tenth significant digit
            12345678905.0, 1234567890.5, -2.5e-7, 1.0000000005, 0.30000000005,
            728660791250000.0, 8.1814049745e-20, 8.4092681615e-88,
            # values rounding up to the next decade
            9.9999999995e5, -9.99999999951e-3, 9.99999999949e-100,
            9.9999999999e97, 9.9999999999e98, -9.9999999996e-99,
            # exponents of +-98, +-99 and +-100, and powers of ten
            1.5e98, -1.5e-98, 1.5e99, 1.5e-99, -1.5e100, 1.5e-100,
            1e98, 1e-98, 1e99, 1e-99, 1e100, 1e-100, 1.0, 0.1, 10.0, 1e22,
            1e23, 0.0, -0.0, 5e-324, math.nan, -math.inf,
        ]
        values += [-v for v in values]
        values += [0.0] * (-len(values) % 4)
        columns = np.array(values).reshape(-1, 4).T
        path = tmp_path / "c.csv"
        write_series(path, *columns)
        assert path.read_bytes() == per_value_csv(columns)

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                   _BLOCK_ROWS + 1])
    def test_block_boundaries(self, tmp_path, per_value_csv, n):
        columns = np.random.default_rng(n).normal(scale=1e5, size=(4, n))
        path = tmp_path / "b.csv"
        write_series(path, *columns)
        assert path.read_bytes() == per_value_csv(columns)

    def test_multidimensional_columns(self, tmp_path):
        columns = [np.zeros((2, 3))] * 4
        with pytest.raises(ValueError, match="one-dimensional"):
            write_series(tmp_path / "x.csv", *columns)

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
