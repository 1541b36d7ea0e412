"""Command-line interface, exercised in-process through main(argv)."""

import shutil

import numpy as np
import pytest

from hemoflow.cli import main
from hemoflow.metrics import periodicity_reached, sample_cycle
from hemoflow.netio import aortic_bifurcation, read_series, synthetic_inflow
from hemoflow.solver0d import ModelMode, run_0d
from test_solver0d import asymmetric_tree_text

NETWORK_TEXT = """
[fluid]
rho = 1.06
mu = 0.04
pressure_ref = 0.0
initial_pressure = 0.0

[vessel v]
length = 8.0
area = 2.0
wall_thickness = 0.1
youngs_modulus = 5.0e6

[inflow]
vessel = v

[terminal v]
type = rcr
r1 = 6.8123e2
c = 3.6664e-5
r2 = 3.1013e4
p_out = 0.0
"""

#: what every command says of a period of 0.1 ms on a run sampled every 1 ms
SHORT_PERIOD = ("error: the period T0 = 0.0001 s must be at least two sample steps; "
                "the median step is 0.001 s\n")


@pytest.fixture(scope="module")
def periodic_run(tmp_path_factory):
    """A 0D benchmark run long enough to reach the periodic regime."""
    root = tmp_path_factory.mktemp("cli-runs")
    code = main(["run", "--network", "aortic_bif", "--solver", "0d",
                 "--mode", "nonlinear", "--t-end", "22.0",
                 "--out", str(root / "nl")])
    assert code == 0
    return root / "nl"


def truncated_copy(run, dest, rows):
    """A copy of the run directory ``run`` whose aorta series keeps its
    header and its first ``rows`` samples only."""
    shutil.copytree(run, dest)
    series = dest / "aorta.csv"
    series.write_text("".join(series.read_text().splitlines(True)[:1 + rows]))
    return dest


def cut_copy(run, dest, columns):
    """A copy of the run directory ``run`` whose aorta series keeps its
    first ``columns`` columns only."""
    shutil.copytree(run, dest)
    series = dest / "aorta.csv"
    lines = series.read_text().splitlines()
    series.write_text("".join(",".join(line.split(",")[:columns]) + "\n"
                              for line in lines))
    return dest


class TestRun:
    def test_short_0d_run_writes_series_and_timing(self, tmp_path, capsys):
        out = tmp_path / "short"
        code = main(["run", "--network", "aortic_bif", "--solver", "0d",
                     "--t-end", "0.5", "--out", str(out)])
        assert code == 0
        names = sorted(f.name for f in out.glob("*.csv"))
        assert names == ["aorta.csv", "left_iliac.csv", "right_iliac.csv"]
        timing = (out / "timing.txt").read_text()
        assert "solver = 0d" in timing
        assert "mode = nonlinear" in timing
        assert "seconds_per_cycle" in timing
        # half a second cannot contain a periodic cycle pair
        assert "periodic_cycle = None" in timing
        assert "wrote 3 series" in capsys.readouterr().out

    def test_series_bytes_match_per_value_format(self, tmp_path,
                                                  per_value_csv):
        out = tmp_path / "bytes"
        code = main(["run", "--network", "aortic_bif", "--solver", "0d",
                     "--t-end", "2.2", "--out", str(out)])
        assert code == 0
        result = run_0d(aortic_bifurcation(), synthetic_inflow(period=1.1),
                        ModelMode.nonlinear(), dt=1e-3, t_end=2.2, T0=1.1)
        assert sorted(f.stem for f in out.glob("*.csv")) == sorted(result.vessels)
        for vid, series in result.vessels.items():
            columns = (result.t, series["P"], series["Q"], series["A"])
            assert (out / f"{vid}.csv").read_bytes() == per_value_csv(columns)

    def test_short_1d_run(self, tmp_path):
        net_file = tmp_path / "net.txt"
        net_file.write_text(NETWORK_TEXT)
        out = tmp_path / "run1d"
        code = main(["run", "--network", str(net_file), "--solver", "1d",
                     "--t-end", "0.05", "--dx-max", "1.0",
                     "--out", str(out)])
        assert code == 0
        data = read_series(out / "v.csv")
        assert data["t"][-1] == pytest.approx(0.05, abs=1e-6)
        assert "solver = 1d" in (out / "timing.txt").read_text()

    def test_missing_network_file(self, tmp_path, capsys):
        code = main(["run", "--network", str(tmp_path / "nope.txt"),
                     "--solver", "0d", "--t-end", "0.1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_bad_mode_name(self, tmp_path, capsys):
        code = main(["run", "--network", "aortic_bif", "--solver", "0d",
                     "--mode", "bogus", "--t-end", "0.1",
                     "--out", str(tmp_path / "x")])
        assert code == 1

    def test_missing_required_argument(self, capsys):
        code = main(["run", "--solver", "0d", "--out", "x"])
        assert code == 1
        assert "--network" in capsys.readouterr().err

    def test_unstable_time_step_is_numerical_failure(self, tmp_path, capsys):
        # a sample every 1 ms admits no step above it: this 17-vessel tree
        # collapses at dt = 1e-3 in its nonlinear mode
        net = tmp_path / "tree.txt"
        net.write_text(asymmetric_tree_text())
        code = main(["run", "--network", str(net), "--solver", "0d",
                     "--dt", "1e-3", "--t-end", "1.1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("numerical failure: compartment volume became "
                              "non-positive in vessel 'v5' (whole vessel) at "
                              "t = 0.0015 s"), err

    def test_unstable_linear_time_step_is_refused(self, tmp_path, capsys):
        # a linear run checks its step against RK4's stability region
        # before stepping
        net = tmp_path / "tree.txt"
        net.write_text(asymmetric_tree_text())
        code = main(["run", "--network", str(net), "--solver", "0d",
                     "--mode", "linear", "--dt", "1e-3", "--t-end", "1.1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: time step dt = 0.001 s is outside RK4's "
                              "stability region"), err
        assert ("the largest stable step is 0.0001426 s, and the fastest-growing "
                "mode is dominated by vessel 'v5'") in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("dt, t_end, message", [
        ("3e-3", "1.1", "error: t_end is not a whole number of time steps "
                        "(366.666667) to within 1e-09: dt = 0.003, t_end = 1.1, "
                        "sample_interval = 0.001"),
        ("2e-3", "1.1", "error: sample_interval is shorter than a time step: "
                        "dt = 0.002, t_end = 1.1, sample_interval = 0.001"),
        ("4e-4", "1.1", "error: sample_interval is not a whole number of time "
                        "steps (2.5) to within 1e-09: dt = 0.0004, t_end = 1.1, "
                        "sample_interval = 0.001")])
    def test_time_step_off_the_sample_grid_is_refused(self, tmp_path, capsys, dt,
                                                      t_end, message):
        # the CLI samples every 1 ms, so a step must divide 1 ms and t_end
        code = main(["run", "--network", "aortic_bif", "--solver", "0d",
                     "--dt", dt, "--t-end", t_end, "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("solver", ["0d", "1d"])
    @pytest.mark.parametrize("option, value, message", [
        ("--t-end", "0", "error: t_end must be positive and finite, got 0.0"),
        ("--t-end", "-1", "error: t_end must be positive and finite, got -1.0"),
        ("--T0", "0", "error: period must be positive and finite, got 0.0")])
    def test_run_without_time_is_refused(self, tmp_path, capsys, solver, option,
                                         value, message):
        code = main(["run", "--network", "aortic_bif", "--solver", solver,
                     option, value, "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("dt, message", [
        ("inf", "error: time step must be positive and finite, got dt = inf "
                "(t_end = 1.1)"),
        ("3.0", "error: time step dt = 3.0 takes no finite, positive number of "
                "steps to t_end = 1.1")])
    def test_degenerate_time_step_is_refused(self, tmp_path, capsys, dt, message):
        code = main(["run", "--network", "aortic_bif", "--solver", "0d",
                     "--dt", dt, "--t-end", "1.1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("dx_max", ["nan", "inf", "0"])
    def test_degenerate_cell_size_is_refused(self, tmp_path, capsys, dx_max):
        # nan once failed converting to an integer, and inf gave two cells
        # per vessel
        code = main(["run", "--network", "aortic_bif", "--solver", "1d",
                     "--dx-max", dx_max, "--t-end", "0.01", "--out",
                     str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            f"error: dx_max must be positive and finite, got {float(dx_max)}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, line, message", [
        ("youngs_modulus", "youngs_modulus = 5.0e6",
         "youngs_modulus must be positive and finite, got nan"),
        ("length", "length = 8.0", "vessel length must be positive and finite, got nan"),
        ("rho", "rho = 1.06", "density must be positive and finite, got nan"),
        ("c", "c = 3.6664e-5", "Windkessel compliance must be positive and finite, got nan"),
    ])
    @pytest.mark.parametrize("solver", ["0d", "1d"])
    def test_non_finite_parameter_is_refused(self, tmp_path, capsys, key, line,
                                             message, solver):
        # a NaN once parsed, and the 0D run failed at t = 0.001 s with a
        # non-finite state (exit 2); the error names the section's header
        # line and the section
        net_file = tmp_path / "net.txt"
        net_file.write_text(NETWORK_TEXT.replace(line, f"{key} = nan"))
        code = main(["run", "--network", str(net_file), "--solver", solver,
                     "--t-end", "0.01", "--out", str(tmp_path / "x")])
        assert code == 1
        section = {"rho": "line 2: [fluid]",
                   "c": "line 17: [terminal v]"}.get(key, "line 8: [vessel v]")
        assert capsys.readouterr().err.strip() == f"error: {section} {message}"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("solver", ["0d", "1d"])
    def test_terminal_of_unknown_vessel_is_refused(self, tmp_path, capsys, solver):
        # the 0D run once failed with a NameError in its generated pass, and
        # the 1D run with a KeyError
        net_file = tmp_path / "net.txt"
        net_file.write_text(NETWORK_TEXT + "\n[terminal ghost]\nr1 = 1.0e3\nc = 1.0e-5\n"
                            "r2 = 1.0e4\n")
        code = main(["run", "--network", str(net_file), "--solver", solver,
                     "--t-end", "0.01", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.strip() == "error: terminal of unknown vessel 'ghost'"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("rho = 1.06\n", "", "line 2: [fluid] misses 'rho'"),
        ("[inflow]\nvessel = v", "[inflow]\nvessel = v\nwavefrom = q.csv",
         "line 14: [inflow] unknown key 'wavefrom'")])
    def test_bad_section_is_refused(self, tmp_path, capsys, old, new, message):
        # a [fluid] without rho once ended in a KeyError traceback, and the
        # misspelled waveform key ran the synthetic inflow
        net_file = tmp_path / "net.txt"
        net_file.write_text(NETWORK_TEXT.replace(old, new))
        code = main(["run", "--network", str(net_file), "--solver", "0d",
                     "--t-end", "0.01", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not (tmp_path / "x").exists()

    def test_period_shorter_than_two_samples_is_refused(self, tmp_path, capsys):
        # refused before the first series is written
        code = main(["run", "--network", "aortic_bif", "--solver", "0d",
                     "--t-end", "0.1", "--T0", "1e-4", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == SHORT_PERIOD
        assert not (tmp_path / "x").exists()

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEMOFLOW_OUT", str(tmp_path))
        code = main(["run", "--network", "aortic_bif", "--solver", "0d",
                     "--t-end", "0.1", "--out", "rel"])
        assert code == 0
        assert (tmp_path / "rel" / "aorta.csv").exists()

    def test_timing_reports_later_cycle_of_matching_pair(self, periodic_run):
        # cycle k of every vessel matches cycle k - 1, and cycle k - 1 of the
        # last vessel to settle does not match cycle k - 2
        timing = (periodic_run / "timing.txt").read_text()
        k = int(timing.split("periodic_cycle = ")[1])

        def cycle(run, j):
            return sample_cycle(run["t"], run, 1.1, end_time=run["t"][0] + j * 1.1)

        pairs = []
        for f in periodic_run.glob("*.csv"):
            run = read_series(f)
            pairs.append([periodicity_reached(cycle(run, j), cycle(run, j - 1), 1e-3)
                          for j in (k - 1, k)])
        assert all(now for _, now in pairs)
        assert not all(before for before, _ in pairs)


class TestCompare:
    def test_run_against_itself_gives_zero_errors(self, periodic_run,
                                                  tmp_path):
        out = tmp_path / "errors.csv"
        code = main(["compare", str(periodic_run), str(periodic_run),
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("vessel,model,")
        assert len(lines) == 4
        # not bitwise zero: the metric wraps the cycle periodically, so the
        # seam picks up the residual cycle-to-cycle gap (< 1e-3 relative)
        for line in lines[1:]:
            values = [float(x) for x in line.split(",")[2:]]
            assert all(abs(v) < 1e-2 for v in values)

    def test_vessel_mismatch(self, periodic_run, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(periodic_run, broken)
        (broken / "aorta.csv").rename(broken / "renamed.csv")
        code = main(["compare", str(periodic_run), str(broken),
                     "--out", str(tmp_path / "e.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "aorta" in err and "renamed" in err

    def test_non_periodic_run_rejected(self, tmp_path, capsys):
        out = tmp_path / "shorty"
        assert main(["run", "--network", "aortic_bif", "--solver", "0d",
                     "--t-end", "3.0", "--out", str(out)]) == 0
        code = main(["compare", str(out), str(out),
                     "--out", str(tmp_path / "e.csv")])
        assert code == 2
        assert "periodic" in capsys.readouterr().err

    def test_runs_ending_apart_are_refused(self, periodic_run, tmp_path, capsys):
        # the last cycles of runs to 22.0 s and to 22.55 s are half a period
        # out of phase
        later = tmp_path / "later"
        assert main(["run", "--network", "aortic_bif", "--solver", "0d",
                     "--t-end", "22.55", "--out", str(later)]) == 0
        capsys.readouterr()
        code = main(["compare", str(periodic_run), str(later),
                     "--out", str(tmp_path / "e.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "reference at t = 22 s" in err and "test at t = 22.55 s" in err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("rows", [0, 1])
    def test_series_shorter_than_two_samples_is_refused(self, periodic_run,
                                                        tmp_path, capsys, rows):
        # an empty series once raised an IndexError from sample_cycle, and
        # a one-sample one was refused as a cycle its samples do not cover,
        # naming no file
        short = truncated_copy(periodic_run, tmp_path / "short", rows)
        for ref, test in ((periodic_run, short), (short, periodic_run)):
            code = main(["compare", str(ref), str(test),
                         "--out", str(tmp_path / "e.csv")])
            assert code == 1
            err = capsys.readouterr().err
            assert err == (f"error: {short / 'aorta.csv'} holds {rows} samples; "
                           f"a run needs at least 2\n")
        assert not (tmp_path / "e.csv").exists()

    def test_series_with_a_missing_column_is_refused(self, periodic_run,
                                                   tmp_path, capsys):
        # a series without its A column once raised a bare KeyError
        cut = cut_copy(periodic_run, tmp_path / "cut", 3)
        for ref, test in ((periodic_run, cut), (cut, periodic_run)):
            code = main(["compare", str(ref), str(test),
                         "--out", str(tmp_path / "e.csv")])
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: {cut / 'aorta.csv'} has the header t,P,Q; "
                f"a series has t,P,Q,A\n")
        assert not (tmp_path / "e.csv").exists()

    def test_period_shorter_than_two_samples_is_refused(self, periodic_run,
                                                        tmp_path, capsys):
        code = main(["compare", str(periodic_run), str(periodic_run),
                     "--T0", "1e-4", "--out", str(tmp_path / "e.csv")])
        assert code == 1
        assert capsys.readouterr().err == SHORT_PERIOD
        assert not (tmp_path / "e.csv").exists()

    def test_missing_directory(self, tmp_path, capsys):
        code = main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                     "--out", str(tmp_path / "e.csv")])
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestAnalyze:
    def test_report_to_stdout(self, capsys):
        code = main(["analyze", "--network", "aortic_bif"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[vessel aorta]" in out
        assert "f1 = 2.4695" in out
        assert "classification_PinQout = asymptotically stable" in out
        assert "unavailable" in out

    def test_report_to_file_with_velocities(self, periodic_run, tmp_path):
        out = tmp_path / "report.txt"
        code = main(["analyze", "--network", "aortic_bif",
                     "--run", str(periodic_run), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "U_mean" in text
        assert "gamma_C_over_gamma_P" in text
        assert "unavailable" not in text

    @pytest.mark.parametrize("rows", [0, 1])
    def test_run_with_a_short_series_is_refused(self, periodic_run, tmp_path,
                                                capsys, rows):
        short = truncated_copy(periodic_run, tmp_path / "short", rows)
        code = main(["analyze", "--network", "aortic_bif", "--run", str(short)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: {short / 'aorta.csv'} holds {rows} samples; "
                       f"a run needs at least 2\n")

    def test_period_shorter_than_two_samples_is_refused(self, periodic_run,
                                                        capsys):
        code = main(["analyze", "--network", "aortic_bif", "--run", str(periodic_run),
                     "--T0", "1e-4"])
        assert code == 1
        assert capsys.readouterr() == ("", SHORT_PERIOD)

    def test_run_with_a_missing_column_is_refused(self, periodic_run, tmp_path,
                                                  capsys):
        cut = cut_copy(periodic_run, tmp_path / "cut", 3)
        code = main(["analyze", "--network", "aortic_bif", "--run", str(cut)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {cut / 'aorta.csv'} has the header t,P,Q; a series has t,P,Q,A\n")
