"""Tests of the benchmark itself: the network generator, the output
checks, which must reject deliberately corrupted outputs, and the timer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import copy
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import netgen  # noqa: E402
import speed  # noqa: E402
from hemoflow.cli import main as cli_main  # noqa: E402
from hemoflow.netio import parse_network, synthetic_inflow  # noqa: E402
from hemoflow.solver0d import ModelMode, run_0d  # noqa: E402

T0 = 1.1
CYCLES = 8


class TestGenerator:
    @pytest.mark.parametrize("n_leaves", [2, 4, 8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_parse_network_accepts(self, seed, n_leaves):
        tree = netgen.make_tree(seed, n_leaves)
        net = parse_network(tree.to_text())
        assert len(net.vessels) == 2 * n_leaves - 1
        assert set(net.terminals) == set(tree.terminals)
        assert net.initial_pressure == netgen.P_REF
        assert parse_network(tree.to_text(initial_pressure=0.0)).initial_pressure == 0.0

    def test_same_seed_same_network(self):
        assert netgen.make_tree(5, 8).to_text() == netgen.make_tree(5, 8).to_text()
        assert netgen.make_tree(5, 8).to_text() != netgen.make_tree(6, 8).to_text()

    def test_murray_law_and_total_compliance(self):
        tree = netgen.make_tree(3, 16)
        for parent, (a, b) in tree.junctions.items():
            r = {v: tree.vessels[v].radius for v in (parent, a, b)}
            assert r[parent] ** 3 == pytest.approx(r[a] ** 3 + r[b] ** 3, rel=1e-12)
        c_total = (sum(v.lumped()[2] for v in tree.vessels.values())
                   + sum(t.C for t in tree.terminals.values()))
        assert c_total == pytest.approx(netgen.C_TOT, rel=1e-12)


@pytest.fixture(scope="module")
def tree():
    return netgen.make_tree(2024, 3)


@pytest.fixture(scope="module")
def linear_run(tree):
    res = run_0d(parse_network(tree.to_text()), synthetic_inflow(), ModelMode.linear(),
                 t_end=CYCLES * T0)
    return res.t, res.vessels


@pytest.fixture(scope="module")
def cli_member(tree, tmp_path_factory):
    d = tmp_path_factory.mktemp("member")
    net = d / "network.txt"
    net.write_text(tree.to_text())
    for key, mode in (("lin", "linear"), ("nl", "nonlinear")):
        assert cli_main(["run", "--network", str(net), "--solver", "0d", "--mode", mode,
                         "--t-end", str(CYCLES * T0), "--out", str(d / key)]) == 0
    assert cli_main(["compare", str(d / "lin"), str(d / "nl"),
                     "--out", str(d / "errors.csv")]) == 0
    assert cli_main(["analyze", "--network", str(net), "--run", str(d / "nl"),
                     "--out", str(d / "report.txt")]) == 0
    return d


def scaled_flows(vessels, factor):
    out = copy.deepcopy(vessels)
    for s in out.values():
        s["Q"] = s["Q"] * factor
    return out


def swapped(vessels, a, b):
    out = dict(vessels)
    out[a], out[b] = vessels[b], vessels[a]
    return out


class TestPeriodicChecks:
    def test_clean_run_passes(self, tree, linear_run):
        t, vessels = linear_run
        assert checks.periodic_cycle(t, vessels, T0) is not None
        checks.finite_positive(t, vessels, CYCLES * T0, "run")
        checks.flow_balance(t, vessels, T0, tree, "run")

    def test_flows_scaled_rejected(self, tree, linear_run):
        t, vessels = linear_run
        with pytest.raises(checks.CheckFailed, match="mean"):
            checks.flow_balance(t, scaled_flows(vessels, 1.05), T0, tree, "run")

    def test_daughters_swapped_rejected(self, tree, linear_run):
        t, vessels = linear_run
        a, b = tree.junctions[tree.root]
        with pytest.raises(checks.CheckFailed):
            checks.flow_balance(t, swapped(vessels, a, b), T0, tree, "run")

    def test_short_horizon_not_periodic(self, linear_run):
        t, vessels = linear_run
        n = 3 * 1000 + 1
        short = {v: {ch: s[ch][:n] for ch in s} for v, s in vessels.items()}
        assert checks.periodic_cycle(t[:n], short, T0) is None

    def test_frozen_check_rejects_perturbation(self, linear_run):
        _, vessels = linear_run
        s = vessels["v0"]
        checks.same_series(s, s, checks.TOL_FROZEN, "same")
        bumped = dict(s, P=s["P"] * (1.0 + 1e-9))
        with pytest.raises(checks.CheckFailed):
            checks.same_series(bumped, s, checks.TOL_FROZEN, "bumped")

    def test_mean_inflow_closed_form(self):
        assert netgen.Q_MEAN == pytest.approx(synthetic_inflow().mean(), rel=1e-5)


class TestCliChecks:
    def load(self, tree, d, key):
        return checks.load_run_dir(d / key, list(tree.vessels))

    def test_clean_member_passes(self, tree, cli_member):
        (t, lin), (_, nl) = self.load(tree, cli_member, "lin"), self.load(tree, cli_member, "nl")
        for vessels in (lin, nl):
            checks.finite_positive(t, vessels, CYCLES * T0, "member")
            checks.flow_balance(t, vessels, T0, tree, "member")
        checks.error_table(cli_member / "errors.csv", t, lin, nl, T0, list(tree.vessels))
        checks.analyze_report((cli_member / "report.txt").read_text(), tree)

    def test_flows_scaled_rejected_in_error_table(self, tree, cli_member):
        (t, lin), (_, nl) = self.load(tree, cli_member, "lin"), self.load(tree, cli_member, "nl")
        with pytest.raises(checks.CheckFailed, match="eps_q_rms"):
            checks.error_table(cli_member / "errors.csv", t, lin, scaled_flows(nl, 1.05),
                               T0, list(tree.vessels))

    def test_swapped_csv_files_rejected(self, tree, cli_member, tmp_path):
        a, b = tree.junctions[tree.root]
        d = tmp_path / "lin"
        d.mkdir()
        for vid in tree.vessels:
            src = {a: b, b: a}.get(vid, vid)
            (d / f"{vid}.csv").write_bytes((cli_member / "lin" / f"{src}.csv").read_bytes())
        t, vessels = checks.load_run_dir(d, list(tree.vessels))
        with pytest.raises(checks.CheckFailed):
            checks.flow_balance(t, vessels, T0, tree, "swapped")

    @pytest.mark.parametrize("cut", ["mid-line", "line-boundary"])
    def test_truncated_csv_rejected(self, tree, cli_member, tmp_path, cut):
        d = tmp_path / "lin"
        d.mkdir()
        for vid in tree.vessels:
            (d / f"{vid}.csv").write_bytes((cli_member / "lin" / f"{vid}.csv").read_bytes())
        victim = d / f"{tree.leaves[0]}.csv"
        text = victim.read_text()
        half = len(text) // 2
        if cut == "line-boundary":
            half = text.rindex("\n", 0, half) + 1
        victim.write_text(text[:half])
        with pytest.raises(checks.CheckFailed):
            t, vessels = checks.load_run_dir(d, list(tree.vessels))
            checks.finite_positive(t, vessels, CYCLES * T0, "truncated")

    def test_wrong_eigenvalue_rejected(self, tree, cli_member):
        report = (cli_member / "report.txt").read_text()
        line = next(l for l in report.splitlines() if l.startswith("eigenvalues_PinQout"))
        value = line.split("=", 1)[1].split(";")[0].strip()
        bad = complex(value) * 1.001
        corrupted = report.replace(line, line.replace(value, f"{bad.real:.6g}{bad.imag:+.6g}j"), 1)
        with pytest.raises(checks.CheckFailed, match="eigenvalues"):
            checks.analyze_report(corrupted, tree)

    def test_wrong_error_value_rejected(self, tree, cli_member, tmp_path):
        (t, lin), (_, nl) = self.load(tree, cli_member, "lin"), self.load(tree, cli_member, "nl")
        lines = (cli_member / "errors.csv").read_text().splitlines()
        cols = lines[1].split(",")
        cols[2] = repr(float(cols[2]) * 1.01)
        lines[1] = ",".join(cols)
        bad = tmp_path / "errors.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(checks.CheckFailed, match="eps_p_rms"):
            checks.error_table(bad, t, lin, nl, T0, list(tree.vessels))


def test_rms_errors_of_identical_series_are_zero(linear_run):
    t, vessels = linear_run
    s = vessels["v0"]
    assert checks.rms_errors(t, s, t, s, CYCLES * T0, T0) == (0.0, 0.0)
    p, q = checks.rms_errors(t, s, t, scaled_flows({"v": s}, 1.05)["v"], CYCLES * T0, T0)
    assert p == 0.0 and q > 0.0
    assert np.isfinite(q)


class TestScaledTimer:
    def test_samples_inside_a_call_are_taken_out(self):
        timer = speed.ScaledTimer()
        n = len(timer.samples)
        out, seconds = timer(lambda: sum(i * i for i in range(400_000)))
        assert out == sum(i * i for i in range(400_000))
        assert len(timer.samples) > n
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert 0.0 < seconds < 60.0

    def test_exception_stops_sampling(self):
        timer = speed.ScaledTimer()

        def fail():
            sum(i * i for i in range(200_000))
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            timer(fail)
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
