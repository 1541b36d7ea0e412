"""hemoflow benchmark: three closed-loop workloads through the public API
and the command line, with output checks and optional span tracing.

Usage, from the repository root:

    python3 perfbench/run.py --workload bif-1d --seed 1 --seconds 36 --trace 0

Each run makes its inputs from the seed, measures the set-up of the
workload's networks, then runs whole rounds of the workload's operations,
one after the other, while the next round would end less than half a
round past ``--seconds`` (at least one round). It checks every output and
prints the metrics, one per line, then a JSON object as the last line. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one untraced round, then traced
rounds, and reports the per-layer metrics and the tracing overhead. See
README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from importlib import resources
from pathlib import Path

# one thread: numpy's OpenBLAS pool would add a second one, whose spinning
# counts in the process's CPU time. Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402
import netgen  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import ScaledTimer, raw_timer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
T0 = 1.1
#: set-up is repeated until it has taken this much CPU time, at least
#: SETUP_MIN_REPEATS times; the median repetition is reported
SETUP_SECONDS = 1.0
SETUP_MIN_REPEATS = 31
#: horizon of the short 1D runs on fixed trees: 76-88 steps
SHORT_1D_T = 0.01
#: generator seed of the fixed trees of the short 1D runs. Their cost per
#: cycle follows the CFL step of the tree's stiffest short vessel, so a
#: tree drawn from --seed would make cycles_per_s.1d spread with the seed
FIXED_SEED = 0


def import_hemoflow():
    """Import the package from this checkout's sources, and only from there."""
    src = ROOT / "src"
    if not (src / "hemoflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hemoflow sources under {src}")
    sys.path.insert(0, str(src))
    import hemoflow
    import hemoflow.cli  # noqa: F401  (imports every layer)
    if Path(hemoflow.__file__).resolve().parent != src / "hemoflow":
        sys.exit(f"perfbench: imported hemoflow from {hemoflow.__file__}")
    return hemoflow


class Tally:
    """Operations attempted and failed, and whether every check passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def note(self, message: str) -> None:
        print(f"perfbench: {message}", file=sys.stderr)


class Workload:
    """One workload: inputs made from the seed, a set-up step, and rounds
    of operations. ``round`` returns the round's end-to-end figures."""

    def __init__(self, hf, seed: int, workdir: Path):
        self.hf = hf
        self.inflow = hf.netio.synthetic_inflow(period=T0)
        self.tracer: Tracer | None = None
        #: CPU seconds of a call; at the reference speed unless traced
        self.timer = raw_timer
        self.tally = Tally()
        self.cycles_1d = 0.0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def op(self, name: str, fn, may_fail: bool = False):
        """Run one operation and return (output, CPU seconds). A ModelError
        counts it as failed and returns (None, None), so that its time
        enters no metric. Only an operation marked ``may_fail`` (the
        junction fault, see README.md) may fail in a correct run."""
        self.tally.attempted += 1
        try:
            with self.span("bench." + name):
                return self.timer(fn)
        except self.hf.errors.ModelError as exc:
            self.fail(name, f"{type(exc).__name__}: {exc}", may_fail)
            return None, None

    def fail(self, name: str, reason: str, may_fail: bool) -> None:
        self.tally.failed += 1
        self.tally.correct &= may_fail
        self.tally.note(f"{name} failed: {reason}")

    def cli(self, name: str, argv: list[str]):
        """Run one command in-process; a non-zero exit counts it as failed.
        Returns its CPU seconds, or None if it failed."""
        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.hf.cli.main([str(a) for a in argv])
        code, seconds = self.op(name, call)
        if code is not None and code != 0:
            self.fail(name, f"exit code {code}", False)
            return None
        return seconds

    def check(self, fn, *args) -> None:
        try:
            with self.span("bench.check"):
                fn(*args)
        except checks.CheckFailed as exc:
            self.tally.correct = False
            self.tally.note(f"check failed: {exc}")

    def assemble_0d(self, net) -> None:
        """The set-up the linear and nonlinear 0D runs of ``net`` perform."""
        s0 = self.hf.solver0d
        for mode in (s0.ModelMode.linear(), s0.ModelMode.nonlinear()):
            s0.assemble_network(net, mode, self.inflow).initial_state()

    def assemble_1d(self, net) -> None:
        """The set-up a 1D run of ``net`` performs."""
        self.hf.solver1d.Simulation1D(net, self.inflow)

    def run_0d(self, net, mode, t_end):
        s0 = self.hf.solver0d
        return s0.run_0d(net, self.inflow, mode, dt=1e-3, t_end=t_end, T0=T0)

    def run_1d(self, net, t_end):
        return self.hf.solver1d.run_1d(net, self.inflow, t_end=t_end, T0=T0)

    def report(self, rounds: list[dict]) -> None:
        """Print figures that are reported but not gated."""


class Bif1D(Workload):
    """The paper's experiment: the bundled aortic bifurcation, 1D reference
    over two cycles, linear and nonlinear 0D into the periodic regime.
    The seed does not change it."""

    CYCLES_1D = 2
    CYCLES_0D = 16

    def __init__(self, hf, seed, workdir):
        super().__init__(hf, seed, workdir)
        self.text = resources.files("hemoflow.data").joinpath(
            "aortic_bifurcation.txt").read_text()
        self.errors: dict[str, tuple[float, float]] = {}

    def setup(self):
        self.net = self.hf.netio.parse_network(self.text)
        self.assemble_0d(self.net)
        self.assemble_1d(self.net)

    def round(self):
        modes = self.hf.solver0d.ModelMode
        t1, t0 = self.CYCLES_1D * T0, self.CYCLES_0D * T0
        ref, s_1d = self.op("run_1d", lambda: self.run_1d(self.net, t1))
        lin, s_lin = self.op("run_0d_linear", lambda: self.run_0d(self.net, modes.linear(), t0))
        nl, s_nl = self.op("run_0d_nonlinear",
                           lambda: self.run_0d(self.net, modes.nonlinear(), t0))
        k = None
        if ref is not None and lin is not None and nl is not None:
            k = self.check_outputs(ref, lin, nl, t1, t0)
            self.cycles_1d += self.CYCLES_1D
        return {"cycles_per_s.1d": rate(self.CYCLES_1D, s_1d),
                "cycles_per_s.0d-linear": rate(self.CYCLES_0D, s_lin),
                "cycles_per_s.0d-nonlinear": rate(self.CYCLES_0D, s_nl),
                "periodic_s.0d-nonlinear": periodic_seconds(s_nl, k, self.CYCLES_0D),
                "members_per_s": rate(1, s_1d, s_lin, s_nl),
                "op_s": total(s_1d, s_lin, s_nl),
                "speedup.nonlinear": ratio(rate(self.CYCLES_0D, s_nl),
                                           rate(self.CYCLES_1D, s_1d))}

    def report(self, rounds):
        print(f"1D/0D-nonlinear CPU time per cycle: {median_of(rounds, 'speedup.nonlinear'):.2f}")
        for key, (eps_p, eps_q) in sorted(self.errors.items()):
            print(f"0D vs 1D on cycle {self.CYCLES_1D}, {key}: "
                  f"eps_P_rms = {eps_p:.3f}%, eps_Q_rms = {eps_q:.3f}%")

    def check_outputs(self, ref, lin, nl, t1, t0):
        for label, res, t_end in (("1d", ref, t1), ("0d-linear", lin, t0),
                                  ("0d-nonlinear", nl, t0)):
            self.check(checks.finite_positive, res.t, res.vessels, t_end, label)
            self.check(self.symmetric, res, label)
        for label, res in (("linear", lin), ("nonlinear", nl)):
            for vid in ref.vessels:
                self.check(self.within_budget, ref, res, vid, label)
        k = checks.periodic_cycle(nl.t, nl.vessels, T0)
        self.check(checks.require, k is not None,
                   "0d-nonlinear: no periodic cycle within the horizon")
        return k

    @staticmethod
    def symmetric(res, label):
        left, right = res.vessels["left_iliac"], res.vessels["right_iliac"]
        for ch in ("P", "Q", "A"):
            checks.require(bool((left[ch] == right[ch]).all()),
                           f"{label}: left and right iliac {ch} differ")

    def within_budget(self, ref, res, vid, label):
        eps_p, eps_q = checks.rms_errors(ref.t, ref.vessels[vid], res.t, res.vessels[vid],
                                         self.CYCLES_1D * T0, T0)
        self.errors[f"{label}.{vid}"] = (eps_p, eps_q)
        checks.require(eps_p < 2.0 and eps_q < 3.0,
                       f"0d-{label} {vid}: RMS errors {eps_p:.3f}% P, {eps_q:.3f}% Q "
                       f"exceed the 2%/3% budget")


class Tree0D(Workload):
    """One generated 15-vessel tree in 0D, linear and nonlinear, into the
    periodic regime; a short frozen-area run; a short 1D run of a fixed
    tree; and the same run from zero pressure (the junction fault)."""

    LEAVES = 8
    CYCLES = 8
    FROZEN_T = 0.22

    def __init__(self, hf, seed, workdir):
        super().__init__(hf, seed, workdir)
        self.tree = netgen.make_tree(seed, self.LEAVES)
        self.text = self.tree.to_text()
        fixed = netgen.make_tree(FIXED_SEED, self.LEAVES)
        self.fixed_text = fixed.to_text()
        self.fault_text = fixed.to_text(initial_pressure=0.0)

    def setup(self):
        parse = self.hf.netio.parse_network
        self.net = parse(self.text)
        self.assemble_0d(self.net)
        self.fixed_net = parse(self.fixed_text)
        self.fault_net = parse(self.fault_text)
        self.assemble_1d(self.fixed_net)
        self.assemble_1d(self.fault_net)

    def round(self):
        modes = self.hf.solver0d.ModelMode
        frozen = modes(nonlinear_pressure=False, nonlinear_resistance=True,
                       nonlinear_inductance=True, frozen_area=True)
        t_end = self.CYCLES * T0
        lin, s_lin = self.op("run_0d_linear", lambda: self.run_0d(self.net, modes.linear(), t_end))
        nl, s_nl = self.op("run_0d_nonlinear",
                           lambda: self.run_0d(self.net, modes.nonlinear(), t_end))
        fz, s_fz = self.op("run_0d_frozen", lambda: self.run_0d(self.net, frozen, self.FROZEN_T))
        r1, s_1d = self.op("run_1d", lambda: self.run_1d(self.fixed_net, SHORT_1D_T))
        # its time enters no metric, also once it succeeds
        fault, _ = self.op("run_1d_zero_pressure",
                           lambda: self.run_1d(self.fault_net, SHORT_1D_T), may_fail=True)
        k = None
        if lin is not None and nl is not None:
            for label, res in (("linear", lin), ("nonlinear", nl)):
                self.check(checks.finite_positive, res.t, res.vessels, t_end, label)
                self.check(self.periodic_balance, res, label)
            k = checks.periodic_cycle(nl.t, nl.vessels, T0)
        if fz is not None and lin is not None:
            self.check(self.frozen_matches_linear, fz, lin)
        if r1 is not None:
            self.check(checks.finite_positive, r1.t, r1.vessels, SHORT_1D_T, "1d")
            self.cycles_1d += SHORT_1D_T / T0
        if fault is not None:
            self.check(checks.finite_positive, fault.t, fault.vessels, SHORT_1D_T,
                       "1d-zero-pressure")
        return {"cycles_per_s.1d": rate(SHORT_1D_T / T0, s_1d),
                "cycles_per_s.0d-linear": rate(self.CYCLES, s_lin),
                "cycles_per_s.0d-nonlinear": rate(self.CYCLES, s_nl),
                "periodic_s.0d-nonlinear": periodic_seconds(s_nl, k, self.CYCLES),
                "members_per_s": rate(1, s_lin, s_nl, s_fz),
                "op_s": total(s_lin, s_nl, s_fz, s_1d)}

    def periodic_balance(self, res, label):
        checks.require(checks.periodic_cycle(res.t, res.vessels, T0) is not None,
                       f"{label}: no periodic cycle within {self.CYCLES} cycles")
        checks.flow_balance(res.t, res.vessels, T0, self.tree, label)

    @staticmethod
    def frozen_matches_linear(fz, lin):
        n = len(fz.t)
        for vid, series in fz.vessels.items():
            prefix = {ch: lin.vessels[vid][ch][:n] for ch in ("P", "Q", "A")}
            checks.same_series(series, prefix, checks.TOL_FROZEN, f"frozen-area {vid}")


class SweepCLI(Workload):
    """A seeded sweep of small generated networks (3 and 7 vessels), each
    written to a file and driven through ``hemoflow.cli.main``, and a short
    ``run --solver 1d`` of a fixed 7-vessel tree."""

    LEAVES = (2, 4)
    CYCLES = 8

    def __init__(self, hf, seed, workdir):
        super().__init__(hf, seed, workdir)
        rng = random.Random(seed)
        self.members = []
        for i, n_leaves in enumerate(self.LEAVES):
            tree = netgen.make_tree(rng.randrange(2 ** 31), n_leaves)
            path = workdir / f"member{i}" / "network.txt"
            path.parent.mkdir(parents=True)
            path.write_text(tree.to_text())
            self.members.append((tree, path))
        self.fixed = netgen.make_tree(FIXED_SEED, self.LEAVES[-1])
        self.fixed_path = workdir / "fixed" / "network.txt"
        self.fixed_path.parent.mkdir()
        self.fixed_path.write_text(self.fixed.to_text())

    def setup(self):
        parse = self.hf.netio.parse_network
        for _, path in self.members:
            self.assemble_0d(parse(path.read_text()))
        self.assemble_1d(parse(self.fixed_path.read_text()))

    def round(self):
        t_end = round(self.CYCLES * T0, 9)
        runs = {"lin": ["--solver", "0d", "--mode", "linear", "--t-end", t_end],
                "nl": ["--solver", "0d", "--mode", "nonlinear", "--t-end", t_end]}
        seconds = {key: [] for key in (*runs, "compare", "analyze")}
        periodic = []
        for tree, net in self.members:
            d = net.parent
            for old in d.iterdir():
                if old.is_dir():
                    shutil.rmtree(old)
                elif old != net:
                    old.unlink()
            for key, args in runs.items():
                seconds[key].append(self.cli(f"run_{key}", ["run", "--network", net, *args,
                                                            "--out", d / key]))
            seconds["compare"].append(self.cli("compare", ["compare", d / "lin", d / "nl",
                                                           "--out", d / "errors.csv"]))
            seconds["analyze"].append(self.cli("analyze", ["analyze", "--network", net,
                                                           "--run", d / "nl",
                                                           "--out", d / "report.txt"]))
            k = None
            if None not in (s[-1] for s in seconds.values()):
                k = self.check_member(tree, d, float(t_end))
            periodic.append(periodic_seconds(seconds["nl"][-1], k, self.CYCLES))
        s_1d = self.run_fixed_1d()
        n = len(self.members)
        every = [x for s in seconds.values() for x in s]
        return {"cycles_per_s.1d": rate(SHORT_1D_T / T0, s_1d),
                "cycles_per_s.0d-linear": rate(n * self.CYCLES, *seconds["lin"]),
                "cycles_per_s.0d-nonlinear": rate(n * self.CYCLES, *seconds["nl"]),
                "periodic_s.0d-nonlinear": ratio(total(*periodic), n),
                "members_per_s": rate(n, *every),
                "op_s": total(s_1d, *every)}

    def run_fixed_1d(self):
        out = self.fixed_path.parent / "1d"
        shutil.rmtree(out, ignore_errors=True)
        seconds = self.cli("run_1d", ["run", "--network", self.fixed_path, "--solver", "1d",
                                      "--t-end", SHORT_1D_T, "--out", out])
        run = self.load(out, list(self.fixed.vessels)) if seconds is not None else None
        if run is not None:
            self.check(checks.finite_positive, *run, SHORT_1D_T, "fixed/1d")
            self.cycles_1d += SHORT_1D_T / T0
        return seconds

    def load(self, path: Path, vids):
        """A CLI run directory read back, or None (a failed check)."""
        try:
            with self.span("bench.check"):
                return checks.load_run_dir(path, vids)
        except checks.CheckFailed as exc:
            self.tally.correct = False
            self.tally.note(f"check failed: {exc}")
            return None

    def check_member(self, tree, d: Path, t_end: float):
        vids = list(tree.vessels)
        runs = {key: self.load(d / key, vids) for key in ("lin", "nl")}
        if None in runs.values():
            return None
        for key in ("lin", "nl"):
            t, vessels = runs[key]
            label = f"{d.name}/{key}"
            self.check(checks.finite_positive, t, vessels, t_end, label)
            timing = checks.read_timing(d / key / "timing.txt")
            self.check(checks.require, timing.get("periodic_cycle", "None") != "None",
                       f"{label}/timing.txt reports no periodic cycle")
            self.check(checks.flow_balance, t, vessels, T0, tree, label)
        (t, lin), (_, nl) = runs["lin"], runs["nl"]
        self.check(checks.error_table, d / "errors.csv", t, lin, nl, T0, vids)
        self.check(checks.analyze_report, (d / "report.txt").read_text(), tree)
        k = checks.periodic_cycle(t, nl, T0)
        self.check(checks.require, k is not None, f"{d.name}/nl: no periodic cycle")
        return k


WORKLOADS = {"bif-1d": Bif1D, "tree-0d": Tree0D, "sweep-cli": SweepCLI}

END_TO_END = {
    "setup_s": "s",
    "cycles_per_s.1d": "cycles/s",
    "cycles_per_s.0d-nonlinear": "cycles/s",
    "cycles_per_s.0d-linear": "cycles/s",
    "periodic_s.0d-nonlinear": "s",
    "members_per_s": "members/s",
    "peak_rss_mib": "MiB",
}


def run_rounds(workload: Workload, seconds: float) -> list[dict]:
    """Whole rounds, at least one, while the next one would end less than
    half a round past ``seconds``: on average the rounds take ``seconds``."""
    start = time.perf_counter()
    rounds, durations = [], []
    while True:
        t = time.perf_counter()
        rounds.append(workload.round())
        durations.append(time.perf_counter() - t)
        workload.tally.note(f"round {len(rounds)}: " + ", ".join(
            f"{key} {value:.6g}" for key, value in rounds[-1].items() if value is not None))
        if time.perf_counter() - start + statistics.median(durations) / 2 > seconds:
            return rounds


def total(*seconds):
    """Sum of the CPU seconds of some operations; None if one of them failed."""
    return None if None in seconds else sum(seconds)


def rate(amount, *seconds):
    """``amount`` per CPU second of the operations; None if one failed."""
    return ratio(amount, total(*seconds))


def ratio(a, b):
    return None if a is None or b is None else a / b


def periodic_seconds(seconds, k, cycles):
    """CPU seconds of a run of ``cycles`` cycles up to and including its
    first periodic cycle ``k``; None if the run failed or never became
    periodic (a failed check)."""
    return None if seconds is None or k is None else seconds * k / cycles


def median_of(rounds: list[dict], key: str) -> float:
    """Median over the rounds in which the figure is defined; NaN if in
    none (the run has then failed an operation or a check)."""
    values = [r[key] for r in rounds if r[key] is not None]
    return statistics.median(values) if values else math.nan


def end_to_end(workload: Workload, seconds: float) -> dict[str, float]:
    workload.timer = timer = ScaledTimer()
    setup_s, setup_reps = timer.median_of_repeats(workload.setup, SETUP_MIN_REPEATS,
                                                  SETUP_SECONDS)
    rounds = run_rounds(workload, seconds)
    values = {key: median_of(rounds, key) for key in END_TO_END if key in rounds[0]}
    values["setup_s"] = setup_s
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{len(rounds)} rounds, set-up median of {setup_reps} repetitions")
    workload.report(rounds)
    return {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}


PER_LAYER_UNITS = {".calls": "count", ".bytes": "bytes", ".us_per_call": "us",
                   ".steps_per_cycle": "steps/cycle", ".overhead_pct": "%"}


def per_layer(workload: Workload, seconds: float, trace_path: Path) -> dict[str, dict]:
    """One untraced round, then the tracer is installed, the set-up runs
    once and traced rounds follow. Values are per traced round."""
    workload.setup()
    start = time.perf_counter()
    plain = workload.round()["op_s"]
    tracer = Tracer()
    tracer.install(workload.hf)
    workload.tracer = tracer
    workload.cycles_1d = 0.0
    with tracer.span("bench.setup"):
        workload.setup()
    rounds = run_rounds(workload, max(0.0, seconds - (time.perf_counter() - start)))
    traced = median_of(rounds, "op_s")
    tracer.save(trace_path)

    spans = tracer.summary()
    n = len(rounds)

    def get(name, field="s"):
        return spans.get(name, {}).get(field, 0.0) / n

    rhs_calls = get("solver0d.rhs", "calls")
    steps = get("solver1d.step", "calls")
    values = {
        "solver0d.rhs.calls": rhs_calls,
        "solver0d.rhs.s": get("solver0d.rhs"),
        "solver0d.rhs.us_per_call": 1e6 * get("solver0d.rhs") / rhs_calls if rhs_calls else 0.0,
        "solver0d.rk4_integrate.self_s": get("solver0d.rk4_integrate", "self_s"),
        "solver0d.observe.s": get("solver0d.observe"),
        "solver0d.assemble.s": get("solver0d.assemble"),
        "netio.parse.s": get("netio.parse"),
        "solver1d.step.calls": steps,
        "solver1d.steps_per_cycle": steps * n / workload.cycles_1d if workload.cycles_1d else 0.0,
        "solver1d.step.self_s": get("solver1d.step", "self_s"),
        "solver1d.prepare.s": get("solver1d.prepare"),
        "solver1d.commit.s": get("solver1d.commit"),
        "solver1d.cfl_dt.s": get("solver1d.cfl_dt"),
        "solver1d.junction_solve.calls": get("solver1d.junction_solve", "calls"),
        "solver1d.junction_solve.s": get("solver1d.junction_solve"),
        "solver1d.boundary.s": get("solver1d.inflow_bc") + get("solver1d.terminal_bc"),
        "netio.write_series.s": get("netio.write_series"),
        "netio.write_series.bytes": tracer.counters.get("netio.write_series.bytes", 0.0) / n,
        "netio.read_series.s": get("netio.read_series"),
        "netio.read_series.bytes": tracer.counters.get("netio.read_series.bytes", 0.0) / n,
        "metrics.first_periodic_cycle.s": get("metrics.first_periodic_cycle"),
        "metrics.sample_cycle.s": get("metrics.sample_cycle"),
        "metrics.error_metrics.s": get("metrics.error_metrics"),
        "analysis.format_network_report.s": get("analysis.format_network_report"),
        "cli.run.self_s": get("cli.run", "self_s"),
        "cli.compare.self_s": get("cli.compare", "self_s"),
        "cli.analyze.self_s": get("cli.analyze", "self_s"),
        "vessel.s": sum(v["self_s"] for k, v in spans.items() if k.startswith("vessel.")) / n,
        "trace.overhead_pct": 100.0 * (traced / plain - 1.0) if plain else math.nan,
    }
    print_self_shares(spans)
    print(f"tracing overhead: untraced round {plain:.3f} s of operations, "
          f"traced {traced:.3f} s ({values['trace.overhead_pct']:+.1f}%)")
    unit = lambda key: next((u for sfx, u in PER_LAYER_UNITS.items() if key.endswith(sfx)), "s")
    return {key: {"value": v, "unit": unit(key)} for key, v in values.items()}


def print_self_shares(spans: dict) -> None:
    layers: dict[str, float] = {}
    for name, v in spans.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + v["self_s"]
    total = sum(layers.values())
    print("self time by layer (traced rounds and one set-up):")
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {s:10.3f} s  {100.0 * s / total:5.1f}%")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    hf = import_hemoflow()
    workdir = OUT / f"{args.workload}-seed{args.seed}-{int(time.time() * 1e6)}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](hf, args.seed, workdir)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
            metrics = per_layer(workload, args.seconds, trace_path)
        else:
            metrics = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = workload.tally
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {tally.attempted}, failed = {tally.failed}, "
          f"correct = {tally.correct}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
