"""Command-line driver: run solvers, compare runs, analyze networks.

Exit codes: 0 on success, 1 on user/configuration errors, 2 on numerical
failures. The environment variable HEMOFLOW_OUT sets the root directory
that relative output paths are resolved against.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analysis import format_network_report, velocity_stats
from .errors import ConfigurationError, ModelError
from .metrics import cycle_samples, error_metrics, first_periodic_cycle, sample_cycle
from .netio import (
    SERIES_COLUMNS,
    aortic_bifurcation,
    load_network,
    load_waveform,
    read_series,
    synthetic_inflow,
    write_error_table,
    write_series,
)
from .solver0d import ModelMode, run_0d
from .solver1d import run_1d

#: every run's sample interval (s)
_SAMPLE_INTERVAL = 1e-3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message)


def _out_root() -> Path:
    return Path(os.environ.get("HEMOFLOW_OUT", "."))


def _resolve_network(name: str):
    if name == "aortic_bif":
        return aortic_bifurcation()
    path = Path(name)
    if not path.exists():
        raise ConfigurationError(f"network file not found: {path}")
    return load_network(path)


def _resolve_inflow(args, network):
    if args.waveform is not None:
        return load_waveform(args.waveform, period=args.T0)
    if network.inflow_waveform_path:
        return load_waveform(network.inflow_waveform_path, period=args.T0)
    return synthetic_inflow(period=args.T0)


def _add_run_args(p):
    p.add_argument("--network", required=True,
                   help="network file path, or 'aortic_bif' for the bundled benchmark")
    p.add_argument("--solver", choices=("1d", "0d"), required=True)
    p.add_argument("--mode", default="nonlinear",
                   help="0D mode: linear, nonlinear, nl-p, nl-r, nl-l")
    p.add_argument("--waveform", default=None, help="inflow waveform CSV (t,Q)")
    p.add_argument("--dx-max", type=float, default=0.2, help="1D max cell size (cm)")
    p.add_argument("--cfl", type=float, default=0.9, help="1D CFL number")
    p.add_argument("--dt", type=float, default=1e-3,
                   help="0D time step (s); must divide --t-end and the 1 ms sample interval")
    p.add_argument("--T0", type=float, default=1.1, help="cardiac period (s)")
    p.add_argument("--t-end", type=float, default=29.7, help="final time (s)")
    p.add_argument("--out", required=True, help="output directory")


def cmd_run(args) -> int:
    network = _resolve_network(args.network)
    inflow = _resolve_inflow(args, network)
    # a --T0 that the run's samples cannot resolve is refused before the run
    cycle_samples(args.T0, _SAMPLE_INTERVAL)
    if args.solver == "1d":
        result = run_1d(network, inflow, t_end=args.t_end, dx_max=args.dx_max,
                        CFL=args.cfl, T0=args.T0, sample_interval=_SAMPLE_INTERVAL)
    else:
        mode = ModelMode.from_name(args.mode)
        result = run_0d(network, inflow, mode, dt=args.dt, t_end=args.t_end,
                        T0=args.T0, sample_interval=_SAMPLE_INTERVAL)

    # every search before the first file, so a refused period writes none
    cycles = [first_periodic_cycle(result.t, series, args.T0)
              for series in result.vessels.values()]
    outdir = _out_root() / args.out
    outdir.mkdir(parents=True, exist_ok=True)
    for vid, series in result.vessels.items():
        write_series(outdir / f"{vid}.csv", result.t, series["P"],
                     series["Q"], series["A"])
    periodic = None if any(k is None for k in cycles) else max(cycles)
    with (outdir / "timing.txt").open("w") as fh:
        fh.write(f"solver = {args.solver}\n")
        if args.solver == "0d":
            fh.write(f"mode = {args.mode}\n")
        fh.write(f"cpu_seconds = {result.cpu_seconds:.6f}\n")
        fh.write(f"seconds_per_cycle = {result.seconds_per_cycle:.6f}\n")
        fh.write(f"periodic_cycle = {periodic}\n")
    print(f"wrote {len(result.vessels)} series to {outdir} "
          f"({result.seconds_per_cycle:.3f} s/cycle, "
          f"periodic cycle: {periodic})")
    return 0


def _load_run_dir(path: Path) -> dict:
    if not path.is_dir():
        raise ConfigurationError(f"run directory not found: {path}")
    out = {}
    for f in sorted(path.glob("*.csv")):
        if f.stem == "errors":
            continue
        series = out[f.stem] = read_series(f)
        if tuple(series) != SERIES_COLUMNS:
            raise ConfigurationError(f"{f} has the header {','.join(series)}; "
                                     f"a series has {','.join(SERIES_COLUMNS)}")
        # a cycle is sampled between two samples at least
        if series["t"].size < 2:
            raise ConfigurationError(f"{f} holds {series['t'].size} samples; "
                                     f"a run needs at least 2")
    if not out:
        raise ConfigurationError(f"no series files in {path}")
    return out


def cmd_compare(args) -> int:
    ref_dir = _out_root() / args.ref
    test_dir = _out_root() / args.test
    ref = _load_run_dir(ref_dir)
    test = _load_run_dir(test_dir)
    if set(ref) != set(test):
        only_ref = sorted(set(ref) - set(test))
        only_test = sorted(set(test) - set(ref))
        raise ConfigurationError(
            f"vessel mismatch between runs: only in reference {only_ref}, "
            f"only in test {only_test}")

    model = Path(args.test).name
    rows = []
    for vid in ref:
        r, s = ref[vid], test[vid]
        ref_cycle = sample_cycle(r["t"], {"P": r["P"], "Q": r["Q"], "A": r["A"]},
                                 args.T0)
        test_cycle = sample_cycle(s["t"], {"P": s["P"], "Q": s["Q"], "A": s["A"]},
                                  args.T0)
        # each cycle ends at its run's last sample: runs that end apart
        # would compare phase-shifted cycles
        ends = r["t"][-1], s["t"][-1]
        half = 0.5 * max((t[-1] - t[0]) / (t.size - 1) for t in (r["t"], s["t"]))
        if abs(ends[0] - ends[1]) > half:
            raise ConfigurationError(
                "the runs end at different times, so their last cycles are not aligned: "
                "reference at t = {:.9g} s, test at t = {:.9g} s".format(*ends))
        for name, run in (("reference", r), ("test", s)):
            k = first_periodic_cycle(run["t"], {"P": run["P"], "Q": run["Q"],
                                                "A": run["A"]}, args.T0)
            if k is None:
                raise ModelError(
                    f"{name} run for vessel {vid!r} never reached the "
                    f"periodic regime")
        rows.append((vid, model, error_metrics(test_cycle, ref_cycle)))

    out = _out_root() / args.out
    write_error_table(out, rows)
    print(f"wrote error table for {len(rows)} vessels to {out}")
    return 0


def cmd_analyze(args) -> int:
    network = _resolve_network(args.network)
    velocity = None
    if args.run is not None:
        runs = _load_run_dir(_out_root() / args.run)
        velocity = {}
        for vid, series in runs.items():
            if vid not in network.vessels:
                continue
            cyc = sample_cycle(series["t"], {"P": series["P"], "Q": series["Q"],
                                             "A": series["A"]}, args.T0)
            velocity[vid] = velocity_stats(cyc.t, cyc.Q, cyc.A)
    report = format_network_report(network, velocity, T0=args.T0)
    if args.out is not None:
        out = _out_root() / args.out
        out.write_text(report)
        print(f"wrote analysis report to {out}")
    else:
        print(report)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hemoflow",
                     description="1D and lumped-parameter blood flow models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a 1D or 0D simulation")
    _add_run_args(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="error table between two runs")
    p_cmp.add_argument("ref", help="reference run directory (typically 1D)")
    p_cmp.add_argument("test", help="test run directory (typically 0D)")
    p_cmp.add_argument("--T0", type=float, default=1.1)
    p_cmp.add_argument("--out", default="errors.csv")
    p_cmp.set_defaults(fn=cmd_compare)

    p_ana = sub.add_parser("analyze", help="stability and dimensional report")
    p_ana.add_argument("--network", required=True)
    p_ana.add_argument("--run", default=None,
                       help="1D run directory for velocity-based ratios")
    p_ana.add_argument("--T0", type=float, default=1.1)
    p_ana.add_argument("--out", default=None)
    p_ana.set_defaults(fn=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code in (0, None) else 1
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModelError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
