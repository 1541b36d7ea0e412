"""Network and waveform ingestion plus results persistence.

The network file format is line-oriented text with ``[section]`` headers and
``key = value`` pairs, documented in the repository README. All quantities
are CGS.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .vessel import (
    FluidProps,
    VesselSpec,
    WallModel,
    adan_wall_thickness,
    tube_law_area,
)


@dataclass(frozen=True)
class Windkessel:
    """RCR terminal element: proximal resistance, compliance, distal
    resistance and constant venous outflow pressure."""

    R1: float
    C: float
    R2: float
    P_v: float = 0.0

    def __post_init__(self):
        if self.C <= 0:
            raise ConfigurationError(f"Windkessel compliance must be positive, got {self.C}")
        if self.R2 <= 0:
            raise ConfigurationError(f"Windkessel distal resistance must be positive, got {self.R2}")


@dataclass(frozen=True)
class SingleResistance:
    """Single-resistance terminal element."""

    R: float
    P_v: float = 0.0


Terminal = Windkessel | SingleResistance


@dataclass(frozen=True)
class Junction:
    parent: str
    daughters: tuple[str, ...]

    def __post_init__(self):
        if len(self.daughters) < 1:
            raise ConfigurationError(f"junction at {self.parent} has no daughters")


@dataclass(frozen=True)
class Network:
    """Directed tree of vessels with one inflow root and terminal elements
    on every leaf."""

    fluid: FluidProps
    vessels: dict[str, VesselSpec]
    root: str
    junctions: tuple[Junction, ...]
    terminals: dict[str, Terminal]
    initial_pressure: float = 0.0
    inflow_waveform_path: str | None = None

    def __post_init__(self):
        self._validate()

    def _validate(self):
        if self.root not in self.vessels:
            raise ConfigurationError(f"inflow vessel {self.root!r} is not defined")
        parents = [j.parent for j in self.junctions]
        if len(set(parents)) != len(parents):
            raise ConfigurationError("a vessel outlet feeds more than one junction")
        daughters = [d for j in self.junctions for d in j.daughters]
        if len(set(daughters)) != len(daughters):
            raise ConfigurationError("a vessel inlet is fed by more than one junction")
        for vid in parents + daughters:
            if vid not in self.vessels:
                raise ConfigurationError(f"junction references unknown vessel {vid!r}")
        if self.root in daughters:
            raise ConfigurationError(f"inflow vessel {self.root!r} is also a junction daughter")
        for vid in self.vessels:
            if vid != self.root and vid not in daughters:
                raise ConfigurationError(f"vessel {vid!r} has a dangling inlet")
        # walk the tree; detects cycles and disconnected parts
        by_parent = {j.parent: j.daughters for j in self.junctions}
        seen: set[str] = set()
        stack = [self.root]
        while stack:
            vid = stack.pop()
            if vid in seen:
                raise ConfigurationError(f"cycle detected at vessel {vid!r}")
            seen.add(vid)
            stack.extend(by_parent.get(vid, ()))
        if seen != set(self.vessels):
            missing = sorted(set(self.vessels) - seen)
            raise ConfigurationError(f"vessels unreachable from the inflow root: {missing}")
        for vid in self.vessels:
            is_leaf = vid not in by_parent
            has_term = vid in self.terminals
            if is_leaf and not has_term:
                raise ConfigurationError(f"leaf vessel {vid!r} has no terminal element")
            if has_term and not is_leaf:
                raise ConfigurationError(f"vessel {vid!r} has both a junction and a terminal outlet")

    def daughters_of(self, vessel_id: str) -> tuple[str, ...]:
        for j in self.junctions:
            if j.parent == vessel_id:
                return j.daughters
        return ()

    def initial_area(self, vessel_id: str) -> float:
        """Cross-sectional area at the prescribed initial pressure."""
        return tube_law_area(self.initial_pressure, self.vessels[vessel_id].wall)


# ---------------------------------------------------------------------------
# Waveforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveformSeries:
    """Sampled periodic time series with linear interpolation and periodic
    extension beyond one period."""

    t: np.ndarray
    q: np.ndarray
    period: float
    _tp: np.ndarray = field(init=False, repr=False, compare=False)
    _qp: np.ndarray = field(init=False, repr=False, compare=False)
    _tl: list = field(init=False, repr=False, compare=False)
    _ql: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if t.ndim != 1 or t.shape != q.shape or t.size < 2:
            raise ValueError("waveform needs matching 1D time/value arrays with >= 2 samples")
        if t[0] != 0.0:
            raise ValueError(f"waveform must start at t = 0, got {t[0]}")
        if np.any(np.diff(t) <= 0):
            raise ValueError("waveform times must be strictly increasing")
        if t[-1] > self.period * (1 + 1e-12):
            raise ValueError(f"waveform extends past its period: {t[-1]} > {self.period}")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(q))):
            raise ValueError("waveform contains non-finite samples")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "q", q)
        if t[-1] < self.period:
            # periodic closure: linear ramp back to the t=0 sample
            tp = np.append(t, self.period)
            qp = np.append(q, q[0])
        else:
            tp, qp = t, q
        object.__setattr__(self, "_tp", tp)
        object.__setattr__(self, "_qp", qp)
        object.__setattr__(self, "_tl", tp.tolist())
        object.__setattr__(self, "_ql", qp.tolist())

    def __call__(self, time):
        """Value at ``time``, a float or an array. A float takes a scalar
        path (bisection over the samples) with the arithmetic of np.mod and
        np.interp, so both give the same bits; it returns a float."""
        if isinstance(time, float):
            tau = time % self.period
            if tau != tau:
                return tau
            tp, qp = self._tl, self._ql
            j = bisect_right(tp, tau) - 1
            if j == len(tp) - 1 or tp[j] == tau:
                return qp[j]
            return (qp[j + 1] - qp[j]) / (tp[j + 1] - tp[j]) * (tau - tp[j]) + qp[j]
        tau = np.mod(time, self.period)
        return np.interp(tau, self._tp, self._qp)

    def mean(self) -> float:
        """Period average, by the trapezoidal rule on the sample grid."""
        return float(np.trapezoid(self._qp, self._tp) / self.period)


def synthetic_inflow(period: float = 1.1, systole_fraction: float = 0.3,
                     peak: float = 70.0, samples_per_systole: int = 600) -> WaveformSeries:
    """Half-sine systolic pulse followed by zero diastolic flow."""
    if not 0.0 < systole_fraction < 1.0:
        raise ValueError(f"systole fraction must be in (0, 1), got {systole_fraction}")
    t_sys = systole_fraction * period
    t = np.linspace(0.0, t_sys, samples_per_systole + 1)
    q = peak * np.sin(np.pi * t / t_sys)
    q[-1] = 0.0
    t = np.append(t, period)
    q = np.append(q, 0.0)
    return WaveformSeries(t=t, q=q, period=period)


def load_waveform(path, period: float | None = None) -> WaveformSeries:
    """Read a two-column (t, Q) CSV; the period defaults to the last time."""
    path = Path(path)
    rows = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if lineno == 1 and not _is_float(parts[0]):
                continue  # header row
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {line!r}")
            rows.append((float(parts[0]), float(parts[1])))
    if not rows:
        raise ValueError(f"{path}: no samples found")
    t = np.array([r[0] for r in rows])
    q = np.array([r[1] for r in rows])
    return WaveformSeries(t=t, q=q, period=period if period is not None else float(t[-1]))


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Network file parsing
# ---------------------------------------------------------------------------

_FLUID_KEYS = {"rho", "mu", "zeta", "pressure_ref", "pressure_ext", "initial_pressure"}
_VESSEL_KEYS = {"length", "radius", "area", "wall_thickness", "youngs_modulus",
                "poisson", "m", "n", "pressure_ref"}


class _ParseState:
    def __init__(self):
        self.fluid: dict[str, float] = {}
        self.vessels: dict[str, dict] = {}
        self.junctions: list[Junction] = []
        self.inflow: dict | None = None
        self.terminals: dict[str, dict] = {}


def parse_network(text: str) -> Network:
    """Parse a network definition and return a validated Network."""
    state = _ParseState()
    section = None  # (kind, name, lineno)
    body: dict[str, str] = {}

    def flush():
        if section is not None:
            _finish_section(state, section, body)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigurationError(f"line {lineno}: malformed section header {raw!r}")
            flush()
            parts = line[1:-1].split()
            kind = parts[0]
            name = parts[1] if len(parts) > 1 else None
            if kind not in {"fluid", "vessel", "junction", "inflow", "terminal"}:
                raise ConfigurationError(f"line {lineno}: unknown section {kind!r}")
            if kind in {"vessel", "terminal"} and name is None:
                raise ConfigurationError(f"line {lineno}: section [{kind}] needs a name")
            if kind == "vessel" and name in state.vessels:
                raise ConfigurationError(f"line {lineno}: duplicate vessel id {name!r}")
            section = (kind, name, lineno)
            body = {}
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigurationError(f"line {lineno}: key outside of any section")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in body:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        body[key] = value
    flush()

    if not state.fluid:
        raise ConfigurationError("missing [fluid] section")
    if not state.vessels:
        raise ConfigurationError("no vessels defined")
    if state.inflow is None:
        raise ConfigurationError("missing [inflow] section")

    fluid = FluidProps(rho=state.fluid["rho"], mu=state.fluid["mu"],
                       zeta=state.fluid.get("zeta", 9.0))
    p_ref = state.fluid.get("pressure_ref", 0.0)
    p_ext = state.fluid.get("pressure_ext", 0.0)
    vessels: dict[str, VesselSpec] = {}
    for vid, rec in state.vessels.items():
        vessels[vid] = _build_vessel(vid, rec, fluid, p_ref, p_ext)
    terminals = {vid: _build_terminal(vid, rec) for vid, rec in state.terminals.items()}
    return Network(
        fluid=fluid,
        vessels=vessels,
        root=state.inflow["vessel"],
        junctions=tuple(state.junctions),
        terminals=terminals,
        initial_pressure=state.fluid.get("initial_pressure", 0.0),
        inflow_waveform_path=state.inflow.get("waveform"),
    )


def _finish_section(state: _ParseState, section, body: dict[str, str]):
    kind, name, lineno = section
    if kind == "fluid":
        for key, value in body.items():
            if key not in _FLUID_KEYS:
                raise ConfigurationError(f"line {lineno}: unknown fluid key {key!r}")
            state.fluid[key] = float(value)
    elif kind == "vessel":
        rec = {}
        for key, value in body.items():
            if key not in _VESSEL_KEYS:
                raise ConfigurationError(f"line {lineno}: unknown vessel key {key!r}")
            rec[key] = value
        for required in ("length", "youngs_modulus"):
            if required not in rec:
                raise ConfigurationError(f"line {lineno}: vessel {name!r} misses {required!r}")
        if ("radius" in rec) == ("area" in rec):
            raise ConfigurationError(
                f"line {lineno}: vessel {name!r} needs exactly one of radius/area")
        if "wall_thickness" not in rec:
            raise ConfigurationError(f"line {lineno}: vessel {name!r} misses wall_thickness")
        state.vessels[name] = rec
    elif kind == "junction":
        if "parent" not in body or "daughters" not in body:
            raise ConfigurationError(f"line {lineno}: junction needs parent and daughters")
        daughters = tuple(body["daughters"].replace(",", " ").split())
        state.junctions.append(Junction(parent=body["parent"], daughters=daughters))
    elif kind == "inflow":
        if state.inflow is not None:
            raise ConfigurationError(f"line {lineno}: more than one [inflow] section")
        if "vessel" not in body:
            raise ConfigurationError(f"line {lineno}: inflow needs a vessel id")
        state.inflow = dict(body)
    elif kind == "terminal":
        if name in state.terminals:
            raise ConfigurationError(f"line {lineno}: duplicate terminal for {name!r}")
        body = dict(body)
        body.setdefault("type", "rcr")
        state.terminals[name] = (body, lineno)


def _build_vessel(vid: str, rec: dict, fluid: FluidProps,
                  p_ref: float, p_ext: float) -> VesselSpec:
    length = float(rec["length"])
    if "area" in rec:
        A0 = float(rec["area"])
        r0 = math.sqrt(A0 / math.pi)
    else:
        r0 = float(rec["radius"])
        A0 = math.pi * r0 * r0
    thickness = rec["wall_thickness"].strip()
    h0 = adan_wall_thickness(r0) if thickness == "adan" else float(thickness)
    E = float(rec["youngs_modulus"])
    nu = float(rec.get("poisson", 0.5))
    wall = WallModel.arterial(A0=A0, h0=h0, E=E, nu=nu,
                              P0=float(rec.get("pressure_ref", p_ref)), p_ext=p_ext)
    if "m" in rec or "n" in rec:
        wall = WallModel(A0=wall.A0, K=wall.K, m=float(rec.get("m", 0.5)),
                         n=float(rec.get("n", 0.0)), P0=wall.P0, p_ext=wall.p_ext,
                         h0=wall.h0, E=wall.E, nu=wall.nu)
    return VesselSpec(vessel_id=vid, length=length, wall=wall, fluid=fluid)


def _build_terminal(vid: str, rec_lineno) -> Terminal:
    rec, lineno = rec_lineno
    kind = rec["type"].strip().lower()
    try:
        if kind == "rcr":
            return Windkessel(R1=float(rec["r1"]), C=float(rec["c"]),
                              R2=float(rec["r2"]), P_v=float(rec.get("p_out", 0.0)))
        if kind in {"r", "resistance"}:
            return SingleResistance(R=float(rec["r"]), P_v=float(rec.get("p_out", 0.0)))
    except KeyError as exc:
        raise ConfigurationError(f"line {lineno}: terminal {vid!r} misses {exc}") from exc
    raise ConfigurationError(f"line {lineno}: unknown terminal type {kind!r}")


def load_network(path) -> Network:
    return parse_network(Path(path).read_text())


def serialize_network(network: Network) -> str:
    """Write a Network back to the text format; parse(serialize(n)) is the
    identity on all physical fields."""
    out = ["[fluid]"]
    out.append(f"rho = {network.fluid.rho!r}")
    out.append(f"mu = {network.fluid.mu!r}")
    out.append(f"zeta = {network.fluid.zeta!r}")
    any_wall = next(iter(network.vessels.values())).wall
    out.append(f"pressure_ext = {any_wall.p_ext!r}")
    out.append(f"initial_pressure = {network.initial_pressure!r}")
    for vid, spec in network.vessels.items():
        w = spec.wall
        out.append("")
        out.append(f"[vessel {vid}]")
        out.append(f"length = {spec.length!r}")
        out.append(f"area = {w.A0!r}")
        out.append(f"wall_thickness = {w.h0!r}")
        out.append(f"youngs_modulus = {w.E!r}")
        out.append(f"poisson = {w.nu!r}")
        out.append(f"pressure_ref = {w.P0!r}")
        if not w.is_arterial:
            out.append(f"m = {w.m!r}")
            out.append(f"n = {w.n!r}")
    for j in network.junctions:
        out.append("")
        out.append("[junction]")
        out.append(f"parent = {j.parent}")
        out.append(f"daughters = {' '.join(j.daughters)}")
    out.append("")
    out.append("[inflow]")
    out.append(f"vessel = {network.root}")
    if network.inflow_waveform_path:
        out.append(f"waveform = {network.inflow_waveform_path}")
    for vid, term in network.terminals.items():
        out.append("")
        out.append(f"[terminal {vid}]")
        if isinstance(term, Windkessel):
            out.append("type = rcr")
            out.append(f"r1 = {term.R1!r}")
            out.append(f"c = {term.C!r}")
            out.append(f"r2 = {term.R2!r}")
        else:
            out.append("type = resistance")
            out.append(f"r = {term.R!r}")
        out.append(f"p_out = {term.P_v!r}")
    out.append("")
    return "\n".join(out)


def aortic_bifurcation() -> Network:
    """The bundled aortic-bifurcation benchmark network."""
    text = resources.files("hemoflow.data").joinpath("aortic_bifurcation.txt").read_text()
    return parse_network(text)


# ---------------------------------------------------------------------------
# Results persistence
# ---------------------------------------------------------------------------

_FMT = "{:.9e}"

SERIES_COLUMNS = ("t", "P", "Q", "A")


def write_series(path, t, P, Q, A) -> None:
    """Write a sampled (t, P, Q, A) series as CSV."""
    path = Path(path)
    arrays = [np.asarray(v, dtype=float) for v in (t, P, Q, A)]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("series columns have mismatched lengths")
    # one %-operation over all rows; "%.9e" formats exactly like _FMT
    values = np.column_stack(arrays).ravel().tolist()
    text = ("%.9e,%.9e,%.9e,%.9e\n" * n) % tuple(values)
    try:
        with path.open("w") as fh:
            fh.write(",".join(SERIES_COLUMNS) + "\n")
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write series to {path}: {exc}") from exc


def read_series(path) -> dict[str, np.ndarray]:
    """Read a CSV series: one array per column named in the header line."""
    path = Path(path)
    try:
        with path.open() as fh:
            names = [name.strip() for name in fh.readline().split(",")]
            rows = fh.readlines()
    except OSError as exc:
        raise OSError(f"cannot read series from {path}: {exc}") from exc
    if not rows:
        return {name: np.array([]) for name in SERIES_COLUMNS}
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: {data.shape[1]} columns under a header of "
                         f"{len(names)} names")
    return dict(zip(names, data.T))


ERROR_COLUMNS = ("vessel", "model", "eps_p_rms", "eps_q_rms",
                 "eps_p_sys", "eps_q_sys", "eps_p_dias", "eps_q_dias")


def write_error_table(path, rows) -> None:
    """Write error-report rows: (vessel, model, ErrorReport)."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(",".join(ERROR_COLUMNS) + "\n")
        for vessel, model, report in rows:
            values = (report.eps_p_rms, report.eps_q_rms, report.eps_p_sys,
                      report.eps_q_sys, report.eps_p_dias, report.eps_q_dias)
            fh.write(f"{vessel},{model}," + ",".join(_FMT.format(v) for v in values) + "\n")
