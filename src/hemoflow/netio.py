"""Network and waveform ingestion plus results persistence.

The network file format is line-oriented text with ``[section]`` headers and
``key = value`` pairs, documented in the repository README. All quantities
are CGS.

A sampled series is a CSV file: the header ``t,P,Q,A``, then one line per
sample with every value formatted as ``"%.9e"``. ``write_series`` makes that
text with numpy, a block of rows at a time, and its bytes are those of
formatting each value on its own; ``read_series`` reads the file back.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
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
        if not 0.0 < self.C < math.inf:
            raise ConfigurationError(
                f"Windkessel compliance must be positive and finite, got {self.C}")
        if not 0.0 < self.R2 < math.inf:
            raise ConfigurationError(
                f"Windkessel distal resistance must be positive and finite, got {self.R2}")
        if not (math.isfinite(self.R1) and math.isfinite(self.P_v)):
            raise ConfigurationError(f"Windkessel R1 and P_v must be finite, "
                                     f"got R1={self.R1}, P_v={self.P_v}")


@dataclass(frozen=True)
class SingleResistance:
    """Single-resistance terminal element."""

    R: float
    P_v: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.R) and math.isfinite(self.P_v)):
            raise ConfigurationError(f"terminal resistance R and P_v must be finite, "
                                     f"got R={self.R}, P_v={self.P_v}")
        if self.R < 0.0:
            raise ConfigurationError(f"terminal resistance R must not be negative, "
                                     f"got {self.R}")


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
        if not math.isfinite(self.initial_pressure):
            raise ConfigurationError(
                f"initial pressure must be finite, got {self.initial_pressure}")
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
        for vid in self.terminals:
            if vid not in self.vessels:
                raise ConfigurationError(f"terminal of unknown vessel {vid!r}")
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
        if not 0.0 < self.period < math.inf:
            raise ValueError(f"waveform period must be positive and finite, got {self.period}")
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
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be positive and finite, got {period}")
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

#: the keys each section kind takes, as (required, optional); a terminal's
#: depend on its ``type``, ``rcr`` when not given. A vessel gives exactly
#: one of ``radius`` and ``area``.
_KEYS = {
    "fluid": ({"rho", "mu"},
              {"zeta", "pressure_ref", "pressure_ext", "initial_pressure"}),
    "vessel": ({"length", "wall_thickness", "youngs_modulus"},
               {"radius", "area", "poisson", "m", "n", "pressure_ref"}),
    "junction": ({"parent", "daughters"}, set()),
    "inflow": ({"vessel"}, {"waveform"}),
    "terminal": {
        "rcr": ({"r1", "c", "r2"}, {"type", "p_out"}),
        "r": ({"r"}, {"type", "p_out"}),
        "resistance": ({"r"}, {"type", "p_out"}),
    },
}


def parse_network(text: str) -> Network:
    """Parse a network definition and return a validated Network.

    The text is first split into sections, each kept as its header line,
    name and body of ``key = value`` pairs; then each section is checked
    against ``_KEYS`` and built. An error of a build step is raised again
    with its own type, after the header line and the section, as in
    ``line 24: [vessel right_iliac] stiffness must be positive and finite,
    got nan``."""
    # per kind, (header line, body) by section name; junctions, which have
    # no name, by header line
    sections: dict[str, dict] = {kind: {} for kind in _KEYS}
    body = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            parts = line[1:-1].split()
            if not line.endswith("]") or not 0 < len(parts) < 3:
                raise ConfigurationError(f"line {lineno}: malformed section header {raw!r}")
            kind, name = parts[0], (parts[1] if len(parts) == 2 else None)
            named = sections.get(kind)
            if named is None:
                raise ConfigurationError(f"line {lineno}: unknown section {kind!r}")
            if (name is None) == (kind in ("vessel", "terminal")):
                raise ConfigurationError(f"line {lineno}: section [{kind}] " + (
                    "needs a name" if name is None else f"takes no name, got {name!r}"))
            key = lineno if kind == "junction" else name
            if key in named:
                raise ConfigurationError(f"line {lineno}: duplicate {kind} section {line}, "
                                         f"first at line {named[key][0]}")
            body = {}
            named[key] = (lineno, body)
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if body is None:
            raise ConfigurationError(f"line {lineno}: key outside of any section")
        key = key.rstrip()
        if key in body:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        body[key] = value.lstrip()

    fluid = sections["fluid"].get(None)
    if fluid is None:
        raise ConfigurationError("missing [fluid] section")
    if not sections["vessel"]:
        raise ConfigurationError("no vessels defined")
    inflow = sections["inflow"].get(None)
    if inflow is None:
        raise ConfigurationError("missing [inflow] section")

    fluid, p_ref, p_ext, p_init = _build("fluid", None, *fluid, _fluid)
    vessels = {vid: _build("vessel", vid, lineno, body, _vessel, vid, fluid, p_ref, p_ext)
               for vid, (lineno, body) in sections["vessel"].items()}
    junctions = tuple(_build("junction", None, lineno, body, _junction)
                      for lineno, body in sections["junction"].values())
    inflow = _build("inflow", None, *inflow, dict)
    terminals = {vid: _build("terminal", vid, lineno, body, _terminal)
                 for vid, (lineno, body) in sections["terminal"].items()}
    return Network(fluid=fluid, vessels=vessels, root=inflow["vessel"],
                   junctions=junctions, terminals=terminals,
                   initial_pressure=p_init,
                   inflow_waveform_path=inflow.get("waveform"))


def _build(kind: str, name: str | None, lineno: int, body: dict, build, *args):
    """``build(body, *args)`` for the section [kind name] of header line
    ``lineno``, once its body has the keys ``_KEYS`` gives the kind. An
    unknown or missing key, or an error of the build step, raises with the
    line and the section before the message."""
    try:
        keys = _KEYS[kind]
        if kind == "terminal":
            keys = keys.get(body.get("type", "rcr").lower())
            if keys is None:
                raise ConfigurationError(f"unknown terminal type {body['type']!r}")
        required, optional = keys
        rest = body.keys() - required
        if not rest <= optional:
            raise ConfigurationError(f"unknown key {min(rest - optional)!r}")
        if len(body) - len(rest) < len(required):
            raise ConfigurationError(f"misses {min(required - body.keys())!r}")
        return build(body, *args)
    except (ConfigurationError, ValueError) as exc:
        section = kind if name is None else f"{kind} {name}"
        raise type(exc)(f"line {lineno}: [{section}] {exc}") from exc


def _fluid(body: dict) -> tuple[FluidProps, float, float, float]:
    """The fluid, and the reference, external and initial pressures."""
    fluid = FluidProps(rho=float(body["rho"]), mu=float(body["mu"]),
                       zeta=float(body.get("zeta", 9.0)))
    return fluid, *(float(body.get(key, 0.0))
                    for key in ("pressure_ref", "pressure_ext", "initial_pressure"))


def _vessel(body: dict, vid: str, fluid: FluidProps,
            p_ref: float, p_ext: float) -> VesselSpec:
    if ("radius" in body) == ("area" in body):
        raise ConfigurationError("needs exactly one of radius and area")
    length = float(body["length"])
    if "area" in body:
        A0 = float(body["area"])
        r0 = math.sqrt(A0 / math.pi)
    else:
        r0 = float(body["radius"])
        A0 = math.pi * r0 * r0
    thickness = body["wall_thickness"]
    h0 = adan_wall_thickness(r0) if thickness == "adan" else float(thickness)
    E = float(body["youngs_modulus"])
    nu = float(body.get("poisson", 0.5))
    wall = WallModel.arterial(A0=A0, h0=h0, E=E, nu=nu,
                              P0=float(body.get("pressure_ref", p_ref)), p_ext=p_ext)
    if "m" in body or "n" in body:
        wall = replace(wall, m=float(body.get("m", 0.5)), n=float(body.get("n", 0.0)))
    return VesselSpec(vessel_id=vid, length=length, wall=wall, fluid=fluid)


def _junction(body: dict) -> Junction:
    return Junction(parent=body["parent"],
                    daughters=tuple(body["daughters"].replace(",", " ").split()))


def _terminal(body: dict) -> Terminal:
    """The terminal of a body holding the keys of its type."""
    P_v = float(body.get("p_out", 0.0))
    if "r" in body:
        return SingleResistance(R=float(body["r"]), P_v=P_v)
    return Windkessel(R1=float(body["r1"]), C=float(body["c"]),
                      R2=float(body["r2"]), P_v=P_v)


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


#: rows formatted per numpy pass: the scratch arrays of a pass stay under
#: about 1 MiB whatever the length of the series
_BLOCK_ROWS = 2048


def _pairs(*texts: str) -> np.ndarray:
    """Two-character ASCII strings as uint16 codes in machine byte order."""
    return np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint16)


_MINUS = _pairs("\0-")[0]
_LEAD = _pairs(*(f"{d}." for d in range(10)))
_DIGITS = _pairs(*(f"{d:02d}" for d in range(100)))
_LAST = _pairs(*(f"{d}e" for d in range(10)))
# tables indexed by e + 99 for the decimal exponents e of -99 to 98:
# 10**(9 - e), correctly rounded, and the exponent's characters in pairs
_EXPONENTS = [f"{e:+03d}" for e in range(-99, 99)]
_SCALE = np.array([float(f"1e{9 - int(e)}") for e in _EXPONENTS])
_EXP_HEAD = _pairs(*(e[:2] for e in _EXPONENTS))
_EXP_TAIL_COMMA = _pairs(*(e[2] + "," for e in _EXPONENTS))
_EXP_TAIL_NEWLINE = _pairs(*(e[2] + "\n" for e in _EXPONENTS))


def _format_rows(rows: np.ndarray) -> str:
    """CSV lines of an (n, 4) float block, each value as "%.9e" would
    format it.

    Each value fills an 18-byte slot of nine character pairs,
    NUL-padded on the left: ``"\\0s" "d." "dd" "dd" "dd" "dd" "de" "sd"
    "d,"``, where s is the sign or NUL and the last byte is the column
    separator; the NULs are dropped at the end. The 10-digit mantissa is
    rint(m) for m = |x| * 10**(9 - e), e = floor(log10|x|). The power and
    the product round once each, so m is within 2.3e-6 of its exact value
    below 1e10. Where 1e9 <= m < 1e10 - 1 and m is more than 1e-4 from a
    half-integer, rint(m) is the correctly rounded mantissa that "%.9e"
    prints with the exponent e (an exact value just below 1e9 rounds up to
    1e9 either way). Zeros take this path with mantissa 0 and exponent 0.
    Every other value (non-finite, subnormal, a 3-digit exponent, a
    near-tie or a log10 off by one) takes its slot from "%.9e" itself.
    """
    x = rows.ravel()
    a = np.abs(x)
    zero = a == 0.0
    in_range = (a >= 1e-98) & (a < 1e98)
    a = np.where(in_range, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp) + 99
    m = a * _SCALE[k]
    mantissa = np.rint(m)
    exact = (in_range & (m >= 1e9) & (m < 1e10 - 1)
             & (np.abs(m - mantissa) < 0.4999))
    fallback = np.flatnonzero(~(exact | zero))
    mantissa[fallback] = 1e9
    mantissa[zero] = 0.0
    digits = mantissa.astype(np.int64)

    slots = np.empty((x.size, 9), dtype=np.uint16)
    slots[:, 0] = np.signbit(x) * _MINUS
    lead = digits // 10**9
    slots[:, 1] = _LEAD[lead]
    digits -= lead * 10**9
    for col, div in ((2, 10**7), (3, 10**5), (4, 10**3), (5, 10)):
        pair = digits // div
        slots[:, col] = _DIGITS[pair]
        digits -= pair * div
    slots[:, 6] = _LAST[digits]
    slots[:, 7] = _EXP_HEAD[k]
    k = k.reshape(rows.shape)
    by_column = slots.reshape(*rows.shape, 9)
    by_column[:, :-1, 8] = _EXP_TAIL_COMMA[k[:, :-1]]
    by_column[:, -1, 8] = _EXP_TAIL_NEWLINE[k[:, -1]]

    chars = slots.view(np.uint8)
    if fallback.size:
        text = "".join(("%.9e" % v).rjust(17, "\0") for v in x[fallback].tolist())
        chars[fallback, :17] = np.frombuffer(text.encode("ascii"),
                                             dtype=np.uint8).reshape(-1, 17)
    chars = chars.ravel()
    return chars[chars != 0].tobytes().decode("ascii")


def write_series(path, t, P, Q, A) -> None:
    """Write a sampled (t, P, Q, A) series as CSV: a header line, then one
    line per sample with each value formatted as "%.9e"."""
    path = Path(path)
    arrays = [np.asarray(v, dtype=float) for v in (t, P, Q, A)]
    if any(a.ndim > 1 for a in arrays):
        raise ValueError("series columns must be one-dimensional")
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("series columns have mismatched lengths")
    rows = np.column_stack(arrays)
    try:
        with path.open("w") as fh:
            fh.write(",".join(SERIES_COLUMNS) + "\n")
            for start in range(0, n, _BLOCK_ROWS):
                fh.write(_format_rows(rows[start:start + _BLOCK_ROWS]))
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
