"""Declarative run configuration: flat sectioned key-value text.

A run is described by five sections; every key is validated against the
schema below, unknown keys are errors, and messages carry the offending line
number where one can be found.  One reader, ``_value``, reads every number,
number list and required text; a key left out or empty takes its default.
A numeric key set to nan is an error, and so is a nan in any list
(``coeffs``, ``table`` rows, ``*_profile``, ``*_window``, ``*_fns``); inf
is kept wherever the value's own range admits it (``trust_radius``, and
``*_y_max``, where it sets no cap).

::

    [operator]
    type = dirichlet_sine        # or: explicit
    n_modes = 8
    length = 3.141592653589793   # dirichlet_sine: interval length
    mu = 1.0 4.0 9.0             # explicit: decay rates, nondecreasing

    [problem]
    h = 1.0                      # delay span
    T = 2.0                      # horizon; dt must divide both
    alpha = 0.5                  # fractional exponent of the neutral norm
    mg_bound = 0.07              # declared contraction budget, < 1
    domain = delay_mass          # delay_mass | sup_band | time_only
    l = 1.0                      # band width (band domains), finite
    g_family = affine            # zero | affine | point_delay | time_forcing
    g_functional = integral      # integral | max        (affine)
    g_c0 = 0.0                   # affine: value c0 + c1*y
    g_c1 = 0.05
    g_profile = sine:1:1.0       # sine:k:amp | modes:v1 v2 ...
    g_y_max = 1.0                # argument cap of the scalar map; for runs
                                 # that exit through a band edge give the
                                 # cap headroom beyond l (the crossing
                                 # window evaluates slightly past the edge)
    g_window = full              # full | current | affine:b0,b1,a0,a1  (max)
    g_kappa = 0.25               # point_delay weight
    g_fns = const:0.0            # time_forcing: per-mode, ';'-separated,
                                 # const:c | poly:c0,c1,... | exp:amp,rate
    f_family = ...               # same keys with the f_ prefix

    [initial]
    family = constant            # constant | exp | table
    coeffs = 0.3 0 0             # constant: one value per mode
    amps = 1.0                   # exp: phi_k(theta) = amp_k e^(rate_k theta)
    rates = -0.5
    table = ...                  # rows "theta v1 v2 ...", theta in [-h, 0]

    [solver]
    dt = 1e-2                    # grid step; h, T and window are n*dt, n >= 1,
                                 # h is at most 10**7 steps, and its h/dt + 1
                                 # rows hold at most 10**8 values over all modes
    window = 0.5                 # largest window; halved on failure down to dt
    tol = 1e-10                  # optional from here on: SolverConfig's
    max_iter = 200               # defaults apply to every key left out
    trust_radius = 100.0

    [output]
    csv = run.csv                # empty: no file written
    n_coeffs = 3                 # coefficient columns to emit
"""

from __future__ import annotations

import configparser
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .history import Segment, segment_on_grid
from .problem import (
    DomainSpec,
    FunctionalAffineTerm,
    NeutralProblem,
    PointDelayTerm,
    TimeFn,
    TimeForcingTerm,
    WindowFns,
    ZeroTerm,
    current_value_window,
    full_history_window,
    sine_profile_coeffs,
)
from .solver import SolverConfig
from .spectral import SpectralOperator, make_dirichlet_laplacian

_SCHEMA = {
    "operator": {"type", "n_modes", "length", "mu"},
    "problem": {
        "h", "T", "alpha", "mg_bound", "domain", "l",
        "g_family", "g_functional", "g_c0", "g_c1", "g_profile", "g_y_max",
        "g_window", "g_kappa", "g_fns",
        "f_family", "f_functional", "f_c0", "f_c1", "f_profile", "f_y_max",
        "f_window", "f_kappa", "f_fns",
    },
    "initial": {"family", "coeffs", "amps", "rates", "table"},
    "solver": {"dt", "window", "tol", "max_iter", "trust_radius"},
    "output": {"csv", "n_coeffs"},
}
_REQUIRED_SECTIONS = ("operator", "problem", "initial", "solver")


@dataclass
class RunConfig:
    """Parsed and schema-checked configuration, still purely declarative."""

    raw: dict
    text: str

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.raw.get(section, {}).get(key, default)


@dataclass
class BuiltRun:
    """Everything a run needs, constructed from a RunConfig."""

    problem: NeutralProblem
    initial_segment: Segment
    solver: SolverConfig
    csv_path: str | None
    n_coeffs: int


def _line_of(text: str, key: str, section: str) -> int | None:
    in_section = False
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            in_section = stripped == f"[{section}]"
        elif in_section and re.match(rf"^{re.escape(key)}\s*[=:]", stripped):
            return i
    return None


def _fail(text: str, section: str, key: str, message: str) -> "SchemaError":
    line = _line_of(text, key, section)
    prefix = f"line {line}: " if line is not None else ""
    return SchemaError(f"{prefix}[{section}] {key}: {message}")


def parse_config(text: str) -> RunConfig:
    """Parse and schema-check configuration text."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise SchemaError(str(exc)) from exc
    raw: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise SchemaError(f"unknown section [{section}]")
        known = _SCHEMA[section]
        raw[section] = {}
        for key, value in parser.items(section):
            if key not in known:
                raise _fail(text, section, key, "unknown key")
            raw[section][key] = value.strip()
    for section in _REQUIRED_SECTIONS:
        if section not in raw:
            raise SchemaError(f"missing required section [{section}]")
    return RunConfig(raw=raw, text=text)


def _floats(text: str, sep: str | None = None) -> list[float]:
    """The numbers of a ``sep``-separated config list; ValueError on a nan or non-number."""
    numbers = [float(v) for v in text.split(sep)]
    if any(map(math.isnan, numbers)):
        raise ValueError(f"nan is not a value: {text!r}")
    return numbers


def _number(text: str) -> float:
    """One config number; ValueError on a nan or non-number."""
    number = float(text)
    if math.isnan(number):
        raise ValueError(f"nan is not a value: {text!r}")
    return number


#: (conversion, what a value that fails it is not) per kind of value
_KINDS = {
    float: (_number, "not a number"),
    int: (int, "not an integer"),
    list: (lambda text: np.array(_floats(text)), "not a number list"),
    str: (str, None),
}


def _value(cfg: RunConfig, section: str, key: str, kind, default=None, required=False):
    """``key`` read as ``kind``: float, int, list (of floats, as an array) or str.

    A key left out or set empty gives ``default``, or fails when ``required``.
    """
    text = cfg.get(section, key)
    if not text:
        if required:
            raise _fail(cfg.text, section, key, "required value missing")
        return default
    convert, not_a = _KINDS[kind]
    try:
        return convert(text)
    except ValueError:
        raise _fail(cfg.text, section, key, f"{not_a}: {text!r}") from None


def _operator_builder(cfg: RunConfig):
    """The operator's mode count and a function that builds the operator:
    nothing of the count's size is allocated until it is called."""
    kind = cfg.get("operator", "type", "dirichlet_sine")
    if kind == "dirichlet_sine":
        n_modes = _value(cfg, "operator", "n_modes", int, required=True)
        length = _value(cfg, "operator", "length", float, required=True)
        return n_modes, lambda: make_dirichlet_laplacian(n_modes, length)
    if kind == "explicit":
        mu = _value(cfg, "operator", "mu", list, required=True)
        n_modes = _value(cfg, "operator", "n_modes", int)
        if n_modes is not None and n_modes != mu.size:
            raise _fail(cfg.text, "operator", "n_modes",
                        f"does not match the {mu.size} explicit rates")
        return mu.size, lambda: SpectralOperator(mu)
    raise _fail(cfg.text, "operator", "type", f"unknown operator type {kind!r}")


def _parse_profile(cfg: RunConfig, prefix: str, op: SpectralOperator) -> np.ndarray:
    spec = _value(cfg, "problem", f"{prefix}_profile", str, required=True)
    kind, _, rest = spec.partition(":")
    if kind == "modes":
        try:
            coeffs = np.array(_floats(rest))
        except ValueError:
            raise _fail(cfg.text, "problem", f"{prefix}_profile",
                        f"bad mode coefficients {rest!r}") from None
        if coeffs.size != op.n_modes:
            raise _fail(cfg.text, "problem", f"{prefix}_profile",
                        f"needs {op.n_modes} coefficients, got {coeffs.size}")
        return coeffs
    if kind == "sine":
        parts = rest.split(":")
        if len(parts) != 2:
            raise _fail(cfg.text, "problem", f"{prefix}_profile",
                        "sine profile is sine:<mode>:<amplitude>")
        try:
            k = int(parts[0])
            (amp,) = _floats(parts[1])
            return sine_profile_coeffs(op, k, amp)
        except ValueError as exc:
            raise _fail(cfg.text, "problem", f"{prefix}_profile", str(exc)) from None
    raise _fail(cfg.text, "problem", f"{prefix}_profile", f"unknown profile kind {kind!r}")


def _parse_window(cfg: RunConfig, prefix: str, h: float) -> WindowFns:
    spec = cfg.get("problem", f"{prefix}_window", "full")
    if spec in ("full", ""):
        return full_history_window(h)
    if spec == "current":
        return current_value_window()
    kind, _, rest = spec.partition(":")
    if kind == "affine":
        try:
            b0, b1, a0, a1 = _floats(rest, ",")
            return WindowFns(b0, b1, a0, a1)
        except ValueError:
            raise _fail(cfg.text, "problem", f"{prefix}_window",
                        "affine window is affine:b0,b1,a0,a1") from None
    raise _fail(cfg.text, "problem", f"{prefix}_window", f"unknown window {spec!r}")


def _parse_time_fns(cfg: RunConfig, prefix: str, op: SpectralOperator) -> list[TimeFn]:
    spec = _value(cfg, "problem", f"{prefix}_fns", str, required=True)
    fns = []
    for part in spec.split(";"):
        part = part.strip()
        kind, _, rest = part.partition(":")
        try:
            params = tuple(_floats(rest, ",")) if rest else ()
            fns.append(TimeFn(kind, params))
        except ValueError as exc:
            raise _fail(cfg.text, "problem", f"{prefix}_fns", f"{part!r}: {exc}") from None
    if len(fns) != op.n_modes:
        raise _fail(cfg.text, "problem", f"{prefix}_fns",
                    f"needs {op.n_modes} per-mode functions, got {len(fns)}")
    return fns


def _build_term(cfg: RunConfig, prefix: str, op: SpectralOperator, h: float):
    family = cfg.get("problem", f"{prefix}_family", "zero")
    if family == "zero":
        return ZeroTerm()
    if family == "affine":
        functional = cfg.get("problem", f"{prefix}_functional", "integral")
        if functional not in ("integral", "max"):
            raise _fail(cfg.text, "problem", f"{prefix}_functional",
                        f"unknown functional {functional!r}")
        window = _parse_window(cfg, prefix, h) if functional == "max" else None
        return FunctionalAffineTerm(
            c0=_value(cfg, "problem", f"{prefix}_c0", float, 0.0),
            c1=_value(cfg, "problem", f"{prefix}_c1", float, 0.0),
            profile=_parse_profile(cfg, prefix, op),
            functional=functional,
            window=window,
            y_max=_value(cfg, "problem", f"{prefix}_y_max", float),
        )
    if family == "point_delay":
        kappa = _value(cfg, "problem", f"{prefix}_kappa", float, required=True)
        return PointDelayTerm(kappa)
    if family == "time_forcing":
        return TimeForcingTerm(_parse_time_fns(cfg, prefix, op))
    raise _fail(cfg.text, "problem", f"{prefix}_family", f"unknown family {family!r}")


def _build_initial(cfg: RunConfig, op: SpectralOperator, h: float, dt: float) -> Segment:
    family = cfg.get("initial", "family", "constant")
    n_h = int(round(h / dt))
    thetas = -h + dt * np.arange(n_h + 1)
    if family == "constant":
        coeffs = _value(cfg, "initial", "coeffs", list, required=True)
        if coeffs.size != op.n_modes:
            raise _fail(cfg.text, "initial", "coeffs",
                        f"needs {op.n_modes} values, got {coeffs.size}")
        return Segment(h, thetas, np.tile(coeffs, (n_h + 1, 1)))
    if family == "exp":
        amps = _value(cfg, "initial", "amps", list, required=True)
        rates = _value(cfg, "initial", "rates", list, required=True)
        if amps.size != op.n_modes or rates.size != op.n_modes:
            raise _fail(cfg.text, "initial", "amps",
                        f"amps and rates both need {op.n_modes} values")
        # an overflow leaves non-finite values, which continue_solution rejects
        with np.errstate(over="ignore", invalid="ignore"):
            values = amps[None, :] * np.exp(np.outer(thetas, rates))
        return Segment(h, thetas, values)
    if family == "table":
        raw = _value(cfg, "initial", "table", str, required=True)
        rows = []
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(_floats(line))
            except ValueError:
                raise _fail(cfg.text, "initial", "table", f"bad row {line!r}") from None
        arr = np.array(rows)
        if arr.ndim != 2 or arr.shape[1] != op.n_modes + 1:
            raise _fail(cfg.text, "initial", "table",
                        f"rows must be theta plus {op.n_modes} values")
        try:
            table_seg = Segment(h, arr[:, 0], arr[:, 1:])
        except ValueError as exc:
            raise _fail(cfg.text, "initial", "table", str(exc)) from None
        return Segment(h, thetas, segment_on_grid(table_seg, h, dt))
    raise _fail(cfg.text, "initial", "family", f"unknown family {family!r}")


def build_run(cfg: RunConfig, dt_override: float | None = None) -> BuiltRun:
    """Construct the operator, problem, initial history, and solver settings.

    Schema-level problems raise SchemaError; hypothesis-level problems (a
    non-contractive declared budget) propagate as HypothesisViolation.
    """
    n_modes, build_operator = _operator_builder(cfg)
    h = _value(cfg, "problem", "h", float, required=True)
    T = _value(cfg, "problem", "T", float, required=True)
    dt = dt_override if dt_override is not None else _value(
        cfg, "solver", "dt", float, required=True)
    window = _value(cfg, "solver", "window", float, required=True)
    # keys left out take SolverConfig's defaults
    settings = {"tol": _value(cfg, "solver", "tol", float),
                "max_iter": _value(cfg, "solver", "max_iter", int),
                "trust_radius": _value(cfg, "solver", "trust_radius", float)}
    # the grid and the history's size are checked before the operator or
    # the initial history is allocated
    try:
        solver = SolverConfig(dt=dt, window=window,
                              **{k: v for k, v in settings.items() if v is not None})
        solver.validate_grid(h, T, n_modes)
    except ValueError as exc:
        raise SchemaError(f"[solver] {exc}") from exc
    try:
        op = build_operator()
    except ValueError as exc:
        raise SchemaError(f"[operator] {exc}") from exc
    alpha = _value(cfg, "problem", "alpha", float, 0.5)
    mg_bound = _value(cfg, "problem", "mg_bound", float, required=True)
    domain_kind = cfg.get("problem", "domain", "time_only")
    l = _value(cfg, "problem", "l", float)
    try:
        domain = DomainSpec(domain_kind, l)
    except ValueError as exc:
        raise _fail(cfg.text, "problem", "domain", str(exc)) from None

    g = _build_term(cfg, "g", op, h)
    f = _build_term(cfg, "f", op, h)

    try:
        problem = NeutralProblem(op, h, T, alpha, g, f, domain, mg_bound)
    except ValueError as exc:
        raise SchemaError(f"[problem] {exc}") from exc
    initial = _build_initial(cfg, op, h, solver.dt)

    n_coeffs = _value(cfg, "output", "n_coeffs", int, op.n_modes)
    if n_coeffs < 0:
        raise _fail(cfg.text, "output", "n_coeffs", f"must be >= 0, got {n_coeffs}")
    return BuiltRun(
        problem=problem,
        initial_segment=initial,
        solver=solver,
        csv_path=cfg.get("output", "csv") or None,
        n_coeffs=n_coeffs,
    )
