import io
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neutraldde.cli as cli
from neutraldde.cli import export_csv, main
from neutraldde.config import build_run, parse_config
from neutraldde.continuation import TerminationEvent, Trajectory, continue_solution
from neutraldde.errors import InvalidInitialData, SchemaError
from neutraldde.history import (SegmentStack, SolutionPath, integral_norm_functional, segment_at,
                                segment_on_grid)
from neutraldde.problem import DomainSpec
from neutraldde.scenarios import get_scenario, scenario_names
from neutraldde.solver import SolverConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SMALL_RUN = """\
[operator]
type = explicit
mu = 1.0

[problem]
h = 0.2
T = 0.4
alpha = 0.5
mg_bound = 0.0
domain = delay_mass
l = 10.0
g_family = zero
f_family = zero

[initial]
family = constant
coeffs = 1.0

[solver]
dt = 0.1
window = 0.2
tol = 1e-12

[output]
csv = tiny.csv
n_coeffs = 1
"""


class TestConfigParsing:
    def test_unknown_key_reports_line(self):
        bad = SMALL_RUN.replace("g_family = zero", "g_family = zero\nbogus_key = 3")
        with pytest.raises(SchemaError) as err:
            parse_config(bad)
        assert "bogus_key" in str(err.value)
        assert "line" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(SchemaError):
            parse_config(SMALL_RUN + "\n[extras]\nx = 1\n")

    def test_missing_section_rejected(self):
        text = SMALL_RUN.replace("[initial]", "[output]").replace("family = constant", "")
        with pytest.raises(SchemaError):
            parse_config(text)

    def test_grid_divisibility_checked(self):
        text = SMALL_RUN.replace("dt = 0.1", "dt = 0.07")
        with pytest.raises(SchemaError):
            build_run(parse_config(text))

    def test_bad_number_reports_key(self):
        text = SMALL_RUN.replace("h = 0.2", "h = fast")
        with pytest.raises(SchemaError) as err:
            build_run(parse_config(text))
        assert "h" in str(err.value)

    def test_every_scenario_parses_and_builds(self):
        for name in scenario_names():
            built = build_run(parse_config(get_scenario(name)))
            assert built.problem.T > 0

    def test_initial_table_family(self):
        text = SMALL_RUN.replace(
            "family = constant\ncoeffs = 1.0",
            "family = table\ntable =\n      -0.2 1.0\n      -0.1 1.5\n      0.0 2.0",
        )
        built = build_run(parse_config(text))
        seg = built.initial_segment
        np.testing.assert_allclose(seg.values[:, 0], [1.0, 1.5, 2.0])

    def test_initial_exp_family(self):
        text = SMALL_RUN.replace(
            "family = constant\ncoeffs = 1.0",
            "family = exp\namps = 2.0\nrates = -1.0",
        )
        built = build_run(parse_config(text))
        seg = built.initial_segment
        np.testing.assert_allclose(seg.values[:, 0], 2.0 * np.exp(-seg.thetas))

    def test_large_horizon_and_window_stay_valid(self):
        # only the delay span is bounded: the path grows as the run goes and
        # the window is clipped, so neither allocates up front
        text = SMALL_RUN.replace("T = 0.4", "T = 1e300").replace("window = 0.2", "window = 1e300")
        built = build_run(parse_config(text))
        assert built.problem.T == built.solver.window == 1e300

    def test_dt_override(self):
        built = build_run(parse_config(SMALL_RUN), dt_override=0.05)
        assert built.solver.dt == 0.05

    def test_explicit_operator_mode_count_mismatch(self):
        text = SMALL_RUN.replace("mu = 1.0", "mu = 1.0 2.0\nn_modes = 3")
        with pytest.raises(SchemaError):
            build_run(parse_config(text))

    def test_solver_keys_left_out_take_the_solver_defaults(self):
        text = SMALL_RUN.replace("tol = 1e-12\n", "")
        assert build_run(parse_config(text)).solver == SolverConfig(dt=0.1, window=0.2)

    # (the line a removed key follows, the key's line); the operator's gap
    # is its smallest rate and the per-window lines always print
    _REMOVED_KEYS = [("tol = 1e-12", "min_window = 0.1"), ("tol = 1e-12", "boundary_tol = 1e-9"),
                     ("tol = 1e-12", "damping = 1.0"), ("mu = 1.0", "gap = 0.5"),
                     ("n_coeffs = 1", "diagnostics = true")]

    @pytest.mark.parametrize("anchor, line", _REMOVED_KEYS,
                             ids=[line for _, line in _REMOVED_KEYS])
    def test_removed_solver_keys_are_unknown(self, tmp_path, capsys, anchor, line):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(SMALL_RUN.replace(anchor, f"{anchor}\n{line}"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    # (line, replacement, how the error goes on after "schema error: "): one
    # case per message of the value reader; in SMALL_RUN h is on line 6,
    # f_family on 13, coeffs on 17 and tol on 22
    _UNREADABLE = [
        ("tol = 1e-12", "tol = abc", "line 22: [solver] tol: not a number: 'abc'"),
        ("tol = 1e-12", "tol = 1e-12\nmax_iter = 2.5",
         "line 23: [solver] max_iter: not an integer: '2.5'"),
        ("coeffs = 1.0", "coeffs = 0.1 x", "line 17: [initial] coeffs: not a number list: '0.1 x'"),
        ("h = 0.2", "h =", "line 6: [problem] h: required value missing"),
        ("f_family = zero", "f_family = time_forcing\nf_fns =", "line 14: [problem] f_fns: required"),
    ]

    @pytest.mark.parametrize("old, new, message", _UNREADABLE,
                             ids=[new.splitlines()[-1] for _, new, _ in _UNREADABLE])
    def test_unreadable_value_names_its_line(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_RUN.replace(old, new))
        assert main(["check", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"schema error: {message}") and "\n" not in err


class TestRunCommand:
    def test_heat_decay_reaches_horizon(self, tmp_path, capsys):
        code = main(["run", "--scenario", "heat_decay", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reached_horizon" in out
        csv = (tmp_path / "heat_decay.csv").read_text()
        assert csv.endswith("# tau=2\n")

    def test_mass_growth_boundary_event(self, tmp_path, capsys):
        code = main(["run", "--scenario", "mass_growth", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "boundary_hit:upper_mass" in out
        tau_line = [l for l in (tmp_path / "mass_growth.csv").read_text().splitlines()
                    if l.startswith("# tau=")][0]
        tau = float(tau_line.split("=")[1])
        t_star = math.log(1.0 / (0.1 * (1.0 - math.exp(-1.0))))
        assert abs(tau - t_star) <= 2e-3

    def test_window_closing_at_the_current_value_runs(self, tmp_path, capsys):
        # f's window [beta(t) - t, alpha(t) - t] closes to theta = 0 at T,
        # where beta(T) - T rounds past alpha(T) - T = 0 within the slack
        text = get_scenario("mass_growth")
        edited = text.replace("T = 3.5", "T = 2.5").replace(
            "f_window = current", "f_window = affine:-0.15,1.06,0.0,1.0")
        assert edited.count("2.5") > text.count("2.5") and "affine:" in edited
        cfg = tmp_path / "closing.cfg"
        cfg.write_text(edited)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "reached_horizon" in capsys.readouterr().out

    def test_declared_budget_above_one_exits_3(self, tmp_path, capsys):
        text = get_scenario("parabolic_delay_mass").replace(
            "mg_bound = 0.07", "mg_bound = 1.2"
        )
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3

    def test_smallness_rejection_exits_3(self, tmp_path, capsys):
        text = (
            get_scenario("parabolic_delay_mass")
            .replace("g_c1 = 0.05", "g_c1 = 0.5")
            .replace("mg_bound = 0.07", "mg_bound = 0.64")
        )
        cfg = tmp_path / "steep.cfg"
        cfg.write_text(text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "smallness" in err

    def test_schema_error_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(SMALL_RUN + "\nnot a config line at all\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_initial_data_outside_exits_2(self, tmp_path):
        text = get_scenario("mass_growth").replace("coeffs = 0.1", "coeffs = 5.0")
        cfg = tmp_path / "outside.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_initial_history_exits_2(self, tmp_path, capsys):
        # 0 * e^1000 is nan at theta = -h, and nan fails every band test:
        # classified by membership alone, the run reported a vanishing exit
        text = get_scenario("mass_growth").replace(
            "family = constant\ncoeffs = 0.1", "family = exp\namps = 0.0\nrates = -1000")
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("invalid initial data:") and "\n" not in err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_tight_y_cap_on_exit_bound_run_exits_2(self, tmp_path, capsys):
        # the forcing's argument cap equals the band edge, so the crossing
        # window cannot even be evaluated: a configuration problem
        text = get_scenario("mass_growth").replace("f_y_max = 1e9", "f_y_max = 1.6")
        cfg = tmp_path / "tight.cfg"
        cfg.write_text(text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "headroom" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, tmp_path):
        assert main(["run", "--scenario", "no_such", "--out", str(tmp_path)]) == 2

    def test_csv_functional_column_decides_the_event(self, tmp_path):
        # the exit scan reads the floats the functional column prints: the
        # last row is the first one with t >= 0 on the band edge
        assert main(["run", "--scenario", "mass_growth", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "mass_growth.csv").read_text().splitlines()
        assert lines[-2] == "# event=boundary_hit:upper_mass"
        rows = np.array([[float(v) for v in line.split(",")[:3]] for line in lines[1:-2]])
        functional = rows[rows[:, 0] >= 0.0, 2]
        domain = build_run(parse_config(get_scenario("mass_growth"))).problem.domain
        tol = domain.default_tol()
        assert functional[-1] - domain.l >= -tol
        assert np.all(functional[:-1] - domain.l < -tol)


#: SMALL_RUN with an affine neutral term over a max window, so that the
#: window and argument-cap keys are read, and with its one rate mu = 1 given
#: as the sine operator on (0, pi), so that sine profiles are admitted; it
#: runs to its horizon
BAD_VALUE_BASE = SMALL_RUN.replace(
    "g_family = zero",
    "g_family = affine\ng_functional = max\ng_c1 = 0.05\ng_profile = modes:1.0\ng_y_max = 1e9",
).replace("mg_bound = 0.0", "mg_bound = 0.3").replace(
    "type = explicit\nmu = 1.0", "type = dirichlet_sine\nn_modes = 1\nlength = 3.141592653589793")


#: (line, replacement, extra arguments): a value out of its range, not
#: finite where it must be, or nan
_BAD_VALUES = [
    ("alpha = 0.5", "alpha = 0", []),
    ("alpha = 0.5", "alpha = 2", []),
    ("mg_bound = 0.3", "mg_bound = -1", []),
    ("g_y_max = 1e9", "g_y_max = 1e9\ng_window = affine:-2,1,0,1", []),
    ("T = 0.4", "T = inf", []),
    ("h = 0.2", "h = inf", []),
    ("window = 0.2", "window = inf", []),
    ("dt = 0.1", "dt = inf", []),
    ("dt = 0.1", "dt = 0.1", ["--dt", "inf"]),
    ("tol = 1e-12", "tol = nan", []),
    ("tol = 1e-12", "tol = inf", []),
    ("tol = 1e-12", "tol = 1e-12\ntrust_radius = nan", []),
    ("l = 10.0", "l = nan", []),
    ("g_y_max = 1e9", "g_y_max = nan", []),
    ("coeffs = 1.0", "coeffs = nan", []),
    ("family = constant\ncoeffs = 1.0",
     "family = table\ntable =\n  -0.2 1.0\n  -0.1 1.0\n  0.0 nan", []),
    ("f_family = zero", "f_family = time_forcing\nf_fns = const:nan", []),
    ("f_family = zero", "f_family = time_forcing\nf_fns = const", []),
    ("f_family = zero", "f_family = time_forcing\nf_fns = poly", []),
    ("f_family = zero", "f_family = time_forcing\nf_fns = const:1,2", []),
    ("g_profile = modes:1.0", "g_profile = modes:nan", []),
    ("g_profile = modes:1.0", "g_profile = sine:1:nan", []),
    ("g_y_max = 1e9", "g_y_max = 1e9\ng_window = affine:nan,1,0,1", []),
    # an edge slope of inf is nan at t = 0, and one of 1e308 overflows at T = 2
    ("g_y_max = 1e9", "g_y_max = 1e9\ng_window = affine:-1,1,0,inf", []),
    ("T = 0.4", "T = 2.0\ng_window = affine:-1,1e308,0,1", []),
    # spans shorter than one grid step round to 0 steps, and an infinite
    # band width makes the band tolerance infinite
    ("h = 0.2", "h = 1e-300", []),
    ("window = 0.2", "window = 1e-300", []),
    ("T = 0.4", "T = 1e-300", []),
    ("l = 10.0", "l = inf", []),
]


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("old, new, extra", _BAD_VALUES,
                         ids=[" ".join([new.splitlines()[-1].strip(), *extra]) for _, new, extra in _BAD_VALUES])
def test_out_of_range_or_non_finite_value_exits_2(tmp_path, capsys, command, old, new, extra):
    assert old in BAD_VALUE_BASE
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BAD_VALUE_BASE.replace(old, new))
    argv = [command, "--config", str(cfg), *extra]
    if command == "run":
        argv += ["--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("schema error:") and "\n" not in err


def test_bad_value_base_runs(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(BAD_VALUE_BASE)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def _argv(command, cfg, out):
    return [command, "--config", str(cfg)] + (["--out", str(out)] if command == "run" else [])


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("key", ["g_y_max", "f_y_max"])
def test_infinite_argument_cap_sets_no_cap(tmp_path, capsys, command, key):
    # an argument cap of inf reads as no cap: the command prints what it
    # prints for the config without the key
    base = get_scenario("parabolic_delay_mass")
    line = f"\n{key} = 1.0\n"
    assert line in base
    cfg = tmp_path / "cap.cfg"
    outs = []
    for new in (f"\n{key} = inf\n", "\n"):
        cfg.write_text(base.replace(line, new))
        assert main(_argv(command, cfg, tmp_path)) == 0
        out, err = capsys.readouterr()
        assert err == ""
        outs.append(out)
    assert outs[0] == outs[1]


#: (line, replacement, extra arguments): a delay span of more steps than a
#: history may hold, on heat_decay (h = 0.5, dt = 0.01); none is allocated
_LONG_DELAYS = [
    ("dt = 0.01", "dt = 1e-300", []),
    ("dt = 0.01", "dt = 0.01", ["--dt", "1e-300"]),
    ("h = 0.5", "h = 1e300", []),
]


@pytest.mark.parametrize("old, new, extra", _LONG_DELAYS,
                         ids=[" ".join([new, *extra]) for _, new, extra in _LONG_DELAYS])
def test_delay_span_past_the_bound_exits_2(tmp_path, capsys, old, new, extra):
    text = get_scenario("heat_decay")
    assert old in text
    cfg = tmp_path / "long.cfg"
    cfg.write_text(text.replace(old, new))
    assert main(_argv("run", cfg, tmp_path) + extra) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("schema error: [solver] the delay span") and "\n" not in err


#: (line, replacement): operators of more modes than a history may hold
#: values, on heat_decay (51 history rows); each count fails before anything
#: of its size is allocated
_WIDE_OPERATORS = [
    ("n_modes = 4", "n_modes = 10000000000000"),
    ("n_modes = 4", "n_modes = 10000000000000000000000"),
]


@pytest.mark.parametrize("command", ["run", "check", "study"])
@pytest.mark.parametrize("old, new", _WIDE_OPERATORS, ids=["1e13", "1e22"])
def test_history_of_more_values_than_the_bound_exits_2(tmp_path, capsys, command, old, new):
    text = get_scenario("heat_decay")
    assert old in text
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(text.replace(old, new))
    extra = ["--dts", "0.02,0.01,0.005"] if command == "study" else []
    assert main(_argv(command, cfg, tmp_path) + extra) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("schema error: [solver] a history of") and "\n" not in err
    assert "more than the 100000000 a run may hold" in err


#: (scenario, line, replacement, exit code, stderr prefix): inputs that
#: overflow in the admission samples or in the decay rates
_OVERFLOWS = [
    ("heat_decay", "\nl = 10.0", "\nl = 1e308", 2, "invalid initial data:"),
    ("manufactured_decay", "g_kappa = 0.25", "g_kappa = 1e308", 3, "hypothesis failure:"),
    # the analytic bound mu_3^0.5 * 1e308 overflows too
    ("parabolic_max", "g_profile = modes:1.0 0 0", "g_profile = modes:0 0 1e308", 3,
     "hypothesis failure:"),
    ("heat_decay", "length = 3.141592653589793", "length = 1e-300", 2,
     "schema error: [operator] decay rates must be finite"),
]


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("name, old, new, code, prefix", _OVERFLOWS,
                         ids=[f"{name} {new.strip()}" for name, _, new, _, _ in _OVERFLOWS])
def test_overflow_is_reported_without_a_numpy_warning(tmp_path, capsys, command, name, old,
                                                      new, code, prefix):
    text = get_scenario(name)
    assert old in text
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(_argv(command, cfg, tmp_path)) == code
    err = capsys.readouterr().err.strip()
    assert err.startswith(prefix) and "\n" not in err


#: (scenario, line, replacement, event): values at the end of the float
#: range that a run takes to its end: a history norm, 1/mu and mu^2 overflow
_RUN_OVERFLOWS = [
    ("manufactured_decay", "amps = 1.0", "amps = 1e308", "solver_failure:left_trust_region"),
    ("parabolic_max", "length = 3.141592653589793", "length = 1e154", "reached_horizon"),
    ("parabolic_delay_mass", "length = 3.141592653589793", "length = 1e154",
     "solver_failure:left_trust_region"),
    ("mass_growth", "mu = 1.0", "mu = 1e308", "boundary_hit:vanishing"),
]


@pytest.mark.parametrize("name, old, new, event", _RUN_OVERFLOWS,
                         ids=[f"{name} {new}" for name, _, new, _ in _RUN_OVERFLOWS])
def test_overflowing_run_ends_without_a_numpy_warning(tmp_path, capsys, name, old, new, event):
    text = get_scenario(name)
    assert old in text
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text.replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(_argv("run", cfg, tmp_path)) == 0
    out, err = capsys.readouterr()
    assert f"event: {event}\n" in out and err == ""


#: (scenario, key line, value): every neutral-term key, band width and
#: domain length of the bundled scenarios at the ends of the float range
_ADMISSION_EDGES = [
    (name, line, value)
    for name in scenario_names()
    for line in get_scenario(name).splitlines()
    if line.startswith(("g_", "l = ", "length = "))
    for value in ("1e308", "-1e308", "0", "1e-300")
]


@pytest.mark.parametrize("name, line, value", _ADMISSION_EDGES,
                         ids=[f"{name} {line.split()[0]}={value}"
                              for name, line, value in _ADMISSION_EDGES])
def test_admission_edge_values_exit_with_one_line_and_no_warning(tmp_path, capsys, name, line,
                                                                 value):
    # the exit-code contract under check: 0, a reported config error (2) or
    # a failed hypothesis (3), one stderr line at most, no numpy warning
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(get_scenario(name).replace(line, f"{line.split()[0]} = {value}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", "--config", str(cfg)]) in (0, 2, 3)
    assert len(capsys.readouterr().err.splitlines()) <= 1


class TestCsvFormat:
    def test_structure_and_roundtrip(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SMALL_RUN)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        raw = (tmp_path / "tiny.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,norm,functional,c1"
        assert lines[-2].startswith("# event=")
        assert lines[-1].startswith("# tau=")
        # history (3 nodes) plus 4 run steps, minus the shared node
        data = [l for l in lines if not l.startswith(("t,", "#"))]
        assert len(data) == 7
        # 17 significant digits round-trip exactly
        for line in data:
            t, norm, _, c1 = line.split(",")
            assert float(norm) == float(np.linalg.norm([float(c1)]))

    def test_n_coeffs_clipped_with_warning(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SMALL_RUN.replace("n_coeffs = 1", "n_coeffs = 5"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "clipped" in capsys.readouterr().err
        header = (tmp_path / "tiny.csv").read_text().splitlines()[0]
        assert header == "t,norm,functional,c1"

    def test_zero_coefficient_columns(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SMALL_RUN.replace("n_coeffs = 1", "n_coeffs = 0"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "tiny.csv").read_text().splitlines()
        assert lines[0] == "t,norm,functional"
        assert all(len(line.split(",")) == 3 for line in lines[1:-2])

    def test_negative_coefficient_count_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SMALL_RUN.replace("n_coeffs = 1", "n_coeffs = -1"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "n_coeffs" in capsys.readouterr().err
        assert not (tmp_path / "tiny.csv").exists()

    @pytest.mark.parametrize("n_coeffs", [0, 2, 6])
    def test_block_writer_matches_savetxt(self, tmp_path, capsys, monkeypatch, n_coeffs):
        # a 4-mode path with nan, signed, subnormal and +-1e300 entries (whose
        # rows have infinite norms), written with none, some and more than
        # all of its coefficient columns, in blocks of 4 rows and a last
        # block of 1
        import neutraldde.cli as cli

        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 4)
        prob = build_run(parse_config(SMALL_RUN)).problem
        dt = 0.1
        values = np.random.default_rng(8).normal(size=(9, 4))
        values[2, 1] = math.nan
        values[3] = [-0.0, -2.5, 5e-324, -1e-310]
        values[5, 0] = 1e300
        values[6, 3] = -1e300
        path = SolutionPath(-prob.h, dt, values)
        with np.errstate(over="ignore"):
            functionals = prob.domain_functionals(SegmentStack(prob.h, dt, values))
            traj = Trajectory(path, functionals, event=TerminationEvent("reached_horizon", path.t_end),
                              tau=path.t_end)
            out = tmp_path / "table.csv"
            export_csv(traj, out, n_coeffs)
            norms = np.linalg.norm(values, axis=1)
        k = min(n_coeffs, 4)
        table = np.column_stack([path.times(), norms, np.r_[[math.nan] * 2, functionals],
                                 values[:, :k]])
        assert np.isnan(table).any() and np.isinf(table).any()
        assert (table == 1e300).any() == (k > 0)
        reference = io.StringIO()
        np.savetxt(reference, table, fmt="%.17g", delimiter=",",
                   header=",".join(["t", "norm", "functional"] + [f"c{j + 1}" for j in range(k)]),
                   footer=f"# event=reached_horizon\n# tau={path.t_end:.17g}", comments="")
        assert out.read_bytes() == reference.getvalue().encode()

    @pytest.mark.parametrize("name", ["mass_growth", "parabolic_max", "manufactured_decay"])
    def test_functional_column_prints_each_windows_scan_values(self, tmp_path, name):
        # one scenario per domain kind: the column is traj.functionals, bit
        # for bit; the t0 entry is the functional of the initial rows, and
        # each window's new points take the functionals of a stack over that
        # window's rows alone
        built = build_run(parse_config(get_scenario(name)))
        prob, dt = built.problem, built.solver.dt
        traj = continue_solution(prob, built.initial_segment, 0.0, built.solver)
        out = tmp_path / "run.csv"
        export_csv(traj, out, n_coeffs=1)
        n_h = round(prob.h / dt)
        column = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:-2]]
        assert np.isnan(column[:n_h]).all()
        assert np.array_equal(column[n_h:], traj.functionals)
        assert traj.functionals.size == traj.path.n_times - n_h
        values = traj.path.values
        start = prob.domain_functionals(SegmentStack(prob.h, dt, values[: n_h + 1], 0.0))
        assert np.array_equal(traj.functionals[:1], start)
        for w in traj.windows:
            k = traj.path.index_of(w.t0) - n_h
            rows = values[k : k + n_h + round(w.window / dt) + 1]
            fresh = prob.domain_functionals(SegmentStack(prob.h, dt, rows, w.t0))[1:]
            got = traj.functionals[k + 1 : k + 1 + fresh.size]
            assert got.size and np.array_equal(got, fresh[: got.size])

    def test_solver_failure_in_the_first_window_writes_the_t0_functional(self, tmp_path):
        # the first step leaves a trust region of 1e-9, down to one cell
        cfg = tmp_path / "fail.cfg"
        cfg.write_text(SMALL_RUN.replace("tol = 1e-12", "tol = 1e-12\ntrust_radius = 1e-9"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "tiny.csv").read_text().splitlines()
        assert lines[-2] == "# event=solver_failure:left_trust_region"
        rows = [line.split(",") for line in lines[1:-2]]
        assert [float(row[0]) for row in rows] == pytest.approx([-0.2, -0.1, 0.0])
        assert [row[2] for row in rows[:2]] == ["nan", "nan"]
        # the delay mass of the constant history 1 over h = 0.2
        assert float(rows[2][2]) == pytest.approx(0.2, rel=1e-15)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--scenario", "heat_decay", "--out", str(out)]) == 0
        assert (a / "heat_decay.csv").read_bytes() == (b / "heat_decay.csv").read_bytes()

    def test_functional_column_keeps_relative_precision_on_long_decay(self, tmp_path):
        # a run whose delay mass falls from 0.2 to 5.5e-9 over 1000 rows,
        # just above its vanishing edge 2.5e-10: each row's value must stay
        # accurate relative to its own mass, not the run's
        text = (SMALL_RUN.replace("mu = 1.0", "mu = 20.0").replace("T = 0.4", "T = 1.0")
                .replace("l = 10.0", "l = 0.25").replace("dt = 0.1", "dt = 0.001"))
        cfg = tmp_path / "decay.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "tiny.csv").read_text().splitlines()
        assert lines[-2] == "# event=reached_horizon"
        # %.17g rereads the one coefficient, and so the path, exactly
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-2]])
        h = 0.2
        path = SolutionPath(rows[0, 0], 0.001, rows[:, 3:])
        functional = rows[rows[:, 0] >= 0.0, 2]
        assert functional[-1] < 1e-7 * functional[0]
        want = [integral_norm_functional(segment_at(path, t, h)) for t in rows[rows[:, 0] >= 0.0, 0]]
        np.testing.assert_allclose(functional, want, rtol=1e-12, atol=0.0)


def _percent_block(block, cells):
    """The reference CSV writer: one ``%`` per block of rows, the bytes of
    np.savetxt(fmt="%.17g", delimiter=",")."""
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return ((row * block.shape[0]) % tuple(block.ravel().tolist())).encode()


def _assert_prints_as_percent(values):
    # one value a row, so the formatter's rows line up with '%.17g' % x
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    rows = cli._csv_block(column, np.empty(column.shape + (cli._CELL,), np.uint8))
    got = rows.decode().split("\n")[:-1]
    values = column.ravel().tolist()
    want = ["%.17g" % x for x in values]
    assert len(got) == len(want)
    wrong = [(x.hex(), g, w) for x, g, w in zip(values, got, want) if g != w]
    assert not wrong, wrong[:5]


def _odd_multiples_of_powers_of_two():
    # every finite m * 2**k with k >= -1074 for a few odd m, from 3 to 2**53 - 1
    out = []
    for m in (3, 5, 7, 9, 11, 13, 15, 25, 99, 625, 3**20, 2**26 + 1, 2**53 - 1):
        out.append(np.ldexp(float(m), np.arange(-1074, 1025 - m.bit_length())))
    return np.concatenate(out)


def _powers_of_ten_and_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-307, 308)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


def _edge_values():
    # subnormals, the normal boundary, +-0, nan with either sign bit (quiet
    # and signalling payloads), +-inf and the finite extremes
    bits = np.array([1, 2, 3, 0x000FFFFFFFFFFFFF, 0x0008000000000000, 0x0000000123456789,
                     0x0010000000000000, 0x0010000000000001, 0, 0x8000000000000000,
                     0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
                     0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF], dtype=np.uint64)
    subnormals = np.random.default_rng(3).integers(1, 2**52, 2000, dtype=np.uint64)
    bits = np.concatenate([bits, subnormals, subnormals | np.uint64(2**63)])
    return bits.view(np.float64)


class TestCsvDigits:
    """``cli._csv_block`` prints each value as ``'%.17g' % x`` does."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern(self, bits):
        _assert_prints_as_percent(np.array(bits, dtype=np.uint64).view(np.float64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_float(self, values):
        _assert_prints_as_percent(values)

    @pytest.mark.parametrize("values", [
        pytest.param(np.ldexp(1.0, np.arange(-1074, 1024)), id="powers_of_two"),
        pytest.param(_odd_multiples_of_powers_of_two(), id="odd_multiples_of_powers_of_two"),
        pytest.param(_powers_of_ten_and_neighbours(), id="powers_of_ten_and_neighbours"),
        pytest.param(_edge_values(), id="subnormals_zeros_nans_infinities"),
    ])
    def test_fixed_sets(self, values):
        # powers of two and their odd multiples hold the exact ties (2**-25
        # is one); next to powers of ten log10 rounds across an integer
        _assert_prints_as_percent(values)

    @pytest.mark.parametrize("error", [-1e-7, 1e-7])
    def test_a_rounding_error_below_the_margin_changes_no_byte(self, monkeypatch, error):
        # the scaled fraction may be off by up to cli._TIE_MARGIN: values
        # that close to a tie, the exact ties first, are printed by '%'
        scaled = cli._scaled

        def off_scaled(a, e):
            n, rest = scaled(a, e)
            rest = rest + error
            whole = np.rint(rest)
            return n + whole.astype(np.int64), rest - whole

        monkeypatch.setattr(cli, "_scaled", off_scaled)
        _assert_prints_as_percent(np.concatenate([
            np.ldexp(1.0, np.arange(-1074, 1024)), _odd_multiples_of_powers_of_two(),
            np.random.default_rng(5).normal(size=2000)]))

    @pytest.mark.parametrize("n_coeffs, rows", [(0, 3), (4, 1)])
    def test_wide_tables_take_fewer_rows_a_block(self, tmp_path, monkeypatch, n_coeffs, rows):
        # at most _CSV_BLOCK_VALUES values a block, and at least one row
        monkeypatch.setattr(cli, "_CSV_BLOCK_VALUES", 10)
        values = np.random.default_rng(9).normal(size=(9, 4))
        path = SolutionPath(-0.2, 0.1, values)
        traj = Trajectory(path, np.ones(7), event=TerminationEvent("reached_horizon", 0.6),
                          tau=0.6)
        blocks = []
        block_writer = cli._csv_block

        def counted(block, cells):
            blocks.append(len(block))
            return block_writer(block, cells)

        monkeypatch.setattr(cli, "_csv_block", counted)
        export_csv(traj, tmp_path / "new.csv", n_coeffs)
        assert blocks == [rows] * (9 // rows)
        monkeypatch.setattr(cli, "_csv_block", _percent_block)
        export_csv(traj, tmp_path / "reference.csv", n_coeffs)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("name", [*scenario_names(), "exit_fine", "modes_wide"])
    def test_csv_bytes_match_the_percent_writer(self, tmp_path, monkeypatch, name):
        # each bundled scenario, and the two benchmark workloads at seed 7
        config = (workloads.GENERATORS[name](7).config if name in workloads.GENERATORS
                  else get_scenario(name))
        built = build_run(parse_config(config))
        traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
        export_csv(traj, tmp_path / "new.csv", built.n_coeffs)
        monkeypatch.setattr(cli, "_csv_block", _percent_block)
        export_csv(traj, tmp_path / "reference.csv", built.n_coeffs)
        new = (tmp_path / "new.csv").read_bytes()
        assert new.count(b"\n") == traj.path.n_times + 3
        assert new == (tmp_path / "reference.csv").read_bytes()


class TestCheckCommand:
    def test_passing_config(self, capsys):
        assert main(["check", "--scenario", "parabolic_delay_mass"]) == 0
        out = capsys.readouterr().out
        assert "passed" in out

    def test_analytic_bound_is_printed_beside_the_estimate(self, capsys):
        assert main(["check", "--scenario", "parabolic_max"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("contraction estimate: 0.05 ")
        assert lines[1] == "analytic bound: 0.05"

    def test_budget_violation(self, tmp_path):
        # declared budget far below the actual constant of the term
        text = get_scenario("parabolic_delay_mass").replace(
            "mg_bound = 0.07", "mg_bound = 0.01"
        )
        cfg = tmp_path / "lowball.cfg"
        cfg.write_text(text)
        assert main(["check", "--config", str(cfg)]) == 3

    def test_non_finite_term_exits_2(self, tmp_path, capsys):
        text = SMALL_RUN.replace("g_family = zero", "g_family = affine\ng_c0 = 1e300\n"
                                 "g_profile = modes:1e10")
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(text)
        assert main(["check", "--config", str(cfg)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_a_point_delay_that_fast_modes_make_expansive_exits_3(self, tmp_path, capsys):
        # kappa * mu_k^alpha on the sine modes of (0, pi): 0.5, 1.0 and 1.5.
        # Every mode takes a single-mode sample, not only every third one,
        # so the estimate reaches the fast mode's 1.5
        text = get_scenario("heat_decay").replace("g_family = zero",
                                                  "g_family = point_delay\ng_kappa = 0.5")
        for old, new in (("n_modes = 4", "n_modes = 3"), ("mg_bound = 0.0", "mg_bound = 0.95"),
                         ("coeffs = 1.0 0.5 0.25 0.125", "coeffs = 1.0 0.5 0.25")):
            text = text.replace(old, new)
        cfg = tmp_path / "fast_modes.cfg"
        cfg.write_text(text)
        assert main(["check", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert "contraction estimate: 1.5 " in out
        assert err.strip() == "hypothesis failure: sampled contraction constant is not < 1"

    def test_argument_range_admitting_no_sample_exits_2(self, tmp_path, capsys):
        # every sampled history pair overruns g_y_max, so no ratio is formed
        text = get_scenario("parabolic_delay_mass").replace("g_y_max = 1.0", "g_y_max = 1e-12")
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(text)
        assert main(["check", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error:") and "inadmissible" in err and "\n" not in err

    # a history outside the delay-mass band, and one whose exp overflows to
    # 0 * inf = nan on [-h, 0]: ``check`` refuses what ``run`` refuses
    @pytest.mark.parametrize("initial", ["family = constant\ncoeffs = 5.0",
                                         "family = exp\namps = 0.0\nrates = -1000"])
    def test_initial_data_that_run_rejects_exits_2(self, tmp_path, capsys, initial):
        text = get_scenario("mass_growth").replace("family = constant\ncoeffs = 0.1", initial)
        assert initial in text
        cfg = tmp_path / "initial.cfg"
        cfg.write_text(text)
        for command in (["check"], ["run", "--out", str(tmp_path)]):
            assert main(command + ["--config", str(cfg)]) == 2
            assert capsys.readouterr().err.startswith("invalid initial data:")

    def test_t0_is_decided_on_the_functional_the_csv_prints(self, tmp_path):
        # mass_growth's constant history: the scalar delay mass and the
        # one-slice stack's, which the CSV's t0 entry prints, round apart.
        # With l - tol between them, a run that starts has started inside
        # on the printed value, and check agrees with run
        built = build_run(parse_config(get_scenario("mass_growth")))
        prob, dt = built.problem, built.solver.dt
        scalar = integral_norm_functional(built.initial_segment)
        rows = segment_on_grid(built.initial_segment, prob.h, dt)
        printed = float(prob.domain_functionals(SegmentStack(prob.h, dt, rows, 0.0))[0])
        assert scalar < printed

        def inside(l, value):
            prob.domain = DomainSpec("delay_mass", l)
            return prob._classify(value, value).is_inside

        l = 0.5 * (scalar + printed) / (1.0 - 1e-9)
        for _ in range(1000):
            if inside(l, scalar) != inside(l, printed):
                break
            l = float(np.nextafter(l, -math.inf if inside(l, scalar) else math.inf))
        assert inside(l, scalar) and not inside(l, printed)

        text = get_scenario("mass_growth").replace("\nl = 1.0\n", f"\nl = {l!r}\n")
        assert f"\nl = {l!r}\n" in text
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(text)
        codes = [main(command + ["--config", str(cfg)])
                 for command in (["check"], ["run", "--out", str(tmp_path)])]
        assert codes[0] == codes[1]
        built = build_run(parse_config(text))
        try:
            traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
        except InvalidInitialData:
            return
        first = float(traj.functionals[0])
        assert built.problem._classify(first, first).is_inside

    @pytest.mark.parametrize("l", ["1.0", "1e6"])
    def test_width_on_a_time_only_domain_exits_2(self, tmp_path, capsys, l):
        # l is read by no scan on a time_only domain; it would only size the
        # smallness gate's argument cap and the admission samples
        text = (get_scenario("parabolic_delay_mass")
                .replace("domain = delay_mass\nl = 1.0", f"domain = time_only\nl = {l}")
                .replace("g_y_max = 1.0\n", ""))
        assert "time_only" in text and "g_y_max" not in text
        cfg = tmp_path / "time_only.cfg"
        cfg.write_text(text)
        assert main(["check", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "[problem] domain" in err
        cfg.write_text(text.replace(f"\nl = {l}", ""))
        assert main(["check", "--config", str(cfg)]) == 0


class TestStudyCommand:
    def test_requires_three_dts(self):
        assert main(["study", "--scenario", "heat_decay", "--dts", "0.01,0.005"]) == 2

    # 0.02 is not a whole multiple of the reference step 0.0125 / 4, a
    # repeated step has no order, and a step that is not positive and finite
    # is named as written, not as the reference step derived from it
    @pytest.mark.parametrize("dts, named", [("0.1,0.02,0.0125", "0.02 "),
                                            ("0.01,0.01,0.005", "repeated"),
                                            ("0.1,0.05,-0.01", "'-0.01'"),
                                            ("0.1, 0 ,0.05", "'0'"),
                                            ("0.1,0.05,nan", "'nan'")])
    def test_bad_step_lists_exit_2(self, capsys, dts, named):
        code = main(["study", "--scenario", "manufactured_decay", "--dts", dts])
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert err.startswith("bad --dts list:") and named in err and "\n" not in err

    def test_reference_step_past_the_delay_bound_exits_2(self, capsys):
        # the reference step 1e-300 / 16 puts 8e300 steps in heat_decay's delay
        code = main(["study", "--scenario", "heat_decay", "--dts", "4e-300,2e-300,1e-300"])
        err = capsys.readouterr().err.strip()
        assert code == 2
        assert err.startswith("schema error: [solver] the delay span") and "\n" not in err

    def test_homogeneous_study_reports_floor(self, capsys):
        code = main(["study", "--scenario", "heat_decay", "--dts", "0.01,0.005,0.0025"])
        out = capsys.readouterr().out
        assert code == 0
        assert "floor" in out

    # each way a study can stop short of its table exits 2 with a one-line message

    def _study(self, tmp_path, capsys, text, dts="0.04,0.02,0.01"):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(text)
        code = main(["study", "--config", str(cfg), "--dts", dts])
        return code, capsys.readouterr().err.strip()

    def test_reference_ending_at_the_boundary_exits_2(self, tmp_path, capsys):
        # mass_growth leaves its domain, so the fine reference never reaches T
        code, err = self._study(tmp_path, capsys, get_scenario("mass_growth"))
        assert code == 2
        assert err.startswith("reference unavailable:") and "\n" not in err

    def test_initial_data_outside_exits_2(self, tmp_path, capsys):
        text = get_scenario("mass_growth").replace("coeffs = 0.1", "coeffs = 5.0")
        code, err = self._study(tmp_path, capsys, text)
        assert code == 2
        assert err.startswith("invalid initial data:") and "\n" not in err

    def test_argument_range_overrun_exits_2(self, tmp_path, capsys):
        text = get_scenario("mass_growth").replace("f_y_max = 1e9", "f_y_max = 1.6")
        code, err = self._study(tmp_path, capsys, text)
        assert code == 2
        assert err.startswith("domain violation during solve:") and "\n" not in err

    def test_non_finite_term_exits_2(self, tmp_path, capsys):
        # finite coefficients whose product overflows: the admission samples
        # meet the non-finite values first
        text = (SMALL_RUN.replace("domain = delay_mass\nl = 10.0", "domain = time_only")
                .replace("g_family = zero", "g_family = affine\ng_c0 = 1e300\n"
                         "g_profile = modes:1e10"))
        code, err = self._study(tmp_path, capsys, text, dts="0.1,0.05,0.025")
        assert code == 2
        assert err.startswith("config error:") and "non-finite" in err and "\n" not in err

    def test_manufactured_study_shows_second_order(self, capsys):
        code = main(["study", "--scenario", "manufactured_decay",
                     "--dts", "0.01,0.005,0.0025"])
        out = capsys.readouterr().out
        assert code == 0
        orders = [float(line.split()[-1]) for line in out.splitlines()[2:]
                  if line and line.split()[-1] != "floor"]
        assert orders, f"no order column found in:\n{out}"
        for order in orders:
            assert 1.9 <= order <= 2.1


@pytest.mark.parametrize("option", [["--dt", "-5"], ["--out", "x"]])
def test_study_takes_no_step_or_output_option(capsys, option):
    # a study sets its own steps and writes only its table
    argv = ["study", "--scenario", "manufactured_decay", "--dts", "0.1,0.05,0.025", *option]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert option[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "check", "study"])
def test_negative_seed_is_an_argument_error(tmp_path, capsys, command):
    argv = [command, "--scenario", "heat_decay", "--seed", "-1"]
    argv += {"run": ["--out", str(tmp_path)], "check": [], "study": ["--dts", "0.1,0.05,0.025"]}[command]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out
