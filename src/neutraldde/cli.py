"""Command-line entry point: scenario runs, hypothesis checks, convergence studies.

Exit codes form a contract for scripted studies:

* 0 — a mathematically meaningful terminus was reached (including a
      solver-failure event, which is a reported outcome, not a crash);
* 2 — configuration or argument problems (schema violations, bad grids,
      config values out of range, nan values, infinite grid or span
      values or ``tol``, a delay, horizon or window span shorter than
      one grid step, a delay span of more than 10**7 grid steps, a
      history of more than 10**8 values (its h/dt + 1 rows times the
      mode count, checked before anything that size is allocated), a band
      width ``l`` that is not finite or is set on a ``time_only``
      domain, a time function with the wrong number of values, a missing
      config file or scenario, inadmissible or non-finite initial data,
      a term argument outside its declared range, non-finite term values
      met by the admission checks, a declared argument range that no
      sampled history fits, a fine reference for ``study`` that cannot
      be trusted, a negative ``--seed``, a ``study`` step that is not
      positive and finite, is repeated or is not a whole multiple of the
      reference step, the smallest step / 4);
* 3 — a structural hypothesis failed (contraction budget exceeded, the
      smallness condition rejected the problem);
* 4 — output I/O failed.

Every command reports these errors through one table, ``_REPORTED``, as a
single stderr line that starts with the table's prefix.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import BuiltRun, RunConfig, build_run, parse_config
from .continuation import Trajectory, check_initial_history, continue_solution
from .errors import (
    DomainViolation,
    HypothesisViolation,
    InsufficientSamples,
    InvalidInitialData,
    NumericalBlowup,
    OracleUnavailable,
    SchemaError,
)
from .history import _require_divides, segment_at  # noqa: F401 -- perfbench traces cli.segment_at
from .oracle import dense_reference_solve
from .problem import estimate_lipschitz_mg, spatial_smallness_check
from .scenarios import get_scenario, scenario_description, scenario_names


class _ConfigError(Exception):
    """The run cannot start from its configuration: a missing file or
    scenario, or a term that gives non-finite values on admissible data."""


#: (error type, message, exit code) per error a command reports as one
#: stderr line instead of raising; the first matching row wins, so
#: subclasses come first
_REPORTED = (
    (_ConfigError, "config error: {}", 2),
    (SchemaError, "schema error: {}", 2),
    (InsufficientSamples, "config error: {}", 2),
    (HypothesisViolation, "hypothesis failure: {}", 3),
    (OracleUnavailable, "reference unavailable: {}", 2),
    (InvalidInitialData, "invalid initial data: {}", 2),
    (DomainViolation, "domain violation during solve: {}; the declared y_max leaves no room "
     "for the run; for trajectories that exit through a band edge, give the term "
     "headroom beyond l", 2),
)


def _load_config(args) -> RunConfig:
    """Parsed config of ``--scenario`` or ``--config``."""
    try:
        if getattr(args, "scenario", None):
            text = get_scenario(args.scenario)
        else:
            text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, KeyError) as exc:
        raise _ConfigError(exc) from exc
    return parse_config(text)


def _check_hypotheses(built: BuiltRun, seed: int, verbose: bool = True) -> None:
    """Run the admission checks; raises HypothesisViolation when one fails."""
    prob = built.problem
    try:
        estimate = estimate_lipschitz_mg(prob, n_samples=150, seed=seed)
    except NumericalBlowup as exc:
        raise _ConfigError(f"{exc} on a sampled admissible history") from exc
    if verbose:
        print(f"contraction estimate: {estimate:.6g} (declared budget {prob.mg_bound:.6g})")
    if estimate >= 1.0:
        raise HypothesisViolation("sampled contraction constant is not < 1")
    if estimate > prob.mg_bound + 0.01:
        raise HypothesisViolation(
            f"sampled constant {estimate:.6g} exceeds the declared budget {prob.mg_bound:.6g}"
        )
    smallness = spatial_smallness_check(prob)
    if smallness is not None:
        if verbose:
            print(f"neutral smallness value: {smallness.value:.6g} (must be < 1)")
        if not smallness.ok:
            raise HypothesisViolation(f"smallness value {smallness.value:.6g} >= 1")


#: Rows per formatted block: one % per block is as fast as one over the whole
#: table, and the block's floats and text stay small beside the path.
_CSV_BLOCK_ROWS = 1024


def export_csv(traj: Trajectory, path: Path, n_coeffs: int) -> None:
    """Write the trajectory as CSV: t, norm, domain functional, coefficients.

    The functional column holds ``traj.functionals``, the values the exit
    scan decided each point on (t >= t0), and nan before t0.  Two trailing
    comment lines record the event kind and the exit time; floats carry 17
    significant digits so a reread reproduces them exactly.
    """
    n_modes = traj.path.values.shape[1]
    if n_coeffs > n_modes:
        print(f"warning: n_coeffs clipped from {n_coeffs} to {n_modes}", file=sys.stderr)
        n_coeffs = n_modes
    header = ",".join(["t", "norm", "functional"] + [f"c{k + 1}" for k in range(n_coeffs)])
    times = traj.path.times()
    functionals = np.full(times.size, math.nan)
    functionals[times.size - traj.functionals.size :] = traj.functionals
    table = np.column_stack([times, traj.path.norms, functionals, traj.path.values[:, :n_coeffs]])
    footer = f"# event={traj.event.label()}\n# tau={traj.tau:.17g}"
    # the bytes of np.savetxt(fmt="%.17g", delimiter=","), formatted with one
    # % per block of rows instead of one per row
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))
        fh.write(footer + "\n")


def _summarize(traj: Trajectory) -> None:
    residuals = [w.residual for w in traj.windows if w.converged]
    print(f"event: {traj.event.label()}")
    print(f"tau: {traj.tau:.12g}")
    print(f"windows: {len(traj.windows)}")
    if residuals:
        print(f"max residual: {max(residuals):.3e}")
    if traj.event.kind == "boundary_hit":
        print(f"refinement width: {traj.event.refinement_width:.3e}")


def cmd_run(args) -> int:
    built = build_run(_load_config(args), dt_override=args.dt)
    _check_hypotheses(built, args.seed)
    traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)

    for w in traj.windows:
        print(
            f"  window t0={w.t0:.6g} width={w.window:.6g} iters={w.iterations} "
            f"residual={w.residual:.3e} contraction={w.contraction_estimate:.3f}"
        )
    _summarize(traj)

    if built.csv_path is not None:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            export_csv(traj, out_dir / built.csv_path, built.n_coeffs)
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 4
        print(f"csv: {out_dir / built.csv_path}")
    return 0


def cmd_check(args) -> int:
    built = build_run(_load_config(args), dt_override=args.dt)
    _check_hypotheses(built, args.seed)
    # the initial data ``run`` would refuse
    check_initial_history(built.problem, built.initial_segment, 0.0)
    print("hypothesis checks passed")
    return 0


def cmd_study(args) -> int:
    texts = args.dts.split(",")
    try:
        steps = [float(v) for v in texts]
    except ValueError:
        print(f"bad --dts list: {args.dts!r}", file=sys.stderr)
        return 2
    # checked before sorting, so the step is named as written and no nan is sorted
    bad = [text.strip() for text, dt in zip(texts, steps) if not 0.0 < dt < math.inf]
    if bad:
        print(f"bad --dts list: step {bad[0]!r} is not positive and finite", file=sys.stderr)
        return 2
    dts = sorted(steps, reverse=True)
    if len(dts) < 3:
        print("need at least three dt values for a study", file=sys.stderr)
        return 2
    if len(set(dts)) < len(dts):
        # a repeated step would divide the order column by log(1) = 0
        print(f"bad --dts list: a step is repeated in {args.dts!r}", file=sys.stderr)
        return 2
    fine_dt = dts[-1] / 4.0
    # each run is compared with every (dt / fine_dt)-th reference row
    try:
        for dt in dts:
            _require_divides(fine_dt, dt, "step")
    except ValueError as exc:
        print(f"bad --dts list: {exc}; the reference step is the smallest step / 4",
              file=sys.stderr)
        return 2
    cfg = _load_config(args)

    # history at the finest internal grid so its interpolation error
    # does not floor the extrapolated reference
    built_ref = build_run(cfg, dt_override=fine_dt / 4.0)
    _check_hypotheses(built_ref, args.seed, verbose=False)
    reference = dense_reference_solve(
        built_ref.problem, built_ref.initial_segment, 0.0, fine_dt, levels=3
    )

    errors = []
    for dt in dts:
        built = build_run(cfg, dt_override=dt)
        traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
        if traj.event.kind != "reached_horizon":
            print(
                f"study aborted: run at dt={dt} ended with {traj.event.label()}",
                file=sys.stderr,
            )
            return 2
        stride = int(round(dt / fine_dt))
        ref_vals = reference.values[::stride]
        diff = np.linalg.norm(traj.path.values - ref_vals, axis=1)
        errors.append(float(diff.max()))

    scale = max(1.0, float(np.linalg.norm(reference.values, axis=1).max()))
    print(f"{'dt':>12} {'sup_error':>14} {'order':>8}")
    print(f"{dts[0]:>12.3e} {errors[0]:>14.6e} {'':>8}")
    for i in range(1, len(dts)):
        if errors[i] < 1e-13 * scale or errors[i - 1] < 1e-13 * scale:
            note = "floor"
        else:
            order = math.log(errors[i - 1] / errors[i]) / math.log(dts[i - 1] / dts[i])
            note = "floor" if order < 0.5 else f"{order:.2f}"
        print(f"{dts[i]:>12.3e} {errors[i]:>14.6e} {note:>8}")
    return 0


def cmd_list_scenarios(_args) -> int:
    for name in scenario_names():
        print(f"{name:24s} {scenario_description(name)}")
    return 0


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neutraldde",
        description="windowed mild-solution solver for neutral delay evolution equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_dt=True):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", help="path to a config file")
        src.add_argument("--scenario", help="name of a bundled scenario")
        p.add_argument("--seed", type=_seed, default=0, help="sampling seed for checks")
        if with_dt:
            p.add_argument("--dt", type=float, default=None, help="override the solver grid step")

    p_run = sub.add_parser("run", help="solve and continue to the domain exit")
    add_common(p_run)
    p_run.add_argument("--out", default=".", help="output directory for artifacts")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run only the hypothesis and initial-data checks")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    # a study sets its own steps and writes no file; --dt is no prefix of --dts
    p_study = sub.add_parser("study", allow_abbrev=False,
                             help="convergence table at the --dts steps against a fine reference")
    add_common(p_study, with_dt=False)
    p_study.add_argument("--dts", required=True, help="comma-separated grid steps (>= 3)")
    p_study.set_defaults(func=cmd_study)

    p_list = sub.add_parser("list-scenarios", help="list bundled scenarios")
    p_list.set_defaults(func=cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _, _ in _REPORTED) as exc:
        message, code = next((m, c) for kind, m, c in _REPORTED if isinstance(exc, kind))
        print(message.format(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
