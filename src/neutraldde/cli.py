"""Command-line entry point: scenario runs, hypothesis checks, convergence studies.

Exit codes form a contract for scripted studies:

* 0 — a mathematically meaningful terminus was reached (including a
      solver-failure event, which is a reported outcome, not a crash);
* 2 — configuration or argument problems (schema violations, bad grids,
      inadmissible initial data);
* 3 — a structural hypothesis failed (contraction budget exceeded, the
      smallness condition rejected the problem);
* 4 — output I/O failed.

``study`` also exits 2, with a one-line message, when its fine reference
cannot be trusted (``OracleUnavailable``) or a solve meets inadmissible
initial data or a term argument outside its declared range
(``DomainViolation``).  Non-finite term values met by the admission checks
(``NumericalBlowup``) exit 2 in every command.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import BuiltRun, build_run, parse_config
from .continuation import Trajectory, continue_solution
from .errors import (
    DomainViolation,
    HypothesisViolation,
    InvalidInitialData,
    NumericalBlowup,
    OracleUnavailable,
    SchemaError,
)
from .history import SegmentStack, segment_at  # noqa: F401 -- perfbench traces cli.segment_at
from .oracle import dense_reference_solve
from .problem import estimate_lipschitz_mg, spatial_smallness_check
from .scenarios import get_scenario, scenario_description, scenario_names


def _load_config_text(args) -> str:
    if getattr(args, "scenario", None):
        return get_scenario(args.scenario)
    path = Path(args.config)
    return path.read_text(encoding="utf-8")


def _check_hypotheses(built: BuiltRun, seed: int, verbose: bool = True) -> int:
    """Run the admission checks; returns 0, or the exit code 2 or 3."""
    prob = built.problem
    try:
        estimate = estimate_lipschitz_mg(prob, n_samples=150, seed=seed)
    except NumericalBlowup as exc:
        print(f"config error: {exc} on a sampled admissible history", file=sys.stderr)
        return 2
    if verbose:
        print(f"contraction estimate: {estimate:.6g} (declared budget {prob.mg_bound:.6g})")
    if estimate >= 1.0:
        print("hypothesis failure: sampled contraction constant is not < 1", file=sys.stderr)
        return 3
    if estimate > prob.mg_bound + 0.01:
        print(
            f"hypothesis failure: sampled constant {estimate:.6g} exceeds the "
            f"declared budget {prob.mg_bound:.6g}",
            file=sys.stderr,
        )
        return 3
    smallness = spatial_smallness_check(prob)
    if smallness is not None:
        if verbose:
            print(f"neutral smallness value: {smallness.value:.6g} (must be < 1)")
        if not smallness.ok:
            print(
                f"hypothesis failure: smallness value {smallness.value:.6g} >= 1",
                file=sys.stderr,
            )
            return 3
    return 0


def export_csv(traj: Trajectory, prob, path: Path, n_coeffs: int) -> None:
    """Write the trajectory as CSV: t, norm, domain functional, coefficients.

    The functional column holds the domain's scalar once a full history is
    available (t >= t0) and nan before that.  Two trailing comment lines
    record the event kind and the exit time; floats carry 17 significant
    digits so a reread reproduces them exactly.
    """
    n_modes = traj.path.values.shape[1]
    if n_coeffs > n_modes:
        print(f"warning: n_coeffs clipped from {n_coeffs} to {n_modes}", file=sys.stderr)
        n_coeffs = n_modes
    lines = ["t,norm,functional," + ",".join(f"c{k + 1}" for k in range(n_coeffs))]
    times = traj.path.times()
    stack = SegmentStack(prob.h, traj.path.dt, traj.path.values)
    functionals = np.full(times.size, math.nan)
    functionals[stack.n_h :] = prob.domain_functionals(stack)
    for i, t in enumerate(times):
        cells = [f"{t:.17g}", f"{stack.norms[i]:.17g}", f"{functionals[i]:.17g}"]
        cells += [f"{traj.path.values[i, k]:.17g}" for k in range(n_coeffs)]
        lines.append(",".join(cells))
    lines.append(f"# event={traj.event.label()}")
    lines.append(f"# tau={traj.tau:.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


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
    try:
        text = _load_config_text(args)
        cfg = parse_config(text)
        built = build_run(cfg, dt_override=args.dt)
    except (OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 3

    code = _check_hypotheses(built, args.seed, verbose=built.diagnostics)
    if code != 0:
        return code

    try:
        traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
    except InvalidInitialData as exc:
        print(f"invalid initial data: {exc}", file=sys.stderr)
        return 2
    except DomainViolation as exc:
        print(
            f"domain violation during solve: {exc}\n"
            "the declared y_max leaves no room for the run; for trajectories "
            "that exit through a band edge, give the term headroom beyond l",
            file=sys.stderr,
        )
        return 2

    if built.diagnostics:
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
            export_csv(traj, built.problem, out_dir / built.csv_path, built.n_coeffs)
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 4
        print(f"csv: {out_dir / built.csv_path}")
    return 0


def cmd_check(args) -> int:
    try:
        text = _load_config_text(args)
        cfg = parse_config(text)
        built = build_run(cfg, dt_override=args.dt)
    except (OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 3
    code = _check_hypotheses(built, args.seed)
    if code == 0:
        print("hypothesis checks passed")
    return code


def cmd_study(args) -> int:
    try:
        dts = sorted((float(v) for v in args.dts.split(",")), reverse=True)
    except ValueError:
        print(f"bad --dts list: {args.dts!r}", file=sys.stderr)
        return 2
    if len(dts) < 3:
        print("need at least three dt values for a study", file=sys.stderr)
        return 2
    try:
        text = _load_config_text(args)
        cfg = parse_config(text)
    except (OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2

    fine_dt = dts[-1] / 4.0
    try:
        # history at the finest internal grid so its interpolation error
        # does not floor the extrapolated reference
        built_ref = build_run(cfg, dt_override=fine_dt / 4.0)
    except SchemaError as exc:
        print(f"schema error at reference dt: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 3
    code = _check_hypotheses(built_ref, args.seed, verbose=False)
    if code != 0:
        return code

    try:
        reference = dense_reference_solve(
            built_ref.problem, built_ref.initial_segment, 0.0, fine_dt, levels=3
        )

        errors = []
        for dt in dts:
            try:
                built = build_run(cfg, dt_override=dt)
            except SchemaError as exc:
                print(f"schema error at dt={dt}: {exc}", file=sys.stderr)
                return 2
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
    except OracleUnavailable as exc:
        print(f"reference unavailable: {exc}", file=sys.stderr)
        return 2
    except InvalidInitialData as exc:
        print(f"invalid initial data: {exc}", file=sys.stderr)
        return 2
    except DomainViolation as exc:
        print(f"domain violation during solve: {exc}", file=sys.stderr)
        return 2

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neutraldde",
        description="windowed mild-solution solver for neutral delay evolution equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_out=True):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", help="path to a config file")
        src.add_argument("--scenario", help="name of a bundled scenario")
        p.add_argument("--seed", type=int, default=0, help="sampling seed for checks")
        p.add_argument("--dt", type=float, default=None, help="override the solver grid step")
        if with_out:
            p.add_argument("--out", default=".", help="output directory for artifacts")

    p_run = sub.add_parser("run", help="solve and continue to the domain exit")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run only the hypothesis checks")
    add_common(p_check, with_out=False)
    p_check.set_defaults(func=cmd_check)

    p_study = sub.add_parser("study", help="convergence study against a fine reference")
    add_common(p_study)
    p_study.add_argument("--dts", required=True, help="comma-separated grid steps (>= 3)")
    p_study.set_defaults(func=cmd_study)

    p_list = sub.add_parser("list-scenarios", help="list bundled scenarios")
    p_list.set_defaults(func=cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
