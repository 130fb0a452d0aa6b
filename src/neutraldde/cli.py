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
        print(f"analytic bound: {prob.g_alpha_lipschitz():.6g}")
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


#: Rows and values per formatted block, at most: the block's cells, text
#: and working arrays stay small beside the path, and one buffer of one
#: block's cells serves every block.
_CSV_BLOCK_ROWS = 1024
_CSV_BLOCK_VALUES = 4096
#: Bytes per formatted cell: the sign (0), a "0.000" prefix (1-5), the first
#: digit (6), the point after it (7), 16 more digits (8-23), an "e-280"
#: exponent (24-28) and the separator (31).  Bytes a value does not use are
#: NUL and are deleted from the written text.
_CELL = 32
#: Decimal exponents the digit tables cover: every double with
#: 1e-280 < |x| < 1e280, one step of correction and the carry included.
_E_MIN, _E_MAX = -282, 282
#: Values whose scaled fraction is this close to 1/2, the exact ties among
#: them, are printed by ``%``; the computed fraction is off by under 1e-14.
_TIE_MARGIN = 1e-6
#: Dekker's splitting constant for doubles, 2**27 + 1.
_SPLIT = 134217729.0


def _csv_tables():
    """The formatter's module tables, about 150 KB in all, built from bytes
    and Python numbers."""
    # each 4-digit group as the uint32 of its ASCII bytes (two 2-digit
    # halves side by side), and its trailing zeros (4 for 0)
    pairs = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint16)
    halves = np.empty((100, 100, 2), np.uint16)
    halves[:, :, 0] = pairs[:, None]
    halves[:, :, 1] = pairs
    groups = halves.view(np.uint32).ravel()
    zeros = np.frombuffer(bytes(4 if k == 0 else (k % 10 == 0) + (k % 100 == 0) + (k % 1000 == 0)
                                for k in range(10000)), np.uint8).astype(np.int64)
    # per decimal exponent X: the digits after the first that stand before
    # the point (X in fixed notation with X > 0, else 0; -1 below 1), the
    # first cell word (prefix and point; the sign byte NUL) and the last
    # (the exponent)
    exps = range(_E_MIN, _E_MAX + 1)
    point = np.array([x if 0 <= x < 17 else -1 if -4 <= x < 0 else 0 for x in exps])
    first = b"".join(b"\0" + b"0.000"[: 1 - x].ljust(7, b"\0") if -4 <= x < 0
                     else b"\0" * 7 + b"." for x in exps)
    last = b"".join((b"" if -4 <= x < 17 else b"e%+03d" % x).ljust(8, b"\0") for x in exps)
    # keep[:, c] keeps the first 7 + c of the cell's 24 bytes before the exponent
    keep = b"".join(b"\xff" * (7 + c) + b"\0" * (17 - c) for c in range(18))
    # 10**(16 - e) as hi + lo, each the double nearest what is left, and hi
    # split into two 26-bit halves for the Dekker product
    hi, lo = [], []
    for e in exps:
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi.append(num / den)
        m, d = hi[-1].as_integer_ratio()
        lo.append((num * d - m * den) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    c = hi * _SPLIT
    hi_h = c - (c - hi)
    literal = b"".join(s.ljust(8, b"\0") for s in (b"nan", b"inf", b"0", b"nan", b"-inf", b"-0"))
    first, last, keep, literal = (np.frombuffer(b, np.int64) for b in (first, last, keep, literal))
    return (groups, zeros, point, first, last, keep.reshape(18, 3).T.copy(), literal, hi, hi_h,
            hi - hi_h, lo)


(_GROUPS, _ZEROS, _POINT, _FIRST, _LAST, _KEEP, _LITERAL, _TEN_HI, _TEN_HI_H, _TEN_HI_L,
 _TEN_LO) = _csv_tables()


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest integers ``n`` to ``a * 10**(16 - e)`` and the rest, in [-1/2, 1/2].

    The product with the double-double (hi, lo) of the power is exact in
    its hi part (Dekker's two-product: p + err = a * hi) and rounds in
    a * lo and one sum, so below 10**18 the rest is off by under 1e-14.
    ``n`` is exact where the product is at least 2**53, for ``p`` is an
    integer there; smaller products only show that e was one too large.
    """
    i = e - _E_MIN
    p = a * _TEN_HI.take(i)
    # Veltkamp's split of a into two 26-bit halves
    a_h = a * _SPLIT
    a_h -= a_h - a
    a_l = a - a_h
    hi_h, hi_l = _TEN_HI_H.take(i), _TEN_HI_L.take(i)
    rest = a_h * hi_h
    rest -= p
    rest += a_h * hi_l
    rest += a_l * hi_h
    rest += a_l * hi_l
    rest += a * _TEN_LO.take(i)
    whole = np.rint(rest)
    rest -= whole
    n = p.astype(np.int64)
    n += whole.astype(np.int64)
    return n, rest


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, e, ok): |x| rounded to 17 significant digits is n * 10**(e - 16),
    10**16 <= n < 10**17, where ``ok``.

    e is floor(log10|x|), moved by one where n falls outside [10**16,
    10**17), and then by the carry of ...9.5 up to 10**17.  Not ok are nan,
    +-inf, +-0, |x| outside (1e-280, 1e280), which stand in as 1, and
    values within ``_TIE_MARGIN`` of a tie, the exact ties among them.
    """
    a = np.abs(x)
    fast = (a > 1e-280) & (a < 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    n, rest = _scaled(a, e)
    # the logarithm rounds across an integer next to powers of ten
    below = (n < 10**16) | ((n == 10**16) & (rest < 0.0))
    above = (n > 10**17) | ((n == 10**17) & (rest >= 0.0))
    off = np.flatnonzero(below | above)
    if off.size:
        e[off] += np.where(above[off], 1, -1)
        n[off], rest[off] = _scaled(a[off], e[off])
    carry = n == 10**17
    n[carry] = 10**16
    e[carry] += 1
    return n, e, fast & (np.abs(np.abs(rest) - 0.5) >= _TIE_MARGIN)


def _write_digits(x: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Write each value of ``x`` into its row of ``cell`` as ``%.17g`` lays
    out its digits; the mask of the rows this gives the bytes of (see
    ``_decimal``)."""
    n, e, ok = _decimal(x)
    e -= _E_MIN
    words = cell.view(np.int64)
    words[:, 0] = _FIRST.take(e)
    words[:, 3] = _LAST.take(e)
    cell[x < 0.0, 0] = ord("-")
    # the first digit, then four groups of four and their trailing zeros
    lead = n // 10**16
    cell[:, 6] = lead + ord("0")
    n -= lead * 10**16
    groups = cell[:, 8:24].view(np.uint32)
    zeros = None
    for k, scale in enumerate((10**12, 10**8, 10**4, 1)):
        g = n // scale
        n -= g * scale
        groups[:, k] = _GROUPS.take(g)
        zeros = _ZEROS.take(g) if zeros is None else np.where(g == 0, zeros + 4, _ZEROS.take(g))
    kept = 17 - zeros
    # fixed notation of |x| >= 10: the digits before the point move one byte left
    point = _POINT.take(e)
    shift = np.flatnonzero(point > 0)
    if shift.size:
        moved, width = cell[shift], point[shift]
        np.copyto(moved[:, 7:23], moved[:, 8:24], where=np.arange(16) < width[:, None])
        moved[np.arange(shift.size), 7 + width] = ord(".")
        cell[shift] = moved
    # drop trailing zeros, and the point when no digit follows it
    cut = np.where(kept > point + 1, kept, point)
    for k in range(3):
        words[:, k] &= _KEEP[k].take(cut)
    return ok


def _csv_block(block: np.ndarray, cells: np.ndarray) -> bytes:
    """The CSV rows of ``block``: each value as the bytes of ``'%.17g' % x``.

    ``cells`` is a C-contiguous uint8 buffer of at least ``block``'s rows,
    its columns and ``_CELL`` bytes.  The digits come from ``_decimal``;
    nan, +-inf and +-0 are literals, and the values ``_decimal`` leaves
    out are printed by ``%``.
    """
    rows = block.shape[0]
    x = block.ravel()
    cell = cells[:rows].reshape(-1, _CELL)
    words = cell.view(np.int64)
    left = np.flatnonzero(~_write_digits(x, cell))
    if left.size:
        words[left] = 0
        xs = x[left]
        literal = ~np.isfinite(xs) | (xs == 0.0)
        kind = np.isinf(xs) + 2 * (xs == 0.0) + 3 * np.signbit(xs)
        words[left[literal], 0] = _LITERAL.take(kind[literal])
        for k in left[~literal]:
            text = b"%.17g" % x[k]
            cell[k, : len(text)] = np.frombuffer(text, np.uint8)
    seps = cells[:rows, :, _CELL - 1]
    seps[:] = ord(",")
    seps[:, -1] = ord("\n")
    return cell.tobytes().translate(None, b"\0")


def export_csv(traj: Trajectory, path: Path, n_coeffs: int) -> None:
    """Write the trajectory as CSV: t, norm, domain functional, coefficients.

    The functional column holds ``traj.functionals``, the values the exit
    scan decided each point on (t >= t0), and nan before t0.  Two trailing
    comment lines record the event kind and the exit time; floats carry 17
    significant digits so a reread reproduces them exactly.

    Each value is written as the bytes of ``'%.17g' % x``, one block of
    rows at a time (``_csv_block``).  The digits are
    N = round(|x| * 10**(16 - e)) with 10**16 <= N < 10**17, from a Dekker
    product of |x| with 10**(16 - e) held as a pair of doubles; its error
    is below 1e-14 at N < 10**17, so a fraction of N more than
    ``_TIE_MARGIN`` = 1e-6 from 1/2 rounds as the exact product does.  The
    values within that margin, the exact ties among them, and finite |x|
    outside (1e-280, 1e280), where the pair of doubles would leave the
    normal range, are printed by ``%`` itself.
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
    rows = min(_CSV_BLOCK_ROWS, max(1, _CSV_BLOCK_VALUES // table.shape[1]), table.shape[0])
    cells = np.empty((rows, table.shape[1], _CELL), np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for start in range(0, table.shape[0], rows):
            fh.write(_csv_block(table[start : start + rows], cells))
        fh.write(f"{footer}\n".encode())


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
    check_initial_history(built.problem, built.initial_segment, 0.0, built.solver.dt)
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
