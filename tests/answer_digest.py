"""Answer digest: the results a behaviour-preserving change must leave as they are.

    python tests/answer_digest.py [CHECKOUT] > digest.txt

Imports ``neutraldde`` from ``CHECKOUT/src`` (default: this checkout) and
prints, one line per item:

* each bundled scenario: the sha256 of ``neutraldde run`` stdout without
  its ``csv:`` line, and of the CSV it writes in two parts: its
  ``functional`` column, and everything else (the other columns, the
  header and the event and tau lines);
* on each scenario and workload line, ``admission=``: the hex of the
  admission estimate ``run`` takes at its default seed 0
  (``estimate_lipschitz_mg(problem, 150, 0)``), or the name of the
  exception it raises, so the sampler's bits are compared, not only the
  6 digits ``run`` prints;
* the three benchmark workloads at seeds 7 and 11, ``modes_wide`` at 1024
  modes, where 1 of 1024 columns is written by the delay terms, and
  ``exit_fine`` at seed 7 and 1/dt = 8000 and 16000, so that iterate
  totals are compared as the step shrinks: the event, ``tau.hex()``, the
  refinement width, the sha256 of the path values, of the trajectory's
  functionals and of the CSV ``export_csv`` writes (``csv=``), and each
  window's t0, width, iterations, status, residual and contraction; then
  the sup distance of the path to a ``tol = 1e-14`` solve of the same
  input by the same checkout, beside the workload's own tol;
* ``exit_fine`` at seeds 0..39 and dt 0.001 and 0.0005: the event, tau and
  width;
* the bundled ``mass_growth`` edited to leave through the other two edges
  the bisection refines, at dt 0.001 and 0.0005: the norm band
  (``domain = sup_band``, ``l = 0.4``) and the vanishing edge (``mu = 50.0``,
  ``f_c1 = 0.0``): the event, tau and width.

The workloads come from this checkout's ``perfbench/workloads.py``, so two
checkouts are compared on the same inputs; see the README for the diff.

    python tests/answer_digest.py --compare PARENT.txt CHANGE.txt

compares two digests line by line, prints each field that differs, and
exits 1 unless every event, ``tau``, width and ``csv`` (and the rest of
each line's identity) is equal, each workload's total iterations are no
higher than the parent's, and each sup distance is within max(2 x the
parent's, 5 x the workload's tol).  The file name does not match ``test_*``, so
pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import io
import math
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEEDS = (7, 11)
#: Mode count of the wide ``modes_wide`` line.
WIDE_MODES = 1024
SWEEP_SEEDS = range(40)
#: Steps of the finer ``exit_fine`` workload lines, at seed 7.
FINE_DTS = (0.000125, 0.0000625)
SWEEP_DTS = (0.001, 0.0005)
#: Fixed-point tolerance of the reference solve each workload path is measured against.
REFERENCE_TOL = 1e-14
#: Keys of the bundled mass_growth replaced so that it exits through each
#: edge but the upper mass, which it and exit_fine reach unedited.
EXITS = {
    "sup_band": {("problem", "domain"): "sup_band", ("problem", "l"): "0.4"},
    "vanishing": {("operator", "mu"): "50.0", ("problem", "f_c1"): "0.0"},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _event(traj) -> str:
    ev = traj.event
    return f"event={ev.label()} tau={traj.tau.hex()} width={ev.refinement_width!r}"


def _csv_digest(text: str) -> str:
    # the functional column is the third field of the header and data rows
    functional, rest = [], []
    for line in text.splitlines():
        fields = line.split(",")
        if not line.startswith("#") and len(fields) >= 3:
            functional.append(fields.pop(2))
        rest.append(",".join(fields))
    column, other = ("\n".join(lines).encode() for lines in (functional, rest))
    return f"functional={_sha(column)} rest={_sha(other)}"


#: Fields that name a line or a run's outcome: any change fails the comparison.
IDENTITY = ("exit", "seed", "dt", "n_modes", "event", "tau", "width", "t0", "status", "tol",
            "reference_tol", "admission", "csv")


def _split(line: str) -> tuple[str, dict[str, str]]:
    # the words of a line, and its key=value fields
    words, fields = [], {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if sep:
            fields[key] = value
        else:
            words.append(token)
    return " ".join(words), fields


def _blocks(text: str) -> list[tuple[str, dict[str, str], list[dict[str, str]]]]:
    # each unindented line with the indented window lines under it
    out = []
    for line in text.splitlines():
        words, fields = _split(line)
        if line.startswith(" ") and out:
            out[-1][2].append(fields)
        else:
            out.append((words, fields, []))
    return out


def compare(parent_text: str, change_text: str) -> int:
    """Print each field that differs between two digests; 1 when a check fails, else 0."""
    failures = []

    def differ(name, key, old, new, fails):
        print(f"{name}: {key} {old} -> {new}" + ("  FAIL" if fails else ""))
        if fails:
            failures.append(f"{name}: {key}")

    parent, change = _blocks(parent_text), _blocks(change_text)
    if len(parent) != len(change):
        differ("digest", "lines", len(parent), len(change), True)
    for (words, old, old_windows), (new_words, new, new_windows) in zip(parent, change):
        name = " ".join([words] + [f"{k}={old[k]}" for k in ("n_modes", "seed", "dt") if k in old])
        if new_words != words or old.keys() != new.keys():
            differ(name, "line", words, new_words, True)
            continue
        for key in old:
            if old[key] != new[key] and key != "sup_distance":
                differ(name, key, old[key], new[key], key in IDENTITY)
        if "sup_distance" in old:
            try:
                before, after = float(old["sup_distance"]), float(new["sup_distance"])
                bound = max(2.0 * before, 5.0 * float(new["tol"]))
            except ValueError:
                before = after = bound = math.nan
            if old["sup_distance"] != new["sup_distance"] or not after <= bound:
                differ(name, "sup_distance", old["sup_distance"],
                       f"{new['sup_distance']} (bound {bound:.3e})", not after <= bound)
        if len(old_windows) != len(new_windows):
            differ(name, "windows", len(old_windows), len(new_windows), True)
            continue
        for i, (a, b) in enumerate(zip(old_windows, new_windows)):
            for key in a:
                if a[key] != b.get(key):
                    differ(f"{name} window {i}", key, a[key], b.get(key), key in IDENTITY)
        if old_windows:
            before, after = (sum(int(w["iters"]) for w in ws) for ws in (old_windows, new_windows))
            if before != after:
                differ(name, "total iters", before, after, after > before)
    print(f"{len(failures)} failed checks" if failures else "every check passed")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print("usage: answer_digest.py --compare PARENT.txt CHANGE.txt", file=sys.stderr)
            return 2
        return compare(Path(argv[1]).read_text(), Path(argv[2]).read_text())
    src = (Path(argv[0]) if argv else HERE).resolve() / "src"
    sys.path.insert(0, str(HERE / "perfbench"))
    import bootstrap  # pins BLAS to one thread before numpy loads

    bootstrap.prepare()
    import numpy as np

    sys.path.insert(0, str(src))
    import neutraldde
    import workloads
    from neutraldde import cli
    from neutraldde.config import build_run, parse_config
    from neutraldde.continuation import continue_solution
    from neutraldde.scenarios import get_scenario, scenario_names

    if not Path(neutraldde.__file__).resolve().is_relative_to(src):
        print(f"cannot import neutraldde from {src}", file=sys.stderr)
        return 2

    def admission(config: str) -> str:
        # the estimate ``neutraldde run`` admits the config with at --seed 0
        try:
            estimate = neutraldde.estimate_lipschitz_mg(build_run(parse_config(config)).problem,
                                                        150, 0)
        except Exception as exc:
            return f"admission={type(exc).__name__}"
        return f"admission={estimate.hex()}"

    def export_sha(config: str, traj) -> str:
        # the bytes ``neutraldde run`` writes for the trajectory
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "run.csv"
            cli.export_csv(traj, path, build_run(parse_config(config)).n_coeffs)
            return f"csv={_sha(path.read_bytes())}"

    def solve(config: str, tol: float | None = None):
        built = build_run(parse_config(config))
        solver = built.solver if tol is None else replace(built.solver, tol=tol)
        return continue_solution(built.problem, built.initial_segment, 0.0, solver)

    with tempfile.TemporaryDirectory() as out:
        for name in scenario_names():
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = cli.main(["run", "--scenario", name, "--out", out])
            lines = stdout.getvalue().splitlines(keepends=True)
            csvs = [line.split(":", 1)[1].strip() for line in lines if line.startswith("csv:")]
            text = "".join(line for line in lines if not line.startswith("csv:"))
            csv = _csv_digest(Path(csvs[0]).read_text()) if csvs else "csv=none"
            print(f"scenario {name} exit={code} stdout={_sha(text.encode())} {csv} "
                  f"{admission(get_scenario(name))}")

    cases = [(workload, seed, generate(seed).config)
             for workload, generate in workloads.GENERATORS.items() for seed in SEEDS]
    cases += [(f"modes_wide n_modes={WIDE_MODES}", seed,
               workloads.modes_wide(seed, n_modes=WIDE_MODES).config) for seed in SEEDS]
    cases += [(f"exit_fine dt={dt!r}", 7, workloads.exit_fine(7, dt).config) for dt in FINE_DTS]
    for workload, seed, config in cases:
        traj = solve(config)
        path = _sha(traj.path.values.tobytes())
        functionals = _sha(traj.functionals.tobytes())
        print(f"workload {workload} seed={seed} {_event(traj)} path={path} "
              f"functionals={functionals} {export_sha(config, traj)} {admission(config)}")
        for w in traj.windows:
            print(f"  window t0={w.t0!r} width={w.window!r} iters={w.iterations} "
                  f"status={w.status} residual={w.residual!r} "
                  f"contraction={w.contraction_estimate!r}")
        fine = solve(config, REFERENCE_TOL).path.values
        if fine.shape == traj.path.values.shape:
            dist = f"{np.linalg.norm(traj.path.values - fine, axis=1).max():.3e}"
        else:
            dist = f"shapes:{traj.path.values.shape}!={fine.shape}".replace(" ", "")
        tol = build_run(parse_config(config)).solver.tol
        print(f"workload {workload} seed={seed} sup_distance={dist} tol={tol!r} "
              f"reference_tol={REFERENCE_TOL!r}")

    for dt in SWEEP_DTS:
        for seed in SWEEP_SEEDS:
            traj = solve(workloads.exit_fine(seed, dt).config)
            print(f"exit_fine dt={dt!r} seed={seed} {_event(traj)}")
    for edge, changes in EXITS.items():
        for dt in SWEEP_DTS:
            traj = solve(workloads._edit("mass_growth", {**changes, ("solver", "dt"): repr(dt)})[0])
            print(f"mass_growth exit={edge} dt={dt!r} {_event(traj)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
