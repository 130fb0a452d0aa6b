"""Answer digest: the results a behaviour-preserving change must leave as they are.

    python tests/answer_digest.py [CHECKOUT] > digest.txt

Imports ``neutraldde`` from ``CHECKOUT/src`` (default: this checkout) and
prints, one line per item:

* each bundled scenario: the sha256 of ``neutraldde run`` stdout without
  its ``csv:`` line, and of the CSV it writes in two parts: its
  ``functional`` column, and everything else (the other columns, the
  header and the event and tau lines);
* the three benchmark workloads at seeds 7 and 11: the event, ``tau.hex()``,
  the refinement width, the sha256 of the path values and of the
  trajectory's functionals, and each window's t0, width, iterations,
  status, residual and contraction; then the sup
  distance of the path to a ``tol = 1e-14`` solve of the same input by the
  same checkout, so two checkouts' accuracy can be compared by hand;
* ``exit_fine`` at seeds 0..39 and dt 0.001 and 0.0005: the event, tau and
  width.

The workloads come from this checkout's ``perfbench/workloads.py``, so two
checkouts are compared on the same inputs; see the README for the diff.
The file name does not match ``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEEDS = (7, 11)
SWEEP_SEEDS = range(40)
SWEEP_DTS = (0.001, 0.0005)
#: Fixed-point tolerance of the reference solve each workload path is measured against.
REFERENCE_TOL = 1e-14


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


def main(argv: list[str]) -> int:
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
    from neutraldde.scenarios import scenario_names

    if not Path(neutraldde.__file__).resolve().is_relative_to(src):
        print(f"cannot import neutraldde from {src}", file=sys.stderr)
        return 2

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
            print(f"scenario {name} exit={code} stdout={_sha(text.encode())} {csv}")

    for workload, generate in workloads.GENERATORS.items():
        for seed in SEEDS:
            config = generate(seed).config
            traj = solve(config)
            path = _sha(traj.path.values.tobytes())
            functionals = _sha(traj.functionals.tobytes())
            print(f"workload {workload} seed={seed} {_event(traj)} path={path} "
                  f"functionals={functionals}")
            for w in traj.windows:
                print(f"  window t0={w.t0!r} width={w.window!r} iters={w.iterations} "
                      f"status={w.status} residual={w.residual!r} "
                      f"contraction={w.contraction_estimate!r}")
            fine = solve(config, REFERENCE_TOL).path.values
            if fine.shape == traj.path.values.shape:
                dist = f"{np.linalg.norm(traj.path.values - fine, axis=1).max():.3e}"
            else:
                dist = f"paths differ in shape {traj.path.values.shape} {fine.shape}"
            print(f"workload {workload} seed={seed} sup distance to tol={REFERENCE_TOL!r}: {dist}")

    for dt in SWEEP_DTS:
        for seed in SWEEP_SEEDS:
            traj = solve(workloads.exit_fine(seed, dt).config)
            print(f"exit_fine dt={dt!r} seed={seed} {_event(traj)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
