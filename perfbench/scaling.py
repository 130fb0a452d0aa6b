"""Scaling diagnostic, not gated: how solve_s grows with grid and modes.

    python3 perfbench/scaling.py --seed 0

Times the library ``continue_solution`` (median of ``REPEATS`` calls,
each checked by the workload's gate) for ``exit_fine`` at dt and dt/2 and
for ``modes_wide`` at 128 and 256 modes, and prints the fitted growth
exponent p of cost ~ (1/dt)^p or n_modes^p.  Linear cost is p = 1.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import tempfile
from pathlib import Path

import bootstrap

#: checked solves per point; the median is reported.
REPEATS = 3


def solve_seconds(case) -> float:
    """Median of ``REPEATS`` checked library solves of ``case``."""
    import run

    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as work_dir:
        bench = run.Bench(case, Path(work_dir))
        seconds = statistics.median(bench.solve() for _ in range(REPEATS))
    if bench.failed:
        raise RuntimeError(f"{case.workload}: {bench.failed} of {REPEATS} solves failed the gate")
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    bootstrap.prepare()
    if not bootstrap.library_is_local():
        print(f"cannot import neutraldde from {bootstrap.SRC}", file=sys.stderr)
        return 2
    import workloads

    sweeps = [
        ("exit_fine", "1/dt", [(2000.0, workloads.exit_fine(args.seed, dt=0.0005)),
                               (4000.0, workloads.exit_fine(args.seed, dt=0.00025))]),
        ("modes_wide", "n_modes", [(128.0, workloads.modes_wide(args.seed, n_modes=128)),
                                   (256.0, workloads.modes_wide(args.seed, n_modes=256))]),
    ]
    for name, axis, points in sweeps:
        (x1, case1), (x2, case2) = points
        t1 = solve_seconds(case1)
        t2 = solve_seconds(case2)
        p = math.log(t2 / t1) / math.log(x2 / x1)
        print(f"{name}: solve_s {t1:.4g} s at {axis}={x1:g}, {t2:.4g} s at {axis}={x2:g}; "
              f"growth exponent {p:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
