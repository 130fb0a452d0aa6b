"""Admission sweep: what one admission estimate costs as the mode count grows.

    python tests/admission_sweep.py [CHECKOUT] [--values LOG2 ...] [--repeats N]

Imports ``neutraldde`` from ``CHECKOUT/src`` (default: this checkout) and,
for each mode count K in 1, 8, 64, 256, 1024 and 4096, builds the
``modes_wide`` workload at seed 7 with K modes, in a fresh process each,
and prints one line:

* ``values``: the sampler's batch size ``problem._BATCH_VALUES`` as a power
  of two, or ``-`` for a checkout without one;
* ``batches``: the ``pair_ratios`` calls of one estimate;
* ``admission``: the hex of ``estimate_lipschitz_mg(problem, 150, 0)``, the
  estimate ``run`` takes, or the name of the exception it raises;
* ``ms`` and ``minflt``: the median, over the repeats, of one estimate's
  wall time and of the minor page faults it takes (``ru_minflt``), each
  estimate right after a ``continue_solution`` solve of the same input, as
  ``run`` follows the last run's solve in a long-lived process;
* ``peak_kib``: the ``tracemalloc`` peak of one more estimate after a solve.

``--values 13 15 17`` sets ``_BATCH_VALUES`` to each 2^v in turn (each K
and value in its own process), so a change to the batch size is measured,
not guessed; the estimate must not move with it.  The file name does not
match ``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parents[1]
MODES = (1, 8, 64, 256, 1024, 4096)
N_SAMPLES = 150
SEED = 0


def _outcome(estimate, prob) -> str:
    try:
        return float.hex(estimate(prob, N_SAMPLES, SEED))
    except Exception as exc:
        return type(exc).__name__


def _count_batches(problem, prob) -> int:
    # pair_ratios calls of one estimate; the name differs across checkouts
    owner, name = ((problem._Sampler, "pair_ratios") if hasattr(problem, "_Sampler")
                   else (problem, "_pair_ratios"))
    original, calls = getattr(owner, name), []

    def counted(*args):
        calls.append(None)
        return original(*args)

    setattr(owner, name, counted)
    try:
        _outcome(problem.estimate_lipschitz_mg, prob)
    finally:
        setattr(owner, name, original)
    return len(calls)


def child(n_modes: int, log2_values: int | None, repeats: int) -> str:
    """One sweep line, measured in this process."""
    import workloads
    from neutraldde import problem
    from neutraldde.config import build_run, parse_config
    from neutraldde.continuation import continue_solution

    if log2_values is not None:
        problem._BATCH_VALUES = 1 << log2_values
    values = getattr(problem, "_BATCH_VALUES", None)
    built = build_run(parse_config(workloads.modes_wide(7, n_modes).config))
    prob, estimate = built.problem, problem.estimate_lipschitz_mg

    def solve():
        continue_solution(prob, built.initial_segment, 0.0, built.solver)

    times, faults = [], []
    for _ in range(repeats):
        solve()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = perf_counter()
        admission = _outcome(estimate, prob)
        times.append(perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    solve()
    tracemalloc.start()
    _outcome(estimate, prob)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    shown = "-" if values is None else f"2^{values.bit_length() - 1}"
    return (f"K={n_modes} values={shown} batches={_count_batches(problem, prob)} "
            f"admission={admission} ms={1e3 * statistics.median(times):.2f} "
            f"minflt={statistics.median(faults):g} peak_kib={peak / 1024:.0f}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=HERE)
    parser.add_argument("--values", type=int, nargs="+", default=[None],
                        help="log2 of the batch sizes to sweep (default: the checkout's own)")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--child", type=int, nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.child:
        sys.path.insert(0, str(HERE / "perfbench"))
        sys.path.insert(0, str(args.checkout.resolve() / "src"))
        n_modes, log2_values = args.child
        print(child(n_modes, None if log2_values < 0 else log2_values, args.repeats))
        return 0
    for n_modes in MODES:
        for log2_values in args.values:
            cmd = [sys.executable, __file__, str(args.checkout), "--repeats", str(args.repeats),
                   "--child", str(n_modes), str(-1 if log2_values is None else log2_values)]
            line = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            print(line.strip(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
