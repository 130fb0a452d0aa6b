"""Benchmark of the neutraldde solver: one seeded workload per run.

    python3 perfbench/run.py --workload exit_fine --seed 1 --seconds 60 --trace 0

The workload's config is generated from the seed (workloads.py) and is all
the library receives.  With ``--trace 0`` the run measures, with tracing
off, what a user waits for:

* ``setup_s``: ``parse_config`` + ``build_run`` of the generated config;
* ``solve_s``: one library ``continue_solution`` call on the built inputs;
* ``run_s``: ``neutraldde run --config <cfg> --out <dir>`` through
  ``neutraldde.cli.main`` in this process, stdout captured: admission
  checks, solve and CSV export, minus interpreter start;
* ``peak_rss_mb``: the process's peak resident memory.

With ``--trace 1`` it alternates untraced and traced CLI runs.  The traced
ones record spans at each layer boundary (spans.py) and give the per-layer
metrics; their difference from the untraced ones is the tracing overhead.

Timings are medians over the run's operations, each scaled by the host's
speed as a fixed calibration kernel measures it around the operation
(calibration.py); the raw medians are printed too.  Every operation is
checked: each solve and the first CLI run's CSV against the workload's
closed-form reference, every later CSV for the same bytes as the first.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import bootstrap

WORKLOADS = ("exit_fine", "modes_wide", "horizon_long")
#: parse_config + build_run repetitions per loop iteration; set-up takes
#: 0.5-9 ms, so a run collects hundreds of samples.
SETUP_REPS = 40
OUT_DIR = bootstrap.ROOT / ".perfbench_out"


def _median_and_tail(samples: list[float]) -> str:
    """Median, plus the highest of p90/p99/p99.9 with ten samples beyond it."""
    text = f"median {statistics.median(samples):.6g}"
    for pct in (99.9, 99.0, 90.0):
        if len(samples) * (1.0 - pct / 100.0) >= 10.0:
            cut = statistics.quantiles(samples, n=1000)[round(pct * 10) - 1]
            text += f", p{pct:g} {cut:.6g}"
            break
    return text + f" over {len(samples)} samples"


def _until(seconds: float, step) -> None:
    """Call ``step`` until another call would likely end past ``seconds``; at least once."""
    start = perf_counter()
    while True:
        t0 = perf_counter()
        step()
        now = perf_counter()
        if (now - start) + (now - t0) > seconds:
            return


class Bench:
    """Timed, checked operations on one generated case."""

    def __init__(self, case, work_dir: Path):
        from neutraldde.config import build_run, parse_config

        self.case = case
        self.cfg_path = work_dir / "workload.cfg"
        self.cfg_path.write_text(case.config, encoding="utf-8")
        self.out_dir = work_dir / "out"
        self.csv_path = self.out_dir / build_run(parse_config(case.config)).csv_path
        self.reference_csv: bytes | None = None
        self.attempted = 0
        self.failed = 0

    def _record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed ({what}): {'; '.join(problems)}", file=sys.stderr)

    def setup(self) -> float:
        from neutraldde.config import build_run, parse_config

        t0 = perf_counter()
        build_run(parse_config(self.case.config))
        return perf_counter() - t0

    def solve(self) -> float:
        import workloads
        from neutraldde.config import build_run, parse_config
        from neutraldde.continuation import continue_solution

        built = build_run(parse_config(self.case.config))
        t0 = perf_counter()
        try:
            traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
        except Exception:  # a crashing solve is a failed operation, not the end of the run
            elapsed = perf_counter() - t0
            self._record("solve", [traceback.format_exc()])
            return elapsed
        elapsed = perf_counter() - t0
        self._record("solve", workloads.check(
            self.case, traj.event.label(), traj.tau, traj.path.times(), traj.path.values))
        return elapsed

    def run(self, tracer=None) -> float:
        import workloads
        from neutraldde import cli

        argv = ["run", "--config", str(self.cfg_path), "--out", str(self.out_dir)]
        self.csv_path.unlink(missing_ok=True)
        captured = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(captured), redirect_stderr(captured), \
                    (tracer.span("cli.run") if tracer else nullcontext()):
                code = cli.main(argv)
        except Exception:  # as in solve: count it and carry on
            elapsed = perf_counter() - t0
            self._record("run", [traceback.format_exc()])
            return elapsed
        elapsed = perf_counter() - t0
        if code != 0:
            self._record("run", [f"exit code {code}: {captured.getvalue()[-2000:]}"])
            return elapsed
        data = self.csv_path.read_bytes()
        if self.reference_csv is None:
            label, tau, times, values = workloads.read_csv(data.decode("utf-8"))
            problems = workloads.check(self.case, label, tau, times, values)
            if not problems:
                self.reference_csv = data
        else:
            problems = [] if data == self.reference_csv else ["CSV differs from the first run's"]
        self._record("run", problems)
        return elapsed

    def report_csv(self) -> None:
        if self.reference_csv is not None:
            digest = hashlib.sha256(self.reference_csv).hexdigest()
            print(f"csv: {len(self.reference_csv)} bytes, sha256 {digest} (information only)")


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics, each time scaled to the calibration's reference speed."""
    import calibration

    ops = {
        "setup_s": (bench.setup, SETUP_REPS),
        "solve_s": (bench.solve, 1),
        "run_s": (bench.run, 1),
    }
    raw = {name: [] for name in ops}
    scaled = {name: [] for name in ops}
    kernel_s = [calibration.kernel()]

    def step():
        for name, (op, reps) in ops.items():
            samples = [op() for _ in range(reps)]
            kernel_s.append(calibration.kernel())
            raw[name].extend(samples)
            scaled[name].extend(calibration.scale(samples, kernel_s[-2], kernel_s[-1]))

    _until(seconds, step)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"calibration kernel: {_median_and_tail(kernel_s)} "
          f"(reference {calibration.REFERENCE_S} s)")
    for name in ops:
        print(f"{name}: scaled {_median_and_tail(scaled[name])}; "
              f"raw median {statistics.median(raw[name]):.6g}")
    print(f"peak_rss_mb: {peak_mb:.6g}")
    metrics = {name: (statistics.median(samples), "s") for name, samples in scaled.items()}
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    return metrics


# ---------------------------------------------------------------------------
# traced run


def _targets():
    """(owner, attribute, span name, observe) for every layer boundary."""
    from neutraldde import cli, continuation, problem, solver

    def windows(tracer, traj):
        tracer.counters["continuation.windows"] += len(traj.windows)

    def attempt(tracer, result):
        tracer.counters["solver.converged"] += int(result.converged)
        tracer.counters["solver.iterations"] += result.iterations

    nprob = problem.NeutralProblem
    return [
        (cli, "parse_config", "config.parse", None),
        (cli, "build_run", "config.build", None),
        (cli, "estimate_lipschitz_mg", "problem.admission", None),
        (cli, "spatial_smallness_check", "problem.admission", None),
        (cli, "continue_solution", "continuation.continue_solution", windows),
        (cli, "export_csv", "cli.export", None),
        (cli, "segment_at", "history.segment_at", None),
        (continuation, "segment_at", "history.segment_at", None),
        (continuation, "extend", "history.extend", None),
        (continuation, "solve_window", "solver.solve_window", attempt),
        (solver, "evaluate_window_operator", "solver.operator", None),
        (problem, "integral_norm_functional", "history.functional", None),
        (problem, "max_norm_functional", "history.functional", None),
        (problem, "sup_norm", "history.functional", None),
        (nprob, "eval_g", "problem.eval", None),
        (nprob, "eval_f", "problem.eval", None),
        (nprob, "membership", "problem.membership", None),
    ]


def layer_metrics(tracer, export_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced CLI run.

    Which end-to-end metric each should move, and where:

    * config.*: setup_s everywhere, most on modes_wide (SineGrid build);
    * problem.eval_*: solve_s on all three (per-point O(h/dt) on exit_fine,
      many cheap calls on horizon_long, spatial round trip on modes_wide);
    * problem.membership_*: solve_s on exit_fine, ~0 on horizon_long;
    * problem.admission_s: run_s on modes_wide;
    * history.functional_*, solver.window_attempts / accept ratio /
      iterations: solve_s on exit_fine;
    * history.segment_at_*: solve_s on exit_fine, run_s on horizon_long;
    * history.extend_s, continuation.*: solve_s on horizon_long;
    * solver.operator_*: solve_s on modes_wide (its self time is the
      decay table and the convolutions); solver.window_self_s is drift
      checks and residuals;
    * cli.export_*: run_s on horizon_long; cli.run_self_s: run_s everywhere.

    problem.eval_*, problem.membership_* and history.functional_* count only
    calls inside ``continue_solution``: admission and export call the same
    functions, and those calls belong to problem.admission_s and cli.export_s.
    """
    from spans import LayerStat

    stats = tracer.layer_stats()
    in_solve = tracer.layer_stats(under="continuation.continue_solution")

    def get(name, source=stats):
        return source.get(name, LayerStat())

    attempts = get("solver.solve_window").calls
    converged = tracer.counters["solver.converged"]
    return {
        "config.parse_s": (get("config.parse").total_s, "s"),
        "config.build_s": (get("config.build").total_s, "s"),
        "problem.eval_calls": (get("problem.eval", in_solve).calls, "count"),
        "problem.eval_s": (get("problem.eval", in_solve).total_s, "s"),
        "problem.membership_calls": (get("problem.membership", in_solve).calls, "count"),
        "problem.membership_s": (get("problem.membership", in_solve).total_s, "s"),
        "problem.admission_s": (get("problem.admission").total_s, "s"),
        "history.functional_calls": (get("history.functional", in_solve).calls, "count"),
        "history.functional_s": (get("history.functional", in_solve).total_s, "s"),
        "history.segment_at_calls": (get("history.segment_at").calls, "count"),
        "history.segment_at_s": (get("history.segment_at").total_s, "s"),
        "history.extend_s": (get("history.extend").total_s, "s"),
        "solver.window_attempts": (attempts, "count"),
        "solver.window_accept_ratio": (converged / attempts if attempts else 0.0, "ratio"),
        "solver.iterations": (tracer.counters["solver.iterations"], "count"),
        "solver.operator_calls": (get("solver.operator").calls, "count"),
        "solver.operator_s": (get("solver.operator").total_s, "s"),
        "solver.operator_self_s": (get("solver.operator").self_s, "s"),
        "solver.window_self_s": (get("solver.solve_window").self_s, "s"),
        "continuation.windows": (tracer.counters["continuation.windows"], "count"),
        "continuation.self_s": (get("continuation.continue_solution").self_s, "s"),
        "cli.export_s": (get("cli.export").total_s, "s"),
        "cli.export_bytes": (export_bytes, "B"),
        "cli.run_self_s": (get("cli.run").self_s, "s"),
    }


def _print_layer_table(tracer, run_s: float) -> None:
    print(f"{'layer':32s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'self/run':>9s}")
    for name, stat in sorted(tracer.layer_stats().items(), key=lambda kv: -kv[1].self_s):
        print(f"{name:32s} {stat.calls:9d} {stat.total_s:10.4f} {stat.self_s:10.4f} "
              f"{stat.self_s / run_s:9.1%}")


def measure_traced(bench: Bench, seconds: float) -> dict:
    import spans

    tracer = spans.Tracer()
    untraced, traced, per_op = [], [], []

    def step():
        untraced.append(bench.run())
        tracer.reset()
        with tracer.installed(_targets()):
            traced.append(bench.run(tracer))
        per_op.append(layer_metrics(tracer, bench.csv_path.stat().st_size))

    _until(seconds, step)

    spans_path = OUT_DIR / f"spans-{bench.case.workload}.csv"
    tracer.write(spans_path)
    metrics = {name: (statistics.median(op[name][0] for op in per_op), unit)
               for name, (_, unit) in per_op[0].items()}
    run_traced = statistics.median(traced)
    run_untraced = statistics.median(untraced)
    metrics["trace.run_s"] = (run_traced, "s")
    metrics["trace.overhead_s"] = (run_traced - run_untraced, "s")

    print(f"layers of the last traced run ({len(tracer.names)} spans, written to {spans_path}):")
    _print_layer_table(tracer, traced[-1])
    accept = metrics["solver.window_accept_ratio"][0]
    iters = metrics["solver.iterations"][0]
    attempts = metrics["solver.window_attempts"][0]
    print(f"window accept ratio {accept:.4g} of {attempts:g} attempts; "
          f"{iters / attempts if attempts else 0.0:.4g} iterations per attempt")
    print(f"run_s untraced {_median_and_tail(untraced)}; traced {_median_and_tail(traced)}; "
          f"tracing overhead {run_traced - run_untraced:.4g} s "
          f"({(run_traced - run_untraced) / run_untraced:.1%})")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap.prepare()
    if not bootstrap.library_is_local():
        print(f"cannot import neutraldde from {bootstrap.SRC}", file=sys.stderr)
        return 2
    import workloads

    case = workloads.GENERATORS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        bench = Bench(case, work_dir)
        metrics = (measure_traced if args.trace else measure)(bench, args.seconds)
        bench.report_csv()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {bench.attempted} operations, {bench.failed} failed")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
