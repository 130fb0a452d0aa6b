"""Self-tests of the benchmark: seeded generators, span arithmetic, the gate.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import bootstrap

bootstrap.prepare()

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_repeats_for_a_seed(name):
    gen = workloads.GENERATORS[name]
    assert gen(7) == gen(7)
    assert gen(7).config != gen(8).config


def test_traced_run_spans_nest_and_leave_library_unpatched(tmp_path):
    from neutraldde import cli, continuation

    bench = run.Bench(workloads.modes_wide(3, n_modes=8), tmp_path)
    bench.run()
    tracer = spans.Tracer()
    with tracer.installed(run._targets()):
        bench.run(tracer)
    assert cli.continue_solution is continuation.continue_solution
    assert (bench.attempted, bench.failed) == (2, 0)  # the traced CSV is byte-identical

    for i, parent in enumerate(tracer.parents):
        assert tracer.starts[i] <= tracer.ends[i]
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[i]
            assert tracer.ends[i] <= tracer.ends[parent]
    assert min(tracer.self_times()) >= 0.0
    stats = tracer.layer_stats()
    assert stats["cli.run"].calls == 1
    assert {"config.parse", "problem.eval", "solver.operator", "solver.solve_window",
            "history.functional", "cli.export"} <= set(stats)
    metrics = run.layer_metrics(tracer, 1)
    assert metrics["solver.window_attempts"][0] >= metrics["continuation.windows"][0] > 0
    # admission evaluates g outside the solve; those calls are not solve work
    assert 0 < metrics["problem.eval_calls"][0] < stats["problem.eval"].calls


def test_layer_stats_under_a_span_keep_only_its_descendants():
    tracer = spans.Tracer()
    with tracer.span("run"):
        with tracer.span("leaf"):
            pass
        with tracer.span("solve"):
            with tracer.span("mid"):
                with tracer.span("leaf"):
                    pass
    assert tracer.below("solve") == [False, False, False, True, True]
    assert tracer.layer_stats()["leaf"].calls == 2
    assert set(tracer.layer_stats(under="solve")) == {"mid", "leaf"}
    assert tracer.layer_stats(under="solve")["leaf"].calls == 1


def _exact_exit_fine(case, dt=0.0005):
    ref = case.reference
    tau = math.log(ref["l"] / (ref["a"] * (1.0 - math.exp(-ref["h"]))))
    times = -ref["h"] + dt * np.arange(int((tau + ref["h"]) / dt) + 2)
    values = ref["a"] * np.exp(np.maximum(times, 0.0))[:, None]
    return tau, times, values


def test_gate_rejects_perturbed_exit():
    case = workloads.exit_fine(5)
    tau, times, values = _exact_exit_fine(case)
    assert workloads.check(case, case.event, tau, times, values) == []
    assert workloads.check(case, "reached_horizon", tau, times, values)
    assert workloads.check(case, case.event, tau + 1e-4, times, values)
    assert workloads.check(case, case.event, math.nan, times, values)
    assert workloads.check(case, case.event, tau, times, values * (1.0 + 1e-5))


def test_gate_rejects_perturbed_paths():
    case = workloads.horizon_long(5)
    ref = case.reference
    times = np.linspace(-1.0, ref["T"], 3101)
    values = ref["amp"] * np.exp(ref["rate"] * times)[:, None]
    assert workloads.check(case, case.event, ref["T"], times, values) == []
    values[2000, 0] += 1e-6
    assert workloads.check(case, case.event, ref["T"], times, values)

    case = workloads.modes_wide(5, n_modes=4)
    ref = case.reference
    times = np.linspace(-1.0, ref["T"], 301)
    mu = (np.arange(1, 5) * math.pi / ref["length"]) ** 2
    values = np.asarray(ref["coeffs"]) * np.exp(-np.outer(np.maximum(times, 0.0), mu))
    values[:, 0] = 0.3  # mode 1 carries the delay terms and is not checked
    assert workloads.check(case, case.event, ref["T"], times, values) == []
    values[150, 2] += 1e-9
    assert workloads.check(case, case.event, ref["T"], times, values)
