"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math

import numpy as np
import pytest

from neutraldde import (
    SolverConfig,
    SpectralOperator,
    check_neutral_smallness,
    continue_solution,
    generator_convolution,
    make_manufactured,
    sample_neutral_contraction,
    segment_at,
    semigroup_bound_constant,
    semigroup_convolution,
)
from neutraldde.cli import main
from neutraldde.config import build_run, parse_config
from neutraldde.scenarios import get_scenario


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def parabolic_run():
    built = build_run(parse_config(get_scenario("parabolic_delay_mass")))
    traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
    return built, traj


@pytest.fixture(scope="module")
def growth_runs():
    cfg = parse_config(get_scenario("mass_growth"))
    out = {}
    for dt in (1e-3, 5e-4):
        built = build_run(cfg, dt_override=dt)
        out[dt] = (built, continue_solution(built.problem, built.initial_segment,
                                            0.0, built.solver))
    return out


def test_criterion_1_semigroup_exactness():
    rng = np.random.default_rng(20240801)
    gap = 0.05
    for _ in range(100):
        mu = float(rng.uniform(gap, 1e4))
        # mu*t spread over [0, 300]: decay factors from 1 down to e^-300
        t = float(rng.uniform(0.0, 300.0)) / mu
        x = float(rng.uniform(-10.0, 10.0))
        op = SpectralOperator([mu])
        got = op.semigroup(t, np.array([x]))[0]
        want = math.exp(-mu * t) * x
        assert got == pytest.approx(want, rel=1e-13, abs=1e-290)
        t1 = float(rng.uniform(0.0, 150.0)) / mu
        t2 = float(rng.uniform(0.0, 150.0)) / mu
        lhs = op.semigroup(t1, op.semigroup(t2, np.array([x])))[0]
        rhs = op.semigroup(t1 + t2, np.array([x]))[0]
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-290)
    report(1, "semigroup matches scalar exponentials and the composition law to 1e-13")


def test_criterion_2_power_semigroup_envelope():
    rng = np.random.default_rng(7)
    gap = 0.1
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        for t in (0.01, 0.1, 1.0, 10.0):
            mu_star = max(a / t, gap)
            mu = np.unique(np.concatenate([
                [gap, mu_star],
                np.sort(rng.uniform(gap, gap + 50.0, size=4)),
            ]))
            op = SpectralOperator(mu)
            bound = semigroup_bound_constant(a, t, gap)
            for _ in range(10):
                x = rng.normal(size=op.n_modes)
                lhs = np.linalg.norm(op.fractional_power(a, op.semigroup(t, x)))
                assert lhs <= bound * np.linalg.norm(x) + 1e-12
            # witness concentrated on the extremal mode attains the bound
            witness = np.zeros(op.n_modes)
            witness[int(np.argmin(np.abs(op.mu - mu_star)))] = 1.0
            attained = np.linalg.norm(op.fractional_power(a, op.semigroup(t, witness)))
            assert abs(attained - bound) <= 1e-9
    report(2, "norm envelope bounds all vectors and is attained by the extremal mode")


def test_criterion_3_quadrature_order_and_closed_forms():
    mu, gamma, t = 5.0, 0.3, 1.0
    op = SpectralOperator([mu])
    exact = (math.exp(gamma * t) - math.exp(-mu * t)) / (gamma + mu)
    errors_s, errors_g = [], []
    for dt in (1e-2, 5e-3, 2.5e-3):
        n = int(round(t / dt))
        vals = np.exp(gamma * dt * np.arange(n + 1))[:, None]
        errors_s.append(abs(semigroup_convolution(op, vals, n, dt)[0] - exact))
        errors_g.append(abs(generator_convolution(op, vals, n, dt)[0] - mu * exact))
    for errs in (errors_s, errors_g):
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse / fine <= 4.5
    # constant input: the product rule integrates the kernel exactly
    for mu_c, closed in ((1.0, (1 - math.exp(-1.0)) / 1.0), (2.0, None)):
        op_c = SpectralOperator([mu_c])
        vals = np.ones((1001, 1))
        got_s = semigroup_convolution(op_c, vals, 1000, 1e-3)[0]
        got_g = generator_convolution(op_c, vals, 1000, 1e-3)[0]
        assert abs(got_s - (1 - math.exp(-mu_c)) / mu_c) <= 1e-10
        assert abs(got_g - (1 - math.exp(-mu_c))) <= 1e-10
    report(3, "both convolutions show dt^2 error decay and exact constant-input forms")


def test_criterion_4_fixed_point_matches_manufactured_solution():
    op = SpectralOperator([1.0])
    case = make_manufactured([("exp", 1.0, -0.5)], kappa=0.25, op=op, h=1.0, T=3.0)
    errors = {}
    residuals = {}
    for dt in (4e-3, 2e-3, 1e-3):
        seg = case.initial_segment(dt)
        cfg = SolverConfig(dt=dt, window=0.5, tol=1e-9, max_iter=200)
        traj = continue_solution(case.problem, seg, 0.0, cfg)
        assert traj.event.kind == "reached_horizon"
        exact = case.exact_values(traj.path.times())
        errors[dt] = float(np.abs(traj.path.values - exact).max())
        residuals[dt] = max(w.residual for w in traj.windows)
    order = math.log2(errors[4e-3] / errors[2e-3])
    assert order >= 1.9, f"observed order {order:.2f}"
    assert errors[1e-3] <= 1e-5
    assert residuals[1e-3] <= 1e-8
    report(4, f"sup error {errors[1e-3]:.2e} <= 1e-5 at dt=1e-3, "
              f"residual {residuals[1e-3]:.1e} <= 1e-8, order {order:.2f}")


def test_criterion_5_neutral_contraction_diagnostic(parabolic_run):
    built, traj = parabolic_run
    prob = built.problem
    budget = prob.mg_bound + 0.01
    assert traj.windows, "no windows solved"
    for i, w in enumerate(traj.windows):
        assert w.converged
        init_seg = segment_at(traj.path, w.t0, prob.h)
        ratio = sample_neutral_contraction(
            prob, init_seg.values, w.t0, w.values, built.solver.dt, n_pairs=50, seed=100 + i
        )
        assert ratio <= budget, f"window at t0={w.t0}: ratio {ratio:.4f} > {budget:.4f}"
    report(5, f"pure neutral part stays below {budget:.3f} over 50 pairs in "
              f"each of {len(traj.windows)} windows")


def test_criterion_6_smallness_gate(tmp_path):
    rejected = check_neutral_smallness(1.0, 1.0, 0.5, math.pi)
    assert not rejected.ok
    assert rejected.value == pytest.approx(math.pi / 2.0, rel=1e-12)
    accepted = check_neutral_smallness(1.0, 0.1, 0.5, math.pi)
    assert accepted.ok
    text = (
        get_scenario("parabolic_delay_mass")
        .replace("g_c1 = 0.05", "g_c1 = 0.5")
        .replace("mg_bound = 0.07", "mg_bound = 0.64")
    )
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    report(6, "smallness condition rejects 2hLmg^2|Q| >= 1 and the runner exits 3")


def test_criterion_7_boundary_exit_time(growth_runs):
    t_star = math.log(1.0 / (0.1 * (1.0 - math.exp(-1.0))))
    taus = {}
    for dt, (built, traj) in growth_runs.items():
        assert traj.event.kind == "boundary_hit"
        assert traj.event.detail == "upper_mass"
        taus[dt] = traj.tau
    assert abs(taus[1e-3] - t_star) <= 2e-3
    assert abs(taus[1e-3] - taus[5e-4]) <= 2e-3
    built, traj = growth_runs[1e-3]
    prob = built.problem
    times = traj.path.times()
    for t in times[(times >= 0.0) & (times < traj.tau)]:
        mem = prob.membership(float(t), segment_at(traj.path, float(t), prob.h))
        assert mem.is_inside, f"grid time {t} not interior"
    report(7, f"exit at tau={taus[1e-3]:.6f} vs closed form {t_star:.6f}; "
              "interior sound, grid-stable under halving")


def test_criterion_8_running_max_scenario():
    built = build_run(parse_config(get_scenario("parabolic_max")))
    traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
    assert traj.event.kind == "reached_horizon"
    assert len(traj.windows) >= 10
    sup = float(np.linalg.norm(traj.path.values, axis=1).max())
    for w in traj.windows:
        i = traj.path.index_of(w.t0)
        jump = float(np.linalg.norm(w.values[0] - traj.path.values[i]))
        assert jump <= 1e-9 * sup
    report(8, f"running-max problem reaches the horizon over {len(traj.windows)} "
              "continuously stitched windows")


def test_criterion_9_deterministic_csv(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main(["run", "--scenario", "parabolic_max", "--out", str(out)]) == 0
        outputs.append((out / "parabolic_max.csv").read_bytes())
    assert outputs[0] == outputs[1]
    report(9, "identical configs produce byte-identical CSV artifacts")
