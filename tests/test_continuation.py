import math

import numpy as np
import pytest

from neutraldde import (
    DomainSpec,
    FunctionalAffineTerm,
    InvalidInitialData,
    NeutralProblem,
    Segment,
    SolutionPath,
    SolverConfig,
    SpectralOperator,
    TimeFn,
    TimeForcingTerm,
    ZeroTerm,
    continue_solution,
    current_value_window,
    full_history_window,
    make_dirichlet_laplacian,
    refine_boundary_time,
    segment_at,
    solve_window,
)
from neutraldde.config import build_run, parse_config
from neutraldde.history import extend
from neutraldde.scenarios import get_scenario, scenario_names


def constant_segment(h, vec, dt):
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    n = int(round(h / dt))
    thetas = -h + dt * np.arange(n + 1)
    return Segment(h, thetas, np.tile(vec, (n + 1, 1)))


def growth_problem(u0=0.1, l=1.0, h=1.0, T=3.5, gain=2.0):
    """Single decaying mode driven by twice its own norm: u' = u, u(0) = u0.

    The delay mass u0 e^t (1 - e^-h) hits the band edge l at
    t* = log(l / (u0 (1 - e^-h))).
    """
    op = SpectralOperator([1.0])
    f = FunctionalAffineTerm(0.0, gain, np.array([1.0]), "max",
                             window=current_value_window(), y_max=1e9)
    prob = NeutralProblem(op, h, T, 0.5, ZeroTerm(), f,
                          DomainSpec("delay_mass", l), 0.0)
    t_star = math.log(l / (u0 * (1.0 - math.exp(-h))))
    return prob, t_star


def homogeneous_problem(mu=(1.0, 4.0), h=0.5, T=2.0, domain=None):
    op = SpectralOperator(list(mu))
    return NeutralProblem(
        op, h, T, 0.5, ZeroTerm(),
        TimeForcingTerm([TimeFn("const", (0.0,)) for _ in mu]),
        domain if domain is not None else DomainSpec("time_only"), 0.0,
    )


class TestReachedHorizon:
    def test_decaying_interior_trajectory(self):
        prob = homogeneous_problem(domain=DomainSpec("delay_mass", 10.0))
        dt = 0.01
        seg = constant_segment(0.5, [1.0, 0.5], dt)
        cfg = SolverConfig(dt=dt, window=0.1, tol=1e-12)
        traj = continue_solution(prob, seg, 0.0, cfg)
        assert traj.event.kind == "reached_horizon"
        assert traj.tau == pytest.approx(2.0)
        assert traj.path.t_end == pytest.approx(2.0)
        times = np.maximum(traj.path.times(), 0.0)
        exact = np.exp(-np.outer(times, prob.op.mu)) * np.array([1.0, 0.5])
        assert float(np.abs(traj.path.values - exact).max()) <= 1e-12

    def test_every_window_converged_and_stitches_exactly(self):
        prob = homogeneous_problem(domain=DomainSpec("delay_mass", 10.0))
        dt = 0.01
        seg = constant_segment(0.5, [1.0, 0.5], dt)
        traj = continue_solution(prob, seg, 0.0, SolverConfig(dt=dt, window=0.1, tol=1e-12))
        assert len(traj.windows) >= 10
        assert all(w.converged for w in traj.windows)
        for w in traj.windows:
            i = traj.path.index_of(w.t0)
            np.testing.assert_array_equal(w.values[0], traj.path.values[i])


def test_kept_windows_hold_no_stack():
    # a converged window's stack reads its frame's buffers; the trajectory
    # keeps only the values and statistics
    prob, _ = growth_problem()
    traj = continue_solution(prob, constant_segment(1.0, [0.1], 0.01), 0.0,
                             SolverConfig(dt=0.01, window=0.25, tol=1e-12))
    assert traj.event.kind == "boundary_hit" and len(traj.windows) > 1
    assert all(w.converged and w.stack is None for w in traj.windows)


class TestBoundaryExit:
    def test_growth_hits_upper_mass_at_closed_form_time(self):
        prob, t_star = growth_problem()
        dt = 2e-3
        seg = constant_segment(1.0, [0.1], dt)
        cfg = SolverConfig(dt=dt, window=0.5, tol=1e-10)
        traj = continue_solution(prob, seg, 0.0, cfg)
        assert traj.event.kind == "boundary_hit"
        assert traj.event.detail == "upper_mass"
        assert abs(traj.tau - t_star) <= 2.0 * dt
        assert traj.event.refinement_width <= dt / 128.0

    def test_interior_soundness_before_exit(self):
        prob, _ = growth_problem()
        dt = 2e-3
        seg = constant_segment(1.0, [0.1], dt)
        traj = continue_solution(prob, seg, 0.0, SolverConfig(dt=dt, window=0.5, tol=1e-10))
        times = traj.path.times()
        for t in times[times >= 0.0]:
            if t >= traj.tau:
                continue
            mem = prob.membership(float(t), segment_at(traj.path, float(t), prob.h))
            assert mem.is_inside, f"grid time {t} not interior"

    def test_functional_at_exit_sits_on_the_boundary(self):
        prob, _ = growth_problem()
        dt = 2e-3
        seg = constant_segment(1.0, [0.1], dt)
        traj = continue_solution(prob, seg, 0.0, SolverConfig(dt=dt, window=0.5, tol=1e-10))
        from neutraldde import integral_norm_functional

        F_tau = integral_norm_functional(segment_at(traj.path, traj.tau, prob.h))
        # crossing slope is about l here, so the refined midpoint pins the
        # functional to the band edge within a few bracket widths
        assert abs(F_tau - 1.0) <= 10.0 * traj.event.refinement_width + 1e-9

    def test_halving_dt_moves_tau_by_at_most_two_coarse_steps(self):
        prob, _ = growth_problem()
        taus = []
        for dt in [4e-3, 2e-3]:
            seg = constant_segment(1.0, [0.1], dt)
            traj = continue_solution(prob, seg, 0.0, SolverConfig(dt=dt, window=0.5, tol=1e-10))
            taus.append(traj.tau)
        assert abs(taus[0] - taus[1]) <= 2.0 * 4e-3

    def test_initial_data_outside_rejected(self):
        prob, _ = growth_problem(l=1.0)
        dt = 1e-2
        seg = constant_segment(1.0, [2.0], dt)  # delay mass 2 = 2l
        with pytest.raises(InvalidInitialData):
            continue_solution(prob, seg, 0.0, SolverConfig(dt=dt, window=0.5))

    def test_vanishing_start_rejected(self):
        prob, _ = growth_problem()
        dt = 1e-2
        seg = constant_segment(1.0, [0.0], dt)
        with pytest.raises(InvalidInitialData):
            continue_solution(prob, seg, 0.0, SolverConfig(dt=dt, window=0.5))

    @pytest.mark.parametrize("kind, l", [("delay_mass", 1.0), ("time_only", None)])
    def test_non_finite_initial_history_rejected(self, kind, l):
        # every band comparison with nan is false, so membership alone would
        # classify this history as interior
        prob = homogeneous_problem(domain=DomainSpec(kind, l))
        dt = 1e-2
        seg = constant_segment(0.5, [0.1, 0.1], dt)
        seg.values[0] = math.nan
        with pytest.raises(InvalidInitialData, match="non-finite"):
            continue_solution(prob, seg, 0.0, SolverConfig(dt=dt, window=0.5))


class TestSupBandRun:
    def test_runs_to_horizon_across_many_windows(self):
        op = make_dirichlet_laplacian(3, math.pi)
        g = FunctionalAffineTerm(0.0, 0.05, np.array([1.0, 0.0, 0.0]), "max",
                                 window=full_history_window(1.0), y_max=1.0)
        f = TimeForcingTerm([TimeFn("const", (0.3,)),
                             TimeFn("const", (0.0,)),
                             TimeFn("const", (0.0,))])
        prob = NeutralProblem(op, 1.0, 2.0, 0.5, g, f, DomainSpec("sup_band", 1.0), 0.06)
        dt = 0.01
        seg = constant_segment(1.0, [0.25, 0.0, 0.0], dt)
        traj = continue_solution(prob, seg, 0.0, SolverConfig(dt=dt, window=0.5, tol=1e-11))
        assert traj.event.kind == "reached_horizon"
        assert len(traj.windows) >= 10
        sup = float(np.linalg.norm(traj.path.values, axis=1).max())
        for w in traj.windows:
            i = traj.path.index_of(w.t0)
            jump = float(np.linalg.norm(w.values[0] - traj.path.values[i]))
            assert jump <= 1e-9 * sup

    def test_sup_band_exit_detected(self):
        op = SpectralOperator([1.0])
        f = FunctionalAffineTerm(0.0, 2.0, np.array([1.0]), "max",
                                 window=current_value_window(), y_max=1e9)
        prob = NeutralProblem(op, 1.0, 3.0, 0.5, ZeroTerm(), f,
                              DomainSpec("sup_band", 0.4), 0.0)
        dt = 2e-3
        seg = constant_segment(1.0, [0.1], dt)
        traj = continue_solution(prob, seg, 0.0, SolverConfig(dt=dt, window=0.5, tol=1e-10))
        assert traj.event.kind == "boundary_hit"
        assert traj.event.detail == "sup_band"
        # the norm itself is u0 e^t, so the band edge is at log(l/u0)
        assert abs(traj.tau - math.log(0.4 / 0.1)) <= 2.0 * dt


class TestSolverFailure:
    def test_tiny_trust_region_reports_failure_not_boundary(self):
        prob = homogeneous_problem(domain=DomainSpec("delay_mass", 10.0))
        dt = 0.01
        seg = constant_segment(0.5, [1.0, 0.5], dt)
        cfg = SolverConfig(dt=dt, window=0.1, tol=1e-12, trust_radius=1e-9)
        traj = continue_solution(prob, seg, 0.0, cfg)
        assert traj.event.kind == "solver_failure"
        assert traj.event.detail == "left_trust_region"
        assert traj.tau == pytest.approx(0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind, l", [("time_only", None), ("delay_mass", 1e3)])
    def test_overflow_during_the_solve_reports_numerical_blowup(self, kind, l):
        # an unbounded trust region lets the 1e300 gain overflow the second
        # iterate; the overflow ends the run, and no warning reaches the caller
        f = FunctionalAffineTerm(0.0, 1e300, [1.0], "integral")
        prob = NeutralProblem(SpectralOperator([1.0]), 1.0, 2.0, 0.5, ZeroTerm(), f,
                              DomainSpec(kind, l), 0.0)
        dt = 0.1
        cfg = SolverConfig(dt=dt, window=0.5, trust_radius=math.inf)
        traj = continue_solution(prob, constant_segment(1.0, [1.0], dt), 0.0, cfg)
        assert traj.event.label() == "solver_failure:numerical_blowup"
        assert traj.tau == 0.0


def _overshoot_case():
    # g = 1.5 |u(t)|: the undamped iterate overshoots by a factor -1.5 and
    # diverges, the damped one (factor -0.25) converges.  The declared budget
    # is not g's constant; only the retry ladder is under test.
    g = FunctionalAffineTerm(0.0, 1.5, [1.0], "max", window=current_value_window(), y_max=1e9)
    f = FunctionalAffineTerm(0.0, 2.0, [1.0], "max", window=current_value_window(), y_max=1e9)
    prob = NeutralProblem(SpectralOperator([1.0]), 1.0, 2.0, 0.5, g, f,
                          DomainSpec("time_only"), 0.5)
    return prob, constant_segment(1.0, [0.1], 0.01), SolverConfig(dt=0.01, window=0.5, tol=1e-12)


def _drift_case():
    # a 6-cell window drifts past the trust radius, a 3-cell one stays inside
    prob = homogeneous_problem(mu=(1.0,), T=1.0)
    cfg = SolverConfig(dt=0.01, window=0.12, tol=1e-12, trust_radius=0.03)
    return prob, constant_segment(0.5, [1.0], 0.01), cfg


def _tiny_trust_case():
    prob = homogeneous_problem(domain=DomainSpec("delay_mass", 10.0))
    cfg = SolverConfig(dt=0.01, window=0.1, tol=1e-12, trust_radius=1e-9)
    return prob, constant_segment(0.5, [1.0, 0.5], 0.01), cfg


def _overflow_case():
    f = FunctionalAffineTerm(0.0, 1e300, [1.0], "integral")
    prob = NeutralProblem(SpectralOperator([1.0]), 1.0, 2.0, 0.5, ZeroTerm(), f,
                          DomainSpec("time_only"), 0.0)
    cfg = SolverConfig(dt=0.1, window=0.5, trust_radius=math.inf)
    return prob, constant_segment(1.0, [1.0], 0.1), cfg


def _undamped_diverged_then_damped_converged(traj, attempts):
    return ((1.0, "diverged") in {(d, s) for d, _, s in attempts}
            and (0.5, "converged") in {(d, s) for d, _, s in attempts} and len(traj.windows) > 1)


def _halved_after_failing(traj, attempts):
    first_m = attempts[0][1]
    return (any(s == "left_trust_region" and m == first_m for _, m, s in attempts)
            and any(s == "converged" and m < first_m for _, m, s in attempts)
            and len(traj.windows) > 1)


class TestRunBuffer:
    """No window attempt changes a row or norm of a path the run committed."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case, failed", [
        (_overshoot_case, _undamped_diverged_then_damped_converged),
        (_drift_case, _halved_after_failing),
        (_tiny_trust_case,
         lambda traj, _: traj.event.label() == "solver_failure:left_trust_region"),
        (_overflow_case,
         lambda traj, _: traj.event.label() == "solver_failure:numerical_blowup"),
    ], ids=["damping_retry", "halving", "left_trust_region", "numerical_blowup"])
    def test_failed_attempts_leave_committed_rows(self, monkeypatch, case, failed):
        import neutraldde.continuation as continuation

        committed, attempts = [], []

        def commit(path):
            committed.append((path, path.values.tobytes(), path.norms.tobytes()))
            return path

        def check_committed():
            for path, values, norms in committed:
                assert path.values.tobytes() == values and path.norms.tobytes() == norms

        def watched_solve(prob, path, t0, cfg, damping, run, m):
            status = "numerical_blowup"
            try:
                result = solve_window(prob, path, t0, cfg, damping, run, m)
                status = result.status
                return result
            finally:
                attempts.append((damping, m, status))
                check_committed()

        monkeypatch.setattr(continuation, "SolutionPath", lambda *args: commit(SolutionPath(*args)))
        monkeypatch.setattr(continuation, "extend", lambda *args: commit(extend(*args)))
        monkeypatch.setattr(continuation, "solve_window", watched_solve)
        prob, seg, cfg = case()
        traj = continue_solution(prob, seg, 0.0, cfg)
        assert failed(traj, attempts)
        assert len(committed) == len(traj.windows) + 1
        check_committed()
        last = committed[-1][0]
        assert traj.path.values.tobytes() == last.values.tobytes()
        assert traj.path.norms.tobytes() == np.linalg.norm(last.values, axis=1).tobytes()


@pytest.mark.parametrize("name", scenario_names())
def test_path_norm_column_is_the_row_norms(name):
    # the column is filled from each window's converged stack, bit for bit
    # what the plain norm of the finished path gives
    built = build_run(parse_config(get_scenario(name)))
    traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
    assert len(traj.windows) > 1
    assert traj.path.norms.tobytes() == np.linalg.norm(traj.path.values, axis=1).tobytes()


class TestRefineBoundaryTime:
    def linear_mass_path(self, dt=0.1, h=0.5):
        # u(t) = t on the grid for t >= h: delay mass h t - h^2/2 is linear
        times = dt * np.arange(51)  # [0, 5]
        return SolutionPath(0.0, dt, times[:, None])

    def make_prob(self, l, h=0.5, T=5.0):
        op = SpectralOperator([1.0])
        return NeutralProblem(op, h, T, 0.5, ZeroTerm(),
                              TimeForcingTerm([TimeFn("const", (0.0,))]),
                              DomainSpec("delay_mass", l), 0.0)

    def test_linear_crossing_found_to_tolerance(self):
        h, dt = 0.5, 0.1
        path = self.linear_mass_path(dt, h)
        t_c = 1.03  # crossing time to hide mid-cell
        l = h * t_c - h**2 / 2.0
        prob = self.make_prob(l, h)
        got = refine_boundary_time(prob, path, 1.0, 1.1, tol_t=1e-6)
        assert got == pytest.approx(t_c, abs=1e-5)

    def test_result_stays_in_bracket(self):
        h, dt = 0.5, 0.1
        path = self.linear_mass_path(dt, h)
        prob = self.make_prob(h * 1.03 - h**2 / 2.0, h)
        got = refine_boundary_time(prob, path, 1.0, 1.1, tol_t=1e-3)
        assert 1.0 <= got <= 1.1

    def test_tight_bracket_returns_midpoint_immediately(self):
        h, dt = 0.5, 0.1
        path = self.linear_mass_path(dt, h)
        t_c = 1.03
        prob = self.make_prob(h * t_c - h**2 / 2.0, h)
        a, b = t_c - 6e-9, t_c + 6e-9  # already narrower than tol_t
        got = refine_boundary_time(prob, path, a, b, tol_t=1e-6)
        assert got == pytest.approx(0.5 * (a + b), abs=1e-12)

    def test_bracket_with_both_endpoints_interior_rejected(self):
        h, dt = 0.5, 0.1
        path = self.linear_mass_path(dt, h)
        prob = self.make_prob(10.0, h)  # band so wide nothing exits
        with pytest.raises(ValueError):
            refine_boundary_time(prob, path, 1.0, 1.1, tol_t=1e-6)

    def test_nan_tolerance_rejected(self):
        # a nan tol_t would skip the bisection and return the unrefined midpoint
        h, dt = 0.5, 0.1
        path = self.linear_mass_path(dt, h)
        prob = self.make_prob(h * 1.03 - h**2 / 2.0, h)
        with pytest.raises(ValueError, match="tol_t must be positive"):
            refine_boundary_time(prob, path, 1.0, 1.1, tol_t=math.nan)

    def test_reversed_bracket_rejected(self):
        h, dt = 0.5, 0.1
        path = self.linear_mass_path(dt, h)
        prob = self.make_prob(h * 1.03 - h**2 / 2.0, h)
        with pytest.raises(ValueError):
            refine_boundary_time(prob, path, 1.1, 1.0, tol_t=1e-6)


# Total fixed-point iterates of each bundled scenario, bounded between the
# counts with the history-extrapolated window start (91, 68, 53, 68, 60) and
# with the flat phi(0) start (192, 135, 85, 68, 60).  heat_decay and
# manufactured_decay do not read their own window, so every window takes two.
@pytest.mark.parametrize("name, bound", [("mass_growth", 100), ("parabolic_max", 80),
                                         ("parabolic_delay_mass", 60), ("heat_decay", 68),
                                         ("manufactured_decay", 60)])
def test_bundled_scenario_iterates_stay_bounded(name, bound):
    built = build_run(parse_config(get_scenario(name)))
    traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
    assert sum(w.iterations for w in traj.windows) <= bound
