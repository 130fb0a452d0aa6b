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
)


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

    def test_reversed_bracket_rejected(self):
        h, dt = 0.5, 0.1
        path = self.linear_mass_path(dt, h)
        prob = self.make_prob(h * 1.03 - h**2 / 2.0, h)
        with pytest.raises(ValueError):
            refine_boundary_time(prob, path, 1.1, 1.0, tol_t=1e-6)
