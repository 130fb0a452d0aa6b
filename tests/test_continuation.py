import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neutraldde import (
    DomainSpec,
    DomainViolation,
    FunctionalAffineTerm,
    InvalidInitialData,
    NeutralProblem,
    NumericalBlowup,
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
    segment_at,
    solve_window,
)
import neutraldde.continuation as continuation
import neutraldde.history as history
import neutraldde.solver as solver
from neutraldde.config import build_run, parse_config
from neutraldde.history import extend, segment_on_grid
from neutraldde.scenarios import get_scenario, scenario_names

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def constant_segment(h, vec, dt):
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    n = int(round(h / dt))
    thetas = -h + dt * np.arange(n + 1)
    return Segment(h, thetas, np.tile(vec, (n + 1, 1)))


def assert_windows_tile_the_path(traj):
    # each window is solved in the path's rows after its start, so its
    # first row is the path's row there: the windows tile the path, each
    # from the grid point where the last one ended
    starts = [traj.path.index_of(w.t0) for w in traj.windows]
    ends = [i + round(w.window / traj.path.dt) for i, w in zip(starts, traj.windows)]
    assert starts[0] == traj.path.index_of(0.0) and starts[1:] == ends[:-1]
    assert ends[-1] == traj.path.n_times - 1


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
        assert_windows_tile_the_path(traj)

    @pytest.mark.parametrize("h, dt", [(1e-8, 1e-10), (1e-9, 1e-11)])
    def test_a_run_ends_at_T_by_its_cell_count_at_any_time_scale(self, h, dt):
        # h = T = 100 cells: every grid point up to T is kept, whatever the
        # scale, as no absolute time test ends the run or refuses its start
        prob = homogeneous_problem(mu=(1.0,), h=h, T=h)
        traj = continue_solution(prob, constant_segment(h, [1.0], dt), 0.0,
                                 SolverConfig(dt=dt, window=h))
        assert traj.event.kind == "reached_horizon" and traj.tau == h
        assert traj.path.n_times == 201 and traj.functionals.size == 101
        assert traj.path.t_end == pytest.approx(h, rel=1e-12)


def test_kept_windows_hold_no_stack():
    # a converged window's stack reads its frame's buffers; the trajectory
    # keeps only the statistics
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
            mem = prob.membership(segment_at(traj.path, float(t), prob.h))
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
        assert_windows_tile_the_path(traj)

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

    def test_a_crossing_just_before_T_is_bisected_like_any_other(self):
        # u' = -u + 1e5 from u0 = 0.5 rises by about 1e-3 a cell; the band
        # edge is put 0.05 dt before T, so every probe of the last cell
        # lies within 1e-9 of T and is decided by the band alone
        h = T = 1e-6
        dt = 1e-8
        f = TimeForcingTerm([TimeFn("const", (1e5,))])
        l = 1e5 + (0.5 - 1e5) * math.exp(-(T - 0.05 * dt))
        prob = NeutralProblem(SpectralOperator([1.0]), h, T, 0.5, ZeroTerm(), f,
                              DomainSpec("sup_band", l), 0.0)
        traj = continue_solution(prob, constant_segment(h, [0.5], dt), 0.0,
                                 SolverConfig(dt=dt, window=h, tol=1e-14))
        assert traj.event.label() == "boundary_hit:sup_band"
        # the crossing of the path's linear interpolant in its last cell
        (t_a, t_b), (u_a, u_b) = traj.path.times()[-2:], traj.path.values[-2:, 0]
        assert t_b == pytest.approx(T, rel=1e-12)
        crossing = t_a + (l - u_a) / (u_b - u_a) * (t_b - t_a)
        assert abs(traj.tau - crossing) <= traj.event.refinement_width


class TestInitialHistorySpan:
    """The initial history is read on the problem's theta grid -h..0."""

    def run(self, span):
        built = build_run(parse_config(get_scenario("mass_growth")))
        seg = constant_segment(span, [0.1], built.solver.dt)
        return built, continue_solution(built.problem, seg, 0.0, built.solver)

    def test_a_longer_history_runs_on_its_last_delay_span(self):
        built, traj = self.run(2.0)
        want = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
        assert traj.path.n_times == 3763 and traj.path.t_start == -1.0
        assert traj.path.t_end == pytest.approx(2.762, abs=1e-12)
        assert traj.tau < traj.path.t_end
        assert np.array_equal(traj.path.values, want.path.values)
        assert (traj.event, traj.tau) == (want.event, want.tau)

    def test_a_shorter_history_is_refused(self):
        with pytest.raises(ValueError, match=r"outside \[-0\.5, 0\]"):
            self.run(0.5)


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

    def test_a_zero_affine_neutral_term_still_checks_its_argument(self):
        # an affine g whose profile is all zeros writes no column, but its
        # functional, the initial delay mass 0.3, is past its cap 0.2
        text = get_scenario("parabolic_delay_mass")
        text = text.replace("g_profile = sine:1:1.0", "g_profile = modes:0 0 0 0 0 0 0 0")
        text = text.replace("g_y_max = 1.0", "g_y_max = 0.2")
        built = build_run(parse_config(text))
        assert built.problem.g.support(8).size == 0
        with pytest.raises(DomainViolation, match=r"0\.3 outside .*\[0, 0\.2\]"):
            continue_solution(built.problem, built.initial_segment, 0.0, built.solver)

    @staticmethod
    def _blowing_operator(monkeypatch, bad):
        # G as the solver computes it, but from each attempt's second image
        # on, one value is ``bad``: the first candidate maps to finite values
        images = []
        operator = solver.evaluate_window_operator

        def blowing(frame, stack):
            out = operator(frame, stack)
            frame.images = getattr(frame, "images", 0) + 1
            images.append(frame.images)
            if frame.images >= 2:
                out[-1, 0] = bad
            return out

        monkeypatch.setattr(solver, "evaluate_window_operator", blowing)
        return images

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["mass_growth", "parabolic_delay_mass"])
    def test_a_non_finite_second_image_raises_numerical_blowup(self, name, bad, monkeypatch):
        built = build_run(parse_config(get_scenario(name)))
        prob, cfg = built.problem, built.solver
        m = round(min(cfg.window, prob.h) / cfg.dt)
        rows = segment_on_grid(built.initial_segment, prob.h, cfg.dt)
        run = solver.RunFrame(prob, cfg.dt, m)
        frame = solver.WindowFrame(run, SolutionPath(-prob.h, cfg.dt, rows), 0.0, m)
        # unpatched, the warm start is kept and its first iterate does not
        # converge, so the second image is the loop's first
        assert solver._first_candidate(frame, cfg.trust_radius)[2] is not None
        assert solve_window(run, SolutionPath(-prob.h, cfg.dt, rows), 0.0, cfg, 1.0,
                            m).iterations >= 2
        images = self._blowing_operator(monkeypatch, bad)
        with pytest.raises(NumericalBlowup, match="^window at t0=0.0 produced non-finite values$"):
            solve_window(run, SolutionPath(-prob.h, cfg.dt, rows), 0.0, cfg, 1.0, m)
        assert images == [1, 2]
        # every retry fails alike, so the run ends at its start
        traj = continue_solution(prob, built.initial_segment, 0.0, cfg)
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

        def watched_solve(run, path, t0, cfg, damping, m):
            status = "numerical_blowup"
            try:
                result = solve_window(run, path, t0, cfg, damping, m)
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


class TestRefineBracket:
    """Bisection on the exit window's stack.  dt = 1/8 keeps every grid
    time exact; slice j of each stack is the history at h + j*dt."""

    def linear_stack(self, dt=0.125, h=0.5, u=lambda x: x):
        # the grid values u(x) for x in [0, 5], as one stack of slices
        x = dt * np.arange(round(5.0 / dt) + 1)
        return history.SegmentStack(h, dt, u(x)[:, None], h)

    def make_prob(self, l, h=0.5, T=5.0, kind="delay_mass"):
        op = SpectralOperator([1.0])
        return NeutralProblem(op, h, T, 0.5, ZeroTerm(),
                              TimeForcingTerm([TimeFn("const", (0.0,))]),
                              DomainSpec(kind, l), 0.0)

    def exit_slice(self, stack, t):
        # the slice at grid time t, which the scan found not inside
        (i,) = np.flatnonzero(stack.times == t)
        return int(i)

    def test_linear_crossing_found_to_tolerance(self):
        # u(t) = t: the delay mass h t - h^2/2 is linear in t
        h = 0.5
        stack = self.linear_stack(h=h)
        t_c = 1.03  # crossing time to hide mid-cell
        prob = self.make_prob(h * t_c - h**2 / 2.0, h)
        a, b = continuation._refine_bracket(prob, stack, self.exit_slice(stack, 1.125), 1e-6)
        assert b - a <= 1e-6
        assert 0.5 * (a + b) == pytest.approx(t_c, abs=1e-5)

    def test_result_stays_in_bracket(self):
        h = 0.5
        stack = self.linear_stack(h=h)
        prob = self.make_prob(h * 1.03 - h**2 / 2.0, h)
        a, b = continuation._refine_bracket(prob, stack, self.exit_slice(stack, 1.125), 1e-3)
        assert 1.0 <= a < b <= 1.125

    def test_tight_bracket_is_returned_as_given(self, monkeypatch):
        # a cell already within tol_t is the final bracket, with no probe
        h = 0.5
        stack = self.linear_stack(h=h)
        prob = self.make_prob(h * 1.03 - h**2 / 2.0, h)
        monkeypatch.setattr(prob, "membership", None)
        a, b = 1.0, 1.125
        assert continuation._refine_bracket(prob, stack, self.exit_slice(stack, b), 0.125) == (a, b)

    def test_sup_band_crossing_found_to_tolerance(self):
        # u(t) = t >= h: the largest node norm is the current value, t
        stack = self.linear_stack()
        t_c = 1.03
        prob = self.make_prob(t_c, kind="sup_band")
        a, b = continuation._refine_bracket(prob, stack, self.exit_slice(stack, 1.125), 1e-6)
        assert b - a <= 1e-6 and 1.0 <= a < b <= 1.125
        assert 0.5 * (a + b) == pytest.approx(t_c, abs=1e-5)
        assert prob.membership(segment_at(SolutionPath(0.0, 0.125, stack.values), b,
                                          prob.h)).kind == "sup_band"

    def test_vanishing_crossing_found_to_tolerance(self):
        # u(x) = max(1 - x, 0): in the cell [1.375, 1.5] only the oldest node,
        # at x = t - h in (0.875, 1), is nonzero, (1 - s) dt at t = 1.375 + s dt,
        # so the delay mass is (1 - s) dt^2 / 2.  With the band's tol
        # 1e-9 l = 0.7 dt^2 / 2 the mass vanishes at s = 0.3, t* = 1.4125.
        dt = 0.125
        stack = self.linear_stack(dt, u=lambda x: np.maximum(1.0 - x, 0.0))
        prob = self.make_prob(0.7 * dt**2 / 2.0 / 1e-9)
        a, b = continuation._refine_bracket(prob, stack, self.exit_slice(stack, 1.5), 1e-6)
        assert b - a <= 1e-6 and 1.375 <= a < b <= 1.5
        assert 0.5 * (a + b) == pytest.approx(1.4125, abs=1e-5)
        assert prob.membership(segment_at(SolutionPath(0.0, dt, stack.values), b,
                                          prob.h)).kind == "vanishing"


#: Draws of a path and one cell of it: (seed, n_modes, dt, n_h, exit slice,
#: first grid time, s).  dt divides h = n_h dt; the path holds the history
#: of slice 0 and a few slices more.
cell_draws = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 3),
                       st.sampled_from([0.02, 0.01]), st.integers(1, 12), st.integers(1, 20),
                       st.floats(-3.0, 3.0), st.floats(1e-3, 1.0 - 1e-3))


def _cell(seed, n_modes, dt, n_h, i, t_first):
    # a random path of n_h + i + 1 + 3 rows and the stack of its slices
    rows = np.random.default_rng(seed).normal(size=(n_h + i + 4, n_modes))
    path = SolutionPath(t_first - n_h * dt, dt, rows)
    return path, history.SegmentStack(n_h * dt, dt, rows, t_first)


@settings(max_examples=200, deadline=None)
@given(cell_draws)
def test_the_blend_of_two_slices_is_the_sampled_segment(draw):
    # the history at t = t_{i-1} + s dt, off the grid, is (1 - s) A + s B of
    # slices A = i-1 and B = i, up to segment_at's rounding: its per-node
    # weight is the fraction of (t - t_start + theta)/dt, good to about
    # eps (1 + (|t| + |t_start| + h)/dt), which scales |B - A|
    seed, n_modes, dt, n_h, i, t_first, s = draw
    path, stack = _cell(seed, n_modes, dt, n_h, i, t_first)
    start = stack.times[i] - dt
    t = float(start + s * dt)
    s = (t - start) / dt
    older, newer = stack.values[i - 1 : i + n_h], stack.values[i : i + n_h + 1]
    blend = (1.0 - s) * older + s * newer
    want = segment_at(path, t, stack.h).values
    eps = np.finfo(float).eps
    scale = 1.0 + (abs(t) + abs(path.t_start) + stack.h) / dt
    bound = 4.0 * eps * (scale * np.abs(newer - older) + np.abs(older) + np.abs(newer))
    assert np.all(np.abs(blend - want) <= bound)


@settings(max_examples=200, deadline=None)
@given(cell_draws, st.sampled_from(["delay_mass", "sup_band"]),
       st.sampled_from(["upper", "vanishing"]), st.floats(-0.25, 1.25))
def test_bisection_probes_decide_as_the_sampled_segment(draw, kind, edge, where):
    # every probe of the bisection classifies as membership on segment_at
    # at its time; the band edge is put at ``where`` between the cell's ends
    # (past them for where outside [0, 1]), on the functional for the upper
    # edge and on the smallest norm, through tol = 1e-9 l, for the vanishing one
    seed, n_modes, dt, n_h, i, t_first, _ = draw
    path, stack = _cell(seed, n_modes, dt, n_h, i, t_first)
    if edge == "upper":
        ends = stack.integral_norms() if kind == "delay_mass" else stack.sup_norms()
    else:
        ends = stack.integral_norms() if kind == "delay_mass" else stack.min_norms()
    level = ends[i - 1] + where * (ends[i] - ends[i - 1])
    assume(level > 0.0)
    prob = NeutralProblem(SpectralOperator([1.0] * n_modes), stack.h, t_first + 100.0, 0.5,
                          ZeroTerm(), ZeroTerm(),
                          DomainSpec(kind, level if edge == "upper" else level / 1e-9), 0.0)
    probes = []

    def recorded(seg):
        got = NeutralProblem.membership(prob, seg)
        probes.append((seg, got))
        return got

    prob.membership = recorded
    continuation._refine_bracket(prob, stack, i, dt / 50)
    assert len(probes) == 6
    tol, l = prob.domain.default_tol(), prob.domain.l
    # each probe's time replays the bisection from the cell's ends
    b = float(stack.times[i])
    a = b - dt
    for seg, got in probes:
        t = 0.5 * (a + b)
        value = prob.domain_functional(seg)
        bottom = float(seg.node_norms().min()) if kind == "sup_band" else value
        for at, edge_value in ((value, l - tol), (value, l + tol), (bottom, tol)):
            assume(abs(at - edge_value) > 1e-9 * abs(at))
        want = NeutralProblem.membership(prob, segment_at(path, t, prob.h))
        assert (got.state, got.kind) == (want.state, want.kind)
        a, b = (t, b) if got.is_inside else (a, t)


def test_a_boundary_exit_samples_no_segment(monkeypatch):
    # the bisection probes blend the exit window's stack: a run that exits
    # through a band edge never resamples its path
    calls = []

    def counted_segment_at(*args):
        calls.append(args)
        return segment_at(*args)

    monkeypatch.setattr(continuation, "segment_at", counted_segment_at)
    built = build_run(parse_config(workloads.exit_fine(7).config))
    traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
    assert traj.event.label() == "boundary_hit:upper_mass"
    assert 0.0 < traj.event.refinement_width <= built.solver.dt / 256
    assert calls == []


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


def _workload_run(name, monkeypatch, first_values=None):
    """A benchmark workload's run at seed 7 (modes_wide: 256 modes) and the
    row buffers its paths held, in the order they were built, with the
    run's first buffer size bound set to ``first_values`` when given."""
    built = build_run(parse_config(workloads.GENERATORS[name](7).config))
    buffers = []
    init, reserve = history.SolutionPath.__init__, history.SolutionPath._reserve

    def counted_init(path, *args):
        init(path, *args)
        buffers.append(path._rows)

    def counted_reserve(path, count):
        rows, norms = reserve(path, count)
        if not any(rows is buf for buf in buffers):
            buffers.append(rows)
        return rows, norms

    with monkeypatch.context() as patch:
        patch.setattr(history.SolutionPath, "__init__", counted_init)
        patch.setattr(history.SolutionPath, "_reserve", counted_reserve)
        if first_values is not None:
            patch.setattr(continuation, "_FIRST_PATH_VALUES", first_values)
        traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
    return traj, buffers


@pytest.mark.parametrize("name", ["mass_growth", "exit_fine"])
def test_an_exit_cuts_the_path_at_its_first_non_interior_grid_point(name):
    # the cut counts grid points from the exit slice's index, not by
    # matching a time back to the grid: the path ends at the first grid
    # point that is not interior, at or after tau, with one functional per
    # grid point from t0
    text = get_scenario(name) if name in scenario_names() else workloads.GENERATORS[name](7).config
    built = build_run(parse_config(text))
    prob = built.problem
    traj = continue_solution(prob, built.initial_segment, 0.0, built.solver)
    path = traj.path
    assert traj.event.kind == "boundary_hit"
    assert path.index_of(path.t_end) == path.n_times - 1
    assert traj.functionals.shape == (path.n_times - round(prob.h / path.dt),)
    assert path.t_end - path.dt <= traj.tau <= path.t_end
    last, before = path.times()[-1], path.times()[-2]
    assert not prob.membership(segment_at(path, last, prob.h)).is_inside
    assert prob.membership(segment_at(path, before, prob.h)).is_inside


@pytest.mark.parametrize("name", ["modes_wide", "exit_fine"])
def test_a_run_sizes_its_path_buffer_once(name, monkeypatch):
    # the path is built with the rows for its horizon; no attempt and no
    # extend builds another buffer, and the run's path, cut at the exit or
    # not, reads that one in place
    traj, buffers = _workload_run(name, monkeypatch)
    assert len(buffers) == 1
    assert np.shares_memory(traj.path.values, buffers[-1])


@pytest.mark.parametrize("name", ["modes_wide", "exit_fine"])
def test_a_run_past_its_first_buffer_size_doubles_to_the_same_answer(name, monkeypatch):
    # a first size of a few rows, below the horizon: the buffer doubles as
    # the run goes, and every row, norm, functional and tau is the same
    traj, _ = _workload_run(name, monkeypatch)
    n_modes = traj.path.values.shape[1]
    small, buffers = _workload_run(name, monkeypatch, first_values=16 * n_modes)
    assert len(buffers) > 1
    assert small.event == traj.event and small.tau.hex() == traj.tau.hex()
    for got, want in ((small.path.values, traj.path.values), (small.path.norms, traj.path.norms),
                      (small.functionals, traj.functionals)):
        assert got.tobytes() == want.tobytes()
