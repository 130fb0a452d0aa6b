import math

import numpy as np
import pytest

from neutraldde import (
    DomainSpec,
    FunctionalAffineTerm,
    HypothesisViolation,
    NeutralProblem,
    OracleUnavailable,
    Segment,
    SolutionPath,
    SpectralOperator,
    TimeFn,
    TimeForcingTerm,
    ZeroTerm,
    compare,
    current_value_window,
    dense_reference_solve,
    make_manufactured,
)


def constant_segment(h, vec, dt):
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    n = int(round(h / dt))
    thetas = -h + dt * np.arange(n + 1)
    return Segment(h, thetas, np.tile(vec, (n + 1, 1)))


class TestMakeManufactured:
    def test_homogeneous_decay_needs_no_forcing(self):
        op = SpectralOperator([1.0])
        case = make_manufactured([("exp", 1.0, -1.0)], kappa=0.0, op=op, h=1.0, T=2.0)
        fn = case.problem.f.mode_fns[0]
        for t in [0.0, 0.5, 1.7]:
            assert fn(t) == pytest.approx(0.0, abs=1e-15)

    def test_point_delay_forcing_closed_form(self):
        # u* = e^-t against decay rate 1: differentiating the delayed term
        # leaves -0.25 e^(1-t)
        op = SpectralOperator([1.0])
        case = make_manufactured([("exp", 1.0, -1.0)], kappa=0.25, op=op, h=1.0, T=2.0)
        fn = case.problem.f.mode_fns[0]
        assert fn(0.0) == pytest.approx(-0.25 * math.e, rel=1e-14)
        assert fn(1.0) == pytest.approx(-0.25, rel=1e-14)

    def test_constant_trajectory_forcing(self):
        op = SpectralOperator([2.0])
        case = make_manufactured([("poly", 1.0)], kappa=0.0, op=op, h=0.5, T=1.0)
        fn = case.problem.f.mode_fns[0]
        assert fn(0.3) == pytest.approx(2.0)

    def test_polynomial_forcing_coefficients(self):
        # u* = t^2, mu = 1, kappa = 0.5, h = 0.25:
        # f = 2t + kappa*2*(t - h) + t^2
        op = SpectralOperator([1.0])
        kappa, h = 0.5, 0.25
        case = make_manufactured([("poly", 0.0, 0.0, 1.0)], kappa=kappa, op=op, h=h, T=1.0)
        fn = case.problem.f.mode_fns[0]
        for t in [0.0, 0.3, 0.9]:
            want = 2 * t + kappa * 2 * (t - h) + t**2
            assert fn(t) == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_contraction_budget_enforced(self):
        op = SpectralOperator([9.0])
        with pytest.raises(HypothesisViolation):
            make_manufactured([("exp", 1.0, -1.0)], kappa=0.5, op=op, h=1.0, T=2.0)

    def test_initial_segment_matches_trajectory(self):
        op = SpectralOperator([1.0])
        case = make_manufactured([("exp", 2.0, -0.5)], kappa=0.1, op=op, h=1.0, T=2.0)
        seg = case.initial_segment(0.25)
        np.testing.assert_allclose(seg.values[:, 0], 2.0 * np.exp(-0.5 * seg.thetas))


class TestDenseReference:
    def test_matches_closed_form_decay(self):
        op = SpectralOperator([1.0, 3.0])
        prob = NeutralProblem(op, 0.25, 1.0, 0.5, ZeroTerm(),
                              TimeForcingTerm([TimeFn("const", (0.0,))] * 2),
                              DomainSpec("time_only"), 0.0)
        seg = constant_segment(0.25, [1.0, 0.5], 1e-3)
        ref = dense_reference_solve(prob, seg, 0.0, 1e-3, levels=3)
        times = np.maximum(ref.times(), 0.0)
        exact = np.exp(-np.outer(times, op.mu)) * np.array([1.0, 0.5])
        assert float(np.abs(ref.values - exact).max()) <= 1e-10

    def test_matches_manufactured_solution(self):
        op = SpectralOperator([1.0])
        case = make_manufactured([("exp", 1.0, -0.5)], kappa=0.25, op=op, h=0.5, T=1.0)
        seg = case.initial_segment(1e-4)
        ref = dense_reference_solve(case.problem, seg, 0.0, 1e-4, levels=3)
        out = compare(ref, case.exact_path(1e-4))
        assert out["sup_error"] <= 1e-7

    def test_failing_fine_run_raises(self):
        # forcing gain far beyond the contraction regime: every window blows up
        op = SpectralOperator([1.0])
        f = FunctionalAffineTerm(0.0, 5000.0, np.array([1.0]), "max",
                                 window=current_value_window(), y_max=1e300)
        prob = NeutralProblem(op, 0.1, 0.5, 0.5, ZeroTerm(), f,
                              DomainSpec("time_only"), 0.0)
        seg = constant_segment(0.1, [0.1], 1e-2)
        with pytest.raises(OracleUnavailable):
            dense_reference_solve(prob, seg, 0.0, 1e-2, levels=2)

    def test_under_resolved_forcing_fails_order_gate(self):
        # boundary-layer forcing e^(-1e5 t) is invisible to these grids, the
        # observed order collapses and the gate refuses to extrapolate
        op = SpectralOperator([1.0])
        prob = NeutralProblem(op, 0.1, 0.5, 0.5, ZeroTerm(),
                              TimeForcingTerm([TimeFn("exp", (1.0, -1e5))]),
                              DomainSpec("time_only"), 0.0)
        seg = constant_segment(0.1, [1.0], 1e-2)
        with pytest.raises(OracleUnavailable):
            dense_reference_solve(prob, seg, 0.0, 1e-2, levels=3)

    def test_needs_two_levels(self):
        op = SpectralOperator([1.0])
        case = make_manufactured([("exp", 1.0, -0.5)], kappa=0.0, op=op, h=0.5, T=1.0)
        seg = case.initial_segment(1e-2)
        with pytest.raises(ValueError):
            dense_reference_solve(case.problem, seg, 0.0, 1e-2, levels=1)


class TestCompare:
    def test_identical_paths(self):
        path = SolutionPath(0.0, 0.1, np.linspace(0, 1, 11)[:, None])
        out = compare(path, path)
        assert out == {"sup_error": 0.0, "l2_error": 0.0}

    def test_constant_offset(self):
        a = SolutionPath(0.0, 0.1, np.zeros((11, 2)))
        vals = np.zeros((11, 2))
        vals[:, 0] = 0.7
        b = SolutionPath(0.0, 0.1, vals)
        out = compare(a, b)
        assert out["sup_error"] == pytest.approx(0.7)
        assert out["l2_error"] == pytest.approx(0.7 * math.sqrt(0.1 * 11))

    def test_linear_interpolant_error_bound(self):
        # e^-t sampled at dt = 0.1 and linearly interpolated: classical bound
        # dt^2/8 * max|u''| = 0.00125
        coarse = SolutionPath(0.0, 0.1, np.exp(-0.1 * np.arange(11))[:, None])
        fine_dt = 0.0125
        fine_times = fine_dt * np.arange(81)
        interp = np.interp(fine_times, coarse.times(), coarse.values[:, 0])[:, None]
        a = SolutionPath(0.0, fine_dt, np.exp(-fine_times)[:, None])
        b = SolutionPath(0.0, fine_dt, interp)
        out = compare(a, b)
        assert 1e-4 <= out["sup_error"] <= 0.00125

    def test_grid_mismatch_rejected(self):
        a = SolutionPath(0.0, 0.1, np.zeros((11, 1)))
        b = SolutionPath(0.0, 0.1, np.zeros((12, 1)))
        with pytest.raises(ValueError):
            compare(a, b)
        c = SolutionPath(0.5, 0.1, np.zeros((11, 1)))
        with pytest.raises(ValueError):
            compare(a, c)


class TestMildIdentity:
    def test_manufactured_solution_satisfies_the_integral_identity(self):
        # adaptive quadrature of the two memory integrals, fully independent
        # of the solver's product rule, confirms the sign conventions
        from scipy.integrate import quad

        mu, kappa, h = 1.0, 0.25, 1.0
        op = SpectralOperator([mu])
        case = make_manufactured([("exp", 1.0, -0.5)], kappa=kappa, op=op, h=h, T=2.0)
        u = lambda t: math.exp(-0.5 * t)
        g = lambda t: kappa * u(t - h)
        f = case.problem.f.mode_fns[0]
        for t in (0.3, 1.0, 1.7):
            semi = math.exp(-mu * t) * (u(0.0) + g(0.0))
            conv_g = quad(lambda s: mu * math.exp(-mu * (t - s)) * g(s), 0.0, t)[0]
            conv_f = quad(lambda s: math.exp(-mu * (t - s)) * f(s), 0.0, t)[0]
            assert semi - g(t) + conv_g + conv_f == pytest.approx(u(t), abs=1e-10)


class TestOracleConsistency:
    def test_reference_converges_to_exact_solution_at_second_order(self):
        op = SpectralOperator([1.0])
        case = make_manufactured([("exp", 1.0, -0.5)], kappa=0.25, op=op, h=0.5, T=1.0)
        errors = []
        for fine_dt in [4e-3, 2e-3, 1e-3]:
            seg = case.initial_segment(fine_dt)
            ref = dense_reference_solve(case.problem, seg, 0.0, fine_dt, levels=2)
            errors.append(compare(ref, case.exact_path(fine_dt))["sup_error"])
        order = math.log2(errors[0] / errors[1])
        assert order >= 1.9
