import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutraldde import (
    DomainSpec,
    FunctionalAffineTerm,
    HypothesisViolation,
    NeutralProblem,
    PointDelayTerm,
    Segment,
    SegmentStack,
    SolutionPath,
    SolverConfig,
    SpectralOperator,
    TimeFn,
    TimeForcingTerm,
    WindowFns,
    ZeroTerm,
    current_value_window,
    exp_convolution,
    full_history_window,
    heuristic_window,
    make_dirichlet_laplacian,
    make_manufactured,
    max_norm_functional,
    segment_at,
    sine_profile_coeffs,
    solve_window,
)
from neutraldde import solver
from neutraldde.errors import DomainViolation, NumericalBlowup
from neutraldde.history import _GRID_EPS
from neutraldde.solver import (
    _WARM_DEGREE,
    RunFrame,
    WindowFrame,
    _drift_exceeds,
    _product_scan,
    _ScanTables,
    _warm_start,
    _warm_stencil,
    _warm_weights,
    cell_weights,
    evaluate_window_operator,
)
from convolution_reference import generator_convolution, semigroup_convolution
from neutral_contraction import sample_neutral_contraction


def constant_segment(h, vec, dt):
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    n = int(round(h / dt))
    thetas = -h + dt * np.arange(n + 1)
    return Segment(h, thetas, np.tile(vec, (n + 1, 1)))


def window_inputs(prob, hist, t0, dt, m):
    """The ``RunFrame`` of width m and the ``SolutionPath`` ending at t0 on
    the grid rows ``hist`` that a run hands a window there."""
    return RunFrame(prob, dt, m), SolutionPath(t0 - prob.h, dt, hist)


def window_frame(prob, hist, t0, dt, m, run=None):
    """The ``WindowFrame`` of m cells at t0 after a path of the grid rows
    ``hist``, in ``run`` or a run frame of its own."""
    if run is None:
        run = RunFrame(prob, dt, m)
    return WindowFrame(run, SolutionPath(t0 - prob.h, dt, hist), t0, m)


def solve_after(prob, hist, t0, cfg, damping=1.0):
    """``solve_window`` of the configured window at t0 after a path of the
    grid rows ``hist``."""
    m = int(round(cfg.window / cfg.dt))
    run, path = window_inputs(prob, hist, t0, cfg.dt, m)
    return solve_window(run, path, t0, cfg, damping, m)


def plain_operator(prob, hist, t0, dt, candidate):
    """G of a candidate on every column, as plainly defined: the free
    evolution e^(-mu s)(phi(0) + g(t0, phi)) minus g plus the memory
    integral of mu g + f, with both terms evaluated on every column of a
    public stack over the history and candidate rows."""
    hist = np.asarray(hist, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    mu = prob.op.mu
    n_h, m = hist.shape[0] - 1, candidate.shape[0] - 1
    seg = Segment(prob.h, -prob.h + dt * np.arange(n_h + 1), hist)
    free = np.exp(-np.outer(dt * np.arange(m + 1), mu)) * (hist[-1] + prob.eval_g(t0, seg))
    stack = SegmentStack(prob.h, dt, np.vstack([hist[:-1], candidate]), t0)
    g_vals = prob.g.evaluate_window(stack)
    out = free - g_vals
    out += exp_convolution(mu, mu * g_vals + prob.f.evaluate_window(stack), dt)
    out[0] = hist[-1]
    return out


def apply_operator(prob, seg, dt, candidate):
    """The plain window operator at t0 = 0 after the segment's rows."""
    return plain_operator(prob, seg.values, 0.0, dt, candidate)


def full_free(frame):
    """The free evolution e^(-mu s) start on every column of the frame's
    window rows; the frame keeps it on the active columns alone."""
    return frame.run.decay[: frame.m + 1] * frame.start


def loaded_rows(frame, active_values):
    """The window rows a frame holds after loading ``active_values``: phi(0),
    then the free evolution (+0.0) in the passive columns beside them."""
    out = full_free(frame) + 0.0
    out[0] = frame.phi0
    out[1:, frame.run.active] = active_values[1:]
    return out


def forced_problem(n_modes, h=1.0):
    """Every mode forced by a constant: every column is active."""
    return NeutralProblem(SpectralOperator(np.arange(1.0, n_modes + 1.0)), h, 1.0, 0.5,
                          ZeroTerm(), TimeForcingTerm([TimeFn("const", (0.1,))] * n_modes),
                          DomainSpec("time_only"), 0.0)


def homogeneous_problem(mu=(1.0,), h=0.5, T=2.0):
    op = SpectralOperator(list(mu))
    return NeutralProblem(
        op, h, T, 0.5, ZeroTerm(),
        TimeForcingTerm([TimeFn("const", (0.0,)) for _ in mu]),
        DomainSpec("time_only"), 0.0,
    )


class TestCellWeights:
    def test_matches_high_precision_reference(self):
        import mpmath

        mpmath.mp.dps = 50
        zs = np.geomspace(1e-12, 1e4, 81)
        w0, w1 = cell_weights(zs, 1.0)
        for z, a, b in zip(zs, w0, w1):
            mz = mpmath.mpf(float(z))
            ref0 = (1 - mpmath.e**-mz * (1 + mz)) / mz**2
            ref1 = (mz - 1 + mpmath.e**-mz) / mz**2
            assert abs(a - float(ref0)) <= 1e-10 * float(ref0)
            assert abs(b - float(ref1)) <= 1e-10 * float(ref1)
            assert np.isfinite(a) and np.isfinite(b)

    def test_zero_rate_limit(self):
        # plain trapezoid weights in the mu -> 0 limit
        w0, w1 = cell_weights(np.array([1e-12]), 0.1)
        assert w0[0] == pytest.approx(0.05, rel=1e-9)
        assert w1[0] == pytest.approx(0.05, rel=1e-9)


class TestConvolutions:
    def test_zero_input(self):
        op = SpectralOperator([2.0])
        vals = np.zeros((11, 1))
        np.testing.assert_array_equal(semigroup_convolution(op, vals, 10, 0.1), [0.0])
        np.testing.assert_array_equal(generator_convolution(op, vals, 10, 0.1), [0.0])

    def test_empty_integral_at_origin(self):
        op = SpectralOperator([2.0])
        vals = np.ones((11, 1))
        np.testing.assert_array_equal(semigroup_convolution(op, vals, 0, 0.1), [0.0])
        np.testing.assert_array_equal(generator_convolution(op, vals, 0, 0.1), [0.0])

    def test_constant_input_closed_forms(self):
        # exact for constant samples: (1 - e^(-mu t))/mu and (1 - e^(-mu t))
        for mu, t, dt in [(1.0, 1.0, 1e-3), (2.0, 1.0, 1e-3), (40.0, 0.5, 1e-3)]:
            op = SpectralOperator([mu])
            n = int(round(t / dt))
            vals = np.ones((n + 1, 1))
            got_s = semigroup_convolution(op, vals, n, dt)[0]
            got_a = generator_convolution(op, vals, n, dt)[0]
            assert got_s == pytest.approx((1 - math.exp(-mu * t)) / mu, abs=1e-10)
            assert got_a == pytest.approx(1 - math.exp(-mu * t), abs=1e-10)

    def test_reference_values(self):
        op = SpectralOperator([1.0])
        vals = np.ones((1001, 1))
        assert semigroup_convolution(op, vals, 1000, 1e-3)[0] == pytest.approx(
            0.6321205588285577, abs=1e-12
        )
        op2 = SpectralOperator([2.0])
        assert generator_convolution(op2, vals, 1000, 1e-3)[0] == pytest.approx(
            0.8646647167633873, abs=1e-12
        )

    @pytest.mark.parametrize("which", ["semigroup", "generator"])
    def test_second_order_on_smooth_data(self, which):
        # integrand e^(0.3 s) against mode mu = 5 up to t = 1
        mu, gamma, t = 5.0, 0.3, 1.0
        op = SpectralOperator([mu])
        exact_s = (math.exp(gamma * t) - math.exp(-mu * t)) / (gamma + mu)
        errors = []
        for dt in [1e-2, 5e-3, 2.5e-3]:
            n = int(round(t / dt))
            s = dt * np.arange(n + 1)
            vals = np.exp(gamma * s)[:, None]
            if which == "semigroup":
                got = semigroup_convolution(op, vals, n, dt)[0]
                errors.append(abs(got - exact_s))
            else:
                got = generator_convolution(op, vals, n, dt)[0]
                errors.append(abs(got - mu * exact_s))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_stiff_mode_stays_accurate(self):
        # mu dt = 50: kernel mass concentrates in the last cell
        mu, dt, t = 5000.0, 1e-2, 0.2
        op = SpectralOperator([mu])
        n = int(round(t / dt))
        vals = np.ones((n + 1, 1))
        got = semigroup_convolution(op, vals, n, dt)[0]
        assert got == pytest.approx((1 - math.exp(-mu * t)) / mu, rel=1e-10)


@st.composite
def scan_inputs(draw):
    """Rates with mu*dt across [1e-12, 1e4], any length, values of both signs."""
    n_nodes = draw(st.integers(min_value=1, max_value=200))
    n_modes = draw(st.integers(min_value=1, max_value=3))
    dt = draw(st.floats(min_value=1e-3, max_value=1.0))
    log_z = draw(st.lists(st.floats(min_value=-12.0, max_value=4.0),
                          min_size=n_modes, max_size=n_modes))
    mu = 10.0 ** np.array(log_z) / dt
    elements = st.floats(min_value=-10.0, max_value=10.0)
    g, f = (np.array(draw(st.lists(elements, min_size=n_nodes * n_modes,
                                   max_size=n_nodes * n_modes))).reshape(n_nodes, n_modes)
            for _ in range(2))
    return mu, dt, g, f


def scan_tolerance(n_nodes):
    # A column scanned in one block of n cells: the cumsum of r^-t c adds
    # up to n-1 roundings, each on partial sums that r^t scales back to at
    # most the terms r^(i-j) |c_j| they stand for, and the two scalings one
    # each.  A column on the doubling scan: one rounding a pass, and r^(2^k)
    # by repeated squaring carries up to about 2^k*eps, with 2^k < 2n.
    # Either stays below 2n + 16 roundings.
    return np.finfo(float).eps * (2 * n_nodes + 16)


@settings(max_examples=60, deadline=None)
@given(scan_inputs())
def test_exp_convolution_matches_plain_sum(inputs):
    mu, dt, values, _ = inputs
    n = values.shape[0]
    got = exp_convolution(mu, values, dt)
    assert got.shape == values.shape
    np.testing.assert_array_equal(got[0], 0.0)
    w0, w1 = cell_weights(mu, dt)
    tol = scan_tolerance(n)
    for k, rate in enumerate(mu):
        r = math.exp(-rate * dt)
        cells = w0[k] * values[:-1, k] + w1[k] * values[1:, k]
        for i in range(1, n):
            # out[i] = sum_{j<i} r^(i-1-j) c_j, with c_j the cell [t_j, t_(j+1)]
            terms = r ** np.arange(i - 1, -1, -1, dtype=float) * cells[:i]
            scale = math.fsum(np.abs(terms))
            assert abs(got[i, k] - math.fsum(terms)) <= tol * scale + 1e-300


@settings(max_examples=40, deadline=None)
@given(scan_inputs())
def test_exp_convolution_is_one_integral_of_mu_g_plus_f(inputs):
    mu, dt, g, f = inputs
    one = exp_convolution(mu, mu * g + f, dt)
    two = mu * exp_convolution(mu, g, dt) + exp_convolution(mu, f, dt)
    scale = exp_convolution(mu, np.abs(mu * g) + np.abs(f), dt)
    assert np.all(np.abs(one - two) <= scan_tolerance(g.shape[0]) * scale + 1e-300)


def plain_sums(mu, values, dt):
    """Each row of the memory integral as the sum of r^(i-1-j) c_j over the
    cells before it, by ``math.fsum``, and the sum of the terms' sizes."""
    w0, w1 = cell_weights(mu, dt)
    sums, scales = np.zeros_like(values), np.zeros_like(values)
    for k, rate in enumerate(mu):
        r = math.exp(-rate * dt)
        cells = w0[k] * values[:-1, k] + w1[k] * values[1:, k]
        for i in range(1, values.shape[0]):
            terms = r ** np.arange(i - 1, -1, -1, dtype=float) * cells[:i]
            sums[i, k], scales[i, k] = math.fsum(terms), math.fsum(np.abs(terms))
    return sums, scales


def doubling_scan(values, w0, w1, r):
    """The memory integral by the doubling scan over every cell: log2(n)
    passes out[step:] += r out[:-step], r squared after each."""
    out = np.zeros_like(values)
    out[1:] = w0 * values[:-1] + w1 * values[1:]
    step = 1
    while step < values.shape[0]:
        out[step:] += r * out[:-step]
        r = r * r
        step *= 2
    return out


def one_block_scan(values, w0, w1, z):
    """The memory integral as one block: r^t cumsum(r^-t c), t = 0..n-1
    counted from the first cell, with r^t = e^(-t z), z = mu dt."""
    out = np.zeros_like(values)
    t = np.arange(values.shape[0] - 1.0)[:, None]
    cells = (w0 * values[:-1] + w1 * values[1:]) * np.exp(t * z)
    out[1:] = np.cumsum(cells, axis=0) * np.exp(-t * z)
    return out


#: Rates at dt = 0.1 whose columns scan 5 cells in one block (mu dt = 0.25:
#: 0.25 (n-1) <= 1), every length in one block (mu dt = 1e-3 over at most
#: 1001 cells) and only one cell in one block (mu dt = 3 > 1)
BLOCK_RATES = np.array([2.5, 0.01, 30.0])


@pytest.mark.parametrize("n_cells", [1, 4, 5, 6, 11])
def test_scan_block_boundaries_on_a_stiff_column(n_cells):
    # up to 5 cells the mu dt = 0.25 column is one block; from 6 on it takes
    # the doubling scan, as the mu dt = 3 column does from 2 on
    dt = 0.1
    scan = _ScanTables(BLOCK_RATES, dt, 100)
    assert scan.span.tolist() == [5.0, 1001.0, 1.0]
    assert scan.up.shape == scan.down.shape == (100, 3)
    once, doubled = scan.split(n_cells)
    expect_once = [k for k, span in enumerate(scan.span) if n_cells <= span]
    assert np.arange(3)[once].tolist() == expect_once
    assert (doubled is None) == (len(expect_once) == 3)
    values = np.random.default_rng(n_cells).uniform(-1.0, 1.0, size=(n_cells + 1, 3))
    got = exp_convolution(BLOCK_RATES, values, dt)
    want, scale = plain_sums(BLOCK_RATES, values, dt)
    assert np.all(np.abs(got - want) <= scan_tolerance(n_cells + 1) * scale)
    # the run's wider tables give the same bits, and each column is the
    # one-block scan's or the doubling scan's to the bit
    w0, w1 = cell_weights(BLOCK_RATES, dt)
    assert _product_scan(values, w0, w1, scan).tobytes() == got.tobytes()
    for k, rate in enumerate(BLOCK_RATES):
        column = values[:, k : k + 1]
        if k in expect_once:
            want = one_block_scan(column, w0[k], w1[k], rate * dt)
        else:
            want = doubling_scan(column, w0[k], w1[k], np.exp(-rate * dt))
        assert want.tobytes() == got[:, k : k + 1].copy().tobytes()


def test_scan_of_a_run_without_active_columns():
    # heat_decay's terms write no column: its run frame's tables hold no
    # column, with no widest span asked of no column, and the scan of no
    # column gives no column
    from neutraldde.config import build_run, parse_config
    from neutraldde.scenarios import get_scenario

    built = build_run(parse_config(get_scenario("heat_decay")))
    run = RunFrame(built.problem, built.solver.dt, 10)
    assert run.n_active == 0 and run.scan.span.size == 0 and run.scan.up.shape == (0, 0)
    assert run.scan.split(10) == (None, None)
    assert _product_scan(np.empty((11, 0)), run.w0, run.w1, run.scan).shape == (11, 0)
    assert exp_convolution(np.empty(0), np.empty((5, 0)), 0.1).shape == (5, 0)


def test_scan_stays_finite_where_the_plain_sum_does():
    # values near 1e300 over 300 cells: r^-t c stays within e of the term
    # it stands for, so no column overflows where the plain sums do not,
    # though r^-300 would at mu dt = 0.5 (e^150)
    dt = 1.0
    mu = np.array([1e-3, 0.05, 0.5, 5.0])
    values = 1e300 * np.random.default_rng(3).uniform(0.5, 1.0, size=(301, 4))
    got = exp_convolution(mu, values, dt)
    want, scale = plain_sums(mu, values, dt)
    assert np.all(np.isfinite(want)) and want.max() > 1e302
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= scan_tolerance(301) * scale)


class TestWindowOperator:
    def test_homogeneous_is_semigroup_curve_independent_of_candidate(self):
        prob = homogeneous_problem(mu=(1.0,))
        dt = 0.01
        seg = constant_segment(0.5, [1.0], dt)
        rng = np.random.default_rng(0)
        expected = np.exp(-dt * np.arange(11))[:, None]
        for _ in range(3):
            candidate = rng.normal(size=(11, 1))
            candidate[0] = 1.0
            got = apply_operator(prob, seg, dt, candidate)
            np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_left_endpoint_identity_exact(self):
        op = make_dirichlet_laplacian(3, math.pi)
        g = FunctionalAffineTerm(0.1, 0.2, sine_profile_coeffs(op, 1), "integral", y_max=5.0)
        f = FunctionalAffineTerm(0.0, 0.3, sine_profile_coeffs(op, 2), "integral", y_max=5.0)
        prob = NeutralProblem(op, 0.5, 2.0, 0.5, g, f, DomainSpec("delay_mass", 5.0), 0.5)
        dt = 0.05
        seg = constant_segment(0.5, [0.3, 0.1, 0.0], dt)
        candidate = np.tile(seg.values[-1], (5, 1))
        got = apply_operator(prob, seg, dt, candidate)
        np.testing.assert_array_equal(got[0], seg.values[-1])

    def test_manufactured_solution_is_a_fixed_point_up_to_quadrature(self):
        op = SpectralOperator([1.0])
        case = make_manufactured([("exp", 1.0, -0.5)], kappa=0.25, op=op, h=1.0, T=2.0)
        errors = []
        for dt in [2e-2, 1e-2]:
            seg = case.initial_segment(dt)
            m = int(round(0.5 / dt))
            times = dt * np.arange(m + 1)
            exact = case.exact_values(times)
            got = apply_operator(case.problem, seg, dt, exact)
            errors.append(float(np.abs(got - exact).max()))
        assert errors[0] <= 5.0 * (2e-2) ** 2
        assert 3.0 <= errors[0] / errors[1] <= 5.0

    def test_matched_rate_case_is_exact(self):
        # trajectory rate equal to the decay rate makes the two convolution
        # integrands cancel pointwise, so the map reproduces the exact
        # solution to roundoff
        op = SpectralOperator([1.0])
        case = make_manufactured([("exp", 1.0, -1.0)], kappa=0.25, op=op, h=1.0, T=2.0)
        dt = 2e-2
        seg = case.initial_segment(dt)
        times = dt * np.arange(26)
        exact = case.exact_values(times)
        got = apply_operator(case.problem, seg, dt, exact)
        assert float(np.abs(got - exact).max()) <= 1e-14

    def test_zero_neutral_term_keeps_the_full_formulas_signed_zeros(self):
        # G of a zero-family g skips g, yet gives free - g + scan(mu g + f)
        # to the bit.  Here the free evolution underflows to -0.0 (a
        # negative start times e^(-1e4)), and f is 0.0 * (-1) = -0.0, as
        # its functional, the norm's max over [t - h, t - h/2], is 0: the
        # full formula's mu*0.0 + f turns that into +0.0, so G is +0.0
        h, dt, m = 0.5, 0.01, 10
        f = FunctionalAffineTerm(0.0, 1.0, [-1.0], "max", window=WindowFns(-h, 1.0, -h / 2, 1.0))
        prob = NeutralProblem(SpectralOperator([1e6]), h, 2.0, 0.5, ZeroTerm(), f,
                              DomainSpec("time_only"), 0.0)
        hist = np.zeros((51, 1))
        hist[-5:] = -1.0
        frame = window_frame(prob, hist, 0.0, dt, m)
        assert frame.run.g_zero
        candidate = np.full((m + 1, 1), -1.0)
        got = evaluate_window_operator(frame, frame.load(candidate))
        assert np.all(np.signbit(frame.free[1:])) and not np.any(np.signbit(got[1:]))
        assert got.tobytes() == plain_operator(prob, hist, 0.0, dt, candidate).tobytes()


class TestSolveWindow:
    def test_homogeneous_two_iterations_exact(self):
        prob = homogeneous_problem(mu=(1.0, 4.0))
        dt = 0.01
        seg = constant_segment(0.5, [1.0, 0.5], dt)
        cfg = SolverConfig(dt=dt, window=0.1, tol=1e-12)
        out = solve_after(prob, seg.values, 0.0, cfg)
        assert out.converged
        assert out.iterations <= 2
        times = dt * np.arange(11)
        expected = np.exp(-np.outer(times, prob.op.mu)) * np.array([1.0, 0.5])
        np.testing.assert_allclose(out.stack.current(), expected, atol=1e-14)

    def test_manufactured_window_second_order(self):
        op = SpectralOperator([1.0])
        case = make_manufactured([("exp", 1.0, -0.5)], kappa=0.25, op=op, h=1.0, T=2.0)
        sup_errors = []
        for dt in [1e-2, 5e-3]:
            seg = case.initial_segment(dt)
            cfg = SolverConfig(dt=dt, window=0.1, tol=1e-12, max_iter=100)
            out = solve_after(case.problem, seg.values, 0.0, cfg)
            assert out.converged
            values = out.stack.current()
            times = dt * np.arange(values.shape[0])
            exact = case.exact_values(times)
            sup_errors.append(float(np.abs(values - exact).max()))
        assert sup_errors[0] <= 1e-4
        assert sup_errors[1] <= sup_errors[0] / 3.0

    def test_zero_trust_radius_flags_departure(self):
        prob = homogeneous_problem(mu=(1.0,))
        dt = 0.01
        seg = constant_segment(0.5, [1.0], dt)
        cfg = SolverConfig(dt=dt, window=0.1, tol=1e-12, trust_radius=0.0)
        out = solve_after(prob, seg.values, 0.0, cfg)
        assert out.status == "left_trust_region"

    def test_reported_residual_is_reproducible(self):
        # the forcing reads the current state, so the residual is genuinely
        # nonzero at acceptance and must be reproducible: it is the accepted
        # candidate's, the values are that candidate's image, and a solve
        # stopped one iterate earlier ends on the candidate
        out, values, prob, seg, dt = self._state_coupled_window(tol=1e-9, max_iter=100)
        assert out.converged and out.iterations > 1
        assert 0.0 < out.residual <= 1e-9
        before, candidate, _, _, _ = self._state_coupled_window(tol=1e-9,
                                                                max_iter=out.iterations - 1)
        assert before.status == "diverged"
        gy = apply_operator(prob, seg, dt, candidate)
        recomputed = float(np.linalg.norm(gy - candidate, axis=1).max())
        assert abs(recomputed - out.residual) <= 1e-14
        assert float(np.abs(gy - values).max()) <= 1e-14
        # the image is closer to the fixed point than the candidate was
        after = apply_operator(prob, seg, dt, values)
        assert float(np.linalg.norm(after - values, axis=1).max()) < out.residual

    def test_diverged_status_when_iterations_exhausted(self):
        out, _, _, _, _ = self._state_coupled_window(tol=1e-16, max_iter=2)
        assert out.status == "diverged"

    @staticmethod
    def _state_coupled_window(tol, max_iter):
        # the result and the window rows the attempt left past the path:
        # G(y) of the accepted candidate, else the last candidate loaded
        from neutraldde import current_value_window

        op = SpectralOperator([1.0])
        f = FunctionalAffineTerm(0.0, 2.0, np.array([1.0]), "max",
                                 window=current_value_window(), y_max=1e6)
        prob = NeutralProblem(op, 0.5, 2.0, 0.5, ZeroTerm(), f,
                              DomainSpec("time_only"), 0.0)
        dt = 1e-2
        seg = constant_segment(0.5, [0.1], dt)
        cfg = SolverConfig(dt=dt, window=0.1, tol=tol, max_iter=max_iter)
        run, path = window_inputs(prob, seg.values, 0.0, dt, 10)
        out = solve_window(run, path, 0.0, cfg, 1.0, 10)
        rows = path._rows[path.n_times - 1 : path.n_times + 10].copy()
        return out, rows, prob, seg, dt


def _integral_problem():
    op = make_dirichlet_laplacian(3, math.pi)
    g = FunctionalAffineTerm(0.1, 0.2, sine_profile_coeffs(op, 1), "integral", y_max=5.0)
    f = FunctionalAffineTerm(0.0, 0.3, sine_profile_coeffs(op, 2), "max", y_max=5.0)
    return NeutralProblem(op, 0.5, 2.0, 0.5, g, f, DomainSpec("delay_mass", 5.0), 0.5)


def _wobbly_segment(h, dt, n_modes, seed):
    n = int(round(h / dt))
    thetas = -h + dt * np.arange(n + 1)
    values = np.random.default_rng(seed).uniform(-0.3, 0.3, size=(n + 1, n_modes))
    return Segment(h, thetas, values)


def lagrange_reference(hist, m, step, degree):
    """The warm start as plainly defined: the Lagrange polynomial through
    the history rows phi(-degree*step*dt), ..., phi(-step*dt), phi(0),
    continued to the window nodes i*dt, its weights built per call in
    plain Python floats."""
    nodes = [-(degree - j) * step for j in range(degree + 1)]
    rows = hist[hist.shape[0] - 1 - degree * step :: step]
    out = np.zeros((m + 1, hist.shape[1]))
    for i in range(m + 1):
        for j in range(degree + 1):
            weight = 1.0
            for k in range(degree + 1):
                if k != j:
                    weight *= (i - nodes[k]) / (nodes[j] - nodes[k])
            out[i] += weight * rows[j]
    return out


def loop_warm_start(hist, weights, step, cols=slice(None)):
    """``_warm_start`` as an elementwise loop: each stencil row times its
    weights, added to the guess one row at a time, oldest first."""
    first = hist.shape[0] - 1 - (weights.shape[0] - 1) * step
    rows = hist[first::step, cols]
    guess = weights[0] * rows[0]
    for j in range(1, rows.shape[0]):
        guess += weights[j] * rows[j]
    return guess


def warm_start(hist, m, step, degree):
    """``_warm_start`` with weights of its own width."""
    return _warm_start(hist, _warm_weights(m, step, degree), step)


class TestWarmStart:
    @pytest.mark.parametrize("step", [1, 3])
    @pytest.mark.parametrize("poly_degree", range(_WARM_DEGREE + 1))
    def test_continues_a_polynomial_history(self, poly_degree, step):
        # exact up to rounding, which the weights' absolute sum scales
        h, dt, m = 0.5, 0.01, 12
        coeffs = np.random.default_rng(poly_degree).uniform(-1.0, 1.0, size=(poly_degree + 1, 2))
        poly = lambda t: np.power.outer(t, np.arange(poly_degree + 1)) @ coeffs
        hist = poly(-h + dt * np.arange(int(round(h / dt)) + 1))
        guess = warm_start(hist, m, step, _WARM_DEGREE)
        weights = _warm_weights(m, step, _WARM_DEGREE)
        bound = 64 * np.finfo(float).eps * (np.abs(weights[:, :, 0].T)
                                            @ np.abs(hist[-1 - 6 * step :: step]))
        assert np.all(np.abs(guess - poly(dt * np.arange(m + 1))) <= bound)
        assert np.all(np.abs(guess - lagrange_reference(hist, m, step, _WARM_DEGREE)) <= bound)
        assert np.array_equal(guess[0], hist[-1])

    def test_degree_zero_is_the_flat_start(self):
        hist = np.random.default_rng(0).uniform(-1.0, 1.0, size=(51, 3))
        for step in (1, 4):
            assert np.array_equal(warm_start(hist, 7, step, 0), np.tile(hist[-1], (8, 1)))

    def test_the_stencil_fits_the_history(self):
        # spacing m // 8, shrunk until six of it fit the history; a history
        # of fewer than 7 rows lowers the degree to what it holds
        assert _warm_stencil(250, 2000) == (31, 6)
        assert _warm_stencil(7, 2000) == (1, 6)
        assert _warm_stencil(800, 60) == (10, 6)
        assert _warm_stencil(800, 6) == (1, 6)
        assert [_warm_stencil(40, n_h) for n_h in range(1, 6)] == [(1, d) for d in range(1, 6)]

    def test_a_short_history_lowers_the_degree(self):
        # two rows hold a line, whatever the degree asked for
        prob = homogeneous_problem(h=0.01)
        run = RunFrame(prob, 0.01, 3)
        assert run.warm.shape == (2, 4, 1)
        hist = np.array([[1.0], [3.0]])
        assert np.array_equal(_warm_start(hist, run.warm, run.warm_step)[:, 0],
                              [3.0, 5.0, 7.0, 9.0])

    @pytest.mark.parametrize("n_modes", [1, 3, 8])
    @pytest.mark.parametrize("m", [1, 2, 7, 16, 40])
    def test_run_frame_columns_give_the_reference_bitwise(self, m, n_modes):
        # one run frame of width m serves every narrower window k: its
        # weights' first k+1 rows, and the guess they give, are a per-call
        # build's at the run's spacing to the bit, and the plain reference's
        # up to rounding
        run = RunFrame(homogeneous_problem(mu=np.arange(1.0, n_modes + 1.0)), 0.01, m)
        step, degree = _warm_stencil(m, run.n_h)
        assert run.warm_step == step and run.warm.shape == (degree + 1, m + 1, 1)
        hist = np.random.default_rng(100 * m + n_modes).uniform(-2.0, 2.0, size=(51, n_modes))
        for k in range(1, m + 1):
            own = _warm_weights(k, step, degree)
            assert run.warm[:, : k + 1].tobytes() == own.tobytes()
            got = _warm_start(hist, run.warm[:, : k + 1], step)
            assert got.tobytes() == _warm_start(hist, own, step).tobytes()
            assert got.tobytes() == loop_warm_start(hist, run.warm[:, : k + 1], step).tobytes()
            np.testing.assert_allclose(got, lagrange_reference(hist, k, step, degree),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 40])
    @pytest.mark.parametrize("degree", [0, 1, _WARM_DEGREE])
    @pytest.mark.parametrize("n_cols, cols", [(1, slice(None)), (5, np.array([0, 2, 3])),
                                              (5, slice(1, 4)), (256, slice(None))])
    def test_one_pass_is_the_elementwise_loop_bitwise(self, m, degree, n_cols, cols):
        # the axis-0 reduction adds the stencil rows oldest first, as the
        # loop does, on a prefix of the nodes too
        step = max(1, m // 8)
        hist = np.random.default_rng(m + 10 * degree + n_cols).uniform(
            -2.0, 2.0, size=(degree * step + 3, n_cols))
        weights = _warm_weights(m + 5, step, degree)
        for w in (_warm_weights(m, step, degree), weights[:, : m + 1]):
            got = _warm_start(hist, w, step, cols)
            assert got.shape == (m + 1, hist[:, cols].shape[1])
            assert got.tobytes() == loop_warm_start(hist, w, step, cols).tobytes()

    @staticmethod
    def _kinked_history(h, dt):
        # flat at 0, then a parabola over the last seven rows, the warm
        # start's stencil, up to phi(0) = 1: the guess continues it to
        # 64/9 over ten cells
        n_h = int(round(h / dt))
        hist = np.zeros((n_h + 1, 1))
        hist[-7:, 0] = (np.arange(7) / 6.0) ** 2
        return hist

    def _runs_as_the_flat_start(self, prob, hist, cfg, monkeypatch):
        out = solve_after(prob, hist, 0.0, cfg)
        monkeypatch.setattr(solver, "_warm_stencil", lambda m, n_h: (1, 0))
        flat = solve_after(prob, hist, 0.0, cfg)
        assert out.converged
        assert out.iterations == flat.iterations
        assert np.array_equal(out.stack.current(), flat.stack.current())

    def test_guess_outside_the_trust_region_falls_back_to_phi0(self, monkeypatch):
        prob = forced_problem(1, h=0.5)
        dt = 0.01
        hist = self._kinked_history(prob.h, dt)
        cfg = SolverConfig(dt=dt, window=0.1, tol=1e-12, trust_radius=3.0)
        frame = window_frame(prob, hist, 0.0, dt, 10)
        guess = _warm_start(hist, frame.run.warm, frame.run.warm_step)
        # exact up to rounding, as a polynomial history's guess is
        assert frame.run.warm_step == 1
        bound = 64 * np.finfo(float).eps * float(np.abs(frame.run.warm[:, -1, 0])
                                                 @ np.abs(hist[-7:, 0]))
        assert abs(guess[-1, 0] - 64.0 / 9.0) <= bound
        frame.load(guess)
        assert _drift_exceeds(frame, cfg.trust_radius)
        self._runs_as_the_flat_start(prob, hist, cfg, monkeypatch)

    def test_guess_past_y_max_falls_back_to_phi0(self, monkeypatch):
        op = SpectralOperator([1.0])
        f = FunctionalAffineTerm(0.0, 0.5, np.array([1.0]), "max",
                                 window=current_value_window(), y_max=2.0)
        prob = NeutralProblem(op, 0.5, 2.0, 0.5, ZeroTerm(), f, DomainSpec("time_only"), 0.0)
        dt = 0.01
        hist = self._kinked_history(prob.h, dt)
        cfg = SolverConfig(dt=dt, window=0.1, tol=1e-12)
        frame = window_frame(prob, hist, 0.0, dt, 10)
        guess = _warm_start(hist, frame.run.warm, frame.run.warm_step)
        assert guess.max() > 2.0
        stack = frame.load(guess)
        assert not _drift_exceeds(frame, cfg.trust_radius)
        with pytest.raises(DomainViolation):
            evaluate_window_operator(frame, stack)
        self._runs_as_the_flat_start(prob, hist, cfg, monkeypatch)

    def test_guess_is_not_returned_unmapped(self):
        # no term writes a column here, so G ignores the candidate and its
        # first image is the exact fixed point: iterate 1 measures no
        # column, accepts, and returns that image, not the guess
        prob = homogeneous_problem(mu=(1.0,))
        dt = 0.01
        thetas = -prob.h + dt * np.arange(51)
        seg = Segment(prob.h, thetas, np.exp(-thetas)[:, None])
        out = solve_after(prob, seg.values, 0.0, SolverConfig(dt=dt, window=0.1, tol=1e-6))
        assert out.iterations == 1 and out.residual == 0.0
        values = out.stack.current()
        assert np.array_equal(values, apply_operator(prob, seg, dt, values))


class TestWindowFrame:
    def test_reloading_a_candidate_gives_the_same_result(self):
        prob = _integral_problem()
        dt, m = 0.05, 6
        seg = _wobbly_segment(0.5, dt, 3, seed=1)
        rng = np.random.default_rng(2)
        frame = window_frame(prob, seg.values, 0.0, dt, m)
        active = frame.run.active
        assert 0 < frame.run.n_active < 3
        a, b = rng.uniform(-0.3, 0.3, size=(2, m + 1, frame.run.n_active))
        a[0] = b[0] = frame.phi0[active]
        first, other, again = (evaluate_window_operator(frame, frame.load(c)) for c in (a, b, a))
        assert not np.array_equal(first, other)
        np.testing.assert_array_equal(first, again)
        # the plain G of the rows loaded, up to the order the row norms sum in
        for got, c in ((first, a), (other, b)):
            want = apply_operator(prob, seg, dt, loaded_rows(frame, c))[:, active]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_drift_check_matches_the_plain_definition(self):
        from neutraldde.solver import _drift_exceeds

        prob = _integral_problem()
        dt, m = 0.05, 4
        seg = _wobbly_segment(0.5, dt, 3, seed=4)
        frame = window_frame(prob, seg.values, 0.0, dt, m)
        candidate = np.random.default_rng(5).uniform(-1.0, 1.0, size=(m + 1, frame.run.n_active))
        hist = seg.values
        combined = np.vstack([hist[:-1], loaded_rows(frame, candidate)])
        n_h = hist.shape[0] - 1
        drift = max(float(np.linalg.norm(combined[i : i + n_h + 1] - hist, axis=1).max())
                    for i in range(m + 1))
        frame.load(candidate)
        for radius in (np.nextafter(drift, 0.0), drift, np.nextafter(drift, np.inf),
                       0.5 * drift, 10.0 * drift):
            assert _drift_exceeds(frame, radius) == (drift > radius)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_loaded_row_reaches_the_exact_pass(self, bad, monkeypatch):
        prob = _integral_problem()
        dt, m = 0.05, 4
        seg = _wobbly_segment(0.5, dt, 3, seed=4)
        frame = window_frame(prob, seg.values, 0.0, dt, m)
        candidate = np.zeros((m + 1, frame.run.n_active))
        candidate[0] = frame.phi0[frame.run.active]
        candidate[2, 0] = bad
        frame.load(candidate)
        # every finite row passes the triangle-inequality screen at this
        # radius; the exact pass is the only caller of linalg.norm here
        norm, passes = np.linalg.norm, []
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: passes.append(1) or norm(*a, **k))
        # nan compares false with the radius, inf exceeds it
        assert _drift_exceeds(frame, 1e300) == (bad == np.inf)
        assert passes

    @pytest.mark.parametrize("name, g_calls", [("mass_growth", 0), ("parabolic_delay_mass", 1)])
    def test_window_invariants_are_computed_once_per_attempt(self, name, g_calls, monkeypatch):
        import neutraldde.continuation as continuation
        from neutraldde import continue_solution
        from neutraldde.config import build_run, parse_config
        from neutraldde.scenarios import get_scenario

        calls = {"attempts": 0, "grid": 0, "eval_g": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(continuation, "solve_window", counted("attempts", solve_window))
        monkeypatch.setattr(continuation, "segment_on_grid",
                            counted("grid", continuation.segment_on_grid))
        monkeypatch.setattr(NeutralProblem, "eval_g", counted("eval_g", NeutralProblem.eval_g))
        built = build_run(parse_config(get_scenario(name)))
        traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
        iterations = sum(w.iterations for w in traj.windows)
        assert calls["attempts"] >= len(traj.windows) > 1
        assert iterations > calls["attempts"]
        # the initial segment is put on the grid once per run, at the API edge
        assert calls["grid"] == 1
        # g(t0, phi) once per attempt, and never for the zero family, as
        # mass_growth's neutral term is
        assert calls["eval_g"] == g_calls * calls["attempts"]

    def test_windows_take_path_rows_without_sampling_segments(self, monkeypatch):
        import neutraldde.continuation as continuation
        from neutraldde import continue_solution
        from neutraldde.config import build_run, parse_config
        from neutraldde.scenarios import get_scenario

        calls = {"segment_at": 0}

        def counted_segment_at(*args):
            calls["segment_at"] += 1
            return segment_at(*args)

        monkeypatch.setattr(continuation, "segment_at", counted_segment_at)
        built = build_run(parse_config(get_scenario("manufactured_decay")))
        assert built.problem.domain.kind == "time_only"
        traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
        assert traj.event.kind == "reached_horizon" and len(traj.windows) > 1
        assert calls["segment_at"] == 0

    def test_window_rows_equal_the_sampled_segment(self, monkeypatch):
        # the path rows each window gets are bitwise the plain reference:
        # segment_at on the finished path at the window's start
        import neutraldde.continuation as continuation
        from neutraldde import continue_solution
        from neutraldde.config import build_run, parse_config
        from neutraldde.scenarios import get_scenario

        handed = []

        class RecordedFrame(WindowFrame):
            def __init__(self, run, path, t0, m):
                super().__init__(run, path, t0, m)
                handed.append((t0, self.hist.copy()))

        monkeypatch.setattr(solver, "WindowFrame", RecordedFrame)
        built = build_run(parse_config(get_scenario("mass_growth")))
        prob = built.problem
        traj = continue_solution(prob, built.initial_segment, 0.0, built.solver)
        assert len(handed) == len(traj.windows) > 1
        for (t0, hist), w in zip(handed, traj.windows):
            assert t0 == w.t0
            np.testing.assert_array_equal(hist, segment_at(traj.path, t0, prob.h).values)

    def test_loaded_stacks_carry_the_frame_times(self):
        # a time forcing on a frame's stack reads the frame's grid times
        op = SpectralOperator([1.0, 2.0])
        fns = [TimeFn("poly", (0.5, 2.0)), TimeFn("exp", (1.0, -0.3))]
        prob = NeutralProblem(op, 0.5, 2.0, 0.5, ZeroTerm(), TimeForcingTerm(fns),
                              DomainSpec("time_only"), 0.0)
        dt, m = 0.05, 4
        frame = window_frame(prob, np.ones((11, 2)), 0.35, dt, m)
        stack = frame.load(np.ones((m + 1, 2)))
        assert stack.times is frame.times
        np.testing.assert_array_equal(prob.f.evaluate_window(stack),
                                      np.column_stack([fn(frame.times) for fn in fns]))

    def test_history_of_the_wrong_shape_rejected(self):
        # a path too short for the history, of another mode count or of
        # another step than the run's
        prob = _integral_problem()
        dt = 0.05
        run = RunFrame(prob, dt, 4)
        hist = _wobbly_segment(0.5, dt, 3, seed=1).values
        WindowFrame(run, SolutionPath(-0.5, dt, hist), 0.0, 4)
        for bad in (SolutionPath(-0.45, dt, hist[1:]), SolutionPath(-0.5, dt, hist[:, :2]),
                    SolutionPath(-0.5, 0.025, _wobbly_segment(0.5, 0.025, 3, seed=1).values)):
            with pytest.raises(ValueError, match="grid rows"):
                WindowFrame(run, bad, 0.0, 4)

    def test_window_cells_outside_the_run_width_rejected(self):
        prob = _integral_problem()
        dt = 0.05
        run, path = window_inputs(prob, _wobbly_segment(0.5, dt, 3, seed=1).values, 0.0, dt, 4)
        for m in (0, -1, 5):
            with pytest.raises(ValueError, match="1..4 cells"):
                WindowFrame(run, path, 0.0, m)
        assert WindowFrame(run, path, 0.0, 1).m == 1

    def test_solver_step_other_than_the_run_step_rejected(self):
        prob = _integral_problem()
        run, path = window_inputs(prob, _wobbly_segment(0.5, 0.05, 3, seed=1).values, 0.0,
                                  0.05, 4)
        with pytest.raises(ValueError, match="not the run's step"):
            solve_window(run, path, 0.0, SolverConfig(dt=0.025, window=0.1), 1.0, 4)
        assert solve_window(run, path, 0.0, SolverConfig(dt=0.05, window=0.2), 1.0, 4).converged

    def test_each_candidate_is_loaded_once(self, monkeypatch):
        import neutraldde.continuation as continuation
        from neutraldde import continue_solution
        from neutraldde.config import build_run, parse_config
        from neutraldde.scenarios import get_scenario

        calls = {"attempts": 0, "loads": 0}
        load = WindowFrame.load

        def counted_load(self, candidate):
            calls["loads"] += 1
            return load(self, candidate)

        def counted_solve(*args):
            calls["attempts"] += 1
            return solve_window(*args)

        monkeypatch.setattr(WindowFrame, "load", counted_load)
        monkeypatch.setattr(continuation, "solve_window", counted_solve)
        built = build_run(parse_config(get_scenario("mass_growth")))
        traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
        # every attempt converged, so each loaded candidate was one iterate,
        # and each window's G(y) was loaded once more, to be returned
        assert calls["attempts"] == len(traj.windows) > 1
        assert calls["loads"] == sum(w.iterations for w in traj.windows) + len(traj.windows)

    def test_window_edges_are_resolved_once_per_run(self, monkeypatch):
        import neutraldde.continuation as continuation
        from neutraldde import continue_solution
        from neutraldde.config import build_run, parse_config
        from neutraldde.scenarios import get_scenario

        calls = {"attempts": 0, "windows_at": 0, "resolve": 0}
        widths = set()

        def recorded_solve(run, path, t0, cfg, damping, m):
            calls["attempts"] += 1
            widths.add(m)
            return solve_window(run, path, t0, cfg, damping, m)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        built = build_run(parse_config(get_scenario("mass_growth")))
        assert built.problem.f.window == current_value_window()
        monkeypatch.setattr(continuation, "solve_window", recorded_solve)
        monkeypatch.setattr(WindowFns, "windows_at", counted("windows_at", WindowFns.windows_at))
        monkeypatch.setattr(SegmentStack, "resolve", counted("resolve", SegmentStack.resolve))
        traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
        iterations = sum(w.iterations for w in traj.windows)
        assert calls["attempts"] >= len(traj.windows) > 1 and len(widths) == 1
        # f's running-max window, the only one, is lo = hi = 0 on every
        # slice whatever the window start: it is located and resolved once
        # for the run's one width, and every iterate after gathers
        assert calls["attempts"] < iterations
        assert calls["windows_at"] == calls["resolve"] == 1

    def test_run_tables_are_built_once_per_run_and_width(self, monkeypatch):
        import neutraldde.continuation as continuation
        from neutraldde import continue_solution
        from neutraldde.config import build_run, parse_config
        from neutraldde.scenarios import get_scenario

        calls = {"cell_weights": 0, "scan_tables": 0}
        widths = set()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def recorded_solve(run, path, t0, cfg, damping, m):
            widths.add(m)
            return solve_window(run, path, t0, cfg, damping, m)

        monkeypatch.setattr(solver, "cell_weights", counted("cell_weights", solver.cell_weights))
        monkeypatch.setattr(solver, "_ScanTables", counted("scan_tables", solver._ScanTables))
        monkeypatch.setattr(continuation, "solve_window", recorded_solve)
        built = build_run(parse_config(get_scenario("mass_growth")))
        traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
        assert len(traj.windows) > 1 and len(widths) == 1
        assert calls == {"cell_weights": 1, "scan_tables": 1}

        # a 6-cell window leaves the trust region and is halved to 3 cells;
        # the last window is 4 cells; all three read the tables of the first
        calls.update(cell_weights=0, scan_tables=0)
        widths.clear()
        prob = homogeneous_problem(T=1.0)
        cfg = SolverConfig(dt=0.01, window=0.12, tol=1e-12, trust_radius=0.03)
        traj = continue_solution(prob, constant_segment(0.5, [1.0], 0.01), 0.0, cfg)
        assert traj.event.kind == "reached_horizon"
        assert widths == {3, 4, 6} and len(traj.windows) > len(widths)
        assert calls == {"cell_weights": 1, "scan_tables": 1}

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 13])
    def test_a_run_frame_serves_every_narrower_window_bitwise(self, m):
        # a k-cell frame reads a prefix of the run's m-cell tables: what it
        # holds and what G gives equal a k-cell build to the bit
        prob = _integral_problem()
        dt, t0 = 0.05, 0.35
        hist = _wobbly_segment(0.5, dt, 3, seed=m).values
        run = RunFrame(prob, dt, m)
        rng = np.random.default_rng(m)
        for k in range(1, m + 1):
            own = RunFrame(prob, dt, k)
            frame = window_frame(prob, hist, t0, dt, k, run)
            fresh = window_frame(prob, hist, t0, dt, k, own)
            assert run.decay[: k + 1].tobytes() == own.decay.tobytes()
            assert frame.times.tobytes() == (t0 + own.offsets).tobytes()
            # the scan tables of a k-cell build are prefixes of the run's,
            # and so are the warm start's weights
            assert run.scan.span.tobytes() == own.scan.span.tobytes()
            for mine, theirs in ((run.scan.down, own.scan.down), (run.scan.up, own.scan.up)):
                assert mine[: theirs.shape[0]].tobytes() == theirs.tobytes()
            assert len(run.scan.factors) >= len(own.scan.factors)
            for a, b in zip(run.scan.factors, own.scan.factors):
                assert a.tobytes() == b.tobytes()
            assert run.warm[:, : k + 1].tobytes() == _warm_weights(
                k, run.warm_step, run.warm.shape[0] - 1).tobytes()
            assert frame.free.tobytes() == fresh.free.tobytes()
            candidate = rng.uniform(-0.3, 0.3, size=(k + 1, run.n_active))
            candidate[0] = frame.phi0[run.active]
            got = evaluate_window_operator(frame, frame.load(candidate))
            want = evaluate_window_operator(fresh, fresh.load(candidate))
            assert got.tobytes() == want.tobytes()
        # a wider window, or a path of another step, is refused
        with pytest.raises(ValueError, match=f"1..{m} cells"):
            window_frame(prob, hist, t0, dt, m + 1, run)
        with pytest.raises(ValueError, match="grid rows"):
            WindowFrame(run, SolutionPath(t0 - prob.h, 2 * dt, hist), t0, 1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_frame_delay_masses_match_a_fresh_stack(data):
    # A frame adds the history's block of trapezoid sums once: every load
    # must give what a fresh public stack over the same rows gives.  Two
    # frames of one run with their own histories, three candidates each in
    # turn, every column active; m = 1, m + 1 < n_h and m + 1 > n_h.
    n_h = data.draw(st.sampled_from([3, 4, 5, 8, 10]))
    dt = 1.0 / n_h
    n_modes = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    prob = forced_problem(n_modes)
    run = RunFrame(prob, dt, 3 * n_h)
    for m in (1, data.draw(st.integers(1, n_h - 2)), data.draw(st.integers(n_h, 3 * n_h))):
        frames = [window_frame(prob, rng.uniform(-2.0, 2.0, size=(n_h + 1, n_modes)), t0, dt, m,
                               run) for t0 in (0.0, 0.5)]
        for _ in range(3):
            for frame in frames:
                got = frame.load(rng.uniform(-2.0, 2.0, size=(m + 1, n_modes))).integral_norms()
                fresh = SegmentStack(1.0, dt, frame.rows.copy()).integral_norms()
                assert got.tobytes() == fresh.tobytes()


#: beta(t) = -0.9 + 1.3 t, alpha(t) = -0.1 + 0.7 t: on t in [0, 1] the window
#: [-0.9 + 0.3 t, -0.1 - 0.3 t] moves and shrinks inside [-1, 0]
MOVING_WINDOW = WindowFns(beta0=-0.9, beta1=1.3, alpha0=-0.1, alpha1=0.7)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_frame_resolved_window_maxima_match_the_reference(data):
    # Two frames of one problem at different t0 and several candidates per
    # frame, loaded in turn: the edges each frame resolves once must give
    # what a fresh stack and the scalar functional give on every load.
    n_h = data.draw(st.sampled_from([4, 5, 8, 10]))
    dt = 1.0 / n_h
    m = data.draw(st.integers(1, n_h // 2))
    n_modes = data.draw(st.integers(1, 3))
    # t0 apart by at least 0.1, so the moving window's edges differ between frames
    t0s = [data.draw(st.floats(0.0, 0.2)), data.draw(st.floats(0.3, 0.5))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    thetas = -1.0 + dt * np.arange(n_h + 1)
    # fixed edges on a node, within half the snapping slack of one, or
    # strictly inside a cell
    offsets = st.sampled_from([0.0, 0.5 * _GRID_EPS, -0.5 * _GRID_EPS, 0.3, 0.7])
    edges = sorted(min(max(float(thetas[data.draw(st.integers(0, n_h))])
                           + data.draw(offsets) * dt, -1.0), 0.0) for _ in range(2))
    windows = [None, full_history_window(1.0), current_value_window(), MOVING_WINDOW,
               WindowFns(beta0=edges[0], beta1=1.0, alpha0=edges[1], alpha1=1.0)]
    terms = [FunctionalAffineTerm(0.0, 1.0, np.ones(n_modes), "max", window=w) for w in windows]
    prob = forced_problem(n_modes)
    hist = rng.uniform(-2.0, 2.0, size=(n_h + 1, n_modes))
    frames = [window_frame(prob, hist, t0, dt, m) for t0 in t0s]
    for _ in range(3):
        for frame in frames:
            stack = frame.load(rng.uniform(-2.0, 2.0, size=(m + 1, n_modes)))
            fresh = SegmentStack(1.0, dt, stack.values.copy())
            for w, term in zip(windows, terms):
                got = term.functional_values(stack)
                lo, hi = (-1.0, 0.0) if w is None else w.windows_at(frame.times, 1.0)
                lo, hi = np.broadcast_to(lo, (m + 1,)), np.broadcast_to(hi, (m + 1,))
                np.testing.assert_array_equal(got, fresh.gather(fresh.resolve(lo, hi)))
                for i in range(m + 1):
                    seg = Segment._trusted(1.0, thetas, fresh.values[i : i + n_h + 1])
                    want = max_norm_functional(seg, lo[i], hi[i])
                    # endpoint norms may sum the modes in another order
                    assert got[i] == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_resolved_window_edges_match_a_fresh_resolve(data):
    # One run's attempts in the order a march gives them: a window halved on
    # failure, accepted windows at the run's width and a last window cut at
    # the horizon, two loads each.  Every gather must be what a fresh
    # resolve of the same windows gives, to the bit.  The run's store holds
    # the edges every stack gathers at: the whole slice and every window
    # with both slopes 1 are resolved once per width, whatever the window
    # start, and a moving window once per attempt's start.
    n_h = data.draw(st.sampled_from([4, 5, 8, 10]))
    dt = 1.0 / n_h
    m = data.draw(st.integers(1, n_h))
    n_modes = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # a unit-slope affine window off the nodes
    b0 = -1.0 + data.draw(st.floats(0.05, 0.45))
    a0 = b0 + data.draw(st.floats(0.0, 0.5))
    windows = [None, current_value_window(), WindowFns(b0, 1.0, a0, 1.0), MOVING_WINDOW]
    prob = forced_problem(n_modes)
    hist = rng.uniform(-2.0, 2.0, size=(n_h + 1, n_modes))
    run = RunFrame(prob, dt, m)
    first = {}
    start, k = 0, m
    while start < n_h:
        frame = window_frame(prob, hist, start * dt, dt, k, run)
        at_start = {}
        for _ in range(2):
            stack = frame.load(rng.uniform(-2.0, 2.0, size=(k + 1, n_modes)))
            fresh = SegmentStack(1.0, dt, stack.values.copy())
            for w in windows:
                edges = stack.window_edges(w)
                got = stack.gather(edges)
                lo, hi = (-1.0, 0.0) if w is None else w.windows_at(frame.times, 1.0)
                assert got.tobytes() == fresh.gather(fresh.resolve(lo, hi)).tobytes()
                assert edges is run.edges[(w, k + 1)][1]
                assert edges is at_start.setdefault(w, edges)
        for w in windows[:3]:
            assert at_start[w] is first.setdefault((w, k), at_start[w])
        if k > 1 and data.draw(st.booleans()):
            k //= 2  # the attempt failed
        else:
            start += k
            k = min(m, n_h - start)


# ---------------------------------------------------------------------------
# active columns: the split iteration against the plain full-width one


def plain_drift(hist, candidate):
    """The largest distance of a sliding history slice of the candidate
    from the initial history (sup-norm over theta)."""
    rows = np.vstack([hist[:-1], candidate])
    n_h = hist.shape[0] - 1
    return max(float(np.linalg.norm(rows[i : i + n_h + 1] - hist, axis=1).max())
               for i in range(candidate.shape[0]))


@np.errstate(over="ignore", invalid="ignore")
def unsplit_solve(prob, hist, t0, cfg, damping=1.0):
    """``solve_window`` as plainly defined: every iterate, the first
    included, is loaded, mapped, checked and measured on every column of
    public stacks (``plain_operator``).  Returns (values, iterations,
    residual, contraction, status)."""
    hist = np.asarray(hist, dtype=float)
    m = int(round(cfg.window / cfg.dt))
    step, degree = _warm_stencil(m, hist.shape[0] - 1)
    y = loop_warm_start(hist, _warm_weights(m, step, degree), step)
    gy = None
    if plain_drift(hist, y) <= cfg.trust_radius:
        try:
            gy = plain_operator(prob, hist, t0, cfg.dt, y)
        except DomainViolation:
            pass
        if gy is not None and not np.all(np.isfinite(gy)):
            gy = None
    if gy is None:
        y = np.tile(hist[-1], (m + 1, 1))
        if plain_drift(hist, y) > cfg.trust_radius:
            return y, 0, np.inf, 0.0, "left_trust_region"
    prev, residual, contraction = None, np.inf, 0.0
    for it in range(1, cfg.max_iter + 1):
        if gy is None:
            gy = plain_operator(prob, hist, t0, cfg.dt, y)
            assert np.all(np.isfinite(gy))
        residual = float(np.linalg.norm(gy - y, axis=1).max())
        if prev is not None and prev > 0.0:
            contraction = residual / prev
        if residual <= cfg.tol:
            return gy, it, residual, contraction, "converged"
        prev = residual
        y = gy if damping == 1.0 else (1.0 - damping) * y + damping * gy
        y[0] = hist[-1]
        gy = None
        if plain_drift(hist, y) > cfg.trust_radius:
            return y, it, residual, contraction, "left_trust_region"
    return y, cfg.max_iter, residual, contraction, "diverged"


#: (mode count, written columns): none, one, several apart, a block of three
#: among others, and all
ACTIVE_SETS = [(1, []), (1, [0]), (3, []), (3, [1]), (3, [0, 2]), (3, [0, 1, 2]),
               (8, []), (8, [5]), (8, [0, 2, 3, 7]), (8, [3, 4, 5]), (8, list(range(8)))]
#: the term pairs of a window: every family on either side
TERM_PAIRS = ["zero/time_forcing", "integral/zero", "max/time_forcing", "integral/max_current",
              "point_delay/time_forcing", "zero/zero"]


def _active_problem(n_modes, written, pair):
    """A problem on ``n_modes`` modes whose term pair ``pair`` writes the
    columns ``written``, or None when the pair cannot: a point delay writes
    every column and two zero terms none.  Of an affine pair, the neutral
    term takes every other written column and the forcing the rest."""
    live = np.isin(np.arange(n_modes), written)
    g_name, f_name = pair.split("/")
    if (g_name == "point_delay" and not live.all()) or (pair == "zero/zero" and live.any()):
        return None
    g_cols = f_cols = live
    if pair == "integral/max_current":
        g_cols = live & np.isin(np.arange(n_modes), written[::2])
        f_cols = live & ~g_cols
    weights = np.linspace(0.4, 0.1, n_modes)
    vanishing = [TimeFn("const", (0.0,)), TimeFn("poly", (0.0, 0.0)), TimeFn("exp", (0.0, 1.5))]
    fns = [TimeFn("exp", (0.3, -0.2 * k)) if on else vanishing[k % 3]
           for k, on in enumerate(f_cols)]
    h = 0.5
    terms = {
        "zero": ZeroTerm(),
        "integral": FunctionalAffineTerm(0.05, 0.1, np.where(g_cols, weights, 0.0), "integral"),
        "max": FunctionalAffineTerm(0.05, 0.1, np.where(g_cols, weights, 0.0), "max",
                                    window=full_history_window(h)),
        "max_current": FunctionalAffineTerm(0.0, 0.3, np.where(f_cols, weights, 0.0), "max",
                                            window=current_value_window()),
        "time_forcing": TimeForcingTerm(fns),
        "point_delay": PointDelayTerm(0.2),
    }
    op = SpectralOperator(np.geomspace(0.5, 40.0, n_modes))
    return NeutralProblem(op, h, 2.0, 0.5, terms[g_name], terms[f_name],
                          DomainSpec("time_only"), 0.3)


def _active_cases():
    for n_modes, written in ACTIVE_SETS:
        for pair in TERM_PAIRS:
            if _active_problem(n_modes, written, pair) is not None:
                yield pytest.param(n_modes, written, pair, id=f"{n_modes}-{written}-{pair}")


@pytest.mark.parametrize("n_modes, written, pair", list(_active_cases()))
def test_operator_on_the_active_columns_is_the_full_operator_there(n_modes, written, pair):
    # a frame's window rows hold phi(0) and, in the passive columns, the
    # free evolution from construction on; a load writes the active
    # columns.  G on the active columns is the plain G of those rows there,
    # bitwise when no column is passive and otherwise up to the order each
    # row norm sums in, and in the passive columns the plain G is what the
    # rows already hold, so the rows are its fixed point there
    prob = _active_problem(n_modes, written, pair)
    dt, m, t0 = 0.05, 6, 0.35
    rng = np.random.default_rng(n_modes + len(written))
    hist = rng.uniform(-0.3, 0.3, size=(11, n_modes))
    run = RunFrame(prob, dt, m)
    contiguous = not written or written[-1] - written[0] + 1 == len(written)
    assert isinstance(run.active, slice) == contiguous
    assert np.arange(n_modes)[run.active].tolist() == written and run.n_active == len(written)
    passive = ~np.isin(np.arange(n_modes), written)
    frame = window_frame(prob, hist, t0, dt, m, run)
    assert frame.free.tobytes() == full_free(frame)[:, run.active].tobytes()
    for _ in range(2):
        candidate = rng.uniform(-0.3, 0.3, size=(m + 1, len(written)))
        candidate[0] = frame.phi0[run.active]
        got = evaluate_window_operator(frame, frame.load(candidate))
        rows = loaded_rows(frame, candidate)
        assert frame.rows[10:].tobytes() == rows.tobytes()
        want = plain_operator(prob, hist, t0, dt, rows)
        assert got.shape == (m + 1, len(written))
        assert want[:, passive].tobytes() == rows[:, passive].tobytes()
        plain_norms = np.linalg.norm(frame.rows, axis=1)
        if passive.any():
            np.testing.assert_allclose(got, want[:, run.active], rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(frame.norms, plain_norms, rtol=4e-16, atol=0.0)
        else:
            assert got.tobytes() == want.tobytes()
            assert frame.norms.tobytes() == plain_norms.tobytes()


#: How far the active-only and the plain iteration may end apart, in units
#: of cfg.tol: each ends within q tol / (1 - q) of the fixed point, and the
#: measured contraction q stays below 0.1 on these windows (measured: 0.74).
SPLIT_DISTANCE = 2.0


@pytest.mark.parametrize("n_modes, written, pair", list(_active_cases()))
def test_split_iteration_is_the_unsplit_one(n_modes, written, pair):
    # Without a passive column the active-only iteration is the plain one,
    # bit for bit.  With passive columns it starts them at their fixed
    # point and sums row norms in another order, so it ends within
    # SPLIT_DISTANCE * tol of the plain one, and from the same start it
    # takes no more iterates.  The start can differ at a finite trust
    # radius: the plain iteration judges the extrapolated guess on every
    # column, and the random history here extrapolates far enough in the
    # passive columns alone to drop the guess that the split one keeps.
    prob = _active_problem(n_modes, written, pair)
    hist = np.random.default_rng(7).uniform(-0.3, 0.3, size=(11, n_modes))
    for radius in (SolverConfig.trust_radius, math.inf):
        cfg = SolverConfig(dt=0.05, window=0.3, tol=1e-12, trust_radius=radius)
        for damping in (1.0, 0.5):
            out = solve_after(prob, hist, 0.35, cfg, damping)
            values, iterations, residual, contraction, status = unsplit_solve(
                prob, hist, 0.35, cfg, damping)
            assert out.status == status == "converged"
            got = out.stack.current()
            if len(written) == n_modes:
                assert got.tobytes() == values.tobytes()
                assert (out.iterations, out.residual, out.contraction_estimate) == (
                    iterations, residual, contraction)
                continue
            assert float(np.abs(got - values).max()) <= SPLIT_DISTANCE * cfg.tol
            if radius == math.inf:
                assert out.iterations <= iterations


def test_active_columns_of_the_bundled_scenarios():
    # the union of the terms' supports: none for pure decay, the profile's
    # one mode for the running maximum, and every mode for a point delay
    from neutraldde.config import build_run, parse_config
    from neutraldde.scenarios import get_scenario

    expected = {"heat_decay": [], "parabolic_max": [0], "parabolic_delay_mass": [0],
                "mass_growth": [0], "manufactured_decay": [0]}
    for name, want in expected.items():
        built = build_run(parse_config(get_scenario(name)))
        run = RunFrame(built.problem, built.solver.dt, 1)
        assert isinstance(run.active, slice)
        assert np.arange(built.problem.op.n_modes)[run.active].tolist() == want, name


def committed_rows(traj, w):
    """The rows of the run's path from the window ``w``'s start to its end."""
    i = traj.path.index_of(w.t0)
    return traj.path.values[i : i + int(round(w.window / traj.path.dt)) + 1]


def test_passive_modes_take_the_free_evolution_through_a_run(monkeypatch):
    # parabolic_delay_mass at 64 modes with data on every mode: both terms
    # sit on mode 1, so modes >= 2 only decay.  Their columns match
    # c_k e^(-mu_k t), and in every window they are the frame's free
    # evolution, bitwise, with a -0.0 of it read as +0.0 as the full G gives
    from neutraldde import continue_solution
    from neutraldde.config import build_run, parse_config
    from neutraldde.scenarios import get_scenario

    frames = []

    class RecordedFrame(WindowFrame):
        def __init__(self, *args):
            super().__init__(*args)
            frames.append(self)

    monkeypatch.setattr(solver, "WindowFrame", RecordedFrame)
    n = 64
    k = np.arange(1, n + 1)
    coeffs = np.where(k == 1, 0.3, 0.02 * (-1.0) ** k / k)
    text = get_scenario("parabolic_delay_mass")
    listed = " ".join(repr(float(c)) for c in coeffs)
    for old, new in (("n_modes = 8", f"n_modes = {n}"),
                     ("coeffs = 0.3 0 0 0 0 0 0 0", f"coeffs = {listed}")):
        assert old in text
        text = text.replace(old, new)
    built = build_run(parse_config(text))
    prob = built.problem
    traj = continue_solution(prob, built.initial_segment, 0.0, built.solver)
    assert traj.event.kind == "reached_horizon" and len(traj.windows) > 1
    assert all(frame.run.active == slice(0, 1) for frame in frames)

    times = traj.path.times()
    exact = coeffs[1:] * np.exp(-np.outer(np.maximum(times, 0.0), prob.op.mu[1:]))
    assert float(np.abs(traj.path.values[:, 1:] - exact).max()) <= 1e-12
    negative_zeros = 0
    for w in traj.windows:
        m = int(round(w.window / built.solver.dt))
        frame = [f for f in frames if f.t0 == w.t0 and f.m == m][-1]
        free = full_free(frame)[1:, 1:]
        negative_zeros += int(np.sum((free == 0.0) & np.signbit(free)))
        values = committed_rows(traj, w)
        assert values[1:, 1:].tobytes() == (free + 0.0).tobytes()
        assert values[0].tobytes() == frame.phi0.tobytes()
    assert negative_zeros > 0


def test_a_run_without_active_columns_converges_at_iterate_one(monkeypatch):
    # heat_decay: neither term writes a column, so every window's rows hold
    # G's fixed point from construction on; iterate 1, of the guess,
    # measures no column and accepts, and its image is those rows
    from neutraldde import continue_solution
    from neutraldde.config import build_run, parse_config
    from neutraldde.scenarios import get_scenario

    frames = []

    class RecordedFrame(WindowFrame):
        def __init__(self, *args):
            super().__init__(*args)
            frames.append(self)

    monkeypatch.setattr(solver, "WindowFrame", RecordedFrame)
    built = build_run(parse_config(get_scenario("heat_decay")))
    traj = continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
    assert traj.event.kind == "reached_horizon" and len(traj.windows) > 1
    assert len(frames) == len(traj.windows) and frames[0].run.n_active == 0
    for w, frame in zip(traj.windows, frames):
        assert (w.iterations, w.residual, w.contraction_estimate) == (1, 0.0, 0.0)
        want = loaded_rows(frame, np.empty((frame.m + 1, 0)))
        assert committed_rows(traj, w).tobytes() == want.tobytes()


def test_attempts_write_only_the_rows_past_the_path():
    # A frame solves in the path's own buffer: its free rows past the end.
    # A failed attempt (diverged, left the trust region, blown up) and a
    # halved retry leave every committed row and norm of the path, and of
    # an earlier head, as they were; an attempt after a head, which has no
    # free rows, works in a copy, and a converged window is committed
    # without a copy.
    from neutraldde.history import SolutionPath, extend

    prob = _integral_problem()
    dt, m = 0.05, 6
    run = RunFrame(prob, dt, m)
    path = SolutionPath(-0.5, dt, _wobbly_segment(0.5, dt, 3, seed=3).values)
    out = solve_window(run, path, 0.0, SolverConfig(dt=dt, window=0.3), 1.0, m)
    rows = path._rows
    assert out.converged and np.shares_memory(out.stack.values, rows)
    path = extend(path, out.stack.n_windows - 1)
    assert path._rows is rows and path.n_times == 11 + m
    head = path.head(path.n_times - 2)
    kept = [(p, p.values.tobytes(), p.norms.tobytes()) for p in (path, head)]

    def unchanged():
        return all(p.values.tobytes() == v and p.norms.tobytes() == n for p, v, n in kept)

    t0 = 0.3
    for cfg, k, status in ((SolverConfig(dt=dt, window=0.3, tol=1e-16, max_iter=2), m, "diverged"),
                           (SolverConfig(dt=dt, window=0.3, trust_radius=1e-9), m,
                            "left_trust_region"),
                           (SolverConfig(dt=dt, window=0.3, trust_radius=1e-9), m // 2,
                            "left_trust_region")):
        for damping in (1.0, 0.5):
            assert solve_window(run, path, t0, cfg, damping, k).status == status
            assert unchanged() and path.n_times == 11 + m
    # a head has no free rows: its attempt writes a copy
    out = solve_window(run, head, t0 - 2 * dt, SolverConfig(dt=dt, window=0.3), 1.0, m)
    assert out.converged and not np.shares_memory(out.stack.values, path._rows)
    assert unchanged()

    f = FunctionalAffineTerm(0.0, 1e300, [1.0], "integral")
    blowup = NeutralProblem(SpectralOperator([1.0]), 0.5, 2.0, 0.5, ZeroTerm(), f,
                            DomainSpec("time_only"), 0.0)
    ones = SolutionPath(-0.5, dt, np.ones((11, 1)))
    rows, norms = ones._reserve(2)
    rows[11:13], norms[11:13] = 1.0, 1.0
    ones = extend(ones, 2)
    head = ones.head(12)
    kept = [(p, p.values.tobytes(), p.norms.tobytes()) for p in (ones, head)]
    for hist in (ones, head):
        with pytest.raises(NumericalBlowup):
            solve_window(RunFrame(blowup, dt, 4), hist, 0.1,
                         SolverConfig(dt=dt, window=0.2, trust_radius=math.inf), 1.0, 4)
        assert unchanged()


def test_fixed_window_edges_are_located_once_per_run(monkeypatch):
    # A window whose slopes are both 1 has the edges b0 + 0.0 t and
    # a0 + 0.0 t, exactly b0 and a0 at every finite t, so the current-value
    # window, the whole-history window and any unit-slope affine window are
    # located once per run and width; the edges each attempt gathers at are
    # still what resolve gives for windows_at at its own grid times.
    import neutraldde.continuation as continuation
    from neutraldde import continue_solution
    from neutraldde.config import build_run, parse_config
    from neutraldde.scenarios import get_scenario

    assert current_value_window().fixed and full_history_window(0.3).fixed
    assert WindowFns(0.0, 1.0, -0.1, 1.0).fixed and not MOVING_WINDOW.fixed
    assert not WindowFns(-0.1, 1.0, 0.0, 1.02).fixed
    times = 0.01 * np.arange(1, 500)
    assert not np.any(current_value_window().windows_at(times * 1e6 + 0.1, 0.3))

    frames, calls = [], {"windows_at": 0}

    class RecordedFrame(WindowFrame):
        def __init__(self, *args):
            super().__init__(*args)
            frames.append(self)

    windows_at = WindowFns.windows_at

    def counted(self, times, h):
        calls["windows_at"] += 1
        return windows_at(self, times, h)

    built = build_run(parse_config(get_scenario("mass_growth")))
    prob = built.problem
    window = prob.f.window
    assert window == current_value_window()
    monkeypatch.setattr(solver, "WindowFrame", RecordedFrame)
    monkeypatch.setattr(WindowFns, "windows_at", counted)
    traj = continue_solution(prob, built.initial_segment, 0.0, built.solver)
    assert calls["windows_at"] == 1 and len(frames) == len(traj.windows) > 1
    monkeypatch.undo()
    n_h = frames[0].n_h
    for frame in frames:
        fresh = SegmentStack(prob.h, frame.dt, np.zeros((n_h + frame.m + 1, 1)), frame.t0)
        want = fresh.resolve(*window.windows_at(frame.times, prob.h))
        got = frame.run.edges[(window, frame.m + 1)][1]
        assert [a.tobytes() for a in _leaves(got)] == [b.tobytes() for b in _leaves(want)]


@pytest.mark.parametrize("window, per_start", [("affine:-0.503,1,-0.2,1", False),
                                               ("affine:-0.731,1.02,-0.3,0.9", True)])
def test_window_edges_are_resolved_once_per_width_or_window_start(monkeypatch, window,
                                                                   per_start):
    # parabolic_max's g reads a running maximum: a unit-slope affine window
    # is resolved once per width of the run, and a moving one once per
    # window start, which a retry at that start (same t0 and width) reuses
    import neutraldde.continuation as continuation
    from neutraldde import continue_solution
    from neutraldde.config import build_run, parse_config
    from neutraldde.scenarios import get_scenario

    text = get_scenario("parabolic_max")
    assert "g_window = full" in text
    built = build_run(parse_config(text.replace("g_window = full", f"g_window = {window}")))
    assert built.problem.g.window.fixed is not per_start
    attempts, resolved = [], []

    def recorded_solve(run, path, t0, cfg, damping, m):
        attempts.append((t0, m))
        return solve_window(run, path, t0, cfg, damping, m)

    resolve = SegmentStack.resolve

    def counted(self, lo, hi):
        resolved.append((float(self.times[0]), self.n_windows - 1))
        return resolve(self, lo, hi)

    monkeypatch.setattr(continuation, "solve_window", recorded_solve)
    monkeypatch.setattr(SegmentStack, "resolve", counted)
    continue_solution(built.problem, built.initial_segment, 0.0, built.solver)
    widths = {m for _, m in attempts}
    assert len(attempts) > len(widths) > 1
    if per_start:
        assert resolved == list(dict.fromkeys(attempts))
    else:
        assert len(resolved) == len({m for _, m in resolved}) == len(widths)

    # attempts at one start and width, as a damping retry makes, share one resolve
    run = RunFrame(built.problem, 0.01, 10)
    resolved.clear()
    for t0 in (0.5, 0.5, 0.6):
        frame = window_frame(built.problem, np.full((101, 3), 0.1), t0, 0.01, 10, run)
        evaluate_window_operator(frame, frame.load(np.full((11, run.n_active), 0.1)))
    assert resolved == ([(0.5, 10), (0.6, 10)] if per_start else [(0.5, 10)])


def _leaves(edges):
    # the arrays of a WindowEdges, its two _Edge tuples unpacked
    for part in edges:
        yield from part if isinstance(part, tuple) else (part,)


class TestHeuristicWindow:
    def test_half_contraction_budget(self):
        prob = homogeneous_problem(mu=(1.0,), h=1.0)
        prob.mg_bound = 0.5
        cfg = SolverConfig(dt=1e-3, window=1.0)
        w = heuristic_window(prob, cfg)
        assert w == pytest.approx(1.0 / 15.0)

    def test_tight_contraction_budget(self):
        prob = homogeneous_problem(mu=(1.0,), h=1.0)
        prob.mg_bound = 0.9
        cfg = SolverConfig(dt=1e-3, window=1.0)
        assert heuristic_window(prob, cfg) == pytest.approx(1.0 / 71.0)

    def test_caps_at_configured_window(self):
        prob = homogeneous_problem(mu=(1.0,), h=1.0)
        prob.mg_bound = 0.5
        cfg = SolverConfig(dt=1e-3, window=0.02)
        assert heuristic_window(prob, cfg) == pytest.approx(0.02)

    def test_unit_budget_rejected_at_construction(self):
        op = SpectralOperator([1.0])
        with pytest.raises(HypothesisViolation):
            NeutralProblem(op, 1.0, 2.0, 0.5, ZeroTerm(), ZeroTerm(),
                           DomainSpec("time_only"), 1.0)


class TestNeutralContraction:
    def test_sampled_ratio_within_budget(self):
        op = make_dirichlet_laplacian(4, math.pi)
        profile = sine_profile_coeffs(op, 1)
        c1 = 0.05
        g = FunctionalAffineTerm(0.0, c1, profile, "integral", y_max=1.0)
        mg = c1 * 1.0 * float(np.linalg.norm(op.mu**0.5 * profile))
        f = FunctionalAffineTerm(0.0, 0.2, profile, "integral", y_max=1.0)
        prob = NeutralProblem(op, 1.0, 2.0, 0.5, g, f,
                              DomainSpec("delay_mass", 1.0), mg + 0.005)
        dt = 0.01
        seg = constant_segment(1.0, [0.3, 0.0, 0.0, 0.0], dt)
        cfg = SolverConfig(dt=dt, window=0.1, tol=1e-10)
        out = solve_after(prob, seg.values, 0.0, cfg)
        assert out.converged
        ratio = sample_neutral_contraction(prob, seg.values, 0.0, out.stack.current(), dt, 50,
                                           seed=6)
        assert ratio <= prob.mg_bound + 0.01


class TestSolverConfig:
    @pytest.mark.parametrize("max_iter", [math.nan, 2.5, 0, -3])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        # a float count would only fail later, in the iteration's range()
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            SolverConfig(dt=0.1, window=0.1, max_iter=max_iter)
        assert SolverConfig(dt=0.1, window=0.1, max_iter=np.int64(3)).max_iter == 3

    def test_grid_divisibility_enforced(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.03, window=0.1)
        cfg = SolverConfig(dt=0.02, window=0.1)
        cfg.validate_grid(0.1, 2.0)
        with pytest.raises(ValueError, match="delay span"):
            cfg.validate_grid(0.05, 2.0)
        with pytest.raises(ValueError, match="horizon span"):
            cfg.validate_grid(0.1, 2.01)
        with pytest.raises(ValueError, match="horizon span"):
            cfg.validate_grid(0.1, math.inf)
        # a span shorter than one step rounds to 0 steps, which would pass
        # the whole-multiple test
        with pytest.raises(ValueError, match="shorter than one grid step"):
            SolverConfig(dt=0.02, window=1e-300)
        with pytest.raises(ValueError, match="delay span .* shorter"):
            cfg.validate_grid(1e-300, 2.0)
        with pytest.raises(ValueError, match="horizon span .* shorter"):
            cfg.validate_grid(0.1, 1e-300)

    def test_delay_span_holds_at_most_the_bound(self):
        # checked on the spans alone, before anything is allocated; the
        # horizon and the window are not bounded
        cfg = SolverConfig(dt=1.0, window=1e300)
        cfg.validate_grid(float(solver._MAX_DELAY_CELLS), 1e300)
        with pytest.raises(ValueError, match="delay span .* more than"):
            cfg.validate_grid(float(solver._MAX_DELAY_CELLS + 1), 1.0)

    def test_history_holds_at_most_the_value_bound(self):
        # the n_h + 1 rows times the mode count, checked before anything is
        # allocated
        cfg = SolverConfig(dt=1.0, window=1.0)
        cap = solver._MAX_HISTORY_VALUES
        cfg.validate_grid(99.0, 1.0, cap // 100)
        with pytest.raises(ValueError, match="a history of 100 rows .* more than"):
            cfg.validate_grid(99.0, 1.0, cap // 100 + 1)
        with pytest.raises(ValueError, match="a history of 2 rows .* more than"):
            cfg.validate_grid(1.0, 1.0, 10**22)

    def test_tol_and_trust_radius_ranges(self):
        # an infinite tol accepts the warm start; nan fails every comparison
        for tol in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol"):
                SolverConfig(dt=0.02, window=0.1, tol=tol)
        for radius in (-1.0, math.nan):
            with pytest.raises(ValueError, match="trust_radius"):
                SolverConfig(dt=0.02, window=0.1, trust_radius=radius)
        assert SolverConfig(dt=0.02, window=0.1, trust_radius=math.inf).trust_radius == math.inf

    def test_damping_range(self):
        prob = _integral_problem()
        dt = 0.05
        seg = _wobbly_segment(0.5, dt, 3, seed=1)
        cfg = SolverConfig(dt=dt, window=0.3)
        for damping in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match="damping"):
                solve_after(prob, seg.values, 0.0, cfg, damping)
