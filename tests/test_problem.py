import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutraldde import (
    DomainSpec,
    DomainViolation,
    FunctionalAffineTerm,
    HypothesisViolation,
    NeutralProblem,
    PointDelayTerm,
    Segment,
    SegmentStack,
    SolutionPath,
    SpectralOperator,
    TimeFn,
    TimeForcingTerm,
    WindowFns,
    ZeroTerm,
    check_neutral_smallness,
    current_value_window,
    estimate_lipschitz_mg,
    full_history_window,
    integral_norm_functional,
    make_dirichlet_laplacian,
    segment_at,
    sine_profile_coeffs,
    sup_norm,
)
from neutraldde.problem import Membership

from batch_rounding import integral_error_bound


def slice_segment(stack, i):
    """The scalar reference segment for slice i of a SegmentStack."""
    return Segment._trusted(stack.h, stack.thetas, stack.values[i : i + stack.n_h + 1])


def constant_segment(h, vec, n_theta=8):
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    thetas = np.linspace(-h, 0.0, n_theta + 1)
    return Segment(h, thetas, np.tile(vec, (n_theta + 1, 1)))


def simple_problem(op, g, f, domain=None, mg_bound=0.5, h=1.0, T=2.0, alpha=0.5):
    if domain is None:
        domain = DomainSpec("time_only")
    return NeutralProblem(op, h, T, alpha, g, f, domain, mg_bound)


class TestEvalG:
    def test_zero_term(self):
        op = make_dirichlet_laplacian(2, math.pi)
        prob = simple_problem(op, ZeroTerm(), ZeroTerm())
        seg = constant_segment(1.0, [1.0, 0.5])
        np.testing.assert_array_equal(prob.eval_g(0.5, seg), np.zeros(2))

    def test_integral_functional_projects_sine_profile(self):
        # value y * sin(x) with unit-norm history and h = 1 gives y = 1 and
        # coefficient sqrt(pi/2) on mode 1
        op = make_dirichlet_laplacian(3, math.pi)
        g = FunctionalAffineTerm(
            c0=0.0, c1=1.0, profile=sine_profile_coeffs(op, 1),
            functional="integral", y_max=2.0,
        )
        prob = simple_problem(op, g, ZeroTerm())
        seg = constant_segment(1.0, [1.0, 0.0, 0.0])
        got = prob.eval_g(0.0, seg)
        np.testing.assert_allclose(got, [math.sqrt(math.pi / 2.0), 0.0, 0.0], atol=1e-10)

    def test_vanishing_history_gives_zero(self):
        op = make_dirichlet_laplacian(3, math.pi)
        g = FunctionalAffineTerm(0.0, 1.0, sine_profile_coeffs(op, 1), "integral")
        prob = simple_problem(op, g, ZeroTerm())
        seg = constant_segment(1.0, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(prob.eval_g(0.0, seg), np.zeros(3), atol=1e-15)

    def test_functional_argument_cap_enforced(self):
        op = make_dirichlet_laplacian(2, math.pi)
        g = FunctionalAffineTerm(0.0, 1.0, sine_profile_coeffs(op, 1), "integral", y_max=0.5)
        prob = simple_problem(op, g, ZeroTerm())
        seg = constant_segment(1.0, [1.0, 0.0])  # delay mass 1 > 0.5
        with pytest.raises(DomainViolation):
            prob.eval_g(0.0, seg)


class TestEvalF:
    def test_zero(self):
        op = make_dirichlet_laplacian(2, math.pi)
        prob = simple_problem(op, ZeroTerm(), ZeroTerm())
        seg = constant_segment(1.0, [1.0, 1.0])
        np.testing.assert_array_equal(prob.eval_f(0.1, seg), np.zeros(2))

    def test_same_projection_as_g(self):
        op = make_dirichlet_laplacian(3, math.pi)
        f = FunctionalAffineTerm(0.0, 1.0, sine_profile_coeffs(op, 1), "integral")
        prob = simple_problem(op, ZeroTerm(), f)
        seg = constant_segment(1.0, [1.0, 0.0, 0.0])
        got = prob.eval_f(0.3, seg)
        np.testing.assert_allclose(got, [math.sqrt(math.pi / 2.0), 0.0, 0.0], atol=1e-10)

    def test_time_forcing_ignores_history(self):
        op = SpectralOperator([1.0])
        f = TimeForcingTerm([TimeFn("poly", (0.0, 1.0))])  # value t
        prob = simple_problem(op, ZeroTerm(), f)
        seg = constant_segment(1.0, [123.0])
        np.testing.assert_allclose(prob.eval_f(2.0, seg), [2.0])

    @pytest.mark.parametrize("kind, params", [
        ("const", ()), ("const", (1.0, 2.0)), ("poly", ()),
        ("exp", (1.0,)), ("exp", (1.0, 2.0, 3.0)),
    ])
    def test_time_fn_takes_the_values_its_kind_needs(self, kind, params):
        # const takes one value, poly at least one coefficient, exp two
        with pytest.raises(ValueError, match=kind):
            TimeFn(kind, params)


class TestMaxWindowFunctional:
    def test_point_window_sees_current_value(self):
        op = SpectralOperator([1.0])
        f = FunctionalAffineTerm(0.0, 2.0, np.array([1.0]), "max",
                                 window=current_value_window())
        prob = simple_problem(op, ZeroTerm(), f)
        thetas = np.linspace(-1.0, 0.0, 11)
        seg = Segment(1.0, thetas, (1.0 + thetas)[:, None])  # value 1 at theta=0
        np.testing.assert_allclose(prob.eval_f(0.5, seg), [2.0])

    def test_full_window_sees_history_maximum(self):
        op = SpectralOperator([1.0])
        f = FunctionalAffineTerm(0.0, 1.0, np.array([1.0]), "max",
                                 window=full_history_window(1.0))
        prob = simple_problem(op, ZeroTerm(), f)
        thetas = np.linspace(-1.0, 0.0, 11)
        seg = Segment(1.0, thetas, (-thetas)[:, None])  # max at theta=-1
        np.testing.assert_allclose(prob.eval_f(0.5, seg), [1.0])

    def test_window_leaving_history_rejected(self):
        with pytest.raises(ValueError):
            # beta(t) = t - 2 dips below -h for h = 1
            from neutraldde import WindowFns

            WindowFns(beta0=-2.0, beta1=1.0, alpha0=0.0, alpha1=1.0).validate(1.0, 2.0)
        with pytest.raises(ValueError):
            WindowFns(beta0=-2.0, beta1=1.0, alpha0=0.0, alpha1=1.0).windows_at(
                np.array([0.0, 0.5]), 1.0)

    @pytest.mark.parametrize("edges", [(-0.1, 1.0, 0.0, 1.0), (-0.731, 1.0, -0.3, 1.0),
                                       (-1.0, 1.0, 0.0, 1.0)])
    def test_unit_slope_window_edges_are_exact_constants(self, edges):
        # b0 + (1 - 1) t is b0 at every finite t, where b0 + t - t rounds
        # with t: -0.09999999997671694 for b0 = -0.1 at t = 1e6
        window = WindowFns(*edges)
        times = np.array([0.0, 0.37, 2.5, 1e6])
        lo, hi = window.windows_at(times, 1.0)
        assert window.fixed
        assert np.all(lo == window.beta0) and np.all(hi == window.alpha0)

    @pytest.mark.parametrize("edges", [(np.nan, 1.0, 0.0, 1.0), (-0.5, 1.0, np.nan, 1.0),
                                       (-0.5, np.nan, 0.0, 1.0)])
    def test_window_with_a_nan_edge_rejected(self, edges):
        window = WindowFns(*edges)
        with pytest.raises(ValueError, match="non-finite edge"):
            window.validate(1.0, 2.0)
        with pytest.raises(ValueError, match="non-finite edge"):
            window.windows_at(np.array([0.0, 0.5]), 1.0)

    def test_window_closing_at_the_current_value_keeps_lo_at_most_hi(self):
        # beta(t) = -0.15 + 1.06 t reaches alpha(t) = t at T = 2.5, where
        # beta - t = -0.15 + 0.06 t rounds to 1.4e-16 > alpha - t = 0,
        # inside the slack
        window = WindowFns(beta0=-0.15, beta1=1.06, alpha0=0.0, alpha1=1.0)
        window.validate(1.0, 2.5)
        times = np.array([2.4, 2.5])
        assert window.beta0 + (window.beta1 - 1.0) * times[-1] > 0.0
        lo, hi = window.windows_at(times, 1.0)
        assert np.all(lo <= hi) and lo[-1] == hi[-1] == 0.0
        term = FunctionalAffineTerm(0.0, 1.0, np.ones(2), "max", window=window)
        stack = SegmentStack(1.0, 0.1, np.random.default_rng(6).normal(size=(12, 2)), 2.4)
        np.testing.assert_array_equal(stack.times, times)
        got = term.functional_values(stack)
        want = [term.functional_value(float(t), slice_segment(stack, i))
                for i, t in enumerate(times)]
        np.testing.assert_array_equal(got, want)
        assert got[-1] == stack.current_norms()[-1]


class TestTermWidths:
    """Each term is checked against the operator once, when the problem is built."""

    @pytest.mark.parametrize("n_coeffs", [1, 2])
    @pytest.mark.parametrize("slot", ["g", "f"])
    def test_profile_of_the_wrong_width_rejected(self, n_coeffs, slot):
        op = SpectralOperator([1.0, 4.0, 9.0])
        term = FunctionalAffineTerm(0.1, 0.2, np.ones(n_coeffs))
        terms = {"g": ZeroTerm(), "f": ZeroTerm(), slot: term}
        with pytest.raises(ValueError, match="3 coefficients"):
            simple_problem(op, terms["g"], terms["f"])

    @pytest.mark.parametrize("n_fns", [2, 4])
    def test_time_forcing_needs_one_function_per_mode(self, n_fns):
        op = SpectralOperator([1.0, 4.0, 9.0])
        forcing = TimeForcingTerm([TimeFn("const", (1.0,))] * n_fns)
        with pytest.raises(ValueError, match="one per mode"):
            simple_problem(op, ZeroTerm(), forcing)


class TestMembership:
    def make(self, l=1.0, h=1.0, T=2.0):
        op = SpectralOperator([1.0])
        return simple_problem(
            op, ZeroTerm(), ZeroTerm(), domain=DomainSpec("delay_mass", l), h=h, T=T
        )

    def test_strict_interior(self):
        prob = self.make()
        seg = constant_segment(1.0, [0.5])  # delay mass 0.5
        mem = prob.membership(1.0, seg)
        assert mem.is_inside

    def test_exact_upper_boundary(self):
        prob = self.make()
        seg = constant_segment(1.0, [1.0])  # delay mass exactly l = 1
        mem = prob.membership(1.0, seg)
        assert mem.state == "boundary" and mem.kind == "upper_mass"

    def test_vanishing_boundary(self):
        prob = self.make()
        seg = constant_segment(1.0, [0.0])
        mem = prob.membership(1.0, seg)
        assert mem.state == "boundary" and mem.kind == "vanishing"

    def test_outside_upper(self):
        prob = self.make()
        seg = constant_segment(1.0, [2.0])
        mem = prob.membership(1.0, seg)
        assert mem.state == "outside" and mem.kind == "upper_mass"

    def test_horizon_boundary(self):
        prob = self.make()
        seg = constant_segment(1.0, [0.5])
        mem = prob.membership(2.0, seg)
        assert mem.state == "boundary" and mem.kind == "horizon"

    def test_sup_band_upper_and_vanishing(self):
        op = SpectralOperator([1.0])
        prob = simple_problem(op, ZeroTerm(), ZeroTerm(), domain=DomainSpec("sup_band", 1.0))
        thetas = np.linspace(-1.0, 0.0, 5)
        hit = Segment(1.0, thetas, np.array([0.5, 0.6, 1.0, 0.4, 0.5])[:, None])
        assert prob.membership(0.5, hit).kind == "sup_band"
        dip = Segment(1.0, thetas, np.array([0.5, 0.0, 0.4, 0.4, 0.5])[:, None])
        assert prob.membership(0.5, dip).kind == "vanishing"
        mid = Segment(1.0, thetas, np.full((5, 1), 0.5))
        assert prob.membership(0.5, mid).is_inside

    def test_band_states_follow_the_value_at_the_domain_tolerance(self):
        # states rank vanishing < inside < upper edge < outside as the delay
        # mass grows, and the edge band is the domain's default tolerance
        prob = self.make()
        rank = {("boundary", "vanishing"): 0, ("inside", None): 1,
                ("boundary", "upper_mass"): 2, ("outside", "upper_mass"): 3}
        rng = np.random.default_rng(11)
        values = np.sort(np.concatenate([rng.uniform(0.0, 1.2, 200),
                                         1.0 + np.arange(-3, 4) * 1e-9, [0.0, 1e-9]]))
        ranks = [rank[mem.state, mem.kind] for mem in
                 (prob.membership(1.0, constant_segment(1.0, [v])) for v in values)]
        assert ranks == sorted(ranks) and set(ranks) == {0, 1, 2, 3}
        op = SpectralOperator([1.0])
        F = prob.domain_functional(constant_segment(1.0, [0.5]))
        for l, state in ((F * (1.0 - 2e-9), "outside"), (F, "boundary"),
                         (F * (1.0 + 2e-9), "inside")):
            band = simple_problem(op, ZeroTerm(), ZeroTerm(), domain=DomainSpec("delay_mass", l))
            assert band.membership(1.0, constant_segment(1.0, [0.5])).state == state

    def test_time_only_domain_takes_no_width(self):
        # l would be read nowhere by the scan, yet the admission checks
        # would still size their samples by it
        for l in (1.0, 1e6):
            with pytest.raises(ValueError, match="take no width"):
                DomainSpec("time_only", l)
        assert DomainSpec("time_only").l is None

    @pytest.mark.parametrize("kind", ["delay_mass", "sup_band"])
    def test_band_width_must_be_positive_and_finite(self, kind):
        # an infinite l makes the band tolerance 1e-9 l infinite, which
        # would put every history on the band edge
        for l in (None, 0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive finite width"):
                DomainSpec(kind, l)
        assert DomainSpec(kind, 1e300).default_tol() < math.inf


class TestHypothesisChecks:
    def test_smallness_rejects_reference_values(self):
        out = check_neutral_smallness(1.0, 1.0, 0.5, math.pi)
        assert not out.ok
        assert out.value == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_smallness_accepts_small_gradient(self):
        out = check_neutral_smallness(1.0, 0.1, 0.5, math.pi)
        assert out.ok
        assert out.value == pytest.approx(0.1 * math.pi / 2.0, rel=1e-12)

    def test_smallness_zero_contraction(self):
        assert check_neutral_smallness(1.0, 1.0, 0.0, math.pi).ok

    def test_declared_budget_must_be_contractive(self):
        op = SpectralOperator([1.0])
        with pytest.raises(HypothesisViolation):
            simple_problem(op, ZeroTerm(), ZeroTerm(), mg_bound=1.2)

    def test_estimate_zero_term(self):
        op = SpectralOperator([1.0])
        prob = simple_problem(op, ZeroTerm(), ZeroTerm(),
                              domain=DomainSpec("delay_mass", 1.0))
        assert estimate_lipschitz_mg(prob, 30, seed=1) == 0.0

    def test_estimate_approaches_half_on_aligned_samples(self):
        # 0.5/h times the delay-mass functional on a unit-weight mode: the
        # aligned constant-history pairs saturate the bound 0.5
        op = SpectralOperator([1.0])
        h = 1.0
        g = FunctionalAffineTerm(0.0, 0.5 / h, np.array([1.0]), "integral", y_max=10.0)
        prob = simple_problem(op, g, ZeroTerm(), domain=DomainSpec("delay_mass", 1.0),
                              mg_bound=0.6, h=h)
        est = estimate_lipschitz_mg(prob, 60, seed=2)
        assert est <= 0.5 + 1e-10
        assert est >= 0.45

    def test_estimate_scales_with_term(self):
        op = SpectralOperator([1.0])
        base = FunctionalAffineTerm(0.0, 0.2, np.array([1.0]), "integral", y_max=10.0)
        double = FunctionalAffineTerm(0.0, 0.4, np.array([1.0]), "integral", y_max=10.0)
        p1 = simple_problem(op, base, ZeroTerm(), domain=DomainSpec("delay_mass", 1.0))
        p2 = simple_problem(op, double, ZeroTerm(), domain=DomainSpec("delay_mass", 1.0))
        e1 = estimate_lipschitz_mg(p1, 40, seed=3)
        e2 = estimate_lipschitz_mg(p2, 40, seed=3)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-9)

    def test_sampled_ratio_within_declared_budget(self):
        op = make_dirichlet_laplacian(4, math.pi)
        profile = sine_profile_coeffs(op, 1)
        c1 = 0.05
        g = FunctionalAffineTerm(0.0, c1, profile, "integral", y_max=1.0)
        analytic = c1 * 1.0 * float(np.linalg.norm(op.mu**0.5 * profile))
        prob = simple_problem(op, g, ZeroTerm(), domain=DomainSpec("delay_mass", 1.0),
                              mg_bound=analytic + 0.005)
        est = estimate_lipschitz_mg(prob, 120, seed=4)
        assert est <= prob.mg_bound + 0.01

    def test_point_delay_lipschitz_metadata(self):
        op = SpectralOperator([1.0, 4.0])
        prob = simple_problem(op, PointDelayTerm(0.25), ZeroTerm(), mg_bound=0.5)
        assert prob.g_alpha_lipschitz() == pytest.approx(0.25 * 2.0)


class TestContinuityInHistory:
    def test_small_history_change_gives_small_output_change(self):
        op = make_dirichlet_laplacian(3, math.pi)
        g = FunctionalAffineTerm(0.0, 0.1, sine_profile_coeffs(op, 1), "integral", y_max=5.0)
        prob = simple_problem(op, g, ZeroTerm(), mg_bound=0.3)
        rng = np.random.default_rng(9)
        thetas = np.linspace(-1.0, 0.0, 13)
        base_vals = rng.uniform(0.1, 0.5, size=(13, 3))
        lip = prob.g_alpha_lipschitz()
        for _ in range(30):
            delta = 1e-4 * rng.uniform(-1.0, 1.0, size=(13, 3))
            s1 = Segment(1.0, thetas, base_vals)
            s2 = Segment(1.0, thetas, base_vals + delta)
            out = np.linalg.norm(prob.eval_g(0.5, s1) - prob.eval_g(0.5, s2))
            gap = float(np.linalg.norm(delta, axis=1).max())
            assert out <= lip * gap + 1e-12


# ---------------------------------------------------------------------------
# batch (whole-window) evaluation against the scalar reference

EPS = np.finfo(float).eps
#: beta(t) = -0.9 + 1.3 t, alpha(t) = -0.1 + 0.7 t: on t in [0, 1] the window
#: [-0.9 + 0.3 t, -0.1 - 0.3 t] moves and shrinks inside [-1, 0]
MOVING_WINDOW = WindowFns(beta0=-0.9, beta1=1.3, alpha0=-0.1, alpha1=0.7)


def family_cases(n_modes):
    profile = np.linspace(1.0, 0.2, n_modes)
    fns = [TimeFn("exp", (0.5, -0.3)), TimeFn("poly", (1.0, -2.0, 3.0)), TimeFn("const", (0.2,))]
    return {
        "zero": ZeroTerm(),
        "integral": FunctionalAffineTerm(0.3, 0.7, profile, "integral"),
        "max_whole_segment": FunctionalAffineTerm(0.1, -0.4, profile, "max"),
        "max_full": FunctionalAffineTerm(0.1, 0.5, profile, "max", window=full_history_window(1.0)),
        "max_current": FunctionalAffineTerm(0.0, 1.0, profile, "max", window=current_value_window()),
        "max_moving": FunctionalAffineTerm(0.2, 0.6, profile, "max", window=MOVING_WINDOW),
        "time_forcing": TimeForcingTerm([fns[k % 3] for k in range(n_modes)]),
        "point_delay": PointDelayTerm(0.25),
    }


@st.composite
def unit_delay_stacks(draw):
    """Stack with h = 1 and window times inside [0, T = 1]."""
    n_h = draw(st.sampled_from([2, 4, 5, 8, 10, 16]))
    dt = 1.0 / n_h
    n_windows = draw(st.integers(min_value=1, max_value=n_h))
    n_modes = draw(st.integers(min_value=1, max_value=3))
    rows = n_h + n_windows
    values = np.array(draw(st.lists(
        st.floats(-2.0, 2.0), min_size=rows * n_modes, max_size=rows * n_modes,
    ))).reshape(rows, n_modes)
    t0 = draw(st.floats(0.0, 1.0 - (n_windows - 1) * dt))
    stack = SegmentStack(1.0, dt, values, t0)
    return stack.times, stack


@settings(max_examples=60, deadline=None)
@given(unit_delay_stacks())
def test_batch_terms_match_scalar_evaluation(case):
    times, stack = case
    op = SpectralOperator(np.arange(1.0, stack.values.shape[1] + 1.0))
    for name, term in family_cases(op.n_modes).items():
        prob = simple_problem(op, term, term, T=1.0)
        for batch, scalar in ((prob.g.evaluate_window, prob.eval_g),
                              (prob.f.evaluate_window, prob.eval_f)):
            got = batch(stack)
            assert got.shape == (stack.n_windows, op.n_modes), name
            want = np.array([scalar(float(t), slice_segment(stack, i)) for i, t in enumerate(times)])
            np.testing.assert_allclose(got, want, rtol=8 * EPS,
                                       atol=integral_error_bound(stack), err_msg=name)


#: time functions that vanish identically, and ones that vanish nowhere on [0, 1]
VANISHING_FNS = st.one_of(st.just(TimeFn("const", (0.0,))), st.just(TimeFn("poly", (0.0, 0.0))),
                          st.floats(-5.0, 5.0).map(lambda r: TimeFn("exp", (0.0, r))))
LIVE_FNS = st.sampled_from([TimeFn("const", (0.4,)), TimeFn("poly", (0.5, -0.25)),
                            TimeFn("exp", (-0.5, 0.3))])


@settings(max_examples=60, deadline=None)
@given(case=unit_delay_stacks(), data=st.data())
def test_support_is_the_columns_a_term_writes(case, data):
    # each family's support against the nonzero columns of its scalar value
    # on every slice: what the term writes lies in its support, and an
    # affine or time-forcing term writes all of it.  The batch value on the
    # support's columns is bitwise those columns of the whole value.
    times, stack = case
    n_modes = stack.values.shape[1]
    live = np.array(data.draw(st.lists(st.booleans(), min_size=n_modes, max_size=n_modes)))
    weights = data.draw(st.lists(st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
                                 min_size=n_modes, max_size=n_modes))
    profile = np.where(live, weights, 0.0)
    fns = [data.draw(LIVE_FNS if on else VANISHING_FNS) for on in live]
    written_by_design = np.flatnonzero(live)
    cases = {
        "zero": (ZeroTerm(), np.arange(0)),
        "integral": (FunctionalAffineTerm(0.3, 0.7, profile, "integral"), written_by_design),
        "max_moving": (FunctionalAffineTerm(0.2, 0.6, profile, "max", window=MOVING_WINDOW),
                       written_by_design),
        "time_forcing": (TimeForcingTerm(fns), written_by_design),
        "point_delay": (PointDelayTerm(0.25), np.arange(n_modes)),
    }
    for name, (term, want) in cases.items():
        support = term.support(n_modes)
        np.testing.assert_array_equal(support, want, err_msg=name)
        written = np.zeros(n_modes, dtype=bool)
        for i, t in enumerate(times):
            written |= term.evaluate(float(t), slice_segment(stack, i)) != 0.0
        assert set(np.flatnonzero(written)) <= set(support), name
        if name not in ("zero", "point_delay"):
            np.testing.assert_array_equal(np.flatnonzero(written), support, err_msg=name)
        whole = term.evaluate_window(stack)
        for cols in (support, slice(0, 0), slice(None), np.arange(n_modes)[::2]):
            assert term.evaluate_window(stack, cols).tobytes() == whole[:, cols].tobytes(), name


@settings(max_examples=60, deadline=None)
@given(unit_delay_stacks())
def test_batch_domain_functionals_match_scalar(case):
    _, stack = case
    op = SpectralOperator(np.ones(stack.values.shape[1]))
    for kind, l in (("delay_mass", 1.0), ("sup_band", 1.0), ("time_only", None)):
        prob = simple_problem(op, ZeroTerm(), ZeroTerm(), domain=DomainSpec(kind, l))
        got = prob.domain_functionals(stack)
        want = [prob.domain_functional(slice_segment(stack, i)) for i in range(stack.n_windows)]
        np.testing.assert_allclose(got, want, rtol=4 * EPS,
                                   atol=integral_error_bound(stack), err_msg=kind)


@settings(max_examples=80, deadline=None)
@given(case=unit_delay_stacks(), data=st.data())
def test_batch_scan_finds_the_first_exit_of_the_pointwise_scan(case, data):
    _, stack = case
    dt = stack.dt
    m = stack.n_windows - 1
    if m < 1:
        return
    # slice 0 is the window start t, and slices 1..m are a window of m steps
    # after it; as a path from time 0, its history ends at time 1
    t = float(stack.times[0])
    path = SolutionPath(0.0, dt, stack.values)
    kind = data.draw(st.sampled_from(["delay_mass", "sup_band"]))
    # put the band edge on a computed value, give or take the domain's
    # tolerance, so grid points land on the edge, just inside it and just
    # outside it
    seg = segment_at(path, 1.0 + data.draw(st.integers(1, m)) * dt, 1.0)
    edge = integral_norm_functional(seg) if kind == "delay_mass" else sup_norm(seg)
    width = 1e-9 * max(edge, 1e-3)
    l = max(edge + data.draw(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])) * width, 1e-3)
    T = data.draw(st.sampled_from([t + j * dt for j in range(1, m + 1)] + [10.0]))
    op = SpectralOperator(np.ones(stack.values.shape[1]))
    prob = simple_problem(op, ZeroTerm(), ZeroTerm(), domain=DomainSpec(kind, l), T=T)

    # the reference: membership's rule on each slice's batch value and
    # smallest node norm, one slice at a time
    values = prob.domain_functionals(stack)
    expected = None
    for i in range(1, m + 1):
        t_i = t + i * dt
        bottom = values[i] if kind == "delay_mass" else slice_segment(stack, i).node_norms().min()
        mem = prob._classify(t_i, float(values[i]), float(bottom))
        if not mem.is_inside:
            expected = (i, mem)
            break
    assert prob.first_exit_slice(stack) == expected


def test_scan_decides_a_band_edge_on_the_batch_value():
    # a rising history: the delay mass grows by about 0.0075 a step, so an
    # edge on the last slice's batch value leaves every earlier slice inside
    dt, m = 0.01, 20
    values = np.linspace(0.1, 1.0, 100 + m + 1)[:, None]
    stack = SegmentStack(1.0, dt, values, 1.0)
    last = float(stack.integral_norms()[-1])

    def on_edge(l):
        # membership's upper test: not inside once value - l >= -tol
        return last - l >= -DomainSpec("delay_mass", l).default_tol()

    # the largest l that still puts the last slice on the edge
    l = last / (1.0 - 1e-9)
    while not on_edge(l):
        l = np.nextafter(l, 0.0)
    while on_edge(np.nextafter(l, np.inf)):
        l = np.nextafter(l, np.inf)
    op = SpectralOperator([1.0])
    edge = simple_problem(op, ZeroTerm(), ZeroTerm(), domain=DomainSpec("delay_mass", l), T=10.0)
    assert edge.first_exit_slice(stack) == (m, Membership("boundary", "upper_mass", last))
    # the slice before it is inside
    assert edge.first_exit_slice(SegmentStack(1.0, dt, values[:-1], 1.0)) is None
    # and one ulp more of l puts the last slice inside too
    wider = DomainSpec("delay_mass", float(np.nextafter(l, np.inf)))
    assert simple_problem(op, ZeroTerm(), ZeroTerm(), domain=wider,
                          T=10.0).first_exit_slice(stack) is None


def test_scan_and_membership_split_an_exact_tie_alike():
    # value - l == -tol exactly is on the edge for both.  l is picked so that
    # its tolerance is 2^-30; on a norm band of one mode the value is a
    # node's absolute value, so l - 2^-30 is met exactly
    tol = 2.0**-30
    l = tol / 1e-9
    while DomainSpec("sup_band", l).default_tol() != tol:
        l = float(np.nextafter(l, np.inf))
    values = np.full((6, 1), 0.5)
    values[-1] = l - tol
    path = SolutionPath(0.0, 0.25, values)
    op = SpectralOperator([1.0])
    prob = simple_problem(op, ZeroTerm(), ZeroTerm(), domain=DomainSpec("sup_band", l), T=10.0)
    mem = prob.membership(1.25, segment_at(path, 1.25, 1.0))
    assert (mem.state, mem.kind, mem.value - l) == ("boundary", "sup_band", -tol)
    assert prob.first_exit_slice(SegmentStack(1.0, 0.25, values, 1.0)) == (1, mem)


def test_argument_overrun_past_a_nan_is_reported():
    # nan is never over the cap, and does not hide an overrun after it; the
    # first value past the cap is the one reported
    term = FunctionalAffineTerm(0.0, 1.0, np.ones(1), "integral", y_max=2.0)
    term._check_argument(np.array([np.nan, 1.0, 2.0 + 1e-12]))
    term._check_argument(np.array([np.nan]))
    term._check_argument(2.0)
    with pytest.raises(DomainViolation, match="functional value 3 outside .*0, 2"):
        term._check_argument(np.array([np.nan, 1.0, 3.0, 4.0]))
    with pytest.raises(DomainViolation, match="functional value 2.5 outside"):
        term._check_argument(2.5)


@settings(max_examples=60, deadline=None)
@given(case=unit_delay_stacks(), data=st.data())
def test_batch_argument_overrun_raises_like_scalar(case, data):
    times, stack = case
    op = SpectralOperator(np.ones(stack.values.shape[1]))
    functional = data.draw(st.sampled_from(["integral", "max"]))
    probe = FunctionalAffineTerm(0.0, 1.0, np.ones(op.n_modes), functional)
    ys = [probe.functional_value(float(t), slice_segment(stack, i)) for i, t in enumerate(times)]
    y_max = data.draw(st.sampled_from(ys)) * data.draw(st.sampled_from([0.5, 0.999, 1.0, 2.0]))
    term = FunctionalAffineTerm(0.0, 1.0, np.ones(op.n_modes), functional, y_max=y_max)
    prob = simple_problem(op, term, ZeroTerm(), T=1.0)
    overruns = 0
    for i, t in enumerate(times):
        try:
            prob.eval_g(float(t), slice_segment(stack, i))
        except DomainViolation:
            overruns += 1
    with pytest.raises(DomainViolation) if overruns else nullcontext():
        prob.g.evaluate_window(stack)
