import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutraldde import (
    SpectralOperator,
    make_dirichlet_laplacian,
    semigroup_bound_constant,
)


def brute_force_bound(a, t, gap):
    """Independent maximization of mu^a e^(-mu t) over mu >= gap."""
    from scipy.optimize import minimize_scalar

    grid = np.geomspace(gap, gap + 100.0 / t, 20001)
    best = float(np.max(grid**a * np.exp(-grid * t)))
    res = minimize_scalar(
        lambda mu: -(mu**a) * math.exp(-mu * t),
        bounds=(gap, gap + 100.0 / t),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return max(best, -res.fun)


class TestDirichletLaplacian:
    def test_single_mode_unit_interval_pi(self):
        op = make_dirichlet_laplacian(1, math.pi)
        assert op.mu == pytest.approx([1.0], rel=1e-15)
        assert op.gap == pytest.approx(1.0, rel=1e-15)

    def test_three_modes(self):
        op = make_dirichlet_laplacian(3, math.pi)
        np.testing.assert_allclose(op.mu, [1.0, 4.0, 9.0], rtol=1e-14)

    def test_unit_length(self):
        op = make_dirichlet_laplacian(2, 1.0)
        np.testing.assert_allclose(op.mu, [math.pi**2, (2 * math.pi) ** 2], rtol=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_dirichlet_laplacian(0, 1.0)
        with pytest.raises(ValueError):
            make_dirichlet_laplacian(2, 0.0)

    def test_operator_invariants(self):
        with pytest.raises(ValueError):
            SpectralOperator([0.0, 1.0])
        with pytest.raises(ValueError):
            SpectralOperator([2.0, 1.0])
        with pytest.raises(ValueError):
            SpectralOperator([])


class TestSemigroup:
    def test_identity_at_zero(self):
        op = SpectralOperator([1.0])
        x = np.array([1.0])
        np.testing.assert_array_equal(op.semigroup(0.0, x), x)

    def test_scalar_exponential(self):
        op = SpectralOperator([1.0])
        got = op.semigroup(1.0, np.array([1.0]))
        assert got[0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_two_modes(self):
        op = SpectralOperator([1.0, 4.0])
        got = op.semigroup(0.5, np.array([1.0, 1.0]))
        np.testing.assert_allclose(got, [math.exp(-0.5), math.exp(-2.0)], rtol=1e-15)

    def test_negative_time_rejected(self):
        op = SpectralOperator([1.0])
        with pytest.raises(ValueError):
            op.semigroup(-0.1, np.array([1.0]))


class TestFractionalPower:
    def test_zeroth_power_identity(self):
        op = SpectralOperator([1.0, 4.0])
        x = np.array([2.0, 3.0])
        np.testing.assert_array_equal(op.fractional_power(0.0, x), x)

    def test_square_root(self):
        op = SpectralOperator([1.0, 4.0])
        np.testing.assert_allclose(op.fractional_power(0.5, np.array([1.0, 1.0])), [1.0, 2.0])

    def test_full_power(self):
        op = SpectralOperator([9.0])
        np.testing.assert_allclose(op.fractional_power(1.0, np.array([1.0])), [9.0])

    def test_exponent_range(self):
        op = SpectralOperator([1.0])
        with pytest.raises(ValueError):
            op.fractional_power(1.5, np.array([1.0]))
        with pytest.raises(ValueError):
            op.fractional_power(-0.1, np.array([1.0]))


class TestPowerSemigroup:
    def test_reduces_to_semigroup_at_full_exponent(self):
        op = SpectralOperator([1.0])
        got = op.power_semigroup(1.0, 1.0, np.array([1.0]))
        assert got[0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_half_power(self):
        op = SpectralOperator([4.0])
        got = op.power_semigroup(0.5, 1.0, np.array([1.0]))
        assert got[0] == pytest.approx(2.0 * math.exp(-4.0), rel=1e-14)

    def test_zero_exponent(self):
        op = SpectralOperator([1.0])
        got = op.power_semigroup(0.0, 2.0, np.array([3.0]))
        assert got[0] == pytest.approx(3.0 * math.exp(-2.0), rel=1e-14)

    def test_nonpositive_time_rejected(self):
        op = SpectralOperator([1.0])
        with pytest.raises(ValueError):
            op.power_semigroup(0.5, 0.0, np.array([1.0]))


class TestAlphaNorm:
    def test_weighted_single_mode(self):
        op = SpectralOperator([4.0])
        assert op.alpha_norm(0.5, np.array([3.0])) == pytest.approx(6.0)

    def test_plain_euclidean(self):
        op = SpectralOperator([1.0, 4.0])
        assert op.alpha_norm(0.0, np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_zero_vector(self):
        op = SpectralOperator([1.0, 4.0])
        assert op.alpha_norm(0.7, np.zeros(2)) == 0.0


class TestBoundConstant:
    def test_interior_maximizer(self):
        want = brute_force_bound(0.5, 1.0, 0.1)
        got = semigroup_bound_constant(0.5, 1.0, 0.1)
        assert got == pytest.approx(want, rel=1e-9)
        assert got == pytest.approx(0.42888194248035344, rel=1e-12)

    def test_gap_constrained_maximizer(self):
        want = brute_force_bound(0.5, 10.0, 0.1)
        got = semigroup_bound_constant(0.5, 10.0, 0.1)
        assert got == pytest.approx(want, rel=1e-9)
        assert got == pytest.approx(0.11633369384516797, rel=1e-12)

    def test_zero_exponent(self):
        assert semigroup_bound_constant(0.0, 3.0, 2.0) == pytest.approx(math.exp(-6.0), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            semigroup_bound_constant(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            semigroup_bound_constant(0.5, 1.0, 0.0)


@st.composite
def operator_and_vec(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    gap = draw(st.floats(min_value=1e-3, max_value=10.0))
    incr = draw(
        st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=n, max_size=n)
    )
    mu = gap + np.cumsum(np.array(incr))
    mu[0] = gap
    x = np.array(
        draw(st.lists(st.floats(min_value=-10, max_value=10), min_size=n, max_size=n))
    )
    return SpectralOperator(np.sort(mu)), x


@settings(max_examples=80, deadline=None)
@given(
    op_x=operator_and_vec(),
    a=st.floats(min_value=0.0, max_value=1.0),
    t=st.floats(min_value=1e-3, max_value=20.0),
)
def test_power_semigroup_respects_envelope(op_x, a, t):
    op, x = op_x
    lhs = np.linalg.norm(op.fractional_power(a, op.semigroup(t, x)))
    rhs = semigroup_bound_constant(a, t, op.gap) * np.linalg.norm(x) + 1e-12
    assert lhs <= rhs


@settings(max_examples=80, deadline=None)
@given(
    op_x=operator_and_vec(),
    t1=st.floats(min_value=0.0, max_value=5.0),
    t2=st.floats(min_value=0.0, max_value=5.0),
)
def test_semigroup_law(op_x, t1, t2):
    op, x = op_x
    a = op.semigroup(t1, op.semigroup(t2, x))
    b = op.semigroup(t1 + t2, x)
    # rounding the exponent mu*t moves e^(-mu t) by about mu*t*eps relative,
    # so a fixed 1e-13 is too tight once mu*t passes a few hundred
    rtol = np.maximum(1e-13, np.finfo(float).eps * (16.0 + 4.0 * op.mu * (t1 + t2)))
    assert np.all(np.abs(a - b) <= rtol * np.abs(b) + 1e-300)


@settings(max_examples=60, deadline=None)
@given(
    op_x=operator_and_vec(),
    a=st.floats(min_value=0.0, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=5.0),
)
def test_fractional_power_commutes_with_semigroup(op_x, a, t):
    op, x = op_x
    lhs = op.fractional_power(a, op.semigroup(t, x))
    rhs = op.semigroup(t, op.fractional_power(a, x))
    # same diagonal factors in either order; only multiply rounding differs,
    # with extra slack for gradual underflow at the subnormal boundary
    np.testing.assert_allclose(lhs, rhs, rtol=5e-16, atol=1e-300)


@settings(max_examples=60, deadline=None)
@given(op_x=operator_and_vec(), t=st.floats(min_value=0.0, max_value=50.0))
def test_semigroup_contracts_at_gap_rate(op_x, t):
    # per mode |e^(-mu_k t) x_k| <= e^(-gap t) |x_k|, which implies the norm
    # bound; a norm would square subnormal inputs and lose their precision
    op, x = op_x
    lhs = np.abs(op.semigroup(t, x))
    rhs = np.exp(-op.gap * t) * np.abs(x)
    assert np.all(lhs <= rhs * (1.0 + 1e-12))


def test_norm_decay_is_monotone():
    op = SpectralOperator([0.5, 2.0, 7.0])
    x = np.array([1.0, -2.0, 0.5])
    ts = np.linspace(0.0, 5.0, 200)
    norms = [np.linalg.norm(op.semigroup(t, x)) for t in ts]
    assert all(b <= a + 1e-14 for a, b in zip(norms, norms[1:]))
