import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutraldde import (
    Segment,
    SegmentStack,
    SolutionPath,
    StitchingError,
    extend,
    integral_norm_functional,
    max_norm_functional,
    segment_at,
    sup_norm,
)
from neutraldde.history import _GRID_EPS, segment_on_grid


def scalar_path(t_start, dt, samples):
    return SolutionPath(t_start, dt, np.asarray(samples, dtype=float)[:, None])


def slice_segment(stack, i):
    """The scalar reference segment for slice i of a SegmentStack."""
    return Segment._trusted(stack.h, stack.thetas, stack.values[i : i + stack.n_h + 1])


def scalar_segment(h, thetas, samples):
    return Segment(h, thetas, np.asarray(samples, dtype=float)[:, None])


class TestSegmentAt:
    def test_constant_path(self):
        path = scalar_path(-1.0, 0.25, np.full(17, 3.5))
        seg = segment_at(path, 2.0, 1.0)
        assert np.all(seg.values == 3.5)

    def test_linear_data_is_exact(self):
        # u(s) = s sampled on the grid; at the off-grid time t = 1.03 every
        # node lies inside a cell, and linear interpolation reproduces t + theta
        dt = 0.1
        times = -1.0 + dt * np.arange(31)
        path = scalar_path(-1.0, dt, times)
        seg = segment_at(path, 1.03, 1.0)
        assert seg.thetas.size == 11
        np.testing.assert_allclose(seg.values[:, 0], 1.03 + seg.thetas, atol=1e-12)

    def test_window_before_path_start_rejected(self):
        path = scalar_path(0.0, 0.1, np.zeros(11))
        with pytest.raises(ValueError):
            segment_at(path, 0.5, 1.0)

    def test_right_endpoint_matches_path_exactly(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(21, 3))
        path = SolutionPath(0.0, 0.05, vals)
        seg = segment_at(path, 0.8, 0.5)
        i = path.index_of(0.8)
        np.testing.assert_array_equal(seg.values[-1], path.values[i])
        np.testing.assert_array_equal(seg.value_at(0.0), path.values[i])

    def test_grid_aligned_nodes_copy_path_rows(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(41, 2))
        path = SolutionPath(-1.0, 0.05, vals)
        seg = segment_at(path, 0.5, 1.0)
        i0 = path.index_of(-0.5)
        np.testing.assert_array_equal(seg.values, path.values[i0 : i0 + 21])


@pytest.mark.parametrize("offset", [0.0, 1e-13, 2e-7])
def test_segment_on_grid_matches_pointwise_interpolation(offset):
    # nodes moved off the grid by more than rounding are interpolated, not copied
    h, dt = 1.0, 0.1
    grid = -h + dt * np.arange(11)
    thetas = grid.copy()
    thetas[1:-1] += offset
    seg = Segment(h, thetas, np.column_stack([np.exp(thetas), thetas**2]))
    want = np.vstack([seg.value_at(th) for th in grid])
    np.testing.assert_array_equal(segment_on_grid(seg, dt), want)


class TestSupNorm:
    def test_zero(self):
        seg = scalar_segment(1.0, [-1.0, 0.0], [0.0, 0.0])
        assert sup_norm(seg) == 0.0

    def test_max_of_absolute_values(self):
        seg = scalar_segment(1.0, [-1.0, -0.5, 0.0], [1.0, -2.0, 1.5])
        assert sup_norm(seg) == 2.0

    def test_linear_profile_endpoint(self):
        thetas = np.linspace(-1.0, 0.0, 11)
        seg = scalar_segment(1.0, thetas, 1.0 + thetas)
        assert sup_norm(seg) == pytest.approx(1.0)


class TestIntegralNormFunctional:
    def test_constant_one(self):
        seg = scalar_segment(1.0, np.linspace(-1, 0, 5), np.ones(5))
        assert integral_norm_functional(seg) == pytest.approx(1.0)

    def test_zero(self):
        seg = scalar_segment(2.0, np.linspace(-2, 0, 5), np.zeros(5))
        assert integral_norm_functional(seg) == 0.0

    def test_linear_theta(self):
        thetas = np.linspace(-1.0, 0.0, 1001)
        seg = scalar_segment(1.0, thetas, thetas)
        assert integral_norm_functional(seg) == pytest.approx(0.5, abs=1e-6)


class TestMaxNormFunctional:
    def test_constant(self):
        seg = scalar_segment(1.0, np.linspace(-1, 0, 9), np.full(9, 2.5))
        assert max_norm_functional(seg, -0.7, -0.2) == pytest.approx(2.5)

    def test_point_window(self):
        thetas = np.linspace(-1.0, 0.0, 11)
        seg = scalar_segment(1.0, thetas, 1.0 + thetas)
        assert max_norm_functional(seg, 0.0, 0.0) == pytest.approx(1.0)

    def test_quadratic_left_endpoint(self):
        thetas = np.linspace(-1.0, 0.0, 2001)
        seg = scalar_segment(1.0, thetas, thetas**2)
        assert max_norm_functional(seg, -1.0, -0.5) == pytest.approx(1.0, abs=1e-6)

    def test_bad_windows_rejected(self):
        seg = scalar_segment(1.0, np.linspace(-1, 0, 5), np.ones(5))
        with pytest.raises(ValueError):
            max_norm_functional(seg, -0.2, -0.5)
        with pytest.raises(ValueError):
            max_norm_functional(seg, -2.0, 0.0)

    def test_full_window_equals_sup_norm(self):
        rng = np.random.default_rng(7)
        seg = Segment(1.5, np.linspace(-1.5, 0, 16), rng.normal(size=(16, 2)))
        assert max_norm_functional(seg, -1.5, 0.0) == pytest.approx(sup_norm(seg))


class TestExtend:
    def test_idempotent_overlap(self):
        path = scalar_path(0.0, 0.1, [1.0, 2.0, 3.0])
        out = extend(path, np.array([[3.0]]))
        assert out.n_times == 3
        np.testing.assert_array_equal(out.values, path.values)

    def test_append_advances_grid(self):
        path = scalar_path(0.0, 0.1, [1.0, 2.0, 3.0])
        out = extend(path, np.array([[3.0], [4.0]]))
        assert out.n_times == 4
        assert out.t_end == pytest.approx(0.3)
        assert out.values[-1, 0] == 4.0

    def test_overlap_mismatch_rejected(self):
        path = scalar_path(0.0, 0.1, [1.0, 2.0, 3.0])
        with pytest.raises(StitchingError):
            extend(path, np.array([[4.0], [5.0]]))

    def test_overlap_row_kept_from_new_window(self):
        path = scalar_path(0.0, 0.1, [1.0, 2.0, 3.0])
        out = extend(path, np.array([[3.0 + 1e-10], [4.0]]))
        assert out.values[2, 0] == 3.0 + 1e-10


segment_pair = st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.floats(-5, 5), min_size=n, max_size=n),
        st.lists(st.floats(-5, 5), min_size=n, max_size=n),
        st.floats(min_value=0.1, max_value=3.0),
    )
)


@settings(max_examples=100, deadline=None)
@given(segment_pair)
def test_integral_functional_is_h_lipschitz(data):
    n, a_vals, b_vals, h = data
    thetas = np.linspace(-h, 0.0, n)
    a = scalar_segment(h, thetas, a_vals)
    b = scalar_segment(h, thetas, b_vals)
    diff = scalar_segment(h, thetas, np.array(a_vals) - np.array(b_vals))
    lhs = abs(integral_norm_functional(a) - integral_norm_functional(b))
    assert lhs <= h * sup_norm(diff) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    segment_pair,
    st.floats(min_value=0.0, max_value=10.0),
)
def test_functionals_scale_homogeneously(data, c):
    n, vals, _, h = data
    thetas = np.linspace(-h, 0.0, n)
    seg = scalar_segment(h, thetas, vals)
    scaled = seg.scaled(c)
    assert integral_norm_functional(scaled) == pytest.approx(
        c * integral_norm_functional(seg), rel=1e-12, abs=1e-12
    )
    assert sup_norm(scaled) == pytest.approx(c * sup_norm(seg), rel=1e-12, abs=1e-12)


def test_segment_invariants_enforced():
    with pytest.raises(ValueError):
        Segment(1.0, [-0.5, 0.0], np.zeros((2, 1)))  # does not reach -h
    with pytest.raises(ValueError):
        Segment(1.0, [-1.0, -0.5], np.zeros((2, 1)))  # does not reach 0
    with pytest.raises(ValueError):
        Segment(1.0, [-1.0, -1.0, 0.0], np.zeros((3, 1)))  # not increasing
    with pytest.raises(ValueError):
        Segment(1.0, [-1.0, 0.0], np.zeros((3, 1)))  # row count mismatch


def test_path_invariants_enforced():
    with pytest.raises(ValueError):
        SolutionPath(0.0, 0.1, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        SolutionPath(0.0, -0.1, np.zeros((3, 2)))


EPS = np.finfo(float).eps


@st.composite
def segment_stacks(draw, max_modes=3):
    """A random stack: n_h theta cells, several slices, a few modes, some zero rows."""
    n_h = draw(st.integers(min_value=1, max_value=12))
    n_windows = draw(st.integers(min_value=1, max_value=10))
    n_modes = draw(st.integers(min_value=1, max_value=max_modes))
    dt = draw(st.sampled_from([0.001, 0.01, 0.03, 0.1, 0.25]))
    rows = n_h + n_windows
    values = np.array(draw(st.lists(
        st.floats(-3.0, 3.0), min_size=rows * n_modes, max_size=rows * n_modes,
    ))).reshape(rows, n_modes)
    zeros = draw(st.lists(st.integers(0, rows - 1), max_size=3))
    values[zeros] = 0.0
    return SegmentStack(n_h * dt, dt, values)


@settings(max_examples=80, deadline=None)
@given(segment_stacks())
def test_stack_integral_and_extremes_match_scalar(stack):
    integrals = stack.integral_norms()
    sups = stack.sup_norms()
    mins = stack.min_norms()
    assert integrals.shape == sups.shape == mins.shape == (stack.n_windows,)
    tol = stack.integral_error_bound()
    for i in range(stack.n_windows):
        seg = slice_segment(stack, i)
        assert abs(integrals[i] - integral_norm_functional(seg)) <= tol
        assert sups[i] == sup_norm(seg)
        assert mins[i] == seg.node_norms().min()


@settings(max_examples=80, deadline=None)
@given(stack=segment_stacks(), data=st.data())
def test_stack_window_max_matches_scalar(stack, data):
    # window edges anywhere in [-h, 0], on theta nodes (where interpolation
    # snaps to the node value) and at the ends
    node = st.integers(0, stack.n_h).map(lambda j: float(stack.thetas[j]))
    edge = st.one_of(st.floats(-stack.h, 0.0), node, st.just(-stack.h), st.just(0.0))
    lo, hi = [], []
    for _ in range(stack.n_windows):
        a, b = sorted((data.draw(edge), data.draw(edge)))
        lo.append(a)
        hi.append(b)
    got = stack.max_norms(np.array(lo), np.array(hi))
    for i in range(stack.n_windows):
        want = max_norm_functional(slice_segment(stack, i), lo[i], hi[i])
        # endpoint norms may sum the modes in another order
        assert got[i] == pytest.approx(want, rel=4 * EPS, abs=0.0)


@pytest.mark.parametrize("offset", [0.0, 0.5 * _GRID_EPS, -0.5 * _GRID_EPS, 0.3, 0.7])
def test_stack_window_edges_on_near_and_off_nodes_match_scalar(offset):
    # edges at theta node + offset*dt: on a node, within half the snapping
    # slack of one (both read the node's stored norm), or strictly inside a
    # cell (interpolated); point windows make the edge norm the whole answer
    n_h, n_windows, dt = 8, 6, 0.125
    values = np.random.default_rng(3).normal(size=(n_h + n_windows, 3))
    stack = SegmentStack(n_h * dt, dt, values)
    for j in range(n_h + 1):
        edge = float(stack.thetas[j]) + offset * dt
        edge = min(max(edge, -stack.h), 0.0)
        for lo, hi in [(edge, edge), (-stack.h, edge), (edge, 0.0)]:
            got = stack.max_norms(lo, hi)
            for i in range(n_windows):
                want = max_norm_functional(slice_segment(stack, i), lo, hi)
                assert got[i] == pytest.approx(want, rel=4 * EPS, abs=0.0)


def test_stack_integral_norms_are_computed_once():
    stack = SegmentStack(0.3, 0.1, np.arange(12.0).reshape(6, 2))
    first = stack.integral_norms()
    assert stack.integral_norms() is first
    assert not first.flags.writeable


def test_stack_slices_are_overlapping_rows():
    values = np.arange(12.0).reshape(6, 2)
    stack = SegmentStack(0.3, 0.1, values)
    assert stack.n_h == 3 and stack.n_windows == 3
    seg = scalar_segment(0.3, stack.thetas, np.linalg.norm(values[2:6], axis=1))
    assert stack.integral_norms()[2] == pytest.approx(integral_norm_functional(seg), rel=1e-15)
    np.testing.assert_array_equal(stack.oldest(), values[:3])
    np.testing.assert_array_equal(stack.current_norms(), np.linalg.norm(values[3:], axis=1))


def test_stack_rejects_short_arrays_and_bad_windows():
    with pytest.raises(ValueError):
        SegmentStack(1.0, 0.25, np.zeros((4, 1)))  # needs n_h + 1 = 5 rows
    with pytest.raises(ValueError):
        SegmentStack(0.1, 0.25, np.zeros((4, 1)))  # delay shorter than a step
    stack = SegmentStack(1.0, 0.25, np.ones((6, 1)))
    with pytest.raises(ValueError):
        stack.max_norms(-0.2, -0.5)
    with pytest.raises(ValueError):
        stack.max_norms(-2.0, 0.0)
