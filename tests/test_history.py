import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from neutraldde import (
    Segment,
    SegmentStack,
    SolutionPath,
    integral_norm_functional,
    max_norm_functional,
    segment_at,
    sup_norm,
)
from neutraldde.history import _GRID_EPS, _RangeMax, _first_block_sums, extend, segment_on_grid

from batch_rounding import integral_error_bound
from lipschitz_reference import scaled


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

    @pytest.mark.parametrize("samples, want", [([3.0, np.nan], 3.0),
                                               ([np.nan, 1.0, 2.0], np.nan),
                                               ([1.0, np.nan, 2.0], 2.0)])
    def test_nan_norms_fall_where_pythons_max_puts_them(self, samples, want):
        # max(a, b) takes b only when b > a: a nan at the right edge or
        # inside is passed over, one at the left edge is kept
        thetas = np.linspace(-1.0, 0.0, len(samples))
        got = max_norm_functional(scalar_segment(1.0, thetas, samples), -1.0, 0.0)
        assert got == want or (np.isnan(got) and np.isnan(want))


class TestSegmentBatch:
    def test_a_batch_gives_each_segments_values_bitwise(self):
        # 6 segments of 9 nodes and 5 modes, with windows whose edges snap
        # to nodes or fall inside cells
        rng = np.random.default_rng(3)
        thetas = np.linspace(-1.0, 0.0, 9)
        values = rng.uniform(-2.0, 2.0, size=(6, 9, 5))
        lo = np.array([-1.0, -0.7, -0.5, -0.31, 0.0, -1.0])
        hi = np.array([0.0, -0.2, -0.5, -0.3, 0.0, -0.9])
        batch = Segment(1.0, thetas, values)
        got = [sup_norm(batch), integral_norm_functional(batch),
               max_norm_functional(batch, lo, hi), batch.value_at(lo), batch.node_norms()]
        for i in range(6):
            seg = Segment(1.0, thetas, values[i])
            want = [sup_norm(seg), integral_norm_functional(seg),
                    max_norm_functional(seg, lo[i], hi[i]), seg.value_at(lo[i]), seg.node_norms()]
            for g, w in zip(got, want):
                assert np.asarray(g)[i].tobytes() == np.asarray(w).tobytes()

    def test_a_history_broadcast_along_theta_takes_one_rows_norms(self):
        row = np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, 1, 7))
        broadcast = Segment(1.0, np.linspace(-1.0, 0.0, 5), np.broadcast_to(row, (3, 5, 7)))
        assert broadcast.node_norms().tobytes() == \
            np.linalg.norm(np.repeat(row, 5, axis=1), axis=-1).tobytes()


def commit(path, new):
    """Write the rows ``new`` and their norms past the path's end, as a
    window frame does, and commit them."""
    rows, norms = path._reserve(len(new))
    n = path.n_times
    rows[n : n + len(new)] = new
    norms[n : n + len(new)] = np.linalg.norm(new, axis=1)
    return extend(path, len(new))


class TestExtend:
    def test_append_advances_grid(self):
        path = scalar_path(0.0, 0.1, [1.0, 2.0, 3.0])
        out = commit(path, np.array([[4.0]]))
        assert out.n_times == 4
        assert out.t_end == pytest.approx(0.3)
        assert out.values[-1, 0] == 4.0
        assert path.n_times == 3 and np.shares_memory(out.values, path.values)

    def test_successive_extends_match_a_vstack_reference(self):
        # 300 windows of 1-7 rows from a path of 5: in-place growth, and a
        # buffer that doubles when its free rows run out
        rng = np.random.default_rng(3)
        ref = rng.normal(size=(5, 3))
        path = SolutionPath(-0.5, 0.1, ref)
        buffers = [path._rows]
        for _ in range(300):
            new = rng.normal(size=(int(rng.integers(1, 8)), 3))
            path = commit(path, new)
            if path._rows is not buffers[-1]:
                buffers.append(path._rows)
            ref = np.vstack([ref, new])
            assert path.values.tobytes() == ref.tobytes()
            assert path.norms.tobytes() == np.linalg.norm(ref, axis=1).tobytes()
        assert path.t_end == pytest.approx(-0.5 + 0.1 * (ref.shape[0] - 1))
        assert 3 <= len(buffers) <= 1 + math.ceil(math.log2(ref.shape[0] / 5))

    def test_path_rows_and_norms_are_read_only(self):
        path = commit(scalar_path(0.0, 0.1, [1.0, 2.0, 3.0]), np.array([[4.0]]))
        for view in (path.values, path.norms, path.head(2).values, path.head(2).norms):
            with pytest.raises(ValueError):
                view[0] = 0.0

    def test_only_free_rows_are_committed(self):
        path = scalar_path(0.0, 0.1, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="free rows"):
            extend(path, 1)  # a new path has no free rows
        free = path._reserve(4)[0].shape[0] - path.n_times
        assert free >= 4
        for m in (0, free + 1):
            with pytest.raises(ValueError, match="free rows"):
                extend(path, m)
        assert extend(path, free).n_times == 3 + free
        with pytest.raises(ValueError, match="free rows"):
            extend(path.head(2), 1)  # a head has none

    def test_extending_an_older_path_leaves_newer_ones_unchanged(self):
        # a run holds an older point of its path only as a head, which has
        # no free rows: a commit after it goes to a copy, and the newer path
        # keeps its buffer, rows and norms
        newer = commit(scalar_path(0.0, 0.1, np.arange(1.0, 11.0)), np.array([[11.0], [12.0]]))
        older = newer.head(8)
        rows, kept = newer._rows, (newer.values.copy(), newer.norms.copy())
        branch = commit(older, np.array([[-9.0], [-10.0], [-11.0]]))
        assert newer._rows is rows and not np.shares_memory(branch.values, rows)
        np.testing.assert_array_equal(newer.values, kept[0])
        np.testing.assert_array_equal(newer.norms, kept[1])
        np.testing.assert_array_equal(older.values[:, 0], np.arange(1.0, 9.0))
        np.testing.assert_array_equal(branch.values[:, 0], [1, 2, 3, 4, 5, 6, 7, 8, -9, -10, -11])
        np.testing.assert_array_equal(branch.norms, np.abs(branch.values[:, 0]))

    def test_a_head_keeps_its_rows_while_the_path_grows(self):
        # the rows a newer commit writes lie past every head's end
        path = commit(scalar_path(0.0, 0.1, [1.0, 2.0, 3.0]), np.array([[4.0]]))
        head = path.head(path.n_times)
        kept = head.values.tobytes(), head.norms.tobytes()
        path = commit(path, np.array([[5.0], [6.0]]))
        assert np.shares_memory(path.values, head.values)
        assert (head.values.tobytes(), head.norms.tobytes()) == kept
        assert head.n_times == 4 and path.n_times == 6

    def test_reserve_keeps_the_buffer_while_rows_are_free(self):
        path = scalar_path(0.0, 0.1, [1.0, 2.0, 3.0])
        rows, norms = path._reserve(4)
        for count in (1, 4):
            got = path._reserve(count)
            assert got[0] is rows and got[1] is norms
        path = commit(path, np.array([[4.0], [5.0]]))
        got = path._reserve(rows.shape[0] - path.n_times)
        assert got[0] is rows and got[1] is norms

    @pytest.mark.parametrize("count, size", [(1, 10), (7, 12)])
    def test_reserve_copies_into_twice_the_rows_or_more(self, count, size):
        # a full buffer of 5 rows grows to max(5 + count, 2 * 5); the copy
        # holds the rows and norms bit for bit, and the old buffer is kept
        # by the paths that still read it
        rng = np.random.default_rng(5)
        path = SolutionPath(0.0, 0.1, rng.normal(size=(5, 3)))
        old = path.values
        kept = path.values.tobytes(), path.norms.tobytes()
        rows, norms = path._reserve(count)
        assert rows.shape == (size, 3) and norms.shape == (size,)
        assert not np.shares_memory(rows, old)
        assert (rows[:5].tobytes(), norms[:5].tobytes()) == kept
        assert (path.values.tobytes(), path.norms.tobytes()) == kept
        assert old.tobytes() == kept[0]


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
    seg_c = scaled(seg, c)
    assert integral_norm_functional(seg_c) == pytest.approx(
        c * integral_norm_functional(seg), rel=1e-12, abs=1e-12
    )
    assert sup_norm(seg_c) == pytest.approx(c * sup_norm(seg), rel=1e-12, abs=1e-12)


@st.composite
def trapezoid_segments(draw):
    """One segment or a batch, on the run's uniform theta grid or a
    non-uniform grid as a ``table`` history gives, with entries that make
    norms of 0, inf and nan; the values may broadcast along theta."""
    h = draw(st.sampled_from([0.3, 1.0, 2.5]))
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        thetas = -h + (h / n) * np.arange(n + 1)
    else:
        inner = draw(st.lists(st.floats(-h, 0.0, exclude_min=True, exclude_max=True),
                              unique=True, max_size=10))
        thetas = np.array([-h, *sorted(inner), 0.0])
    batch = draw(st.sampled_from([(), (3,), (2, 3)]))
    n_modes = draw(st.integers(1, 3))
    entries = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, np.inf, -np.inf, np.nan]))
    if draw(st.booleans()):
        row = draw(arrays(float, batch + (1, n_modes), elements=entries))
        values = np.broadcast_to(row, batch + (thetas.size, n_modes))
    else:
        values = draw(arrays(float, batch + (thetas.size, n_modes), elements=entries))
    return Segment(h, thetas, values)


@settings(max_examples=200, deadline=None)
@given(trapezoid_segments())
def test_integral_functional_is_numpys_trapezoid_bitwise(seg):
    with np.errstate(invalid="ignore"):
        got = integral_norm_functional(seg)
        want = np.trapezoid(seg.node_norms(), seg.thetas)
    assert isinstance(got, float) == (seg.values.ndim == 2)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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


@pytest.mark.parametrize("dt", [0.0, np.nan, np.inf])
def test_path_step_must_be_positive_and_finite(dt):
    # a nan or infinite step passed `dt <= 0` and made every time nan
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        SolutionPath(0.0, dt, np.zeros((3, 2)))


@pytest.mark.parametrize("t_start", [np.nan, np.inf, -np.inf])
def test_path_start_must_be_finite(t_start):
    with pytest.raises(ValueError, match="t_start must be finite"):
        SolutionPath(t_start, 0.1, np.zeros((3, 2)))


def test_path_head_shares_rows_and_norms():
    path = SolutionPath(0.0, 0.1, np.arange(8.0).reshape(4, 2))
    head = path.head(3)
    assert head.n_times == 3 and head.t_end == pytest.approx(0.2)
    assert np.shares_memory(head.values, path.values)
    np.testing.assert_array_equal(head.norms, path.norms[:3])
    for n in (1, 5):
        with pytest.raises(ValueError):
            path.head(n)


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
    tol = integral_error_bound(stack)
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


def padded_block_integral_norms(norms, n_h, dt, history_sums=None):
    """The delay masses of every slice by the plain padded-block formula.

    Block 0 is the first slice's suffix sums; the cells after it follow in
    zero-padded blocks of n_h, each summed from the end and from the start
    over all n_h columns, and slice i = b*n_h + r reads suffix[b, r] and
    prefix[b+1, r].
    """
    n_windows = norms.size - n_h
    suffix0 = _first_block_sums(dt, norms[: n_h + 1]) if history_sums is None else history_sums
    cells = 0.5 * dt * (norms[n_h:-1] + norms[n_h + 1 :])
    n_blocks = cells.size // n_h + 2
    rest = np.zeros((n_blocks - 1) * n_h)
    rest[: cells.size] = cells
    rest = rest.reshape(n_blocks - 1, n_h)
    suffix = np.empty((n_blocks, n_h))
    suffix[0] = suffix0
    suffix[1:] = np.cumsum(rest[:, ::-1], axis=1)[:, ::-1]
    prefix = np.zeros((n_blocks, n_h))
    np.cumsum(rest[:, :-1], axis=1, out=prefix[1:, 1:])
    b, r = np.divmod(np.arange(n_windows), n_h)
    return suffix[b, r] + prefix[b + 1, r]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_stack_integral_norms_match_the_padded_block_reference(data):
    # one slice, fewer slices than n_h, exactly n_h + 1 (a second block of
    # one slice), and several blocks with a partial last one; the history
    # sums of a frame, when given, stand in for block 0
    n_h = data.draw(st.integers(1, 12))
    n_windows = data.draw(st.one_of(st.just(1), st.integers(1, n_h), st.just(n_h + 1),
                                    st.integers(2 * n_h + 1, 4 * n_h + 2)))
    dt = data.draw(st.sampled_from([0.001, 0.01, 0.03, 0.1, 0.25]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-3.0, 3.0, size=(n_h + n_windows, data.draw(st.integers(1, 3))))
    stack = SegmentStack(n_h * dt, dt, values)
    want = padded_block_integral_norms(stack.norms, n_h, dt)
    assert stack.integral_norms().tobytes() == want.tobytes()
    sums = rng.uniform(0.0, 3.0, size=n_h)
    framed = SegmentStack._trusted(stack.h, dt, stack.thetas, values, stack.norms,
                                   stack.times, {}, sums, {})
    want = padded_block_integral_norms(stack.norms, n_h, dt, sums)
    assert framed.integral_norms().tobytes() == want.tobytes()


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


def test_stack_carries_its_slice_times():
    values = np.arange(14.0).reshape(7, 2)
    assert np.array_equal(SegmentStack(0.3, 0.1, values).times, 0.1 * np.arange(4))
    stack = SegmentStack(0.3, 0.1, values, 2.5)
    assert np.array_equal(stack.times, 2.5 + 0.1 * np.arange(stack.n_windows))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_range_max_answers_mixed_lengths_in_one_call(data):
    n = data.draw(st.integers(1, 40))
    longest = data.draw(st.integers(1, n))
    x = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    bounds = data.draw(st.lists(
        st.integers(0, n - 1).flatmap(
            lambda a: st.tuples(st.just(a), st.integers(a, min(n, a + longest) - 1))),
        min_size=1, max_size=20))
    a, b = (np.array(side) for side in zip(*bounds))
    got = _RangeMax(x, longest).query(a, b)
    np.testing.assert_array_equal(got, [x[i : j + 1].max() for i, j in bounds])


def test_stack_rejects_a_step_that_does_not_divide_the_delay():
    # with dt = 0.3 the theta grid would stop at -0.1, short of -h, and a
    # unit history's delay mass would read 0.9 instead of 1
    with pytest.raises(ValueError, match="must divide the delay span"):
        SegmentStack(1.0, 0.3, np.ones((5, 1)))
    assert SegmentStack(0.9, 0.3, np.ones((5, 1))).integral_norms() == pytest.approx([0.9, 0.9])


@pytest.mark.parametrize("n_h", [1, 3, 8])
def test_stacks_a_whole_number_of_delays_apart_sum_alike(n_h):
    # the block sums depend on where a slice sits within a block of n_h
    # rows counted from the stack's first row: stacks that start a whole
    # number of blocks apart give every shared slice the same float
    values = np.random.default_rng(5).uniform(0.0, 1.0, size=(6 * n_h + 4, 2))
    whole = SegmentStack(n_h * 0.1, 0.1, values).integral_norms()
    for k in range(1, 4):
        part = SegmentStack(n_h * 0.1, 0.1, values[k * n_h :]).integral_norms()
        assert np.array_equal(part, whole[k * n_h :])


@pytest.mark.parametrize("lo, hi", [(np.nan, 0.0), (-0.5, np.nan), (np.nan, np.nan),
                                    (-np.inf, 0.0), (-0.5, np.inf)])
def test_non_finite_window_edges_are_refused_alike(lo, hi):
    # a nan edge passes every order and range comparison: batch and scalar
    # refuse it, and an infinite one, with the same error
    thetas = np.linspace(-1.0, 0.0, 11)
    stack = SegmentStack(1.0, 0.1, np.ones((11, 1)))
    with pytest.raises(ValueError, match="non-finite edge") as batch:
        stack.max_norms(lo, hi)
    with pytest.raises(ValueError, match="non-finite edge") as scalar:
        max_norm_functional(scalar_segment(1.0, thetas, np.ones(11)), lo, hi)
    assert str(batch.value) == str(scalar.value)


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
