"""Solution paths on a uniform time grid and sliding delay segments.

A path stores coefficient vectors at times t_start + i*dt.  A segment is the
slice theta -> u(t + theta) for theta in [-h, 0]: the piece of history a
delay functional sees at time t.  The delay span h is kept an exact integer
multiple of dt by configuration, so segment queries land on grid points and
off-grid times use linear interpolation without drift.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

#: Relative slack when matching times to grid indices.
_GRID_EPS = 1e-9


def _require_divides(dt: float, span: float, what: str) -> None:
    """dt must divide the span a whole number of times, at least once."""
    ratio = span / dt
    if not np.isfinite(ratio):
        raise ValueError(f"the {what} {span} is not a finite multiple of dt={dt}")
    if round(ratio) < 1:
        raise ValueError(f"the {what} {span} is shorter than one grid step dt={dt}")
    if abs(ratio - round(ratio)) > 1e-12 * max(1.0, ratio):
        raise ValueError(f"dt={dt} must divide the {what} {span} exactly")


def _row_norms(values: np.ndarray) -> np.ndarray:
    # a row whose squares overflow has an infinite norm, as in the solver
    with np.errstate(over="ignore"):
        return np.linalg.norm(values, axis=1)


class SolutionPath:
    """Coefficient trajectory on the uniform grid t_start + i*dt, i = 0..n-1.

    ``values`` and ``norms`` (the row norms) are read-only views of the first
    n rows of the path's buffer; the rows past them are free.  A run solves
    each window in the free rows past its path's end, and ``extend`` commits
    it as a longer path over the same buffer.  The shorter path's free rows
    are then the longer one's, so a run only solves after its newest path;
    a head has no free rows, so an attempt after one works in a copy.  A
    run sizes the buffer for its horizon up to a bound, once; past that the
    buffer doubles when it is full, so appending costs O(new rows) on
    average, not a copy of the whole path.
    """

    def __init__(self, t_start: float, dt: float, values):
        values = np.array(values, dtype=float)  # a copy: the rows and norms stay paired
        if not math.isfinite(t_start):
            raise ValueError(f"t_start must be finite, got {t_start}")
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError("values must be a (n_times >= 2, n_modes) array")
        self.t_start = float(t_start)
        self.dt = float(dt)
        self._rows = values
        self._norms = _row_norms(values)
        self._n = values.shape[0]

    @classmethod
    def _over(cls, path: "SolutionPath", rows: np.ndarray, norms: np.ndarray,
              n: int) -> "SolutionPath":
        # a path on path's grid over the first n of rows and norms, which hold them
        obj = object.__new__(cls)
        obj.t_start = path.t_start
        obj.dt = path.dt
        obj._rows = rows
        obj._norms = norms
        obj._n = n
        return obj

    @property
    def values(self) -> np.ndarray:
        view = self._rows[: self._n]
        view.flags.writeable = False
        return view

    @property
    def norms(self) -> np.ndarray:
        view = self._norms[: self._n]
        view.flags.writeable = False
        return view

    @property
    def n_times(self) -> int:
        return self._n

    @property
    def t_end(self) -> float:
        return self.t_start + (self.n_times - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_times)

    def _reserve(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The path's rows and row norms buffers, with at least ``count``
        free rows past its end.

        A buffer with fewer free rows, as a head's, which has none, is first
        replaced by a copy of the path's rows twice their number or more.
        A run reserves its first free rows once, right after it builds its
        path (``continuation.continue_solution``), so its attempts find them
        free; a run longer than that first size doubles here.
        """
        n = self._n
        if n + count > self._rows.shape[0]:
            size = max(n + count, 2 * n)
            rows = np.empty((size, self._rows.shape[1]))
            rows[:n] = self._rows[:n]
            norms = np.empty(size)
            norms[:n] = self._norms[:n]
            self._rows, self._norms = rows, norms
        return self._rows, self._norms

    def head(self, n: int) -> "SolutionPath":
        """The path through its first n grid points; it shares this path's
        rows and has no free rows."""
        if not 2 <= n <= self._n:
            raise ValueError(f"a head needs 2..{self._n} grid points, got {n}")
        return SolutionPath._over(self, self._rows[:n], self._norms[:n], n)

    def index_of(self, t: float) -> int:
        """Exact grid index of t; raises if t is off-grid."""
        pos = (t - self.t_start) / self.dt
        i = int(round(pos))
        if abs(pos - i) > _GRID_EPS or not 0 <= i < self.n_times:
            raise ValueError(f"time {t} is not a grid point of this path")
        return i


class Segment:
    """History slice theta -> u(t + theta) on theta in [-h, 0].

    ``thetas`` is strictly increasing with thetas[0] = -h and thetas[-1] = 0;
    ``values`` holds one coefficient vector per theta node.  A batch of
    segments on one theta grid stacks them along leading axes, values of
    shape (..., n_theta, n_modes): the functionals below and the terms'
    ``evaluate`` then give one value per segment, each bitwise the one its
    segment alone gives.
    """

    def __init__(self, h: float, thetas, values):
        thetas = np.asarray(thetas, dtype=float)
        values = np.asarray(values, dtype=float)
        if h <= 0.0:
            raise ValueError(f"delay span must be positive, got {h}")
        if thetas.ndim != 1 or thetas.size < 2:
            raise ValueError("need at least the two endpoint theta nodes")
        if values.ndim < 2 or values.shape[-2] != thetas.size:
            raise ValueError("one value row per theta node required")
        if abs(thetas[0] + h) > _GRID_EPS * max(1.0, h) or abs(thetas[-1]) > _GRID_EPS * max(1.0, h):
            raise ValueError("theta nodes must cover exactly [-h, 0]")
        if np.any(np.diff(thetas) <= 0.0):
            raise ValueError("theta nodes must be strictly increasing")
        self.h = float(h)
        self.thetas = thetas
        self.values = values
        self._norms = None

    @classmethod
    def _trusted(cls, h: float, thetas, values, norms=None) -> "Segment":
        # Solver-internal constructor: nodes already known to satisfy the
        # invariants, skip re-validation in hot loops.  ``norms``, when
        # given, are the row norms of ``values``, which node_norms returns.
        obj = object.__new__(cls)
        obj.h = h
        obj.thetas = thetas
        obj.values = values
        obj._norms = norms
        return obj

    @property
    def n_modes(self) -> int:
        return self.values.shape[-1]

    def value_at(self, theta) -> np.ndarray:
        """Linear interpolation in theta; a batch takes one theta per segment."""
        th = self.thetas
        theta = np.broadcast_to(np.asarray(theta, dtype=float), self.values.shape[:-2])
        eps = _GRID_EPS * max(1.0, self.h)
        bad = (theta < th[0] - eps) | (theta > th[-1] + eps)
        if bad.any():
            raise ValueError(f"theta {theta.flat[np.argmax(bad)]} outside [-{self.h}, 0]")
        theta = np.minimum(np.maximum(theta, th[0]), th[-1])
        i = np.minimum(np.maximum(np.searchsorted(th, theta, side="right") - 1, 0), th.size - 2)
        w = ((theta - th[i]) / (th[i + 1] - th[i]))[..., None]
        left, right = (np.take_along_axis(self.values, j[..., None, None], axis=-2)[..., 0, :]
                       for j in (i, i + 1))
        # a theta within the slack of a node reads that node; the interpolant
        # of the other cells is taken everywhere and may be inf * 0 there
        with np.errstate(invalid="ignore"):
            mid = (1.0 - w) * left + w * right
        return np.where(w <= _GRID_EPS, left, np.where(w >= 1.0 - _GRID_EPS, right, mid))

    def node_norms(self) -> np.ndarray:
        if self._norms is not None:
            return self._norms
        values = self.values
        if values.strides[-2] == 0:
            # values broadcast along theta, a constant history: one row's norms
            return np.broadcast_to(np.linalg.norm(values[..., :1, :], axis=-1), values.shape[:-1])
        return np.linalg.norm(values, axis=-1)


def _float_or_array(x):
    # one segment's functional as a float, a batch's as its array
    return float(x) if np.ndim(x) == 0 else x


def _vector_norms(x: np.ndarray) -> np.ndarray:
    """The norm of each coefficient vector along the last axis: sqrt(x.dot(x))
    per vector, the bits ``np.linalg.norm`` gives one vector."""
    return np.sqrt(np.vecdot(x, x))


def sup_norm(seg: Segment) -> float:
    """Max over theta nodes of the coefficient norm (exact on piecewise-linear data)."""
    return _float_or_array(seg.node_norms().max(axis=-1))


def integral_norm_functional(seg: Segment) -> float:
    """Trapezoid quadrature of theta -> ||seg(theta)|| over [-h, 0].

    This is the expression ``np.trapezoid(seg.node_norms(), seg.thetas)``
    evaluates, bit for bit, without its argument set-up.
    """
    y = seg.node_norms()
    return _float_or_array((np.diff(seg.thetas) * (y[..., 1:] + y[..., :-1]) / 2.0).sum(-1))


def _require_finite_window(lo, hi) -> None:
    """Refuse windows with a non-finite edge: a nan edge passes every order
    and range comparison of the window checks."""
    lo, hi = np.broadcast_arrays(lo, hi)
    bad = ~(np.isfinite(lo) & np.isfinite(hi))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"window [{lo.flat[i]}, {hi.flat[i]}] has a non-finite edge")


def max_norm_functional(seg: Segment, lo, hi) -> float:
    """Max of ||seg(theta)|| over the window [lo, hi], endpoints interpolated.

    The window is given in segment coordinates and must sit inside [-h, 0];
    a batch takes one window per segment.  Maxima are taken as Python's
    ``max(a, b)`` takes them, b only where b > a, so nan norms fall where
    they fell one segment at a time.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    _require_finite_window(lo, hi)
    eps = _GRID_EPS * max(1.0, seg.h)
    bad = lo > hi
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"window must satisfy lo <= hi, got [{lo.flat[i]}, {hi.flat[i]}]")
    bad = (lo < -seg.h - eps) | (hi > eps)
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"window [{lo.flat[i]}, {hi.flat[i]}] outside [-{seg.h}, 0]")
    lo = np.maximum(lo, -seg.h)
    hi = np.minimum(hi, 0.0)
    left, right = (_vector_norms(seg.value_at(theta)) for theta in (lo, hi))
    best = np.where(right > left, right, left)
    inside = (seg.thetas > lo[..., None]) & (seg.thetas < hi[..., None])
    inner = np.where(inside, seg.node_norms(), -np.inf).max(axis=-1)
    return _float_or_array(np.where(inner > best, inner, best))


def _first_block_sums(dt: float, norms: np.ndarray) -> np.ndarray:
    """One block of ``SegmentStack.integral_norms``: the trapezoid cells of a
    slice's n_h+1 node norms, summed from each cell to the last (adding from
    the last)."""
    cells = 0.5 * dt * (norms[:-1] + norms[1:])
    return np.cumsum(cells[::-1])[::-1]


class _RangeMax:
    """Sparse table over ``x``: the max of x[a..b] for whole arrays of inclusive bounds.

    Column i of row k of ``table`` is the max of the run x[i : i + 2^k]
    (padding where the run leaves x); a query of length n takes the larger
    of two overlapping runs of length 2^floor(log2 n): two gathers per call.
    """

    def __init__(self, x: np.ndarray, longest: int):
        self.table = np.full((longest.bit_length(), x.size), -np.inf)
        self.table[0] = x
        for k in range(1, len(self.table)):
            span, prev = 1 << (k - 1), self.table[k - 1]
            np.maximum(prev[:-span], prev[span:], out=self.table[k, :-span])

    def query(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # frexp(n) = (m, e) with n = m * 2^e and 0.5 <= m < 1: floor(log2 n) = e - 1
        k = np.frexp((b - a + 1).astype(float))[1] - 1
        return np.maximum(self.table[k, a], self.table[k, b - (1 << k) + 1])


class _Edge(NamedTuple):
    """One edge of every slice's window, resolved against the theta grid."""

    rows: np.ndarray  # the row whose stored norm is the edge's, where it snaps to a node
    inner: np.ndarray  # the slices whose edge lies strictly inside a cell
    left: np.ndarray  # the left row of each such cell
    w: np.ndarray  # and the edge's weight on its right row, as a column


class WindowEdges(NamedTuple):
    """The windows [lo[i], hi[i]] of ``SegmentStack.resolve``, ready to gather."""

    lo: _Edge
    hi: _Edge
    some: np.ndarray  # the slices with grid nodes strictly inside their window
    first: np.ndarray  # the rows of the first and last of those nodes
    last: np.ndarray


class SegmentStack:
    """The history slices of consecutive grid times as windows of one array.

    Row j of ``values`` is u(t_first - h + j*dt), so slice i, the segment at
    ``times[i]`` = t_first + i*dt, is rows i..i+n_h on the theta grid
    -h + dt*arange; dt must divide h.  The batch functionals evaluate every
    slice at once and agree with the scalar ones applied to slice i: node
    norms are taken once, the delay mass comes from blockwise sums of
    trapezoid cells (equal up to summation order), and window maxima come
    from exactly interpolated endpoints plus a sparse-table range maximum
    over the interior nodes.  The exit scan decides each grid point on the
    stack the window solver loaded for it, and off-grid times on
    ``segment_at`` segments.

    A window maximum takes two steps.  ``resolve`` checks and clips the
    windows and finds what depends on them and the grid alone: each edge's
    cell and weight (the rows where it snaps to a node, the rows and weights
    where it lies strictly inside a cell) and the rows of the interior nodes.
    ``gather`` reads the stored norms at those rows, interpolates the inner
    edges and takes the range maximum.  ``max_norms`` does both on every
    call.  ``window_edges`` locates a term's window at the slice times once
    per store of located edges, and resolves it only when its edges differ
    from the last ones a run's store resolved for that window and slice
    count.  A stack that a ``WindowFrame`` loads shares its frame's times and
    store and its run's store: every later candidate only gathers, and a
    window whose edges repeat across attempts, as lo = hi = 0 and the whole
    slice do, is resolved once per run and width.
    """

    def __init__(self, h: float, dt: float, values, t_first: float = 0.0):
        values = np.asarray(values, dtype=float)
        _require_divides(dt, h, "delay span")
        self.h = float(h)
        self.dt = float(dt)
        self.n_h = int(round(self.h / self.dt))
        if values.ndim != 2 or values.shape[0] < self.n_h + 1:
            raise ValueError(f"need a (>= {self.n_h + 1}, n_modes) array of history rows")
        self.values = values
        self.n_windows = values.shape[0] - self.n_h
        self.thetas = -self.h + self.dt * np.arange(self.n_h + 1)
        self.norms = np.linalg.norm(values, axis=1)
        self.times = float(t_first) + self.dt * np.arange(self.n_windows)
        self._edges = {}
        self._run_edges = {}
        self._history_sums = None

    @classmethod
    def _trusted(cls, h: float, dt: float, thetas: np.ndarray, values: np.ndarray,
                 norms: np.ndarray, times: np.ndarray, edges: dict,
                 history_sums: np.ndarray | None, run_edges: dict) -> "SegmentStack":
        # Solver-internal constructor: rows, theta grid and row norms come
        # from a caller that already holds them consistent.  The stack reads
        # the arrays in place, so it is valid until the caller rewrites them.
        # ``edges`` is the caller's store of windows located at ``times``;
        # ``history_sums``, when given, is ``_first_block_sums`` of the
        # first n_h+1 norms; ``run_edges`` is the caller's store of the last
        # (lo, hi) resolved per window and slice count on this theta grid.
        obj = object.__new__(cls)
        obj.h = h
        obj.dt = dt
        obj.n_h = thetas.size - 1
        obj.values = values
        obj.n_windows = values.shape[0] - obj.n_h
        obj.thetas = thetas
        obj.norms = norms
        obj.times = times
        obj._edges = edges
        obj._run_edges = run_edges
        obj._history_sums = history_sums
        return obj

    @cached_property
    def _max_table(self) -> _RangeMax:
        return _RangeMax(self.norms, self.n_h + 1)

    @cached_property
    def _min_table(self) -> _RangeMax:
        return _RangeMax(-self.norms, self.n_h + 1)

    def oldest(self) -> np.ndarray:
        """Each slice's value at theta = -h."""
        return self.values[: self.n_windows]

    def current(self) -> np.ndarray:
        """Each slice's value at theta = 0."""
        return self.values[self.n_h :]

    def current_norms(self) -> np.ndarray:
        """Each slice's norm at theta = 0."""
        return self.norms[self.n_h :]

    def integral_norms(self) -> np.ndarray:
        """``integral_norm_functional`` of every slice (read-only, computed once).

        The trapezoid cells are summed within blocks of n_h cells, so slice
        i = b*n_h + r is the sum of block b from cell r on plus the first r
        cells after the block.  No difference of long running sums is taken,
        and each slice's rounding stays relative to the mass near it.  Only
        the blocks where slices start are summed: a stack of at most n_h
        slices, as every window's is when the window is shorter than the
        delay, takes one pass.  Block 0 reads only the first slice: a stack
        that a ``WindowFrame`` loads takes its sums from the frame, which
        adds them once per window.
        """
        return self._integral_norms

    @cached_property
    def _integral_norms(self) -> np.ndarray:
        n_h, norms = self.n_h, self.norms
        out = np.empty(self.n_windows)
        for start in range(0, self.n_windows, n_h):
            if start == 0 and self._history_sums is not None:
                suffix = self._history_sums
            else:
                suffix = _first_block_sums(self.dt, norms[start : start + n_h + 1])
            count = min(n_h, self.n_windows - start)
            out[start : start + count] = suffix[:count]
            after = norms[start + n_h : start + n_h + count]
            out[start + 1 : start + count] += np.cumsum(0.5 * self.dt * (after[:-1] + after[1:]))
        out.flags.writeable = False
        return out

    def sup_norms(self) -> np.ndarray:
        """``sup_norm`` of every slice."""
        first = np.arange(self.n_windows)
        return self._max_table.query(first, first + self.n_h)

    def min_norms(self) -> np.ndarray:
        """The smallest node norm of every slice."""
        first = np.arange(self.n_windows)
        return -self._min_table.query(first, first + self.n_h)

    def max_norms(self, lo, hi) -> np.ndarray:
        """``max_norm_functional`` of slice i over [lo[i], hi[i]], for every i."""
        return self.gather(self.resolve(lo, hi))

    def window_edges(self, window) -> WindowEdges:
        """``resolve`` of a term's ``WindowFns`` at the slice times, or of the
        whole slice for None.

        Each window is located once per edge store.  ``resolve`` depends on
        (lo, hi), the theta grid and the slice count alone, so windows equal
        to the last ones resolved for this window and slice count in the run
        store reuse their edges; others are resolved and replace them.  The
        whole slice and a window whose edges are the same at every time
        (``WindowFns.fixed``) are not located again once the run store
        holds them.
        """
        edges = self._edges.get(window)
        if edges is None:
            key = (window, self.n_windows)
            last = self._run_edges.get(key)
            if last is None or not (window is None or window.fixed):
                if window is None:
                    lo, hi = -self.h, 0.0
                else:
                    lo, hi = window.windows_at(self.times, self.h)
                if last is None or not (np.array_equal(last[0], lo)
                                        and np.array_equal(last[1], hi)):
                    last = self._run_edges[key] = (lo, hi, self.resolve(lo, hi))
            edges = self._edges[window] = last[2]
        return edges

    def resolve(self, lo, hi) -> WindowEdges:
        """Check and clip the windows [lo[i], hi[i]] and locate them on the grid."""
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (self.n_windows,))
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (self.n_windows,))
        _require_finite_window(lo, hi)
        eps = _GRID_EPS * max(1.0, self.h)
        if np.any(lo > hi):
            raise ValueError("every window must satisfy lo <= hi")
        if np.any(lo < -self.h - eps) or np.any(hi > eps):
            raise ValueError(f"a window leaves [-{self.h}, 0]")
        lo = np.maximum(lo, -self.h)
        hi = np.minimum(hi, 0.0)
        # interior nodes: thetas[a..b] are the ones strictly inside (lo, hi)
        a = np.searchsorted(self.thetas, lo, side="right")
        b = np.searchsorted(self.thetas, hi, side="left") - 1
        some = np.flatnonzero(a <= b)
        return WindowEdges(self._edge(lo), self._edge(hi), some, some + a[some], some + b[some])

    def _edge(self, theta: np.ndarray) -> _Edge:
        # where Segment.value_at for slice i reads at theta[i]: an edge that
        # snaps to a node reads that node, any other interpolates its cell
        th = self.thetas
        theta = np.minimum(np.maximum(theta, th[0]), th[-1])
        j = np.searchsorted(th, theta, side="right") - 1
        j = np.minimum(np.maximum(j, 0), th.size - 2)
        w = (theta - th[j]) / (th[j + 1] - th[j])
        rows = np.arange(self.n_windows) + j
        inner = np.flatnonzero((w > _GRID_EPS) & (w < 1.0 - _GRID_EPS))
        return _Edge(rows + (w >= 1.0 - _GRID_EPS), inner, rows[inner], w[inner, None])

    def gather(self, edges: WindowEdges) -> np.ndarray:
        """The window maximum of every slice over windows ``resolve`` located."""
        best = np.maximum(self._edge_norms(edges.lo), self._edge_norms(edges.hi))
        if edges.some.size:
            inner = self._max_table.query(edges.first, edges.last)
            best[edges.some] = np.maximum(best[edges.some], inner)
        return best

    def _edge_norms(self, edge: _Edge) -> np.ndarray:
        # the stored norm where the edge snaps to a node; only the edges
        # strictly inside a cell are interpolated and normed
        out = self.norms[edge.rows]
        if edge.inner.size:
            w = edge.w
            left = self.values[edge.left]
            right = self.values[edge.left + 1]
            out[edge.inner] = np.linalg.norm((1.0 - w) * left + w * right, axis=1)
        return out


def segment_at(path: SolutionPath, t: float, h: float) -> Segment:
    """Sample the history slice u(t + theta) from the path.

    The theta nodes split [-h, 0] into round(h/dt) steps, the path's own
    grid when dt divides h; values between path nodes, as at an off-grid
    t, are linearly interpolated.  The whole window [t - h, t] must be
    covered by the path.
    """
    if h <= 0.0:
        raise ValueError(f"delay span must be positive, got {h}")
    eps = _GRID_EPS * max(1.0, abs(t), h)
    if t - h < path.t_start - eps or t > path.t_end + eps:
        raise ValueError(
            f"segment window [{t - h}, {t}] outside path range [{path.t_start}, {path.t_end}]"
        )
    n_theta = max(1, int(round(h / path.dt)))
    thetas = np.linspace(-h, 0.0, n_theta + 1)
    pos = np.clip((t - path.t_start + thetas) / path.dt, 0.0, path.n_times - 1.0)
    base = np.minimum(pos.astype(int), path.n_times - 2)
    w = pos - base
    w[w <= _GRID_EPS] = 0.0
    w[w >= 1.0 - _GRID_EPS] = 1.0
    values = (1.0 - w)[:, None] * path.values[base] + w[:, None] * path.values[base + 1]
    return Segment(h, thetas, values)


def segment_on_grid(seg: Segment, dt: float) -> np.ndarray:
    """Segment values resampled onto the uniform theta grid -h..0 with step dt."""
    n_h = int(round(seg.h / dt))
    thetas = -seg.h + dt * np.arange(n_h + 1)
    if seg.thetas.size == n_h + 1 and np.allclose(seg.thetas, thetas, rtol=0.0,
                                                  atol=1e-12 * max(1.0, seg.h)):
        return np.array(seg.values, dtype=float)
    return np.vstack([seg.value_at(th) for th in thetas])


def extend(path: SolutionPath, m: int) -> SolutionPath:
    """The path through the m rows a converged window wrote, with their
    norms, into the free rows past its end (``solver.WindowFrame``).

    The window's first row is the path's last one, where it was solved
    from, so nothing is stitched or copied: the longer path shares the
    buffer.
    """
    free = path._rows.shape[0] - path.n_times
    if not 1 <= m <= free:
        raise ValueError(f"a window commits 1..{free} free rows of the path, got {m}")
    return SolutionPath._over(path, path._rows, path._norms, path.n_times + m)
