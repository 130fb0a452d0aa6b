"""Solution paths on a uniform time grid and sliding delay segments.

A path stores coefficient vectors at times t_start + i*dt.  A segment is the
slice theta -> u(t + theta) for theta in [-h, 0]: the piece of history a
delay functional sees at time t.  The delay span h is kept an exact integer
multiple of dt by configuration, so segment queries land on grid points and
off-grid times use linear interpolation without drift.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import StitchingError

#: Relative slack when matching times to grid indices.
_GRID_EPS = 1e-9
#: Largest overlap mismatch ``extend`` accepts between a window and the path.
_STITCH_TOL = 1e-8


class SolutionPath:
    """Coefficient trajectory on the uniform grid t_start + i*dt, i = 0..n-1."""

    def __init__(self, t_start: float, dt: float, values):
        values = np.asarray(values, dtype=float)
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError("values must be a (n_times >= 2, n_modes) array")
        self.t_start = float(t_start)
        self.dt = float(dt)
        self.values = values

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def t_end(self) -> float:
        return self.t_start + (self.n_times - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_times)

    def index_of(self, t: float) -> int:
        """Exact grid index of t; raises if t is off-grid."""
        pos = (t - self.t_start) / self.dt
        i = int(round(pos))
        if abs(pos - i) > _GRID_EPS or not 0 <= i < self.n_times:
            raise ValueError(f"time {t} is not a grid point of this path")
        return i

    def value_at(self, t: float) -> np.ndarray:
        """Linear interpolation between neighbouring grid values."""
        pos = (t - self.t_start) / self.dt
        if pos < -_GRID_EPS or pos > self.n_times - 1 + _GRID_EPS:
            raise ValueError(f"time {t} outside path range [{self.t_start}, {self.t_end}]")
        pos = min(max(pos, 0.0), float(self.n_times - 1))
        i = min(int(pos), self.n_times - 2)
        w = pos - i
        if w <= _GRID_EPS:
            return self.values[i].copy()
        if w >= 1.0 - _GRID_EPS:
            return self.values[i + 1].copy()
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]


class Segment:
    """History slice theta -> u(t + theta) on theta in [-h, 0].

    ``thetas`` is strictly increasing with thetas[0] = -h and thetas[-1] = 0;
    ``values`` holds one coefficient vector per theta node.
    """

    def __init__(self, h: float, thetas, values):
        thetas = np.asarray(thetas, dtype=float)
        values = np.asarray(values, dtype=float)
        if h <= 0.0:
            raise ValueError(f"delay span must be positive, got {h}")
        if thetas.ndim != 1 or thetas.size < 2:
            raise ValueError("need at least the two endpoint theta nodes")
        if values.shape[0] != thetas.size:
            raise ValueError("one value row per theta node required")
        if abs(thetas[0] + h) > _GRID_EPS * max(1.0, h) or abs(thetas[-1]) > _GRID_EPS * max(1.0, h):
            raise ValueError("theta nodes must cover exactly [-h, 0]")
        if np.any(np.diff(thetas) <= 0.0):
            raise ValueError("theta nodes must be strictly increasing")
        self.h = float(h)
        self.thetas = thetas
        self.values = values

    @classmethod
    def _trusted(cls, h: float, thetas, values) -> "Segment":
        # Solver-internal constructor: nodes already known to satisfy the
        # invariants, skip re-validation in hot loops.
        obj = object.__new__(cls)
        obj.h = h
        obj.thetas = thetas
        obj.values = values
        return obj

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    def value_at(self, theta: float) -> np.ndarray:
        """Linear interpolation in theta."""
        lo, hi = self.thetas[0], self.thetas[-1]
        eps = _GRID_EPS * max(1.0, self.h)
        if theta < lo - eps or theta > hi + eps:
            raise ValueError(f"theta {theta} outside [-{self.h}, 0]")
        theta = min(max(theta, lo), hi)
        i = int(np.searchsorted(self.thetas, theta, side="right")) - 1
        i = min(max(i, 0), self.thetas.size - 2)
        span = self.thetas[i + 1] - self.thetas[i]
        w = (theta - self.thetas[i]) / span
        if w <= _GRID_EPS:
            return self.values[i].copy()
        if w >= 1.0 - _GRID_EPS:
            return self.values[i + 1].copy()
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]

    def node_norms(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=1)

    def scaled(self, c: float) -> "Segment":
        return Segment._trusted(self.h, self.thetas, c * self.values)


def sup_norm(seg: Segment) -> float:
    """Max over theta nodes of the coefficient norm (exact on piecewise-linear data)."""
    return float(seg.node_norms().max())


def integral_norm_functional(seg: Segment) -> float:
    """Trapezoid quadrature of theta -> ||seg(theta)|| over [-h, 0]."""
    return float(np.trapezoid(seg.node_norms(), seg.thetas))


def max_norm_functional(seg: Segment, lo: float, hi: float) -> float:
    """Max of ||seg(theta)|| over the window [lo, hi], endpoints interpolated.

    The window is given in segment coordinates and must sit inside [-h, 0].
    """
    eps = _GRID_EPS * max(1.0, seg.h)
    if lo > hi:
        raise ValueError(f"window must satisfy lo <= hi, got [{lo}, {hi}]")
    if lo < -seg.h - eps or hi > eps:
        raise ValueError(f"window [{lo}, {hi}] outside [-{seg.h}, 0]")
    lo = max(lo, -seg.h)
    hi = min(hi, 0.0)
    best = max(
        float(np.linalg.norm(seg.value_at(lo))),
        float(np.linalg.norm(seg.value_at(hi))),
    )
    inside = (seg.thetas > lo) & (seg.thetas < hi)
    if np.any(inside):
        best = max(best, float(seg.node_norms()[inside].max()))
    return best


class _RangeMax:
    """Sparse table over ``x``: the max of x[a..b] for whole arrays of inclusive bounds.

    Level k holds the maxima of the runs of length 2^k; a query of length n
    takes the larger of two overlapping runs of length 2^floor(log2 n).
    """

    def __init__(self, x: np.ndarray, longest: int):
        self.levels = [x]
        span = 1
        while 2 * span <= longest:
            prev = self.levels[-1]
            self.levels.append(np.maximum(prev[:-span], prev[span:]))
            span *= 2

    def query(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # frexp(n) = (m, e) with n = m * 2^e and 0.5 <= m < 1: floor(log2 n) = e - 1
        k = np.frexp((b - a + 1).astype(float))[1] - 1
        out = np.empty(a.shape)
        for level in np.unique(k):
            sel = k == level
            row = self.levels[level]
            out[sel] = np.maximum(row[a[sel]], row[b[sel] - (1 << int(level)) + 1])
        return out


class SegmentStack:
    """The history slices of consecutive grid times as windows of one array.

    Row j of ``values`` is u(t_first - h + j*dt), so slice i -- the segment
    at t_first + i*dt -- is rows i..i+n_h on the theta grid -h + dt*arange.
    The batch functionals evaluate every slice at once and agree with the
    scalar ones applied to slice i: node norms are taken once, the delay
    mass comes from blockwise sums of trapezoid cells (equal up to summation
    order), and window maxima come from exactly interpolated endpoints plus
    a sparse-table range maximum over the interior nodes.
    """

    def __init__(self, h: float, dt: float, values):
        values = np.asarray(values, dtype=float)
        self.h = float(h)
        self.dt = float(dt)
        self.n_h = int(round(self.h / self.dt))
        if self.n_h < 1:
            raise ValueError(f"delay span {h} is shorter than one grid step {dt}")
        if values.ndim != 2 or values.shape[0] < self.n_h + 1:
            raise ValueError(f"need a (>= {self.n_h + 1}, n_modes) array of history rows")
        self.values = values
        self.n_windows = values.shape[0] - self.n_h
        self.thetas = -self.h + self.dt * np.arange(self.n_h + 1)
        self.norms = np.linalg.norm(values, axis=1)

    @classmethod
    def _trusted(cls, h: float, dt: float, thetas: np.ndarray, values: np.ndarray,
                 norms: np.ndarray) -> "SegmentStack":
        # Solver-internal constructor: rows, theta grid and row norms come
        # from a caller that already holds them consistent.  The stack reads
        # the arrays in place, so it is valid until the caller rewrites them.
        obj = object.__new__(cls)
        obj.h = h
        obj.dt = dt
        obj.n_h = thetas.size - 1
        obj.values = values
        obj.n_windows = values.shape[0] - obj.n_h
        obj.thetas = thetas
        obj.norms = norms
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

    def current_norms(self) -> np.ndarray:
        """Each slice's norm at theta = 0."""
        return self.norms[self.n_h :]

    def integral_norms(self) -> np.ndarray:
        """``integral_norm_functional`` of every slice (read-only, computed once).

        The trapezoid cells are summed within blocks of n_h cells, so slice
        i = b*n_h + r is the sum of block b from cell r on plus the first r
        cells of block b+1.  No difference of long running sums is taken, and
        each slice's rounding stays relative to the mass near it.
        """
        return self._integral_norms

    @cached_property
    def _integral_norms(self) -> np.ndarray:
        n_h = self.n_h
        cells = 0.5 * self.dt * (self.norms[:-1] + self.norms[1:])
        n_blocks = cells.size // n_h + 2
        blocks = np.zeros(n_blocks * n_h)
        blocks[: cells.size] = cells
        blocks = blocks.reshape(n_blocks, n_h)
        suffix = np.cumsum(blocks[:, ::-1], axis=1)[:, ::-1]
        prefix = np.zeros((n_blocks, n_h))
        np.cumsum(blocks[:, :-1], axis=1, out=prefix[:, 1:])
        b, r = np.divmod(np.arange(self.n_windows), n_h)
        out = suffix[b, r] + prefix[b + 1, r]
        out.flags.writeable = False
        return out

    def integral_error_bound(self) -> float:
        """Bound on |integral_norms()[i] - integral_norm_functional(slice i)|.

        Both are rounded sums of at most n rows' cells, so 8 n eps times the
        stack's total delay mass covers the rounding of either.
        """
        return 8.0 * np.finfo(float).eps * self.values.shape[0] * self.dt * self.norms.sum()

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
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (self.n_windows,))
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (self.n_windows,))
        eps = _GRID_EPS * max(1.0, self.h)
        if np.any(lo > hi):
            raise ValueError("every window must satisfy lo <= hi")
        if np.any(lo < -self.h - eps) or np.any(hi > eps):
            raise ValueError(f"a window leaves [-{self.h}, 0]")
        lo = np.maximum(lo, -self.h)
        hi = np.minimum(hi, 0.0)
        best = np.maximum(self._interpolated_norms(lo), self._interpolated_norms(hi))
        # interior nodes: thetas[a..b] are the ones strictly inside (lo, hi)
        a = np.searchsorted(self.thetas, lo, side="right")
        b = np.searchsorted(self.thetas, hi, side="left") - 1
        some = np.flatnonzero(a <= b)
        if some.size:
            inner = self._max_table.query(some + a[some], some + b[some])
            best[some] = np.maximum(best[some], inner)
        return best

    def _interpolated_norms(self, theta: np.ndarray) -> np.ndarray:
        # the norm of Segment.value_at for slice i at theta[i]: an edge that
        # snaps to a node reads that node's stored norm, and only the edges
        # strictly inside a cell are interpolated and normed
        th = self.thetas
        theta = np.minimum(np.maximum(theta, th[0]), th[-1])
        j = np.searchsorted(th, theta, side="right") - 1
        j = np.minimum(np.maximum(j, 0), th.size - 2)
        w = (theta - th[j]) / (th[j + 1] - th[j])
        rows = np.arange(self.n_windows) + j
        out = self.norms[rows + (w >= 1.0 - _GRID_EPS)]
        inner = np.flatnonzero((w > _GRID_EPS) & (w < 1.0 - _GRID_EPS))
        if inner.size:
            wi = w[inner, None]
            left = self.values[rows[inner]]
            right = self.values[rows[inner] + 1]
            out[inner] = np.linalg.norm((1.0 - wi) * left + wi * right, axis=1)
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


def extend(path: SolutionPath, new_values) -> SolutionPath:
    """Append window values whose first row overlaps the current endpoint.

    The overlap row replaces the stored endpoint.  A mismatch beyond
    ``_STITCH_TOL`` is refused: the window was solved from another state.
    """
    new_values = np.asarray(new_values, dtype=float)
    if new_values.ndim != 2 or new_values.shape[1] != path.values.shape[1]:
        raise StitchingError("new values must be (n, n_modes) matching the path")
    jump = float(np.linalg.norm(new_values[0] - path.values[-1]))
    if jump > _STITCH_TOL:
        raise StitchingError(f"overlap mismatch {jump:.3e} exceeds the stitching tolerance")
    merged = np.vstack([path.values[:-1], new_values])
    return SolutionPath(path.t_start, path.dt, merged)
