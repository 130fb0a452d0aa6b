"""One-window fixed-point solver for the mild integral formulation.

On a window starting at t0 with known history phi, a candidate trajectory y
is mapped to

    G(y)(s) = S(s)(phi(0) + g(t0, phi)) - g(t0+s, y_s)
              + Int_0^s e^(-mu (s-r)) (mu g + f)(t0+r, y_r) dr

and the solver iterates y <- (1-d) y + d G(y) until the sup-norm residual
||G(y) - y|| drops below tolerance.  In mode coordinates the generator is
the diagonal -mu, so the smoothing term -A S(s-r) g and the forcing term
S(s-r) f share one kernel and form a single memory integral of mu g + f;
the positive sign this gives the g part is fixed here, once, and pinned by
the constant-input closed-form tests.

The memory integral takes the exact exponential kernel against the
piecewise-linear interpolant of the integrand samples (second-order product
integration).  Per-cell weights are closed-form in z = mu*dt with a series
switchover at small z, keeping them accurate to 1e-10 relative across
z in [1e-12, 1e4]; the kernels are smooth per mode, so no singular
quadrature is needed anywhere.  ``exp_convolution`` gives the integral at
every grid index at once.  Its values obey the exact one-step recurrence
out[i] = e^(-mu dt) out[i-1] + (cell i), which it solves as a doubling
scan: log2(m) passes, each vectorised over all nodes and modes.  A loop
over time steps would cost one interpreter pass per cell, which dominates
on windows of a few hundred cells and few modes.

Only the columns the delay terms write are iterated.  Each term gives its
``support``, the columns its value can be nonzero in, and the union of
both terms' supports is the run's active set.  In a passive column,
outside it, g and f are 0 whatever the time and history, so there the mild
solution S(t)(phi(0) + g(0, phi)) - g(t, u_t) plus the memory integrals is
the free evolution S(t) phi(0), and G(y) is that whatever y: the exact
treatment of the linear part that exponential integrators rest on.  So
every attempt writes the passive columns of its window rows once, at that
fixed point, with each row's sum of their squares, and every candidate,
the first included, is extrapolated, written, mapped, checked and
measured on the active columns alone.  A row norm is the square root of
the row's passive sum plus its active squares; a run with no passive
column, as a run of one mode or of a point delay, adds nothing and sums
each row as the plain norm does, and a run with no active column converges
at its second iterate.  A contiguous active set is a basic slice: no
column is gathered.

The work is set up at two levels.  Per run, a ``RunFrame`` holds the theta
grid, the active columns with their rates and cell weights and, at the
run's first window width, the node offsets, the decay table e^(-mu s) of
the free evolution on every column, the scan factors of the active ones
and the warm start's Newton columns; a run only narrows its windows, and a
narrower one reads a prefix of each table.  It also keeps the running-max
window edges last resolved per window and width: their cells, weights and
interior-node bounds depend on the windows (lo, hi), the theta grid and
the slice count alone, so an attempt whose windows equal the stored ones
to the bit, as lo = hi = 0 and the whole slice do on every attempt,
reuses them.  Per attempt, one ``WindowFrame`` is shared by every
fixed-point iterate.  It works in the path's own buffer: its history is
the path's last n_h+1 rows with their stored norms (dt divides the delay
span, so every delayed value is a row of the path and nothing is
resampled), and its candidates go into the free rows after them, so no
history is copied and a converged window is committed where it was
solved.  It computes once: phi(0), the grid times, the free evolution
S(s)(phi(0) + g(t0, phi)) (the only scalar g call of the attempt), the
history's block of trapezoid sums for the delay masses and the passive
columns.  Its first iterate locates each running-max window at the grid
times and takes the run's edges or resolves new ones, so every later
iterate only gathers norms at the resolved rows.  Each candidate is loaded
once: ``load`` writes the active columns of its rows 1..m and their norms
(row 0 is phi(0), the path's last row, and keeps its stored norm), the
trust-region screen reads the stored norms, and the operator then calls
each term's ``evaluate_window`` on the same stack and the active columns
and runs the scan on mu g + f there.  A non-finite row of g or f reaches
G(y) through a positive weight, so ``solve_window`` tests only G(y), once
per iterate, under one ``errstate`` per attempt; the frame tests
phi(0) + g(t0, phi), which the free evolution scales.

Each window starts, in its active columns, from the polynomial of degree
``_WARM_DEGREE`` through its last history rows, continued over the window
(Newton backward differences at spacing dt, as in the continuous
extensions of Bellen & Zennaro, "Numerical Methods for Delay Differential
Equations", 2003), whose binomial weights the run frame builds once.  A
degree-p guess is off by O(w^(p+1)) where the flat start phi(0) is off by
O(w), so Picard iteration, whose error shrinks like (Lw)^k/k!, starts some
iterates ahead.
The flat start is the same extrapolation at degree 0 and serves as the
guard: a guess that leaves the trust region, takes a term past its
argument range or maps to non-finite values is dropped, and the window
iterates from phi(0) exactly as it would without a guess.  The guess
itself is never returned; G of it is iterate 1.

The settings a caller can change are the ``SolverConfig`` fields and
nothing else: the grid step, the window, and the iteration controls; the
damping d is set per attempt by the continuation's retry ladder.  A window
that fails is halved down to one grid step, and the domain is classified
with the band tolerance of ``DomainSpec.default_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, HypothesisViolation, NumericalBlowup
from .history import (Segment, SegmentStack, SolutionPath, _first_block_sums,
                      _require_divides)
from .problem import NeutralProblem
from .spectral import SpectralOperator

#: Below this z the closed-form weights lose the 1e-10 target to cancellation.
_SERIES_Z = 0.04

#: Most grid steps the delay span may hold.  A run allocates its history of
#: n_h + 1 rows before the first window, and its path grows by doubling;
#: the largest delay grid of any bundled scenario, benchmark workload or
#: convergence-study reference is a few thousand steps, and a step that
#: small on a unit delay is far below what the fixed point can resolve in
#: double precision.
_MAX_DELAY_CELLS = 10**7

#: Most values the history's n_h + 1 rows may hold over all modes: 800 MB a
#: copy, and a run keeps a few (the path, a copy when its buffer doubles).
#: The widest bundled or benchmark history holds under 10**6.
_MAX_HISTORY_VALUES = 10**8

#: Degree of the history extrapolation that starts each window.  Degrees
#: 0-6 take 192/165/140/116/89/107/130 iterates on the exit_fine workload
#: and 85/69/67/54/53/41/42 on modes_wide (seed 7).
_WARM_DEGREE = 4


def _series_coeffs():
    # Taylor coefficients in z (degree 0..8) of the unit cell weights:
    #   W0(z) = (1 - e^-z (1+z))/z^2 = sum_{n>=2} (-1)^n z^(n-2) (n-1)/n!
    #   W1(z) = (z - 1 + e^-z)/z^2  = sum_{n>=2} (-1)^n z^(n-2)/n!
    n = np.arange(2, 11)
    sign = (-1.0) ** n
    fact = np.array([math.factorial(int(k)) for k in n], dtype=float)
    return sign * (n - 1) / fact, sign / fact


_W0_COEF, _W1_COEF = _series_coeffs()


def cell_weights(mu, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Left/right interpolation weights of one grid cell against e^(-mu (dt - s)).

    Returns (w0, w1) per mode such that the cell [0, dt] contributes
    w0*p(0) + w1*p(dt) to the integral of e^(-mu (dt - s)) p(s) ds for
    linear p.
    """
    z = np.atleast_1d(np.asarray(mu, dtype=float)) * dt
    w0 = np.empty_like(z)
    w1 = np.empty_like(z)
    small = z < _SERIES_Z
    if np.any(small):
        zs = z[small]
        powers = zs[:, None] ** np.arange(len(_W0_COEF))[None, :]
        w0[small] = powers @ _W0_COEF
        w1[small] = powers @ _W1_COEF
    big = ~small
    if np.any(big):
        zb = z[big]
        ez = np.exp(-zb)
        w0[big] = (1.0 - ez * (1.0 + zb)) / zb**2
        w1[big] = (zb - 1.0 + ez) / zb**2
    return dt * w0, dt * w1


def exp_convolution(mu, values, dt: float) -> np.ndarray:
    """Exact integral of e^(-mu (t_i - s)) p(s) over [t_0, t_i] at every grid index.

    ``values`` holds the integrand on the grid t_0..t_n (one row per node,
    one column per rate in ``mu``) and p is its piecewise-linear
    interpolant; row i of the (n_nodes, n_modes) result is the integral up
    to t_i, so row 0 is zero.  With the cell contributions
    c_i = w0 v_(i-1) + w1 v_i the rows obey out[i] = r out[i-1] + c_i,
    r = e^(-mu dt), which a doubling scan solves in log2(n) vectorised
    passes.  Every factor lies in [0, 1], so stiff modes underflow to zero.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    values = np.asarray(values, dtype=float)
    w0, w1 = cell_weights(mu, dt)
    return _product_scan(values, w0, w1, _scan_factors(mu, dt, values.shape[0]))


def _scan_factors(mu: np.ndarray, dt: float, n_nodes: int) -> list[np.ndarray]:
    # r, r^2, r^4, ...: one factor per doubling pass over n_nodes rows
    factors = []
    r = np.exp(-mu * dt)
    step = 1
    while step < n_nodes:
        factors.append(r)
        r = r * r
        step *= 2
    return factors


def _product_scan(values: np.ndarray, w0: np.ndarray, w1: np.ndarray,
                  factors: list[np.ndarray]) -> np.ndarray:
    # the doubling scan of exp_convolution, with weights and factors given
    out = np.zeros_like(values)
    out[1:] = w0 * values[:-1] + w1 * values[1:]
    step = 1
    for r in factors:
        # the right side is formed before the add, so each pass reads the
        # previous pass's rows: row i then sums the last 2*step cells
        out[step:] += r * out[:-step]
        step *= 2
    return out


def _checked_prefix(op: SpectralOperator, values, t_index: int, dt: float) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != op.n_modes:
        raise ValueError("values must be (n_nodes, n_modes)")
    if not 0 <= t_index < values.shape[0]:
        raise ValueError(f"t_index {t_index} outside grid 0..{values.shape[0] - 1}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return values[: t_index + 1]


def semigroup_convolution(op: SpectralOperator, values, t_index: int, dt: float) -> np.ndarray:
    """Exact integral of e^(-mu (t-s)) against the piecewise-linear samples.

    ``values`` holds the integrand on the grid s_0..s_n (one row per node);
    the result is the per-mode convolution at t = s_0 + t_index*dt.
    """
    prefix = _checked_prefix(op, values, t_index, dt)
    return exp_convolution(op.mu, prefix, dt)[-1]


def generator_convolution(op: SpectralOperator, values, t_index: int, dt: float) -> np.ndarray:
    """As semigroup_convolution but with the kernel mu e^(-mu (t-s))."""
    prefix = _checked_prefix(op, values, t_index, dt)
    return exp_convolution(op.mu, op.mu * prefix, dt)[-1]


# ---------------------------------------------------------------------------
# window solver


@dataclass(frozen=True)
class SolverConfig:
    """Grid step, window length, and iteration controls for one-window solves.

    ``trust_radius`` bounds how far any history slice of the iterate may
    drift from the window's initial history (the certified neighbourhood of
    the contraction argument); leaving it aborts the window so the caller
    can shrink.  A failing window is halved down to one grid step.
    """

    dt: float
    window: float
    tol: float = 1e-10
    max_iter: int = 200
    trust_radius: float = 100.0

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.window <= 0.0:
            raise ValueError(f"window must be positive, got {self.window}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not self.trust_radius >= 0.0:
            raise ValueError(f"trust_radius must be >= 0, got {self.trust_radius}")
        _require_divides(self.dt, self.window, "window")

    def validate_grid(self, h: float, span: float, n_modes: int = 1) -> None:
        """dt must divide the delay span h and the horizon span, h may hold
        at most ``_MAX_DELAY_CELLS`` steps, and its n_h + 1 rows of
        ``n_modes`` values at most ``_MAX_HISTORY_VALUES`` values.

        Nothing is allocated.  The horizon and the window are not bounded:
        the path grows as the run goes, and the window is clipped to the
        delay.
        """
        _require_divides(self.dt, h, "delay span")
        if h / self.dt > _MAX_DELAY_CELLS:
            raise ValueError(f"the delay span {h} holds {h / self.dt:.3g} steps of "
                             f"dt={self.dt}, more than the {_MAX_DELAY_CELLS} a history may hold")
        rows = round(h / self.dt) + 1
        if rows * n_modes > _MAX_HISTORY_VALUES:
            raise ValueError(f"a history of {rows} rows of {n_modes} modes holds "
                             f"{rows * n_modes:.3g} values, more than the "
                             f"{_MAX_HISTORY_VALUES} a run may hold")
        _require_divides(self.dt, span, "horizon span")


@dataclass
class WindowResult:
    """Outcome of one window solve: grid values plus iteration diagnostics,
    and once converged the ``stack`` its values were last loaded into."""

    values: np.ndarray
    iterations: int
    residual: float
    contraction_estimate: float
    status: str  # "converged" | "diverged" | "left_trust_region"
    t0: float = 0.0
    window: float = 0.0
    stack: SegmentStack | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _columns(support: np.ndarray):
    """Index of the sorted columns ``support``: a basic slice when they are
    contiguous (all of them, one or none included), else the array itself."""
    if support.size == 0:
        return slice(0, 0)
    if support[-1] - support[0] + 1 == support.size:
        return slice(int(support[0]), int(support[-1]) + 1)
    return support


class RunFrame:
    """What every window attempt of one run shares: a problem, a grid step
    and windows of at most m cells.

    ``active`` indexes the columns the delay terms can write, the union of
    their supports, as a basic slice when it is contiguous; ``n_active``
    counts them, and every other column is passive.  Beside the theta grid
    it holds the decay table e^(-mu s) of the free evolution on every
    column, built at width m with the node offsets dt*arange(m+1), on the
    active columns alone the rates, the cell weights and the scan factors,
    and the warm start's Newton columns ``newton``.  A window of k <= m
    cells reads the first k+1 rows, first k.bit_length() factors and first
    k Newton rows, bitwise what a k-cell build gives.  ``edges`` keeps the
    last resolved running-max window edges per window and slice count
    (``SegmentStack.window_edges``): an attempt whose windows repeat them,
    as lo = hi = 0 and the whole slice do, only gathers.  The tables go
    with the frame, never into a module- or operator-level cache.
    """

    def __init__(self, prob: NeutralProblem, dt: float, m: int):
        n_modes = prob.op.n_modes
        written = np.zeros(n_modes, dtype=bool)
        written[prob.g.support(n_modes)] = True
        written[prob.f.support(n_modes)] = True
        support = np.flatnonzero(written)
        self.active = _columns(support)
        self.n_active = support.size
        mu = prob.op.mu[self.active]
        self.prob = prob
        self.dt = dt
        self.m = m
        self.n_h = int(round(prob.h / dt))
        self.thetas = -prob.h + dt * np.arange(self.n_h + 1)
        self.mu = mu
        self.w0, self.w1 = cell_weights(mu, dt)
        self.offsets = dt * np.arange(m + 1)
        self.decay = np.exp(-np.outer(self.offsets, prob.op.mu))
        self.factors = _scan_factors(mu, dt, m + 1)
        self.newton = _newton_columns(m, _WARM_DEGREE)
        self.edges: dict = {}


def _history_rows(hist, n_h: int, n_modes: int) -> np.ndarray:
    """``hist`` as the (n_h+1, n_modes) grid rows of a window's history."""
    hist = np.asarray(hist, dtype=float)
    if hist.shape != (n_h + 1, n_modes):
        raise ValueError(f"history must be ({n_h + 1}, {n_modes}) grid rows, got {hist.shape}")
    return hist


class WindowFrame:
    """What one window attempt's iterates share, computed once per attempt.

    The window starts at t0 and has m cells.  Its history is n_h+1 grid
    rows u(t0 - h + k*dt), k = 0..n_h, with n_h = h/dt: the last rows of a
    ``SolutionPath``, or an (n_h+1, n_modes) array, which is copied into a
    path of its own.  The frame works in the path's rows buffer and its row
    norms: the history, then the m+1 window rows, of which row 0 is the
    history's last, phi(0).  The path lends them with m free rows past its
    end (``SolutionPath._reserve``); nothing the path holds is copied or
    rewritten, and ``extend`` of the converged window checks its overlap
    and moves the path's fill mark.
    What depends on the problem, dt and m alone comes from the run's
    ``RunFrame``, of width m or more (a fresh one of width m when none is
    given): the theta grid, the active columns, their cell weights and
    scan factors, and the decay table.

    Per attempt the frame computes the grid times, phi(0), the free
    evolution ``free``, S(s)(phi(0) + g(t0, phi)) (the only scalar g call
    of the attempt), and the history's block of trapezoid sums for the
    delay masses.  The passive columns, those outside ``run.active``, take
    the free evolution: G(y) there is phi(0) at the window start and
    ``free + 0.0`` after it, whatever y, so the frame writes that into
    window rows 1..m once, with each row's sum of passive squares.  Each
    ``load`` then writes the candidate's active columns into rows 1..m and
    gives each of those rows the norm sqrt(passive sum + active squares);
    row 0 keeps the path's stored norm.  A run with no passive column
    sums every row as the plain row norm does.  ``load`` returns a stack
    over the buffers at the frame's grid times; that stack is valid until
    the next ``load``.  ``edges`` is the attempt's store of running-max
    window edges, keyed by the term's ``WindowFns`` (None for the full
    window), that every loaded stack shares with the run's store: its
    ``window_edges`` locates each window at the grid times on the first
    iterate that needs it, resolving it only when the run's last edges for
    that window and width differ, and the rest gather.  Terms are shared
    across frames and runs, so the stores live on the frames.
    """

    def __init__(self, prob: NeutralProblem, hist, t0: float, dt: float, m: int,
                 run: RunFrame | None = None):
        if m < 1:
            raise ValueError(f"a window needs at least one cell, got m={m}")
        if run is None:
            run = RunFrame(prob, dt, m)
        elif run.prob is not prob or run.dt != dt or run.m < m:
            raise ValueError("the run frame is for another problem, grid step or narrower windows")
        n_h = self.n_h = run.n_h
        n_modes = prob.op.n_modes
        if not isinstance(hist, SolutionPath):
            hist = SolutionPath(t0 - prob.h, dt, _history_rows(hist, n_h, n_modes))
        elif hist.dt != dt or hist.n_times <= n_h or hist.values.shape[1] != n_modes:
            raise ValueError(f"history must be a path of step {dt} holding at least "
                             f"{n_h + 1} grid rows of {n_modes} modes")
        buf = hist._reserve(m)
        first = hist.n_times - 1 - n_h
        self.rows = buf.rows[first : first + n_h + m + 1]
        self.norms = buf.norms[first : first + n_h + m + 1]
        self.prob = prob
        self.run = run
        self.t0 = t0
        self.dt = dt
        self.m = m
        self.times = t0 + run.offsets[: m + 1]
        self.factors = run.factors[: m.bit_length()]
        self.hist = self.rows[: n_h + 1]
        self.phi0 = self.hist[-1]
        hist_norms = self.norms[: n_h + 1]
        self.hist_sup = float(hist_norms.max())
        # row 0 of the window keeps phi(0)'s stored norm, so the first
        # slice's block of delay-mass sums holds for every load
        self._history_sums = _first_block_sums(dt, hist_norms)
        seg = Segment._trusted(prob.h, run.thetas, self.hist, hist_norms)
        start = self.phi0 + prob.eval_g(t0, seg)
        if not np.isfinite(start).all():
            raise NumericalBlowup(f"window at t0={t0} produced non-finite values")
        self.free = run.decay[: m + 1] * start[None, :]
        # the passive columns' G: the free evolution, with the 0.0 that
        # turns its -0.0 into the +0.0 that free - g + (memory integral) gives
        after = self.rows[n_h + 1 :]
        np.add(self.free[1:], 0.0, out=after)
        self._passive_sums = None
        if run.n_active < n_modes:
            squares = after * after
            squares[:, run.active] = 0.0
            self._passive_sums = np.add.reduce(squares, axis=1)
        self._squares = np.empty((m, run.n_active))
        self.edges: dict = {}

    def load(self, candidate: np.ndarray) -> SegmentStack:
        """Write rows 1..m of the candidate, (m+1, n_active) values of the
        active columns, and their row norms; the stack over all rows.

        Row 0 is phi(0), which the candidate's row 0 repeats; it is not
        written.
        """
        if candidate.shape != (self.m + 1, self.run.n_active):
            raise ValueError(f"candidate must be ({self.m + 1}, {self.run.n_active}) values of "
                             f"the active columns, got {candidate.shape}")
        new = candidate[1:]
        self.rows[self.n_h + 1 :, self.run.active] = new
        norms = self.norms[self.n_h + 1 :]
        # the row norms without temporaries: active squares plus passive sums
        np.multiply(new, new, out=self._squares)
        np.add.reduce(self._squares, axis=1, out=norms)
        if self._passive_sums is not None:
            norms += self._passive_sums
        np.sqrt(norms, out=norms)
        return SegmentStack._trusted(self.prob.h, self.dt, self.run.thetas, self.rows,
                                     self.norms, self.times, self.edges, self._history_sums,
                                     self.run.edges)

    def values(self) -> np.ndarray:
        """A copy of the window values: the last loaded candidate, every column."""
        return self.rows[self.n_h :].copy()


def evaluate_window_operator(frame: WindowFrame, stack: SegmentStack) -> np.ndarray:
    """Apply the window fixed-point map G, on the frame's active columns, to
    the candidate loaded in the frame.

    ``stack`` is what ``frame.load(candidate)`` returned, for a candidate
    holding window values on t0 + i*dt, i = 0..m, with row 0 the window's
    starting value; slice i is the history the delay terms see at t0 + i*dt.
    The window start plays the role of time zero in the integral formula;
    delay terms still see the true time t0 + s.  The value at the left
    endpoint is the identity phi(0) by construction and is returned exactly.
    The result has one column per active column, each bitwise what G on
    every column of the loaded rows gives there; in the passive columns G
    is the frame's free evolution, which the rows already hold.  Non-finite
    values are returned as they are; ``solve_window`` checks them.
    """
    prob = frame.prob
    run = frame.run
    active = run.active
    g_vals = prob.g.evaluate_window(stack, active)
    f_vals = prob.f.evaluate_window(stack, active)
    out = frame.free[:, active] - g_vals
    out += _product_scan(run.mu * g_vals + f_vals, run.w0, run.w1, frame.factors)
    out[0] = frame.phi0[active]
    return out


def _drift_exceeds(frame: WindowFrame, radius: float) -> bool:
    """Does any sliding history slice of the loaded candidate drift further
    than ``radius`` from the initial history (sup-norm over theta)?

    A triangle-inequality screen on the stored row norms skips the exact
    pass whenever it cannot possibly trigger, which is the common case for
    generous radii.
    """
    if frame.norms.max() + frame.hist_sup <= radius:
        return False
    n_h = frame.n_h
    for i in range(frame.m + 1):
        diff = frame.rows[i : i + n_h + 1] - frame.hist
        if float(np.linalg.norm(diff, axis=1).max()) > radius:
            return True
    return False


def _newton_columns(m: int, degree: int) -> np.ndarray:
    """C(i+k-1, k) for i = 1..m, k = 1..degree: column k-1 of a (degree, m, 1) array.

    Each column is the previous one times (i+k-1)/k, rounded in that order,
    so row i of every column depends on i alone and a prefix of rows is
    what a narrower build gives.
    """
    i = np.arange(1.0, m + 1.0)[:, None]
    out = np.empty((degree, m, 1))
    coeff = np.ones_like(i)
    for k in range(1, degree + 1):
        coeff *= i + (k - 1)
        coeff /= k
        out[k - 1] = coeff
    return out


def _warm_start(hist: np.ndarray, m: int, degree: int, newton: np.ndarray) -> np.ndarray:
    """First candidate: the polynomial through the last degree+1 history rows,
    continued to the m+1 window nodes.

    Newton's backward form at spacing dt, p(i dt) = sum_k C(i+k-1, k) D^k,
    with D^k the k-th backward difference of the rows at phi(0) and the
    binomials read from ``newton`` (``_newton_columns`` of m or more rows
    and at least ``degree`` columns).  Row 0 is phi(0) exactly, and degree 0
    is the flat start.  A history of fewer rows lowers the degree to what
    it holds.
    """
    degree = min(degree, hist.shape[0] - 1)
    diff = hist[hist.shape[0] - degree - 1 :]
    y = np.empty((m + 1, hist.shape[1]))
    y[...] = hist[-1]
    for k in range(1, degree + 1):
        diff = diff[1:] - diff[:-1]
        y[1:] += newton[k - 1, :m] * diff[-1]
    return y


def _first_candidate(frame: WindowFrame, radius: float):
    """The extrapolated start, its stack and its G(y); else the flat start, its stack and None.

    The guess is kept only when it stays in the trust region and G maps it
    to finite values without leaving a term's argument range.  Otherwise
    the window runs exactly the iteration from phi(0), so the trust-region,
    ``y_max`` and blow-up outcomes are those of the flat start.  Both
    starts and G(y) hold the active columns.
    """
    newton = frame.run.newton
    last = frame.hist[-(_WARM_DEGREE + 1) :, frame.run.active]
    y = _warm_start(last, frame.m, _WARM_DEGREE, newton)
    stack = frame.load(y)
    if not _drift_exceeds(frame, radius):
        try:
            gy = evaluate_window_operator(frame, stack)
        except DomainViolation:
            gy = None
        if gy is not None and np.isfinite(gy).all():
            return y, stack, gy
    y = _warm_start(last, frame.m, 0, newton)
    return y, frame.load(y), None


@np.errstate(over="ignore", invalid="ignore")
def solve_window(prob: NeutralProblem, hist, t0: float, cfg: SolverConfig,
                 damping: float = 1.0, run: RunFrame | None = None,
                 m: int | None = None) -> WindowResult:
    """Damped fixed-point iteration on a window of m cells after the history ``hist``.

    The first candidate extrapolates the history (``_first_candidate``);
    each iterate is y <- (1 - damping) y + damping G(y), with damping in
    (0, 1]; the continuation's retry ladder passes 1 and then 0.5.  ``hist``
    and ``run`` go to the ``WindowFrame``: a run passes its path and its
    ``RunFrame``.  m defaults to the configured window; the continuation
    passes each attempt's.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    dt = cfg.dt
    if m is None:
        m = int(round(cfg.window / dt))
    width = m * dt
    frame = WindowFrame(prob, hist, t0, dt, m, run)
    phi0 = frame.phi0[frame.run.active]
    # each candidate is loaded once: the trust check and the next iterate
    # both read the same stack
    y, stack, gy = _first_candidate(frame, cfg.trust_radius)
    guessed = gy is not None
    if not guessed and _drift_exceeds(frame, cfg.trust_radius):
        return WindowResult(frame.values(), 0, np.inf, 0.0, "left_trust_region", t0, width)

    prev_residual = None
    residual = np.inf
    contraction = 0.0
    for it in range(1, cfg.max_iter + 1):
        if gy is None:
            gy = evaluate_window_operator(frame, stack)
            if not np.isfinite(gy).all():
                raise NumericalBlowup(f"window at t0={t0} produced non-finite values")
        diff = gy - y
        # np.linalg.norm(diff, axis=1).max(): sqrt is monotone, so it can
        # follow the max
        residual = float(np.sqrt(np.add.reduce(diff * diff, axis=1).max()))
        if prev_residual is not None and prev_residual > 0.0:
            contraction = residual / prev_residual
        # the guess is never returned as it stands, so a window's values are
        # an image of G, and a G that ignores the candidate gives its exact
        # fixed point
        if residual <= cfg.tol and not (guessed and it == 1):
            return WindowResult(frame.values(), it, residual, contraction, "converged", t0,
                                width, stack)
        prev_residual = residual
        if damping == 1.0:
            y = gy
        else:
            y = (1.0 - damping) * y + damping * gy
        y[0] = phi0
        gy = None
        stack = frame.load(y)
        if _drift_exceeds(frame, cfg.trust_radius):
            return WindowResult(frame.values(), it, residual, contraction, "left_trust_region",
                                t0, width)
    return WindowResult(frame.values(), cfg.max_iter, residual, contraction, "diverged", t0,
                        width)


def heuristic_window(prob: NeutralProblem, cfg: SolverConfig) -> float:
    """Initial window suggestion from the contraction budget.

    Picks the smallest integer k with 7/k + mg < 1 and proposes h/k, clipped
    to the configured window and floored at one grid step.  Advisory:
    the continuation loop still shrinks adaptively on failure.
    """
    mg = prob.mg_bound
    if mg >= 1.0:
        raise HypothesisViolation(f"contraction budget {mg} >= 1 admits no window")
    k = math.floor(7.0 / (1.0 - mg)) + 1
    w = min(cfg.window, prob.h / k)
    return max(w, cfg.dt)


@np.errstate(over="ignore", invalid="ignore")
def sample_neutral_contraction(prob: NeutralProblem, hist, t0: float,
                               values, dt: float, n_pairs: int, seed: int) -> float:
    """Measured Lipschitz ratio of the pure neutral part over candidate pairs.

    Perturbs the window values into nearby admissible candidate pairs and
    returns the largest ratio

        sup_s ||g(t, y1_s) - g(t, y2_s)|| / sup_s ||y1(s) - y2(s)||

    (plain coefficient norms) on the window with grid rows ``hist``.  For an
    admissible problem this stays below the declared contraction budget.
    """
    values = np.asarray(values, dtype=float)
    hist = _history_rows(hist, int(round(prob.h / dt)), prob.op.n_modes)
    rng = np.random.default_rng(seed)
    scale = 0.01 * (1.0 + float(np.linalg.norm(values, axis=1).max()))
    best = 0.0
    for _ in range(n_pairs):
        d1 = scale * rng.uniform(-1.0, 1.0, size=values.shape)
        d2 = scale * rng.uniform(-1.0, 1.0, size=values.shape)
        d1[0] = 0.0
        d2[0] = 0.0
        y1 = values + d1
        y2 = values + d2
        denom = float(np.linalg.norm(y1 - y2, axis=1).max())
        if denom < 1e-14:
            continue
        g1, g2 = (prob.g.evaluate_window(SegmentStack(prob.h, dt, np.vstack([hist[:-1], y]), t0))
                  for y in (y1, y2))
        if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
            raise NumericalBlowup("neutral term produced non-finite coefficients")
        num = float(np.linalg.norm(g1 - g2, axis=1).max())
        best = max(best, num / denom)
    return best
