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

The work is set up at two levels.  Per run, a ``RunFrame`` holds the theta
grid, the cell weights and, at the run's first window width, the node
offsets, the decay table e^(-mu s) of the free evolution and the scan
factors; a run only narrows its windows, and a narrower one reads a prefix
of each table.  Per attempt, one ``WindowFrame`` is shared by every
fixed-point iterate.  It takes the window's history as its n_h+1 grid rows
and their norms, which a run reads from its path's norm column: dt divides
the delay span, so every delayed value is a row of the path and nothing is
resampled.  It computes once: phi(0), the grid times, the free evolution
S(s)(phi(0) + g(t0, phi)) (the only scalar g call of the attempt), the
history's block of trapezoid sums for the delay masses, and a rows buffer
whose first n_h rows and norms hold the history.  It also holds the
running-max window edges its first iterate resolves: the windows, their
cells, weights and interior-node bounds depend on the grid times alone, so
every later iterate only gathers norms at the resolved rows.  Each
candidate is loaded once: ``load`` writes its m+1 rows and their norms into
the buffer's tail, the trust-region screen reads the stored norms, and the
operator then calls each term's ``evaluate_window`` on the same stack and
runs the scan on mu g + f.  A non-finite row of g or f reaches G(y) through
a positive weight, so ``solve_window`` tests only G(y), once per iterate,
under one ``errstate`` per attempt.

Each window starts from the polynomial of degree ``_WARM_DEGREE`` through
its last history rows, continued over the window (Newton backward
differences at spacing dt, as in the continuous extensions of Bellen &
Zennaro, "Numerical Methods for Delay Differential Equations", 2003).  A
degree-p guess is off by O(w^(p+1)) where the flat start phi(0) is off by
O(w), so Picard iteration, whose error shrinks like (Lw)^k/k!, starts some
iterates ahead.  The flat start is the same extrapolation at degree 0 and
serves as the guard: a guess that leaves the trust region, takes a term
past its argument range or maps to non-finite values is dropped, and the
window iterates from phi(0) exactly as it would without a guess.  The guess
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
from functools import cached_property

import numpy as np

from .errors import DomainViolation, HypothesisViolation, NumericalBlowup
from .history import Segment, SegmentStack, _first_block_sums, _require_divides
from .problem import NeutralProblem
from .spectral import SpectralOperator

#: Below this z the closed-form weights lose the 1e-10 target to cancellation.
_SERIES_Z = 0.04

#: Most grid steps the delay span may hold.  A run allocates its history of
#: n_h + 1 rows before the first window, and each window's frame holds
#: n_h + m + 1; the largest delay grid of any bundled scenario, benchmark
#: workload or convergence-study reference is a few thousand steps, and a
#: step that small on a unit delay is far below what the fixed point can
#: resolve in double precision.
_MAX_DELAY_CELLS = 10**7

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
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.trust_radius >= 0.0:
            raise ValueError(f"trust_radius must be >= 0, got {self.trust_radius}")
        _require_divides(self.dt, self.window, "window")

    def validate_grid(self, h: float, span: float) -> None:
        """dt must divide the delay span h and the horizon span, and h may
        hold at most ``_MAX_DELAY_CELLS`` steps.

        The horizon and the window are not bounded: the path grows as the
        run goes, and the window is clipped to the delay.
        """
        _require_divides(self.dt, h, "delay span")
        if h / self.dt > _MAX_DELAY_CELLS:
            raise ValueError(f"the delay span {h} holds {h / self.dt:.3g} steps of "
                             f"dt={self.dt}, more than the {_MAX_DELAY_CELLS} a history may hold")
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


class RunFrame:
    """What every window attempt of one run shares: a problem, a grid step
    and windows of at most m cells.

    Beside the theta grid and the cell weights it holds, built at width m,
    the node offsets dt*arange(m+1), the decay table e^(-mu s) of the free
    evolution and the scan factors.  A window of k <= m cells reads their
    first k+1 rows and first k.bit_length() factors, bitwise what a k-cell
    build gives.  The tables go with the frame, never into a module- or
    operator-level cache.
    """

    def __init__(self, prob: NeutralProblem, dt: float, m: int):
        mu = prob.op.mu
        self.prob = prob
        self.dt = dt
        self.m = m
        self.n_h = int(round(prob.h / dt))
        self.thetas = -prob.h + dt * np.arange(self.n_h + 1)
        self.w0, self.w1 = cell_weights(mu, dt)
        self.offsets = dt * np.arange(m + 1)
        self.decay = np.exp(-np.outer(self.offsets, mu))
        self.factors = _scan_factors(mu, dt, m + 1)


class WindowFrame:
    """What one window attempt's iterates share, computed once per attempt.

    The window starts at t0 and has m cells.  It takes the window's grid
    rows ``hist``: the (n_h+1, n_modes) values u(t0 - h + k*dt), k = 0..n_h,
    with n_h = h/dt, and their row norms ``hist_norms`` (taken here when not
    given; a run passes its path's norm column).  What depends on the
    problem, dt and m alone comes from the run's ``RunFrame``, of width m
    or more (a fresh one of width m when none is given): the theta grid,
    the cell weights, the scan factors and the decay table.  Per attempt
    the frame holds the history, the grid times, phi(0), the free evolution
    S(s)(phi(0) + g(t0, phi)), the history's block of trapezoid sums for
    the delay masses, and one rows buffer whose first n_h rows are the
    history and whose last m+1 rows hold the candidate, with the row norms
    beside it.  ``load`` writes a
    candidate into the tail and returns a stack over the buffers at the
    frame's grid times; that stack is valid until the next ``load``.
    ``edges`` is the store of running-max window edges, keyed by the term's
    ``WindowFns`` (None for the full window), that every loaded stack
    shares: its ``window_edges`` resolves each window on the first iterate
    that needs it, and the rest gather.  Terms are shared across frames and
    runs, so edges live here.
    """

    def __init__(self, prob: NeutralProblem, hist, t0: float, dt: float, m: int,
                 run: RunFrame | None = None, hist_norms=None):
        if m < 1:
            raise ValueError(f"a window needs at least one cell, got m={m}")
        if run is None:
            run = RunFrame(prob, dt, m)
        elif run.prob is not prob or run.dt != dt or run.m < m:
            raise ValueError("the run frame is for another problem, grid step or narrower windows")
        self.n_h = run.n_h
        n_modes = prob.op.n_modes
        self.hist = np.asarray(hist, dtype=float)
        if self.hist.shape != (self.n_h + 1, n_modes):
            raise ValueError(f"history must be ({self.n_h + 1}, {n_modes}) grid rows, "
                             f"got {self.hist.shape}")
        if hist_norms is None:
            hist_norms = np.linalg.norm(self.hist, axis=1)
        self.prob = prob
        self.run = run
        self.t0 = t0
        self.dt = dt
        self.m = m
        self.times = t0 + run.offsets[: m + 1]
        self.factors = run.factors[: m.bit_length()]
        self.phi0 = self.hist[-1]
        self.rows = np.empty((self.n_h + m + 1, n_modes))
        self.rows[: self.n_h] = self.hist[:-1]
        self.norms = np.empty(self.n_h + m + 1)
        self.norms[: self.n_h] = hist_norms[:-1]
        self.hist_sup = float(hist_norms.max())
        # the first slice's block of delay-mass sums holds while a candidate
        # starts at a row of phi(0)'s norm, as every iterate of solve_window does
        self._phi0_norm = hist_norms[-1]
        self._history_sums = _first_block_sums(dt, hist_norms)
        self._squares = np.empty((m + 1, n_modes))
        self.edges: dict = {}

    @cached_property
    def free(self) -> np.ndarray:
        """S(s)(phi(0) + g(t0, phi)) at every window node; g reads the initial history."""
        g_init = self.prob.eval_g(self.t0, Segment._trusted(self.prob.h, self.run.thetas, self.hist))
        return self.run.decay[: self.m + 1] * (self.phi0 + g_init)[None, :]

    def load(self, candidate) -> SegmentStack:
        """Write the candidate's m+1 rows and their norms; the stack over all rows."""
        tail = self.rows[self.n_h :]
        if np.shape(candidate) != tail.shape:
            raise ValueError(f"candidate must be {tail.shape}, got {np.shape(candidate)}")
        tail[...] = candidate
        tail_norms = self.norms[self.n_h :]
        # np.linalg.norm(tail, axis=1) without its temporaries
        np.multiply(tail, tail, out=self._squares)
        np.add.reduce(self._squares, axis=1, out=tail_norms)
        np.sqrt(tail_norms, out=tail_norms)
        sums = self._history_sums if tail_norms[0] == self._phi0_norm else None
        return SegmentStack._trusted(self.prob.h, self.dt, self.run.thetas, self.rows,
                                     self.norms, self.times, self.edges, sums)


def evaluate_window_operator(frame: WindowFrame, stack: SegmentStack) -> np.ndarray:
    """Apply the window fixed-point map G to the candidate loaded in the frame.

    ``stack`` is what ``frame.load(candidate)`` returned, for a candidate
    holding window values on t0 + i*dt, i = 0..m, with row 0 the window's
    starting value; slice i is the history the delay terms see at t0 + i*dt.
    The window start plays the role of time zero in the integral formula;
    delay terms still see the true time t0 + s.  The value at the left
    endpoint is the identity phi(0) by construction and is returned exactly.
    Non-finite values are returned as they are; ``solve_window`` checks them.
    """
    prob = frame.prob
    g_vals = prob.g.evaluate_window(stack)
    f_vals = prob.f.evaluate_window(stack)
    out = frame.free - g_vals
    run = frame.run
    out += _product_scan(prob.op.mu * g_vals + f_vals, run.w0, run.w1, frame.factors)
    out[0] = frame.phi0
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


def _warm_start(hist: np.ndarray, m: int, degree: int) -> np.ndarray:
    """First candidate: the polynomial through the last degree+1 history rows,
    continued to the m+1 window nodes.

    Newton's backward form at spacing dt, p(i dt) = sum_k C(i+k-1, k) D^k,
    with D^k the k-th backward difference of the rows at phi(0).  Row 0 is
    phi(0) exactly, and degree 0 is the flat start.  A history of fewer
    rows lowers the degree to what it holds.
    """
    degree = min(degree, hist.shape[0] - 1)
    diff = hist[hist.shape[0] - degree - 1 :]
    y = np.tile(hist[-1], (m + 1, 1))
    i = np.arange(1.0, m + 1.0)[:, None]
    coeff = np.ones_like(i)
    for k in range(1, degree + 1):
        diff = diff[1:] - diff[:-1]
        coeff *= i + (k - 1)
        coeff /= k
        y[1:] += coeff * diff[-1]
    return y


def _first_candidate(frame: WindowFrame, radius: float):
    """The extrapolated start, its stack and its G(y); else the flat start, its stack and None.

    The guess is kept only when it stays in the trust region and G maps it
    to finite values without leaving a term's argument range.  Otherwise
    the window runs exactly the iteration from phi(0), so the trust-region,
    ``y_max`` and blow-up outcomes are those of the flat start.
    """
    y = _warm_start(frame.hist, frame.m, _WARM_DEGREE)
    stack = frame.load(y)
    if not _drift_exceeds(frame, radius):
        try:
            gy = evaluate_window_operator(frame, stack)
        except DomainViolation:
            gy = None
        if gy is not None and np.all(np.isfinite(gy)):
            return y, stack, gy
    y = _warm_start(frame.hist, frame.m, 0)
    return y, frame.load(y), None


@np.errstate(over="ignore", invalid="ignore")
def solve_window(prob: NeutralProblem, hist, t0: float, cfg: SolverConfig,
                 damping: float = 1.0, run: RunFrame | None = None,
                 hist_norms=None) -> WindowResult:
    """Damped fixed-point iteration from the window's grid rows ``hist``.

    The first candidate extrapolates the history (``_first_candidate``);
    each iterate is y <- (1 - damping) y + damping G(y), with damping in
    (0, 1]; the continuation's retry ladder passes 1 and then 0.5.  ``run``
    and ``hist_norms`` go to the ``WindowFrame``: a run passes its
    ``RunFrame`` and its path's norms of the ``hist`` rows.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    dt = cfg.dt
    m = int(round(cfg.window / dt))
    frame = WindowFrame(prob, hist, t0, dt, m, run, hist_norms)
    phi0 = frame.phi0
    # each candidate is loaded once: the trust check and the next iterate
    # both read the same stack
    y, stack, gy = _first_candidate(frame, cfg.trust_radius)
    guessed = gy is not None
    if not guessed and _drift_exceeds(frame, cfg.trust_radius):
        return WindowResult(y, 0, np.inf, 0.0, "left_trust_region", t0, cfg.window)

    prev_residual = None
    residual = np.inf
    contraction = 0.0
    for it in range(1, cfg.max_iter + 1):
        if gy is None:
            gy = evaluate_window_operator(frame, stack)
            if not np.all(np.isfinite(gy)):
                raise NumericalBlowup(f"window at t0={t0} produced non-finite values")
        residual = float(np.linalg.norm(gy - y, axis=1).max())
        if prev_residual is not None and prev_residual > 0.0:
            contraction = residual / prev_residual
        # the guess is never returned as it stands, so a window's values are
        # an image of G, and a G that ignores the candidate gives its exact
        # fixed point
        if residual <= cfg.tol and not (guessed and it == 1):
            return WindowResult(y, it, residual, contraction, "converged", t0, cfg.window, stack)
        prev_residual = residual
        if damping == 1.0:
            y = gy
        else:
            y = (1.0 - damping) * y + damping * gy
        y[0] = phi0
        gy = None
        stack = frame.load(y)
        if _drift_exceeds(frame, cfg.trust_radius):
            return WindowResult(y, it, residual, contraction, "left_trust_region", t0, cfg.window)
    return WindowResult(y, cfg.max_iter, residual, contraction, "diverged", t0, cfg.window)


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
    rng = np.random.default_rng(seed)
    frame = WindowFrame(prob, hist, t0, dt, values.shape[0] - 1)
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
        g1 = prob.g.evaluate_window(frame.load(y1))
        g2 = prob.g.evaluate_window(frame.load(y2))
        if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
            raise NumericalBlowup("neutral term produced non-finite coefficients")
        num = float(np.linalg.norm(g1 - g2, axis=1).max())
        best = max(best, num / denom)
    return best
