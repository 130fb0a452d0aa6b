"""Window-by-window continuation of the solution to its domain exit.

The march repeats: suggest a window from the contraction budget, solve it,
append the values, and classify every new grid point against the domain's
band.  The first non-interior point triggers bisection refinement of the
crossing time and ends the run with a boundary event.  T is counted, not
compared: dt divides T - t0, and the run ends there when no cells are left.

The initial ``Segment`` is put on the problem's theta grid -h..0 (a longer
one gives its last h), and its rows normed, once per run.  As dt divides
the delay span, each window then takes the path's last n_h+1 rows and
their norms as its history, and nothing in the run resamples the path.
One ``RunFrame`` per run, built at the first window's
width, holds what every window shares (the theta grid, the cell weights,
the scan tables, the decay table and the warm start's weights), and dies
with the run.  The path is the run's alone, and each attempt solves in the
free rows of its buffer past its end.  The run builds its path with them:
rows for its whole horizon, up to ``_FIRST_PATH_VALUES`` values and at
least one window, so a run that fits allocates its path once and a
longer one doubles the buffer only past that size.  No attempt writes a
row the run has committed, and a failed one leaves only free rows behind.
The converged window's first row is the path's last, so ``extend``
commits its rows and norms where they were solved, and the run cuts its
path at the exit by the grid index it holds.

Each grid point is decided once.  t0 is decided on the one-slice stack of
the initial grid rows (``check_initial_history``, which ``check`` calls
too), and ``solve_window`` returns the stack of each window's history and
values, one ``first_exit_slice`` pass applies ``membership``'s rule to its
new slices, and their domain functionals, through the first point that is
not interior, are the trajectory's ``functionals``, which the CSV prints.
The off-grid probes of the bisection are decided by ``membership`` on a
blend of the exit window's stack: the history at t_{i-1} + s*dt is
(1 - s) times slice i-1 plus s times slice i, the continuous extension of
the grid solution within one cell.  Membership is still only sampled at grid
resolution before the bisection sharpens it: an excursion of a
non-monotone functional that enters and leaves the boundary band strictly
between grid points can be missed at coarse dt, so refine dt when the
domain functional is oscillatory.

A window is first solved undamped (damping 1).  One that will not converge
is retried with damping 0.5, then with repeatedly halved windows at that
damping; only when a one-cell window still fails does the run stop with a
solver-failure event.  That terminus is deliberately distinct from a
boundary hit: failure of the iteration is a numerical statement, not a
statement about the domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInitialData, NumericalBlowup
from .history import SegmentStack, SolutionPath, Segment, extend, segment_on_grid
from .history import segment_at  # noqa: F401 -- perfbench traces continuation.segment_at
from .problem import NeutralProblem
from .solver import RunFrame, SolverConfig, WindowResult, heuristic_window, solve_window

#: Default bisection width for boundary-crossing refinement, in grid steps.
_REFINE_FRACTION = 1.0 / 256.0

#: Most values of the free rows a run first reserves past its history (8 MB
#: of rows): a run reserves its horizon up to this, and at least one window,
#: so a long or wide run does not allocate its whole path up front.
_FIRST_PATH_VALUES = 2**20


@dataclass(frozen=True)
class TerminationEvent:
    """Why and when a continuation run stopped.

    kind "reached_horizon": the run covered the full time horizon.
    kind "boundary_hit":    the domain functional reached a boundary
                            component (detail: upper_mass / vanishing /
                            sup_band), at a time refined by bisection.
    kind "solver_failure":  no window converged, down to one grid step
                            (detail: diverged / left_trust_region /
                            numerical_blowup).
    """

    kind: str
    time: float
    detail: str | None = None
    refinement_width: float = 0.0

    def label(self) -> str:
        if self.detail is None:
            return self.kind
        return f"{self.kind}:{self.detail}"


@dataclass
class Trajectory:
    """Computed path plus per-window diagnostics and the termination event;
    ``functionals[k]`` is the domain functional that decided t0 + k*dt."""

    path: SolutionPath
    functionals: np.ndarray
    windows: list[WindowResult] = field(default_factory=list)
    event: TerminationEvent | None = None
    tau: float = 0.0


def _refine_bracket(prob, stack, i, tol_t):
    """Bisect the cell before slice i of ``stack`` down to ``tol_t`` with
    ``membership`` probes; the final bracket.

    The cell's ends, slices i-1 and i, were decided on the grid, interior
    and not, so its bracket is taken as found.  As dt divides h, the
    history at t_{i-1} + s*dt is (1 - s) A + s B on the stack's theta grid,
    where A and B are slices i-1 and i: each probe blends them, and a
    bracket already within ``tol_t`` is returned as it is.
    """
    n_h, dt = stack.n_h, stack.dt
    b = float(stack.times[i])
    a = start = b - dt
    older, newer = stack.values[i - 1 : i + n_h], stack.values[i : i + n_h + 1]
    while b - a > tol_t:
        mid = 0.5 * (a + b)
        s = (mid - start) / dt
        seg = Segment._trusted(prob.h, stack.thetas, (1.0 - s) * older + s * newer)
        if prob.membership(seg).is_inside:
            a = mid
        else:
            b = mid
    return a, b


def _attempt_window(path, t0, cfg, run, m_cells, remaining_cells):
    """Solve one window after the path, halving on failure: (result or None, detail)."""
    m_try = min(m_cells, remaining_cells)
    damping = 1.0
    last_detail = None
    while True:
        try:
            result = solve_window(run, path, t0, cfg, damping, m_try)
        except NumericalBlowup:
            result = None
            last_detail = "numerical_blowup"
        if result is not None:
            if result.converged:
                return result, None
            last_detail = result.status
        if damping > 0.5:
            damping = 0.5
            continue
        m_next = max(1, m_try // 2)
        if m_next == m_try:
            return None, last_detail
        m_try = m_next


def check_initial_history(prob: NeutralProblem, init_seg: Segment, t0: float,
                          dt: float) -> tuple[SegmentStack, np.ndarray]:
    """The one-slice stack of the history's rows on the problem's grid
    -h..0 at step dt, which holds the rows and their norms, and its domain
    functional; raise InvalidInitialData unless the history is finite and
    that stack classifies as interior.

    The functional is the one the run's t0 entry prints, so ``check`` and
    ``run`` decide t0 on the same float.
    """
    # every band comparison with nan is false, so nan would classify as inside
    if not np.all(np.isfinite(init_seg.values)):
        raise InvalidInitialData("initial history has non-finite values")
    stack = SegmentStack(prob.h, dt, segment_on_grid(init_seg, prob.h, dt), t0)
    value = prob.domain_functionals(stack)
    bottom = stack.min_norms() if prob.domain.kind == "sup_band" else value
    start = prob._classify(float(value[0]), float(bottom[0]))
    if not start.is_inside:
        raise InvalidInitialData(
            f"initial history classifies as {start.state}"
            + (f" ({start.kind})" if start.kind else "")
        )
    return stack, value


def continue_solution(prob: NeutralProblem, init_seg: Segment, t0: float,
                      cfg: SolverConfig) -> Trajectory:
    """Advance from (t0, init_seg) until the trajectory leaves the domain.

    The initial history must cover [-h, 0], be finite and classify as
    interior.  The horizon must be reachable on the grid: dt divides both
    the delay span and T - t0, and the run ends there by its cell count.
    Every classification uses the domain's default band tolerance.
    """
    cfg.validate_grid(prob.h, prob.T - t0, prob.op.n_modes)
    initial, start = check_initial_history(prob, init_seg, t0, cfg.dt)

    functionals = [start]
    windows = []
    horizon_cells = int(round((prob.T - t0) / cfg.dt))
    n_h = initial.n_h
    refine_tol = cfg.dt * _REFINE_FRACTION
    m = max(1, int(heuristic_window(prob, cfg) / cfg.dt + 1e-9))
    run = RunFrame(prob, cfg.dt, m)
    free = min(horizon_cells, max(m, _FIRST_PATH_VALUES // prob.op.n_modes))
    path = SolutionPath(t0 - prob.h, cfg.dt, initial.values, initial.norms, free)

    while True:
        done_cells = path.n_times - 1 - n_h
        remaining = horizon_cells - done_cells
        t = t0 + done_cells * cfg.dt
        if remaining <= 0:
            event = TerminationEvent("reached_horizon", prob.T)
            break
        result, failure = _attempt_window(path, t, cfg, run, m, remaining)
        if result is None:
            event = TerminationEvent("solver_failure", t, failure)
            break
        stack, result.stack = result.stack, None  # the kept result holds no buffers
        windows.append(result)
        path = extend(path, stack.n_windows - 1)
        scanned = prob.domain_functionals(stack)
        hit = prob.first_exit_slice(stack)
        if hit is None:
            functionals.append(scanned[1:])
            continue
        i, mem = hit
        functionals.append(scanned[1 : i + 1])
        a, b = _refine_bracket(prob, stack, i, refine_tol)
        event = TerminationEvent("boundary_hit", 0.5 * (a + b), mem.kind, b - a)
        # keep the path through the first non-interior grid point
        path = path.head(n_h + done_cells + i + 1)
        break

    return Trajectory(path, np.concatenate(functionals), windows, event, event.time)
