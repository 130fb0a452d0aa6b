"""Window-by-window continuation of the solution to its domain exit.

The march repeats: suggest a window from the contraction budget, solve it,
append the values, and classify every new grid point against the admissible
domain.  The first non-interior point triggers bisection refinement of the
crossing time and ends the run with a boundary event; reaching the horizon
ends it there.

The initial ``Segment`` is put on the theta grid once per run.  As dt divides
the delay span, each window then takes the path's last n_h+1 rows and their
norms as its history; ``segment_at`` serves only the bisection.  One
``RunFrame`` per run, built at the first window's width, holds what every
window shares (the theta grid, the cell weights, the scan tables, the
decay table and the warm start's weights), and dies with the run.  The
path is the run's alone, and each attempt solves in the free rows of its
buffer past its end.  The run reserves them once, right after it builds
its path: rows for its whole horizon, up to ``_FIRST_PATH_VALUES`` values
and at least one window, so a run that fits allocates its path once and a
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
``segment_at`` segment.  Membership is still only sampled at grid
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
from .history import SegmentStack, SolutionPath, Segment, extend, segment_at, segment_on_grid
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


def _refine_bracket(prob, path, a, b, tol_t):
    """Bisect [a, b] down to ``tol_t`` with ``membership`` of ``segment_at``
    probes; the final bracket.  The scan's bracket is taken as found: its
    ends were decided, interior and not, on the grid."""
    while b - a > tol_t:
        mid = 0.5 * (a + b)
        if prob.membership(mid, segment_at(path, mid, prob.h)).is_inside:
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
                          dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The history's grid rows at step dt and their domain functional, the
    one-slice stack's; raise InvalidInitialData unless the history is
    finite and that stack classifies as interior at t0.

    The functional is the one the run's t0 entry prints, so ``check`` and
    ``run`` decide t0 on the same float.
    """
    # every band comparison with nan is false, so nan would classify as inside
    if not np.all(np.isfinite(init_seg.values)):
        raise InvalidInitialData("initial history has non-finite values")
    hist = segment_on_grid(init_seg, dt)
    stack = SegmentStack(prob.h, dt, hist, t0)
    value = prob.domain_functionals(stack)
    bottom = stack.min_norms() if prob.domain.kind == "sup_band" else value
    start = prob._classify(t0, float(value[0]), float(bottom[0]))
    if not start.is_inside:
        raise InvalidInitialData(
            f"initial history classifies as {start.state}"
            + (f" ({start.kind})" if start.kind else "")
        )
    return hist, value


def continue_solution(prob: NeutralProblem, init_seg: Segment, t0: float,
                      cfg: SolverConfig) -> Trajectory:
    """Advance from (t0, init_seg) until the trajectory leaves the domain.

    The initial history must cover [t0 - h, t0], be finite and classify as
    interior.  The horizon must be reachable on the grid: dt divides both
    the delay span and T - t0.  Every classification uses the domain's
    default band tolerance.
    """
    cfg.validate_grid(prob.h, prob.T - t0, prob.op.n_modes)
    hist, start = check_initial_history(prob, init_seg, t0, cfg.dt)

    path = SolutionPath(t0 - prob.h, cfg.dt, hist)
    functionals = [start]
    windows = []
    horizon_cells = int(round((prob.T - t0) / cfg.dt))
    n_h = hist.shape[0] - 1
    refine_tol = cfg.dt * _REFINE_FRACTION
    m = max(1, int(heuristic_window(prob, cfg) / cfg.dt + 1e-9))
    run = RunFrame(prob, cfg.dt, m)
    path._reserve(min(horizon_cells, max(m, _FIRST_PATH_VALUES // prob.op.n_modes)))

    while True:
        done_cells = path.n_times - 1 - n_h
        remaining = horizon_cells - done_cells
        t = t0 + done_cells * cfg.dt
        # the scan's absolute horizon test can round past the last node at large T
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
        t_i = t + i * cfg.dt
        if mem.kind == "horizon":
            event = TerminationEvent("reached_horizon", prob.T)
        else:
            a, b = _refine_bracket(prob, path, t_i - cfg.dt, t_i, refine_tol)
            event = TerminationEvent("boundary_hit", 0.5 * (a + b), mem.kind, b - a)
        # keep the path through the first non-interior grid point
        path = path.head(n_h + done_cells + i + 1)
        break

    return Trajectory(path, np.concatenate(functionals), windows, event, event.time)
