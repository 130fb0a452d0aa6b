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
window shares (the theta grid, the cell weights, the scan factors and the
decay table), and dies with the run.  Each attempt solves in the free rows
of the path's buffer past its end, which doubles before the attempt when
short; no attempt writes a row the run has committed, and a failed one
leaves only free rows behind.  ``extend`` of the converged window checks
its overlap with the path's endpoint and moves the fill mark past it, so
the window's rows and norms are not copied again.

Each grid point is decided once: ``solve_window`` returns the stack of the
window's history and values, one ``first_exit_slice`` pass applies
``membership``'s rule to its new slices, and their domain functionals,
through the first point that is not interior, are the trajectory's
``functionals``, which the CSV prints.  The off-grid probes of the
bisection are decided by ``membership`` on a ``segment_at`` segment.
Membership is still only sampled at grid resolution before the bisection
sharpens it: an excursion of a non-monotone functional that enters and
leaves the boundary band strictly between grid points can be missed at
coarse dt, so refine dt when the domain functional is oscillatory.

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


def refine_boundary_time(prob: NeutralProblem, path: SolutionPath, t_inside: float,
                         t_outside: float, tol_t: float) -> float:
    """Bisect the interpolated path between an interior and an exterior time.

    Each probe is ``membership`` of the ``segment_at`` segment, at the
    domain's default tolerance.  Returns the midpoint of the final bracket;
    the bracket width is at most ``tol_t`` (or the initial width, if already
    smaller).
    """
    if not tol_t > 0.0:  # negated, so that nan is refused too
        raise ValueError(f"tol_t must be positive, got {tol_t}")
    if not t_inside < t_outside:
        raise ValueError(f"invalid bracket: need t_inside < t_outside, got [{t_inside}, {t_outside}]")
    if t_outside - t_inside > path.dt * (1.0 + 1e-6):
        raise ValueError("invalid bracket: endpoints must be adjacent grid times")
    if not prob.membership(t_inside, segment_at(path, t_inside, prob.h)).is_inside:
        raise ValueError(f"invalid bracket: t_inside={t_inside} does not classify as interior")
    if prob.membership(t_outside, segment_at(path, t_outside, prob.h)).is_inside:
        raise ValueError(f"invalid bracket: t_outside={t_outside} classifies as interior")
    a, b = _refine_bracket(prob, path, t_inside, t_outside, tol_t)
    return 0.5 * (a + b)


def _refine_bracket(prob, path, a, b, tol_t):
    # the scan's bracket is taken as found: its ends were decided on the grid
    while b - a > tol_t:
        mid = 0.5 * (a + b)
        if prob.membership(mid, segment_at(path, mid, prob.h)).is_inside:
            a = mid
        else:
            b = mid
    return a, b


def _attempt_window(prob, path, t0, cfg, run, m_cells, remaining_cells):
    """Solve one window after the path, halving on failure: (result or None, detail)."""
    m_try = min(m_cells, remaining_cells)
    damping = 1.0
    last_detail = None
    while True:
        try:
            result = solve_window(prob, path, t0, cfg, damping, run, m_try)
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


def check_initial_history(prob: NeutralProblem, init_seg: Segment, t0: float) -> None:
    """Raise InvalidInitialData unless the history is finite and interior at t0."""
    # every band comparison with nan is false, so nan would classify as inside
    if not np.all(np.isfinite(init_seg.values)):
        raise InvalidInitialData("initial history has non-finite values")
    start = prob.membership(t0, init_seg)
    if not start.is_inside:
        raise InvalidInitialData(
            f"initial history classifies as {start.state}"
            + (f" ({start.kind})" if start.kind else "")
        )


def continue_solution(prob: NeutralProblem, init_seg: Segment, t0: float,
                      cfg: SolverConfig) -> Trajectory:
    """Advance from (t0, init_seg) until the trajectory leaves the domain.

    The initial history must cover [t0 - h, t0], be finite and classify as
    interior.  The horizon must be reachable on the grid: dt divides both
    the delay span and T - t0.  Every classification uses the domain's
    default band tolerance.
    """
    cfg.validate_grid(prob.h, prob.T - t0, prob.op.n_modes)
    check_initial_history(prob, init_seg, t0)

    hist = segment_on_grid(init_seg, cfg.dt)
    path = SolutionPath(t0 - prob.h, cfg.dt, hist)
    functionals = [prob.domain_functionals(SegmentStack(prob.h, cfg.dt, hist, t0))]
    windows = []
    horizon_cells = int(round((prob.T - t0) / cfg.dt))
    n_h = hist.shape[0] - 1
    refine_tol = cfg.dt * _REFINE_FRACTION
    m = max(1, int(heuristic_window(prob, cfg) / cfg.dt + 1e-9))
    run = RunFrame(prob, cfg.dt, m)

    while True:
        done_cells = path.n_times - 1 - n_h
        remaining = horizon_cells - done_cells
        t = t0 + done_cells * cfg.dt
        # the scan's absolute horizon test can round past the last node at large T
        if remaining <= 0:
            event = TerminationEvent("reached_horizon", prob.T)
            break
        result, failure = _attempt_window(prob, path, t, cfg, run, m, remaining)
        if result is None:
            event = TerminationEvent("solver_failure", t, failure)
            break
        stack, result.stack = result.stack, None  # the kept result holds no buffers
        windows.append(result)
        path = extend(path, stack.current(), stack.current_norms())
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
        path = path.head(path.index_of(t_i) + 1)
        break

    return Trajectory(path, np.concatenate(functionals), windows, event, event.time)
