"""Independent references: manufactured closed-form cases and extrapolated fine runs.

A manufactured case starts from a chosen per-mode trajectory u*, gives the
neutral term the pure point-delay form kappa*u(t-h), and computes the
forcing that makes u* the exact solution:

    f_k(t) = d/dt [u*_k(t) + kappa u*_k(t-h)] + mu_k u*_k(t)

in closed form per mode.  A classical solution built this way also satisfies
the mild integral identity, so u* is the exact answer the window solver
should reproduce.  The second reference solves the same problem on a fine
grid at two resolutions and Richardson-extrapolates assuming second order,
with an empirical order gate before the extrapolation is trusted.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

from .continuation import continue_solution
from .errors import HypothesisViolation, OracleUnavailable
from .history import Segment, SolutionPath
from .problem import DomainSpec, NeutralProblem, PointDelayTerm, TimeFn, TimeForcingTerm
from .solver import SolverConfig
from .spectral import SpectralOperator


def _as_curve(spec) -> TimeFn:
    if isinstance(spec, TimeFn):
        return spec
    kind, *params = spec
    return TimeFn(kind, tuple(float(p) for p in params))


class ManufacturedCase:
    """A problem whose exact solution is known mode-by-mode."""

    def __init__(self, problem: NeutralProblem, curves: list[TimeFn], kappa: float):
        self.problem = problem
        self.curves = curves
        self.kappa = kappa

    def exact_values(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        return np.column_stack([c(times) for c in self.curves])

    def exact_path(self, dt: float, t0: float = 0.0) -> SolutionPath:
        prob = self.problem
        n = int(round((prob.T - t0 + prob.h) / dt))
        times = (t0 - prob.h) + dt * np.arange(n + 1)
        return SolutionPath(t0 - prob.h, dt, self.exact_values(times))

    def initial_segment(self, dt: float, t0: float = 0.0) -> Segment:
        h = self.problem.h
        n_h = int(round(h / dt))
        thetas = -h + dt * np.arange(n_h + 1)
        return Segment(h, thetas, self.exact_values(t0 + thetas))


def make_manufactured(u_star_family, kappa: float, op: SpectralOperator, h: float,
                      T: float, alpha: float = 0.5) -> ManufacturedCase:
    """Build the problem whose exact mild solution is the given trajectory.

    ``u_star_family`` holds one ``TimeFn`` or curve spec per mode, e.g.
    ("exp", 1.0, -1.0), ("poly", c0, c1, ...) or ("const", c).  ``kappa`` scales the point-delay neutral term;
    its weighted magnitude |kappa| * max(mu^alpha) must stay below 1.
    """
    curves = [_as_curve(s) for s in u_star_family]
    if len(curves) != op.n_modes:
        raise ValueError(f"need one trajectory per mode ({op.n_modes}), got {len(curves)}")
    mg = abs(kappa) * float(np.max(op.mu**alpha))
    if mg >= 1.0:
        raise HypothesisViolation(
            f"point-delay weight {kappa} gives contraction constant {mg:.3g} >= 1"
        )
    forcing = []
    for k, curve in enumerate(curves):
        mu_k = float(op.mu[k])
        if curve.kind == "exp":
            amp, rate = curve.params
            # d/dt[u + kappa u(.-h)] + mu u collapses to a single exponential
            f_amp = amp * (rate + mu_k + kappa * rate * math.exp(-rate * h))
            forcing.append(TimeFn("exp", (f_amp, rate)))
        else:  # poly, and const as the degree-0 polynomial
            p = Polynomial(np.asarray(curve.params, dtype=float))
            dp = p.deriv()
            shifted = dp(Polynomial([-h, 1.0]))  # p'(t - h)
            total = dp + kappa * shifted + mu_k * p
            forcing.append(TimeFn("poly", tuple(float(c) for c in total.coef)))
    problem = NeutralProblem(
        op=op, h=h, T=T, alpha=alpha,
        g=PointDelayTerm(kappa),
        f=TimeForcingTerm(forcing),
        domain=DomainSpec("time_only"),
        mg_bound=mg,
    )
    return ManufacturedCase(problem, curves, kappa)


def dense_reference_solve(prob: NeutralProblem, init_seg: Segment, t0: float,
                          fine_dt: float, levels: int = 3) -> SolutionPath:
    """Richardson-extrapolated fine-grid run of the same mild iteration.

    Solves at fine_dt/2^i for i < levels, checks the empirically observed
    order against 2 when three grids are available, and extrapolates the two
    finest onto the fine_dt grid.  Any run that fails to reach the horizon
    makes the reference unavailable.

    Supply ``init_seg`` at the finest internal resolution (or exactly): a
    coarsely sampled history is linearly resampled into the finer runs and
    its interpolation error, being independent of the run's grid step,
    floors what the extrapolation can achieve.
    """
    if levels < 2:
        raise ValueError(f"need at least two grids to extrapolate, got levels={levels}")
    runs = []
    for i in range(levels):
        dt = fine_dt / 2**i
        cfg = SolverConfig(dt=dt, window=prob.h, tol=1e-12, max_iter=500, trust_radius=1e9)
        traj = continue_solution(prob, init_seg, t0, cfg)
        if traj.event.kind != "reached_horizon":
            raise OracleUnavailable(
                f"reference run at dt={dt}: terminated with {traj.event.label()}"
            )
        runs.append(traj.path.values[:: 2**i])
    n0 = runs[0].shape[0]
    if any(r.shape[0] != n0 for r in runs):
        raise OracleUnavailable("reference runs do not share the coarse grid")
    if levels >= 3:
        e01 = float(np.linalg.norm(runs[-3] - runs[-2], axis=1).max())
        e12 = float(np.linalg.norm(runs[-2] - runs[-1], axis=1).max())
        scale = max(1.0, float(np.linalg.norm(runs[-1], axis=1).max()))
        if e12 > 1e-13 * scale:
            observed = math.log2(e01 / e12) if e01 > 0.0 else float("inf")
            if observed < 1.9:
                raise OracleUnavailable(
                    f"observed order {observed:.2f} < 1.9; extrapolation not trusted"
                )
    extrapolated = (4.0 * runs[-1] - runs[-2]) / 3.0
    return SolutionPath(t0 - prob.h, fine_dt, extrapolated)


def compare(path_a: SolutionPath, path_b: SolutionPath) -> dict:
    """Sup and discrete-L2 distance between two paths on the same grid."""
    if abs(path_a.t_start - path_b.t_start) > 1e-9 or abs(path_a.dt - path_b.dt) > 1e-12:
        raise ValueError("paths must share t_start and dt")
    if path_a.n_times != path_b.n_times:
        raise ValueError(
            f"paths must share the grid, got {path_a.n_times} vs {path_b.n_times} nodes"
        )
    diff = np.linalg.norm(path_a.values - path_b.values, axis=1)
    return {
        "sup_error": float(diff.max()),
        "l2_error": float(math.sqrt(path_a.dt * float(np.sum(diff**2)))),
    }
