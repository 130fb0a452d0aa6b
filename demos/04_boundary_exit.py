"""Continuation until the trajectory leaves its admissible domain.

A single mode with decay rate 1 is driven by twice its own norm, so it grows
like 0.1 e^t.  The admissible region demands that the delay mass (the
integral of the norm over the trailing unit interval) stays strictly
between 0 and 1; the run must therefore stop when 0.1 e^t (1 - 1/e) reaches
1, at a time we can write down exactly.  The march detects the crossing on
the grid and sharpens it by bisection on the interpolated path.
"""

import math

import numpy as np

from neutraldde import (
    DomainSpec,
    FunctionalAffineTerm,
    NeutralProblem,
    Segment,
    SolverConfig,
    SpectralOperator,
    ZeroTerm,
    continue_solution,
    current_value_window,
    segment_at,
)

u0, l, h = 0.1, 1.0, 1.0
op = SpectralOperator([1.0])
forcing = FunctionalAffineTerm(0.0, 2.0, np.array([1.0]), "max",
                               window=current_value_window(), y_max=1e9)
prob = NeutralProblem(op, h, 3.5, 0.5, ZeroTerm(), forcing,
                      DomainSpec("delay_mass", l), 0.0)

dt = 1e-3
n_h = int(round(h / dt))
thetas = -h + dt * np.arange(n_h + 1)
seg = Segment(h, thetas, np.full((n_h + 1, 1), u0))

traj = continue_solution(prob, seg, 0.0, SolverConfig(dt=dt, window=0.5, tol=1e-10))
t_star = math.log(l / (u0 * (1.0 - math.exp(-h))))

print("event:", traj.event.label())
print(f"exit time tau      : {traj.tau:.8f}")
print(f"closed-form crossing: {t_star:.8f}")
print(f"difference          : {abs(traj.tau - t_star):.2e}  (grid step {dt})")
print(f"bisection bracket   : {traj.event.refinement_width:.2e}")
print()

print("delay mass along the run (interior until the exit):")
for t in (0.0, 1.0, 2.0, 2.5, math.floor(traj.tau * 100) / 100):
    s = segment_at(traj.path, t, h)
    mem = prob.membership(s)
    print(f"  t={t:<5} mass={mem.value:.6f} state={mem.state}")
