"""The measured Lipschitz ratio of a problem's neutral term on one window.

The acceptance suite and the solver tests measure it against the declared
contraction budget.  The file name does not match ``test_*``, so pytest
does not collect it.
"""

from __future__ import annotations

import numpy as np

from neutraldde import NumericalBlowup, SegmentStack


@np.errstate(over="ignore", invalid="ignore")
def sample_neutral_contraction(prob, hist, t0: float, values, dt: float, n_pairs: int,
                               seed: int) -> float:
    """Measured Lipschitz ratio of the pure neutral part over candidate pairs.

    Perturbs the window values into nearby admissible candidate pairs and
    returns the largest ratio

        sup_s ||g(t, y1_s) - g(t, y2_s)|| / sup_s ||y1(s) - y2(s)||

    (plain coefficient norms) on the window with the (n_h+1, n_modes) grid
    rows ``hist``.  For an admissible problem this stays below the declared
    contraction budget.
    """
    values = np.asarray(values, dtype=float)
    hist = np.asarray(hist, dtype=float)
    if hist.shape != (int(round(prob.h / dt)) + 1, prob.op.n_modes):
        raise ValueError(f"history must be the window's grid rows, got {hist.shape}")
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
