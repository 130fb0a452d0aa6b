"""The memory integral at one grid index, as the quadrature tests read it.

``exp_convolution`` gives the integral at every grid index at once; these
wrappers check their arguments and take the row at ``t_index``, for the
decay kernel and for the rate-weighted one.  The file name does not match
``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import numpy as np

from neutraldde import SpectralOperator, exp_convolution


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
