"""Rounding bound shared by the tests that hold batch sums against scalar ones."""

import numpy as np


def integral_error_bound(stack) -> float:
    """Bound on |stack.integral_norms()[i] - integral_norm_functional(slice i)|.

    Both are rounded sums of at most n rows' cells, so 8 n eps times the
    stack's total delay mass covers the rounding of either.
    """
    return 8.0 * np.finfo(float).eps * stack.values.shape[0] * stack.dt * stack.norms.sum()
