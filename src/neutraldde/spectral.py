"""Diagonal realization of the generator, its semigroup and fractional powers.

The generator acts mode-by-mode on coefficients in a fixed eigenbasis: mode k
decays at rate mu[k] > 0.  Every operation here is a closed-form diagonal
scaling, so tests can be exact.  State vectors are plain 1-D float arrays of
length ``n_modes``; the Euclidean norm of the coefficients is the ambient
norm (the basis is orthonormal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DirichletSineBasis:
    """Orthonormal sine modes sqrt(2/L)*sin(k*pi*x/L) on (0, L), zero boundary."""

    length: float


@dataclass(frozen=True)
class AbstractBasis:
    """Eigenbasis known only through its decay rates; no spatial realization."""

    n_modes: int


class SpectralOperator:
    """Nonnegative diagonal generator: mode k is scaled by exp(-mu[k]*t).

    ``mu`` must be nondecreasing with mu[0] = gap > 0, so every decay rate
    sits to the right of the spectral gap.
    """

    def __init__(self, mu, basis=None):
        mu = np.array(mu, dtype=float)
        if mu.ndim != 1 or mu.size < 1:
            raise ValueError("mu must be a nonempty 1-D sequence of decay rates")
        if not np.all(np.isfinite(mu)):
            raise ValueError("decay rates must be finite")
        if mu[0] <= 0.0:
            raise ValueError(f"smallest decay rate must be positive, got {mu[0]}")
        if np.any(np.diff(mu) < 0.0):
            raise ValueError("decay rates must be nondecreasing")
        self.mu = mu
        self.mu.setflags(write=False)
        self.gap = float(mu[0])
        self.basis = basis if basis is not None else AbstractBasis(n_modes=mu.size)

    @property
    def n_modes(self) -> int:
        return self.mu.size

    def _check_vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_modes,):
            raise ValueError(f"expected coefficient vector of shape ({self.n_modes},), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("coefficient vector must be finite")
        return x

    def semigroup(self, t: float, x) -> np.ndarray:
        """Apply the solution operator of the linear part: x_k -> exp(-mu_k*t)*x_k."""
        if t < 0.0:
            raise ValueError(f"semigroup time must be nonnegative, got {t}")
        x = self._check_vec(x)
        if t == 0.0:
            return x.copy()
        return np.exp(-self.mu * t) * x

    def fractional_power(self, a: float, x) -> np.ndarray:
        """Apply the fractional power of the (sign-flipped) generator: x_k -> mu_k^a*x_k."""
        _check_exponent(a)
        x = self._check_vec(x)
        if a == 0.0:
            return x.copy()
        return self.mu**a * x

    def power_semigroup(self, a: float, t: float, x) -> np.ndarray:
        """Apply mu_k^(1-a)*exp(-mu_k*t) per mode; t must be positive.

        This is the smoothing composition that appears inside the neutral
        convolution term; its operator norm blows up as t -> 0 for a < 1,
        hence the strict positivity requirement.
        """
        _check_exponent(a)
        if t <= 0.0:
            raise ValueError(f"power_semigroup needs t > 0, got {t}")
        x = self._check_vec(x)
        return self.mu ** (1.0 - a) * np.exp(-self.mu * t) * x

    def alpha_norm(self, a: float, x) -> float:
        """Graph-type norm ||mu^a x||_2; a = 0 gives the plain coefficient norm."""
        return float(np.linalg.norm(self.fractional_power(a, x)))


def _check_exponent(a: float) -> None:
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"fractional exponent must lie in [0, 1], got {a}")


def make_dirichlet_laplacian(n_modes: int, length: float) -> SpectralOperator:
    """Dirichlet Laplacian on (0, length): decay rates (k*pi/length)^2, k = 1..n_modes."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if length <= 0.0:
        raise ValueError(f"interval length must be positive, got {length}")
    k = np.arange(1, n_modes + 1, dtype=float)
    # rates past the float range overflow to inf, which SpectralOperator refuses
    with np.errstate(over="ignore"):
        mu = (k * math.pi / length) ** 2
    return SpectralOperator(mu, basis=DirichletSineBasis(length=float(length)))


def semigroup_bound_constant(a: float, t: float, gap: float) -> float:
    """Exact norm of the a-power/semigroup composition over all admissible operators.

    Returns sup over mu >= gap of mu^a * exp(-mu*t).  The unconstrained
    maximizer is mu = a/t; when it falls below the gap the supremum is
    attained at the gap itself.
    """
    _check_exponent(a)
    if t <= 0.0 or gap <= 0.0:
        raise ValueError(f"t and gap must be positive, got t={t}, gap={gap}")
    mu_star = a / t
    if mu_star >= gap:
        return mu_star**a * math.exp(-a)
    return gap**a * math.exp(-gap * t)
