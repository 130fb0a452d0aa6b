"""Concrete problem instances: delay nonlinearities, admissible domain, hypotheses.

A problem couples the diagonal generator with two delay terms:

* ``g`` — the neutral term, sitting under the time derivative.  Its Lipschitz
  constant against the history sup-norm (measured in the fractional-power
  norm) must stay below 1; that budget is what makes the windowed iteration
  contract.
* ``f`` — the ordinary forcing term, merely measurable in t.

Both come from a closed registry of parametric families, so Lipschitz
metadata is available analytically and the configuration stays
declarative.  The admissible domain tracks either the delay mass
(integral of the history norm) or the pointwise norm band, with the final
time as an additional boundary component.

A term is a map of time and history alone, g(t, u_t): ``evaluate(t, seg)``
takes one segment and ``evaluate_window(stack, cols)`` every slice of a
``SegmentStack`` at its slice times, on the columns ``cols`` (all by
default); the scalar path is the reference the batch path is tested
against.  ``support(n_modes)`` lists the columns a term can write: every
other column of its value is 0 whatever the time and history, so the
window solver iterates only the union of both terms' supports.
``NeutralProblem`` checks each term's width against the operator once,
and its scalar ``eval_g``/``eval_f`` report non-finite values as
``NumericalBlowup``; the window solver calls
``evaluate_window`` directly and checks only G(y).  The domain has one
rule, applied to one segment's ``domain_functional`` by ``membership`` and
to every slice's ``domain_functionals`` by ``first_exit_slice``: grid
points are decided on the stack of the window that computed them, and the
off-grid bisection probes by ``membership`` on a ``segment_at`` segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, HypothesisViolation, InsufficientSamples, NumericalBlowup
from .history import (
    Segment,
    SegmentStack,
    _require_finite_window,
    integral_norm_functional,
    max_norm_functional,
    sup_norm,
)
from .spectral import DirichletSineBasis, SpectralOperator

#: Absolute tolerance of the final-time boundary test.
TIME_TOL = 1e-9


# ---------------------------------------------------------------------------
# spatial profiles (sine basis only)


def sine_profile_coeffs(op: SpectralOperator, k: int, amplitude: float = 1.0) -> np.ndarray:
    """Eigen-coefficients of amplitude*sin(k*pi*x/L): amplitude*sqrt(L/2) on mode k."""
    if not isinstance(op.basis, DirichletSineBasis):
        raise ValueError("sine profiles require a sine eigenbasis")
    if not 1 <= k <= op.n_modes:
        raise ValueError(f"mode index {k} outside 1..{op.n_modes}")
    coeffs = np.zeros(op.n_modes)
    coeffs[k - 1] = amplitude * math.sqrt(op.basis.length / 2.0)
    return coeffs


# ---------------------------------------------------------------------------
# time profiles for forcing-type terms


@dataclass(frozen=True)
class TimeFn:
    """Closed-form scalar function of time: const, poly (coeffs low->high), or exp."""

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in ("const", "poly", "exp"):
            raise ValueError(f"unknown time function kind {self.kind!r}")
        if self.kind == "const" and len(self.params) != 1:
            raise ValueError(f"const time function takes one value, got {len(self.params)}")
        if self.kind == "poly" and not self.params:
            raise ValueError("poly time function needs at least one coefficient")
        if self.kind == "exp" and len(self.params) != 2:
            raise ValueError("exp time function needs (amplitude, rate)")

    def vanishes(self) -> bool:
        """Is the function identically 0?"""
        coeffs = self.params[:1] if self.kind == "exp" else self.params
        return all(c == 0.0 for c in coeffs)

    def __call__(self, t):
        """Value at a time (a float) or at every entry of an array of times."""
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            out = np.full(t.shape, float(self.params[0]))
        elif self.kind == "poly":
            out = np.polynomial.polynomial.polyval(t, np.asarray(self.params, dtype=float))
        else:
            amp, rate = self.params
            out = amp * np.exp(rate * t)
        return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# window functions for the running-maximum functional


@dataclass(frozen=True)
class WindowFns:
    """Affine window edges beta(t) = b0 + b1*t, alpha(t) = a0 + a1*t.

    The functional looks at history times in [beta(t), alpha(t)], which in
    segment coordinates is [beta(t) - t, alpha(t) - t] and must stay inside
    [-h, 0].
    """

    beta0: float
    beta1: float
    alpha0: float
    alpha1: float

    def windows_at(self, times: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Window edges [lo, hi] in segment coordinates, clipped to [-h, 0], at
        every entry of an array of times; raises when one is not finite or
        leaves [-h, 0]."""
        lo = self.beta0 + self.beta1 * times - times
        hi = self.alpha0 + self.alpha1 * times - times
        eps = 1e-9 * max(1.0, h)
        # negated, so that a nan edge is bad too
        bad = ~((lo <= hi + eps) & (lo >= -h - eps) & (hi <= eps))
        if np.any(bad):
            _require_finite_window(lo, hi)
            i = int(np.argmax(bad))
            raise ValueError(f"window [{lo[i]}, {hi[i]}] at t={times[i]} leaves [-{h}, 0]")
        hi = np.minimum(hi, 0.0)
        # lo may pass hi within the slack; clipping it there keeps lo <= hi
        return np.minimum(np.maximum(lo, -h), hi), hi

    @property
    def fixed(self) -> bool:
        """Are the edges the same at every time?  For beta = alpha = t they
        are 0 + t - t, exactly 0 at every finite t; any other offset or
        slope can round differently from one time to the next."""
        return self.beta0 == self.alpha0 == 0.0 and self.beta1 == self.alpha1 == 1.0

    def validate(self, h: float, T: float) -> None:
        # All constraints are affine in t, so the endpoints decide.
        self.windows_at(np.array([0.0, T]), h)


def full_history_window(h: float) -> WindowFns:
    """beta(t) = t - h, alpha(t) = t: the functional sees the whole segment."""
    return WindowFns(beta0=-h, beta1=1.0, alpha0=0.0, alpha1=1.0)


def current_value_window() -> WindowFns:
    """beta(t) = alpha(t) = t: the functional degenerates to the norm at theta = 0."""
    return WindowFns(beta0=0.0, beta1=1.0, alpha0=0.0, alpha1=1.0)


# ---------------------------------------------------------------------------
# nonlinearity families


class ZeroTerm:
    """Identically zero term."""

    def support(self, n_modes: int) -> np.ndarray:
        return np.arange(0)

    def evaluate(self, t: float, seg: Segment) -> np.ndarray:
        return np.zeros(seg.n_modes)

    def evaluate_window(self, stack: SegmentStack, cols=slice(None)) -> np.ndarray:
        return np.zeros_like(stack.oldest()[:, cols])

    def alpha_lipschitz(self, op: SpectralOperator, alpha: float, h: float) -> float:
        return 0.0


class FunctionalAffineTerm:
    """term(t, seg) = (c0 + c1*y) * profile, with y a scalar history functional.

    ``functional`` selects y: "integral" integrates the history norm over
    [-h, 0]; "max" maximizes it over the (possibly moving) window.  The
    profile is given as eigen-coefficients.  ``y_max`` caps the functional
    argument: the scalar map is only defined on [0, y_max] and evaluation
    outside raises; an infinite ``y_max``, like None, sets no cap.
    """

    def __init__(self, c0: float, c1: float, profile, functional: str = "integral",
                 window: WindowFns | None = None, y_max: float | None = None):
        if functional not in ("integral", "max"):
            raise ValueError(f"unknown functional kind {functional!r}")
        self.c0 = float(c0)
        self.c1 = float(c1)
        self.profile = np.asarray(profile, dtype=float)
        self.functional = functional
        self.window = window
        self.y_max = None if y_max is None or y_max == math.inf else float(y_max)
        self._cap = None if self.y_max is None else self.y_max + 1e-12 * max(1.0, self.y_max)

    def support(self, n_modes: int) -> np.ndarray:
        return np.flatnonzero(self.profile)

    def functional_value(self, t: float, seg: Segment) -> float:
        if self.functional == "integral":
            y = integral_norm_functional(seg)
        else:
            if self.window is None:
                lo, hi = -seg.h, 0.0
            else:
                (lo,), (hi,) = self.window.windows_at(np.array([t]), seg.h)
            y = max_norm_functional(seg, lo, hi)
        self._check_argument(y)
        return y

    def functional_values(self, stack: SegmentStack) -> np.ndarray:
        """``functional_value`` of every slice of the stack at its time."""
        if self.functional == "integral":
            y = stack.integral_norms()
        else:
            y = stack.gather(stack.window_edges(self.window))
        self._check_argument(y)
        return y

    def _check_argument(self, y) -> None:
        # y is one functional value or an array of them.  One max against the
        # cap decides; fmax skips nan, which no comparison finds over the cap.
        # Only an overrun looks for the first value past the cap, the one reported.
        if self._cap is not None and np.fmax.reduce(y, axis=None) > self._cap:
            over = np.asarray(y) > self._cap
            raise DomainViolation(
                f"functional value {np.ravel(y)[np.argmax(over)]:.6g} outside the "
                f"declared argument range [0, {self.y_max:.6g}]"
            )

    def evaluate(self, t: float, seg: Segment) -> np.ndarray:
        return (self.c0 + self.c1 * self.functional_value(t, seg)) * self.profile

    def evaluate_window(self, stack: SegmentStack, cols=slice(None)) -> np.ndarray:
        scale = self.c0 + self.c1 * self.functional_values(stack)
        return scale[:, None] * self.profile[None, cols]

    def alpha_lipschitz(self, op: SpectralOperator, alpha: float, h: float) -> float:
        # |y(seg1) - y(seg2)| <= lip_y * sup-norm distance of the segments
        lip_y = h if self.functional == "integral" else 1.0
        return abs(self.c1) * lip_y * float(np.linalg.norm(op.mu**alpha * self.profile))

    # --- pointwise metadata for the spatial smallness condition ---

    def _profile_sups(self, op: SpectralOperator) -> tuple[float, float]:
        """Upper bounds on sup|p| and sup|p'| for the synthesized profile."""
        basis = op.basis
        if not isinstance(basis, DirichletSineBasis):
            raise ValueError("pointwise profile bounds require a sine eigenbasis")
        L = basis.length
        k = np.arange(1, op.n_modes + 1)
        amp = np.abs(self.profile) * math.sqrt(2.0 / L)
        p0 = float(np.sum(amp))
        p1 = float(np.sum(amp * k * math.pi / L))
        return p0, p1

    def gradient_bound(self, op: SpectralOperator, y_cap: float) -> float:
        """sup over x and y in [0, y_max] (else [0, y_cap]) of |d/dx term|."""
        _, p1 = self._profile_sups(op)
        y_hi = self.y_max if self.y_max is not None else y_cap
        return max(abs(self.c0), abs(self.c0 + self.c1 * y_hi)) * p1

    def scalar_y_lipschitz(self, op: SpectralOperator) -> float:
        """Lipschitz constant in y of value plus gradient, uniformly in (t, x)."""
        p0, p1 = self._profile_sups(op)
        return abs(self.c1) * (p0 + p1)


class TimeForcingTerm:
    """Per-mode closed-form functions of time; independent of the history."""

    def __init__(self, mode_fns: list[TimeFn]):
        self.mode_fns = list(mode_fns)

    def support(self, n_modes: int) -> np.ndarray:
        return np.flatnonzero([not fn.vanishes() for fn in self.mode_fns])

    def evaluate(self, t: float, seg: Segment) -> np.ndarray:
        return np.array([fn(t) for fn in self.mode_fns])

    def evaluate_window(self, stack: SegmentStack, cols=slice(None)) -> np.ndarray:
        picked = np.arange(len(self.mode_fns))[cols]
        out = np.empty((stack.times.size, picked.size))
        for j, k in enumerate(picked):
            out[:, j] = self.mode_fns[k](stack.times)
        return out

    def alpha_lipschitz(self, op: SpectralOperator, alpha: float, h: float) -> float:
        return 0.0


class PointDelayTerm:
    """term(t, seg) = kappa * seg(-h): linear in the oldest history value."""

    def __init__(self, kappa: float):
        self.kappa = float(kappa)

    def support(self, n_modes: int) -> np.ndarray:
        return np.arange(n_modes)

    def evaluate(self, t: float, seg: Segment) -> np.ndarray:
        # the theta grid starts exactly at -h, so the oldest value is row 0
        return self.kappa * seg.values[0]

    def evaluate_window(self, stack: SegmentStack, cols=slice(None)) -> np.ndarray:
        return self.kappa * stack.oldest()[:, cols]

    def alpha_lipschitz(self, op: SpectralOperator, alpha: float, h: float) -> float:
        return abs(self.kappa) * float(np.max(op.mu**alpha))


# ---------------------------------------------------------------------------
# admissible domain


@dataclass(frozen=True)
class DomainSpec:
    """Admissible region for (t, history) pairs.

    kind "delay_mass": the integral of the history norm must stay in (0, l).
    kind "sup_band":   every pointwise history norm must stay in (0, l).
    kind "time_only":  no state constraint; only the final time bounds the run,
                       and it takes no width l.
    """

    kind: str
    l: float | None = None

    def __post_init__(self):
        if self.kind not in ("delay_mass", "sup_band", "time_only"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "time_only" and self.l is not None:
            raise ValueError(f"time_only domains take no width l, got {self.l}")
        if self.kind != "time_only" and (self.l is None or not 0.0 < self.l < math.inf):
            raise ValueError(f"band domains need a positive finite width l, got {self.l}")

    def default_tol(self) -> float:
        return 1e-9 * self.l if self.l is not None else 1e-9


@dataclass(frozen=True)
class Membership:
    """Classification of a (t, segment) pair against the domain."""

    state: str  # "inside" | "boundary" | "outside"
    kind: str | None = None  # "upper_mass" | "vanishing" | "sup_band" | "horizon"
    value: float = 0.0

    @property
    def is_inside(self) -> bool:
        return self.state == "inside"


# ---------------------------------------------------------------------------
# the problem object


class NeutralProblem:
    """The full problem: generator, delay terms, admissible domain, horizon.

    ``mg_bound`` is the declared contraction budget of the neutral term; it
    must be < 1 for the windowed iteration to be admissible at all.  Terms
    are checked here once: one profile coefficient or time function per mode.
    """

    def __init__(self, op: SpectralOperator, h: float, T: float, alpha: float,
                 g, f, domain: DomainSpec, mg_bound: float):
        if h <= 0.0 or T <= 0.0:
            raise ValueError(f"delay span and horizon must be positive, got h={h}, T={T}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"fractional exponent must lie in (0, 1], got {alpha}")
        if not np.isfinite(mg_bound) or mg_bound < 0.0:
            raise ValueError(f"contraction budget must be finite and >= 0, got {mg_bound}")
        if mg_bound >= 1.0:
            raise HypothesisViolation(
                f"declared contraction budget {mg_bound} is not < 1; the neutral term "
                "would not contract"
            )
        self.op = op
        self.h = float(h)
        self.T = float(T)
        self.alpha = float(alpha)
        self.g = g
        self.f = f
        self.domain = domain
        self.mg_bound = float(mg_bound)
        for what, term in (("neutral term", g), ("forcing term", f)):
            if isinstance(term, FunctionalAffineTerm) and term.profile.shape != (op.n_modes,):
                raise ValueError(f"{what} profile needs {op.n_modes} coefficients, "
                                 f"got shape {term.profile.shape}")
            if isinstance(term, TimeForcingTerm) and len(term.mode_fns) != op.n_modes:
                raise ValueError(f"{what} needs {op.n_modes} time functions, one per mode, "
                                 f"got {len(term.mode_fns)}")
            if getattr(term, "window", None) is not None:
                term.window.validate(self.h, self.T)

    def eval_g(self, t: float, seg: Segment) -> np.ndarray:
        return self._finite("neutral term", self.g.evaluate, t, seg)

    def eval_f(self, t: float, seg: Segment) -> np.ndarray:
        return self._finite("forcing term", self.f.evaluate, t, seg)

    def _finite(self, what: str, evaluate, *args) -> np.ndarray:
        # overflow is reported as NumericalBlowup, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            out = evaluate(*args)
        if not np.all(np.isfinite(out)):
            raise NumericalBlowup(f"{what} produced non-finite coefficients")
        return out

    def g_alpha_lipschitz(self) -> float:
        """Analytic bound on the neutral term's contraction constant."""
        return self.g.alpha_lipschitz(self.op, self.alpha, self.h)

    def domain_functional(self, seg: Segment) -> float:
        """The scalar the domain watches: delay mass, or the pointwise max norm.

        Unconstrained domains report the current-value norm as a diagnostic.
        """
        if self.domain.kind == "delay_mass":
            return integral_norm_functional(seg)
        if self.domain.kind == "sup_band":
            return sup_norm(seg)
        return float(np.linalg.norm(seg.values[-1]))

    def domain_functionals(self, stack: SegmentStack) -> np.ndarray:
        """``domain_functional`` of every slice of the stack."""
        if self.domain.kind == "delay_mass":
            return stack.integral_norms()
        if self.domain.kind == "sup_band":
            return stack.sup_norms()
        return stack.current_norms()

    def first_exit_slice(self, stack: SegmentStack) -> tuple[int, Membership] | None:
        """The first slice after slice 0, the window's start, that
        ``membership``'s rule does not classify as inside, with its
        ``Membership``, or None.

        The rule reads each slice's ``domain_functionals`` value, smallest
        node norm and time; the mask below negates its inside branch.
        """
        value = self.domain_functionals(stack)[1:]
        bottom = stack.min_norms()[1:] if self.domain.kind == "sup_band" else value
        times = stack.times[1:]
        out = self.T - times <= TIME_TOL
        if self.domain.kind != "time_only":
            tol = self.domain.default_tol()
            out |= (value - self.domain.l >= -tol) | (bottom <= tol)
        hits = np.flatnonzero(out)
        if hits.size == 0:
            return None
        i = int(hits[0])
        return i + 1, self._classify(float(times[i]), float(value[i]), float(bottom[i]))

    def membership(self, t: float, seg: Segment) -> Membership:
        """Classify (t, seg) as inside, on the boundary of, or outside the domain.

        The value is ``domain_functional(seg)``.  On a band domain it is
        outside when value - l exceeds tol and on the edge when |value - l|
        does not (kind "upper_mass" for the delay mass, "sup_band" for the
        norm band), and on the "vanishing" edge when the delay mass, or the
        smallest node norm, is at most tol; tol is the domain's default
        tolerance.  Band violations outrank the final-time test, mirroring
        the boundary decomposition of the admissible region.
        """
        value = self.domain_functional(seg)
        bottom = float(seg.node_norms().min()) if self.domain.kind == "sup_band" else value
        return self._classify(t, value, bottom)

    def _classify(self, t: float, value: float, bottom: float) -> Membership:
        # membership's rule; bottom is the delay mass or the smallest node norm
        if self.domain.kind != "time_only":
            tol = self.domain.default_tol()
            l = self.domain.l
            edge = "upper_mass" if self.domain.kind == "delay_mass" else "sup_band"
            # value - l, not l + tol: the two tests then split at the same
            # rounded difference and leave no gap just past l + tol
            if value - l > tol:
                return Membership("outside", edge, value)
            if abs(value - l) <= tol:
                return Membership("boundary", edge, value)
            if bottom <= tol:
                return Membership("boundary", "vanishing", bottom)
        if t > self.T + TIME_TOL:
            return Membership("outside", "horizon", value)
        if self.T - t <= TIME_TOL:
            return Membership("boundary", "horizon", value)
        return Membership("inside", None, value)


# ---------------------------------------------------------------------------
# hypothesis checks


@dataclass(frozen=True)
class SmallnessCheck:
    """Outcome of the neutral smallness condition 2*h*L*mg^2*meas(Q) < 1."""

    ok: bool
    value: float


def spatial_smallness_check(prob: NeutralProblem) -> SmallnessCheck | None:
    """Gradient-based smallness gate for spatially realized integral problems.

    Applies when the neutral term is the integral-functional affine family on
    a sine eigenbasis; returns None otherwise.  The gradient bound L and the
    pointwise Lipschitz constant in the functional argument are computed
    analytically from the family parameters.
    """
    g = prob.g
    if not isinstance(g, FunctionalAffineTerm) or g.functional != "integral":
        return None
    if not isinstance(prob.op.basis, DirichletSineBasis):
        return None
    L = g.gradient_bound(prob.op, prob.domain.l if prob.domain.l is not None else 1.0)
    mg = g.scalar_y_lipschitz(prob.op)
    return check_neutral_smallness(prob.h, L, mg, prob.op.basis.length)


def check_neutral_smallness(h: float, L: float, mg: float, measQ: float) -> SmallnessCheck:
    for name, v in (("h", h), ("L", L), ("mg", mg), ("measQ", measQ)):
        if not np.isfinite(v) or v < 0.0:
            raise ValueError(f"{name} must be finite and nonnegative, got {v}")
    if measQ <= 0.0:
        raise ValueError(f"measQ must be positive, got {measQ}")
    value = 2.0 * h * L * mg**2 * measQ
    return SmallnessCheck(ok=value < 1.0, value=value)


def _random_segment(rng: np.random.Generator, prob: NeutralProblem, thetas: np.ndarray,
                    constant: bool = False, mode: int | None = None) -> Segment:
    """Random history on the theta grid ``thetas``, inside the domain band
    (functional kept mid-band)."""
    K = prob.op.n_modes
    if mode is None:
        amps = rng.uniform(0.3, 1.0, size=K) / np.arange(1, K + 1) ** 2
    else:
        amps = np.zeros(K)
        amps[mode] = 1.0
    if constant:
        values = np.tile(amps, (thetas.size, 1))
    else:
        wobble = 1.0 + 0.4 * rng.uniform(-1.0, 1.0, size=(thetas.size, 1))
        values = wobble * amps
    seg = Segment._trusted(prob.h, thetas, values)
    target_band = prob.domain.l if prob.domain.l is not None else 1.0
    target = rng.uniform(0.25, 0.7) * target_band
    current = prob.domain_functional(seg)
    if current <= 0.0:
        return seg
    return seg.scaled(target / current)


@np.errstate(over="ignore", invalid="ignore")
def estimate_lipschitz_mg(prob: NeutralProblem, n_samples: int, seed: int) -> float:
    """Sampled lower bound on the neutral term's Lipschitz constant.

    Ratios ||g(t, s1) - g(t, s2)||_alpha / sup-norm(s1 - s2) over random
    history pairs inside the domain.  Every third pair is an aligned scaling
    of a constant-in-theta history, the configuration that saturates the
    integral functional's Lipschitz bound; single-mode pairs cycle through
    the spectrum so weight concentrated on fast modes is probed too.  The
    samples run under one ``errstate``: a pair that overflows gives a
    non-finite ratio, not a numpy warning.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    # every sampled segment shares this grid of 16 cells, strictly increasing from -h to 0
    thetas = np.linspace(-prob.h, 0.0, 16 + 1)
    best = 0.0
    formed = 0
    for i in range(n_samples):
        t = float(rng.uniform(0.0, prob.T))
        style = i % 3
        if style == 0:
            mode = i % prob.op.n_modes if prob.op.n_modes > 1 else None
            s1 = _random_segment(rng, prob, thetas, constant=True, mode=mode)
            s2 = s1.scaled(1.0 + float(rng.uniform(0.05, 0.2)))
        elif style == 1:
            s1 = _random_segment(rng, prob, thetas, constant=True)
            s2 = s1.scaled(1.0 + float(rng.uniform(0.05, 0.2)))
        else:
            s1 = _random_segment(rng, prob, thetas)
            s2 = _random_segment(rng, prob, thetas)
        denom = sup_norm(Segment._trusted(prob.h, thetas, s1.values - s2.values))
        if denom < 1e-14:
            continue
        try:
            diff = prob.eval_g(t, s1) - prob.eval_g(t, s2)
        except DomainViolation:
            # the pair left the term's declared argument range: not a valid probe
            continue
        ratio = prob.op.alpha_norm(prob.alpha, diff) / denom
        best = max(best, ratio)
        formed += 1
    if formed == 0:
        raise InsufficientSamples("all sampled history pairs were degenerate or inadmissible")
    return best
