"""The admission sampler as plainly defined: one history pair at a time.

``estimate_lipschitz_mg`` samples its pairs in blocks; this loop is the
reference it is pinned to, estimate and exceptions alike.  The file name
does not match ``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import numpy as np

from neutraldde import DomainViolation, InsufficientSamples, Segment, sup_norm


def scaled(seg: Segment, c: float) -> Segment:
    """The segment c * seg on seg's theta nodes."""
    return Segment._trusted(seg.h, seg.thetas, c * seg.values)


def _random_segment(rng, prob, thetas, constant=False, mode=None):
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
    return scaled(seg, target / current)


@np.errstate(over="ignore", invalid="ignore")
def reference_outcomes(prob, n_samples, seed):
    """The loop's outcome after each of samples 1..n_samples, from one pass:
    (estimate, pairs that formed a ratio), or the exception the loop raises
    there, since a loop of that many samples would raise it too."""
    rng = np.random.default_rng(seed)
    thetas = np.linspace(-prob.h, 0.0, 16 + 1)
    best = 0.0
    formed = 0
    out = []
    for i in range(n_samples):
        try:
            t = float(rng.uniform(0.0, prob.T))
            style = i % 3
            if style == 0:
                mode = (i // 3) % prob.op.n_modes if prob.op.n_modes > 1 else None
                s1 = _random_segment(rng, prob, thetas, constant=True, mode=mode)
                s2 = scaled(s1, 1.0 + float(rng.uniform(0.05, 0.2)))
            elif style == 1:
                s1 = _random_segment(rng, prob, thetas, constant=True)
                s2 = scaled(s1, 1.0 + float(rng.uniform(0.05, 0.2)))
            else:
                s1 = _random_segment(rng, prob, thetas)
                s2 = _random_segment(rng, prob, thetas)
            denom = sup_norm(Segment._trusted(prob.h, thetas, s1.values - s2.values))
            if not denom < 1e-14:
                diff = prob.eval_g(t, s1) - prob.eval_g(t, s2)
                ratio = prob.op.alpha_norm(prob.alpha, diff) / denom
                best = max(best, ratio)
                formed += 1
        except DomainViolation:
            pass  # the pair left the term's declared argument range: not a valid probe
        except Exception as exc:
            return out + [exc] * (n_samples - i)
        out.append((best, formed))
    return out


def reference_estimate(prob, n_samples, seed):
    """Sampled lower bound on the neutral term's Lipschitz constant, pair by pair."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    outcome = reference_outcomes(prob, n_samples, seed)[-1]
    if isinstance(outcome, Exception):
        raise outcome
    best, formed = outcome
    if formed == 0:
        raise InsufficientSamples("all sampled history pairs were degenerate or inadmissible")
    return best
