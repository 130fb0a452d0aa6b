"""Host-speed calibration for the end-to-end timings.

The benchmark's host is a small shared VM whose speed switches between
states for minutes at a time; identical solves then differ by 30 % or more
between runs, and in user CPU time as much as in wall time, so neither a
longer run nor CPU time removes it.  ``kernel()`` is a fixed piece of work
in the benchmark's own code, with the mix the solver has (an interpreter
loop over small numpy calls, then vectorised work on mode x history sized
arrays).  It is timed between the measured operations, and each operation
is scaled by ``REFERENCE_S`` over the kernel's time around it: the result is
the operation's time on a host where the kernel takes ``REFERENCE_S``.

Library changes do not touch the kernel, so the scaled times still compare
two versions of the library; the raw medians are printed beside them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Nominal kernel time; it took 0.03-0.05 s on the 2-vCPU VM the bounds were set on.
REFERENCE_S = 0.04

_rng = np.random.default_rng(0)
_SERIES = _rng.standard_normal(4000)
_MODES = _rng.standard_normal((256, 100))
_KERNEL = _rng.standard_normal(100)


def kernel() -> float:
    """Seconds the fixed calibration work takes now."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += float(np.max(np.abs(_SERIES[i:i + 500])))
        box = {"k": i}
        acc += box["k"] * 1e-9
    for _ in range(160):
        acc += float(np.sum(np.exp(-0.01 * _MODES) * _KERNEL))
        acc += float(np.convolve(_SERIES[:1000], _KERNEL, mode="valid")[0])
    return perf_counter() - t0


def scale(samples: list[float], before: float, after: float) -> list[float]:
    """``samples`` timed between two kernel runs, at the reference speed."""
    return [t * REFERENCE_S / (0.5 * (before + after)) for t in samples]
