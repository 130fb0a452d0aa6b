"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent), with parent the index of the span that
was open when it started, or -1.  Timing wrappers are installed from the
benchmark's own files around the library functions, where their callers
look them up, and removed again afterwards; the library is not edited.

A span's self time is its duration minus the durations of its direct
children.  Everything runs on one thread, so children follow one another
inside their parent and their durations add up to the part of the parent's
interval they cover.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(math.nan)
        self._open.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(tracer, result)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch each ``(owner, attribute, span name, observe)`` for the duration.

        ``owner`` is a module or class that must define the attribute itself;
        a renamed or removed function raises ``KeyError`` here instead of
        reading as a layer with no calls.
        """
        patched = []
        try:
            for owner, attr, name, observe in targets:
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(name, original, observe))
                patched.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[i]
        return [d - c for d, c in zip(durations, covered)]

    def below(self, name: str) -> list[bool]:
        """For each span, whether a span called ``name`` encloses it."""
        inside: list[bool] = []
        for parent in self.parents:
            inside.append(parent >= 0 and (self.names[parent] == name or inside[parent]))
        return inside

    def layer_stats(self, under: str | None = None) -> dict[str, LayerStat]:
        """Calls, total and self time per span name; only spans below ``under`` if given."""
        keep = self.below(under) if under else [True] * len(self.names)
        stats: dict[str, LayerStat] = {}
        for name, start, end, own, kept in zip(
                self.names, self.starts, self.ends, self.self_times(), keep):
            if not kept:
                continue
            stat = stats.setdefault(name, LayerStat())
            stat.calls += 1
            stat.total_s += end - start
            stat.self_s += own
        return stats

    def write(self, path: Path) -> None:
        """Write the spans as CSV, times in seconds from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        lines = ["span,parent,name,start_s,end_s"]
        for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)):
            lines.append(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
