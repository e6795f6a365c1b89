"""Spans and counts recorded from outside the program, at its layer boundaries.

A :class:`Tracer` replaces a function at the module attribute its callers
look up with a wrapper that records one span per call: name, parent span,
start and end. Spans stay in memory until :meth:`Tracer.summary` folds them
into per-name call counts, inclusive time and self time (the span minus the
time its direct children cover).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self._names: list[str] = []
        self._parents: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._stack: list[int] = []
        self._wraps: list[tuple[object, str, str, Callable | None]] = []
        self._patched: list[tuple[object, str, Callable]] = []
        self.counts: Counter = Counter()

    def add(self, module: object, attr: str, name: str,
            count: Callable[[tuple, object], dict] | None = None) -> None:
        """Register ``module.attr`` to be traced as span ``name``.

        ``count(args, result)`` may return extra counts to add per call.
        """
        self._wraps.append((module, attr, name, count))

    def install(self) -> None:
        for module, attr, name, count in self._wraps:
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(original, name, count))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrapper(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(0.0)
        self._stack.append(idx)
        self._starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self._ends[idx] = time.perf_counter()
            self._stack.pop()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        child_time = [0.0] * len(self._names)
        for idx, parent in enumerate(self._parents):
            if parent >= 0:
                child_time[parent] += self._ends[idx] - self._starts[idx]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for idx, name in enumerate(self._names):
            dur = self._ends[idx] - self._starts[idx]
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child_time[idx]
        return dict(out)

    def reset(self) -> None:
        self._names.clear()
        self._parents.clear()
        self._starts.clear()
        self._ends.clear()
        self.counts.clear()
