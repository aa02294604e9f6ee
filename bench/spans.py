"""Aggregated spans recorded around calls into griddetect's modules.

The tracer replaces a module attribute (for example
``griddetect.simulator.draw_world``) with a wrapper, so every call that
looks the name up there is timed. Spans are aggregated in memory by
(name, parent): call count, total time and self time, where self time is
the span's duration minus the time its child spans cover. Counter hooks
add exact work counts at the same boundaries. Nothing under ``src/`` is
modified; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable

CountHook = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        # (name, parent name or None) -> [count, total_ns, self_ns]
        self.stats: dict[tuple[str, str | None], list[int]] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, child_ns] per open span
        self._installed: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        self._stack.append([name, 0])
        return perf_counter_ns()

    def _exit(self, t0: int) -> None:
        dt = perf_counter_ns() - t0
        name, child_ns = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dt
        key = (name, parent[0] if parent is not None else None)
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = [0, 0, 0]
        s[0] += 1
        s[1] += dt
        s[2] += dt - child_ns

    @contextmanager
    def span(self, name: str):
        t0 = self._enter(name)
        try:
            yield
        finally:
            self._exit(t0)

    def wrap(self, name: str, fn: Callable, count: CountHook | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(t0)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, targets: list[tuple[object, str, str, CountHook | None]]) -> None:
        """Wrap ``module.attr`` for each (module, attr, span name, count hook)."""
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def total_ns(self, name: str) -> int:
        return sum(s[1] for (n, _), s in self.stats.items() if n == name)

    def self_ns(self, name: str) -> int:
        return sum(s[2] for (n, _), s in self.stats.items() if n == name)

    def calls(self, name: str) -> int:
        return sum(s[0] for (n, _), s in self.stats.items() if n == name)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "count": s[0], "total_ns": s[1], "self_ns": s[2]}
            for (n, p), s in sorted(self.stats.items(), key=lambda kv: -kv[1][1])
        ]
