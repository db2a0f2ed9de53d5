"""Span tracer for the traced benchmark run.

The package imports functions by name, so a call from one module into
another goes through an attribute of the *calling* module
(``pipeline.knn``, ``baselines.sde_step_batch``, ...). The tracer replaces
those attributes with timing wrappers from outside the package and puts the
originals back when it is closed. Nothing inside the package changes.

A span is ``[name, start, end, parent_index]``; spans live in memory and are
turned into per-layer totals after the run. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        self.calls[name] += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def inside(self, names) -> bool:
        """True when the innermost open span's ancestors include one of ``names``."""
        return any(self.spans[i][0] in names for i in self._stack[:-1])

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` by a wrapper that records span ``name``.

        ``after(tracer, args, kwargs, result)`` runs inside the span, after a
        successful call, to add counts derived from the arguments or result.
        """
        original = getattr(module, attr)

        def body(*args, **kwargs):
            result = original(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        def wrapper(*args, **kwargs):
            return self.call(name, body, args, kwargs)

        self.replace(module, attr, wrapper)

    def replace(self, module, attr: str, new) -> None:
        """Set ``module.attr`` to ``new`` until the tracer is closed."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def total(self, *names: str) -> float:
        """Summed duration of every span called one of ``names``.

        A span nested in another of the same names is not counted twice.
        """
        wanted = set(names)
        out = 0.0
        for name, start, end, parent in self.spans:
            if name in wanted and not self._has_ancestor(parent, wanted):
                out += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def _has_ancestor(self, index: int, names: set) -> bool:
        while index >= 0:
            if self.spans[index][0] in names:
                return True
            index = self.spans[index][3]
        return False
