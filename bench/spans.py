"""Per-layer spans for the traced benchmark run.

The program is not instrumented.  The traced run replaces public
functions of ``javascale`` with timing wrappers in every module namespace
that holds them, so a call the program makes internally is caught under
the name its calling module looks up.  Spans are summed per name as they
close: inclusive time, self time (less the spans opened inside them) and
calls.
"""

from __future__ import annotations

import functools
import pathlib
import sys
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new round of measurements."""
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.marks: list[tuple[str, float]] = [("start", time.perf_counter())]

    def span(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.inclusive[name] += elapsed
                tracer.self_time[name] += elapsed - frame[0]
                tracer.calls[name] += 1
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    def wrap_everywhere(
        self, fn: Callable, name: str, count: Callable | None = None
    ) -> None:
        """Wrap ``fn`` in every loaded ``javascale`` module that binds it."""
        wrapper = self.span(name, fn, count)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "javascale" and not mod_name.startswith("javascale."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        fn = getattr(cls, attr)
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self.span(name, fn))

    def mark_status_writes(self) -> None:
        """Timestamp each write of a run's STATUS file (one per stage)."""
        original = pathlib.Path.write_text
        tracer = self

        @functools.wraps(original)
        def write_text(path, *args, **kwargs):
            result = original(path, *args, **kwargs)
            if path.name == "STATUS":
                tracer.marks.append((args[0].splitlines()[-1], time.perf_counter()))
            return result

        self._undo.append((pathlib.Path, "write_text", original))
        pathlib.Path.write_text = write_text

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
