"""In-memory span recorder for the traced pass.

A span is (name, layer, start, end, parent).  Spans are recorded from the
benchmark's own code: around direct calls, and by wrapping the public
functions a module looks up at call time.  Nothing is written until the run
ends.  A span opened in a worker thread that has no open span of its own
takes as parent the innermost span open in the main thread, which is the
call that started the pool.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent))
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, fn: Callable, name: Callable[..., str] | str,
             layer: Callable[..., str] | str) -> Callable:
        """``fn`` recording a span per call; name and layer may depend on the arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name,
                           layer(*args, **kwargs) if callable(layer) else layer):
                return fn(*args, **kwargs)

        return traced

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self, roots: set[int]) -> dict[str, float]:
        """Self time per layer over the subtrees under ``roots``.

        A span's self time is its duration minus the part of its interval
        that the union of its children's intervals covers.
        """
        children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children.setdefault(s.parent, []).append(i)
        out: dict[str, float] = {}
        todo = list(roots)
        while todo:
            i = todo.pop()
            s = self.spans[i]
            kids = children.get(i, [])
            todo.extend(kids)
            covered = 0.0
            reach = s.start
            for a, b in sorted((self.spans[k].start, self.spans[k].end) for k in kids):
                a, b = max(a, reach), min(b, s.end)
                if b > a:
                    covered += b - a
                    reach = b
            out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start) - covered
        return out
