"""Spans recorded at the benchmark's own calls into the library's layers.

A span is (name, start, end, parent, op): the benchmark opens one around
each op, around each public solution-map call it makes, and around each
call the library makes into benchmark-supplied data evaluators.  Spans
stay in memory and are written out when the run ends.  The untraced run
uses NullTracer, which records nothing and leaves data unwrapped.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "points", "n")

    def __init__(self, name, start, parent, op, n):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.points, self.n = parent, op, 0, n

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, n: int | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, perf_counter(), parent, self.op, n)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def wrap(self, data):
        """Data whose evaluator counts its calls and points in a span."""
        inner = data.evaluator

        def counted(pts):
            with self.span("data.evaluator") as rec:
                out = inner(pts)
            rec.points = int(np.size(out))
            return out

        return dataclasses.replace(data, evaluator=counted)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, "points": s.points,
                                     "n": s.n}) + "\n")


class NullTracer:
    op = None

    def span(self, name: str, n: int | None = None):
        return nullcontext()

    def wrap(self, data):
        return data
