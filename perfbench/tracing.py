"""In-memory spans around the benchmark's calls into ``qpt`` modules.

A span records the op it belongs to (the request identifier), the layer
(the ``qpt`` module called), the function called, and its start and end.
Spans stay in memory and are summarized when the run ends.  Nothing is
traced inside ``src/qpt``; every span wraps a call made from this directory.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import NamedTuple

LAYERS = (
    "simulator",
    "process_tomography",
    "projection",
    "metrics",
    "io",
    "mesh",
    "cli",
)


class Span(NamedTuple):
    op: int
    layer: str
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``bench.drive`` sets ``op`` before each op."""

    def __init__(self):
        self.op = -1
        self.spans: list[Span] = []

    @contextmanager
    def span(self, layer: str, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(self.op, layer, name, start, time.perf_counter()))

    def layer_spans(self, layer: str) -> list[Span]:
        return [s for s in self.spans if s.layer == layer]


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    _NULL = nullcontext()

    def span(self, layer: str, name: str):
        return self._NULL
