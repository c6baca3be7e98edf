"""In-memory spans around calls into the library.

A disabled :class:`Tracer` only times the call, so the timed and the traced
runs go through the same code.  An enabled one also records a :class:`Span`
per call (name, start, end, parent, unit id) and, on request, the peak growth
of the resident set during the call.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE_BYTES


class RssSampler:
    """Peak resident-set growth over a ``with`` block, sampled on a thread."""

    def __init__(self, interval_s: float = 0.002):
        self.interval_s = interval_s
        self.base = 0
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(self.interval_s):
            self.peak = max(self.peak, rss_bytes())

    def __enter__(self):
        self.base = self.peak = rss_bytes()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, rss_bytes())
        return False

    @property
    def growth_mb(self) -> float:
        return (self.peak - self.base) / 2**20


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index into Tracer.spans, -1 for a root
    unit: int          # id of the traced unit of work the span belongs to
    tag: str = ""      # model name, where the call concerns one model
    rss_mb: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Times calls; when enabled, also keeps a span per call in memory."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.unit = 0
        self._open: list[int] = []

    def _begin(self, name: str, tag: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.unit, tag))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int):
        self.spans[index].end = perf_counter()
        self._open.pop()

    @contextmanager
    def group(self, name: str, tag: str = ""):
        """Span of benchmark code that groups the layer calls inside it."""
        if not self.enabled:
            yield
            return
        index = self._begin(name, tag)
        try:
            yield
        finally:
            self._end(index)

    def call(self, name: str, fn, *args, tag: str = "", rss: bool = False, **kwargs):
        """Return ``(fn(*args, **kwargs), seconds)``, recording a span if enabled."""
        if not self.enabled:
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            return out, perf_counter() - t0
        index = self._begin(name, tag)
        try:
            if rss:
                with RssSampler() as sampler:
                    out = fn(*args, **kwargs)
                self.spans[index].rss_mb = sampler.growth_mb
            else:
                out = fn(*args, **kwargs)
        finally:
            self._end(index)
        span = self.spans[index]
        return out, span.seconds


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Calls run one at a time, so children never overlap each other.
    """
    out = [span.seconds for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.seconds
    return out
