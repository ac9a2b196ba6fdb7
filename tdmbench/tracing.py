"""In-memory spans around the benchmark's calls into the program.

A span records its name, start, end, parent span and request id.  With
tracing off, :meth:`Tracer.span` is a no-op context manager, so the
untraced run pays one attribute test per call.  Spans stay in memory
and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, str, float, float, int | None, str | None]] = []
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, request: str | None = None):
        if not self.enabled:
            yield
            return
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent, request))

    def self_times(self) -> dict[str, list[float]]:
        """Per-name self times (duration minus child spans)."""
        child = defaultdict(float)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, list[float]] = defaultdict(list)
        for sid, name, t0, t1, _, _ in self.spans:
            out[name].append(t1 - t0 - child[sid])
        return out

    def cost_per_span(self, n: int = 20000) -> float:
        """Measured cost of recording one empty span."""
        probe = Tracer(True)
        t0 = _clock()
        for _ in range(n):
            with probe.span("probe"):
                pass
        return (_clock() - t0) / n

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, name, t0, t1, parent, req in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "request": req}) + "\n")
