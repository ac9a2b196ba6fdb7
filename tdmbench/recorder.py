"""Operation accounting and timing shared by every section."""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from tracing import Tracer

clock = time.perf_counter


class Recorder:
    """Counts operations and collects timings for one run.

    Every call a round makes into the program is one operation.  Its
    outputs are checked by the caller, which passes the list of errors
    to :meth:`op`: a non-empty list counts the operation as failed.
    Only the farm's counter check is an expected failure; any other
    failed check is recorded in ``unexpected`` and makes the run
    incorrect.  Calls outside the rounds (set-up, the one-off cold
    builds, the traced replay) go through :meth:`probe`: checked the
    same way but not counted, so the failed share of ``attempted`` is
    the same whatever the number of rounds.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.totals: dict[str, float] = defaultdict(float)

    def op(self, errors: list[str], *, known_fault: bool = False) -> bool:
        self.attempted += 1
        if not errors:
            return True
        self.failed += 1
        if not known_fault:
            self.unexpected.append("; ".join(errors[:3]))
        return False

    def probe(self, errors: list[str]) -> None:
        """Record the check of a call made outside the rounds."""
        if errors:
            self.unexpected.append("; ".join(errors[:3]))

    @contextmanager
    def timed(self, name: str, *, total: str | None = None, request: str | None = None):
        """Time one call: a span named ``name`` when tracing, plus the
        elapsed seconds added to ``totals[total]`` for the end-to-end
        metrics."""
        t0 = clock()
        with self.tracer.span(name, request):
            yield
        if total is not None:
            self.totals[total] += clock() - t0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
