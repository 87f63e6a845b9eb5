"""Spans and work counters recorded from outside the program.

A traced pass opens one case span per case and, inside it, one span around
each call into a public function of the package, named `<module>.<function>`.
Counters come from wrappers around inputs the benchmark owns: curve copies
whose segment evaluators count parameters, and polynomials that count calls
and points.  An untraced pass uses `NullTracer`, whose hooks do nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from hopfdesign.curves import PiecewiseCurve
from hopfdesign.verify import Polynomial


@dataclass
class Span:
    case_id: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class NullTracer:
    """Untraced pass: spans and wrappers are no-ops."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def case(self, name: str):
        return self.span(name)

    def count(self, name: str, amount: float) -> None:
        pass

    def counted_curve(self, curve: PiecewiseCurve, counter: str) -> PiecewiseCurve:
        return curve

    def take(self, name: str) -> float:
        return 0

    def counted_polynomial(self, poly: Polynomial) -> Polynomial:
        return poly


class Tracer(NullTracer):
    """Keeps every span and counter of one pass in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []
        self._case_id = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(self._case_id, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def case(self, name: str):
        self._case_id += 1
        return self.span(f"case.{name}")

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def counted_curve(self, curve: PiecewiseCurve, counter: str) -> PiecewiseCurve:
        """Copy of the curve whose segments add each evaluated parameter to `counter`."""
        segments = []
        for seg in curve.segments:

            def func(s, inner=seg.func):
                self.counters[counter] += np.size(s)
                return inner(s)

            segments.append(dataclasses.replace(seg, func=func))
        before = self.counters[counter]
        copy = PiecewiseCurve(
            segments, curve.ambient_dim, curve.declared_self_intersections, closed=curve.closed
        )
        self.counters[counter] = before  # the constructor's continuity probes are not work
        return copy

    def take(self, name: str) -> float:
        """Remove a counter and return its value."""
        return self.counters.pop(name, 0)

    def counted_polynomial(self, poly: Polynomial) -> Polynomial:
        return CountingPolynomial(poly.ambient_dim, poly.exponents, poly.coefficients, self.counters)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.name] += (s.end - s.start) - child_time[s.span_id]
        return dict(totals)

    def to_records(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


@dataclass(frozen=True)
class CountingPolynomial(Polynomial):
    """Polynomial that adds its calls and evaluated points to a counter dict."""

    tally: dict = dataclasses.field(default=None, compare=False, repr=False)

    def __call__(self, points):
        values = super().__call__(points)
        self.tally["verify.poly_calls"] += 1
        self.tally["verify.poly_points"] += values.shape[0]
        return values
