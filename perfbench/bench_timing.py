"""Timing for the benchmark: the span recorder of the traced run, and the speed gauge.

Spans are recorded from the benchmark's own code, around calls of spinwire's
public entry points; nothing inside the package is instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans (name, start, end, parent span, operation id) in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: int):
        span = {"id": len(self.spans), "name": name, "op": op_id,
                "parent": self._stack[-1] if self._stack else None,
                "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    @staticmethod
    def duration_ns(span: dict) -> int:
        return span["end_ns"] - span["start_ns"]

    def children(self, span: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def self_ns(self, span: dict) -> int:
        """Duration not covered by child spans (children run one after another)."""
        return self.duration_ns(span) - sum(self.duration_ns(c) for c in self.children(span))

    def roots(self) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None]


# Wall times are scaled to a machine on which the calibration kernel takes
# this long.  The kernel runs before and after every operation, so a swing in
# the machine's speed (shared hosts drift by 1.6x over minutes) cancels out of
# the ratio of an operation's time to the kernel's.
NOMINAL_KERNEL_MS = 10.0
KERNEL_STEPS = 1500


def calibration_kernel() -> None:
    """Fixed small-array numpy work, of the kind the engine's Python loops do."""
    import numpy as np

    a = np.eye(4, dtype=complex)
    b = np.full((4, 4), 0.25 + 0.1j)
    for _ in range(KERNEL_STEPS):
        a = b @ a
        a = a / np.abs(a).max()


class SpeedGauge:
    """Times the calibration kernel; turns wall times into nominal-speed times."""

    def __init__(self):
        self.samples_ms: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter_ns()
        calibration_kernel()
        self.samples_ms.append((time.perf_counter_ns() - t0) / 1e6)
        return self.samples_ms[-1]

    def scale(self, before_ms: float, after_ms: float) -> float:
        """Factor from wall time to nominal time for work between two samples."""
        return NOMINAL_KERNEL_MS / (0.5 * (before_ms + after_ms))
