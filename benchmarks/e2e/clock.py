"""The host clock: every host time is in *reference seconds*.

The box this benchmark runs on is small and shared.  Its speed drifts by
tens of percent over tens of seconds (a busy sibling thread, a co-tenant
burst), which no estimator over the passes of one 20-second run can see
through: the fastest pass of a slow minute is still slow.  So the clock
measures the machine beside the program:

* a pass is timed in *segments* (a protocol, a block of storms), a few
  tenths of a second each;
* a fixed *calibration kernel* — a few milliseconds of heap, dict and
  bound-method work, the simulator's instruction mix, stdlib only —
  runs before and after every segment;
* a segment's time is scaled by how slow the kernel ran beside it,
  ``raw * (REFERENCE_S / mean(kernel before, kernel after)) **
  SENSITIVITY``: seconds of a machine that runs the kernel in
  :data:`REFERENCE_S`;
* the pass time is the sum over segments of each segment's *median*
  across the passes of the run.

This is the one estimator; no host number is on the raw clock.  It was
chosen on paired measurements, all under ``baseline/``.
``noise_floor.json`` holds, for six runs of every workload, this
estimate and the mean of the fastest quarter of raw pass times; max/min
over the six: ``closed_heavy`` 1.03 here against 1.09 there,
``open_service`` 1.05 against 1.15, ``wan_termination`` 1.06 against
1.10.  Beside a synthetic co-tenant (``noise_floor_cotenant.json``, four
runs) ``closed_heavy`` read 1.08 against 1.08 and ``wan_termination``
1.03 against 1.05.  ``segments_vs_pass.json`` has six more co-tenant
runs with every kernel reading kept: calibrating whole passes instead
of segments was no better than the raw clock (``closed_heavy`` 1.07
against 1.03 by segments and 1.10 raw; ``wan_termination`` 1.17 against
1.01 and 1.05), which is why ``run_pass`` takes a ``lap``.
``sweep_stream`` is one 2-second segment with three processes on two
cores; neither clock holds it (1.24 against 1.19).

A change to ``src/`` cannot move the kernel: it imports nothing from
the repository.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter
from typing import Callable

#: kernel time on the reference box (2 vCPU Xeon @ 2.1 GHz, CPython
#: 3.11) when nothing else runs; fixes the unit, nothing else.
REFERENCE_S = 0.0045
#: how much of the kernel's slowdown the simulator shows, as a power:
#: the kernel is tight, core-bound code, and a busy sibling thread slows
#: it more than it slows a program that also waits for memory.  Fitted
#: on this box over the box's fast and slow spells (kernel time 3.5-6
#: ms): 0.7-0.8 on ``wan_termination`` and ``sweep_stream``, 0.8-0.85
#: on ``open_service``, 0.85-1 on ``closed_heavy``.
SENSITIVITY = 0.8


def reference_seconds(raw: float, kernel_before: float, kernel_after: float) -> float:
    """``raw`` seconds, measured between two kernel readings, in
    reference seconds."""
    return raw * (REFERENCE_S / ((kernel_before + kernel_after) / 2)) ** SENSITIVITY


class _Actor:
    __slots__ = ("base", "seen")

    def __init__(self, base: int) -> None:
        self.base = base
        self.seen: dict[int, int] = {}

    def step(self, key: int) -> int:
        self.seen[key] = self.base + key
        return self.seen.get(key - 1, 0)


def calibrate() -> float:
    """Seconds the calibration kernel takes right now.

    The cyclic collector is off inside the kernel: its cost depends on
    how many objects the *program* has alive, and the kernel is there to
    measure the machine.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        queue: list[tuple[float, int, tuple[Callable[[int], int], int]]] = []
        actor = _Actor(3)
        total = 0
        for i in range(6000):
            heapq.heappush(queue, ((i * 7919) % 1013 / 7.0, i, (actor.step, i)))
            if i % 3 == 0:
                _time, _seq, (fn, arg) = heapq.heappop(queue)
                total += fn(arg)
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def machine_now() -> float:
    """Median of three kernel runs: one run is itself a noisy reading."""
    return sorted(calibrate() for _ in range(3))[1]


class SegmentClock:
    """Times one pass, segment by segment, with the kernel in between.

    ``start()``, then ``lap()`` at the end of every segment; the kernel
    runs inside ``lap`` and its time belongs to no segment.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.kernel: list[float] = []
        #: seconds spent in the kernel since ``start()`` (a traced pass
        #: takes them out of its wall)
        self.in_kernel = 0.0
        self._mark = 0.0

    def start(self) -> None:
        self.raw.clear()
        self.kernel[:] = [machine_now()]
        self.in_kernel = 0.0
        self._mark = perf_counter()

    def lap(self) -> None:
        now = perf_counter()
        self.raw.append(now - self._mark)
        self.kernel.append(machine_now())
        self._mark = perf_counter()
        self.in_kernel += self._mark - now

    def reference_seconds(self) -> list[float]:
        """Each segment's time in reference seconds."""
        kernel = self.kernel
        return [
            reference_seconds(raw, kernel[j], kernel[j + 1]) for j, raw in enumerate(self.raw)
        ]


def pass_reference_seconds(passes: list[list[float]]) -> float:
    """Sum over segments of the segment's median across the passes."""
    return sum(statistics.median(segment) for segment in zip(*passes, strict=True))
