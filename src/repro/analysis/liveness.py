"""Liveness metrics: how fast does termination actually terminate?

Safety (Theorem 1) says nothing about *when* a partition decides.  The
paper's §5 argues protocol 2's commit runs faster; operators also care
how long an in-doubt transaction holds its locks once failures strike.
This module extracts those times from the trace:

* **decision latency** — virtual time from ``begin_commit`` to the
  coordinator's decision (failure-free performance; experiment E12);
* **termination latency** — virtual time from the first fault to the
  last decision among live participants (how long blocking lasted in
  partitions that could decide at all);
* **attempt counts** — elections and termination phase-1 polls, a
  proxy for the message cost of re-entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.trace import Tracer


@dataclass(frozen=True)
class TerminationTimeline:
    """Liveness summary for one transaction in one run."""

    txn: str
    begin_time: float
    first_fault_time: float
    last_decision_time: float
    elections: int
    term_attempts: int

    @property
    def termination_latency(self) -> float:
        """first fault -> last decision; NaN without fault or decision."""
        return self.last_decision_time - self.first_fault_time

    @property
    def ever_decided(self) -> bool:
        """True when at least one participant decided."""
        return not math.isnan(self.last_decision_time)


def termination_timeline(tracer: Tracer, txn: str) -> TerminationTimeline:
    """Extract the liveness timeline of one transaction from a trace."""
    begins = tracer.entries("coord-begin", txn)
    begin_time = begins[0][0] if begins else 0.0
    # two indexed category reads instead of one full-trace scan
    faults = [time for category in ("crash", "partition") for time, _, _ in tracer.entries(category)]
    first_fault = min(faults) if faults else math.nan
    last_decision = max((time for time, _, _ in tracer.entries("decision", txn)), default=math.nan)
    return TerminationTimeline(
        txn=txn,
        begin_time=begin_time,
        first_fault_time=first_fault,
        last_decision_time=last_decision,
        elections=tracer.count("election", txn=txn),
        term_attempts=tracer.count("term-phase1", txn=txn),
    )
