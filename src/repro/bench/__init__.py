"""Benchmark-regression subsystem — behaviour as a committed artifact.

The repo's behaviour memory lives in ``BENCH_<case>.json`` files at the
repository root.  Each records, for one registered case of
:data:`~repro.bench.cases.CASES` driven through the sweep engine, its
**deterministic counters** (messages sent/delivered, WAL records forced,
commits/aborts, scheduler events) — byte-stable per seed and per worker
count, compared *exactly* by :func:`check`.  Every case is a whole
commit and termination run.  Nothing here reads a clock or needs a
third-party package: wall time is ``benchmarks/e2e``'s.

Workflow::

    python -m repro.bench diff --check      # the gate (tier-1 runs it too)
    python -m repro.bench update            # re-baseline after a change

See ``src/repro/bench/README.md`` for the baseline-update etiquette.
"""

from repro.bench.cases import CASES
from repro.bench.gate import (
    BASELINE_PREFIX,
    SCHEMA_VERSION,
    BenchError,
    check,
    compare,
    load,
    run_case,
    update,
)
from repro.engine.store import canonical_document as encode  # the baseline encoding

__all__ = [
    "BASELINE_PREFIX",
    "CASES",
    "SCHEMA_VERSION",
    "BenchError",
    "check",
    "compare",
    "encode",
    "load",
    "run_case",
    "update",
]
