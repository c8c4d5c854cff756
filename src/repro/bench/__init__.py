"""Benchmark-regression subsystem — behaviour as a committed artifact.

The repo's behaviour memory lives in ``BENCH_<case>.json`` files at the
repository root.  Each records, for one representative workload driven
through the PR 1 sweep engine, its **deterministic counters** (messages
sent/delivered, WAL records forced, commits/aborts, scheduler events)
— byte-stable per seed and per worker count, compared *exactly* by
``bench diff``.  Every case is a whole commit and termination run.
Nothing here reads a clock or needs a third-party package: wall time
is ``benchmarks/e2e``'s.

Workflow::

    python -m repro.bench diff --check      # the CI gate
    python -m repro.bench update            # re-baseline after a change
    python -m repro.bench run --out DIR     # fresh artifacts (CI upload)

See ``src/repro/bench/README.md`` for the baseline-update etiquette.
"""

from repro.bench.cases import default_suite
from repro.bench.diff import (
    CaseDiff,
    compare_case,
    diff_against_baselines,
    markdown_summary,
)
from repro.bench.suite import (
    BASELINE_PREFIX,
    SCHEMA_VERSION,
    BaselineStore,
    BenchCase,
    BenchError,
    BenchSuite,
    BenchTimeout,
)
from repro.engine.store import canonical_document as encode  # the baseline encoding

__all__ = [
    "BASELINE_PREFIX",
    "SCHEMA_VERSION",
    "BaselineStore",
    "BenchCase",
    "BenchError",
    "BenchSuite",
    "BenchTimeout",
    "CaseDiff",
    "compare_case",
    "default_suite",
    "diff_against_baselines",
    "encode",
    "markdown_summary",
]
