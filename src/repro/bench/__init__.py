"""Benchmark-regression subsystem — performance as a committed artifact.

The repo's performance memory lives in ``BENCH_<case>.json`` files at
the repository root.  Each records, for one representative workload
driven through the PR 1 sweep engine:

* **deterministic counters** (messages sent/delivered, WAL records
  forced, commits/aborts, scheduler events) — byte-stable per seed and
  per worker count, compared *exactly* by ``bench diff``;
* **wall-clock timing** with a :func:`~repro.experiments.stats.mean_ci`
  interval — machine noise, compared only within a configurable ratio;
* for the A/B microbenches (``zipf_sampling``, ``suite_warm_pool``,
  ``catalog_memo``, ``sweep_streaming``, ``sweep_resume``), the
  **paired wall-time ratio** of their two live code paths, so the
  trade-off is pinned in-tree and regressions are visible in review.

Workflow::

    python -m repro.bench diff --check      # the CI gate
    python -m repro.bench update            # re-baseline after a change
    python -m repro.bench run --out DIR     # fresh artifacts (CI upload)

See ``src/repro/bench/README.md`` for the baseline-update etiquette.
"""

from repro.bench.cases import default_suite
from repro.bench.diff import (
    DEFAULT_TIME_TOLERANCE,
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
    deterministic_payload,
    encode,
)

__all__ = [
    "BASELINE_PREFIX",
    "DEFAULT_TIME_TOLERANCE",
    "SCHEMA_VERSION",
    "BaselineStore",
    "BenchCase",
    "BenchError",
    "BenchSuite",
    "BenchTimeout",
    "CaseDiff",
    "compare_case",
    "default_suite",
    "deterministic_payload",
    "diff_against_baselines",
    "encode",
    "markdown_summary",
]
