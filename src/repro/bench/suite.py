"""Benchmark cases, the suite registry, and baseline artifacts.

A :class:`BenchCase` names a :class:`~repro.engine.spec.SweepSpec`
whose task functions return their **counters**: a dict that is a pure
function of the seed (messages sent/delivered, WAL records forced,
commits/aborts, events run).  They are the regression gate: any drift
against the committed baseline fails ``bench diff``.  Nothing here
reads a clock — host time is measured by ``benchmarks/e2e`` alone.

:class:`BenchSuite` runs a case's sweep once through the PR 1 sweep
engine (:func:`~repro.engine.executor.run_sweep` — so the whole suite
can fan out over workers, and counters are bit-identical at every
worker count).

:class:`BaselineStore` reads/writes the committed ``BENCH_<case>.json``
files at the repo root — ``{case, rows, schema, spec}``, canonically
encoded so a file is byte-stable (the fixed-point property tests pin
this).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.engine.executor import SweepOutcome, run_sweep
from repro.engine.spec import SweepSpec
from repro.engine.store import jsonable, read_document, write_document

#: bump when the BENCH_<case>.json layout changes shape.
SCHEMA_VERSION = 1

#: committed baseline filename prefix (repo root).
BASELINE_PREFIX = "BENCH_"


class BenchError(RuntimeError):
    """A benchmark case misbehaved (bad task contract, overrun)."""


class BenchTimeout(BenchError):
    """A benchmark case overran its soft timeout."""


class _CaseWatchdog:
    """Soft per-case timeout: dump stacks and interrupt, don't hang CI.

    A hung case would otherwise eat the whole CI job's
    ``timeout-minutes`` and die without diagnostics.  The watchdog arms
    a daemon timer; on expiry it prints every thread's traceback
    (``faulthandler``) to stderr and raises ``KeyboardInterrupt`` in
    the main thread, which :meth:`BenchSuite.run_case` converts into a
    :class:`BenchTimeout`.  Soft by design — a task stuck in
    uninterruptible C code can still wedge, but every pure-Python or
    pool-waiting hang is caught with a usable stack.
    """

    def __init__(self, case: str, timeout_s: float | None) -> None:
        self.case = case
        self.timeout_s = timeout_s
        self.fired = False
        self._timer: Any = None

    def __enter__(self) -> "_CaseWatchdog":
        if self.timeout_s is not None and self.timeout_s > 0:
            import threading

            self._timer = threading.Timer(self.timeout_s, self._fire)
            self._timer.daemon = True
            self._timer.start()
        return self

    def _fire(self) -> None:
        import _thread
        import faulthandler
        import sys

        self.fired = True
        print(
            f"bench: case {self.case!r} exceeded its {self.timeout_s:g}s soft "
            f"timeout; dumping all thread stacks:",
            file=sys.stderr,
            flush=True,
        )
        faulthandler.dump_traceback(file=sys.stderr)
        _thread.interrupt_main()

    def __exit__(self, *exc: Any) -> None:
        if self._timer is not None:
            self._timer.cancel()


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark: a named sweep.

    Args:
        name: case identifier; becomes ``BENCH_<name>.json``.
        spec: the deterministic workload.  Task functions must return
            their counters as a dict.
    """

    name: str
    spec: SweepSpec

    def __post_init__(self) -> None:
        bad = set(self.name) - set("abcdefghijklmnopqrstuvwxyz0123456789_-")
        if bad:
            raise ValueError(f"case name {self.name!r} has unsafe characters {sorted(bad)}")


def deterministic_rows(case: str, outcome: SweepOutcome) -> list[dict[str, Any]]:
    """The counter rows of an executed case sweep (JSON-safe).

    Raises:
        BenchError: a task broke the contract (returned no dict).
    """
    rows = []
    for result in outcome.results:
        if not isinstance(result.value, dict):
            raise BenchError(
                f"case {case!r}: task must return its counters as a dict, "
                f"got {type(result.value).__name__}"
            )
        rows.append(
            {
                "params": jsonable(result.params),
                "run": result.run,
                "seed": result.seed,
                "counters": jsonable(result.value),
            }
        )
    return rows


class BenchSuite:
    """Ordered registry of benchmark cases."""

    def __init__(self, cases: Iterable[BenchCase] = ()) -> None:
        self._cases: dict[str, BenchCase] = {}
        for case in cases:
            self.add(case)

    def add(self, case: BenchCase) -> BenchCase:
        """Register a case (duplicate names are a configuration bug)."""
        if case.name in self._cases:
            raise ValueError(f"duplicate bench case {case.name!r}")
        self._cases[case.name] = case
        return case

    def __iter__(self) -> Iterator[BenchCase]:
        return iter(self._cases.values())

    def __len__(self) -> int:
        return len(self._cases)

    @property
    def names(self) -> list[str]:
        """Registered case names, in registration order."""
        return list(self._cases)

    def case(self, name: str) -> BenchCase:
        """Look up one case by name."""
        try:
            return self._cases[name]
        except KeyError:
            raise KeyError(
                f"unknown bench case {name!r}; registered: {self.names}"
            ) from None

    def run_case(
        self,
        name: str,
        workers: int = 1,
        timeout_s: float | None = None,
    ) -> dict[str, Any]:
        """Execute one case's sweep once; returns its baseline payload.

        ``timeout_s`` arms a soft per-case watchdog: on expiry the case
        fails fast as a :class:`BenchTimeout` with every thread's stack
        dumped to stderr, instead of silently eating the CI job's
        ``timeout-minutes``.

        Raises:
            BenchError: a task did not return its counters as a dict.
            BenchTimeout: the case overran ``timeout_s``.
        """
        case = self.case(name)
        watchdog = _CaseWatchdog(case.name, timeout_s)
        try:
            with watchdog:
                outcome = run_sweep(case.spec, workers=workers)
        except KeyboardInterrupt:
            if not watchdog.fired:
                raise  # a real Ctrl-C, not the watchdog
            raise BenchTimeout(
                f"case {case.name!r} overran its {timeout_s:g}s soft timeout "
                "(thread stacks were dumped to stderr)"
            ) from None
        return {
            "schema": SCHEMA_VERSION,
            "case": case.name,
            "spec": case.spec.summary(),
            "rows": deterministic_rows(case.name, outcome),
        }

    def run(
        self,
        names: Iterable[str] | None = None,
        workers: int = 1,
        timeout_s: float | None = None,
    ) -> dict[str, dict[str, Any]]:
        """Execute several cases (default: all), in registration order.

        ``timeout_s`` applies *per case*, not to the whole run.
        """
        picked = list(names) if names is not None else self.names
        return {name: self.run_case(name, workers=workers, timeout_s=timeout_s) for name in picked}


class BaselineStore:
    """The committed ``BENCH_<case>.json`` files under one root."""

    def __init__(self, root: str | Path = ".") -> None:
        self.root = Path(root)

    def path_for(self, case: str) -> Path:
        """The baseline path of a case."""
        return self.root / f"{BASELINE_PREFIX}{case}.json"

    def save(self, payload: dict[str, Any]) -> Path:
        """Write one case's baseline; returns its path."""
        return write_document(self.path_for(payload["case"]), payload)

    def load(self, case: str) -> dict[str, Any]:
        """Read a committed baseline back.

        Raises:
            FileNotFoundError: no baseline for that case.
            StoreError: everything
                :func:`~repro.engine.store.read_document` rejects — a
                stale baseline must be regenerated with ``bench
                update``, never silently reinterpreted.
        """
        return read_document(self.path_for(case), "bench baseline", SCHEMA_VERSION, "rows")

    def known_cases(self) -> list[str]:
        """Case names with a committed baseline, sorted."""
        return sorted(
            p.name[len(BASELINE_PREFIX) : -len(".json")]
            for p in self.root.glob(f"{BASELINE_PREFIX}*.json")
        )
