"""Comparing fresh bench runs against committed baselines.

Everything in a payload — counters, spec, schema, row layout — is
deterministic and compared exactly.  Any difference is a hard failure
(:attr:`CaseDiff.errors`): either a genuine regression (a protocol now
sends more messages, a workload commits fewer transactions) or an
intentional change that must be re-baselined with ``bench update`` and
reviewed in the diff of the committed ``BENCH_*.json``.  So is a
committed file that no registered case owns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.bench.suite import BaselineStore, BenchSuite
from repro.common.errors import StoreError

#: cap on per-row mismatch listings so a wholesale drift stays readable.
MAX_ROW_REPORTS = 12


@dataclass
class CaseDiff:
    """The comparison verdict for one case."""

    case: str
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no hard failure was found."""
        return not self.errors

    def describe(self) -> str:
        """Multi-line human-readable report."""
        status = "ok" if self.ok else "DRIFT"
        lines = [f"{self.case}: {status}"]
        lines.extend(f"  error: {e}" for e in self.errors)
        return "\n".join(lines)


def compare_case(baseline: dict[str, Any], fresh: dict[str, Any]) -> CaseDiff:
    """Compare one fresh payload against its committed baseline."""
    name = fresh.get("case", baseline.get("case", "?"))
    diff = CaseDiff(case=name)
    if baseline.get("schema") != fresh.get("schema"):
        diff.errors.append(
            f"schema mismatch: baseline {baseline.get('schema')!r} vs "
            f"fresh {fresh.get('schema')!r} — regenerate with bench update"
        )
        return diff
    if baseline.get("spec") != fresh.get("spec"):
        diff.errors.append(
            "sweep spec changed (grid/runs/seeding/task differ from the "
            "committed baseline) — re-baseline with bench update"
        )
        return diff
    _compare_rows(diff, baseline.get("rows", []), fresh.get("rows", []))
    return diff


def _compare_rows(
    diff: CaseDiff, base_rows: list[dict[str, Any]], fresh_rows: list[dict[str, Any]]
) -> None:
    """Exact comparison of the deterministic counter rows."""
    if len(base_rows) != len(fresh_rows):
        diff.errors.append(
            f"row count changed: baseline {len(base_rows)} vs fresh {len(fresh_rows)}"
        )
        return
    reported = 0
    for index, (base, new) in enumerate(zip(base_rows, fresh_rows)):
        if base == new:
            continue
        if reported >= MAX_ROW_REPORTS:
            diff.errors.append("... further row drift suppressed")
            return
        for key in ("params", "run", "seed"):
            if base.get(key) != new.get(key):
                diff.errors.append(
                    f"row {index}: {key} changed {base.get(key)!r} -> {new.get(key)!r}"
                )
                reported += 1
        base_counters = base.get("counters", {})
        new_counters = new.get("counters", {})
        for counter in sorted(set(base_counters) | set(new_counters)):
            old_value = base_counters.get(counter, "<absent>")
            new_value = new_counters.get(counter, "<absent>")
            if old_value != new_value:
                diff.errors.append(
                    f"row {index} ({_cell_label(base)}): counter {counter!r} "
                    f"drifted {old_value!r} -> {new_value!r}"
                )
                reported += 1


def _cell_label(row: dict[str, Any]) -> str:
    params = row.get("params", {})
    cell = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{cell or 'single cell'}, run {row.get('run')}"


def _compare_to_baseline(name: str, fresh: dict[str, Any], store: BaselineStore) -> CaseDiff:
    """Load one committed baseline and compare a fresh payload to it."""
    try:
        baseline = store.load(name)
    except FileNotFoundError:
        return CaseDiff(
            case=name,
            errors=[
                f"no committed baseline {store.path_for(name)} — "
                "create it with bench update"
            ],
        )
    except StoreError as exc:
        return CaseDiff(case=name, errors=[str(exc)])
    return compare_case(baseline, fresh)


def diff_against_baselines(
    suite: BenchSuite,
    store: BaselineStore,
    names: Iterable[str] | None = None,
    workers: int = 1,
    timeout_s: float | None = None,
) -> list[CaseDiff]:
    """Run the suite fresh and compare each case to its baseline."""
    picked = list(names) if names is not None else suite.names
    return [
        _compare_to_baseline(name, suite.run_case(name, workers=workers, timeout_s=timeout_s), store)
        for name in picked
    ]


def orphan_baselines(suite: BenchSuite, store: BaselineStore) -> list[CaseDiff]:
    """Committed baselines that no registered case owns, each an error.

    A renamed or unregistered case leaves its ``BENCH_<old>.json``
    behind, pinning nothing; a whole-suite ``bench diff`` reports it
    instead of passing over it.
    """
    owned = set(suite.names)
    return [
        CaseDiff(
            case=name,
            errors=[
                f"no registered case owns {store.path_for(name)} — delete it, "
                "or register the case it pins"
            ],
        )
        for name in store.known_cases()
        if name not in owned
    ]


def markdown_summary(results: list[CaseDiff]) -> str:
    """A verdict table of the diff, in GitHub-flavoured markdown.

    The CI bench job appends this to the Actions step summary: one row
    per case with the counter verdict and how many differences (drifted
    counters, a changed spec, a missing baseline) were reported.
    """
    lines = [
        "### Benchmark diff",
        "",
        "| case | counters | drifted |",
        "| --- | --- | ---: |",
    ]
    for result in results:
        verdict = "ok" if result.ok else "**DRIFT**"
        lines.append(f"| `{result.case}` | {verdict} | {len(result.errors)} |")
    drifted = [r.case for r in results if not r.ok]
    lines.append("")
    if drifted:
        lines.append(
            f"**{len(drifted)} case(s) drifted:** " + ", ".join(f"`{c}`" for c in drifted)
        )
    else:
        lines.append(f"{len(results)} case(s) clean — deterministic counters match the baselines.")
    return "\n".join(lines) + "\n"


def diff_stored_payloads(
    fresh_store: BaselineStore,
    baseline_store: BaselineStore,
    names: Iterable[str],
) -> list[CaseDiff]:
    """Compare already-written fresh artifacts against the baselines.

    The CI path: ``bench run --out DIR`` executes the suite once and
    uploads DIR; this diffs those exact payloads, so the gate and the
    uploaded artifacts come from the same run.
    """
    out: list[CaseDiff] = []
    for name in names:
        try:
            fresh = fresh_store.load(name)
        except FileNotFoundError:
            out.append(
                CaseDiff(
                    case=name,
                    errors=[
                        f"no fresh artifact {fresh_store.path_for(name)} — "
                        "run `bench run --out` first"
                    ],
                )
            )
            continue
        except StoreError as exc:
            out.append(CaseDiff(case=name, errors=[str(exc)]))
            continue
        out.append(_compare_to_baseline(name, fresh, baseline_store))
    return out
