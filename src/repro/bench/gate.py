"""Running the registered cases and comparing them with their baselines.

A case's payload is ``{case, rows, schema, spec}``: ``spec`` is the
sweep's summary, ``rows`` one ``{params, run, seed, counters}`` per cell
and run.  Every byte of it is a deterministic counter, so a fresh payload
either encodes to exactly the committed ``BENCH_<case>.json`` or it has
drifted — :func:`compare` names every difference, wherever it is.
Either the simulator regressed, or its behaviour changed on purpose and
:func:`update` rewrites the baseline for review.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.bench.cases import CASES
from repro.common.errors import StoreError
from repro.engine.executor import run_sweep
from repro.engine.store import jsonable, read_document, write_document

#: bump when the BENCH_<case>.json layout changes shape.
SCHEMA_VERSION = 1

#: committed baseline filename prefix (repo root).
BASELINE_PREFIX = "BENCH_"

#: cap on listed differences, so a wholesale drift stays readable.
MAX_REPORTS = 12


class BenchError(RuntimeError):
    """A trial broke the contract: it returned no counters dict."""


def run_case(name: str, workers: int = 1) -> dict[str, Any]:
    """Run one registered case's sweep once; returns its payload.

    The payload is the same at every worker count.

    Raises:
        BenchError: a trial did not return its counters as a dict.
    """
    spec = CASES[name]
    rows = []
    for result in run_sweep(spec, workers=workers).results:
        if not isinstance(result.value, dict):
            raise BenchError(
                f"case {name!r}: a trial must return its counters as a dict, "
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
    return {"schema": SCHEMA_VERSION, "case": name, "spec": spec.summary(), "rows": rows}


def load(path: str | Path) -> dict[str, Any]:
    """Read one committed baseline.

    Raises:
        FileNotFoundError: no file at ``path``.
        StoreError: everything :func:`~repro.engine.store.read_document`
            rejects — a stale baseline is regenerated, never reinterpreted.
    """
    return read_document(path, "bench baseline", SCHEMA_VERSION, "rows")


def compare(baseline: dict[str, Any], fresh: dict[str, Any]) -> list[str]:
    """Every difference between a baseline and a fresh payload, each named
    by its path (``rows[3].counters.commit: 5 -> 6``); empty exactly when
    the two encode to the same bytes."""
    found: list[str] = []
    _differences("", baseline, fresh, found)
    if len(found) > MAX_REPORTS:
        found[MAX_REPORTS:] = [f"... and {len(found) - MAX_REPORTS} more"]
    return found


def _differences(path: str, old: Any, new: Any, found: list[str]) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            where = f"{path}.{key}" if path else key
            if key not in new:
                found.append(f"{where}: removed (was {_brief(old[key])})")
            elif key not in old:
                found.append(f"{where}: added {_brief(new[key])}")
            else:
                _differences(where, old[key], new[key], found)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            found.append(f"{path}: {len(old)} entries -> {len(new)}")
            return
        for index, (left, right) in enumerate(zip(old, new)):
            _differences(f"{path}[{index}]", left, right, found)
    elif json.dumps(old, sort_keys=True) != json.dumps(new, sort_keys=True):
        found.append(f"{path or 'payload'}: {_brief(old)} -> {_brief(new)}")


def _brief(value: Any) -> str:
    """``value``'s canonical JSON, cut to 60 characters."""
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 60 else text[:57] + "..."


def _path(root: str | Path, name: str) -> Path:
    return Path(root) / f"{BASELINE_PREFIX}{name}.json"


def check(root: str | Path, names: Iterable[str] | None = None) -> dict[str, list[str]]:
    """Run cases (default: all, in registry order) and compare each with
    its baseline under ``root``; returns each case's differences, empty
    when it is clean.

    A missing or unreadable baseline is a difference; the case is then
    not run.  Without ``names``, so is a committed ``BENCH_<x>.json`` that
    no registered case owns: a renamed case leaves one behind, pinning
    nothing.
    """
    verdicts: dict[str, list[str]] = {}
    for name in CASES if names is None else names:
        path = _path(root, name)
        try:
            baseline = load(path)
        except FileNotFoundError:
            verdicts[name] = [f"no committed baseline {path}; create it with bench update"]
            continue
        except StoreError as exc:
            verdicts[name] = [str(exc)]
            continue
        verdicts[name] = compare(baseline, run_case(name))
    if names is None:
        for path in sorted(Path(root).glob(f"{BASELINE_PREFIX}*.json")):
            name = path.name[len(BASELINE_PREFIX) : -len(".json")]
            if name not in CASES:
                verdicts[name] = [
                    f"no registered case owns {path}; delete it, or register the case it pins"
                ]
    return verdicts


def update(root: str | Path, names: Iterable[str] | None = None) -> list[Path]:
    """Run cases (default: all) and rewrite their baselines under
    ``root``; returns the paths written."""
    picked = CASES if names is None else names
    return [write_document(_path(root, name), run_case(name)) for name in picked]
