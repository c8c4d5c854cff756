"""Persistence and aggregation of sweep artifacts.

A :class:`ResultStore` writes one JSON file per sweep under a root
directory.  Artifacts are schema-versioned and canonically encoded
(sorted keys, fixed indentation, dataclasses flattened to dicts), so
the same sweep at any worker count produces byte-identical files —
suitable for committing as ``BENCH_*.json`` trajectories and diffing
across PRs.

The module-level helpers (:func:`mean_of`, :func:`fraction_of`,
:func:`count_where`, :func:`group_by`) operate on plain result rows —
either live :class:`~repro.engine.spec.RunResult` objects or the dicts
a loaded artifact yields — so aggregation code is the same on both
sides of a save/load round trip.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.common.errors import StoreError
from repro.engine.shared import SharedPayload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.executor import SweepOutcome

#: bump when the artifact layout changes shape.
SCHEMA_VERSION = 1


#: one encoder for every canonical line: ``json.dumps`` with options
#: builds a new one per call, a third of the cost of encoding a small row.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_line(value: Any) -> str:
    """One-line canonical JSON (sorted keys, no whitespace).

    The byte-stable compact form shared by streamed JSONL rows, row
    digests and the replay artifacts — same dialect as
    ``replay/artifact.py``.
    """
    return _CANONICAL.encode(value)


def jsonable(value: Any) -> Any:
    """Recursively convert a task's return value to JSON-safe data.

    Dataclasses flatten to dicts, tuples/sets to lists (sets sorted for
    determinism), shared-payload handles to their content-free
    ``describe()`` form; everything else must already be
    JSON-encodable.  Leaf scalars are tested first: they are most of
    what a row holds.
    """
    if value is None or isinstance(value, (str, int, float)):  # bool is an int
        return value
    if isinstance(value, SharedPayload):
        return value.describe()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    raise TypeError(f"cannot encode {type(value).__name__} into a sweep artifact")


class ResultStore:
    """Per-sweep JSON artifacts under one root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, sweep_name: str) -> Path:
        """The artifact path of a sweep."""
        safe = "".join(c if (c.isalnum() or c in "-_.") else "-" for c in sweep_name)
        return self.root / f"{safe}.json"

    def save(self, outcome: SweepOutcome) -> Path:
        """Write an executed sweep's artifact; returns its path."""
        payload = self.payload(outcome)
        path = self.path_for(outcome.name)
        self.root.mkdir(parents=True, exist_ok=True)
        path.write_text(self.encode(payload))
        return path

    def load(self, sweep_name: str) -> dict[str, Any]:
        """Read an artifact back as plain data.

        Raises:
            FileNotFoundError: no artifact for that sweep.
            StoreError: the artifact's schema version does not match
                this library's — a stale payload must be regenerated,
                not silently reinterpreted under the current layout.
        """
        payload = json.loads(self.path_for(sweep_name).read_text())
        found = payload.get("schema")
        if found != SCHEMA_VERSION:
            raise StoreError(
                f"artifact {sweep_name!r} has schema {found!r}, "
                f"this library reads schema {SCHEMA_VERSION}; regenerate it "
                "with the current library instead of reusing stale results"
            )
        return payload

    def results(self, sweep_name: str) -> list[dict[str, Any]]:
        """The result rows of a stored sweep."""
        return self.load(sweep_name)["results"]

    @staticmethod
    def row_payload(result: Any) -> dict[str, Any]:
        """One result's canonical artifact row.

        The single definition of a row's JSON shape — the eager
        artifact body, the streamed JSONL rows and the row digests all
        encode through here, which is what makes their checksums
        comparable across backends.
        """
        return {
            "index": result.index,
            "params": jsonable(result.params),
            "run": result.run,
            "seed": result.seed,
            "value": jsonable(result.value),
        }

    @staticmethod
    def payload(outcome: SweepOutcome) -> dict[str, Any]:
        """The artifact dict for an executed sweep.

        The ``resilience`` block (retry/quarantine/resume provenance)
        appears only when the sweep was given ``on_error=`` or
        ``resume_from=``, so fault-free artifacts keep their bytes.
        """
        out = {
            "schema": SCHEMA_VERSION,
            "sweep": outcome.name,
            "spec": outcome.spec,
            "results": [ResultStore.row_payload(r) for r in outcome.results],
        }
        resilience = getattr(outcome, "resilience", None)
        if resilience is not None:
            out["resilience"] = jsonable(resilience)
        return out

    @staticmethod
    def encode(payload: dict[str, Any]) -> str:
        """Canonical artifact encoding (byte-stable across runs)."""
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _get(row: Any, field: str) -> Any:
    """Field access that works on RunResults, dataclasses and dicts."""
    if isinstance(row, Mapping):
        return row[field]
    return getattr(row, field)


def group_by(rows: Iterable[Any], param: str) -> dict[Any, list[Any]]:
    """Group result rows by one cell parameter, insertion-ordered."""
    groups: dict[Any, list[Any]] = {}
    for row in rows:
        groups.setdefault(_get(row, "params")[param], []).append(row)
    return groups


def values_of(rows: Iterable[Any], pick: Callable[[Any], Any] | None = None) -> list[Any]:
    """The ``value`` of each row, optionally projected through ``pick``."""
    out = [_get(row, "value") for row in rows]
    return [pick(v) for v in out] if pick is not None else out


def mean_of(rows: Iterable[Any], pick: Callable[[Any], float] | None = None) -> float:
    """Mean of (picked) values; 0.0 on empty input."""
    vals = values_of(rows, pick)
    return sum(vals) / len(vals) if vals else 0.0


def count_where(rows: Iterable[Any], pred: Callable[[Any], bool]) -> int:
    """How many rows' values satisfy ``pred``."""
    return sum(1 for v in values_of(rows) if pred(v))


def fraction_of(rows: Iterable[Any], pred: Callable[[Any], bool]) -> float:
    """Fraction of rows' values satisfying ``pred``; 0.0 on empty input."""
    rows = list(rows)
    return count_where(rows, pred) / len(rows) if rows else 0.0
