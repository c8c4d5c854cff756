"""Persistence and aggregation of sweep artifacts, and the two framings
every artifact of the library goes through.

A :class:`ResultStore` writes one JSON file per sweep under a root
directory.  Artifacts are schema-versioned and canonically encoded
(sorted keys, fixed indentation, dataclasses flattened to dicts), so
the same sweep at any worker count produces byte-identical files —
suitable for committing as ``BENCH_*.json`` trajectories and diffing
across PRs.

The framings, decided here and nowhere else:

* **gzip-JSONL** (:func:`gzip_writer` / :class:`JsonlReader`): one
  :func:`canonical_line` per record, a typed ``header`` first, an
  ``end`` record carrying the line count last, compressed so that equal
  content is equal bytes — sweep row streams (:mod:`repro.engine.sink`)
  and replay traces (:mod:`repro.replay.artifact`).
* **canonical documents** (:func:`write_document` /
  :func:`read_document`): one indented, key-sorted JSON object with a
  ``schema`` field — :class:`ResultStore` artifacts and ``BENCH_*.json``
  baselines.

A result row's JSON shape is defined once, by
:meth:`ResultStore.row_payload`, and encoded by :func:`canonical_line`.
That pair is the reference: the eager artifact body goes through it,
and so does a row read back from a stream.  A sweep's live rows take a
cheaper route to the same bytes — :func:`repro.engine.aggregate.encode_fields`
encodes a row's ``value`` once and splices its digest input and its
artifact line around a formatted header, with the cell's ``params``
encoded once per cell — and the engine property tests pin the two
routes equal.

Whatever a read trips over — an unreadable file, damaged compression,
corrupt JSON, valid JSON that is not an object, a foreign or stale
header, a missing or miscounting ``end`` record — is a ``StoreError``
naming the path and, inside a stream, the line and byte offset.

The module-level helpers (:func:`mean_of`, :func:`fraction_of`,
:func:`group_by`) operate on plain result rows —
either live :class:`~repro.engine.spec.RunResult` objects or the dicts
a loaded artifact yields — so aggregation code is the same on both
sides of a save/load round trip.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import zlib
from collections.abc import Mapping
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.common.errors import StoreError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.executor import SweepOutcome

#: bump when the artifact layout changes shape.
SCHEMA_VERSION = 1


#: one encoder for every canonical line: ``json.dumps`` with options
#: builds a new one per call, a third of the cost of encoding a small row.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_line(value: Any) -> str:
    """One-line canonical JSON (sorted keys, no whitespace).

    The byte-stable compact form of every JSONL record and row digest.
    """
    return _CANONICAL.encode(value)


def canonical_document(payload: dict[str, Any]) -> str:
    """Canonical document encoding (sorted keys, fixed indentation):
    byte-stable across runs, diffable across commits."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_document(path: str | Path, payload: dict[str, Any]) -> Path:
    """Write ``payload`` canonically at ``path`` (parents created);
    returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_document(payload))
    return path


def read_document(
    path: str | Path, what: str, schema: int, body: str, kind: str | None = None
) -> dict[str, Any]:
    """Read a canonical document back, checked.

    Raises:
        FileNotFoundError: no file at ``path``.
        StoreError: unreadable or corrupt JSON, not an object, another
            ``kind`` tag, another ``schema`` (a stale payload must be
            regenerated, not reinterpreted under the current layout),
            or no list under ``body``.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:  # bad bytes, bad JSON
        raise StoreError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise StoreError(f"{path} is not a {what}")
    if payload.get("schema") != schema:
        raise StoreError(
            f"{what} {path} has schema {payload.get('schema')!r}, "
            f"this library reads schema {schema}; regenerate it"
        )
    if not isinstance(payload.get(body), list):
        raise StoreError(f"{what} {path} has a malformed {body} record: not a list")
    return payload


def gzip_writer(fileobj: IO[bytes], compresslevel: int) -> gzip.GzipFile:
    """The write side of the gzip-JSONL framing, over an open binary file.

    ``filename=""`` suppresses the FNAME header (``GzipFile`` would lift
    the path off the fileobj) and ``mtime=0`` pins the timestamp: the
    bytes then depend only on what is written — not on the clock, the
    output path, or how the stream was cut into writes (zlib's output is
    a pure function of its input when nothing flushes mid-stream).
    """
    return gzip.GzipFile(
        fileobj=fileobj, mode="wb", compresslevel=compresslevel, mtime=0, filename=""
    )


#: what reading a damaged or truncated gzip text stream raises.
DAMAGE = (OSError, EOFError, zlib.error, UnicodeDecodeError)

_NOT_AN_OBJECT = "is not a JSON object (valid JSON, but not an object)"


def check_header(
    header: Any, what: str, kind: str, schema: int, fail: Callable[[str], StoreError]
) -> dict[str, Any]:
    """The one header check: an object of ``type`` header, this ``kind``,
    this ``schema`` (``fail(problem)`` builds the error to raise)."""
    if not isinstance(header, dict):
        raise fail(f"{_NOT_AN_OBJECT}, no {what} header (bad header)")
    if header.get("type") != "header" or header.get("kind") != kind:
        raise fail(f"is not a {what} header (bad header)")
    if header.get("schema") != schema:
        raise fail(
            f"is a header of schema {header.get('schema')!r}, this library "
            f"reads {what} schema {schema}; regenerate it"
        )
    return header


def check_end(end: Any, found: int, fail: Callable[[str], StoreError]) -> None:
    """The one truncation tripwire: ``end`` must be the end record and
    count the ``found`` lines before it."""
    if not isinstance(end, dict) or end.get("type") != "end" or end.get("records") != found:
        raise fail(
            f"is an inconsistent end record for the {found} lines before it "
            "(a truncated or spliced artifact)"
        )


class JsonlReader:
    """The read side of the gzip-JSONL framing.

    Opening checks the header and keeps it as ``header``; ``records``
    then yields every record up to the ``end`` record, whose count it
    checks — a damaged stream, a line that is not a JSON object, a
    miscounting or missing ``end`` record is a ``StoreError``.  ``line``
    and ``offset`` address the record last read: its 1-based number and
    the offset of its first byte in the *decompressed* stream — the
    address a reader can seek to after gunzipping, and the only stable
    one (compressed offsets shift with level).
    """

    def __init__(self, path: str | Path, what: str, kind: str, schema: int) -> None:
        self.path, self.what, self._expect = path, what, (kind, schema)
        self.line = self.offset = self._next = 0
        try:
            self._file = gzip.open(path, "rt", encoding="utf-8")
        except OSError as exc:
            raise StoreError(f"cannot read {what} {path}: {exc}") from None
        self.records = self._read()
        try:
            self.header = next(self.records)
        except BaseException:
            self._file.close()
            raise

    def __enter__(self) -> "JsonlReader":
        return self

    def __exit__(self, *exc: Any) -> None:
        self._file.close()

    def fail(self, problem: str) -> StoreError:
        """The error for the record last read, to be raised."""
        return StoreError(
            f"{self.what} {self.path}: line {self.line} {problem}, "
            f"at byte offset {self.offset} (decompressed)"
        )

    def lines(self) -> Iterator[str]:
        """The non-blank lines not yet read, raw; a damaged stream
        raises one of :data:`DAMAGE` from here."""
        for text in self._file:
            self.line += 1
            self.offset, self._next = self._next, self._next + len(text.encode("utf-8"))
            if text.strip():
                yield text

    def _read(self) -> Iterator[dict[str, Any]]:
        """The header, then ``records``."""
        count = 0
        try:
            for text in self.lines():
                try:
                    record = json.loads(text)
                except ValueError as exc:
                    raise self.fail(f"is corrupt ({exc})") from None
                if count == 0:
                    check_header(record, self.what, *self._expect, self.fail)
                elif not isinstance(record, dict):
                    raise self.fail(_NOT_AN_OBJECT)
                elif record.get("type") == "end":
                    check_end(record, count, self.fail)
                    for _ in self.lines():  # reading on to the end checks the CRC
                        raise self.fail("follows the end record")
                    return
                count += 1
                yield record
        except DAMAGE as exc:
            stage = f"damaged past line {self.line}" if count else "no intact header"
            raise StoreError(f"cannot read {self.what} {self.path}: {stage}: {exc}") from None
        if count == 0:
            raise StoreError(f"empty {self.what} {self.path} (no intact header)")
        raise StoreError(
            f"{self.what} {self.path} is truncated (no end record; clean prefix "
            f"ends at byte offset {self._next} decompressed)"
        )


#: the exact types :func:`jsonable` passes through untouched.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def jsonable(value: Any) -> Any:
    """Recursively convert a task's return value to JSON-safe data.

    Dataclasses flatten to dicts, tuples/sets to lists (sets sorted for
    determinism), mapping keys to strings; everything else must
    already be JSON-encodable.  Exact scalar types are tested first, by
    one set lookup: they are most of what a row holds.  A flat ``dict``
    of ``str`` keys and exact scalar values — a typical row value — is
    copied as is, without the recursive walk.

    Raises:
        TypeError: a value it cannot encode, or two keys of one mapping
            that stringify alike (``1`` and ``"1"``): one would
            silently overwrite the other.
    """
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str or type(item) not in _SCALARS:
                break
        else:
            return dict(value)
    if isinstance(value, (str, int, float)):  # a subclass of one: an IntEnum, say
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        out = {str(k): jsonable(v) for k, v in value.items()}
        if len(out) != len(value):
            raise_key_collision(value)
        return out
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    raise TypeError(f"cannot encode {type(value).__name__} into a sweep artifact")


def raise_key_collision(mapping: Mapping[Any, Any], where: str = "a sweep artifact") -> None:
    """Raise ``TypeError`` naming the first two keys of ``mapping`` that
    stringify alike, as keys in ``where``."""
    seen: dict[str, Any] = {}
    for key in mapping:
        first = seen.setdefault(str(key), key)
        if first is not key:
            raise TypeError(f"mapping keys {first!r} and {key!r} both encode as {str(key)!r} in {where}")


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
        return write_document(self.path_for(outcome.name), self.payload(outcome))

    def load(self, sweep_name: str) -> dict[str, Any]:
        """Read an artifact back as plain data.

        Raises:
            FileNotFoundError: no artifact for that sweep.
            StoreError: everything :func:`read_document` rejects.
        """
        return read_document(self.path_for(sweep_name), "sweep artifact", SCHEMA_VERSION, "results")

    def results(self, sweep_name: str) -> list[dict[str, Any]]:
        """The result rows of a stored sweep."""
        return self.load(sweep_name)["results"]

    @staticmethod
    def row_payload(result: Any) -> dict[str, Any]:
        """One result's canonical artifact row.

        The single definition of a row's JSON shape — the eager
        artifact body encodes through here, and
        :func:`~repro.engine.aggregate.encode_fields`, which streams rows
        and digests them, must give ``canonical_line`` of this row byte
        for byte: that is what makes checksums comparable across
        backends.
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
        """The artifact dict for an executed sweep."""
        return {
            "schema": SCHEMA_VERSION,
            "sweep": outcome.name,
            "spec": outcome.spec,
            "results": [ResultStore.row_payload(r) for r in outcome.results],
        }

    #: canonical artifact encoding (byte-stable across runs).
    encode = staticmethod(canonical_document)


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


def mean_of(rows: Iterable[Any], pick: Callable[[Any], float] | None = None) -> float:
    """Mean of (picked) values; 0.0 on empty input."""
    vals = [_get(row, "value") for row in rows]
    if pick is not None:
        vals = [pick(v) for v in vals]
    return sum(vals) / len(vals) if vals else 0.0


def fraction_of(rows: Iterable[Any], pred: Callable[[Any], bool]) -> float:
    """Fraction of rows' values satisfying ``pred``; 0.0 on empty input."""
    rows = list(rows)
    return sum(1 for row in rows if pred(_get(row, "value"))) / len(rows) if rows else 0.0
