"""Recorded-trace artifacts: schema-versioned, byte-stable, compressed.

A :class:`RecordedTrace` is the full causal input of one driver run —
the workload spec, the replica catalog it compiled against, every
generated client operation with its arrival time, and the fault
schedule that actually fired — plus the run's deterministic counters
and result summary for fixed-point checking.  Replaying the trace
verbatim under the recorded configuration reproduces those counters
byte-for-byte (the cluster's own RNG is seeded from the recorded seed;
the driver RNG fed *only* the recorded draws).

On disk a trace is the library's one gzip-JSONL framing
(:mod:`repro.engine.store`) under the ``kind`` tag :data:`TRACE_KIND`:
one canonical JSON object per line, compressed with ``mtime=0`` so
identical traces are identical *bytes* and can be committed like any
other baseline artifact.  The final line is an ``end`` record carrying
the line count, so truncation is detected on load rather than surfacing
as a half-replayed run.  A ``failure`` record is a fault action in the
wire form its class declares (:func:`repro.sim.failures.encode_action`).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.common.errors import ReproError, StoreError
from repro.engine.store import JsonlReader, canonical_line, check_end, check_header, gzip_writer
from repro.experiments import SCENARIOS
from repro.replication.catalog import ItemConfig, ReplicaCatalog
from repro.sim.failures import FailureAction, FailurePlan, decode_action, encode_action
from repro.workload.spec import WorkloadOp, WorkloadSpec

#: artifact schema version; bump on any incompatible layout change.
TRACE_SCHEMA = 1

#: the header ``kind`` tag distinguishing traces from other artifacts.
TRACE_KIND = "repro-replay-trace"

#: the spec record's ``sampler`` value: every artifact carries it, and
#: the cumulative scan is the only Zipf pick there is.  Written as a
#: constant so the bytes of every artifact stay what they were.
TRACE_SAMPLER = "scan"

#: drivers a trace can be recorded from (and replayed through): the
#: scenario registry's names, so loading accepts exactly what
#: :func:`~repro.replay.recorder.record` emits.
TRACE_DRIVERS = tuple(SCENARIOS)

#: what building a value from a malformed record raises (``StoreError``
#: and an invalid placement's ``ConfigurationError`` included).
_MALFORMED = (KeyError, TypeError, ValueError, ReproError)


# ----------------------------------------------------------------------
# catalog codec
# ----------------------------------------------------------------------

def encode_catalog(catalog: ReplicaCatalog) -> dict[str, Any]:
    """Placement + quorums as a JSON-able dict (copies as pair lists,
    so site ids stay integers through the round trip).  An item carries
    a ``primary`` only when one was set explicitly, so a catalog with
    the default primaries encodes as it always has."""
    items = []
    for name in catalog.item_names:
        config = catalog.item(name)
        item = {
            "name": name,
            "copies": [[site, votes] for site, votes in sorted(config.copies.items())],
            "r": config.read_quorum,
            "w": config.write_quorum,
        }
        if config.primary is not None:
            item["primary"] = config.primary
        items.append(item)
    return {"items": items}


def decode_catalog(payload: dict[str, Any]) -> ReplicaCatalog:
    """Inverse of :func:`encode_catalog` (re-validates every item)."""
    try:
        return ReplicaCatalog(
            ItemConfig(
                name=item["name"],
                copies={int(site): votes for site, votes in item["copies"]},
                read_quorum=item["r"],
                write_quorum=item["w"],
                primary=item.get("primary"),
            )
            for item in payload["items"]
        )
    except _MALFORMED as exc:
        raise StoreError(f"malformed catalog record: {exc}") from None


# ----------------------------------------------------------------------
# the trace
# ----------------------------------------------------------------------

@dataclass
class RecordedTrace:
    """One driver run, harvested in full.

    Attributes:
        driver: the scenario that produced the run (:data:`TRACE_DRIVERS`).
        protocol: the commit protocol the run used.
        seed: the run seed (drives the cluster's delay/loss RNG).
        spec: the workload spec the stream was generated from.
        catalog: the replica catalog the run compiled against.
        params: the scenario constructor's keywords, JSON-encoded —
            ``SCENARIOS[driver](**params)`` rebuilds the scenario (every
            keyword has a default, so a header that carries only a few
            of them, as older recordings do, still loads).
        arrivals: virtual arrival time per scheduled submission
            (closed-loop drivers; empty for open-loop services).
        gaps: inter-arrival gaps drawn by an open-loop service, one per
            offered arrival (empty for closed-loop drivers).
        ops: the generated :class:`~repro.workload.spec.WorkloadOp`
            stream, aligned 1:1 with ``arrivals`` (closed) or ``gaps``
            (open).
        updates: direct-update draws ``(origin, writes)`` (the WAN
            storm's single transaction, E24's whole stream).
        actions: the fault schedule, in the order it actually fired.
        counters: the run's deterministic cluster counters (messages,
            events, WAL forces) — the fixed-point contract.
        result: JSON-able summary of the driver's result object.
    """

    driver: str
    protocol: str
    seed: int
    spec: WorkloadSpec
    catalog: ReplicaCatalog
    params: dict[str, Any] = field(default_factory=dict)
    arrivals: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    ops: list[WorkloadOp] = field(default_factory=list)
    updates: list[tuple[int, dict[str, Any]]] = field(default_factory=list)
    actions: list[FailureAction] = field(default_factory=list)
    counters: dict[str, Any] = field(default_factory=dict)
    result: dict[str, Any] = field(default_factory=dict)

    def plan(self) -> FailurePlan:
        """The recorded fault schedule as a fresh, re-armable plan."""
        return FailurePlan(list(self.actions))

    def workload(self):
        """A fresh :class:`~repro.replay.RecordedWorkload` over this
        trace (one per replay run — the stream cursor is stateful)."""
        from repro.replay.workload import RecordedWorkload

        return RecordedWorkload.from_trace(self)

    # ------------------------------------------------------------------
    # line codec
    # ------------------------------------------------------------------

    def to_lines(self) -> list[dict[str, Any]]:
        """The artifact's JSONL records, in canonical order."""
        spec = self.spec
        # hand-enumerated (not dataclass-reflected) so new spec fields
        # never change the bytes of artifacts that do not use them; the
        # open-loop keys are conditional for the same reason.
        spec_record = {
            "n_txns": spec.n_txns,
            "popularity": spec.popularity,
            "zipf_s": spec.zipf_s,
            "read_fraction": spec.read_fraction,
            "footprint": list(spec.footprint),
            "arrival": spec.arrival,
            "mean_spacing": spec.mean_spacing,
            "start": spec.start,
            "cross_region": spec.cross_region,
            "value_pool": spec.value_pool,
            "sampler": TRACE_SAMPLER,
        }
        if spec.arrival == "open":
            spec_record["rate"] = spec.rate
            spec_record["duration"] = spec.duration
            if spec.rate_schedule is not None:
                spec_record["rate_schedule"] = [list(step) for step in spec.rate_schedule]
        lines: list[dict[str, Any]] = [
            {
                "type": "header",
                "schema": TRACE_SCHEMA,
                "kind": TRACE_KIND,
                "driver": self.driver,
                "protocol": self.protocol,
                "seed": self.seed,
                "params": dict(self.params),
                "spec": spec_record,
            },
            {"type": "catalog", **encode_catalog(self.catalog)},
            {"type": "arrivals", "times": list(self.arrivals)},
        ]
        if self.gaps:
            lines.append({"type": "gaps", "values": list(self.gaps)})
        for op in self.ops:
            lines.append(
                {"type": "op", "kind": op.kind, "items": list(op.items), "origin": op.origin}
            )
        for origin, writes in self.updates:
            lines.append({"type": "update", "origin": origin, "writes": dict(writes)})
        for action in self.actions:
            lines.append({"type": "failure", **encode_action(action)})
        lines.append({"type": "counters", "counters": dict(self.counters)})
        lines.append({"type": "result", "result": dict(self.result)})
        lines.append({"type": "end", "records": len(lines)})
        return lines

    @classmethod
    def from_lines(cls, lines: list[dict[str, Any]]) -> "RecordedTrace":
        """Rebuild a trace from parsed JSONL records.

        Raises:
            StoreError: on a missing/foreign header, schema mismatch,
                truncation (bad or absent ``end`` record), or any
                malformed record.
        """
        what = "trace artifact"
        if not lines:
            raise StoreError(f"empty {what}")

        def fail_at(number: int) -> Callable[[str], StoreError]:
            return lambda problem: StoreError(f"{what}: line {number} {problem}")

        header = check_header(lines[0], what, TRACE_KIND, TRACE_SCHEMA, fail_at(1))
        check_end(lines[-1], len(lines) - 1, fail_at(len(lines)))
        return cls._build(header, enumerate(lines[1:-1], 2), what)

    @classmethod
    def _build(
        cls, header: dict[str, Any], body: Iterable[tuple[int, dict[str, Any]]], source: str
    ) -> "RecordedTrace":
        """A trace from a checked header and the numbered records
        between it and the ``end`` record; ``source`` names the
        artifact in errors."""
        if header.get("driver") not in TRACE_DRIVERS:
            raise StoreError(f"{source}: unknown trace driver {header.get('driver')!r}")
        try:
            spec_fields = dict(header["spec"])
            sampler = spec_fields.pop("sampler", TRACE_SAMPLER)
            if sampler != TRACE_SAMPLER:
                raise StoreError(
                    f"spec field 'sampler' is {sampler!r}; only {TRACE_SAMPLER!r} is supported"
                )
            spec_fields["footprint"] = tuple(spec_fields["footprint"])
            if spec_fields.get("rate_schedule") is not None:
                spec_fields["rate_schedule"] = tuple(
                    (offset, rate) for offset, rate in spec_fields["rate_schedule"]
                )
            trace = cls(
                driver=header["driver"],
                protocol=header["protocol"],
                seed=header["seed"],
                spec=WorkloadSpec(**spec_fields),
                catalog=ReplicaCatalog(()),  # placeholder until the catalog record
                params=dict(header.get("params", {})),
            )
        except _MALFORMED as exc:
            raise StoreError(f"{source}: malformed trace header: {exc}") from None
        saw_catalog = False
        for number, line in body:
            try:
                kind = line["type"]
                if kind == "catalog":
                    trace.catalog = decode_catalog(line)
                    saw_catalog = True
                elif kind == "arrivals":
                    trace.arrivals = [float(t) for t in line["times"]]
                elif kind == "gaps":
                    trace.gaps = [float(g) for g in line["values"]]
                elif kind == "op":
                    trace.ops.append(
                        WorkloadOp(line["kind"], tuple(line["items"]), line["origin"])
                    )
                elif kind == "update":
                    trace.updates.append((line["origin"], dict(line["writes"])))
                elif kind == "failure":
                    trace.actions.append(
                        decode_action({k: v for k, v in line.items() if k != "type"})
                    )
                elif kind == "counters":
                    trace.counters = dict(line["counters"])
                elif kind == "result":
                    trace.result = dict(line["result"])
                else:
                    raise StoreError(f"unknown trace record type {kind!r}")
            except _MALFORMED as exc:
                raise StoreError(
                    f"{source}: line {number} is a malformed trace record: {exc}"
                ) from None
        if not saw_catalog:
            raise StoreError(f"{source} has no catalog record")
        return trace

    # ------------------------------------------------------------------
    # byte-stable file round trip
    # ------------------------------------------------------------------

    def encode(self) -> bytes:
        """The compressed artifact bytes (a pure function of content)."""
        buffer = io.BytesIO()
        with gzip_writer(buffer, compresslevel=9) as zf:
            zf.write("".join(canonical_line(line) + "\n" for line in self.to_lines()).encode("utf-8"))
        return buffer.getvalue()

    def save(self, path: str) -> str:
        """Write the artifact to ``path``; returns the path."""
        with open(path, "wb") as f:
            f.write(self.encode())
        return path

    @classmethod
    def load(cls, path: str) -> "RecordedTrace":
        """Load and validate an artifact.

        Raises:
            StoreError: on unreadable, corrupt, truncated, or
                schema-incompatible artifacts; a malformed line is
                named by path and number.
        """
        with JsonlReader(path, "trace artifact", TRACE_KIND, TRACE_SCHEMA) as reader:
            numbered = ((reader.line, record) for record in reader.records)
            return cls._build(reader.header, numbered, f"trace artifact {path}")
