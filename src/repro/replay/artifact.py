"""Recorded-trace artifacts: schema-versioned, byte-stable, compressed.

A :class:`RecordedTrace` is the full causal input of one driver run —
the workload spec, the replica catalog it compiled against, every
generated client operation with its arrival time, and the fault
schedule that actually fired — plus the run's deterministic counters
and result summary for fixed-point checking.  Replaying the trace
verbatim under the recorded configuration reproduces those counters
byte-for-byte (the cluster's own RNG is seeded from the recorded seed;
the driver RNG fed *only* the recorded draws).

On disk a trace is gzip-compressed JSONL: one canonical JSON object
per line (``sort_keys`` + compact separators, the same canonical form
:class:`~repro.engine.store.ResultStore` uses), compressed with
``mtime=0`` so identical traces are identical *bytes* and can be
committed like any other baseline artifact.  The final line is an
``end`` record carrying the line count, so truncation is detected on
load rather than surfacing as a half-replayed run.
"""

from __future__ import annotations

import gzip
import io
import json
from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import StoreError
from repro.experiments import SCENARIOS
from repro.replication.catalog import ItemConfig, ReplicaCatalog
from repro.sim.failures import (
    CrashSite,
    DegradeSite,
    FailureAction,
    FailurePlan,
    FlapLink,
    HealNetwork,
    JoinSite,
    LeaveSite,
    PartitionNetwork,
    RecoverSite,
    RestoreSite,
    SetLinkLoss,
)
from repro.workload.spec import WorkloadOp, WorkloadSpec

#: artifact schema version; bump on any incompatible layout change.
TRACE_SCHEMA = 1

#: the header ``kind`` tag distinguishing traces from other artifacts.
TRACE_KIND = "repro-replay-trace"

#: drivers a trace can be recorded from (and replayed through): the
#: scenario registry's names, so loading accepts exactly what
#: :func:`~repro.replay.recorder.record` emits.
TRACE_DRIVERS = tuple(SCENARIOS)


# ----------------------------------------------------------------------
# failure-action codec
# ----------------------------------------------------------------------

def encode_action(action: FailureAction) -> dict[str, Any]:
    """One JSON-able dict per fault action."""
    if isinstance(action, CrashSite):
        return {"action": "crash", "time": action.time, "site": action.site}
    if isinstance(action, RecoverSite):
        return {"action": "recover", "time": action.time, "site": action.site}
    if isinstance(action, PartitionNetwork):
        return {
            "action": "partition",
            "time": action.time,
            "groups": [list(g) for g in action.groups],
        }
    if isinstance(action, HealNetwork):
        return {"action": "heal", "time": action.time}
    if isinstance(action, SetLinkLoss):
        return {
            "action": "sever",
            "time": action.time,
            "src": action.src,
            "dst": action.dst,
            "p": action.p,
        }
    if isinstance(action, JoinSite):
        return {
            "action": "join",
            "time": action.time,
            "site": action.site,
            "copies": [list(pair) for pair in action.copies],
            "near": action.near,
        }
    if isinstance(action, DegradeSite):
        return {
            "action": "degrade",
            "time": action.time,
            "site": action.site,
            "factor": action.factor,
        }
    if isinstance(action, RestoreSite):
        return {"action": "restore", "time": action.time, "site": action.site}
    if isinstance(action, FlapLink):
        return {
            "action": "flap",
            "time": action.time,
            "src": action.src,
            "dst": action.dst,
            "period": action.period,
            "duty": action.duty,
            "cycles": action.cycles,
        }
    if isinstance(action, LeaveSite):
        return {"action": "leave", "time": action.time, "site": action.site}
    raise StoreError(f"cannot encode failure action {action!r}")


def decode_action(payload: dict[str, Any]) -> FailureAction:
    """Inverse of :func:`encode_action`."""
    kind = payload.get("action")
    try:
        if kind == "crash":
            return CrashSite(payload["time"], payload["site"])
        if kind == "recover":
            return RecoverSite(payload["time"], payload["site"])
        if kind == "partition":
            return PartitionNetwork(
                payload["time"], tuple(tuple(g) for g in payload["groups"])
            )
        if kind == "heal":
            return HealNetwork(payload["time"])
        if kind == "sever":
            return SetLinkLoss(
                payload["time"], payload["src"], payload["dst"], payload["p"]
            )
        if kind == "join":
            return JoinSite(
                payload["time"],
                payload["site"],
                tuple((item, votes) for item, votes in payload["copies"]),
                payload.get("near"),
            )
        if kind == "degrade":
            return DegradeSite(payload["time"], payload["site"], payload["factor"])
        if kind == "restore":
            return RestoreSite(payload["time"], payload["site"])
        if kind == "flap":
            return FlapLink(
                payload["time"],
                payload["src"],
                payload["dst"],
                payload["period"],
                payload["duty"],
                payload["cycles"],
            )
        if kind == "leave":
            return LeaveSite(payload["time"], payload["site"])
    except KeyError as exc:
        raise StoreError(f"failure action missing field {exc}") from None
    raise StoreError(f"unknown failure action kind {kind!r}")


# ----------------------------------------------------------------------
# catalog codec
# ----------------------------------------------------------------------

def encode_catalog(catalog: ReplicaCatalog) -> dict[str, Any]:
    """Placement + quorums as a JSON-able dict (copies as pair lists,
    so site ids stay integers through the round trip)."""
    items = []
    for name in catalog.item_names:
        config = catalog.item(name)
        items.append(
            {
                "name": name,
                "copies": [[site, votes] for site, votes in sorted(config.copies.items())],
                "r": config.read_quorum,
                "w": config.write_quorum,
            }
        )
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
            )
            for item in payload["items"]
        )
    except (KeyError, TypeError, ValueError) as exc:
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
            "sampler": spec.sampler,
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
        if not lines:
            raise StoreError("empty trace artifact")
        header = lines[0]
        if header.get("type") != "header" or header.get("kind") != TRACE_KIND:
            raise StoreError("not a replay trace artifact (bad header)")
        if header.get("schema") != TRACE_SCHEMA:
            raise StoreError(
                f"trace schema {header.get('schema')!r} != supported {TRACE_SCHEMA}"
            )
        if header.get("driver") not in TRACE_DRIVERS:
            raise StoreError(f"unknown trace driver {header.get('driver')!r}")
        end = lines[-1]
        if end.get("type") != "end" or end.get("records") != len(lines) - 1:
            raise StoreError(
                "truncated trace artifact: end record missing or line count mismatch"
            )
        try:
            spec_fields = dict(header["spec"])
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
            saw_catalog = False
            for line in lines[1:-1]:
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
                    trace.actions.append(decode_action(line))
                elif kind == "counters":
                    trace.counters = dict(line["counters"])
                elif kind == "result":
                    trace.result = dict(line["result"])
                else:
                    raise StoreError(f"unknown trace record type {kind!r}")
        except StoreError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed trace record: {exc}") from None
        if not saw_catalog:
            raise StoreError("trace artifact has no catalog record")
        return trace

    # ------------------------------------------------------------------
    # byte-stable file round trip
    # ------------------------------------------------------------------

    def encode(self) -> bytes:
        """The compressed artifact bytes (a pure function of content)."""
        text = "".join(
            json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
            for line in self.to_lines()
        )
        buffer = io.BytesIO()
        # mtime=0 (and no embedded filename, since we pass a fileobj)
        # keeps identical traces identical on disk — the same property
        # ResultStore's canonical JSON gives uncompressed artifacts.
        with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as zf:
            zf.write(text.encode("utf-8"))
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
                schema-incompatible artifacts; a line that is valid
                JSON but not an object is named by path and number.
        """
        lines = []
        try:
            with gzip.open(path, "rt", encoding="utf-8") as f:
                for number, line in enumerate(f, 1):
                    if not line.strip():
                        continue
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise StoreError(
                            f"trace artifact {path}: line {number} is not a JSON object"
                        )
                    lines.append(record)
        except (OSError, EOFError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreError(f"cannot read trace artifact {path}: {exc}") from None
        return cls.from_lines(lines)
