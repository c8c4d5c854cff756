"""A recorded op stream as a workload source.

:class:`RecordedWorkload` satisfies the generator-callable surface of
:class:`~repro.workload.spec.CompiledWorkload` that the E18/E21/E26
drivers consume — ``arrivals``, ``next_op``, ``next_update``,
``next_gap``, plus the ``spec`` / ``catalog`` attributes — but every
"draw" replays the next
recorded value verbatim and leaves the passed-in RNG untouched.  A
harvested trace is thereby just another workload: the drivers cannot
tell recording from generation, which is exactly what makes the
record→replay fixed point hold (the cluster's behaviour is a function
of catalog, protocol, seed, arrivals, ops, and fault schedule — all
pinned by the trace).

Unlike a compiled spec, a recorded stream is *stateful* (a cursor walks
the op list), so one instance serves one replay run; tournament cells
each take a fresh instance via :meth:`RecordedTrace.workload`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterable

from repro.common.errors import StoreError
from repro.replication.catalog import ReplicaCatalog
from repro.workload.spec import WorkloadOp, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.replay.artifact import RecordedTrace


class RecordedWorkload:
    """Replays a harvested op stream through the driver contract."""

    def __init__(
        self,
        spec: WorkloadSpec,
        catalog: ReplicaCatalog,
        arrivals: Iterable[float],
        ops: Iterable[WorkloadOp],
        updates: Iterable[tuple[int, dict[str, Any]]],
        gaps: Iterable[float] = (),
    ) -> None:
        self.spec = spec
        self.catalog = catalog
        self._arrivals = list(arrivals)
        self._ops = list(ops)
        self._updates = list(updates)
        self._gaps = list(gaps)
        self._op_cursor = 0
        self._update_cursor = 0
        self._gap_cursor = 0
        #: ops/updates dropped by :meth:`project` because the target
        #: catalog no longer hosts them (smaller-cluster what-ifs).
        self.skipped_ops = 0

    @classmethod
    def from_trace(cls, trace: "RecordedTrace") -> "RecordedWorkload":
        """A fresh stream over one recorded trace."""
        return cls(
            trace.spec,
            trace.catalog,
            trace.arrivals,
            trace.ops,
            trace.updates,
            trace.gaps,
        )

    def __len__(self) -> int:
        return len(self._ops) + len(self._updates)

    # ------------------------------------------------------------------
    # the CompiledWorkload surface the drivers consume
    # ------------------------------------------------------------------

    def arrivals(self, rng: random.Random) -> list[float]:
        """The recorded arrival times (``rng`` untouched).

        Also rewinds the op cursor: the drivers fetch arrivals exactly
        once, at the start of a run, so this doubles as the per-run
        reset point.
        """
        self._op_cursor = 0
        return list(self._arrivals)

    def next_op(self, rng: random.Random) -> WorkloadOp:
        """The next recorded op, in arrival order (``rng`` untouched)."""
        if self._op_cursor >= len(self._ops):
            raise StoreError(
                f"recorded op stream exhausted after {len(self._ops)} ops"
            )
        op = self._ops[self._op_cursor]
        self._op_cursor += 1
        return op

    def next_update(self, rng: random.Random) -> tuple[int, dict[str, Any]]:
        """The next recorded direct update (``rng`` untouched)."""
        if self._update_cursor >= len(self._updates):
            raise StoreError(
                f"recorded update stream exhausted after {len(self._updates)} updates"
            )
        origin, writes = self._updates[self._update_cursor]
        self._update_cursor += 1
        return origin, dict(writes)

    def next_gap(self, rng: random.Random, now: float | None = None) -> float:
        """The next recorded open-loop gap (``rng`` and ``now`` untouched —
        a recorded stream replays its gaps verbatim, so a rate schedule
        that shaped them at record time needs no clock at replay time).

        Exhaustion returns ``inf`` rather than raising: a replay under
        an *alternative* configuration can offer more arrivals than the
        recorded service did (shed ops still consume draws, but a
        healthier cluster drains faster and the deadline gate may admit
        one more arrival); an infinite gap simply ends the stream the
        way the recorded deadline did.
        """
        if self._gap_cursor >= len(self._gaps):
            return float("inf")
        gap = self._gaps[self._gap_cursor]
        self._gap_cursor += 1
        return gap

    # ------------------------------------------------------------------
    # what-if projection
    # ------------------------------------------------------------------

    def project(
        self,
        catalog: ReplicaCatalog,
        sites: Iterable[int] | None = None,
    ) -> "RecordedWorkload":
        """The stream restricted to what ``catalog`` can host.

        A what-if configuration may shrink the installation, so some
        recorded ops name origins or items the target cluster does not
        have.  Those ops are dropped *together with their arrival slot*
        (keeping the 1:1 op/arrival alignment the driver loop relies
        on) and tallied in ``skipped_ops`` on the returned stream.
        Updates lose unhosted items individually and are dropped only
        when nothing (or no origin) remains — with their arrival slot,
        in a stream of updates only.

        ``sites`` is the replayed cluster's site universe when it is
        wider than the catalog's hosts (the WAN driver registers pure
        coordinator sites); default: the catalog's hosting sites.
        """
        hosted_items = set(catalog.item_names)
        hosted_sites = set(catalog.all_sites()) if sites is None else set(sites)
        arrivals: list[float] = []
        gaps: list[float] = []
        ops: list[WorkloadOp] = []
        skipped = 0
        # an open-loop stream has gaps where a closed one has arrival
        # times; either slot is dropped together with its op to keep
        # the 1:1 alignment the drivers rely on.  Arrival times are
        # absolute, so dropping one leaves the rest in place; gaps are
        # relative, so a dropped op's gap folds into the previous
        # surviving gap to keep later arrivals at their recorded times
        # (a dropped *first* op inevitably shifts the stream earlier).
        open_stream = not self._arrivals and bool(self._gaps)
        slots = self._gaps if open_stream else self._arrivals
        slot_sink = gaps if open_stream else arrivals
        for slot, op in zip(slots, self._ops):
            if op.origin in hosted_sites and all(i in hosted_items for i in op.items):
                slot_sink.append(slot)
                ops.append(op)
            else:
                skipped += 1
                if open_stream and slot_sink:
                    slot_sink[-1] += slot
        updates: list[tuple[int, dict[str, Any]]] = []
        # a direct-drive stream (E24) has no ops at all: its arrival
        # slots pair with the updates instead, and drop with them
        update_slots = [] if self._ops else self._arrivals
        for index, (origin, writes) in enumerate(self._updates):
            kept = {item: value for item, value in writes.items() if item in hosted_items}
            if origin in hosted_sites and kept:
                updates.append((origin, kept))
                arrivals.extend(update_slots[index : index + 1])
            else:
                skipped += 1
        projected = RecordedWorkload(self.spec, catalog, arrivals, ops, updates, gaps)
        projected.skipped_ops = skipped
        return projected

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RecordedWorkload ops={len(self._ops)} updates={len(self._updates)}"
            f" skipped={self.skipped_ops}>"
        )
