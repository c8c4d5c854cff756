"""The unified traffic engine: one submit/run/tally lifecycle.

Every experiment driver used to own a hand-rolled copy of the same
loop — schedule one client submission per arrival, run the cluster to
quiescence, resolve handles against protocol verdicts.  The
:class:`TrafficEngine` owns that lifecycle once, in two modes:

* **closed loop** (:meth:`TrafficEngine.run_closed`) — the historical
  pre-scheduled-arrivals drive: the compiled stream's arrival times are
  fetched up front, one submission event is scheduled per arrival, and
  the run is op-count-bounded.  This is a *pure extraction* of the
  E17/E18/E22–E25 loops — the submit policies below are draw-for-draw
  and event-for-event identical to the inlined originals, which is what
  keeps every committed ``BENCH_*.json`` trajectory byte-identical.
* **open loop** (:meth:`TrafficEngine.run_open`, in
  :mod:`repro.traffic.open_loop`) — a sustained arrival-rate service:
  duration-bounded, with per-site admission control, shed/backpressure
  counters, and streaming latency percentiles.

Two submit policies cover every closed-loop driver:

* :meth:`TrafficEngine.submit_interactive` — the E17/E18/E25 client:
  read-only transactions commit on the client-side fast path;
  read-modify-write transactions read, increment, and submit through
  the commit protocol; lock conflicts and missing quorums become
  ``"client-aborted"``.
* :meth:`TrafficEngine.submit_direct` — the E24 client: one direct
  ``cluster.update`` per op, with ``submitted`` / ``cross_origin`` /
  ``refused`` tallies.

``compiled`` is anything satisfying the
:class:`~repro.workload.spec.CompiledWorkload` generator contract
(``arrivals`` + ``next_op`` / ``next_update``) — a compiled spec or a
:class:`~repro.replay.RecordedWorkload` replaying a harvested stream.
This split of *stream source* from *driver loop* is what makes a
recorded trace just another workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import QuorumUnreachableError, TransactionAborted
from repro.concurrency.serializability import ConflictGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.cluster import Cluster


@dataclass(frozen=True)
class RetryPolicy:
    """The interactive client's retry policy: how often a client-aborted
    transaction is re-submitted, and after how long.

    Args:
        max_attempts: total submissions allowed per op (first try
            included); ``1`` disables retry.
        backoff: base delay, in virtual seconds, before the second
            attempt; doubles per further attempt.  ``0.0`` retries
            immediately.
        backoff_cap: upper bound on any single delay — backoff is
            bounded, never unbounded exponential.

    A frozen value object with no RNG and no jitter, so a run under a
    policy is as deterministic as one without.
    """

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_cap: float = 1.0
    # Unread: kept as a trace header holds every field, and the E27 recording pins those bytes.
    quarantine: bool = False
    respawn_limit: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays cannot be negative")

    def delay(self, attempt: int) -> float:
        """Virtual seconds to wait before attempt ``attempt + 1``."""
        if self.backoff <= 0.0:
            return 0.0
        return min(self.backoff_cap, self.backoff * (2 ** (attempt - 1)))


@dataclass
class WorkloadResult:
    """What the client population experienced in one run."""

    protocol: str
    submitted: int
    committed: int
    client_aborted: int
    protocol_aborted: int
    blocked: int
    serializable: bool
    readable_fraction: float
    txn_outcomes: dict[str, str] = field(default_factory=dict)
    #: read-only transactions that committed on the client-side fast
    #: path (only nonzero for specs with a read fraction).
    reads_committed: int = 0

    def counters(self) -> dict[str, Any]:
        """Flat deterministic tallies (the bench-baseline fingerprint)."""
        return {
            "submitted": self.submitted,
            "committed": self.committed,
            "client_aborted": self.client_aborted,
            "protocol_aborted": self.protocol_aborted,
            "blocked": self.blocked,
            "serializable": self.serializable,
        }

    def format_row(self) -> str:
        """One aligned summary line for study tables."""
        return (
            f"{self.protocol:<6} submitted={self.submitted:<3} "
            f"committed={self.committed:<3} client-aborted={self.client_aborted:<3} "
            f"protocol-aborted={self.protocol_aborted:<3} blocked={self.blocked:<3} "
            f"1SR={self.serializable} readable={self.readable_fraction:.0%}"
        )


def tally_stream(
    protocol: str,
    cluster: "Cluster",
    outcomes: dict[str, str],
    handles: dict[str, object],
    probe: "Callable[[Cluster], None] | None" = None,
) -> WorkloadResult:
    """Resolve submitted handles against protocol verdicts and tally.

    ``probe`` runs after the verdict loop, just before the result is
    assembled — the historical hook position, preserved so harvested
    counters are byte-identical to the pre-split driver.
    """
    committed = protocol_aborted = blocked = 0
    for txn in handles:
        report = cluster.outcome(txn)
        outcome = report.outcome
        if outcome == "commit":
            committed += 1
        elif outcome == "abort":
            protocol_aborted += 1
        else:
            blocked += 1
        outcomes[txn] = outcome
    client_aborted = sum(1 for o in outcomes.values() if o == "client-aborted")
    reads_committed = sum(1 for o in outcomes.values() if o == "read-committed")

    if probe is not None:
        probe(cluster)
    history = cluster.committed_history()
    return WorkloadResult(
        protocol=protocol,
        submitted=len(outcomes),
        committed=committed,
        client_aborted=client_aborted,
        protocol_aborted=protocol_aborted,
        blocked=blocked,
        serializable=ConflictGraph(history).is_serializable(),
        readable_fraction=cluster.availability().readable_fraction,
        txn_outcomes=outcomes,
        reads_committed=reads_committed,
    )


class TrafficEngine:
    """Drives one compiled op stream through one cluster.

    One engine serves one run: ``outcomes`` / ``handles`` / ``tallies``
    accumulate across its lifetime, and the stream cursor of a replayed
    workload is stateful.  The constructor schedules nothing — failure
    plans armed before :meth:`run_closed` keep their historical
    scheduler sequence numbers, so event tie-breaking is unchanged.
    """

    def __init__(self, cluster: "Cluster", compiled, rng, retry=None) -> None:
        self.cluster = cluster
        self.compiled = compiled
        self.rng = rng
        #: client retry policy for the interactive submit path (a
        #: :class:`RetryPolicy` or ``None``).
        #: ``None`` — and ``max_attempts=1`` — are byte-identical to
        #: the historical no-retry client.
        self.retry = retry
        #: client-side outcome per transaction (``"read-committed"`` /
        #: ``"client-aborted"``; protocol verdicts fill in at tally).
        self.outcomes: dict[str, str] = {}
        #: submitted handles awaiting a protocol verdict.
        self.handles: dict[str, object] = {}
        #: the direct-submit policy's admission tallies (E24 shape).
        self.tallies: dict[str, int] = {"submitted": 0, "refused": 0, "cross_origin": 0}
        #: interactive re-submissions performed under :attr:`retry`.
        self.retry_attempts = 0
        #: what the last ``_submit_op`` call decided (client-visible
        #: status; plain attribute writes, so the historical drivers'
        #: counters are untouched).
        self.last_outcome: str | None = None

    # ------------------------------------------------------------------
    # submit policies
    # ------------------------------------------------------------------

    def submit_interactive(self, index: int) -> None:
        """One interactive client submission (the E18 policy).

        With a :attr:`retry` policy set, a client-aborted attempt is
        re-submitted as the *same already-drawn op* after the policy's
        deterministic capped backoff on the virtual clock — retries draw
        nothing from the workload generator, so the offered stream stays
        a pure function of the seed whether retries are on or off.
        """
        op = self.compiled.next_op(self.rng)
        if self.retry is None or self.retry.max_attempts <= 1:
            self._submit_op(op)
            return
        self._submit_attempt(op, 1)

    def _submit_attempt(self, op, attempt: int) -> None:
        """Submit ``op``; on a client abort, schedule the next attempt.

        The client-abort verdict is synchronous (lock conflicts and
        missing quorums surface at submit time), so the backoff delay
        doubles as the client's retry timeout — attempt ``k+1`` fires
        ``retry.delay(k)`` virtual seconds after attempt ``k`` failed.
        """
        self._submit_op(op)
        if self.last_outcome == "client-aborted" and attempt < self.retry.max_attempts:
            self.retry_attempts += 1
            self.cluster.scheduler.call_fixed_after(
                self.retry.delay(attempt), self._submit_attempt, op, attempt + 1
            )

    def _submit_op(self, op):
        """Submit one already-drawn :class:`WorkloadOp`; returns the
        handle of a protocol-bound update, else ``None``.

        Split from :meth:`submit_interactive` so the open-loop admission
        path can draw the op first (it needs the origin to check the
        in-flight window) and submit the identical way afterwards.
        Sets :attr:`last_outcome` either way, so callers can tell the
        ``None`` cases apart (read commit / client abort / unreachable
        origin).
        """
        cluster = self.cluster
        if op.origin not in cluster.sites or not cluster.sites[op.origin].alive:
            # the origin left, crashed, or never existed: the op is
            # offered but undeliverable.  Tallied only when it happens,
            # so historical payloads stay byte-stable.
            self.tallies["unreachable_origin"] = self.tallies.get("unreachable_origin", 0) + 1
            self.last_outcome = "unreachable"
            return None
        txn = cluster.transaction(op.origin)
        try:
            if op.kind == "read":
                for item in op.items:
                    txn.read(item)
                txn.submit()  # read-only: client-side commit
                self.outcomes[txn.txn] = "read-committed"
                self.last_outcome = "read-committed"
                return None
            for item in op.items:
                value = txn.read(item)
                txn.write(item, value + 1)
            handle = txn.submit()
        except TransactionAborted:
            self.outcomes[txn.txn] = "client-aborted"
            self.last_outcome = "client-aborted"
            return None
        except QuorumUnreachableError:
            txn.abort()
            self.outcomes[txn.txn] = "client-aborted"
            self.last_outcome = "client-aborted"
            return None
        self.handles[handle.txn] = handle
        self.last_outcome = "submitted"
        return handle

    def submit_direct(self, index: int) -> None:
        """One direct-update submission (the E24 policy).

        Draws ``next_update``, tallies ``submitted`` / ``cross_origin``
        (the generator drew the origin from the hosts of the *first
        picked* item — ``writes`` preserves that pick order), and counts
        a missing write quorum as ``refused``.
        """
        cluster = self.cluster
        origin, writes = self.compiled.next_update(self.rng)
        if origin not in cluster.sites or not cluster.sites[origin].alive:
            self.tallies["unreachable_origin"] = self.tallies.get("unreachable_origin", 0) + 1
            return
        first = next(iter(writes))
        remote = origin not in self.compiled.catalog.sites_of(first)
        self.tallies["submitted"] += 1
        self.tallies["cross_origin"] += remote
        try:
            handle = cluster.update(origin, writes)
        except QuorumUnreachableError:
            self.tallies["refused"] += 1
            return
        self.handles[handle.txn] = handle

    def submit_now(self):
        """Submit one direct update immediately (the E21 single shot).

        No scheduling, no exception shield: the caller owns the clock
        (the WAN storm submits at t=0, before any fault fires) and a
        missing quorum there is a configuration error, not traffic.
        """
        origin, writes = self.compiled.next_update(self.rng)
        return self.cluster.update(origin, writes)

    # ------------------------------------------------------------------
    # closed-loop drive
    # ------------------------------------------------------------------

    def run_closed(
        self, submit: Callable[[int], None] | None = None
    ) -> tuple[dict[str, str], dict[str, object]]:
        """The closed-loop drive: feed the compiled stream into the cluster.

        Schedules one ``submit(i)`` per arrival (default: the
        interactive policy), runs the cluster to quiescence, and returns
        ``(outcomes, handles)``.
        """
        if submit is None:
            submit = self.submit_interactive
        for i, at in enumerate(self.compiled.arrivals(self.rng)):
            self.cluster.scheduler.call_at(at, submit, i)
        self.cluster.run()
        return self.outcomes, self.handles

    def run_to_quiescence(self) -> float:
        """Drain the cluster (the single-shot drivers' run stage)."""
        return self.cluster.run()

    # ------------------------------------------------------------------
    # tally
    # ------------------------------------------------------------------

    def tally(
        self, protocol: str, probe: "Callable[[Cluster], None] | None" = None
    ) -> WorkloadResult:
        """Resolve this engine's handles into a :class:`WorkloadResult`."""
        return tally_stream(
            protocol, self.cluster, self.outcomes, self.handles, probe=probe
        )

    # ------------------------------------------------------------------
    # open-loop drive (implemented in repro.traffic.open_loop)
    # ------------------------------------------------------------------

    def run_open(self, protocol: str, **kwargs) -> "Any":
        """Run the stream as an open-loop service; see
        :func:`repro.traffic.open_loop.run_open_loop`."""
        from repro.traffic.open_loop import run_open_loop

        return run_open_loop(self, protocol, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TrafficEngine outcomes={len(self.outcomes)} "
            f"handles={len(self.handles)} now={self.cluster.scheduler.now}>"
        )
