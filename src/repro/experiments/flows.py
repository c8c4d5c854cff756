"""Experiments E1, E2, E10, E12 — message flows and commit latency.

The paper's Figs. 1, 2 and 9 are message-flow diagrams; their
executable counterparts here measure, for a failure-free commit over
``n`` participants:

* the message histogram (which message types, how many of each),
* the **decision time** — virtual time from ``begin_commit`` to the
  coordinator's decision record (the latency the client observes), and
* the quiescence time (when the last participant has terminated).

E12 sweeps the decision time across seeds with randomized per-message
delays, quantifying the paper's §5 claim: *commit protocol 2 runs
faster than commit protocol 1*, and both beat 3PC's wait-for-all-acks.

A commit is the single-shot scenario :func:`commit_scenario`, which
:func:`~repro.traffic.run_scenario` runs and judges like any other run.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.net.delays import UniformDelay
from repro.replication.catalog import CatalogBuilder, ReplicaCatalog
from repro.traffic import Scenario, run_scenario
from repro.workload.spec import FixedUpdate


def _uniform_catalog(n_sites: int, r: int | None = None, w: int | None = None) -> ReplicaCatalog:
    """One item replicated at every site, one vote per copy."""
    builder = CatalogBuilder()
    sites = list(range(1, n_sites + 1))
    builder.replicated_item("x", sites=sites, r=r, w=w)
    return builder.build()


@dataclass
class CommitMetrics:
    """Metrics of one failure-free commit run."""

    protocol: str
    n_participants: int
    outcome: str
    decision_time: float
    quiescence_time: float
    messages: dict[str, int] = field(default_factory=dict)

    @property
    def total_messages(self) -> int:
        """Total messages sent during the run."""
        return sum(self.messages.values())

    def format_row(self) -> str:
        """One aligned summary line for flow tables."""
        return (
            f"{self.protocol:<6} n={self.n_participants:<3} {self.outcome:<7} "
            f"decision t={self.decision_time:<8.3f} quiesce t={self.quiescence_time:<8.3f} "
            f"msgs={self.total_messages}"
        )


def commit_scenario(
    n_sites: int = 5,
    jitter: bool = False,
    r: int | None = None,
    w: int | None = None,
) -> Scenario:
    """One failure-free commit: site 1 writes x, replicated at every one
    of ``n_sites`` sites with one vote per copy.

    Args:
        n_sites: number of participant sites (all host the item).
        jitter: use UniformDelay(0.1, 1.0) instead of the fixed delay —
            required to expose the CP1/CP2 early-commit difference.
        r, w: explicit quorum sizes (defaults: majority write).
    """
    params = dict(locals())
    return Scenario(
        name="commit",
        params=params,
        stream="commit",
        catalog=(lambda rng, **shape: _uniform_catalog(**shape), {"n_sites": n_sites, "r": r, "w": w}),
        workload=FixedUpdate(1, {"x": 1}),
        plan=lambda rng, cluster, first: None,
        drive="single",
        cluster={"delay_model": UniformDelay(0.1, 1.0) if jitter else None},
    )


def measure_commit(
    protocol: str,
    n_sites: int = 5,
    seed: int = 0,
    jitter: bool = False,
    r: int | None = None,
    w: int | None = None,
) -> CommitMetrics:
    """Run one failure-free commit (:func:`commit_scenario`) under
    ``protocol`` and collect its metrics."""
    run = run_scenario(commit_scenario(n_sites, jitter, r, w), protocol, seed)
    cluster, txn = run.cluster, run.txn.txn
    decisions = cluster.tracer.where(category="coord-decision", txn=txn)
    return CommitMetrics(
        protocol=protocol,
        n_participants=n_sites,
        outcome=cluster.outcome(txn).outcome,
        decision_time=decisions[0].time if decisions else float("nan"),
        quiescence_time=cluster.scheduler.now,
        messages=cluster.message_counts(),
    )


@dataclass
class LatencyRow:
    """Aggregated decision latency for one protocol in a sweep."""

    protocol: str
    n_participants: int
    runs: int
    mean: float
    p50: float
    p95: float

    def format_row(self) -> str:
        """One aligned summary line for latency tables."""
        return (
            f"{self.protocol:<6} n={self.n_participants:<3} runs={self.runs:<4} "
            f"mean={self.mean:.3f}  p50={self.p50:.3f}  p95={self.p95:.3f}"
        )


def latency_sweep(
    protocols: tuple[str, ...] = ("3pc", "qtp1", "qtp2"),
    n_sites: int = 7,
    runs: int = 50,
    base_seed: int = 0,
    r: int | None = None,
    w: int | None = None,
) -> list[LatencyRow]:
    """E12: decision-latency distribution per protocol, jittered delays.

    Expected shape (paper §5): ``qtp2 <= qtp1 <= 3pc`` in the mean —
    CP2 waits for the smallest PC-ACK quorum, CP1 for a write quorum,
    3PC for everyone.
    """
    rows = []
    for protocol in protocols:
        samples = [
            measure_commit(
                protocol, n_sites=n_sites, seed=base_seed + i, jitter=True, r=r, w=w
            ).decision_time
            for i in range(runs)
        ]
        quantiles = statistics.quantiles(samples, n=20)
        rows.append(
            LatencyRow(
                protocol=protocol,
                n_participants=n_sites,
                runs=runs,
                mean=statistics.fmean(samples),
                p50=statistics.median(samples),
                p95=quantiles[18],
            )
        )
    return rows


def format_flow(metrics: CommitMetrics) -> str:
    """Render the message histogram of a run (E1/E2/E10 output)."""
    lines = [metrics.format_row()]
    for mtype in sorted(metrics.messages):
        lines.append(f"    {mtype:<18} x{metrics.messages[mtype]}")
    return "\n".join(lines)
