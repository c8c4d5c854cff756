"""Whole-run invariants: the paper's claims, checked on a finished run.

:func:`judge` reads one finished cluster once and judges it by four
predicates, returning what it found — no violation for a run that keeps
every claim, at most one :class:`Violation` per predicate:

* **atomicity** — no transaction ends ``mixed`` (committed at one
  participant, aborted at another), no site is told to decide against
  its own decision (a ``decision-conflict`` row) and no site makes a
  transition Fig. 6 forbids (an ``illegal-transition`` row) — except
  under 3PC, whose termination protocol the paper's Example 2 shows
  may do exactly that;
* **serializability** — the committed history is one-copy serializable
  (:class:`~repro.concurrency.serializability.ConflictGraph`), checked
  when no transaction is mixed (a mixed run has no single committed
  history);
* **conservation** — at quiescence every message sent was delivered or
  dropped, ``sent == delivered + dropped``, and the network's
  breakdowns add up: its per-type sends
  (:attr:`Network.sent_by_type <repro.net.network.Network.sent_by_type>`)
  sum to ``sent`` and its per-reason drops (``dropped_by``) to
  ``dropped``;
* **liveness** — healed and up means decided: at quiescence, with the
  network healed (:attr:`Network.healed <repro.net.network.Network.healed>`)
  and every registered site up, no live participant of any transaction
  is still in doubt (:meth:`Cluster.live_undecided
  <repro.db.cluster.Cluster.live_undecided>`, read for every
  transaction at once).

That one read — one pass over the ``decision`` rows
(:meth:`Cluster.verdicts <repro.db.cluster.Cluster.verdicts>`), one
:class:`ConflictGraph` of the committed history, the
``decision-conflict`` / ``illegal-transition`` category indexes — is
also the tally of the run (:meth:`TrafficEngine.tally
<repro.traffic.engine.TrafficEngine.tally>`, its only caller in the
library), and :func:`~repro.traffic.run_scenario`, the one path every
run in ``repro`` takes, raises unless the predicates broken are exactly
the ones a designed counterexample names: so every run is judged.
The checks only read: no RNG draw, no scheduler event, no trace row or
log row is added, so a run checked is the run that would have been.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.concurrency.serializability import ConflictGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.cluster import Cluster


class Violation(NamedTuple):
    """One broken claim: the predicate's name and what broke it."""

    predicate: str
    detail: str


def healed_and_up(cluster: "Cluster") -> bool:
    """At quiescence, healed, and every registered site up: the state in
    which the liveness predicate holds every transaction to a decision."""
    return (
        cluster.scheduler.pending == 0
        and cluster.network.healed
        and all(site.alive for site in cluster.sites.values())
    )


class Judgement(NamedTuple):
    """One read of a finished run: what its tally and the oracle need."""

    outcomes: dict[str, str]
    serializable: bool
    violations: list[Violation]


def judge(cluster: "Cluster") -> Judgement:
    """Read the finished ``cluster`` once and judge it by the four
    predicates (see the module docstring) under its own protocol."""
    found = []
    outcomes, history, in_doubt = cluster.verdicts()
    mixed = [txn for txn, outcome in outcomes.items() if outcome == "mixed"]
    if cluster.protocol != "3pc":
        broken = [f"{len(mixed)} mixed outcome(s): {mixed}"] if mixed else []
        for category in ("decision-conflict", "illegal-transition"):
            rows = list(cluster.tracer.txn_entries(category))
            if rows:
                broken.append(f"{len(rows)} {category} row(s): {sorted({txn for _, txn, _ in rows})}")
        if broken:
            found.append(Violation("atomicity", f"under {cluster.protocol}: " + "; ".join(broken)))
    graph = ConflictGraph(history)
    serializable = graph.is_serializable()
    if not serializable and not mixed:
        found.append(Violation("serializability", f"committed history has a cycle {graph.cycle()}"))
    if cluster.scheduler.pending == 0:  # nothing left in flight
        net = cluster.network
        broken = []
        if net.sent != net.delivered + net.dropped:
            broken.append(f"sent {net.sent} != delivered {net.delivered} + dropped {net.dropped}")
        if (by_type := sum(net.sent_by_type.values())) != net.sent:
            broken.append(f"sent by type {by_type} != sent {net.sent}")
        if (by_reason := sum(net.dropped_by.values())) != net.dropped:
            broken.append(f"dropped by reason {by_reason} != dropped {net.dropped}")
        if broken:
            found.append(Violation("conservation", "; ".join(broken)))
    if in_doubt and healed_and_up(cluster):
        found.append(Violation("liveness", f"healed and up, still in doubt: {in_doubt}"))
    return Judgement(outcomes, serializable, found)

