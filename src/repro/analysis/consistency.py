"""Atomic-commitment checking over run traces (S18).

The checker reads the flight recorder, never protocol internals, so it
holds for any engine — including the deliberately broken variants used
in the counterexample experiments, which is the point: Examples 2 and
3 are *demonstrated* by this checker reporting violations.

Checked properties:

* **atomicity** — the commit set and abort set of sites are never both
  non-empty, and no site records conflicting decisions;
* **Fig. 6 conformance** — no illegal state transition was traced
  (in particular no PC <-> PA move);
* **Lemmas 1 and 2** — every decision after the first agrees with the
  first (the per-transaction form of the two lemmas: later terminators
  either match the first terminator or stay blocked).

Every property is judged from the generic rows of one transaction —
``decision``, ``decision-conflict``, ``illegal-transition``,
``blocked`` — read through :meth:`~repro.sim.trace.Tracer.entries` and
:meth:`~repro.sim.trace.Tracer.count`.  Those rows are indexed by
``(category, txn)`` as they are appended (see :mod:`repro.sim.trace`),
so a verdict reads a handful of positions: it builds no
:class:`~repro.sim.trace.TraceRecord` and reads no ``send`` /
``deliver`` / ``drop`` / ``state`` row, however long the run.  The
tracer keeps every row, so a verdict sees every site's decision.

A whole run is read by :func:`read_decisions`, the only whole-run
reader of the ``decision`` rows: one pass gives each transaction the
outcome :func:`check_atomicity` would; both apply the one rule
:data:`OUTCOME`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.sim.trace import Tracer


#: The outcome rule: a transaction's outcome by whether some participant's
#: first decision was commit and whether some participant's was abort.
OUTCOME: dict[tuple[bool, bool], str] = {
    (True, True): "mixed",
    (True, False): "commit",
    (False, True): "abort",
    (False, False): "blocked",
}


@dataclass
class ConsistencyReport:
    """Verdict for one transaction in one run."""

    txn: str
    committed_sites: list[int] = field(default_factory=list)
    aborted_sites: list[int] = field(default_factory=list)
    undecided_sites: list[int] = field(default_factory=list)
    blocked_sites: list[int] = field(default_factory=list)
    conflicts: int = 0
    illegal_transitions: int = 0

    @property
    def atomic(self) -> bool:
        """True when no atomicity violation was observed."""
        mixed = bool(self.committed_sites) and bool(self.aborted_sites)
        return not mixed and self.conflicts == 0

    @property
    def outcome(self) -> str:
        """"commit" / "abort" / "blocked" / "mixed" summary."""
        return OUTCOME[bool(self.committed_sites), bool(self.aborted_sites)]

    @property
    def fully_terminated(self) -> bool:
        """True when every participant reached a decision."""
        return not self.undecided_sites

    def describe(self) -> str:
        """One-line human-readable verdict."""
        return (
            f"{self.txn}: outcome={self.outcome} atomic={self.atomic} "
            f"C={self.committed_sites} A={self.aborted_sites} "
            f"undecided={self.undecided_sites} blocked={self.blocked_sites} "
            f"conflicts={self.conflicts} illegal={self.illegal_transitions}"
        )


def check_atomicity(
    tracer: Tracer,
    txn: str,
    participants: list[int],
) -> ConsistencyReport:
    """Build the consistency verdict for one transaction.

    Args:
        tracer: the run's trace.
        txn: transaction to check.
        participants: the transaction's participant sites (undecided =
            participants without a decision record).
    """
    decisions: dict[int, str] = {}
    conflicts = 0
    for _time, site, detail in tracer.entries("decision", txn):
        prior = decisions.get(site)
        outcome = detail["outcome"]
        if prior is not None and prior != outcome:
            conflicts += 1
        decisions.setdefault(site, outcome)
    conflicts += tracer.count("decision-conflict", txn=txn)
    illegal = tracer.count("illegal-transition", txn=txn)
    committed = sorted(s for s, o in decisions.items() if o == "commit" and s in participants)
    aborted = sorted(s for s, o in decisions.items() if o == "abort" and s in participants)
    undecided = sorted(s for s in participants if s not in decisions)
    blocked = sorted({site for _time, site, _ in tracer.entries("blocked", txn)} & set(undecided))
    return ConsistencyReport(
        txn=txn,
        committed_sites=committed,
        aborted_sites=aborted,
        undecided_sites=undecided,
        blocked_sites=blocked,
        conflicts=conflicts,
        illegal_transitions=illegal,
    )


def read_decisions(
    tracer: Tracer, participants: Mapping[str, Iterable[int]]
) -> tuple[dict[str, str], dict[str, list[int]]]:
    """``(outcomes, undecided)`` of every ``txn -> sites`` of
    ``participants``, from one pass over the run's ``decision`` rows:
    each ``check_atomicity(tracer, txn, sites).outcome``, and the sites
    with no decision row of each transaction that has any.

    A site's decision is its *first* decision row, as in
    :func:`check_atomicity` — and its only one: the log refuses a second.
    """
    decided: dict[str, dict[int, str]] = {}
    for site, txn, detail in tracer.txn_entries("decision"):
        if txn not in decided:
            decided[txn] = {site: detail["outcome"]}
        elif site not in decided[txn]:
            decided[txn][site] = detail["outcome"]
    outcomes = {}
    undecided: dict[str, list[int]] = {}
    nothing: dict[int, str] = {}
    for txn, sites in participants.items():
        committed = aborted = False
        by_site = decided[txn] if txn in decided else nothing
        for site in sites:
            if site not in by_site:
                undecided.setdefault(txn, []).append(site)
            elif by_site[site] == "commit":
                committed = True
            elif by_site[site] == "abort":
                aborted = True
        outcomes[txn] = OUTCOME[committed, aborted]
    return outcomes, undecided


def first_decision_consistency(tracer: Tracer, txn: str) -> bool:
    """The Lemma 1/2 property: all decisions agree with the first one."""
    outcomes = [detail["outcome"] for _time, _site, detail in tracer.entries("decision", txn)]
    return all(outcome == outcomes[0] for outcome in outcomes)
