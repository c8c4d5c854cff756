"""Two-phase commit (Fig. 1) with cooperative termination — baseline S9.

Normal operation: the coordinator distributes the update values in
vote-req messages; every participant votes; the transaction commits iff
every vote is yes; the coordinator broadcasts the decision.

Termination: 2PC has no committable buffer state, so a participant that
voted yes can do nothing on its own.  The classical *cooperative*
termination protocol is modelled as a :class:`TerminationRule`:

* some reachable participant already knows the decision → adopt it;
* some reachable participant is still in the initial state Q (it never
  voted, so the coordinator cannot have decided commit) → abort;
* otherwise — everyone reachable is in W — **block**.

That last line is 2PC's defining weakness (paper §1): a coordinator
crash after the votes leaves every partition of W-state participants
blocked, holding their locks.
"""

from __future__ import annotations

from typing import Mapping

from repro.protocols.base import (
    CommitProtocolEngine,
    Decision,
    TerminationRule,
    _CoordinationRound,
)
from repro.protocols.states import TxnState


class CooperativeTerminationRule(TerminationRule):
    """Decision table of 2PC cooperative termination."""

    name = "2pc-cooperative"

    def evaluate(
        self,
        items: list[str],
        states: Mapping[int, TxnState],
        participants=None,
    ) -> Decision:
        reported = set(states.values())
        if TxnState.C in reported:
            return Decision.COMMIT
        if TxnState.A in reported or TxnState.Q in reported:
            return Decision.ABORT
        if not states:
            return Decision.BLOCK
        return Decision.BLOCK


class TwoPCEngine(CommitProtocolEngine):
    """2PC engine: no prepare phase; the vote outcome *is* the decision."""

    family = "2pc"

    def _all_voted_yes(self, round_: _CoordinationRound) -> None:
        """Unanimous yes: 2PC commits immediately (the commit point is
        the coordinator's log record)."""
        self._coord_decide(round_, "commit")

    def _recover_undecided_coordinator(self, txn, writes, participants) -> None:
        """Classical 2PC presumed-abort recovery.

        The commit point is the coordinator's log record; its absence
        proves no participant can have learned a commit, so aborting is
        safe — and it is the *only* way to unblock participants stuck
        in W (2PC's cooperative termination cannot decide from W
        states).
        """
        self.wal.decide(txn, "abort", role="coordinator")
        self.node.trace("coord-recovery", txn, rebroadcast="abort", presumed=True)
        self.node.multicast(participants, self._m("abort"), txn)
