"""Three-phase commit (Fig. 2) with Skeen's termination protocol — S10.

Normal operation adds the buffer state PC between W and C: after a
unanimous yes the coordinator broadcasts PREPARE, collects PC-ACKs, and
only then broadcasts COMMIT.  No local state is adjacent to both A and
C, which makes 3PC nonblocking under *site failures*.

The termination protocol [15] was designed for site failures **only**
(paper §2, Example 2): a new coordinator polls local states and

* commits if any participant is in PC or C (after moving W sites up to
  PC), and
* aborts otherwise.

Under network *partitioning* this rule is applied independently in each
component, and components disagree whenever one contains a PC site and
another does not — exactly Example 2's inconsistency, which benchmark
E4 reproduces and measures.
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


class ThreePCTerminationRule(TerminationRule):
    """Skeen's site-failure termination rule: committable-present => commit."""

    name = "3pc-skeen"

    def evaluate(
        self,
        items: list[str],
        states: Mapping[int, TxnState],
        participants=None,
        catalog=None,
    ) -> Decision:
        reported = set(states.values())
        if TxnState.C in reported:
            return Decision.COMMIT
        if TxnState.A in reported:
            return Decision.ABORT
        if TxnState.PC in reported:
            # Move the W sites up to PC first, then commit; the round
            # always succeeds because no quorum is required.
            return Decision.TRY_COMMIT
        if not states:
            return Decision.BLOCK
        return Decision.ABORT


class ThreePCEngine(CommitProtocolEngine):
    """3PC engine: vote -> prepare -> ack -> commit, with or without
    every ack."""

    def _on_ack_timeout(self, round_: _CoordinationRound) -> None:
        """Non-acking sites are treated as failed; commit proceeds.

        This is the classical 3PC behaviour: after the prepare round
        the transaction's fate is sealed; sites that missed the round
        learn the outcome from termination or recovery.
        """
        self._coord_decide(round_, "commit")
