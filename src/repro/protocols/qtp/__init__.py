"""The paper's quorum-based commit and termination protocols (S12–S15).

* :mod:`repro.protocols.qtp.quorums` — Fig. 5's decision table over a
  commit / abort predicate pair, the two data-item-vote pairs
  (termination rules 1 and 2, Fig. 5 and Fig. 8), and the
  :class:`QuorumTally` each rule's commit predicate folds into.
* :mod:`repro.protocols.qtp.commit` — the one commit engine of
  ``qtp1``, ``qtp2`` and ``qtpp`` (Fig. 9 and §5): the coordinator
  sends COMMIT as soon as the PC-ACKs it holds meet its rule's commit
  tally, which makes an abort quorum impossible forever.
* :mod:`repro.protocols.qtp.generalized` — the §5 generalization: the
  same table and early commit over primary copies.
"""

from repro.protocols.qtp.commit import QuorumCommitEngine
from repro.protocols.qtp.generalized import PrimaryTerminationRule
from repro.protocols.qtp.quorums import (
    QuorumTally,
    QuorumTerminationRule,
    TerminationRule1,
    TerminationRule2,
    votes_by_state,
)

__all__ = [
    "PrimaryTerminationRule",
    "QuorumCommitEngine",
    "QuorumTally",
    "QuorumTerminationRule",
    "TerminationRule1",
    "TerminationRule2",
    "votes_by_state",
]
