"""The paper's quorum-based commit and termination protocols (S12–S15).

* :mod:`repro.protocols.qtp.quorums` — Fig. 5's decision table over a
  commit / abort predicate pair, and the two data-item-vote pairs:
  termination rules 1 and 2 (Fig. 5 and Fig. 8).
* :mod:`repro.protocols.qtp.commit` — commit protocols 1 and 2
  (Fig. 9): the coordinator sends COMMIT as soon as the PC-ACKs it
  holds make an abort quorum impossible forever.
* :mod:`repro.protocols.qtp.generalized` — the §5 generalization: the
  same table and early commit over primary copies.
"""

from repro.protocols.qtp.commit import QTP1Engine, QTP2Engine
from repro.protocols.qtp.generalized import PrimaryTerminationRule, QTPPrimaryEngine
from repro.protocols.qtp.quorums import (
    QuorumTerminationRule,
    TerminationRule1,
    TerminationRule2,
    votes_by_state,
)

__all__ = [
    "PrimaryTerminationRule",
    "QTP1Engine",
    "QTP2Engine",
    "QTPPrimaryEngine",
    "QuorumTerminationRule",
    "TerminationRule1",
    "TerminationRule2",
    "votes_by_state",
]
