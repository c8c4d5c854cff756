"""Commit and termination protocols (systems S8–S15).

Layout:

* :mod:`repro.protocols.states` — the local-state vocabulary
  (Q/W/PA/PC/A/C) and the legal transition relation of Fig. 6.
* :mod:`repro.protocols.base` — shared coordinator / participant
  machinery: per-transaction records, decision logging, timers, and
  the engine itself, which as it stands runs Skeen's protocol.
* :mod:`repro.protocols.twopc` — two-phase commit (Fig. 1) with
  cooperative termination; the blocking baseline.
* :mod:`repro.protocols.threepc` — three-phase commit (Fig. 2) with
  Skeen's site-failure termination protocol; inconsistent under
  partitioning (Example 2).
* :mod:`repro.protocols.skeen` — the termination rule of Skeen's
  site-vote quorum commit protocol [16]; blocks whole partitions
  (Example 1).
* :mod:`repro.protocols.qtp` — the paper's contribution: data-item-vote
  quorum predicates, termination protocols 1–2 (Fig. 5 / Fig. 8), their
  §5 primary-copy variant, and the one commit engine the three share
  (commit protocols 1–2 of Fig. 9 and the primary-copy protocol).

There are four engine classes, one per commit behaviour — the base
engine, 2PC's, 3PC's and the quorum engine — and six protocols: a
protocol is an engine class, a termination rule and its name, which
namespaces its messages (:data:`repro.db.cluster.PROTOCOL_NAMES`).
"""

from repro.protocols.states import TxnState, is_committable, can_transition

__all__ = ["TxnState", "is_committable", "can_transition"]
