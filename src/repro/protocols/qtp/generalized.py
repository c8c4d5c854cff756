"""The §5 generalization: quorum termination over primary copies.

Substituting the primary-copy strategy (Alsberg & Day [1] / true-copy
[12]: a partition may read or write an item iff it holds the site of
the item's primary copy) for Gifford voting in Fig. 5 gives a third
termination rule.  It is Fig. 5's table
(:class:`~repro.protocols.qtp.quorums.QuorumTerminationRule`) over a
third predicate pair:

=========================  ================================
Gifford (rule 1)           primary-copy
=========================  ================================
w(x) votes for every x     the primaries of every x
r(x) votes for some x      the primary of some x
=========================  ================================

The primaries are part of placement: each
:class:`~repro.replication.catalog.ItemConfig` names its own, and a
transaction reads them (:meth:`ReplicaCatalog.primary
<repro.replication.catalog.ReplicaCatalog.primary>`) in the catalog of
the epoch it started in.

Safety comes from primary uniqueness exactly as it came from quorum
intersection: once the primaries of every written item sit in PC, no
partition can ever hold "the primary of some item" outside PC — the
abort branches are dead everywhere, forever; and symmetrically an
in-PA primary of x forever bars the all-primaries commit condition.

The matching commit protocol (:class:`QTPPrimaryEngine`) commits as
soon as the PC-ACKs satisfy the rule's commit predicate — usually far
fewer acks than CP1's write quorums.
"""

from __future__ import annotations

from repro.protocols.base import CommitProtocolEngine, _CoordinationRound
from repro.protocols.qtp.quorums import QuorumTerminationRule


class PrimaryTerminationRule(QuorumTerminationRule):
    """Fig. 5's table over the primary-copy strategy."""

    name = "qtp-primary"

    def commits(self, items, sites, participants, catalog) -> bool:
        return bool(items) and all(catalog.primary(x) in sites for x in items)

    def aborts(self, items, sites, participants, catalog) -> bool:
        return any(catalog.primary(x) in sites for x in items)


class QTPPrimaryEngine(CommitProtocolEngine):
    """Commit protocol paired with the primary rule: COMMIT once the
    PC-ACKs cover every written item's primary site."""

    family = "qtpp"

    def _all_voted_yes(self, round_: _CoordinationRound) -> None:
        self._send_prepare(round_)

    def _on_ack_progress(self, round_: _CoordinationRound, acker: int) -> None:
        if self.rule.commits(list(round_.writes), round_.ackers, round_.participants, round_.catalog):
            self.node.trace(
                "coord-early-commit",
                round_.txn,
                ackers=sorted(round_.ackers),
                of=len(round_.participants),
            )
            self._coord_decide(round_, "commit")

    def _on_ack_timeout(self, round_: _CoordinationRound) -> None:
        self.node.trace(
            "coord-ack-timeout",
            round_.txn,
            missing=[s for s in round_.participants if s not in round_.ackers],
        )
        record = self._records.get(round_.txn)
        if record is not None and not record.decided:
            self.start_election(round_.txn)
