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

The matching commit protocol is commit protocols 1 and 2's engine
(:class:`~repro.protocols.qtp.commit.QuorumCommitEngine`) over this
rule's commit tally: it commits as soon as the PC-ACKs cover every
written item's primary site — usually far fewer acks than CP1's write
quorums.

§5's access rule — only the primary's partition may write an item —
is this rule's admission check
(:meth:`~repro.protocols.qtp.quorums.QuorumTerminationRule.admits`):
participants without every written item's primary fail
:meth:`~PrimaryTerminationRule.commits`, so the cluster refuses the
write.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.protocols.qtp.quorums import QuorumTally, QuorumTerminationRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.replication.catalog import ReplicaCatalog


class PrimaryTerminationRule(QuorumTerminationRule):
    """Fig. 5's table over the primary-copy strategy."""

    name = "qtp-primary"

    def commits(self, items, sites, participants, catalog) -> bool:
        return bool(items) and all(catalog.primary(x) in sites for x in items)

    def aborts(self, items, sites, participants, catalog) -> bool:
        return any(catalog.primary(x) in sites for x in items)

    def commit_tally(self, catalog: "ReplicaCatalog", items: Iterable[str]) -> QuorumTally:
        """The primary of every x: one vote, at the primary's site."""
        return QuorumTally([({catalog.primary(x): 1}, 1) for x in items], every=True)
