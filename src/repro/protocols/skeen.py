"""Skeen's quorum-based commit protocol [16] — baseline S11.

The comparison target of the paper.  Each *site* holds one vote; a
partition may commit an in-doubt transaction only if a commit quorum
of ``Vc`` sites cooperates, and abort only with an abort quorum of
``Va`` sites, where ``Vc + Va > V`` (the number of sites).  The
quorums are therefore **site-level and transaction-independent** — the
protocol never looks at which data items the transaction wrote, which
is precisely the deficiency Example 1 exposes: all three partitions
hold fewer than ``min(Vc, Va)`` votes, the transaction blocks
everywhere, and items x and y are inaccessible even in partitions
holding read or write quorums for them.

Normal operation is the 3PC message flow, committing once every
participant has acked and electing a terminator when the ack window
closes short — :class:`~repro.protocols.base.CommitProtocolEngine` as
it stands, so this module defines no engine.  The difference is the
termination rule below (and, symmetrically to the paper's protocols,
a PA state used while forming abort quorums).
"""

from __future__ import annotations

from typing import Iterable

from repro.common.errors import ConfigurationError
from repro.protocols.qtp.quorums import QuorumTerminationRule


class SkeenQuorumRule(QuorumTerminationRule):
    """Site-vote commit/abort quorum rule of [16]: Fig. 5's table over
    "at least ``Vc`` sites" / "at least ``Va`` sites".

    Every site holds one vote.  Quorums are sized against the
    *transaction's participant set*: a transaction touching three sites
    needs quorums out of those three, not the whole installation's.
    Explicit ``vc`` / ``va`` pin the quorums globally (the paper's
    Example 1 does this: Vc=5, Va=4 over all eight participants);
    leaving them ``None`` selects the majority-style default per
    transaction: ``Vc = floor(Vp / 2) + 1`` and ``Va = Vp - Vc + 1``
    where ``Vp`` is the number of participants (with no participant
    set, the hosts of the transaction's catalog).  The participants are
    the transaction's own, so a membership change under a transaction
    in flight cannot shrink the ``Vp`` its quorums come from.
    """

    name = "skeen-site-quorum"

    def __init__(self, vc: int | None = None, va: int | None = None, sites: int | None = None) -> None:
        """Configure the quorums.

        Args:
            vc: explicit commit quorum, or None for the per-transaction
                majority default.
            va: explicit abort quorum, or None for the complement
                default.
            sites: the installation's number of sites V, checked
                against explicit quorums.

        Raises:
            ConfigurationError: for explicit quorums violating
                ``Vc + Va > V`` or basic sanity.
        """
        if vc is not None or va is not None:
            if vc is None or va is None:
                raise ConfigurationError("give both quorums or neither")
            if vc <= 0 or va <= 0:
                raise ConfigurationError("quorums must be positive")
        self.vc = vc
        self.va = va
        if sites is not None:
            self.check_total(sites)
            if vc is not None and (vc > sites or va > sites):
                raise ConfigurationError("a quorum exceeds the total votes")

    def check_total(self, sites: int) -> None:
        """Explicit quorums must keep covering ``sites`` one-vote sites:
        growing the total would let ``Vc + Va <= V``, so an elastic
        installation checks each join here (adaptive quorums always
        pass).

        Raises:
            ConfigurationError: ``Vc + Va <= sites``.
        """
        if self.vc is not None and self.vc + self.va <= sites:
            raise ConfigurationError(
                f"Vc + Va = {self.vc + self.va} must exceed the total votes V = {sites}"
            )

    def quorums(self, participants: Iterable[int] | None, catalog) -> tuple[int, int]:
        """Effective (Vc, Va) for this transaction."""
        if self.vc is not None:
            return self.vc, self.va
        vp = len(set(catalog.all_sites() if participants is None else participants))
        vc = vp // 2 + 1
        return vc, vp - vc + 1

    def admits(self, items, participants, catalog) -> bool:
        """Every transaction, as [16] does: under pinned quorums one
        with fewer than ``Vc`` participants can never terminate to
        commit, and blocks once in PC (the paper's Example 1 setting,
        E11's ``skq-pinned`` row); adaptive quorums always fit."""
        return True

    def commits(self, items, sites, participants, catalog) -> bool:
        return len(sites) >= self.quorums(participants, catalog)[0]

    def aborts(self, items, sites, participants, catalog) -> bool:
        return len(sites) >= self.quorums(participants, catalog)[1]

