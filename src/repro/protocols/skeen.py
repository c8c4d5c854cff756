"""Skeen's quorum-based commit protocol [16] — baseline S11.

The comparison target of the paper.  Each *site* is assigned votes; a
partition may commit an in-doubt transaction only if sites weighing a
commit quorum ``Vc`` cooperate, and abort only with an abort quorum
``Va``, where ``Vc + Va > V`` (the total).  The quorums are therefore
**site-level and transaction-independent** — the protocol never looks
at which data items the transaction wrote, which is precisely the
deficiency Example 1 exposes: all three partitions hold fewer than
``min(Vc, Va)`` votes, the transaction blocks everywhere, and items x
and y are inaccessible even in partitions holding read or write quorums
for them.

Normal operation is the 3PC message flow; the difference is the
termination rule below (and, symmetrically to the paper's protocols,
a PA state used while forming abort quorums).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.common.errors import ConfigurationError
from repro.protocols.base import (
    CommitProtocolEngine,
    Decision,
    TerminationRule,
    _CoordinationRound,
)
from repro.protocols.states import TxnState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.replication.catalog import ReplicaCatalog


class SkeenQuorumRule(TerminationRule):
    """Site-vote commit/abort quorum rule of [16].

    Quorums are sized against the *transaction's participant set*: a
    transaction touching three sites needs quorums out of those three
    sites' votes, not the whole installation's.  Explicit ``vc`` /
    ``va`` pin the quorums globally (the paper's Example 1 does this:
    Vc=5, Va=4 over all eight participants); leaving them ``None``
    selects the majority-style default per transaction:
    ``Vc = floor(Vp / 2) + 1`` and ``Va = Vp - Vc + 1`` where ``Vp`` is
    the participants' total votes.

    **One vote table per membership epoch.**  Like the replica catalog,
    the site votes are a value per epoch: :meth:`admit_site` and
    :meth:`evict_site` derive the next epoch's table and never edit an
    earlier one.  A transaction's quorums are sized from the table of
    the epoch it started in — the epoch of the ``catalog`` the engine
    hands every call — so a leave that finishes under a transaction in
    flight cannot shrink the ``Vp`` its ``Vc`` / ``Va`` come from, and
    quorums sized before and after a membership change still intersect.
    A call without a catalog reads the current epoch's table.
    """

    name = "skeen-site-quorum"

    def __init__(
        self,
        site_votes: Mapping[int, int],
        vc: int | None = None,
        va: int | None = None,
        epoch: int = 0,
    ) -> None:
        """Configure the weighted site votes.

        Args:
            site_votes: votes assigned to each site.
            vc: explicit commit quorum, or None for the per-transaction
                majority default.
            va: explicit abort quorum, or None for the complement
                default.
            epoch: the membership epoch ``site_votes`` belong to (the
                epoch of the installation's first catalog).

        Raises:
            ConfigurationError: for explicit quorums violating
                ``Vc + Va > V`` or basic sanity.
        """
        total = sum(site_votes.values())
        if vc is not None or va is not None:
            if vc is None or va is None:
                raise ConfigurationError("give both quorums or neither")
            if vc <= 0 or va <= 0:
                raise ConfigurationError("quorums must be positive")
            if vc + va <= total:
                raise ConfigurationError(
                    f"Vc + Va = {vc + va} must exceed the total votes V = {total}"
                )
            if vc > total or va > total:
                raise ConfigurationError("a quorum exceeds the total votes")
        #: site votes by membership epoch; the newest is the current one
        self._tables: dict[int, dict[int, int]] = {epoch: dict(site_votes)}
        self._epoch = epoch
        self.vc = vc
        self.va = va

    def admit_site(self, site: int, epoch: int, votes: int = 1) -> None:
        """Derive ``epoch``'s table: the current one plus a joining
        site's votes (elastic membership).

        Adaptive (per-transaction) quorums simply see the larger pool.
        Explicitly pinned quorums must keep covering the installation:
        growing the total would let ``Vc + Va <= V``, so a pinned rule
        rejects joins rather than silently weakening itself.

        Raises:
            ConfigurationError: non-positive votes, a duplicate site, or
                pinned quorums that the enlarged total would invalidate.
                A rejected join derives nothing.
        """
        current = self._tables[self._epoch]
        if votes <= 0:
            raise ConfigurationError(f"site {site} votes must be positive")
        if site in current:
            raise ConfigurationError(f"site {site} already holds votes")
        if self.vc is not None and self.va is not None:
            total = sum(current.values()) + votes
            if self.vc + self.va <= total:
                raise ConfigurationError(
                    f"admitting site {site} raises the vote total to {total}, "
                    f"invalidating the pinned quorums Vc={self.vc}, Va={self.va}"
                )
        self._tables[epoch] = {**current, site: votes}
        self._epoch = epoch

    def evict_site(self, site: int, epoch: int) -> None:
        """Derive ``epoch``'s table: the current one without a leaving
        site's votes.  Earlier epochs keep them."""
        current = self._tables[self._epoch]
        self._tables[epoch] = {s: v for s, v in current.items() if s != site}
        self._epoch = epoch

    def votes(self, catalog: "ReplicaCatalog | None" = None) -> Mapping[int, int]:
        """The site votes of ``catalog``'s epoch (default: the current one).

        Raises:
            ConfigurationError: the rule holds no table for that epoch.
        """
        epoch = self._epoch if catalog is None else catalog.epoch
        try:
            return self._tables[epoch]
        except KeyError:
            raise ConfigurationError(f"no site votes for epoch {epoch}") from None

    @staticmethod
    def _weight(sites: Iterable[int], votes: Mapping[int, int]) -> int:
        return sum(votes.get(s, 0) for s in set(sites))

    def _quorums(
        self, participants: Iterable[int] | None, votes: Mapping[int, int]
    ) -> tuple[int, int]:
        """Effective (Vc, Va) for this transaction."""
        if self.vc is not None and self.va is not None:
            return self.vc, self.va
        pool = votes if participants is None else participants
        total = self._weight(pool, votes)
        vc = total // 2 + 1
        return vc, total - vc + 1

    def evaluate(
        self,
        items: list[str],
        states: Mapping[int, TxnState],
        participants: Iterable[int] | None = None,
        catalog=None,
    ) -> Decision:
        if not states:
            return Decision.BLOCK
        votes = self.votes(catalog)
        vc, va = self._quorums(participants, votes)
        by_state: dict[TxnState, set[int]] = {}
        for site, state in states.items():
            by_state.setdefault(state, set()).add(site)
        pc = by_state.get(TxnState.PC, set())
        pa = by_state.get(TxnState.PA, set())
        if TxnState.C in by_state or self._weight(pc, votes) >= vc:
            return Decision.COMMIT
        if (
            TxnState.A in by_state
            or TxnState.Q in by_state
            or self._weight(pa, votes) >= va
        ):
            return Decision.ABORT
        not_pa = set(states) - pa
        if pc and self._weight(not_pa, votes) >= vc:
            return Decision.TRY_COMMIT
        not_pc = set(states) - pc
        if self._weight(not_pc, votes) >= va:
            return Decision.TRY_ABORT
        return Decision.BLOCK

    def commit_round_ok(
        self,
        items: list[str],
        supporters: Iterable[int],
        participants: Iterable[int] | None = None,
        catalog=None,
    ) -> bool:
        votes = self.votes(catalog)
        vc, __ = self._quorums(participants, votes)
        return self._weight(supporters, votes) >= vc

    def abort_round_ok(
        self,
        items: list[str],
        supporters: Iterable[int],
        participants: Iterable[int] | None = None,
        catalog=None,
    ) -> bool:
        votes = self.votes(catalog)
        __, va = self._quorums(participants, votes)
        return self._weight(supporters, votes) >= va


class SkeenEngine(CommitProtocolEngine):
    """[16]'s engine: 3PC-style flow with the site-quorum termination rule."""

    family = "skq"

    def _all_voted_yes(self, round_: _CoordinationRound) -> None:
        self._send_prepare(round_)

    def _on_ack_progress(self, round_: _CoordinationRound, acker: int) -> None:
        waiting = round_.waiting
        waiting.discard(acker)
        if not waiting:  # every participant has acked
            self._coord_decide(round_, "commit")

    def _on_ack_timeout(self, round_: _CoordinationRound) -> None:
        """Missing acks: fall to the termination protocol (quorum decides)."""
        self.node.trace(
            "coord-ack-timeout",
            round_.txn,
            missing=[s for s in round_.participants if s not in round_.ackers],
        )
        record = self._records.get(round_.txn)
        if record is not None and not record.decided:
            self.start_election(round_.txn)
