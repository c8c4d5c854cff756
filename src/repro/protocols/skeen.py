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

from typing import Iterable, Mapping

from repro.common.errors import ConfigurationError
from repro.protocols.base import (
    CommitProtocolEngine,
    Decision,
    TerminationRule,
    _CoordinationRound,
)
from repro.protocols.states import TxnState


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
    """

    name = "skeen-site-quorum"

    def __init__(
        self,
        site_votes: Mapping[int, int],
        vc: int | None = None,
        va: int | None = None,
    ) -> None:
        """Configure the weighted site votes.

        Args:
            site_votes: votes assigned to each site.
            vc: explicit commit quorum, or None for the per-transaction
                majority default.
            va: explicit abort quorum, or None for the complement
                default.

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
        self._votes = dict(site_votes)
        self.vc = vc
        self.va = va

    def add_site(self, site: int, votes: int = 1) -> None:
        """Admit a joining site's votes (elastic membership).

        Adaptive (per-transaction) quorums simply see the larger pool.
        Explicitly pinned quorums must keep covering the installation:
        growing the total would let ``Vc + Va <= V``, so a pinned rule
        rejects joins rather than silently weakening itself.

        Raises:
            ConfigurationError: non-positive votes, a duplicate site, or
                pinned quorums that the enlarged total would invalidate.
        """
        if votes <= 0:
            raise ConfigurationError(f"site {site} votes must be positive")
        if site in self._votes:
            raise ConfigurationError(f"site {site} already holds votes")
        if self.vc is not None and self.va is not None:
            total = sum(self._votes.values()) + votes
            if self.vc + self.va <= total:
                raise ConfigurationError(
                    f"admitting site {site} raises the vote total to {total}, "
                    f"invalidating the pinned quorums Vc={self.vc}, Va={self.va}"
                )
        self._votes[site] = votes

    def discard_site(self, site: int) -> None:
        """Withdraw a site's votes (rollback of a failed join)."""
        self._votes.pop(site, None)

    def _weight(self, sites: Iterable[int]) -> int:
        return sum(self._votes.get(s, 0) for s in set(sites))

    def _quorums(self, participants: Iterable[int] | None) -> tuple[int, int]:
        """Effective (Vc, Va) for this transaction."""
        if self.vc is not None and self.va is not None:
            return self.vc, self.va
        pool = self._votes if participants is None else participants
        total = self._weight(pool)
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
        vc, va = self._quorums(participants)
        by_state: dict[TxnState, set[int]] = {}
        for site, state in states.items():
            by_state.setdefault(state, set()).add(site)
        pc = by_state.get(TxnState.PC, set())
        pa = by_state.get(TxnState.PA, set())
        if TxnState.C in by_state or self._weight(pc) >= vc:
            return Decision.COMMIT
        if (
            TxnState.A in by_state
            or TxnState.Q in by_state
            or self._weight(pa) >= va
        ):
            return Decision.ABORT
        not_pa = set(states) - pa
        if pc and self._weight(not_pa) >= vc:
            return Decision.TRY_COMMIT
        not_pc = set(states) - pc
        if self._weight(not_pc) >= va:
            return Decision.TRY_ABORT
        return Decision.BLOCK

    def commit_round_ok(
        self,
        items: list[str],
        supporters: Iterable[int],
        participants: Iterable[int] | None = None,
        catalog=None,
    ) -> bool:
        vc, __ = self._quorums(participants)
        return self._weight(supporters) >= vc

    def abort_round_ok(
        self,
        items: list[str],
        supporters: Iterable[int],
        participants: Iterable[int] | None = None,
        catalog=None,
    ) -> bool:
        __, va = self._quorums(participants)
        return self._weight(supporters) >= va


class SkeenEngine(CommitProtocolEngine):
    """[16]'s engine: 3PC-style flow with the site-quorum termination rule."""

    family = "skq"

    def _all_voted_yes(self, round_: _CoordinationRound) -> None:
        self._send_prepare(round_)

    def _on_ack_progress(self, round_: _CoordinationRound) -> None:
        if set(round_.participants) <= round_.ackers:
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
