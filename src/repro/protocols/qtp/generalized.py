"""The §5 generalization: quorum termination over primary copies.

Substituting the primary-copy strategy for Gifford voting in the
Fig. 5 skeleton gives a third termination rule.  The structural
translation (strategy access-right -> quorum condition):

=========================  ================================
Gifford (rule 1)           primary-copy
=========================  ================================
w(x) votes for every x     the primaries of every x
r(x) votes for some x      the primary of some x
=========================  ================================

1. COMMIT  — (>= 1 commit state) or (primaries of every x in PC)
2. ABORT   — (>= 1 abort / initial state) or (primary of some x in PA)
3. TRY_COMMIT — (∃ PC) and (primaries of every x among non-PA sites)
4. TRY_ABORT  — (primary of some x among non-PC sites)
5. BLOCK

Safety comes from primary uniqueness exactly as it came from quorum
intersection: once the primaries of every written item sit in PC, no
partition can ever hold "the primary of some item" outside PC — the
abort branches are dead everywhere, forever; and symmetrically an
in-PA primary of x forever bars the all-primaries commit condition.

The matching commit protocol (:class:`QTPPrimaryEngine`) commits as
soon as the PC-ACKs cover every written item's primary — usually far
fewer acks than CP1's write quorums.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.protocols.base import CommitProtocolEngine, Decision, TerminationRule, _CoordinationRound
from repro.protocols.qtp.quorums import votes_by_state
from repro.protocols.states import TxnState
from repro.replication.primary import PrimaryCopyStrategy


class PrimaryTerminationRule(TerminationRule):
    """Fig. 5's skeleton instantiated over the primary-copy strategy."""

    name = "qtp-primary"

    def __init__(self, strategy: PrimaryCopyStrategy) -> None:
        self.strategy = strategy

    def evaluate(
        self,
        items: list[str],
        states: Mapping[int, TxnState],
        participants: Iterable[int] | None = None,
        catalog=None,
    ) -> Decision:
        if not states:
            return Decision.BLOCK
        groups = votes_by_state(states)
        pc = groups.get(TxnState.PC, set())
        pa = groups.get(TxnState.PA, set())
        if TxnState.C in groups or self.strategy.holds_all_primaries(items, pc):
            return Decision.COMMIT
        if (
            TxnState.A in groups
            or TxnState.Q in groups
            or self.strategy.holds_some_primary(items, pa)
        ):
            return Decision.ABORT
        not_pa = set(states) - pa
        if pc and self.strategy.holds_all_primaries(items, not_pa):
            return Decision.TRY_COMMIT
        not_pc = set(states) - pc
        if self.strategy.holds_some_primary(items, not_pc):
            return Decision.TRY_ABORT
        return Decision.BLOCK

    def commit_round_ok(
        self,
        items: list[str],
        supporters: Iterable[int],
        participants: Iterable[int] | None = None,
        catalog=None,
    ) -> bool:
        return self.strategy.holds_all_primaries(items, supporters)

    def abort_round_ok(
        self,
        items: list[str],
        supporters: Iterable[int],
        participants: Iterable[int] | None = None,
        catalog=None,
    ) -> bool:
        return self.strategy.holds_some_primary(items, supporters)


class QTPPrimaryEngine(CommitProtocolEngine):
    """Commit protocol paired with the primary rule: COMMIT once the
    PC-ACKs cover every written item's primary site."""

    family = "qtpp"

    def __init__(self, *args, strategy: PrimaryCopyStrategy, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.strategy = strategy

    def _all_voted_yes(self, round_: _CoordinationRound) -> None:
        self._send_prepare(round_)

    def _on_ack_progress(self, round_: _CoordinationRound, acker: int) -> None:
        items = sorted(round_.writes)
        if self.strategy.holds_all_primaries(items, round_.ackers):
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
