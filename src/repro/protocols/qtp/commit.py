"""The paper's quorum-based commit protocols 1 and 2 (Fig. 9) — S14.

Both follow the 3PC message flow, but the coordinator sends COMMIT
*before* all PC-ACKs arrive — as soon as the acknowledged sites make an
abort quorum impossible for the rest of time:

* **Commit protocol 1** (pairs with termination rule 1): wait for
  PC-ACKs from sites holding at least ``w(x)`` votes for **every** item
  x in the writeset.  Once those sites are in PC, no partition can ever
  gather ``r(x)`` votes for any x from non-PC sites
  (``r(x) + w(x) > v(x)``), so rule 1's abort branches are dead.
* **Commit protocol 2** (pairs with termination rule 2): wait for
  PC-ACKs worth at least ``r(x)`` votes for **some** item x.  Rule 2's
  abort branches need ``w(x)`` votes for every x from non-PC sites, and
  ``r(x) + w(x) > v(x)`` makes that impossible once r(x) votes of some
  x sit in PC.  Since ``r(x) <= w(x)`` in any sensible assignment, CP2
  commits no later — usually strictly earlier — than CP1 (benchmark E12
  quantifies the gap).

If the ack window closes without the quorum, "the termination protocol
will be repeated again" (paper §3.1): the coordinator re-enters via the
election machinery rather than deciding unilaterally.

Both conditions are folded one PC-ACK at a time: a round's
:class:`QuorumTally` holds what each written item still lacks of its
threshold and lowers it once per new acker, so an ack costs the
writeset's size, never a recount over every acker so far.
"""

from __future__ import annotations

from typing import Iterable

from repro.protocols.base import CommitProtocolEngine, _CoordinationRound
from repro.replication.catalog import ReplicaCatalog


class QuorumTally:
    """The votes each written item still lacks of its ack threshold.

    ``quorum`` names the :class:`~repro.replication.catalog.ItemConfig`
    threshold: ``"write_quorum"`` (w(x), CP1) or ``"read_quorum"``
    (r(x), CP2), read in the transaction's own catalog.  :meth:`add`
    lowers each item the new acker hosts by its copy's votes; the
    caller adds each acker once.  Afterwards, for the ackers added so
    far, :meth:`all_met` is ``catalog.votes(x, ackers) >= threshold(x)``
    for every x and :meth:`any_met` the same for some x.
    """

    __slots__ = ("_copies", "_left", "_unmet")

    def __init__(self, catalog: ReplicaCatalog, items: Iterable[str], quorum: str) -> None:
        configs = [catalog.item(x) for x in items]
        self._copies = [(config.name, config.copies) for config in configs]
        self._left = {config.name: getattr(config, quorum) for config in configs}
        self._unmet = sum(1 for left in self._left.values() if left > 0)

    def add(self, site: int) -> None:
        """Count a new acker's votes."""
        left = self._left
        for item, copies in self._copies:
            votes = copies.get(site)
            if votes:
                still = left[item]
                if still > 0:
                    left[item] = still = still - votes
                    if still <= 0:
                        self._unmet -= 1

    def all_met(self) -> bool:
        """Does every item have its threshold among the ackers?"""
        return self._unmet == 0

    def any_met(self) -> bool:
        """Does some item have its threshold among the ackers?"""
        return self._unmet < len(self._left)


class _QuorumCommitEngine(CommitProtocolEngine):
    """Shared early-commit machinery of CP1 and CP2."""

    #: the :class:`~repro.replication.catalog.ItemConfig` threshold the
    #: PC-ACKs are counted against
    ack_quorum: str = "write_quorum"

    def _all_voted_yes(self, round_: _CoordinationRound) -> None:
        round_.tally = QuorumTally(round_.catalog, round_.writes, self.ack_quorum)
        self._send_prepare(round_)

    def _commit_quorum_reached(self, tally: QuorumTally) -> bool:
        """Variant-specific PC-ACK sufficiency test, over the round's
        tally in the catalog of the epoch the transaction started in."""
        raise NotImplementedError

    def _on_ack_progress(self, round_: _CoordinationRound, acker: int) -> None:
        tally = round_.tally
        tally.add(acker)
        if self._commit_quorum_reached(tally):
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


class QTP1Engine(_QuorumCommitEngine):
    """Commit protocol 1: COMMIT after ``w(x)`` PC-ACK votes for every x."""

    family = "qtp1"
    ack_quorum = "write_quorum"

    def _commit_quorum_reached(self, tally: QuorumTally) -> bool:
        return tally.all_met()


class QTP2Engine(_QuorumCommitEngine):
    """Commit protocol 2: COMMIT after ``r(x)`` PC-ACK votes for some x."""

    family = "qtp2"
    ack_quorum = "read_quorum"

    def _commit_quorum_reached(self, tally: QuorumTally) -> bool:
        return tally.any_met()
