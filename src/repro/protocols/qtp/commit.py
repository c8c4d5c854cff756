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
"""

from __future__ import annotations

from repro.protocols.base import CommitProtocolEngine, _CoordinationRound


class _QuorumCommitEngine(CommitProtocolEngine):
    """Shared early-commit machinery of CP1 and CP2."""

    def _all_voted_yes(self, round_: _CoordinationRound) -> None:
        self._send_prepare(round_)

    def _commit_quorum_reached(self, round_: _CoordinationRound) -> bool:
        """Variant-specific PC-ACK sufficiency test, in the catalog of
        the epoch the transaction started in."""
        raise NotImplementedError

    def _on_ack_progress(self, round_: _CoordinationRound) -> None:
        if self._commit_quorum_reached(round_):
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

    def _commit_quorum_reached(self, round_: _CoordinationRound) -> bool:
        catalog = round_.catalog
        return all(catalog.votes(x, round_.ackers) >= catalog.w(x) for x in sorted(round_.writes))


class QTP2Engine(_QuorumCommitEngine):
    """Commit protocol 2: COMMIT after ``r(x)`` PC-ACK votes for some x."""

    family = "qtp2"

    def _commit_quorum_reached(self, round_: _CoordinationRound) -> bool:
        catalog = round_.catalog
        return any(catalog.votes(x, round_.ackers) >= catalog.r(x) for x in sorted(round_.writes))
