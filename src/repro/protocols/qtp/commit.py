"""The paper's quorum-based commit protocols (Fig. 9, §5) — S14.

All three follow the 3PC message flow, but the coordinator sends COMMIT
*before* all PC-ACKs arrive — as soon as the acknowledged sites satisfy
the paired termination rule's commit predicate, which makes an abort
impossible for the rest of time:

* **Commit protocol 1** (``qtp1``, pairs with termination rule 1): wait
  for PC-ACKs from sites holding at least ``w(x)`` votes for **every**
  item x in the writeset.  Once those sites are in PC, no partition can
  ever gather ``r(x)`` votes for any x from non-PC sites
  (``r(x) + w(x) > v(x)``), so rule 1's abort branches are dead.
* **Commit protocol 2** (``qtp2``, pairs with termination rule 2): wait
  for PC-ACKs worth at least ``r(x)`` votes for **some** item x.  Rule
  2's abort branches need ``w(x)`` votes for every x from non-PC sites,
  and ``r(x) + w(x) > v(x)`` makes that impossible once r(x) votes of
  some x sit in PC.  Since ``r(x) <= w(x)`` in any sensible assignment,
  CP2 commits no later — usually strictly earlier — than CP1 (benchmark
  E12 quantifies the gap).
* **The primary-copy protocol** (``qtpp``, pairs with the §5 rule,
  :mod:`repro.protocols.qtp.generalized`): wait for PC-ACKs from the
  primary site of every written item.

If the ack window closes without the quorum, "the termination protocol
will be repeated again" (paper §3.1): the coordinator re-enters via the
election machinery rather than deciding unilaterally — the base
engine's ack timeout.

One engine serves all three: the rule builds the predicate as a
:class:`~repro.protocols.qtp.quorums.QuorumTally`
(:meth:`~repro.protocols.qtp.quorums.TerminationRule1.commit_tally`),
and the round folds each new PC-ACKer into it once, so an ack costs
the writeset's size, never a recount over every acker so far.
"""

from __future__ import annotations

from repro.protocols.base import CommitProtocolEngine, _CoordinationRound


class QuorumCommitEngine(CommitProtocolEngine):
    """COMMIT once the PC-ACKs meet the rule's commit tally.

    The engine's rule builds that tally (``commit_tally``):
    :class:`~repro.protocols.qtp.quorums.TerminationRule1`,
    :class:`~repro.protocols.qtp.quorums.TerminationRule2` or
    :class:`~repro.protocols.qtp.generalized.PrimaryTerminationRule`.
    """

    def _all_voted_yes(self, round_: _CoordinationRound) -> None:
        round_.tally = self.rule.commit_tally(round_.catalog, round_.writes)
        self._send_prepare(round_)

    def _on_ack_progress(self, round_: _CoordinationRound, acker: int) -> None:
        tally = round_.tally
        tally.add(acker)
        if tally.met():
            self.node.trace(
                "coord-early-commit",
                round_.txn,
                ackers=sorted(round_.ackers),
                of=len(round_.participants),
            )
            self._coord_decide(round_, "commit")
