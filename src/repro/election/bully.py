"""Bully-style election scoped to one transaction's participant set.

Protocol (per transaction):

1. A site whose coordinator watchdog fires sends ``elect.inquiry`` to
   every *higher-id* participant and waits ``2T``.
2. Any higher-id recipient replies ``elect.alive`` and starts its own
   election (it may become the coordinator).
3. If the initiator hears no ``elect.alive`` within ``2T``, it declares
   itself coordinator and invokes the termination protocol; otherwise
   it defers, arming a fresh watchdog in case the higher site dies too.

This intentionally allows multiple simultaneous coordinators — across
partitions always, and within one partition when messages are lost or
the partition heals mid-election (Example 3's scenario).  Safety is the
termination protocol's job; the election only provides liveness.

``ElectionMixin`` is mixed into the protocol engines; it expects the
host class to provide ``node``, ``_records``, a ``_T`` bound, its
``_scheduler``, its family's ``mtypes`` table and a
``_run_termination(txn)`` entry point, and to put
:data:`ElectionMixin.ELECTION_HANDLERS` into the handler table it hands
its node.  The election's windows are the record's timers
(:meth:`TxnRecord.set_timer <repro.protocols.base.TxnRecord.set_timer>`):
the engine is their one registry, as for every engine timer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.message import Message
from repro.protocols.states import STATE_OUTCOME

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.base import TxnRecord

#: hard cap on election rounds within one connectivity epoch; prevents
#: livelock under persistent message loss.  A kick (connectivity change)
#: resets the count.
MAX_ELECTION_ROUNDS = 8


class ElectionMixin:
    """Election behaviour shared by every protocol engine."""

    #: message type -> handler method name (family-independent)
    ELECTION_HANDLERS = {
        "elect.inquiry": "_on_elect_inquiry",
        "elect.alive": "_on_elect_alive",
    }

    # ------------------------------------------------------------------
    # initiating
    # ------------------------------------------------------------------

    def start_election(self, txn: str) -> None:
        """Begin an election round for an undecided transaction.

        No-op while this site is already coordinating a termination
        attempt for the transaction: the attempt's own phase timers
        drive progress, and re-entering would orphan the attempt.
        """
        record = self._records.get(txn)
        if record is None or record.decided or record.blocked or record.terminating:
            return
        if record.election_rounds >= MAX_ELECTION_ROUNDS:
            if not record.blocked:
                record.blocked = True
                self.node.trace("blocked", txn, reason="election-rounds-exhausted")
            return
        record.election_rounds += 1
        record.electing = True
        record.heard_higher = False
        higher = [s for s in record.participants if s > self.node.node_id]
        self.node.trace("election", txn, round=record.election_rounds, higher=higher)
        self.node.multicast(higher, "elect.inquiry", txn)
        window = 2 * self._T * (1 + 1e-6) if higher else 0.0
        record.set_timer(
            self._scheduler, window, self._election_window_closed, txn, label="elect-window"
        )

    def _election_window_closed(self, txn: str) -> None:
        record = self._records.get(txn)
        if record is None or record.decided or not record.electing:
            return
        record.electing = False
        if record.heard_higher:
            # Defer to the higher site; if it never follows through,
            # the watchdog re-triggers a fresh election.
            record.set_timer(
                self._scheduler,
                5 * self._T,
                self.start_election,
                txn,
                label="elect-defer-watchdog",
            )
            return
        self.node.trace("coordinator", txn, role="termination")
        self._run_termination(txn)

    # ------------------------------------------------------------------
    # responding
    # ------------------------------------------------------------------

    def _on_elect_inquiry(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None:
            # We are not (or no longer) a participant that can help;
            # stay silent so the initiator takes over.
            return
        self.node.send(msg.src, "elect.alive", msg.txn)
        if record.decided:
            # Share the decision instead of re-running termination.
            self.node.send(msg.src, self.mtypes[STATE_OUTCOME[record.state]], msg.txn)
            return
        if not record.electing and not record.terminating:
            self.start_election(msg.txn)

    def _on_elect_alive(self, msg: Message) -> None:
        record = self._records.get(msg.txn)
        if record is None or record.decided:
            return
        record.heard_higher = True
