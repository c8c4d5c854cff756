"""Test-side references shared by ``tests/`` and ``benchmarks/``."""

from __future__ import annotations

import pytest

from repro.net.message import Message
from repro.net.network import Network


class PerMessageNetwork(Network):
    """Reference network: every message is judged on its own.

    No connectivity epoch, no reachable-peer cache and nothing hoisted
    out of a fan-out.  Each send checks the fault model in order —
    unknown destination, sender down, filtered, link loss, partitioned
    (through ``partition.reachable``) — then draws its delay; each
    delivery checks the destination and ``partition.reachable`` again.
    :class:`~repro.net.network.Network` must agree with it on every
    trace row, counter (``sent_by_type`` and ``dropped_by`` included),
    delivered message and ``net`` RNG draw.  Drops go through the
    network's own ``_drop``.
    """

    def send(self, msg: Message) -> None:
        self.sent += 1
        self.sent_by_type[msg.mtype] = self.sent_by_type.get(msg.mtype, 0) + 1
        now = self.scheduler.now
        if self.tracer.messages:
            self.tracer.record_send(now, msg.src, msg.txn, msg.mtype, msg.dst)
        reason = self._reason_at_send(msg)
        if reason is not None:
            self._drop(msg, reason)
            return
        delay = 0.0
        if msg.src != msg.dst:
            delay = self._delay_model.sample(self._rng, msg.src, msg.dst)
            delay *= self._degraded.get(msg.src, 1.0) * self._degraded.get(msg.dst, 1.0)
        self.scheduler.call_fixed(now + delay, self._deliver_checked, msg)

    def fanout(self, src, dsts, mtype, txn="", payload=None) -> None:
        payload = {} if payload is None else payload
        for dst in dsts:
            self.send(Message(src, dst, mtype, txn, payload))

    def _reason_at_send(self, msg: Message) -> str | None:
        nodes = self._nodes
        if msg.dst not in nodes:
            return "unknown-destination"
        if msg.src in nodes and not nodes[msg.src].alive:
            return "sender-down"
        if any(pred(msg) for pred in self._filters):
            return "filtered"
        p = self._link_loss.get((msg.src, msg.dst), 0.0)
        if p >= 1.0 or (p > 0.0 and self._rng.random() < p):
            return "link-loss"
        if not self.partition.reachable(msg.src, msg.dst):
            return "partitioned"
        return None

    def _deliver_checked(self, msg: Message) -> None:
        node = self._nodes.get(msg.dst)
        if node is None:
            self._drop(msg, "departed-in-flight")
        elif not node.alive:
            self._drop(msg, "destination-down")
        elif msg.src in self._nodes and not self.partition.reachable(msg.src, msg.dst):
            self._drop(msg, "partitioned-in-flight")
        else:
            self.delivered += 1
            if self.tracer.messages:
                self.tracer.record_deliver(self.scheduler.now, msg.dst, msg.txn, msg.mtype, msg.src)
            node.deliver(msg)


@pytest.fixture(scope="session")
def per_message_network() -> type[Network]:
    """The reference network class (:class:`PerMessageNetwork`)."""
    return PerMessageNetwork
