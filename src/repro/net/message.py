"""The network message type.

One flat class covers every protocol in the library; the ``mtype``
string namespaces the protocol family (``"2pc.vote-req"``,
``"qtp.prepare-to-commit"``, ``"elect.announce"`` ...) and ``payload``
carries protocol-specific fields.  Keeping one type means the network,
tracer, and failure injector never need protocol-specific knowledge.

Hot-path note: every message the library sends is built in one place,
:meth:`Network.fanout <repro.net.network.Network.fanout>` — a single
:meth:`Node.send <repro.net.node.Node.send>` is a fan-out to one
destination — so the constructor is six plain slot stores (a frozen
dataclass pays one ``object.__setattr__`` per field).  A message is
immutable by contract: nothing in the library mutates one in flight,
and a fan-out shares one payload dict across its destinations.
"""

from __future__ import annotations

import itertools
from typing import Any

_msg_counter = itertools.count(1)


class Message:
    """A message in flight.

    Attributes:
        src: sender site id.
        dst: destination site id.
        mtype: dotted message type, e.g. ``"qtp.pc-ack"``.
        txn: transaction id this message concerns ("" for traffic that
            concerns none).
        payload: protocol-specific fields (plain values only); ``None``
            is an empty dict.
        msg_id: unique id for tracing and duplicate-detection tests,
            drawn from one process-wide counter.
    """

    __slots__ = ("src", "dst", "mtype", "txn", "payload", "msg_id")

    def __init__(
        self, src: int, dst: int, mtype: str, txn: str = "", payload: dict[str, Any] | None = None
    ) -> None:
        self.src = src
        self.dst = dst
        self.mtype = mtype
        self.txn = txn
        self.payload = {} if payload is None else payload
        self.msg_id = next(_msg_counter)

    @property
    def family(self) -> str:
        """The protocol family prefix of ``mtype`` (before the first dot)."""
        head, _, __ = self.mtype.partition(".")
        return head

    def __str__(self) -> str:
        body = f" {self.payload}" if self.payload else ""
        txn = f" [{self.txn}]" if self.txn else ""
        return f"{self.src}->{self.dst} {self.mtype}{txn}{body}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, "
            f"mtype={self.mtype!r}, txn={self.txn!r}, "
            f"payload={self.payload!r}, msg_id={self.msg_id!r})"
        )
