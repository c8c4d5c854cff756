"""Network message types.

One flat dataclass covers every protocol in the library; the ``mtype``
string namespaces the protocol family (``"2pc.vote-req"``,
``"qtp.prepare-to-commit"``, ``"elect.announce"`` ...) and ``payload``
carries protocol-specific fields.  Keeping one type means the network,
tracer, and failure injector never need protocol-specific knowledge.

Hot-path note: a frozen dataclass pays one ``object.__setattr__`` call
per field on construction, so nothing in flight is one.  Every message
the library itself sends — a single :meth:`Node.send
<repro.net.node.Node.send>` as much as each destination of a fan-out —
is a :class:`MessageStamp`, whose constructor is six plain slot stores
(~3x cheaper than a :class:`Message`).  A stamp duck-types
:class:`Message` exactly — same attributes, same ``family`` /
``__str__``, and a ``msg_id`` drawn from the *same* process-wide
counter, so tracing and duplicate-detection semantics are those of a
message.  :class:`Message` stays the public value type: tests, message
filters and the network's filtered / lossy path construct it, and
:meth:`Network.send <repro.net.network.Network.send>` takes either.
Handlers must treat stamps as immutable, just like messages (the
payload dict is shared across a whole fan-out).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_msg_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Message:
    """An immutable message in flight.

    Attributes:
        src: sender site id.
        dst: destination site id.
        mtype: dotted message type, e.g. ``"qtp.pc-ack"``.
        txn: transaction id this message concerns ("" for non-transaction
            traffic such as elections... elections are still txn-scoped in
            this library, so in practice txn is almost always set).
        payload: protocol-specific fields (plain values only).
        msg_id: unique id for tracing and duplicate-detection tests.
    """

    src: int
    dst: int
    mtype: str
    txn: str = ""
    payload: dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=lambda: next(_msg_counter))

    @property
    def family(self) -> str:
        """The protocol family prefix of ``mtype`` (before the first dot)."""
        head, _, __ = self.mtype.partition(".")
        return head

    def __str__(self) -> str:
        body = f" {self.payload}" if self.payload else ""
        txn = f" [{self.txn}]" if self.txn else ""
        return f"{self.src}->{self.dst} {self.mtype}{txn}{body}"


class MessageStamp:
    """A message in flight, built with plain slot stores.

    Field-compatible with :class:`Message` (the network, tracer and
    every handler read the same attribute names) and the one
    constructor behind everything the library sends.  Immutable by
    contract — nothing in the library mutates a message in flight.
    """

    __slots__ = ("src", "dst", "mtype", "txn", "payload", "msg_id")

    def __init__(self, src: int, dst: int, mtype: str, txn: str, payload: dict[str, Any]) -> None:
        self.src = src
        self.dst = dst
        self.mtype = mtype
        self.txn = txn
        self.payload = payload
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
            f"MessageStamp(src={self.src!r}, dst={self.dst!r}, "
            f"mtype={self.mtype!r}, txn={self.txn!r}, "
            f"payload={self.payload!r}, msg_id={self.msg_id!r})"
        )
