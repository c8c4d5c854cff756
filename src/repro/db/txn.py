"""Transaction handles returned to clients of the cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class TxnHandle:
    """What a client holds after submitting a transaction.

    Attributes:
        txn: transaction id.
        origin: the site that coordinates the commit.
        writes: item -> (value, version): the very mapping the
            coordinator's round, its log and every participant's record
            share, not a copy — read it, do not mutate it.
        participants: the sites involved (hosts of writeset copies).
    """

    txn: str
    origin: int
    writes: dict[str, tuple[Any, int]] = field(default_factory=dict)
    participants: tuple[int, ...] = ()
