"""Conflict-serializability checking over committed histories.

The paper's correctness story has two halves: atomic commitment (the
protocols) and serializability (the voting partition-processing
strategy).  This module checks the second half *after the fact*: given
the committed transactions of a run — each with its read set (item ->
version read) and write set (item -> version written) — build the
version-order conflict graph and test acyclicity.

Because Gifford quorums force any two writes, and any read/write pair,
on the same item to intersect in at least one copy, the version numbers
give a total order per item; an acyclic graph over those orders is
exactly one-copy serializability for this replication scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import NotSerializableError
from repro.concurrency.digraph import find_cycle, topological_order


@dataclass(frozen=True)
class CommittedTxn:
    """The footprint of one committed transaction.

    Attributes:
        txn: transaction id.
        reads: item -> version number the transaction read.
        writes: item -> version number the transaction installed.
    """

    txn: str
    reads: dict[str, int] = field(default_factory=dict)
    writes: dict[str, int] = field(default_factory=dict)


class ConflictGraph:
    """Builds and tests the conflict graph of a committed history."""

    def __init__(self, history: list[CommittedTxn]) -> None:
        self._history = list(history)
        self._graph = self._build()

    @property
    def graph(self) -> dict[str, dict[str, str]]:
        """The adjacency mapping: txn id -> {successor id: conflict kind}.

        Every transaction of the history is a key; a kind is ``"ww"``,
        ``"wr"`` or ``"rw"`` (the last conflict found for that pair).
        """
        return self._graph

    def _build(self) -> dict[str, dict[str, str]]:
        graph: dict[str, dict[str, str]] = {txn.txn: {} for txn in self._history}
        by_item_writes: dict[str, list[tuple[int, str]]] = {}
        for txn in self._history:
            for item, version in txn.writes.items():
                by_item_writes.setdefault(item, []).append((version, txn.txn))
        for writes in by_item_writes.values():
            writes.sort()
        # ww edges: version order per item
        for writes in by_item_writes.values():
            for (_, earlier), (_, later) in zip(writes, writes[1:]):
                if earlier != later:
                    graph[earlier][later] = "ww"
        # wr and rw edges relative to the read version
        for txn in self._history:
            for item, read_version in txn.reads.items():
                for write_version, writer in by_item_writes.get(item, []):
                    if writer == txn.txn:
                        continue
                    if write_version <= read_version:
                        graph[writer][txn.txn] = "wr"
                    else:
                        graph[txn.txn][writer] = "rw"
        return graph

    def is_serializable(self) -> bool:
        """True when the conflict graph is acyclic."""
        return topological_order(self._graph) is not None

    def cycle(self) -> list[str] | None:
        """One conflict cycle (txn ids, in cycle order), or None when
        serializable."""
        return find_cycle(self._graph)

    def serial_order(self) -> list[str]:
        """A witness serial order (topological sort).

        Raises:
            NotSerializableError: when the history is not serializable;
                the exception carries one conflict cycle.
        """
        order = topological_order(self._graph)
        if order is None:
            raise NotSerializableError(find_cycle(self._graph))
        return order
