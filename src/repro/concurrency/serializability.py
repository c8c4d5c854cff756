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

**Direct dependencies only.**  The graph is Adya's direct serialization
graph: per item, a ``ww`` edge from each writer to the writer of the
next version, and per read, one ``wr`` edge from the nearest writer at
or below the version read and one ``rw`` edge to the nearest writer
above it.  The full conflict graph also joins a reader to *every*
writer below and above its version; each of those edges is implied by
a path along the item's ``ww`` chain through the nearest one, so both
graphs have the same transitive closure.  Hence the same verdict, and
every cycle read off this graph is a cycle of the full one, while the
graph is built in O(accesses × log writers per item) instead of
O(readers × writers per item).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

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
        """The direct serialization graph: txn id -> {successor id: kind}.

        Every transaction of the history is a key; a kind is ``"ww"``,
        ``"wr"`` or ``"rw"`` (the last conflict found for that pair).
        Only direct dependencies are edges (see the module docstring):
        a reader is joined to the nearest writers around its version,
        not to every writer of the item, which leaves the transitive
        closure — and so every verdict — as it is.
        """
        return self._graph

    def _build(self) -> dict[str, dict[str, str]]:
        graph: dict[str, dict[str, str]] = {txn.txn: {} for txn in self._history}
        by_item_writes: dict[str, list[tuple[int, str]]] = {}
        for txn in self._history:
            for item, version in txn.writes.items():
                if item in by_item_writes:
                    by_item_writes[item].append((version, txn.txn))
                else:
                    by_item_writes[item] = [(version, txn.txn)]
        # per item: the versions (for bisecting), their writers and how
        # many there are, in version order, joined by ww edges
        chains: dict[str, tuple[list[int], list[str], int]] = {}
        for item, writes in by_item_writes.items():
            writes.sort()
            writers = [writer for _, writer in writes]
            chains[item] = [version for version, _ in writes], writers, len(writers)
            for earlier, later in zip(writers, writers[1:]):
                if earlier != later:
                    graph[earlier][later] = "ww"
        # per read: wr from the nearest writer at or below the version
        # read, rw to the nearest writer above it (the reader skipped)
        for txn in self._history:
            reader = txn.txn
            for item, read_version in txn.reads.items():
                if item not in chains:
                    continue
                versions, writers, count = chains[item]
                above = bisect_right(versions, read_version)
                below = above - 1
                while below >= 0 and writers[below] == reader:
                    below -= 1
                if below >= 0:
                    graph[writers[below]][reader] = "wr"
                while above < count and writers[above] == reader:
                    above += 1
                if above < count:
                    graph[reader][writers[above]] = "rw"
        return graph

    def is_serializable(self) -> bool:
        """True when the conflict graph is acyclic."""
        return topological_order(self._graph) is not None

    def cycle(self) -> list[str] | None:
        """One conflict cycle (txn ids, in cycle order), or None when
        serializable."""
        return find_cycle(self._graph)
