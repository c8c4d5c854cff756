"""Quorum read / write planning and version resolution.

The planner answers, for a given set of *usable* (reachable, unlocked)
copies: which sites form a read (write) quorum for item x, and — given
the versions those sites returned — what is the current value and what
version must a new write install.

Planning is deterministic: candidate sites are taken in descending
(votes, -site) order, so the smallest-cardinality quorum with a stable
tie-break is selected.  Determinism matters because the experiment
sweeps compare protocols on identical access plans.  That order is not
sorted per call: each item's config ranks its copies once and keeps the
order (:attr:`ItemConfig.ranked
<repro.replication.catalog.ItemConfig.ranked>`), and the planner walks
it, testing each copy against the usable set and stopping as soon as
the quorum is met — O(quorum) membership tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Mapping, Sequence

from repro.common.errors import QuorumUnreachableError
from repro.replication.catalog import ItemConfig, ReplicaCatalog
from repro.storage.store import VersionedValue


@dataclass(frozen=True)
class ReadResult:
    """Outcome of resolving a quorum read.

    Attributes:
        item: the item read.
        value: the most recent value among the quorum's copies.
        version: its version number.
        quorum: the sites whose copies were consulted.
        stale_sites: quorum members holding an older version (candidates
            for read-repair; the database layer refreshes them).
    """

    item: str
    value: object
    version: int
    quorum: tuple[int, ...]
    stale_sites: tuple[int, ...]


class QuorumPlanner:
    """Plans quorum accesses against one catalog (one epoch)."""

    def __init__(self, catalog: ReplicaCatalog) -> None:
        #: the placement every plan is made in
        self.catalog = catalog

    @staticmethod
    def _select(config: ItemConfig, usable: Container[int], needed: int, kind: str) -> tuple[int, ...]:
        copies = config.copies
        chosen: list[int] = []
        gathered = 0
        for site in config.ranked:
            if site in usable:
                chosen.append(site)
                gathered += copies[site]
                if gathered >= needed:
                    chosen.sort()
                    return tuple(chosen)
        raise QuorumUnreachableError(config.name, kind, gathered, needed)

    def plan_read(self, item: str, available: Container[int]) -> tuple[int, ...]:
        """Pick a read quorum (>= r(x) votes) from ``available`` sites.

        ``available`` is anything that answers ``site in available`` (a
        set, a list, :meth:`Network.live_peers
        <repro.net.network.Network.live_peers>`); it is asked only about
        the item's copies, in ranked order, until the quorum is met.

        Raises:
            QuorumUnreachableError: if ``available`` holds fewer than
                r(x) votes — the item is unreadable in this partition.
        """
        config = self.catalog.item(item)
        return self._select(config, available, config.read_quorum, "read")

    def plan_write(self, item: str, available: Container[int]) -> tuple[int, ...]:
        """Pick a write quorum (>= w(x) votes) from ``available`` sites.

        Note that a write quorum is a set of sites to *update*; Gifford
        writes go to the quorum's copies, and copies outside it become
        stale (their version lags), which read quorums later mask.
        """
        config = self.catalog.item(item)
        return self._select(config, available, config.write_quorum, "write")

    def write_hosts(self, item: str, available: Container[int]) -> list[int]:
        """Every copy of ``item`` in ``available``, in ranked order,
        provided they muster w(x) votes.

        The database layer's writes go to *every* reachable copy, not
        to a minimal :meth:`plan_write` quorum: the commit's
        participants are all reachable hosts, so a copy that can be
        brought current is.

        Raises:
            QuorumUnreachableError: ``available`` holds fewer than
                w(x) votes; ``gathered`` is the votes it does hold.
        """
        config = self.catalog.item(item)
        copies = config.copies
        hosts = [site for site in config.ranked if site in available]
        gathered = sum(copies[site] for site in hosts)
        if gathered < config.write_quorum:
            raise QuorumUnreachableError(item, "write", gathered, config.write_quorum)
        return hosts

    @staticmethod
    def resolve_read(item: str, replies: Mapping[int, VersionedValue]) -> ReadResult:
        """Combine per-site read replies into the quorum's answer.

        The most recent copy wins (Gifford: "version numbers are used to
        identify the most recent copy"); see :meth:`newest`.
        """
        if not replies:
            raise QuorumUnreachableError(item, "read", 0, 1)
        quorum = tuple(sorted(replies))
        best = QuorumPlanner.newest([replies[s] for s in quorum])
        stale = tuple(s for s in quorum if replies[s].version < best.version)
        return ReadResult(item, best.value, best.version, quorum, stale)

    @staticmethod
    def newest(copies: Sequence[VersionedValue]) -> VersionedValue:
        """The most recent of a quorum's copies, given in site order.

        The highest version wins; on a tie, the lowest site's copy.
        ``copies`` must not be empty.
        """
        best = copies[0]
        for copy in copies:
            if copy.version > best.version:
                best = copy
        return best

    @staticmethod
    def next_version(current_versions: Iterable[int]) -> int:
        """Version a write must install: one past the max it observed."""
        return max(current_versions, default=0) + 1
