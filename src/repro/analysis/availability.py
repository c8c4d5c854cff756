"""Data availability accounting (S17) — the paper's target metric.

Availability of a data item in a partition is reduced by two factors
(paper §1):

1. **blocking** — copies locked by a transaction the termination
   protocol left blocked are unusable;
2. **the voting strategy** — even with unlocked copies, the partition
   needs ``r(x)`` of the item's votes to read and ``w(x)`` to write.

:func:`availability_snapshot` evaluates both factors for every
(partition component, item) pair at one instant of a run, which is how
the library turns the paper's Example 1 / Example 4 prose into
numbers: after Skeen's protocol blocks TR everywhere, x is unreadable
in G1; after termination protocol 1 aborts TR in G1, x becomes
readable there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.concurrency.locks import LockManager
    from repro.net.partitions import PartitionView
    from repro.replication.catalog import ReplicaCatalog


@dataclass(frozen=True)
class ItemAvailability:
    """Availability of one item in one partition component."""

    component: frozenset[int]
    item: str
    usable_votes: int
    total_votes: int
    readable: bool
    writable: bool
    blocked_sites: tuple[int, ...]

    def describe(self) -> str:
        """One aligned line: component, item, votes, R/W flags."""
        comp = "{" + ",".join(map(str, sorted(self.component))) + "}"
        flags = ("R" if self.readable else "-") + ("W" if self.writable else "-")
        return (
            f"{comp:<14} {self.item:<6} votes {self.usable_votes}/{self.total_votes}"
            f"  [{flags}]"
            + (f"  blocked at {list(self.blocked_sites)}" if self.blocked_sites else "")
        )


@dataclass
class AvailabilityReport:
    """Per-(component, item) availability plus aggregates."""

    rows: list[ItemAvailability]

    def row(self, component: frozenset[int] | set[int], item: str) -> ItemAvailability:
        """The row for one (component, item) pair."""
        component = frozenset(component)
        for row in self.rows:
            if row.component == component and row.item == item:
                return row
        raise KeyError(f"no availability row for {sorted(component)} / {item!r}")

    @property
    def readable_fraction(self) -> float:
        """Fraction of (component, item) pairs that are readable."""
        if not self.rows:
            return 0.0
        return sum(r.readable for r in self.rows) / len(self.rows)

    @property
    def writable_fraction(self) -> float:
        """Fraction of (component, item) pairs that are writable."""
        if not self.rows:
            return 0.0
        return sum(r.writable for r in self.rows) / len(self.rows)

    def describe(self) -> str:
        """Header plus one line per (component, item) row."""
        header = (
            f"availability: {self.readable_fraction:.0%} readable, "
            f"{self.writable_fraction:.0%} writable over {len(self.rows)} "
            "(partition, item) pairs"
        )
        return "\n".join([header] + [row.describe() for row in self.rows])


def availability_snapshot(
    catalog: "ReplicaCatalog",
    partition: "PartitionView",
    lock_managers: Mapping[int, "LockManager"],
    blocked_txns: Mapping[int, set[str]],
    active_sites: set[int] | None = None,
) -> AvailabilityReport:
    """Evaluate both availability factors for every (component, item).

    Args:
        catalog: the replica catalog (placement + quorums).
        partition: current connectivity.
        lock_managers: per-site lock managers.
        blocked_txns: per-site set of transaction ids currently blocked
            there (locks held by these make a copy unusable).
        active_sites: sites currently up; defaults to all.

    Returns:
        An :class:`AvailabilityReport`; one row per (component, item).
    """
    if active_sites is None:
        active_sites = set(partition.sites)
    rows = []
    for component in partition.components:
        live = sorted(set(component) & active_sites)
        for item in catalog.item_names:
            config = catalog.item(item)  # one lookup: sites, votes, r, w
            copies = config.copies
            hosting = [s for s in live if s in copies]
            blocked = tuple(
                sorted(
                    s
                    for s in hosting
                    if s in lock_managers
                    and lock_managers[s].is_locked(item, blocked_txns.get(s, set()))
                )
            )
            usable_votes = sum(copies[s] for s in hosting if s not in blocked)
            rows.append(
                ItemAvailability(
                    component=frozenset(component),
                    item=item,
                    usable_votes=usable_votes,
                    total_votes=config.total_votes,
                    readable=usable_votes >= config.read_quorum,
                    writable=usable_votes >= config.write_quorum,
                    blocked_sites=blocked,
                )
            )
    return AvailabilityReport(rows)
