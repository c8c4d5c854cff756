"""Replica catalog: where each item's copies live and their votes.

The catalog is consulted by three different layers, which is exactly
the integration the paper advocates:

1. the **database layer** plans quorum reads and writes from it;
2. the **commit protocols** (Fig. 9) derive their PC-ACK thresholds
   from ``w(x)`` / ``r(x)``;
3. the **termination protocols** (Fig. 5 / Fig. 8) evaluate commit and
   abort quorums over it.

Placement is a value.  A catalog never changes; a join or a leave
builds the next one, numbered one :attr:`~ReplicaCatalog.epoch` later.
Layers 2 and 3 count a transaction's votes in the catalog of the epoch
it started in, so a membership change never re-derives ``w(x)`` under
a transaction in flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ItemConfig:
    """Vote configuration of one data item.

    Attributes:
        name: item name (the paper's x, y, ...).
        copies: site -> votes held by that site's copy.
        read_quorum: r(x).
        write_quorum: w(x).
        ranked: the hosting sites by descending votes, ties by
            ascending site — the order the quorum planner takes copies
            in.  A config never changes, so this is derived once, on
            first use, and kept: a config built for one membership
            epoch (or carried over unchanged into the next) is ranked
            at most once, and one never planned against costs nothing.
    """

    name: str
    copies: Mapping[int, int]
    read_quorum: int
    write_quorum: int

    @cached_property
    def ranked(self) -> tuple[int, ...]:
        sites = sorted(self.copies)
        # a stable sort keeps equal votes in ascending site order, also
        # when reversed
        return tuple(sorted(sites, key=self.copies.__getitem__, reverse=True))

    @property
    def total_votes(self) -> int:
        """v(x): the total number of votes of the item."""
        return sum(self.copies.values())

    def validate(self) -> None:
        """Enforce Gifford's two constraints plus basic sanity.

        Raises:
            ConfigurationError: with a message naming the violated
                constraint (tests match on these).
        """
        if not self.copies:
            raise ConfigurationError(f"item {self.name!r} has no copies")
        if any(v <= 0 for v in self.copies.values()):
            raise ConfigurationError(f"item {self.name!r} has a non-positive vote")
        v = self.total_votes
        r, w = self.read_quorum, self.write_quorum
        if r <= 0 or w <= 0:
            raise ConfigurationError(f"item {self.name!r}: quorums must be positive")
        if r + w <= v:
            raise ConfigurationError(
                f"item {self.name!r}: r + w = {r + w} must exceed v = {v}"
            )
        if 2 * w <= v:
            raise ConfigurationError(
                f"item {self.name!r}: 2w = {2 * w} must exceed v = {v}"
            )
        if w > v or r > v:
            raise ConfigurationError(
                f"item {self.name!r}: a quorum exceeds the total votes v = {v}"
            )


class ReplicaCatalog:
    """Map of items to their placement and quorum sizes, for one epoch.

    Immutable: a catalog is a value.  Elastic membership does not edit
    it — :meth:`admit_site` and :meth:`evict_site` return the *next*
    catalog, one :attr:`epoch` later, and leave this one as it was.
    Whoever runs the installation (a :class:`~repro.db.cluster.Cluster`)
    decides which epoch is current; a transaction keeps the epoch it
    started in, so the ``w(x)`` / ``r(x)`` its commit and termination
    count against cannot change under it.

    Because a catalog never changes, what is derived from placement is
    derived at most once per epoch: each :class:`ItemConfig` keeps its
    vote-ranked :attr:`~ItemConfig.ranked` order once first read, so
    the quorum planner never sorts per call.
    """

    def __init__(self, items: Iterable[ItemConfig], epoch: int = 0) -> None:
        self._items: dict[str, ItemConfig] = {}
        for config in items:
            if config.name in self._items:
                raise ConfigurationError(f"duplicate item {config.name!r}")
            config.validate()
            self._items[config.name] = config
        #: membership epoch: 0 when built, one more per join or leave
        self.epoch = epoch

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def __contains__(self, item: str) -> bool:
        return item in self._items

    def item(self, name: str) -> ItemConfig:
        """Config of one item (raises ConfigurationError when unknown)."""
        try:
            return self._items[name]
        except KeyError:
            raise ConfigurationError(f"unknown item {name!r}") from None

    @property
    def item_names(self) -> list[str]:
        """All item names, sorted."""
        return sorted(self._items)

    def sites_of(self, item: str) -> list[int]:
        """Sites hosting a copy of ``item``, sorted."""
        return sorted(self.item(item).copies)

    def sites_of_any(self, items: Iterable[str]) -> list[int]:
        """Sites hosting a copy of at least one of ``items`` — the
        participant set of a transaction writing those items."""
        out: set[int] = set()
        for item in items:
            out.update(self.item(item).copies)
        return sorted(out)

    def all_sites(self) -> list[int]:
        """Every site hosting any copy, sorted."""
        return self.sites_of_any(self._items)

    def items_by_site(self) -> dict[int, list[str]]:
        """Site -> names of the items it hosts a copy of, sorted.

        The one definition of "hosted at a site": one pass over the
        copies.  A site hosting nothing has no entry.
        """
        hosted: dict[int, list[str]] = {}
        for name in sorted(self._items):
            for site in self._items[name].copies:
                hosted.setdefault(site, []).append(name)
        return hosted

    def r(self, item: str) -> int:
        """Read quorum r(x)."""
        return self.item(item).read_quorum

    def w(self, item: str) -> int:
        """Write quorum w(x)."""
        return self.item(item).write_quorum

    def v(self, item: str) -> int:
        """Total votes v(x)."""
        return self.item(item).total_votes

    # ------------------------------------------------------------------
    # vote arithmetic (the protocols' oracle)
    # ------------------------------------------------------------------

    def votes(self, item: str, sites: Iterable[int]) -> int:
        """Votes for ``item`` held by the copies at ``sites``."""
        copies = self.item(item).copies
        return sum(copies.get(s, 0) for s in set(sites))

    def has_read_quorum(self, item: str, sites: Iterable[int]) -> bool:
        """Do ``sites`` hold at least r(x) votes for ``item``?"""
        return self.votes(item, sites) >= self.r(item)

    def has_write_quorum(self, item: str, sites: Iterable[int]) -> bool:
        """Do ``sites`` hold at least w(x) votes for ``item``?"""
        return self.votes(item, sites) >= self.w(item)

    # ------------------------------------------------------------------
    # elastic membership: the next epoch
    # ------------------------------------------------------------------

    def admit_site(self, site: int, copies: Mapping[str, int]) -> "ReplicaCatalog":
        """The next catalog: this one plus a joining site's copies.

        Each touched item's quorums are re-derived majority-style over
        the enlarged vote total (``w = v//2 + 1``, ``r = v - w + 1`` —
        the same defaults :meth:`CatalogBuilder.replicated_item` uses),
        so the Gifford constraints hold by construction.

        Raises:
            ConfigurationError: unknown item, non-positive votes or a
                duplicate copy.
        """
        updated = dict(self._items)
        for item in sorted(copies):
            config = self.item(item)
            if site in config.copies:
                raise ConfigurationError(
                    f"site {site} already hosts a copy of {item!r}"
                )
            updated[item] = _majority(item, {**config.copies, site: copies[item]})
        return ReplicaCatalog(updated.values(), self.epoch + 1)

    def evict_site(self, site: int) -> tuple["ReplicaCatalog", dict[str, int]]:
        """The next catalog: this one without a leaving site's copies.

        The dual of :meth:`admit_site` (graceful decommission): each
        item the site hosts sheds that copy's votes and has its quorums
        re-derived majority-style over the shrunken vote total — the
        same hand-off arithmetic a join uses, run in reverse.

        Returns:
            ``(catalog, evicted)``: the next catalog, and the evicted
            copies as ``{item: votes}`` — what the site handed off.

        Raises:
            ConfigurationError: an item would lose its last copy (the
                departing site held the only one).
        """
        updated = dict(self._items)
        evicted: dict[str, int] = {}
        for item in sorted(self._items):
            config = self._items[item]
            if site not in config.copies:
                continue
            remaining = {s: v for s, v in config.copies.items() if s != site}
            if not remaining:
                raise ConfigurationError(
                    f"site {site} holds the only copy of {item!r}; "
                    "cannot evict without losing the item"
                )
            updated[item] = _majority(item, remaining)
            evicted[item] = config.copies[site]
        return ReplicaCatalog(updated.values(), self.epoch + 1), evicted


def _majority(name: str, copies: Mapping[int, int]) -> ItemConfig:
    """``name`` over ``copies`` with majority-style quorums."""
    v = sum(copies.values())
    w = v // 2 + 1
    return ItemConfig(name, copies, v - w + 1, w)


class CatalogBuilder:
    """Fluent construction of a :class:`ReplicaCatalog`.

    Example (the paper's Example 1 database)::

        catalog = (
            CatalogBuilder()
            .item("x", copies={1: 1, 2: 1, 3: 1, 4: 1}, r=2, w=3)
            .item("y", copies={5: 1, 6: 1, 7: 1, 8: 1}, r=2, w=3)
            .build()
        )
    """

    def __init__(self) -> None:
        self._configs: list[ItemConfig] = []

    def item(
        self,
        name: str,
        copies: Mapping[int, int],
        r: int,
        w: int,
    ) -> "CatalogBuilder":
        """Add one item; returns self for chaining."""
        self._configs.append(ItemConfig(name, dict(copies), r, w))
        return self

    def replicated_item(
        self,
        name: str,
        sites: Iterable[int],
        r: int | None = None,
        w: int | None = None,
    ) -> "CatalogBuilder":
        """Add an item with one vote per copy and majority-style defaults.

        Defaults: ``w = floor(v/2) + 1`` (majority) and ``r = v - w + 1``
        (the smallest read quorum satisfying r + w > v).
        """
        site_list = sorted(set(sites))
        v = len(site_list)
        if w is None:
            w = v // 2 + 1
        if r is None:
            r = v - w + 1
        return self.item(name, {s: 1 for s in site_list}, r, w)

    def build(self) -> ReplicaCatalog:
        """Validate everything and freeze the catalog."""
        return ReplicaCatalog(self._configs)
