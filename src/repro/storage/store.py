"""Versioned replica store.

Each site hosts *copies* of some data items.  Gifford's weighted-voting
scheme [8] identifies the most recent copy in a read quorum by version
number, so every copy carries one.  The store is deliberately simple —
a dict of item -> (value, version) — because all the interesting
machinery (votes, quorums, locks) lives above it.

**One initial copy.**  A site's copies start at value 0, version 0, and
a :class:`VersionedValue` is frozen, so every initial copy of every site
is the one :data:`INITIAL` value: ``ReplicaStore(site, hosted)`` fills
the table from the placement in one step, with no per-copy
:meth:`~ReplicaStore.host` call or allocation.  A write never changes a
copy in place — it installs a new value — so sharing it is safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Collection, Iterator

from repro.common.errors import StorageError


@dataclass(frozen=True)
class VersionedValue:
    """A copy's current value and version number."""

    value: Any
    version: int

    def __str__(self) -> str:
        return f"{self.value!r}@v{self.version}"


#: every copy's state before its first write, shared by all of them
INITIAL = VersionedValue(0, 0)


class ReplicaStore:
    """The copies hosted by one site."""

    def __init__(self, site: int, hosted: Collection[str] = ()) -> None:
        """Host a copy of each item in ``hosted``, each at :data:`INITIAL`.

        Raises:
            StorageError: an item named twice, as :meth:`host` raises.
        """
        self.site = site
        self._copies: dict[str, VersionedValue] = dict.fromkeys(hosted, INITIAL)
        if len(self._copies) != len(hosted):
            twice = next(item for item, n in Counter(hosted).items() if n > 1)
            raise StorageError(f"site {site} already hosts a copy of {twice!r}")

    def host(self, item: str, value: Any = None, version: int = 0) -> None:
        """Start hosting a copy of ``item`` with an initial value."""
        if item in self._copies:
            raise StorageError(f"site {self.site} already hosts a copy of {item!r}")
        self._copies[item] = VersionedValue(value, version)

    def hosts(self, item: str) -> bool:
        """True when this site holds a copy of ``item``."""
        return item in self._copies

    def read(self, item: str) -> VersionedValue:
        """Read the local copy (value + version)."""
        try:
            return self._copies[item]
        except KeyError:
            raise StorageError(f"site {self.site} hosts no copy of {item!r}") from None

    def write(self, item: str, value: Any, version: int) -> None:
        """Install a new value at an explicit version.

        Versions must strictly increase — a stale write reaching a copy
        indicates a broken quorum intersection somewhere above, so it is
        an error here, not a silent no-op.  This sits on the commit hot
        path (every ``apply`` lands here), so the current copy comes
        from a direct dict probe rather than the exception-wrapping
        :meth:`read`; the error messages are identical.
        """
        current = self._copies.get(item)
        if current is None:
            raise StorageError(f"site {self.site} hosts no copy of {item!r}")
        if version <= current.version:
            raise StorageError(
                f"site {self.site}: stale write of {item!r} "
                f"v{version} over v{current.version}"
            )
        self._copies[item] = VersionedValue(value, version)

    def items(self) -> Iterator[tuple[str, VersionedValue]]:
        """Iterate ``(item, versioned_value)`` pairs, sorted by item."""
        for item in sorted(self._copies):
            yield item, self._copies[item]
