"""Network partition model.

A partition divides the site set into disjoint components with no
communication between components (the paper, §1).  The view is a plain
value object; the :class:`~repro.net.network.Network` swaps views when
the failure injector fires a partition / heal event.

The view also answers the question the analysis layer keeps asking:
"which *active* sites does component G contain right now?" — that set
is exactly the population the termination protocol polls in phase 1.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class PartitionView:
    """Immutable snapshot of connectivity over a fixed site universe."""

    def __init__(self, sites: Iterable[int], groups: Sequence[Sequence[int]] | None = None) -> None:
        """Build a view.

        Args:
            sites: the full site universe.
            groups: disjoint components.  Sites missing from every group
                become singleton components (fully isolated).  ``None``
                means fully connected.

        Raises:
            ValueError: if groups overlap or mention unknown sites.
        """
        universe = frozenset(sites)
        if groups is None:
            components = [universe] if universe else []
        else:
            seen: set[int] = set()
            components = []
            for group in groups:
                gset = frozenset(group)
                if not gset:
                    continue
                unknown = gset - universe
                if unknown:
                    raise ValueError(f"unknown sites in partition group: {sorted(unknown)}")
                overlap = gset & seen
                if overlap:
                    raise ValueError(f"sites in multiple groups: {sorted(overlap)}")
                seen |= gset
                components.append(gset)
            components.extend(frozenset([s]) for s in sorted(universe - seen))
        self._universe = universe
        self._components = tuple(components)
        self._component_of = {s: comp for comp in components for s in comp}
        self._sorted: list[list[int]] | None = None

    @property
    def sites(self) -> frozenset[int]:
        """The full site universe."""
        return self._universe

    @property
    def components(self) -> tuple[frozenset[int], ...]:
        """All components, in construction order."""
        return self._components

    @property
    def is_partitioned(self) -> bool:
        """True when the universe is split into more than one component."""
        return len(self._components) > 1

    def component_of(self, site: int) -> frozenset[int]:
        """The component containing ``site``."""
        try:
            return self._component_of[site]
        except KeyError:
            raise ValueError(f"unknown site {site}") from None

    def reachable(self, src: int, dst: int) -> bool:
        """True when ``src`` and ``dst`` are in the same component."""
        return self.component_of(src) is self.component_of(dst)

    def sorted_components(self) -> list[list[int]]:
        """Components as sorted site lists, memoized (do not mutate).

        The rendering every ``partition`` trace record carries; caching
        it on the view means interned views (storm plans replaying the
        same groups) sort once instead of once per event.
        """
        if self._sorted is None:
            self._sorted = [sorted(c) for c in self._components]
        return self._sorted

    def __repr__(self) -> str:
        comps = " | ".join("{" + ",".join(map(str, sorted(c))) + "}" for c in self._components)
        return f"<PartitionView {comps}>"
