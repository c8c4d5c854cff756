"""Random workload / placement / fault generation for sweeps.

All generators take an explicit ``random.Random`` so experiments stay
reproducible (the RNG comes from a named
:class:`~repro.sim.rng.RngRegistry` stream).

Catalog memoization
-------------------

Sweep drivers rebuild their catalog from scratch inside every trial,
yet with ``seeding="offset"`` every grid cell (protocol) replays the
*same* seed sequence — the same catalogs, rebuilt once per cell.
:func:`memoized_catalog` removes the rebuilds without touching a single
RNG draw: the cache key includes the **exact pre-build RNG state**, and
the cached entry stores the catalog *plus the post-build RNG state*,
which a cache hit restores before returning.  The caller's stream is
therefore bit-identical whether the catalog was built or fetched — the
catalog is a pure function of (state, shape), and the skipped draws are
replayed by ``setstate`` instead of by re-drawing.  Entries live in the
per-process :func:`~repro.engine.executor.worker_cache`, so persistent
warm pool workers keep them across sweeps; a small FIFO bound per tag
keeps 10^5-run sweeps from hoarding memory.

A cached catalog is shared by every run that fetches it, which is safe
because a catalog is immutable: a run whose plan joins or leaves sites
builds new catalogs (:meth:`~repro.replication.catalog.ReplicaCatalog.admit_site`
returns the next one) and never changes the cached entry.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.engine.executor import worker_cache
from repro.replication.catalog import CatalogBuilder, ReplicaCatalog
from repro.sim.failures import FailurePlan

#: per-tag FIFO bound of the catalog memo (entries are a catalog plus
#: one Mersenne-Twister state tuple, a few KB each).
CATALOG_MEMO_LIMIT = 128


def memoized_catalog(
    rng: random.Random,
    key: tuple[Any, ...],
    build: Callable[[random.Random], ReplicaCatalog],
) -> ReplicaCatalog:
    """Build — or fetch — a catalog drawn from a shared RNG stream.

    ``key`` names the call site and every shape parameter the builder
    uses (``("heavy-workload", n_sites, n_items, replication)``); the
    full pre-build ``rng.getstate()`` is appended automatically, which
    makes the memo safe unconditionally: a hit is only possible when
    the builder would have received the identical stream, and restoring
    the stored post-build state leaves the caller's subsequent draws
    bit-identical to an actual rebuild (see module docstring).
    """
    memo: dict[Any, tuple[ReplicaCatalog, Any]] = worker_cache(
        ("catalog-memo", key[0]), dict
    )
    full_key = (key, rng.getstate())
    hit = memo.get(full_key)
    if hit is None:
        catalog = build(rng)
        if len(memo) >= CATALOG_MEMO_LIMIT:
            memo.pop(next(iter(memo)))  # FIFO: oldest insertion goes first
        memo[full_key] = (catalog, rng.getstate())
    else:
        catalog, post_state = hit
        rng.setstate(post_state)
    return catalog


def random_catalog(
    rng: random.Random,
    n_sites: int = 8,
    n_items: int = 4,
    replication: int = 4,
) -> ReplicaCatalog:
    """A catalog with ``n_items`` items, each replicated at ``replication``
    random sites with one vote per copy.

    Quorums are drawn uniformly from the valid region: ``w`` from
    ``(v/2, v]`` and ``r`` from ``(v - w, v]`` — i.e. every legal
    Gifford assignment is reachable, not just majority/majority.
    """
    if replication > n_sites:
        raise ValueError("replication cannot exceed the number of sites")
    builder = CatalogBuilder()
    sites = list(range(1, n_sites + 1))
    for i in range(n_items):
        copies = rng.sample(sites, replication)
        v = replication
        w = rng.randint(v // 2 + 1, v)
        r = rng.randint(v - w + 1, v)
        builder.item(f"i{i}", {s: 1 for s in copies}, r=r, w=w)
    return builder.build()


def random_update(
    rng: random.Random,
    catalog: ReplicaCatalog,
    max_items: int = 2,
    value_pool: int = 1000,
) -> tuple[int, dict[str, Any]]:
    """A random update: (origin site, item -> new value).

    The origin is drawn from the sites hosting a copy of the first
    chosen item, mimicking "issue where the data lives".
    """
    n = rng.randint(1, min(max_items, len(catalog.item_names)))
    items = rng.sample(catalog.item_names, n)
    origin = rng.choice(catalog.sites_of(items[0]))
    return origin, {item: rng.randrange(value_pool) for item in items}


def random_partition_groups(
    rng: random.Random,
    sites: list[int],
    n_groups: int = 2,
) -> list[list[int]]:
    """Split ``sites`` into ``n_groups`` non-empty random components."""
    if n_groups > len(sites):
        raise ValueError("more groups than sites")
    shuffled = list(sites)
    rng.shuffle(shuffled)
    # one seed site per group guarantees non-emptiness
    groups: list[list[int]] = [[shuffled[i]] for i in range(n_groups)]
    for site in shuffled[n_groups:]:
        groups[rng.randrange(n_groups)].append(site)
    return [sorted(g) for g in groups]


def wan_regions(n_regions: int, sites_per_region: int) -> list[list[int]]:
    """Contiguous site-id blocks modelling datacenters of a WAN."""
    return [
        list(range(r * sites_per_region + 1, (r + 1) * sites_per_region + 1))
        for r in range(n_regions)
    ]


def wan_catalog(
    rng: random.Random,
    n_regions: int = 4,
    sites_per_region: int = 8,
    n_items: int = 8,
    region_replication: int = 3,
) -> ReplicaCatalog:
    """A geo-replicated catalog over ``n_regions × sites_per_region`` sites.

    Each item places one copy in each of ``region_replication`` random
    regions (the classic WAN layout: survive a region loss, pay
    cross-region quorums for it), on a random site within the region.
    Quorums are drawn from the valid Gifford region as in
    :func:`random_catalog`.
    """
    if region_replication > n_regions:
        raise ValueError("region_replication cannot exceed the number of regions")
    regions = wan_regions(n_regions, sites_per_region)
    builder = CatalogBuilder()
    for i in range(n_items):
        picked = rng.sample(range(n_regions), region_replication)
        copies = [rng.choice(regions[r]) for r in picked]
        v = len(copies)
        w = rng.randint(v // 2 + 1, v)
        r_quorum = rng.randint(v - w + 1, v)
        builder.item(f"i{i}", {s: 1 for s in copies}, r=r_quorum, w=w)
    return builder.build()


def _deal_stragglers(
    rng: random.Random,
    components: list[list[int]],
    straggler_prob: float,
) -> list[tuple[int, int, int]]:
    """Decide straggler defections in one pass over the pre-storm deal.

    Returns ``(site, src_component, dst_component)`` moves.  Every site
    gets exactly one defection draw, judged against the component it was
    *dealt* into — deciding while mutating the components (the old code)
    let a site that defected into a later component be drawn again when
    that component was processed, biasing the straggler rate upward.
    """
    n_components = len(components)
    moves: list[tuple[int, int, int]] = []
    for c, component in enumerate(components):
        if len(component) <= 1:
            continue  # a singleton component has nobody to defect from
        for site in component:
            if rng.random() < straggler_prob:
                dst = rng.choice([j for j in range(n_components) if j != c])
                moves.append((site, c, dst))
    return moves


def region_storm_plan(
    rng: random.Random,
    regions: list[list[int]],
    waves: int = 4,
    first_at: float = 3.0,
    wave_spacing: tuple[float, float] = (8.0, 15.0),
    straggler_prob: float = 0.15,
    heal: bool = True,
) -> FailurePlan:
    """Waves of region-aligned partitionings, then (optionally) a heal.

    Each wave cuts the installation along region boundaries: the
    regions are dealt into 2–4 components, and with probability
    ``straggler_prob`` a site defects to a random other component —
    WAN partitions follow backbone links, but never perfectly.  All
    defections are decided in a single pass over the pre-storm deal
    (see :func:`_deal_stragglers`), so every site defects at most once
    per wave.  Waves land while the previous termination attempt is
    still in flight, so protocols re-enter exactly as in E13, at
    installation scale.
    """
    plan = FailurePlan()
    t = first_at
    for _ in range(waves):
        n_components = rng.choice([2, 2, 3, min(4, len(regions))])
        components: list[list[int]] = [[] for _ in range(n_components)]
        for idx, region in enumerate(rng.sample(regions, len(regions))):
            components[idx % n_components].extend(region)
        for site, src, dst in _deal_stragglers(rng, components, straggler_prob):
            components[src].remove(site)
            components[dst].append(site)
        plan.partition(t, *[sorted(c) for c in components if c])
        t += rng.uniform(*wave_spacing)
    if heal:
        plan.heal(t)
    return plan


def arrival_times(
    rng: random.Random,
    n: int,
    mean_spacing: float = 2.0,
    start: float = 1.0,
) -> list[float]:
    """Poisson-process arrival times for an open transaction workload."""
    t = start
    out = []
    for _ in range(n):
        out.append(t)
        t += rng.expovariate(1.0 / mean_spacing)
    return out


def random_fault_plan(
    rng: random.Random,
    sites: list[int],
    coordinator: int,
    t_window: tuple[float, float] = (1.0, 5.0),
    crash_coordinator: bool = True,
    n_extra_crashes: int = 0,
    n_groups: int = 2,
    heal_at: float | None = None,
) -> FailurePlan:
    """A fault schedule in the paper's model: crashes + one partitioning.

    Args:
        rng: random stream.
        sites: the full site list.
        coordinator: the transaction's origin site.
        t_window: virtual-time interval the faults strike in.
        crash_coordinator: crash the coordinator (the classic trigger).
        n_extra_crashes: additional random participant crashes.
        n_groups: number of partition components.
        heal_at: optionally heal at this time (tests recovery paths).
    """
    lo, hi = t_window
    plan = FailurePlan()
    if crash_coordinator:
        plan.crash(rng.uniform(lo, hi), coordinator)
    pool = [s for s in sites if s != coordinator]
    for victim in rng.sample(pool, min(n_extra_crashes, len(pool))):
        plan.crash(rng.uniform(lo, hi), victim)
    groups = random_partition_groups(rng, sites, min(n_groups, len(sites)))
    plan.partition(rng.uniform(lo, hi), *groups)
    if heal_at is not None:
        plan.heal(heal_at)
    return plan
