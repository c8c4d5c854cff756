"""Declarative workload specifications.

A :class:`WorkloadSpec` describes *what* a transaction stream looks
like — item popularity (uniform or Zipf), read:write mix, transaction
footprint, arrival process, and an optional cross-region access pattern
— independently of *which* driver runs it.  :meth:`WorkloadSpec.compile`
binds the spec to a concrete catalog (and, for cross-region patterns,
to the :func:`~repro.workload.generators.wan_regions` layout) and
returns a :class:`CompiledWorkload` whose methods are exactly the
generator callables the experiment drivers consume.

Determinism contract
--------------------

Every method draws from the caller's ``random.Random`` in a documented
order, and **the default spec shapes replay the historical generators'
draw sequences bit-for-bit**:

* ``footprint=(1, 1)`` with uniform popularity picks the single item
  with one ``rng.choice`` — the exact stream of the pre-spec E17/E18
  drivers' ``rng.choice(catalog.item_names)``.
* a ranged footprint with uniform popularity draws
  ``rng.randint(lo, min(hi, n_items))`` then ``rng.sample`` — the exact
  stream of :func:`~repro.workload.generators.random_update`.
* the origin is ``rng.choice(sites_of(first_item))`` ("issue where the
  data lives"), unless a cross-region draw redirects it.
* optional draws (read/write split, cross-region split) are only taken
  when their knob is nonzero, so enabling a feature never shifts the
  stream of a spec that does not use it.

This is what lets E18 and E21 run on specs while their committed
``BENCH_*.json`` trajectories stay byte-identical.

Zipf picks
----------

A Zipf item pick is the historical cumulative-weight scan — one
``rng.random()`` per draw, O(n) in the catalog size, bit-for-bit the
stream every committed trajectory was pinned on (the weight *total* is
precomputed once at compile time; summation order is unchanged, so the
product ``rng.random() * total`` is the exact float the per-draw
``sum`` used to produce).  A ranged footprint draws without
replacement: each pick removes its item and rescans what is left.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.common.errors import ConfigurationError
from repro.replication.catalog import ReplicaCatalog
from repro.workload.generators import arrival_times

#: item-popularity distributions a spec may choose from.
POPULARITY_MODES = ("uniform", "zipf")

#: arrival processes a spec may choose from.  ``"poisson"`` and
#: ``"fixed"`` are closed-loop (op-count-bounded, arrival times drawn
#: up front); ``"open"`` is the open-loop service mode (duration-
#: bounded, gaps drawn one at a time via ``next_gap``).
ARRIVAL_MODES = ("poisson", "fixed", "open")

@dataclass(frozen=True)
class WorkloadOp:
    """One generated client operation.

    ``kind`` is ``"read"`` (a read-only transaction over ``items``) or
    ``"update"`` (read-modify-write over ``items``).  ``origin`` is the
    site the client issues from.
    """

    kind: str
    items: tuple[str, ...]
    origin: int


@dataclass(frozen=True)
class WorkloadSpec:
    """A declarative transaction workload.

    Args:
        n_txns: transactions in the stream.
        popularity: ``"uniform"`` or ``"zipf"`` item popularity.  Zipf
            ranks items in ``catalog.item_names`` order: the first item
            is the hottest, with weight ``1 / rank**zipf_s``.
        zipf_s: Zipf skew exponent (larger = more skew).
        read_fraction: fraction of read-only transactions (drawn per
            operation; 0 disables the draw entirely).
        footprint: ``(lo, hi)`` items per update transaction.  ``(1, 1)``
            uses the single-``choice`` stream; a ranged footprint draws
            ``randint`` + ``sample`` (the ``random_update`` stream).
        arrival: ``"poisson"`` (closed stream, exponential spacing,
            ``n_txns`` arrivals), ``"fixed"`` (closed, evenly spaced),
            or ``"open"`` (open-loop service: ``rate`` arrivals per
            virtual second sustained for ``duration`` seconds;
            ``n_txns`` is ignored — the stream is duration-bounded).
        mean_spacing: mean (poisson) or exact (fixed) inter-arrival gap.
        start: virtual time of the first arrival.
        rate: open-loop arrival rate (arrivals per virtual second);
            required iff ``arrival="open"``.
        duration: open-loop stream length in virtual seconds; required
            iff ``arrival="open"``.
        rate_schedule: optional piecewise-constant λ(t) for open
            arrivals, as ``((offset, rate), ...)`` steps — ``offset``
            is virtual seconds since ``start``, the first step must
            begin at 0.0, and each step's rate holds until the next
            offset (the last holds to the end).  Enables flash crowds:
            ``((0.0, 1.0), (40.0, 6.0), (55.0, 1.0))`` is a base load
            with a 15-second spike.  ``None`` (default) keeps the
            constant-``rate`` stream — and its draw sequence —
            untouched.
        cross_region: probability an operation originates in a region
            hosting *no copy* of its first item — cross-region quorum
            traffic.  Requires ``regions`` at compile time; 0 disables
            the draw entirely.
        value_pool: value range for direct-update drivers
            (``rng.randrange(value_pool)`` per written item).
    """

    n_txns: int = 60
    popularity: str = "uniform"
    zipf_s: float = 1.2
    read_fraction: float = 0.0
    footprint: tuple[int, int] = (1, 1)
    arrival: str = "poisson"
    mean_spacing: float = 1.5
    start: float = 1.0
    cross_region: float = 0.0
    value_pool: int = 1000
    rate: float | None = None
    duration: float | None = None
    rate_schedule: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.n_txns < 1:
            raise ConfigurationError(f"n_txns must be >= 1, got {self.n_txns}")
        if self.popularity not in POPULARITY_MODES:
            raise ConfigurationError(
                f"popularity must be one of {POPULARITY_MODES}, got {self.popularity!r}"
            )
        if self.zipf_s <= 0:
            raise ConfigurationError(f"zipf_s must be positive, got {self.zipf_s}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError(
                f"read_fraction {self.read_fraction} outside [0, 1]"
            )
        lo, hi = self.footprint
        if lo < 1 or hi < lo:
            raise ConfigurationError(
                f"footprint must satisfy 1 <= lo <= hi, got {self.footprint}"
            )
        if self.arrival not in ARRIVAL_MODES:
            raise ConfigurationError(
                f"arrival must be one of {ARRIVAL_MODES}, got {self.arrival!r}"
            )
        if self.mean_spacing <= 0:
            raise ConfigurationError(
                f"mean_spacing must be positive, got {self.mean_spacing}"
            )
        if not 0.0 <= self.cross_region <= 1.0:
            raise ConfigurationError(
                f"cross_region {self.cross_region} outside [0, 1]"
            )
        if self.value_pool < 1:
            raise ConfigurationError(f"value_pool must be >= 1, got {self.value_pool}")
        if self.arrival == "open":
            if self.rate is None or self.rate <= 0:
                raise ConfigurationError(
                    f"open arrivals need a positive rate, got {self.rate}"
                )
            if self.duration is None or self.duration <= 0:
                raise ConfigurationError(
                    f"open arrivals need a positive duration, got {self.duration}"
                )
        elif self.rate is not None or self.duration is not None:
            raise ConfigurationError(
                "rate/duration only apply to arrival='open', "
                f"got arrival={self.arrival!r}"
            )
        if self.rate_schedule is not None:
            if self.arrival != "open":
                raise ConfigurationError(
                    "rate_schedule only applies to arrival='open', "
                    f"got arrival={self.arrival!r}"
                )
            steps = tuple((float(t), float(r)) for t, r in self.rate_schedule)
            if not steps:
                raise ConfigurationError("rate_schedule cannot be empty")
            if steps[0][0] != 0.0:
                raise ConfigurationError(
                    f"rate_schedule must start at offset 0.0, got {steps[0][0]}"
                )
            for (t0, _), (t1, _) in zip(steps, steps[1:]):
                if t1 <= t0:
                    raise ConfigurationError(
                        "rate_schedule offsets must be strictly increasing, "
                        f"got {t0} then {t1}"
                    )
            if any(r <= 0 for _, r in steps):
                raise ConfigurationError("rate_schedule rates must be positive")
            object.__setattr__(self, "rate_schedule", steps)

    def compile(
        self,
        catalog: ReplicaCatalog,
        regions: Sequence[Sequence[int]] | None = None,
    ) -> "CompiledWorkload":
        """Bind the spec to a catalog (and optionally a region layout)."""
        if self.cross_region > 0 and regions is None:
            raise ConfigurationError(
                "cross_region > 0 needs the wan_regions layout at compile time"
            )
        return CompiledWorkload(self, catalog, regions)


class CompiledWorkload:
    """A :class:`WorkloadSpec` bound to a catalog; the drivers' generator.

    Create via :meth:`WorkloadSpec.compile`.  The methods draw only
    from the ``rng`` passed in, so one compiled workload can serve any
    number of runs.  Everything but :attr:`catalog` is fixed at compile
    time; origins are drawn from :attr:`catalog`, which a
    :class:`~repro.traffic.TrafficEngine` points at its cluster's
    current placement before each draw.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        catalog: ReplicaCatalog,
        regions: Sequence[Sequence[int]] | None,
    ) -> None:
        self.spec = spec
        #: the placement origins are drawn from (see the class docstring)
        self.catalog = catalog
        self._names = catalog.item_names
        if spec.popularity == "zipf":
            self._weights = [
                1.0 / (rank**spec.zipf_s) for rank in range(1, len(self._names) + 1)
            ]
            # the cumulative scan's normalizer, summed once here in the
            # same order the per-draw sum() used, so the product
            # rng.random() * total is bit-identical to the historical
            # per-call recomputation.
            self._weight_total = sum(self._weights)
        else:
            self._weights = None
            self._weight_total = 0.0
        # per-item foreign-site pools for the cross-region pattern: all
        # sites of regions hosting no copy of the item.
        self._foreign: dict[str, list[int]] = {}
        if regions is not None:
            for item in self._names:
                hosts = set(catalog.sites_of(item))
                self._foreign[item] = sorted(
                    site
                    for region in regions
                    if not hosts & set(region)
                    for site in region
                )

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------

    def arrivals(self, rng: random.Random) -> list[float]:
        """The stream's arrival times (poisson draws; fixed draws none).

        Open-arrival specs have no precomputable arrival list — the
        stream is duration-bounded and gaps are drawn one at a time via
        :meth:`next_gap` — so a closed-loop driver handed an open spec
        fails loudly here instead of silently truncating the service.
        """
        spec = self.spec
        if spec.arrival == "open":
            raise ConfigurationError(
                "open-arrival workloads are duration-bounded: drive them "
                "through the open-loop engine (next_gap), not arrivals()"
            )
        if spec.arrival == "poisson":
            return arrival_times(
                rng, spec.n_txns, mean_spacing=spec.mean_spacing, start=spec.start
            )
        return [spec.start + i * spec.mean_spacing for i in range(spec.n_txns)]

    def next_gap(self, rng: random.Random, now: float | None = None) -> float:
        """The next open-loop inter-arrival gap (one ``expovariate``).

        Only meaningful for ``arrival="open"`` specs: the open-loop
        engine draws one gap per arrival event, so the offered stream
        is rate-driven and duration-bounded rather than op-counted.

        With a ``rate_schedule``, ``now`` (the current virtual time)
        selects the step whose rate governs this draw — piecewise-
        constant λ(t) sampled at the arrival instant.  Without one the
        draw is the historical ``expovariate(rate)`` regardless of
        ``now``, so constant-rate streams are byte-identical whether or
        not the caller passes the clock.
        """
        spec = self.spec
        if spec.arrival != "open":
            raise ConfigurationError(
                f"next_gap needs arrival='open', got {spec.arrival!r}"
            )
        if spec.rate_schedule is None:
            return rng.expovariate(spec.rate)
        elapsed = 0.0 if now is None else max(0.0, now - spec.start)
        return rng.expovariate(self.rate_at(elapsed))

    def rate_at(self, elapsed: float) -> float:
        """The scheduled arrival rate ``elapsed`` seconds into the stream.

        Returns the constant ``rate`` when no schedule is set.
        """
        spec = self.spec
        if spec.rate_schedule is None:
            return spec.rate
        rate = spec.rate_schedule[0][1]
        for offset, step_rate in spec.rate_schedule:
            if offset > elapsed:
                break
            rate = step_rate
        return rate

    # ------------------------------------------------------------------
    # item / origin selection
    # ------------------------------------------------------------------

    def _weighted_pick(self, rng: random.Random, weights: list[float], total: float) -> int:
        """Index of one cumulative-scan draw (one ``rng.random()``).

        ``total`` is the caller's normalizer: the precomputed full-list
        total for single picks, the shrunk working list's ``sum`` for
        the without-replacement loop — either way the exact float the
        historical per-call ``sum(weights)`` produced.
        """
        x = rng.random() * total
        acc = 0.0
        for i, weight in enumerate(weights):
            acc += weight
            if x < acc:
                return i
        return len(weights) - 1

    def pick_item(self, rng: random.Random) -> str:
        """One item by popularity (uniform: one ``choice``; zipf: one
        ``random``)."""
        if self._weights is None:
            return rng.choice(self._names)
        return self._names[self._weighted_pick(rng, self._weights, self._weight_total)]

    def pick_items(self, rng: random.Random) -> list[str]:
        """An update transaction's item footprint, first item first."""
        lo, hi = self.spec.footprint
        if (lo, hi) == (1, 1):
            return [self.pick_item(rng)]
        n = rng.randint(lo, min(hi, len(self._names)))
        if self._weights is None:
            return rng.sample(self._names, n)
        names = list(self._names)
        weights = list(self._weights)
        picked: list[str] = []
        for __ in range(n):  # weighted, without replacement
            i = self._weighted_pick(rng, weights, sum(weights))
            picked.append(names.pop(i))
            weights.pop(i)
        return picked

    def pick_origin(self, rng: random.Random, items: Sequence[str]) -> int:
        """The issuing site for ``items``.

        Default: a random host of the first item ("issue where the data
        lives").  With ``cross_region`` enabled, first one draw decides
        whether this operation crosses regions; if it does (and some
        region hosts no copy), the origin comes from such a region and
        every quorum the transaction needs is remote.
        """
        item = items[0]
        if self.spec.cross_region > 0:
            spanning = rng.random() < self.spec.cross_region
            foreign = self._foreign.get(item, [])
            if spanning and foreign:
                return rng.choice(foreign)
        return rng.choice(self.catalog.sites_of(item))

    # ------------------------------------------------------------------
    # the driver-facing draws
    # ------------------------------------------------------------------

    def next_op(self, rng: random.Random) -> WorkloadOp:
        """The next client operation (read/update split, items, origin)."""
        spec = self.spec
        if spec.read_fraction > 0 and rng.random() < spec.read_fraction:
            items = [self.pick_item(rng)]
            return WorkloadOp("read", tuple(items), self.pick_origin(rng, items))
        items = self.pick_items(rng)
        return WorkloadOp("update", tuple(items), self.pick_origin(rng, items))

    def next_update(self, rng: random.Random) -> tuple[int, dict[str, Any]]:
        """A direct update: ``(origin, item -> new value)``.

        With a uniform ranged footprint and no cross-region pattern this
        is draw-for-draw :func:`~repro.workload.generators.random_update`
        (the E21 stream).
        """
        items = self.pick_items(rng)
        origin = self.pick_origin(rng, items)
        return origin, {item: rng.randrange(self.spec.value_pool) for item in items}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledWorkload {self.spec!r} items={len(self._names)}>"
