"""Failure injection (system S3).

The paper's fault model is: arbitrary concurrent *site failures*, *lost
messages*, and *network partitioning*.  :class:`FailurePlan` describes a
schedule of such faults declaratively; :class:`FailureInjector` arms the
schedule on a scheduler and applies each fault to the network / site
registry at its virtual time.

The full fault model, fail-stop and gray:

====================  =============  ==========  ==========================
action                wire name      class       effect
====================  =============  ==========  ==========================
``CrashSite``         ``crash``      fail-stop   site down: volatile state
                                                 lost, timers cancelled,
                                                 messages dropped
``RecoverSite``       ``recover``    fail-stop   site back up via WAL replay
``PartitionNetwork``  ``partition``  fail-stop   disjoint components; cross-
                                                 component messages dropped
``HealNetwork``       ``heal``       fail-stop   all partitions and link
                                                 loss removed
``SetLinkLoss``       ``sever``      gray        directed link drops messages
                                                 with probability ``p``
                                                 (``p=1``: severed)
``DegradeSite``       ``degrade``    gray        site slow-but-alive: a
                                                 multiplicative latency
                                                 overlay on every message
                                                 the site sends or receives
``RestoreSite``       ``restore``    gray        degradation overlay removed
``FlapLink``          ``flap``       gray        deterministic sever/heal
                                                 oscillation of one directed
                                                 link
``JoinSite``          ``join``       membership  brand-new site registered,
                                                 next catalog built (elastic
                                                 scale-out)
``LeaveSite``         ``leave``      membership  graceful decommission:
                                                 drain in-flight txns, hand
                                                 quorum votes off, deregister
====================  =============  ==========  ==========================

Fail-stop actions silence a site or a cut entirely; gray actions keep
everything *alive but wrong* — slow sites, flapping links, lossy paths —
which is where commit protocols actually spend their bad days.
Membership actions need the database layer, so the injector delegates
them to a handler the cluster wires in.

Keeping the plan declarative (a list of timestamped actions) lets the
experiment harness generate random fault schedules from a seed, print
them alongside results, and replay any interesting one exactly.

An action kind is declared once, on its class: its ``wire`` name, its
``effect`` (or an ``apply`` of its own) and what is left of it on a
smaller site universe (``within``).  The wire codec (:func:`encode_action` /
:func:`decode_action`) knows only :data:`ACTIONS`: a record's keys are
the dataclass fields, checked against their declared types.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Collection, Mapping, Sequence, get_args, get_origin
from typing import get_type_hints

from repro.common.errors import StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.sim.scheduler import Scheduler

#: wire name -> action class.
ACTIONS: dict[str, type["FailureAction"]] = {}


class FailureAction:
    """One fault, applied at virtual ``time``: the base of the ten kinds,
    each a frozen dataclass whose first field is ``time``.  (The bases
    are plain classes: a dataclass costs every ``import repro`` ~1 ms.)"""

    def __init_subclass__(cls) -> None:
        if "wire" in vars(cls):
            ACTIONS[cls.wire] = cls

    def apply(self, injector: "FailureInjector") -> None:
        """Carry the fault out: by default, the network method the class
        names as its ``effect``, called with the fields after ``time``."""
        getattr(injector.network, self.effect)(*(getattr(self, f.name) for f in fields(self)[1:]))

    def within(self, sites: Collection[int]) -> "FailureAction | None":
        """What is left of the action when only ``sites`` exist
        (``None``: nothing).  Site-agnostic actions survive whole."""
        return self


class _SiteAction(FailureAction):
    """An action on one ``site``: gone with its site."""

    def within(self, sites: Collection[int]) -> "FailureAction | None":
        return self if self.site in sites else None


class _LinkAction(FailureAction):
    """An action on the directed link ``src -> dst``: gone with either
    endpoint (the link never exists)."""

    def within(self, sites: Collection[int]) -> "FailureAction | None":
        return self if self.src in sites and self.dst in sites else None


@dataclass(frozen=True)
class CrashSite(_SiteAction):
    """Crash ``site`` at ``time`` (volatile state lost, timers cancelled)."""

    time: float
    site: int
    wire, effect = "crash", "crash_site"


@dataclass(frozen=True)
class RecoverSite(_SiteAction):
    """Recover ``site`` at ``time`` (WAL-based state reconstruction)."""

    time: float
    site: int
    wire, effect = "recover", "recover_site"


@dataclass(frozen=True)
class PartitionNetwork(FailureAction):
    """Partition the network into the given disjoint site groups at ``time``.

    Sites not listed in any group form an implicit extra group each (a
    fully isolated site), matching the usual "disjoint components"
    definition in the paper's introduction.
    """

    time: float
    groups: tuple[tuple[int, ...], ...]
    # the tuples pass through verbatim: the network interns views by
    # group signature, so a replayed plan action is a cache hit with no
    # per-event list copies.
    wire, effect = "partition", "set_partition"

    def within(self, sites: Collection[int]) -> "PartitionNetwork | None":
        """Groups lose their removed members and an emptied group goes;
        with no group left the event goes too — every survivor would be
        an implicit singleton, which the recorded event never meant."""
        groups = tuple(
            kept for group in self.groups if (kept := tuple(s for s in group if s in sites))
        )
        return PartitionNetwork(self.time, groups) if groups else None


@dataclass(frozen=True)
class HealNetwork(FailureAction):
    """Remove all partitions at ``time`` (every site reachable again)."""

    time: float
    wire, effect = "heal", "heal"


@dataclass(frozen=True)
class SetLinkLoss(_LinkAction):
    """From ``time`` on, drop messages ``src -> dst`` with probability ``p``.

    ``p=1.0`` models a severed directed link (used to reproduce Example 3
    where "all the messages between site2 and site3 ... are somehow lost").
    """

    time: float
    src: int
    dst: int
    p: float
    wire, effect = "sever", "set_link_loss"


@dataclass(frozen=True)
class JoinSite(_SiteAction):
    """Register a brand-new site at ``time`` (elastic membership).

    ``copies`` lists the (item, votes) pairs the joining site
    contributes to the replica catalog (empty: a pure coordinator).
    ``near`` names an existing site whose partition component the new
    site is wired into; ``None`` leaves it wherever registration puts
    it — the universal component on a healed network, a singleton
    under an active partition.

    Unlike the fault actions, a join needs the *database* layer (WAL,
    store, lock manager, protocol engine, catalog), so the injector
    delegates it to a membership handler — the cluster wires one in.
    """

    time: float
    site: int
    copies: tuple[tuple[str, int], ...] = ()
    near: int | None = None
    wire = "join"

    def apply(self, injector: "FailureInjector") -> None:
        injector.change_membership(self)

    def within(self, sites: Collection[int]) -> "JoinSite":
        """A join brings its own site, so it survives; a ``near`` anchor
        that was removed re-anchors to ``None``."""
        if self.near is None or self.near in sites:
            return self
        return JoinSite(self.time, self.site, self.copies, None)


@dataclass(frozen=True)
class DegradeSite(_SiteAction):
    """From ``time`` on, stretch ``site``'s message latency by ``factor``.

    A gray failure: the site stays alive and keeps voting, but every
    message it sends or receives samples its delivery delay as usual and
    is then multiplied by ``factor`` (factors compose multiplicatively
    when both endpoints are degraded).  ``factor=1.0`` is an exact no-op;
    local (self) deliveries stay immediate.
    """

    time: float
    site: int
    factor: float
    wire, effect = "degrade", "degrade_site"


@dataclass(frozen=True)
class RestoreSite(_SiteAction):
    """Remove ``site``'s latency-degradation overlay at ``time``."""

    time: float
    site: int
    wire, effect = "restore", "restore_site"


@dataclass(frozen=True)
class FlapLink(_LinkAction):
    """Oscillate the directed link ``src -> dst`` between severed and healed.

    Starting at ``time``, the link is severed for ``duty * period``
    virtual seconds of every ``period``-second cycle, for ``cycles``
    cycles, then left healed.  The oscillation rides handle-free
    ``call_fixed`` entries computed up front, so a replayed plan
    reproduces the exact same sever/heal edge times.
    """

    time: float
    src: int
    dst: int
    period: float
    duty: float = 0.5
    cycles: int = 3
    wire = "flap"

    def apply(self, injector: "FailureInjector") -> None:
        """Schedule the whole sever/heal oscillation up front.

        All edges ride ``call_fixed`` at precomputed absolute times, so
        the flap is a pure function of the action — bounded (``cycles``
        cycles then healed for good) and byte-identical on replay.  The
        first sever fires via the scheduler too (never inline), keeping
        event ordering independent of when the plan was armed.
        """
        if self.period <= 0:
            raise ValueError(f"flap period must be positive, got {self.period}")
        if not 0.0 < self.duty <= 1.0:
            raise ValueError(f"flap duty must be in (0, 1], got {self.duty}")
        if self.cycles < 1:
            raise ValueError(f"flap cycles must be >= 1, got {self.cycles}")
        call_fixed, set_link_loss = injector.scheduler.call_fixed, injector.network.set_link_loss
        for k in range(self.cycles):
            start = self.time + k * self.period
            call_fixed(start, set_link_loss, self.src, self.dst, 1.0)
            call_fixed(start + self.duty * self.period, set_link_loss, self.src, self.dst, 0.0)


@dataclass(frozen=True)
class LeaveSite(_SiteAction):
    """Gracefully decommission ``site`` at ``time``.

    The dual of :class:`JoinSite`: the site drains its in-flight
    transactions, hands its quorum votes off (the next catalog
    re-derives the survivors' quorums), then deregisters from the network.  Unlike a
    crash, no state is lost and counters record a *leave*, not a
    failure.  Needs the membership handler, like joins.
    """

    time: float
    site: int
    wire = "leave"

    def apply(self, injector: "FailureInjector") -> None:
        injector.change_membership(self)


#: field type -> the JSON types a recorded value of it may have.
_SCALARS = {float: (int, float), int: int, str: str, type(None): type(None)}


def _from_wire(value: Any, hint: Any) -> Any:
    """``value`` as a field of type ``hint`` (a JSON list becomes the
    tuple the field declares); ``TypeError`` when it is no such thing."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if isinstance(value, list) and args[-1] is ...:
            return tuple(_from_wire(v, args[0]) for v in value)
        if isinstance(value, list) and len(value) == len(args):
            return tuple(map(_from_wire, value, args))
    elif args:  # ``X | None``
        return _from_wire(value, args[value is None])
    elif isinstance(value, _SCALARS[hint]) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected {getattr(hint, '__name__', hint)}, got {value!r}")


def _to_wire(value: Any) -> Any:
    return [_to_wire(v) for v in value] if isinstance(value, tuple) else value


def encode_action(action: FailureAction) -> dict[str, Any]:
    """One JSON-able dict per fault action: its wire name under
    ``action``, then its fields under their own names."""
    if type(action) not in ACTIONS.values():
        raise StoreError(f"cannot encode failure action {action!r}")
    record = {"action": action.wire}
    for f in fields(action):
        record[f.name] = _to_wire(getattr(action, f.name))
    return record


def decode_action(payload: dict[str, Any]) -> FailureAction:
    """Inverse of :func:`encode_action`.

    Raises:
        StoreError: not an object, an unknown kind, a missing or
            unknown key, or a value that is not of its field's type —
            a record that loads is one the injector can apply.
    """
    kind = payload.get("action") if isinstance(payload, dict) else None
    cls = ACTIONS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise StoreError(f"unknown failure action kind {kind!r} in {payload!r}")
    hints, values = get_type_hints(cls), {}
    for f in fields(cls):
        if f.name in payload:
            try:
                values[f.name] = _from_wire(payload[f.name], hints[f.name])
            except TypeError as exc:
                raise StoreError(f"failure action {kind!r} field {f.name!r}: {exc}") from None
        elif f.default is MISSING:
            raise StoreError(f"failure action {kind!r} missing field {f.name!r}")
    unknown = sorted(set(payload) - set(values) - {"action"})
    if unknown:
        raise StoreError(f"failure action {kind!r} has unknown keys {unknown}")
    return cls(**values)


@dataclass
class FailurePlan:
    """An ordered schedule of fault actions for one run."""

    actions: list[FailureAction] = field(default_factory=list)

    def _add(self, action: FailureAction) -> "FailurePlan":
        self.actions.append(action)
        return self

    def crash(self, time: float, site: int) -> "FailurePlan":
        """Append a site crash; returns self for chaining."""
        return self._add(CrashSite(time, site))

    def recover(self, time: float, site: int) -> "FailurePlan":
        """Append a site recovery; returns self for chaining."""
        return self._add(RecoverSite(time, site))

    def partition(self, time: float, *groups: Sequence[int]) -> "FailurePlan":
        """Append a partition event; returns self for chaining."""
        return self._add(PartitionNetwork(time, tuple(tuple(g) for g in groups)))

    def heal(self, time: float) -> "FailurePlan":
        """Append a heal event; returns self for chaining."""
        return self._add(HealNetwork(time))

    def sever(self, time: float, src: int, dst: int, p: float = 1.0) -> "FailurePlan":
        """Append a directed link-loss event; returns self for chaining."""
        return self._add(SetLinkLoss(time, src, dst, p))

    def sever_both(self, time: float, a: int, b: int, p: float = 1.0) -> "FailurePlan":
        """Sever the link in both directions."""
        return self.sever(time, a, b, p).sever(time, b, a, p)

    def join(
        self,
        time: float,
        site: int,
        copies: Mapping[str, int] | None = None,
        near: int | None = None,
    ) -> "FailurePlan":
        """Append an elastic-membership join; returns self for chaining.

        ``copies`` maps item name to the votes the joining copy holds;
        ``near`` places the new site into an existing site's partition
        component (it joins as a singleton otherwise while the network
        is partitioned).
        """
        return self._add(JoinSite(time, site, tuple(sorted((copies or {}).items())), near))

    def degrade(self, time: float, site: int, factor: float) -> "FailurePlan":
        """Append a gray slow-site degradation; returns self for chaining."""
        return self._add(DegradeSite(time, site, factor))

    def restore(self, time: float, site: int) -> "FailurePlan":
        """Append a degradation removal; returns self for chaining."""
        return self._add(RestoreSite(time, site))

    def flap(
        self,
        time: float,
        src: int,
        dst: int,
        period: float,
        duty: float = 0.5,
        cycles: int = 3,
    ) -> "FailurePlan":
        """Append a deterministic link flap; returns self for chaining."""
        return self._add(FlapLink(time, src, dst, period, duty, cycles))

    def leave(self, time: float, site: int) -> "FailurePlan":
        """Append a graceful site decommission; returns self for chaining."""
        return self._add(LeaveSite(time, site))

    def __len__(self) -> int:
        return len(self.actions)

    def describe(self) -> str:
        """One line per action, in schedule order (for experiment logs)."""
        return "\n".join(f"t={a.time:g}: {a}" for a in sorted(self.actions, key=lambda a: a.time))


class FailureInjector:
    """Arms a :class:`FailurePlan` on a scheduler against a network.

    The injector only talks to the :class:`~repro.net.network.Network`
    facade (which owns both connectivity and the site registry), so it is
    reusable by every protocol and experiment.
    """

    def __init__(
        self,
        scheduler: "Scheduler",
        network: "Network",
        membership: Callable[[JoinSite | LeaveSite], None] | None = None,
    ) -> None:
        """Wire the injector.

        Args:
            scheduler: the run's scheduler.
            network: the network facade faults apply to.
            membership: handler for :class:`JoinSite` / :class:`LeaveSite`
                actions (membership changes build or drain database
                state the network knows nothing about;
                :class:`~repro.db.cluster.Cluster` passes its
                dispatcher).  Plans containing membership actions fail
                to apply without one.
        """
        self.scheduler = scheduler
        self.network = network
        self._membership = membership
        self.applied: list[FailureAction] = []

    def arm(self, plan: FailurePlan) -> None:
        """Schedule every action in the plan at its virtual time.

        Armed actions are never cancelled — a plan is the run's destiny —
        so they ride the scheduler's handle-free ``call_fixed`` entries.
        """
        for action in plan.actions:
            self.scheduler.call_fixed(action.time, self._apply, action)

    def _apply(self, action: FailureAction) -> None:
        action.apply(self)
        self.applied.append(action)

    def change_membership(self, action: JoinSite | LeaveSite) -> None:
        """Hand a membership action to the handler the cluster wired in."""
        if self._membership is None:
            raise TypeError(
                f"{type(action).__name__} actions need a membership handler; "
                "arm the plan through a Cluster (or pass membership= to "
                "the injector)"
            )
        self._membership(action)
