"""A commit engine's per-step bookkeeping changes cost, not behaviour.

Three pieces of engine state replace work that grew with a
transaction's history, and each is held here against the reference it
replaced, kept in this file:

* **Engine-owned timers.**  A record's timers and a coordination
  round's vote and ack windows are one ``Scheduler.call_at`` each,
  registered only in the engine.  The reference routes every one of
  them through the node again — added to ``Node._timers``, fired
  through ``Node._guarded``, cancelled by ``Node.cancel_timers`` — by
  handing each engine a scheduler stand-in built from ``Node.set_timer``'s
  body.  Random closed loops and storms with crash, recover and leave
  cut points must leave the same events, trace, WAL and message counts
  both ways, and no engine callback may run on a down site or on a site
  that was forced out (one run on a site that left gracefully acts on
  nothing).
* **Folded tallies.**  The waiting set of a round and the
  :class:`~repro.protocols.qtp.quorums.QuorumTally` a quorum rule builds
  must decide at the very vote or ack at which the recount — ``all(votes)``
  over the participants, ``set(participants) <= ackers``, the rule's
  own ``commits`` (w(x) votes for every x, r(x) votes for some x, the
  primary of every x) — first holds, over hypothesis catalogs with
  weighted votes, any primaries and repeated replies.
* **The undecided index.**  After every scheduler step of random runs,
  each engine's ``undecided`` equals a scan of its ``records()`` for the
  records not yet decided, in the same order.
"""

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import PROTOCOL_NAMES, Cluster, FailurePlan, FixedDelay, UniformDelay
from repro.common.errors import SiteDownError
from repro.net.message import Message
from repro.net.node import _NO_TIMERS
from repro.protocols.base import CommitProtocolEngine, _CoordinationRound
from repro.protocols.qtp.generalized import PrimaryTerminationRule
from repro.protocols.qtp.quorums import TerminationRule1, TerminationRule2
from repro.replay.recorder import cluster_counters
from repro.replication.catalog import ItemConfig, ReplicaCatalog
from repro.sim.scheduler import Scheduler
from repro.traffic import TrafficEngine
from repro.workload.generators import (
    random_catalog,
    random_partition_groups,
    region_storm_plan,
    wan_catalog,
    wan_regions,
)
from repro.workload.spec import WorkloadSpec

PROTOCOLS = list(PROTOCOL_NAMES)
REGIONS = wan_regions(4, 8)
ALL_SITES = [s for region in REGIONS for s in region]


# ----------------------------------------------------------------------
# the runs: a closed loop and a storm, each with crash / recover / leave
# ----------------------------------------------------------------------

CUTS = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "partition_at": st.floats(5.0, 30.0),
        "crash_at": st.floats(2.0, 60.0),
        "down_for": st.floats(1.0, 30.0),
        "leave_after": st.floats(1.0, 30.0),
    }
)


def closed_loop(seed, protocol, partition_at, crash_at, down_for, leave_after):
    """A 9-site closed loop: a long partition, a crash / recover pair
    and a leave, under the partition, of a site on the minority side,
    which then often has transactions in doubt and is forced out."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, n_sites=9, n_items=24, replication=3)
    sites = sorted(catalog.all_sites())
    minority, majority = random_partition_groups(rng, sites, 2)
    small, big = sorted((minority, majority), key=len)
    plan = FailurePlan().partition(partition_at, small, big).heal(partition_at + 60.0)
    crashed = big[0]
    plan.crash(crash_at, crashed).recover(crash_at + down_for, crashed)
    plan.leave(partition_at + leave_after, small[-1])
    compiled = WorkloadSpec(n_txns=40, mean_spacing=1.5, footprint=(1, 3)).compile(catalog)
    cluster = Cluster(catalog, protocol=protocol, seed=seed, delay_model=UniformDelay(0.2, 1.0))
    cluster.arm_failures(plan)
    engine = TrafficEngine(cluster, compiled, random.Random(seed))
    return cluster, engine.run_closed


def storm(seed, protocol, partition_at, crash_at, down_for, leave_after):
    """One multi-item update on a 32-site WAN cluster under two
    partition waves; its coordinator crashes and recovers, and a site
    holding a copy leaves once the waves are over."""
    rng = random.Random(seed)
    catalog = wan_catalog(rng, n_regions=4, sites_per_region=8, n_items=16, region_replication=3)
    compiled = WorkloadSpec(n_txns=1, footprint=(2, 4)).compile(catalog, REGIONS)
    submit_state = rng.getstate()
    origin, _writes = compiled.next_update(rng)
    plan = region_storm_plan(rng, REGIONS, waves=2, heal=True)
    plan.crash(crash_at / 20.0, origin).recover(crash_at / 20.0 + down_for, origin)
    leaver = next(s for s in reversed(catalog.all_sites()) if s != origin)
    plan.leave(max(a.time for a in plan.actions) + leave_after, leaver)
    cluster = Cluster(
        catalog, protocol=protocol, seed=seed, delay_model=FixedDelay(1.0), extra_sites=ALL_SITES
    )
    submit_rng = random.Random()
    submit_rng.setstate(submit_state)
    engine = TrafficEngine(cluster, compiled, submit_rng)
    engine.submit_now()
    cluster.arm_failures(plan)
    return cluster, engine.run_to_quiescence


def left_behind(cluster):
    """Everything a run leaves to read."""
    every = {**cluster.sites, **cluster.departed}
    return {
        "events_run": cluster.scheduler.events_run,
        "dump": cluster.tracer.dump(),
        "counters": cluster_counters(cluster),
        "message_counts": cluster.message_counts(),
        "wal_counts": {site_id: len(list(site.wal)) for site_id, site in every.items()},
        "wals": {site_id: [str(record) for record in site.wal] for site_id, site in every.items()},
    }


# ----------------------------------------------------------------------
# (a) engine-owned timers against the node registry
# ----------------------------------------------------------------------


class _NodeRegistry:
    """Reference: an engine's scheduler, with every cancellable timer
    armed the way ``Node.set_timer`` arms it — refused on a down site,
    appended to the node's timer list, fired through ``Node._guarded``."""

    def __init__(self, node, scheduler):
        self._node = node
        self._scheduler = scheduler
        self.armed = 0

    @property
    def now(self):
        return self._scheduler.now

    def call_at(self, time, fn, *args, label=""):
        node = self._node
        if not node.alive:
            raise SiteDownError(f"site {node.node_id} is down")
        self.armed += 1
        handle = self._scheduler.call_at(
            time, node._guarded, fn, args, label=label or f"timer@{node.node_id}"
        )
        # crash() cancels these; the node's first timer builds its list
        if node._timers is _NO_TIMERS:
            node._timers = [handle]
        else:
            node._timers.append(handle)
        return handle

    def call_fixed_after(self, delay, fn, *args):
        self._scheduler.call_fixed_after(delay, fn, *args)


@contextlib.contextmanager
def node_registry_arm():
    """Every engine timer goes through its node, as it did; the engine
    keeps no registry a crash or a leave would have to cancel."""
    registries = []
    init = CommitProtocolEngine.__init__

    def registering_init(self, node, *args, **kwargs):
        init(self, node, *args, **kwargs)
        self._scheduler = _NodeRegistry(node, self._scheduler)
        registries.append(self._scheduler)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(CommitProtocolEngine, "__init__", registering_init))
        stack.enter_context(mock.patch.object(CommitProtocolEngine, "cancel_timers", lambda self: None))
        yield registries


@contextlib.contextmanager
def watched_engine_callbacks(cluster_box, violations, graceful_runs):
    """Wrap each engine timer callback the shipped scheduler queues with
    a check of the site it runs on (wrapping changes no time or order)."""
    call_at, call_fixed = Scheduler.call_at, Scheduler.call_fixed

    def watch(fn):
        engine = getattr(fn, "__self__", None)
        if not isinstance(engine, CommitProtocolEngine):
            return fn

        def watched(*args):
            cluster = cluster_box[0]
            node = engine.node
            if not node.alive:
                violations.append(("down", node.node_id, fn.__name__))
            departed = node.node_id in cluster.departed
            before = (len(cluster.tracer), cluster.network.sent)
            fn(*args)
            if departed:
                graceful_runs.append(node.node_id)
                if (len(cluster.tracer), cluster.network.sent) != before:
                    violations.append(("departed-acted", node.node_id, fn.__name__))

        return watched

    def watching_call_at(self, time, fn, *args, label=""):
        return call_at(self, time, watch(fn), *args, label=label)

    def watching_call_fixed(self, time, fn, *args):
        call_fixed(self, time, watch(fn), *args)

    with mock.patch.object(Scheduler, "call_at", watching_call_at):
        with mock.patch.object(Scheduler, "call_fixed", watching_call_fixed):
            yield


def forced_out(cluster):
    return {rec.site for rec in cluster.tracer.where(category="leave-forced")}


def both_ways(build, protocol, cuts):
    with node_registry_arm() as registries:
        reference_cluster, run = build(protocol=protocol, **cuts)
        run()
    reference = left_behind(reference_cluster)
    cluster_box, violations, graceful_runs = [], [], []
    with watched_engine_callbacks(cluster_box, violations, graceful_runs):
        cluster, run = build(protocol=protocol, **cuts)
        cluster_box.append(cluster)
        run()
    shipped = left_behind(cluster)
    assert shipped == reference
    # the reference routed timers through the nodes; the shipped run
    # left every node's timer list empty
    assert sum(registry.armed for registry in registries) > 0
    assert all(not site._timers for site in cluster.sites.values())
    assert violations == []
    assert not forced_out(cluster) & set(graceful_runs)
    return cluster


class TestEngineTimersEqualNodeTimers:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @given(cuts=CUTS)
    @settings(max_examples=20, deadline=None)
    def test_closed_loop(self, protocol, cuts):
        cluster = both_ways(closed_loop, protocol, cuts)
        assert cluster.network.sent > 10  # the loop did run

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @given(cuts=CUTS)
    @settings(max_examples=12, deadline=None)
    def test_storm(self, protocol, cuts):
        cluster = both_ways(storm, protocol, cuts)
        assert cluster.network.sent > 10  # the storm did run

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("seed", range(3))
    def test_a_forced_leave_cancels_the_engine_timers(self, protocol, seed):
        # a participant in W, its watchdog armed, is forced out after a
        # single drain poll: its engine timers die with the leave
        pending_at_leave = []
        original = CommitProtocolEngine.cancel_timers

        def counting(self):
            # a decided record has dropped its table (None)
            handles = [h for record in self.records().values() for h in (record._timers or {}).values()]
            for round_ in self._rounds.values():
                handles += [round_.vote_window, round_.ack_window]
            pending_at_leave.append(sum(1 for h in handles if h is not None and h.active))
            original(self)

        with mock.patch.object(CommitProtocolEngine, "cancel_timers", counting):
            cluster = both_ways(forced_leave, protocol, dict(seed=seed))
        assert forced_out(cluster) == set(cluster.departed)
        assert pending_at_leave and pending_at_leave[-1] > 0


def forced_leave(seed, protocol):
    """One update; at t=1.5, with the vote-reqs delivered, a participant
    other than the origin leaves with one drain poll, 0.5 later."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, n_sites=6, n_items=4, replication=3)
    cluster = Cluster(catalog, protocol=protocol, seed=seed, delay_model=FixedDelay(1.0))
    item = catalog.item_names[0]
    origin, leaver = catalog.sites_of(item)[:2]

    def run():
        cluster.update(origin, {item: 1})
        cluster.run_until(1.5)
        cluster.leave_site(leaver, drain_interval=0.5, drain_polls=1)
        cluster.run()

    return cluster, run


# ----------------------------------------------------------------------
# (b) folded vote and ack tallies against a recount
# ----------------------------------------------------------------------


@st.composite
def weighted_catalogs(draw):
    """1-4 items over sites 1-6 with 1-3 votes per copy, any legal
    (r, w) pair and any host (or the default) as the primary."""
    configs = []
    for index in range(draw(st.integers(1, 4))):
        hosts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5, unique=True))
        copies = {site: draw(st.integers(1, 3)) for site in hosts}
        v = sum(copies.values())
        w = draw(st.integers(v // 2 + 1, v))
        r = draw(st.integers(v - w + 1, v))
        primary = draw(st.none() | st.sampled_from(hosts))
        configs.append(ItemConfig(f"i{index}", copies, r, w, primary))
    return ReplicaCatalog(configs)


@st.composite
def replies(draw):
    """Sites 1-7 (7 hosts nothing) in any order, some repeated, cut at
    any point: every prefix from none to all of them."""
    stream = list(draw(st.permutations(range(1, 8))))
    for _ in range(draw(st.integers(0, 4))):
        stream.insert(draw(st.integers(0, len(stream))), draw(st.integers(1, 7)))
    return stream[: draw(st.integers(0, len(stream)))]


REPLIES = replies()


#: the quorum rules, each building the commit tally of its commit protocol
QUORUM_RULES = [TerminationRule1(), TerminationRule2(), PrimaryTerminationRule()]


class TestQuorumTallyEqualsRecount:
    @pytest.mark.parametrize("rule", QUORUM_RULES, ids=lambda rule: rule.name)
    @given(catalog=weighted_catalogs(), acks=REPLIES, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_prefix_of_acks(self, rule, catalog, acks, data):
        # any write set, the empty one included
        items = sorted(data.draw(st.sets(st.sampled_from(catalog.item_names))))
        tally = rule.commit_tally(catalog, items)
        ackers = set()
        assert tally.met() == rule.commits(items, ackers, None, catalog)
        for site in acks:
            if site not in ackers:  # the engine adds each acker once
                ackers.add(site)
                tally.add(site)
            assert tally.met() == rule.commits(items, ackers, None, catalog)

    @pytest.mark.parametrize("rule", QUORUM_RULES, ids=lambda rule: rule.name)
    @given(catalog=weighted_catalogs())
    @settings(max_examples=20, deadline=None)
    def test_no_written_item_never_commits(self, rule, catalog):
        tally = rule.commit_tally(catalog, [])
        for site in catalog.all_sites():
            tally.add(site)
        assert not tally.met()
        assert not rule.commits([], set(catalog.all_sites()), None, catalog)


def _cluster_for(catalog, protocol):
    return Cluster(catalog, protocol=protocol, seed=0, extra_sites=range(1, 8))


def _recount(protocol, catalog, participants, ackers):
    if protocol == "qtp1":
        return all(catalog.votes(x, ackers) >= catalog.w(x) for x in catalog.item_names)
    if protocol == "qtp2":
        return any(catalog.votes(x, ackers) >= catalog.r(x) for x in catalog.item_names)
    if protocol == "qtpp":
        return all(catalog.primary(x) in ackers for x in catalog.item_names)
    return set(participants) <= ackers


class TestRoundTalliesEqualRecount:
    @pytest.mark.parametrize("protocol", ["3pc", "skq", "qtp1", "qtp2", "qtpp"])
    @given(catalog=weighted_catalogs(), acks=REPLIES)
    @settings(max_examples=40, deadline=None)
    def test_commit_at_the_first_ack_the_recount_allows(self, protocol, catalog, acks):
        cluster = _cluster_for(catalog, protocol)
        engine = cluster.sites[7].ensure_engine()
        participants = catalog.all_sites()
        writes = {x: (1, 1) for x in catalog.item_names}
        round_ = _CoordinationRound("T7.1", writes, participants, catalog, phase="preparing")
        engine._rounds["T7.1"] = round_
        decided = []
        with mock.patch.object(
            type(engine), "_coord_decide", lambda self, r, outcome: decided.append(outcome)
        ):
            engine._all_voted_yes(round_)
            ackers = set()
            expected = None
            for index, site in enumerate(acks):
                ackers.add(site)
                if expected is None and _recount(protocol, catalog, participants, ackers):
                    expected = index
                engine._on_prepare_ack(Message(site, 7, engine.mtypes["ack"], "T7.1", {}))
                # the engine commits exactly when the recount first holds
                assert decided == (["commit"] if expected is not None else [])
                if decided:
                    round_.phase = "done"

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @given(catalog=weighted_catalogs(), voters=REPLIES, no_at=st.integers(0, 12) | st.none())
    @settings(max_examples=40, deadline=None)
    def test_votes_move_on_at_the_first_vote_the_recount_allows(
        self, protocol, catalog, voters, no_at
    ):
        # yes votes, and one no at ``no_at`` if that is within the stream
        votes = [(site, index != no_at) for index, site in enumerate(voters)]
        cluster = _cluster_for(catalog, protocol)
        engine = cluster.sites[7].ensure_engine()
        participants = catalog.all_sites()
        writes = {x: (1, 1) for x in catalog.item_names}
        round_ = _CoordinationRound(
            "T7.1", writes, participants, catalog, waiting=set(participants)
        )
        engine._rounds["T7.1"] = round_
        steps = []
        kind = type(engine)
        with contextlib.ExitStack() as stack:
            stack.enter_context(
                mock.patch.object(kind, "_coord_decide", lambda self, r, o: steps.append(o))
            )
            stack.enter_context(
                mock.patch.object(kind, "_all_voted_yes", lambda self, r: steps.append("yes"))
            )
            seen = {}
            for site, yes in votes:
                if steps:
                    break
                seen[site] = yes
                engine._on_vote(Message(site, 7, engine.mtypes["vote"], "T7.1", {"yes": yes}))
                if not yes:
                    assert steps == ["abort"]
                elif all(seen.get(s) for s in participants):  # the recount
                    assert steps == ["yes"] and round_.phase == "preparing"
                else:
                    assert steps == []


# ----------------------------------------------------------------------
# (c) the undecided index against a scan, after every step
# ----------------------------------------------------------------------


@contextlib.contextmanager
def checked_every_step(cluster_box, checked):
    step = Scheduler.step

    def checking_step(self):
        ran = step(self)
        cluster = cluster_box[0]
        for site in (*cluster.sites.values(), *cluster.departed.values()):
            engine = site.engine
            if engine is None:  # no message has reached the site yet
                assert site.undecided_txns() == set()
                continue
            scan = [(t, r) for t, r in engine.records().items() if not r.decided]
            assert list(engine.undecided.items()) == scan
            assert site.undecided_txns() == {t for t, _ in scan}
        checked.append(1)
        return ran

    with mock.patch.object(Scheduler, "step", checking_step):
        yield


class TestUndecidedIndexEqualsScan:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @given(cuts=CUTS)
    @settings(max_examples=8, deadline=None)
    def test_closed_loop(self, protocol, cuts):
        cluster_box, checked = [], []
        cluster, run = closed_loop(protocol=protocol, **cuts)
        cluster_box.append(cluster)
        with checked_every_step(cluster_box, checked):
            run()
        assert len(checked) > 20

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @given(cuts=CUTS)
    @settings(max_examples=8, deadline=None)
    def test_storm(self, protocol, cuts):
        cluster_box, checked = [], []
        cluster, run = storm(protocol=protocol, **cuts)
        cluster_box.append(cluster)
        with checked_every_step(cluster_box, checked):
            run()
        assert len(checked) > 20
