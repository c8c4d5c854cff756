"""Late binding, shared trace details and direct hops change cost, not behaviour.

A site builds its commit engine on its first delivery (or when it first
coordinates), a node registers a protocol handler the first time a
message of its type is delivered, the tracer appends one shared detail tuple per
distinct ``(mtype, peer[, reason])`` straight into its columns, the
clock is an attribute the scheduler alone writes, a node's ``send``
stamps its message, a connectivity change kicks only the engines that
hold an undecided transaction, and the open-loop service reads
decisions from a trace cursor.  All of it must be invisible in
everything a run leaves behind.  The reference defined in this file —
every site's engine built with the site, every table entry bound when
the engine is built, a fresh detail tuple
per record routed through ``Tracer._append``, the clock behind a chain
of properties, a frozen ``Message`` per ``send``, every engine kicked,
one trace query per in-flight transaction per arrival — is patched over
the shipped code
with ``mock.patch``, and the same seeded storm (coordinator crash, two
region-aligned partition waves, heal and recovery on every other seed)
is run both ways; so is an open-loop service under gray faults.
"""

import collections
import contextlib
import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster, FixedDelay
from repro.common.errors import SiteDownError
from repro.db.site import Site
from repro.net.message import Message
from repro.net.node import Node
from repro.replay.recorder import cluster_counters
from repro.sim.failures import FailurePlan
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer
from repro.traffic import AdaptiveWindow, RetryPolicy, TrafficEngine
from repro.traffic.open_loop import _OpenLoopRun
from repro.workload.generators import (
    random_catalog,
    region_storm_plan,
    wan_catalog,
    wan_regions,
)
from repro.workload.spec import WorkloadSpec

PROTOCOLS = ["2pc", "3pc", "skq", "qtp1", "qtp2"]
REGIONS = wan_regions(4, 8)
ALL_SITES = [s for region in REGIONS for s in region]


_site_init = Site.__init__


def _site_with_engine(self, *args):
    """Reference: a site builds its engine along with its stack."""
    _site_init(self, *args)
    self.ensure_engine()


def _bind_eagerly(self, owner, names):
    """Reference: one ``on`` per table entry, when the engine is built
    (the site's reservation, made before its engine, binds nothing)."""
    if owner is None:
        return
    for mtype, name in names.items():
        self.on(mtype, getattr(owner, name))


def _fresh_send(self, time, site, txn, mtype, dst):
    self._append(time, site, "send", txn, (mtype, dst))


def _fresh_deliver(self, time, site, txn, mtype, src):
    self._append(time, site, "deliver", txn, (mtype, src))


def _fresh_drop(self, time, site, txn, mtype, dst, reason):
    self._append(time, site, "drop", txn, (mtype, dst, reason))


#: how often each reference hop ran (reset by ``reference_arm``)
HOPS = collections.Counter()

#: the clock as it was: a private field behind a property
_now_property = property(
    lambda self: self._now, lambda self, value: setattr(self, "_now", value)
)


def _chained_now(self):
    HOPS["now"] += 1
    return self.network.scheduler.now


def _chained_trace(self, category, txn="", **detail):
    self._tracer.record(self.now, self.node_id, category, txn, **detail)


def _message_send(self, dst, mtype, txn="", **payload):
    if not self.alive:
        raise SiteDownError(f"site {self.node_id} is down")
    HOPS["message"] += 1
    self.network.send(Message(self.node_id, dst, mtype, txn, payload))


def _kick_everyone(self, event):
    for site in self.sites.values():
        if site.alive and site.engine is not None:
            HOPS["kick"] += 1
            if event == "restore":
                site.engine.retry_blocked()
            else:
                site.engine.kick()


def _polling_retire(self):
    """Reference: one ``where`` per in-flight transaction per call."""
    where = self.engine.cluster.tracer.where
    for txn in list(self.submitted):
        HOPS["where"] += 1
        records = where(category="decision", txn=txn)
        if records:
            origin, submitted_at = self.submitted.pop(txn)
            self.in_flight[origin] -= 1
            self.digest.add(min(record.time for record in records) - submitted_at)


@contextlib.contextmanager
def reference_arm():
    HOPS.clear()
    with contextlib.ExitStack() as stack:
        patch = mock.patch.object
        stack.enter_context(patch(Site, "__init__", _site_with_engine))
        stack.enter_context(patch(Node, "bind_on_delivery", _bind_eagerly))
        stack.enter_context(patch(Tracer, "record_send", _fresh_send))
        stack.enter_context(patch(Tracer, "record_deliver", _fresh_deliver))
        stack.enter_context(patch(Tracer, "record_drop", _fresh_drop))
        stack.enter_context(patch(Scheduler, "now", _now_property, create=True))
        stack.enter_context(patch(Node, "now", property(_chained_now), create=True))
        stack.enter_context(patch(Node, "trace", _chained_trace))
        stack.enter_context(patch(Node, "send", _message_send))
        stack.enter_context(patch(Cluster, "_on_connectivity_change", _kick_everyone))
        stack.enter_context(patch(_OpenLoopRun, "retire_decided", _polling_retire))
        yield


def storm(seed: int, protocol: str) -> tuple[Cluster, dict]:
    """One multi-item update on a fresh 32-site WAN cluster whose
    coordinator crashes early under two partition waves."""
    rng = random.Random(seed)
    catalog = wan_catalog(rng, n_regions=4, sites_per_region=8, n_items=16, region_replication=3)
    compiled = WorkloadSpec(n_txns=1, footprint=(2, 4)).compile(catalog, REGIONS)
    submit_state = rng.getstate()
    origin, _writes = compiled.next_update(rng)
    heal = seed % 2 == 0
    plan = region_storm_plan(rng, REGIONS, waves=2, heal=heal)
    plan.crash(rng.uniform(1.0, 2.5), origin)
    if heal:
        plan.recover(max(a.time for a in plan.actions) + 5.0, origin)
    # message rows kept: most shared details are theirs
    cluster = Cluster(
        catalog,
        protocol=protocol,
        seed=seed,
        delay_model=FixedDelay(1.0),
        extra_sites=ALL_SITES,
        message_rows=True,
    )
    submit_rng = random.Random()
    submit_rng.setstate(submit_state)
    engine = TrafficEngine(cluster, compiled, submit_rng)
    txn = engine.submit_now()
    cluster.arm_failures(plan)
    engine.run_to_quiescence()
    left_behind = {
        "dump": cluster.tracer.dump(),
        "counters": cluster_counters(cluster),
        "events_run": cluster.scheduler.events_run,
        "outcome": cluster.outcome(txn.txn).outcome,
        "message_counts": cluster.message_counts(),
        "wals": {
            site_id: [str(record) for record in site.wal]
            for site_id, site in cluster.sites.items()
        },
    }
    return cluster, left_behind


class TestStormEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=6, deadline=None)
    def test_late_binding_and_shared_details_leave_the_same_run(self, protocol, seed):
        with reference_arm():
            eager_cluster, reference = storm(seed, protocol)
        lazy_cluster, shipped = storm(seed, protocol)
        assert shipped == reference
        assert len(shipped["dump"]) > 0 and shipped["counters"]["messages_sent"] > 0
        # the arms did differ in what they were meant to differ in
        eager = sum(len(site._handlers) for site in eager_cluster.sites.values())
        lazy = sum(len(site._handlers) for site in lazy_cluster.sites.values())
        assert eager == 15 * len(ALL_SITES) and lazy < eager
        assert all(site.engine is not None for site in eager_cluster.sites.values())
        built = [site for site in lazy_cluster.sites.values() if site.engine is not None]
        assert 0 < len(built) < len(ALL_SITES)
        assert "_now" in vars(eager_cluster.scheduler) and "now" in vars(lazy_cluster.scheduler)
        assert HOPS["now"] > 0
        assert HOPS["kick"] >= 2 * len(ALL_SITES) - 2  # everyone up, every change
        if lazy_cluster.message_counts().get("elect.alive"):  # the storm's single sends
            assert HOPS["message"] > 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_repeated_details_are_one_object(self, protocol):
        cluster, left_behind = storm(3, protocol)
        details = [d for d in cluster.tracer._details if type(d) is tuple]
        assert len(details) > 50
        assert len({id(d) for d in details}) == len(set(details)) < len(details)


# ----------------------------------------------------------------------
# the in-place fast paths render exactly like the generic record()
# ----------------------------------------------------------------------

MTYPES = ["qtp1.vote-req", "qtp1.vote", "elect.inquiry"]
ROWS = st.lists(
    st.tuples(
        st.sampled_from(["send", "deliver", "drop", "decision"]),
        st.integers(0, 5),  # site
        st.sampled_from(["", "T1.1", "T2.1"]),
        st.sampled_from(MTYPES),
        st.integers(0, 5),  # peer
        st.sampled_from(["partitioned", "sender-down"]),
    ),
    max_size=60,
)


def _fill(tracer: Tracer, rows, fast: bool, start: int = 0) -> None:
    for time, (category, site, txn, mtype, peer, reason) in enumerate(rows, start):
        if category == "decision":
            tracer.record(float(time), site, "decision", txn, outcome="commit")
        elif category == "send":
            if fast:
                tracer.record_send(float(time), site, txn, mtype, peer)
            else:
                tracer.record(float(time), site, "send", txn, mtype=mtype, dst=peer)
        elif category == "deliver":
            if fast:
                tracer.record_deliver(float(time), site, txn, mtype, peer)
            else:
                tracer.record(float(time), site, "deliver", txn, mtype=mtype, src=peer)
        elif fast:
            tracer.record_drop(float(time), site, txn, mtype, peer, reason)
        else:
            tracer.record(float(time), site, "drop", txn, mtype=mtype, dst=peer, reason=reason)


def _rendered(tracer: Tracer) -> dict:
    return {
        "len": len(tracer),
        "dump": tracer.dump(),
        "sends": tracer.where(category="send"),
        "drops_of_T1": tracer.where(category="drop", txn="T1.1"),
        "at_site_2": tracer.where(site=2),
        "count": tracer.count("deliver"),
        "message_counts": tracer.message_counts(),
        "scope": tracer.txn_scope("T2.1"),
        "decisions_since_0": tracer.since(0, "decision"),
    }


class TestFastPathsRenderLikeRecord:
    @given(rows=ROWS)
    @settings(max_examples=40, deadline=None)
    def test_in_place_appends_equal_generic_records(self, rows):
        fast, generic = Tracer(), Tracer()
        _fill(fast, rows, fast=True)
        _fill(generic, rows, fast=False)
        assert _rendered(fast) == _rendered(generic)

    @given(rows=ROWS, cut=st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_cursor_reads_each_decision_once(self, rows, cut):
        tracer = Tracer()
        _fill(tracer, rows[:cut], fast=True)
        position, first = tracer.since(0, "decision")
        _fill(tracer, rows[cut:], fast=True, start=cut)
        position, rest = tracer.since(position, "decision")
        assert position == len(tracer) == len(rows)
        assert tracer.since(position, "decision") == (position, [])
        everything = [(r.time, r.site, r.txn) for r in tracer.where(category="decision")]
        assert first + rest == everything


# ----------------------------------------------------------------------
# the decision cursor retires what the per-transaction queries retired
# ----------------------------------------------------------------------


def gray_service(seed: int, protocol: str):
    """An open-loop service with client retries, an adaptive window and
    a degrade + flap + leave plan: the full ``OpenLoopResult``."""
    rng = RngRegistry(seed).stream("traffic")
    catalog = random_catalog(rng, n_sites=9, n_items=6, replication=3)
    spec = WorkloadSpec(arrival="open", rate=2.0, duration=70.0, read_fraction=0.3)
    sites = sorted(catalog.all_sites())
    plan = (
        FailurePlan()
        .degrade(8.0, sites[1], 3.0)
        .flap(15.0, sites[0], sites[2], period=4.0, cycles=4)
        .restore(40.0, sites[1])
        .leave(45.0, sites[-1])
    )
    cluster = Cluster(catalog, protocol=protocol, seed=seed)
    cluster.arm_failures(plan)
    engine = TrafficEngine(
        cluster, spec.compile(catalog), rng, retry=RetryPolicy(max_attempts=3, backoff=0.5)
    )
    adapt = AdaptiveWindow(target_p99=6.0, low=1, high=6, interval=8.0)
    result = engine.run_open(protocol, window=2, latency_hi=40.0, adapt=adapt)
    return dataclasses.asdict(result), cluster_counters(cluster), len(cluster.tracer)


class TestDecisionCursorEqualsPolling:
    @pytest.mark.parametrize("protocol", ["2pc", "qtp1", "qtp2"])
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None)
    def test_same_result_same_digest(self, protocol, seed):
        with reference_arm():
            reference = gray_service(seed, protocol)
            polled = HOPS["where"]
        shipped = gray_service(seed, protocol)
        assert shipped == reference
        result = shipped[0]
        assert result["latency"]["n"] > 10 and result["latency"]["p50"] <= result["latency"]["p999"]
        assert result["window_final"] is not None and polled > result["offered"]
