"""Late handler binding and shared trace details change cost, not behaviour.

A node registers a protocol handler the first time a message of its
type is delivered, and the tracer appends one shared detail tuple per
distinct ``(mtype, peer[, reason])``.  Both must be invisible in
everything a run leaves behind.  The reference defined in this file —
every table entry bound when the engine is built, a fresh detail tuple
per record — is patched over the shipped code with ``mock.patch``, and
the same seeded storm (coordinator crash, two region-aligned partition
waves, heal and recovery on every other seed) is run both ways.
"""

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster, FixedDelay
from repro.net.node import Node
from repro.replay.recorder import cluster_counters
from repro.sim.trace import Tracer
from repro.traffic import TrafficEngine
from repro.workload.generators import region_storm_plan, wan_catalog, wan_regions
from repro.workload.spec import WorkloadSpec

PROTOCOLS = ["2pc", "3pc", "skq", "qtp1", "qtp2"]
REGIONS = wan_regions(4, 8)
ALL_SITES = [s for region in REGIONS for s in region]


def _bind_eagerly(self, owner, names):
    """Reference: one ``on`` per table entry, when the engine is built."""
    for mtype, name in names.items():
        self.on(mtype, getattr(owner, name))


def _fresh_send(self, time, site, txn, mtype, dst):
    self._append(time, site, "send", txn, (mtype, dst))


def _fresh_deliver(self, time, site, txn, mtype, src):
    self._append(time, site, "deliver", txn, (mtype, src))


def _fresh_drop(self, time, site, txn, mtype, dst, reason):
    self._append(time, site, "drop", txn, (mtype, dst, reason))


@contextlib.contextmanager
def reference_arm():
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(Node, "bind_on_delivery", _bind_eagerly))
        stack.enter_context(mock.patch.object(Tracer, "record_send", _fresh_send))
        stack.enter_context(mock.patch.object(Tracer, "record_deliver", _fresh_deliver))
        stack.enter_context(mock.patch.object(Tracer, "record_drop", _fresh_drop))
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
    cluster = Cluster(
        catalog, protocol=protocol, seed=seed, delay_model=FixedDelay(1.0), extra_sites=ALL_SITES
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

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_repeated_details_are_one_object(self, protocol):
        cluster, left_behind = storm(3, protocol)
        details = [d for d in cluster.tracer._details if type(d) is tuple]
        assert len(details) > 50
        assert len({id(d) for d in details}) == len(set(details)) < len(details)
