"""Unit tests for the Network partition-epoch reachable-peer cache.

The cache is only sound if *every* event that can change who may talk
to whom — partition, heal, crash, recover, registration — busts it.
These tests pin the invalidation triggers, the fast/slow path handoff
around filters and lossy links, and the equivalence of the cached
fan-out path and the per-message path (forced by installing a filter
that matches nothing) on full storms.
"""

import pytest

from repro.common.errors import SiteDownError
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer


class Recorder(Node):
    def __init__(self, node_id, network):
        super().__init__(node_id, network)
        self.received = []
        self.on("t.ping", self.received.append)


def build(n=4, slow=False):
    scheduler = Scheduler()
    network = Network(scheduler, Tracer(), RngRegistry(0))
    if slow:
        # a filter that drops nothing still routes every message through
        # the per-message path
        network.add_filter(lambda m: False)
    nodes = {i: Recorder(i, network) for i in range(1, n + 1)}
    return scheduler, network, nodes


class TestEpochInvalidation:
    def test_partition_heal_crash_recover_register_bump_epoch(self):
        scheduler, network, nodes = build()
        epochs = [network.epoch]

        network.set_partition([[1, 2], [3, 4]])
        epochs.append(network.epoch)
        network.heal()
        epochs.append(network.epoch)
        network.crash_site(2)
        epochs.append(network.epoch)
        network.recover_site(2)
        epochs.append(network.epoch)
        Recorder(99, network)
        epochs.append(network.epoch)
        assert epochs == sorted(set(epochs)), "every event must bump the epoch"

    def test_partition_busts_sendable_cache(self):
        scheduler, network, nodes = build()
        nodes[1].send(3, "t.ping")
        scheduler.run()
        assert network._sendable, "fast send should have populated the cache"
        network.set_partition([[1, 2], [3, 4]])
        assert not network._sendable, "partition must clear the cache"
        nodes[1].send(3, "t.ping")
        scheduler.run()
        assert len(nodes[3].received) == 1  # only the pre-partition message

    def test_heal_busts_cache_and_restores_reachability(self):
        scheduler, network, nodes = build()
        network.set_partition([[1], [2, 3, 4]])
        nodes[1].send(2, "t.ping")
        scheduler.run()
        assert nodes[2].received == []
        network.heal()
        assert not network._sendable
        nodes[1].send(2, "t.ping")
        scheduler.run()
        assert len(nodes[2].received) == 1

    def test_crash_in_flight_busts_fast_delivery(self):
        scheduler, network, nodes = build()
        nodes[1].send(2, "t.ping")  # scheduled via the epoch-stamped fast path
        scheduler.call_at(0.5, network.crash_site, 2)
        scheduler.run()
        assert nodes[2].received == []
        drops = network.tracer.where(category="drop")
        assert drops and drops[0].detail["reason"] == "destination-down"

    def test_partition_in_flight_busts_fast_delivery(self):
        scheduler, network, nodes = build()
        nodes[1].send(2, "t.ping")
        scheduler.call_at(0.5, network.set_partition, [[1], [2, 3, 4]])
        scheduler.run()
        assert nodes[2].received == []
        drops = network.tracer.where(category="drop")
        assert drops and drops[0].detail["reason"] == "partitioned-in-flight"

    def test_recover_in_flight_still_delivers(self):
        """A message to a down-but-reachable site takes the checked path;
        if the site recovers before arrival, delivery goes through —
        same as the per-message evaluation."""
        scheduler, network, nodes = build()
        network.crash_site(2)
        nodes[1].send(2, "t.ping")
        scheduler.call_at(0.5, network.recover_site, 2)
        scheduler.run()
        assert len(nodes[2].received) == 1

    def test_direct_node_crash_cannot_sneak_a_delivery(self):
        """Crashing a node behind the network's back (site hooks do this
        in tests) must still prevent delivery: the fast path re-checks
        liveness at arrival."""
        scheduler, network, nodes = build()
        nodes[1].send(2, "t.ping")
        scheduler.call_at(0.5, nodes[2].crash)  # bypasses crash_site
        scheduler.run()
        assert nodes[2].received == []
        assert network.delivered == 0


class TestFastSlowHandoff:
    def test_filters_disable_fast_path_and_clear_restores_it(self):
        scheduler, network, nodes = build()
        assert network._fast_path
        network.add_filter(lambda m: m.dst == 3)
        assert not network._fast_path
        nodes[1].send(3, "t.ping")
        nodes[1].send(2, "t.ping")
        scheduler.run()
        assert nodes[3].received == []
        assert len(nodes[2].received) == 1
        network.clear_filters()
        assert network._fast_path

    def test_link_loss_disables_fast_path_until_healed(self):
        scheduler, network, nodes = build()
        network.set_link_loss(1, 2, 1.0)
        assert not network._fast_path
        nodes[1].send(2, "t.ping")
        scheduler.run()
        assert nodes[2].received == []
        network.heal()  # clears link loss
        assert network._fast_path


class TestFanout:
    def test_fanout_matches_manual_sends(self):
        for slow in (True, False):
            scheduler, network, nodes = build(slow=slow)
            network.set_partition([[1, 2, 3], [4]])
            network.crash_site(3)
            nodes[1].broadcast([1, 2, 3, 4], "t.ping", "T1")
            scheduler.run()
            assert len(nodes[2].received) == 1
            assert nodes[3].received == []
            assert nodes[4].received == []
            assert network.sent == 3  # self excluded
            assert network.delivered == 1
            assert network.dropped == 2

    def test_fanout_unknown_destination_dropped_per_message(self):
        scheduler, network, nodes = build()
        network.fanout(1, [2, 77], "t.ping", "T1")
        scheduler.run()
        assert len(nodes[2].received) == 1
        drops = network.tracer.where(category="drop")
        assert [d.detail["reason"] for d in drops] == ["unknown-destination"]

    def test_fanout_from_dead_sender_raises_at_node_level(self):
        scheduler, network, nodes = build()
        network.crash_site(1)
        with pytest.raises(SiteDownError):
            nodes[1].broadcast([2, 3], "t.ping")

    def test_network_level_fanout_from_dead_sender_drops(self):
        scheduler, network, nodes = build()
        network.crash_site(1)
        network.fanout(1, [2, 3], "t.ping")
        scheduler.run()
        drops = network.tracer.where(category="drop")
        assert [d.detail["reason"] for d in drops] == ["sender-down", "sender-down"]

    def test_storm_counters_identical_cached_vs_legacy(self):
        """Full storm with partitions, crashes and heals: both paths
        must agree on every counter and every delivered message."""
        tallies = []
        for slow in (True, False):
            scheduler, network, nodes = build(n=9, slow=slow)
            assert network._fast_path is not slow
            everyone = list(nodes)
            for wave in range(3):
                for node in nodes.values():
                    if node.alive:
                        node.broadcast(everyone, "t.ping", f"W{wave}")
                scheduler.run()
                network.set_partition([everyone[:4], everyone[4:]])
                network.crash_site(everyone[wave])
                for node in nodes.values():
                    if node.alive:
                        node.broadcast(everyone, "t.ping", f"P{wave}")
                scheduler.run()
                network.heal()
                network.recover_site(everyone[wave])
            tallies.append(
                (
                    network.sent,
                    network.delivered,
                    network.dropped,
                    scheduler.events_run,
                    tuple(len(n.received) for n in nodes.values()),
                    [str(r) for r in network.tracer.records],
                )
            )
        assert tallies[0] == tallies[1]


class TestMessageSlots:
    def test_message_remains_frozen_and_unique(self):
        a = Message(1, 2, "t.ping", "T1")
        b = Message(1, 2, "t.ping", "T1")
        assert a.msg_id != b.msg_id
        with pytest.raises(AttributeError):
            a.dst = 9
