"""Unit tests for the Network partition-epoch reachable-peer cache.

The cache is only sound if *every* event that can change who may talk
to whom — partition, heal, crash, recover, registration — busts it.
These tests pin the invalidation triggers, filters and lossy links on
the one send path, and the equivalence of the cached fan-out path and
the per-message reference network (``per_message_network``) on full
storms with partitions, crashes, filters and flapping links.
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


def build(n=4, network_class=Network):
    scheduler = Scheduler()
    network = network_class(scheduler, Tracer(), RngRegistry(0))
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


class TestFiltersAndLinkLoss:
    def test_filters_drop_matching_messages_until_cleared(self):
        scheduler, network, nodes = build()
        network.add_filter(lambda m: m.dst == 3)
        nodes[1].send(3, "t.ping")
        nodes[1].send(2, "t.ping")
        scheduler.run()
        assert nodes[3].received == []
        assert len(nodes[2].received) == 1
        network.clear_filters()
        nodes[1].send(3, "t.ping")
        scheduler.run()
        assert len(nodes[3].received) == 1

    def test_severed_link_drops_until_healed(self):
        scheduler, network, nodes = build()
        network.set_link_loss(1, 2, 1.0)
        nodes[1].send(2, "t.ping")
        scheduler.run()
        assert nodes[2].received == []
        network.heal()  # clears link loss
        nodes[1].send(2, "t.ping")
        scheduler.run()
        assert len(nodes[2].received) == 1


class TestFanout:
    def test_fanout_matches_manual_sends(self, per_message_network):
        for network_class in (per_message_network, Network):
            scheduler, network, nodes = build(network_class=network_class)
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

    def test_storm_counters_identical_to_the_per_message_reference(self, per_message_network):
        """Full storm with partitions, crashes, heals, a filter and a
        flapping lossy link: the network and the reference must agree
        on every counter, every trace row, every delivered message and
        every loss draw."""
        tallies = []
        for network_class in (per_message_network, Network):
            scheduler, network, nodes = build(n=9, network_class=network_class)
            network.add_filter(lambda m: m.txn == "P1" and m.dst == 5)
            everyone = list(nodes)
            for wave in range(3):
                network.set_link_loss(everyone[wave], everyone[wave + 1], 0.5)
                for node in nodes.values():
                    if node.alive:
                        node.broadcast(everyone, "t.ping", f"W{wave}")
                scheduler.run()
                network.set_partition([everyone[:4], everyone[4:]])
                network.crash_site(everyone[wave])
                network.set_link_loss(everyone[wave + 4], everyone[wave + 5], 1.0)
                for node in nodes.values():
                    if node.alive:
                        node.broadcast(everyone, "t.ping", f"P{wave}")
                        node.send(everyone[-1], "t.ping", f"S{wave}")
                scheduler.run()
                network.heal()
                network.recover_site(everyone[wave])
            tallies.append(
                (
                    network.sent,
                    network.delivered,
                    network.dropped,
                    scheduler.events_run,
                    tuple(tuple(map(str, n.received)) for n in nodes.values()),
                    network.tracer.dump(),
                    network._rng.getstate(),
                    network.sent_by_type,
                    network.dropped_by,
                )
            )
        assert tallies[0] == tallies[1]
        assert "link-loss" in tallies[1][5] and "filtered" in tallies[1][5]


class TestMessageSlots:
    def test_messages_get_unique_ids(self):
        a = Message(1, 2, "t.ping", "T1")
        b = Message(1, 2, "t.ping", "T1")
        assert a.msg_id != b.msg_id
