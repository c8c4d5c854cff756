"""Unit tests for the network facade and node actors."""

from collections import Counter

import pytest

from repro.common.errors import SiteDownError
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.net.partitions import PartitionView
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer


class Recorder(Node):
    """Test node that records everything it receives."""

    def __init__(self, node_id, network):
        super().__init__(node_id, network)
        self.received = []
        self.on("test.ping", self.received.append)


@pytest.fixture
def net():
    scheduler = Scheduler()
    network = Network(scheduler, Tracer(), RngRegistry(0))
    nodes = {i: Recorder(i, network) for i in (1, 2, 3)}
    return scheduler, network, nodes


class TestDelivery:
    def test_message_delivered_after_delay(self, net):
        scheduler, network, nodes = net
        nodes[1].send(2, "test.ping", "T1")
        scheduler.run()
        assert len(nodes[2].received) == 1
        assert scheduler.now == 1.0  # FixedDelay(1) default

    def test_self_send_has_zero_delay(self, net):
        scheduler, network, nodes = net
        nodes[1].send(1, "test.ping")
        scheduler.run()
        assert len(nodes[1].received) == 1
        assert scheduler.now == 0.0

    def test_broadcast_excludes_self(self, net):
        scheduler, network, nodes = net
        nodes[1].broadcast([1, 2, 3], "test.ping")
        scheduler.run()
        assert len(nodes[1].received) == 0
        assert len(nodes[2].received) == 1
        assert len(nodes[3].received) == 1

    def test_unhandled_type_is_traced_not_raised(self, net):
        scheduler, network, nodes = net
        nodes[1].send(2, "test.unknown")
        scheduler.run()
        assert network.tracer.count("unhandled") == 1

    def test_duplicate_node_id_rejected(self, net):
        __, network, __nodes = net
        with pytest.raises(ValueError, match="duplicate"):
            Recorder(1, network)

    def test_duplicate_handler_rejected(self, net):
        __, __, nodes = net
        with pytest.raises(ValueError, match="duplicate handler"):
            nodes[1].on("test.ping", lambda m: None)


class Owner:
    """Stands in for a protocol engine: methods named by a shared table."""

    TABLE = {"late.ping": "on_ping", "late.pong": "on_pong"}

    def __init__(self, node):
        self.pings, self.pongs = [], []
        node.bind_on_delivery(self, self.TABLE)

    def on_ping(self, msg):
        self.pings.append(msg)

    def on_pong(self, msg):
        self.pongs.append(msg)


class TestLateBinding:
    def test_table_entry_binds_on_first_delivery_only(self, net):
        scheduler, __, nodes = net
        owner = Owner(nodes[2])
        assert "late.ping" not in nodes[2]._handlers
        nodes[1].send(2, "late.ping")
        nodes[1].send(2, "late.ping")
        scheduler.run()
        assert len(owner.pings) == 2
        assert "late.ping" in nodes[2]._handlers
        assert "late.pong" not in nodes[2]._handlers  # never delivered, never bound

    def test_late_bind_goes_through_on(self, net):
        scheduler, __, nodes = net
        Owner(nodes[2])
        registered = []
        original = Node.on

        def spying_on(self, mtype, handler):
            registered.append((self.node_id, mtype))
            original(self, mtype, handler)

        Node.on = spying_on
        try:
            nodes[1].send(2, "late.ping")
            nodes[1].send(2, "late.ping")
            scheduler.run()
        finally:
            Node.on = original
        assert registered == [(2, "late.ping")]  # one call per (node, mtype)

    def test_duplicate_on_after_a_lazy_bind_rejected(self, net):
        scheduler, __, nodes = net
        Owner(nodes[2])
        nodes[1].send(2, "late.ping")
        scheduler.run()
        with pytest.raises(ValueError, match="duplicate handler"):
            nodes[2].on("late.ping", lambda m: None)

    def test_explicit_on_before_first_delivery_wins(self, net):
        scheduler, __, nodes = net
        owner = Owner(nodes[2])
        explicit = []
        nodes[2].on("late.ping", explicit.append)
        nodes[1].send(2, "late.ping")
        nodes[1].send(2, "late.pong")
        scheduler.run()
        assert len(explicit) == 1 and owner.pings == []
        assert len(owner.pongs) == 1  # the rest of the table still binds

    def test_explicit_on_before_the_table_is_handed_over_wins_too(self, net):
        scheduler, __, nodes = net
        explicit = []
        nodes[2].on("late.ping", explicit.append)
        owner = Owner(nodes[2])
        nodes[1].send(2, "late.ping")
        scheduler.run()
        assert len(explicit) == 1 and owner.pings == []

    def test_second_table_rejected(self, net):
        __, __, nodes = net
        Owner(nodes[2])
        with pytest.raises(ValueError, match="duplicate handler table"):
            Owner(nodes[2])

    def test_unknown_type_on_a_site_with_an_engine_is_traced_unhandled(self):
        from repro import CatalogBuilder, Cluster

        catalog = CatalogBuilder().replicated_item("x", [1, 2, 3]).build()
        cluster = Cluster(catalog, protocol="qtp1")
        cluster.sites[1].send(2, "qtp1.no-such-kind", "T9")
        cluster.sites[1].send(2, "2pc.commit", "T9")  # another family's type
        cluster.run()
        unhandled = cluster.tracer.where(category="unhandled", site=2)
        assert [r.detail["mtype"] for r in unhandled] == ["qtp1.no-such-kind", "2pc.commit"]
        assert cluster.sites[2]._handlers == {}


class TestDrops:
    def test_crashed_destination_drops(self, net):
        scheduler, network, nodes = net
        network.crash_site(2)
        nodes[1].send(2, "test.ping")
        scheduler.run()
        assert nodes[2].received == []
        assert network.dropped == 1

    def test_crashed_sender_cannot_send(self, net):
        __, network, nodes = net
        network.crash_site(1)
        with pytest.raises(SiteDownError):
            nodes[1].send(2, "test.ping")

    def test_partition_drops_at_send(self, net):
        scheduler, network, nodes = net
        network.set_partition([[1], [2, 3]])
        nodes[1].send(2, "test.ping")
        scheduler.run()
        assert nodes[2].received == []

    def test_partition_drops_in_flight(self, net):
        scheduler, network, nodes = net
        nodes[1].send(2, "test.ping")  # delivery due at t=1
        scheduler.call_at(0.5, network.set_partition, [[1], [2, 3]])
        scheduler.run()
        assert nodes[2].received == []
        drops = network.tracer.where(category="drop")
        assert drops[0].detail["reason"] == "partitioned-in-flight"

    def test_crash_in_flight_drops(self, net):
        scheduler, network, nodes = net
        nodes[1].send(2, "test.ping")
        scheduler.call_at(0.5, network.crash_site, 2)
        scheduler.run()
        assert nodes[2].received == []

    def test_link_loss_p1_severs(self, net):
        scheduler, network, nodes = net
        network.set_link_loss(1, 2, 1.0)
        nodes[1].send(2, "test.ping")
        nodes[2].send(1, "test.ping")  # reverse direction unaffected
        scheduler.run()
        assert nodes[2].received == []
        assert len(nodes[1].received) == 1

    def test_filter_drops_matching(self, net):
        scheduler, network, nodes = net
        network.add_filter(lambda m: m.dst == 3)
        nodes[1].send(2, "test.ping")
        nodes[1].send(3, "test.ping")
        scheduler.run()
        assert len(nodes[2].received) == 1
        assert nodes[3].received == []
        network.clear_filters()
        nodes[1].send(3, "test.ping")
        scheduler.run()
        assert len(nodes[3].received) == 1

    def test_heal_clears_loss_and_partition(self, net):
        scheduler, network, nodes = net
        network.set_partition([[1], [2, 3]])
        network.set_link_loss(1, 2, 1.0)
        network.heal()
        nodes[1].send(2, "test.ping")
        scheduler.run()
        assert len(nodes[2].received) == 1

    def test_invalid_loss_probability(self, net):
        __, network, __nodes = net
        with pytest.raises(ValueError):
            network.set_link_loss(1, 2, 1.5)

    @pytest.mark.parametrize("src, dst", [(1, 42), (42, 1)])
    def test_link_loss_on_an_unknown_site_is_refused(self, net, src, dst):
        scheduler, network, nodes = net
        with pytest.raises(ValueError, match="unknown site 42"):
            network.set_link_loss(src, dst, 1.0)
        assert network._link_loss == {}
        nodes[1].send(2, "test.ping")
        scheduler.run()
        assert len(nodes[2].received) == 1


class TestReachability:
    def test_reachable_from_respects_partition(self, net):
        __, network, __nodes = net
        network.set_partition([[1, 2], [3]])
        assert network.reachable_from(1) == [1, 2]

    def test_reachable_from_excludes_crashed(self, net):
        __, network, __nodes = net
        network.crash_site(2)
        assert network.reachable_from(1) == [1, 3]

    def test_reachable_from_restricted_pool(self, net):
        __, network, __nodes = net
        assert network.reachable_from(1, among=[2, 3]) == [2, 3]

    @pytest.mark.parametrize("among", [None, [2], []])
    def test_reachable_from_an_unknown_site_is_refused(self, net, among):
        __, network, __nodes = net
        with pytest.raises(ValueError, match="unknown site 99"):
            network.reachable_from(99, among)

    def test_restoring_an_unknown_site_is_refused(self, net):
        __, network, __nodes = net
        rows = len(network.tracer)
        with pytest.raises(ValueError, match="unknown site 42"):
            network.restore_site(42)
        assert len(network.tracer) == rows  # no row for a site that never existed


class TestCrashRecovery:
    def test_crash_cancels_timers(self, net):
        scheduler, network, nodes = net
        fired = []
        nodes[1].set_timer(5.0, fired.append, "x")
        network.crash_site(1)
        scheduler.run()
        assert fired == []

    def test_many_live_timers_prune_in_linear_total_work(self, net):
        scheduler, network, nodes = net
        node = nodes[1]
        fired = []
        rebuilds = filtered = 0
        for k in range(1000):
            before = node._timers
            size = len(before) + 1  # what a prune at this call would filter
            node.set_timer(10.0 + k, fired.append, k)
            if node._timers is not before:
                rebuilds += 1
                filtered += size
        # every timer is live, so no prune frees anything: the threshold
        # must back off (65 -> 129 -> 257 -> 513), not re-filter per call;
        # the first timer builds the list (one more rebuild, of one)
        assert len(node._timers) == 1000
        assert rebuilds <= 8  # 936 before
        assert filtered <= 2 * 1000
        network.crash_site(1)
        assert node._timers == () and node._timers is nodes[2]._timers  # the shared empty
        scheduler.run()
        assert fired == []

    def test_dead_timers_are_still_pruned(self, net):
        scheduler, __, nodes = net
        node = nodes[1]
        for k in range(500):
            node.set_timer(1.0, lambda: None).cancel()
        assert len(node._timers) <= 65

    def test_timer_on_down_site_rejected(self, net):
        __, network, nodes = net
        network.crash_site(1)
        with pytest.raises(SiteDownError):
            nodes[1].set_timer(1.0, lambda: None)

    def test_observer_notified_on_partition_heal_recover(self, net):
        __, network, __nodes = net
        events = []
        network.subscribe(events.append)
        network.set_partition([[1], [2, 3]])
        network.heal()
        network.crash_site(1)  # crash alone does not notify
        network.recover_site(1)
        assert events == ["partition", "heal", "recover"]


class TestViewInterning:
    def test_repeated_layouts_reuse_one_view(self, net):
        __, network, __nodes = net
        network.set_partition([[1], [2, 3]])
        first = network.partition
        network.heal()
        network.set_partition(((1,), (2, 3)))  # tuple spelling, same layout
        assert network.partition is first

    def test_heals_reuse_one_view(self, net):
        __, network, __nodes = net
        network.heal()
        healed = network.partition
        network.set_partition([[1], [2, 3]])
        network.heal()
        assert network.partition is healed

    def test_register_invalidates_interned_views(self, net):
        __, network, __nodes = net
        network.set_partition([[1], [2, 3]])
        stale = network.partition
        Recorder(4, network)
        network.set_partition([[1], [2, 3]])
        assert network.partition is not stale
        assert network.partition.sites == frozenset([1, 2, 3, 4])
        # site 4 was in no group: a singleton component
        assert network.partition.component_of(4) == frozenset([4])

    def test_interned_and_fresh_views_agree(self, net):
        __, network, __nodes = net
        layouts = ([[1], [2, 3]], [[1, 2], [3]], [[1], [2], [3]])
        for groups in layouts + layouts:  # second lap: every view is a cache hit
            network.set_partition(groups)
            fresh = PartitionView(network.sites, groups)
            assert network.partition == fresh
            assert network.partition.sorted_components() == fresh.sorted_components()
        network.heal()
        assert network.partition == PartitionView(network.sites)


class TestFanoutMessages:
    def _network(self, network_class=Network):
        scheduler = Scheduler()
        network = network_class(scheduler, Tracer(), RngRegistry(0))
        nodes = {i: Recorder(i, network) for i in (1, 2, 3)}
        return scheduler, network, nodes

    def test_fanout_messages_share_the_payload(self):
        scheduler, network, nodes = self._network()
        payload = {"k": 7}
        network.fanout(1, [2, 3], "test.ping", "T1", payload)
        scheduler.run()
        for node_id in (2, 3):
            (msg,) = nodes[node_id].received
            assert type(msg) is Message
            assert (msg.src, msg.dst, msg.mtype, msg.txn) == (1, node_id, "test.ping", "T1")
            assert msg.payload is payload  # envelope shared, by contract
        ids = [nodes[2].received[0].msg_id, nodes[3].received[0].msg_id]
        assert ids[0] != ids[1]

    def test_counters_and_trace_identical_to_the_per_message_reference(self, per_message_network):
        tallies = []
        for network_class in (per_message_network, Network):
            scheduler, network, nodes = self._network(network_class)
            network.fanout(1, [1, 2, 3, 9], "test.ping", "T1")  # 9 unknown
            network.crash_site(3)
            network.fanout(1, [2, 3], "test.ping", "T1")
            network.add_filter(lambda m: m.dst == 1)
            network.set_link_loss(1, 2, 0.5)
            for _ in range(8):
                network.fanout(1, [1, 2, 3], "test.ping", "T2")
            scheduler.run()
            tallies.append(
                (
                    network.sent,
                    network.delivered,
                    network.dropped,
                    [str(m) for m in nodes[2].received],
                    network.tracer.dump(),
                    network._rng.getstate(),
                    network.sent_by_type,
                    network.dropped_by,
                )
            )
        assert tallies[0] == tallies[1]

    @pytest.mark.parametrize("reference", [False, True])
    def test_without_message_rows_the_wire_is_counted_not_traced(self, per_message_network, reference):
        runs = []
        for tracer in (Tracer(), Tracer(messages=False)):
            scheduler = Scheduler()
            network = (per_message_network if reference else Network)(scheduler, tracer, RngRegistry(0))
            for i in (1, 2, 3):
                Recorder(i, network)
            network.fanout(1, [1, 2, 3, 9], "test.ping", "T1")  # 9 unknown
            network.fanout(2, [], "test.none", "T1")  # sends nothing, so no type
            network.crash_site(3)
            network.fanout(1, [2, 3], "test.pong", "T1")
            network.fanout(3, [1], "test.ping", "T1")  # a dead sender's
            scheduler.run()
            runs.append((network, tracer))
        (on, on_trace), (off, off_trace) = runs
        assert on.sent_by_type == off.sent_by_type == {"test.ping": 5, "test.pong": 2}
        assert list(off.sent_by_type.items()) == list(on_trace.message_counts().items())
        drops = {"unknown-destination": 1, "destination-down": 2, "sender-down": 1}
        assert on.dropped_by == off.dropped_by == drops
        assert Counter(r.detail["reason"] for r in on_trace.where(category="drop")) == drops
        assert (on.sent, on.delivered, on.dropped) == (off.sent, off.delivered, off.dropped) == (7, 3, 4)
        # the crash, and the pong site 2 has no handler for
        assert [r.category for r in off_trace] == ["crash", "unhandled"]
        assert len(on_trace) == len(off_trace) + 7 + 3 + 4

    def test_filters_judge_each_fanout_destination(self):
        scheduler, network, nodes = self._network()
        network.add_filter(lambda m: m.dst == 2)
        network.fanout(1, [2, 3], "test.ping", "T1")
        scheduler.run()
        assert nodes[2].received == []
        assert len(nodes[3].received) == 1
        assert type(nodes[3].received[0]) is Message


    def test_send_delivers_a_message_fanout_built(self):
        scheduler, network, nodes = self._network()
        sent = Message(1, 2, "test.ping", "T1", {"k": 7})
        network.send(sent)
        scheduler.run()
        (got,) = nodes[2].received
        assert (got.src, got.dst, got.mtype, got.txn) == (1, 2, "test.ping", "T1")
        assert got.payload is sent.payload
        assert got is not sent and got.msg_id != sent.msg_id

    def test_send_judges_as_a_one_destination_fanout(self):
        tallies = []
        for one_destination in (
            lambda network, dst, txn: network.send(Message(1, dst, "test.ping", txn)),
            lambda network, dst, txn: network.fanout(1, (dst,), "test.ping", txn),
        ):
            scheduler, network, nodes = self._network()
            one_destination(network, 9, "T0")  # unknown destination
            network.add_filter(lambda m: m.dst == 3)
            network.set_link_loss(1, 2, 0.5)
            for i in range(8):
                for dst in (1, 2, 3):
                    one_destination(network, dst, f"T{i}")
            network.crash_site(1)
            one_destination(network, 2, "T9")  # sender down
            scheduler.run()
            tallies.append(
                (
                    network.sent,
                    network.delivered,
                    network.dropped,
                    [str(m) for m in nodes[2].received],
                    network.tracer.dump(),
                    network._rng.getstate(),
                )
            )
        assert tallies[0] == tallies[1]


class TestMessage:
    def test_msg_ids_unique(self):
        a = Message(1, 2, "x.y")
        b = Message(1, 2, "x.y")
        assert a.msg_id != b.msg_id

    def test_str_rendering(self):
        msg = Message(1, 2, "x.y", "T9", {"k": 1})
        assert "1->2" in str(msg) and "T9" in str(msg)
