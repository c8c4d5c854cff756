"""Network fan-out hot-path performance.

The randomized studies push 10^5+ messages per run.  ``Network``
answers connectivity from the partition-epoch reachable-peer cache and
hoists per-source work out of a fan-out; the per-message reference
(``per_message_network``, defined in the root ``conftest.py``) judges
every message on its own, at send time *and* delivery time.  Two claims
are pinned here:

* the two agree on every counter under a storm with partitions,
  crashes and heals (and, over whole scenario runs, in
  ``tests/property/test_prop_bench.py``);
* the cached path is not slower than the per-message reference.  The
  assertion is deliberately loose so a loaded CI machine cannot flake
  the suite; the scenario cases' ``BENCH_*.json`` pin the cached
  path's counters, not its time.
"""

import time

import pytest

from repro.net.network import Network
from repro.net.node import Node
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer


class _Sink(Node):
    """A node that swallows storm pings."""

    def __init__(self, node_id: int, network: Network) -> None:
        super().__init__(node_id, network)
        self.on("storm.ping", lambda msg: None)


def fanout_storm(seed: int, network_class=Network, n_sites: int = 18, rounds: int = 6) -> dict:
    """Broadcast storms through connected, partitioned and crash phases;
    every phase change busts the reachable-peer cache."""
    sched = Scheduler()
    network = network_class(sched, Tracer(), RngRegistry(seed))
    nodes = [_Sink(i, network) for i in range(n_sites)]
    everyone = list(range(n_sites))
    third = n_sites // 3

    def storm() -> None:
        for node in nodes:
            if node.alive:
                node.broadcast(everyone, "storm.ping", "T")
        sched.run()

    for _ in range(rounds):
        storm()  # connected, weighted double: most protocol traffic runs unpartitioned
        storm()
        network.set_partition([everyone[: 2 * third], everyone[2 * third :]])
        storm()
        network.crash_site(0)
        network.crash_site(n_sites - 1)
        network.set_partition([everyone[:third], everyone[third : 2 * third], everyone[2 * third :]])
        storm()
        network.heal()
        network.recover_site(0)
        network.recover_site(n_sites - 1)
    return {
        "sent": network.sent,
        "delivered": network.delivered,
        "dropped": network.dropped,
        "events_run": sched.events_run,
        "epochs": network.epoch,
    }


@pytest.mark.perf
def test_fanout_storm_throughput(benchmark):
    result = benchmark.pedantic(lambda: fanout_storm(0), rounds=3, iterations=1)
    assert result["delivered"] > 0 and result["dropped"] > 0


@pytest.mark.perf
def test_cached_fanout_not_slower_than_per_message_reference(per_message_network):
    # best-of-3 each way; the cache should win clearly, but the gate
    # only demands it never *loses* badly, to stay noise-proof.
    slow = []
    cached = []
    for _ in range(3):
        t0 = time.perf_counter()
        base = fanout_storm(1, per_message_network)
        slow.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        fast = fanout_storm(1)
        cached.append(time.perf_counter() - t0)
        assert base == fast
    assert min(cached) < min(slow) * 1.25, (
        f"epoch cache lost its edge: cached {min(cached):.3f}s "
        f"vs per-message {min(slow):.3f}s"
    )
