"""Network fan-out hot-path performance.

The randomized studies push 10^5+ messages per run.  Without a filter
or a lossy link installed, ``Network`` answers connectivity from the
partition-epoch reachable-peer cache; with one, every message takes
the per-message path, which evaluates connectivity at send time *and*
delivery time.  Two claims are pinned here:

* the two paths agree on every counter under a storm with partitions,
  crashes and heals (also property-tested in
  ``tests/property/test_prop_bench.py``);
* the cached path is not slower than the per-message path.  The
  assertion is deliberately loose so a loaded CI machine cannot flake
  the suite; ``BENCH_net_deliver_fanout.json`` pins the cached path's
  counters, not its time.
"""

import time
from unittest import mock

import pytest

from repro.bench import cases
from repro.bench.cases import net_fanout_trial
from repro.net.network import Network


class _SlowPathNetwork(Network):
    """A no-op filter is installed, so every message goes per-message."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.add_filter(lambda msg: False)


@pytest.mark.perf
def test_fanout_storm_throughput(benchmark):
    result = benchmark.pedantic(
        lambda: net_fanout_trial(0, n_sites=18, rounds=6),
        rounds=3,
        iterations=1,
    )
    assert result["delivered"] > 0 and result["dropped"] > 0


@pytest.mark.perf
def test_cached_fanout_not_slower_than_legacy():
    # best-of-3 each way; the cache should win clearly (~1.5x), but the
    # gate only demands it never *loses* badly, to stay noise-proof.
    slow = []
    cached = []
    for _ in range(3):
        with mock.patch.object(cases, "Network", _SlowPathNetwork):
            t0 = time.perf_counter()
            base = net_fanout_trial(1, n_sites=18, rounds=6)
            slow.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        fast = net_fanout_trial(1, n_sites=18, rounds=6)
        cached.append(time.perf_counter() - t0)
        assert base == fast
    assert min(cached) < min(slow) * 1.25, (
        f"epoch cache lost its edge: cached {min(cached):.3f}s "
        f"vs per-message {min(slow):.3f}s"
    )
