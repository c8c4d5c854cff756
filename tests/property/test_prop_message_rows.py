"""Message rows on or off, the run is the same run.

A cluster keeps ``send`` / ``deliver`` / ``drop`` trace rows only when
built with ``message_rows=True``; its network counts the wire either
way.  For every registered scenario under three commit protocols at
two seeds, the default run must differ from the rows-on run by exactly
those rows: the same trace with them taken out, the same counters, and
network breakdowns that say what the rows said.
"""

from collections import Counter

import pytest

from repro.common.errors import MessageRowsOffError
from repro.experiments import SCENARIOS
from repro.sim.trace import MESSAGES
from repro.traffic import run_scenario

#: the ``SMALL_SHAPES`` of ``test_replay_tournament.py``
SHAPES = {
    "workload": dict(n_txns=10),
    "heavy_workload": dict(n_txns=12, n_sites=6, n_items=4),
    "wan_storm": dict(n_regions=3, sites_per_region=3, n_items=4, region_replication=2, waves=2),
    "cross_region": dict(n_txns=12),
    "elastic_join": dict(n_txns=20),
    "open_loop": dict(rate=1.0, duration=20.0, n_sites=6),
    "rolling_upgrade": dict(n_txns=20, waves=2),
    "skewed_contention": dict(n_txns=16, n_sites=6, n_items=4),
    "read_mostly": dict(n_txns=16, n_sites=6, n_items=4),
    "flash_crowd": dict(duration=30.0, surge_start=10.0, surge_length=10.0, n_sites=6),
    "gray_failure": dict(rate=1.0, duration=30.0, episode_start=8.0, episode_length=12.0),
}


def test_every_scenario_is_covered():
    assert set(SHAPES) == set(SCENARIOS)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("protocol", ["qtp1", "2pc", "3pc"])
@pytest.mark.parametrize("name", SHAPES)
def test_rows_off_is_the_rows_on_run_without_its_message_rows(name, protocol, seed):
    on = run_scenario(SCENARIOS[name](**SHAPES[name]), protocol, seed, message_rows=True)
    off = run_scenario(SCENARIOS[name](**SHAPES[name]), protocol, seed)
    kept = [rec for rec in on.cluster.tracer if rec.category not in MESSAGES]
    assert off.cluster.tracer.dump() == on.cluster.tracer.dump(kept)
    assert off.counters() == on.counters()
    histogram = on.cluster.tracer.message_counts()
    assert list(off.cluster.message_counts().items()) == list(histogram.items())
    assert list(on.cluster.message_counts().items()) == list(histogram.items())
    reasons = Counter(detail["reason"] for _site, _txn, detail in on.cluster.tracer.txn_entries("drop"))
    assert off.cluster.network.dropped_by == reasons == on.cluster.network.dropped_by
    with pytest.raises(MessageRowsOffError, match="message_rows=True"):
        off.cluster.tracer.count("send")
