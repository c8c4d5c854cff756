"""The whole-run oracle: each predicate holds on a clean run and bites
on a run that breaks it.

Every broken run here is made through the public API — a filter that
strands a participant, a read-only footprint no serial order explains,
the paper's Example 3 with its ignore rules off — except conservation,
whose counters no correct network can unbalance, so those tests move
one by hand or run a network patched to miscount.
"""

from unittest import mock

import pytest

from repro import PROTOCOL_NAMES, Cluster, FixedDelay
from repro.analysis import Violation, check_invariants, healed_and_up
from repro.net.network import Network
from repro.replication.catalog import ItemConfig, ReplicaCatalog
from repro.experiments.examples import run_example3_scenario


def two_items():
    copies = {1: 1, 2: 1, 3: 1}
    return ReplicaCatalog([ItemConfig("x", copies, 2, 2), ItemConfig("y", copies, 2, 2)])


def one_update(protocol, isolate=None):
    """One update of x and y from site 1, run to quiescence; ``isolate``
    hears its vote-req and nothing after it."""
    cluster = Cluster(two_items(), protocol=protocol, seed=0, delay_model=FixedDelay(1.0))
    if isolate is not None:
        cluster.network.add_filter(lambda m: m.dst == isolate and not m.mtype.endswith(".vote-req"))
    handle = cluster.update(1, {"x": 1, "y": 2})
    cluster.run()
    return cluster, handle


def predicates(violations):
    return [v.predicate for v in violations]


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_a_clean_run_keeps_every_claim(protocol):
    cluster, handle = one_update(protocol)
    assert cluster.outcome(handle.txn).outcome == "commit"
    assert healed_and_up(cluster)
    assert check_invariants(cluster) == []


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_a_participant_left_in_doubt_once_healed_is_a_liveness_violation(protocol):
    cluster, handle = one_update(protocol, isolate=3)
    assert cluster.live_undecided(handle.txn) == [3]
    # the filter is a fault: the predicate does not apply while it is in place
    assert not healed_and_up(cluster)
    assert check_invariants(cluster) == []
    cluster.network.clear_filters()
    assert healed_and_up(cluster)
    [violation] = check_invariants(cluster)
    assert violation.predicate == "liveness" and handle.txn in violation.detail


def test_a_mixed_outcome_breaks_atomicity_outside_3pc():
    broken = run_example3_scenario(enforce_ignore_rules=False)
    assert broken.outcome == "mixed"
    assert predicates(check_invariants(broken.cluster)) == ["atomicity"]
    assert check_invariants(run_example3_scenario(enforce_ignore_rules=True).cluster) == []


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_a_conflicting_command_breaks_atomicity_outside_3pc(protocol):
    cluster, handle = one_update(protocol)
    # a stale abort reaches a participant that committed: its first
    # decision stands, so no outcome is mixed, but it records the
    # conflict — the row the mixed-only check used to miss
    cluster.network.fanout(1, (3,), f"{protocol}.abort", handle.txn, {})
    cluster.run()
    assert cluster.outcome(handle.txn).outcome == "commit"
    assert cluster.tracer.count("decision-conflict", txn=handle.txn) == 1
    found = check_invariants(cluster)
    if protocol == "3pc":
        assert found == []
    else:
        [violation] = found
        assert violation.predicate == "atomicity"
        assert f"1 decision-conflict row(s): ['{handle.txn}']" in violation.detail
        assert "mixed" not in violation.detail


@pytest.mark.parametrize("protocol", ["qtp1", "3pc"])
def test_an_illegal_transition_breaks_atomicity_outside_3pc(protocol):
    cluster, handle = one_update(protocol)
    # by hand: no correct engine makes a move Fig. 6 forbids
    cluster.tracer.record(
        cluster.scheduler.now, 2, "illegal-transition", handle.txn, src="PC", dst="PA", via="hand"
    )
    found = check_invariants(cluster)
    if protocol == "3pc":
        assert found == []
    else:
        assert found == [Violation("atomicity", f"under qtp1: 1 illegal-transition row(s): ['{handle.txn}']")]


def test_3pc_may_end_mixed_and_then_skips_serializability():
    # the paper's Example 2: 3PC's termination protocol splits the outcome
    broken = run_example3_scenario(enforce_ignore_rules=False, protocol="3pc")
    assert broken.outcome == "mixed"
    assert check_invariants(broken.cluster) == []


def test_a_history_no_serial_order_explains_breaks_serializability():
    cluster, handle = one_update("qtp1")
    x_version, y_version = handle.writes["x"][1], handle.writes["y"][1]
    # a reader that saw y after the update and x before it
    cluster.record_footprint("R", {"x": x_version - 1, "y": y_version}, {})
    [violation] = check_invariants(cluster)
    assert violation.predicate == "serializability"
    assert "'R'" in violation.detail and f"'{handle.txn}'" in violation.detail


def test_a_lost_message_count_breaks_conservation_only_at_quiescence():
    cluster, _handle = one_update("qtp1")
    cluster.network.sent += 1
    assert check_invariants(cluster) == [
        Violation(
            "conservation",
            f"sent {cluster.network.sent} != delivered {cluster.network.delivered}"
            f" + dropped {cluster.network.dropped}; sent by type {cluster.network.sent - 1}"
            f" != sent {cluster.network.sent}",
        )
    ]
    # mid-run, messages in flight are neither delivered nor dropped yet
    cluster = Cluster(two_items(), protocol="qtp1", seed=0, delay_model=FixedDelay(1.0))
    cluster.update(1, {"x": 1})
    cluster.scheduler.run_until(0.5)
    net = cluster.network
    assert net.sent > net.delivered + net.dropped
    assert check_invariants(cluster) == []


def _drop_without_its_reason(network, msg, reason):
    network.dropped += 1


_FANOUT = Network.fanout


def _fanout_without_its_type(network, *args):
    counted, network.sent_by_type = network.sent_by_type, {}
    try:
        _FANOUT(network, *args)
    finally:
        network.sent_by_type = counted


@pytest.mark.parametrize(
    ("method", "mutant", "broken"),
    [
        ("_drop", _drop_without_its_reason, "dropped by reason"),
        ("fanout", _fanout_without_its_type, "sent by type"),
    ],
)
def test_a_breakdown_that_misses_a_message_breaks_conservation(method, mutant, broken):
    # the filter drops every message to site 3 after its vote-req, so
    # both breakdowns have something to miss
    with mock.patch.object(Network, method, mutant):
        cluster, _handle = one_update("qtp1", isolate=3)
    net = cluster.network
    assert net.dropped and net.sent == net.delivered + net.dropped
    [violation] = check_invariants(cluster)
    assert violation.predicate == "conservation"
    assert violation.detail.startswith(broken)


def test_the_oracle_only_reads():
    cluster, _handle = one_update("qtp1", isolate=3)
    cluster.network.clear_filters()
    before = (
        len(cluster.tracer),
        cluster.scheduler.events_run,
        cluster.scheduler.pending,
        cluster.network.sent,
        cluster.rng.stream("net").getstate(),
    )
    check_invariants(cluster)
    check_invariants(cluster)
    assert (
        len(cluster.tracer),
        cluster.scheduler.events_run,
        cluster.scheduler.pending,
        cluster.network.sent,
        cluster.rng.stream("net").getstate(),
    ) == before
