"""Membership changes and termination: healed and up means decided.

A transaction keeps the catalog of the epoch it started in — its
quorums and its primaries — a leaving site drains its open coordinator
rounds (and a forced leave silences it), and a termination poll asks a
coordinator that holds no copy for the decision it logged.  Each
regression below names the run that stranded a transaction, or
crashed, before those held.
"""

import pytest

from repro.analysis import healed_and_up, judge
from repro.experiments import SCENARIOS
from repro.traffic import run_scenario

PROTOCOLS = ("2pc", "3pc", "skq", "qtp1", "qtp2", "qtpp")

#: the ``SMALL_SHAPES`` of ``test_replay_tournament.py`` for the three
#: scenarios whose runs change membership or coordinate from afar
SHAPES = {
    "cross_region": dict(n_txns=12),
    "elastic_join": dict(n_txns=20),
    "rolling_upgrade": dict(n_txns=20, waves=2),
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", SHAPES)
def test_healed_and_up_means_decided(name, protocol):
    # the oracle's liveness predicate, with its other three, on every
    # run; these scenarios all end drained, healed and up, so it applies
    for seed in range(10):
        cluster = run_scenario(SCENARIOS[name](**SHAPES[name]), protocol, seed).cluster
        assert healed_and_up(cluster), (name, protocol, seed)
        assert judge(cluster).violations == [], (name, protocol, seed)


def test_a_join_leaves_the_quorums_of_a_transaction_in_flight_alone():
    # T6.11 began before a join re-derived w(i1) over one more vote; its
    # PC-acks were counted against the new w and it sat in PC at 6, 7, 8
    cluster = run_scenario(SCENARIOS["elastic_join"](**SHAPES["elastic_join"]), "qtp1", 2).cluster
    assert healed_and_up(cluster)
    assert cluster.live_undecided("T6.11") == []
    assert len(cluster.epochs) > 1  # the run did change placement


def test_qtpp_reads_the_primaries_of_the_transactions_own_epoch():
    # site 1, x's epoch-0 primary of i1, left at t = 13; T3.27 began
    # later over participants [3, 8], both acked, and the commit check
    # still wanted site 1's ack: 8 blocked in PC with every site up
    cluster = run_scenario(
        SCENARIOS["rolling_upgrade"](**SHAPES["rolling_upgrade"]), "qtpp", 0
    ).cluster
    assert healed_and_up(cluster)
    assert cluster.live_undecided("T3.27") == []
    assert judge(cluster).violations == []


def test_qtpp_elastic_join_strands_nothing():
    # one transaction stayed in doubt behind an epoch-0 primary
    cluster = run_scenario(SCENARIOS["elastic_join"](**SHAPES["elastic_join"]), "qtpp", 1).cluster
    assert healed_and_up(cluster)
    assert len(cluster.epochs) > 1
    assert judge(cluster).violations == []


def test_a_leaving_coordinator_drains_its_open_round():
    # the leaver coordinated a round still in its vote window; it used
    # to deregister anyway and its timer then sent from a departed site
    run = run_scenario(SCENARIOS["rolling_upgrade"](), "2pc", 19)
    assert run.counters()["leaves_applied"] > 0
    assert all(site.engine is None or not site.engine.open_rounds() for site in run.cluster.departed.values())


def test_the_termination_poll_asks_a_coordinator_holding_no_copy():
    # coordinator 3 logged COMMIT for T3.12 and both COMMITs dropped;
    # polling only the participants left 7 and 10 in W after the heal
    cluster = run_scenario(SCENARIOS["cross_region"](**SHAPES["cross_region"]), "2pc", 1).cluster
    assert 3 not in cluster.submitted["T3.12"].participants
    assert cluster.sites[3].wal.decision("T3.12") == "commit"
    assert cluster.states("T3.12") == {7: "C", 10: "C"}


@pytest.mark.slow
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", ["rolling_upgrade", "elastic_join"])
def test_membership_runs_never_raise(name, protocol):
    for seed in range(100):
        run_scenario(SCENARIOS[name](), protocol, seed)
