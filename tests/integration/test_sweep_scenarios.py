"""E13 and E14 are scenarios, and every randomized sweep run is judged.

``storm_run`` and ``modelcheck_run`` run their single-drive scenarios
through :func:`~repro.traffic.run_scenario`.  The references below
build the same runs by hand — catalog, update, cluster, fault plan,
drawn from the same named stream in the same order — so a draw that
moves between the two shows as a different trace dump or result.
E11's ``availability_run`` and E19's ``policy_run`` run single-drive
scenarios through the same runner (their rows are pinned in
``test_study_rows.py``).
"""

import pytest

from repro.analysis import invariants
from repro.common.errors import InvariantViolationError
from repro.db.cluster import PROTOCOL_NAMES, Cluster
from repro.experiments.sweeps import (
    availability_run,
    modelcheck_run,
    modelcheck_scenario,
    storm_run,
    storm_scenario,
)
from repro.experiments.vote_study import policy_run
from repro.sim.failures import FailurePlan
from repro.sim.rng import RngRegistry
from repro.traffic import engine as traffic_engine
from repro.traffic import run_scenario
from repro.workload.generators import (
    random_catalog,
    random_fault_plan,
    random_partition_groups,
    random_update,
)

SEEDS = range(4)


def storm_reference(seed, protocol, waves):
    """E13's run built by hand: the cluster and its one transaction."""
    rng = RngRegistry(seed).stream("storm")
    catalog = random_catalog(rng, n_sites=6, n_items=3, replication=3)
    origin, writes = random_update(rng, catalog, max_items=2)
    cluster = Cluster(catalog, protocol=protocol, seed=seed)
    txn = cluster.update(origin, writes).txn
    plan = FailurePlan()
    plan.crash(rng.uniform(1.0, 4.0), origin)
    t = 5.0
    for _ in range(waves):
        plan.partition(t, *random_partition_groups(rng, cluster.network.sites, 2))
        t += rng.uniform(8.0, 15.0)
    plan.heal(t)
    plan.recover(t + 5.0, origin)
    cluster.arm_failures(plan)
    cluster.run()
    return cluster, txn


def modelcheck_reference(seed, protocol, heal):
    """E14's run built by hand: the cluster and its one transaction."""
    rng = RngRegistry(seed).stream("modelcheck")
    catalog = random_catalog(rng, n_sites=7, n_items=3, replication=3)
    origin, writes = random_update(rng, catalog, max_items=2)
    cluster = Cluster(catalog, protocol=protocol, seed=seed)
    txn = cluster.update(origin, writes).txn
    plan = random_fault_plan(
        rng,
        sites=cluster.network.sites,
        coordinator=origin,
        crash_coordinator=rng.random() < 0.8,
        n_extra_crashes=rng.choice([0, 0, 1]),
        n_groups=rng.choice([2, 2, 3]),
        heal_at=rng.uniform(30.0, 60.0) if heal else None,
    )
    cluster.arm_failures(plan)
    cluster.run()
    return cluster, txn


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
class TestScenarioRunsAreTheHandBuiltRuns:
    @pytest.mark.parametrize("waves", [2, 3])
    def test_storm(self, protocol, waves):
        for seed in SEEDS:
            cluster, txn = storm_reference(seed, protocol, waves)
            run = run_scenario(storm_scenario(waves), protocol, seed)
            assert run.txn.txn == txn
            assert run.cluster.tracer.dump() == cluster.tracer.dump()
            report = cluster.outcome(txn)
            expected = (
                bool(report.atomic),
                bool(report.fully_terminated),
                cluster.tracer.count("term-phase1", txn=txn),
            )
            assert storm_run(seed, protocol, waves) == expected

    @pytest.mark.parametrize("heal", [True, False])
    def test_modelcheck(self, protocol, heal):
        for seed in SEEDS:
            cluster, txn = modelcheck_reference(seed, protocol, heal)
            run = run_scenario(modelcheck_scenario(heal), protocol, seed)
            assert run.txn.txn == txn
            assert run.cluster.tracer.dump() == cluster.tracer.dump()
            assert modelcheck_run(seed, protocol, heal) == bool(cluster.outcome(txn).atomic)


def _judge_one_violation(cluster):
    return invariants.judge(cluster)._replace(violations=[("atomicity", "planted")])


class TestEverySweepRunIsJudged:
    """A violation the oracle reports ends the run with an error."""

    def test_every_sweep_through_the_runner(self, monkeypatch):
        monkeypatch.setattr(traffic_engine, "judge", _judge_one_violation)
        with pytest.raises(InvariantViolationError, match="reenterability_storm under qtp1"):
            storm_run(0, "qtp1")
        with pytest.raises(InvariantViolationError, match="modelcheck under qtp2"):
            modelcheck_run(0, "qtp2")
        with pytest.raises(InvariantViolationError, match="availability under skq, seed 3"):
            availability_run(3, "skq-pinned")
        with pytest.raises(InvariantViolationError, match="vote_policy under qtp1, seed 2"):
            policy_run(2, "read-one")
