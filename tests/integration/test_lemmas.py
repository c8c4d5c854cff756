"""Lemmas 1 and 2, checked in vivo over a randomized corpus.

Lemma 1: if the first participant that terminates TR commits it, every
other participant commits or blocks.  Lemma 2: symmetric for abort.
Together they give Theorem 1; here each lemma is checked *separately*
against the ordered decision stream of every run in a corpus, rather
than only via the aggregate mixed-outcome test.
"""

import pytest

from repro.db.cluster import Cluster
from repro.sim.rng import RngRegistry
from repro.workload.generators import random_catalog, random_fault_plan, random_update


def corpus(protocol: str, runs: int = 40, base_seed: int = 9000):
    for i in range(runs):
        seed = base_seed + i
        rng = RngRegistry(seed).stream("lemmas")
        catalog = random_catalog(rng, n_sites=7, n_items=3, replication=3)
        origin, writes = random_update(rng, catalog, max_items=2)
        cluster = Cluster(catalog, protocol=protocol, seed=seed)
        txn = cluster.update(origin, writes)
        plan = random_fault_plan(
            rng,
            cluster.network.sites,
            origin,
            crash_coordinator=rng.random() < 0.8,
            n_groups=rng.choice([2, 3]),
            heal_at=rng.uniform(30.0, 60.0) if rng.random() < 0.5 else None,
        )
        cluster.arm_failures(plan)
        cluster.run()
        yield cluster, txn


@pytest.mark.parametrize("protocol", ["qtp1", "qtp2", "qtpp"])
class TestLemmas:
    def test_every_decision_matches_the_first(self, protocol):
        """The per-run form of Lemmas 1 + 2."""
        for cluster, txn in corpus(protocol):
            decisions = cluster.tracer.where(category="decision", txn=txn.txn)
            assert len({d.detail["outcome"] for d in decisions}) <= 1

    def test_lemma1_first_commit_no_later_abort(self, protocol):
        """Runs whose first terminator commits contain zero aborts."""
        commit_first = 0
        for cluster, txn in corpus(protocol):
            decisions = cluster.tracer.where(category="decision", txn=txn.txn)
            if decisions and decisions[0].detail["outcome"] == "commit":
                commit_first += 1
                outcomes = {d.detail["outcome"] for d in decisions}
                assert outcomes == {"commit"}
        assert commit_first > 0  # the corpus exercised the lemma

    def test_lemma2_first_abort_no_later_commit(self, protocol):
        abort_first = 0
        for cluster, txn in corpus(protocol):
            decisions = cluster.tracer.where(category="decision", txn=txn.txn)
            if decisions and decisions[0].detail["outcome"] == "abort":
                abort_first += 1
                outcomes = {d.detail["outcome"] for d in decisions}
                assert outcomes == {"abort"}
        assert abort_first > 0
