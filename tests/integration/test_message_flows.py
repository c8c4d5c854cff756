"""Golden message-flow tests: exact failure-free histograms per family.

With FixedDelay the failure-free run of each protocol is fully
deterministic; these tests pin the message histogram and the decision
timing so any accidental change to a protocol's wire behaviour shows
up immediately.
"""

import pytest

from repro import CatalogBuilder, Cluster

N = 4


def run(protocol, **kwargs):
    catalog = CatalogBuilder().replicated_item("x", sites=list(range(1, N + 1)), r=2, w=3).build()
    cluster = Cluster(catalog, protocol=protocol, **kwargs)
    txn = cluster.update(origin=1, writes={"x": 1})
    cluster.run()
    decisions = cluster.tracer.where(category="coord-decision", txn=txn.txn)
    return cluster.message_counts(), decisions[0].time


class TestGoldenFlows:
    def test_2pc(self):
        counts, decided = run("2pc")
        assert counts == {
            "2pc.vote-req": N,
            "2pc.vote": N,
            "2pc.commit": N,
        }
        assert decided == 2.0  # one round trip of T=1

    def test_3pc(self):
        counts, decided = run("3pc")
        assert counts == {
            "3pc.vote-req": N,
            "3pc.vote": N,
            "3pc.prepare": N,
            "3pc.ack": N,
            "3pc.commit": N,
        }
        assert decided == 4.0  # two round trips

    def test_skq(self):
        counts, decided = run("skq")
        assert counts == {
            "skq.vote-req": N,
            "skq.vote": N,
            "skq.prepare": N,
            "skq.ack": N,
            "skq.commit": N,
        }
        assert decided == 4.0

    @pytest.mark.parametrize("protocol", ["qtp1", "qtp2"])
    def test_qtp_same_wire_shape_as_3pc(self, protocol):
        counts, decided = run(protocol)
        assert counts == {
            f"{protocol}.vote-req": N,
            f"{protocol}.vote": N,
            f"{protocol}.prepare": N,
            f"{protocol}.ack": N,
            f"{protocol}.commit": N,
        }
        # with uniform delays all acks land together; the early-commit
        # condition is met at the same instant 3PC's all-acks is
        assert decided == 4.0

    def test_qtpp(self):
        counts, decided = run("qtpp")
        assert counts == {
            "qtpp.vote-req": N,
            "qtpp.vote": N,
            "qtpp.prepare": N,
            "qtpp.ack": N,
            "qtpp.commit": N,
        }
        # the primary (site 1 = the coordinator's own site) acks at the
        # instant the prepare is self-delivered: one round earlier
        assert decided == 2.0

    def test_failure_free_runs_are_identical_across_seeds(self):
        """FixedDelay runs are seed-independent (no randomness drawn)."""
        a, __ = run("qtp1", seed=0)
        b, __ = run("qtp1", seed=999)
        assert a == b


class TestVoteNoFlow:
    def test_abort_flow_2pc(self):
        from repro.concurrency.locks import LockMode

        catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=2, w=2).build()
        cluster = Cluster(catalog, protocol="2pc")
        cluster.sites[2].locks.try_acquire("intruder", "x", LockMode.EXCLUSIVE)
        cluster.update(origin=1, writes={"x": 1})
        cluster.run()
        counts = cluster.message_counts()
        assert counts["2pc.abort"] == 3
        assert "2pc.commit" not in counts