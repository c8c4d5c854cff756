"""Transaction ordinals: every issued transaction takes exactly one.

A cluster mints transaction ids from its own counter, so identically
seeded runs issue identical ids.  ``Cluster.update`` is a write-only
``Cluster.transaction``; each takes one ordinal per call — with or
without an explicit id, and also when the update is refused because its
origin is down.  The ordinal a call took is read off the id the next
``transaction()`` gets.
"""

import pytest

from repro import CatalogBuilder, Cluster
from repro.common.errors import SiteDownError


@pytest.fixture
def cluster():
    catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=2, w=2).build()
    return Cluster(catalog, protocol="qtp1")


def next_ordinal(cluster) -> int:
    """The ordinal the next transaction takes (and consumes)."""
    return int(cluster.transaction(origin=1).txn.rpartition(".")[2])


def test_an_update_with_an_id_takes_one_ordinal(cluster):
    first = next_ordinal(cluster)
    handle = cluster.update(1, {"x": 1}, txn_id="named")
    assert handle.txn == "named"
    assert next_ordinal(cluster) == first + 2


def test_an_update_without_an_id_takes_one_ordinal(cluster):
    first = next_ordinal(cluster)
    handle = cluster.update(2, {"x": 1})
    assert handle.txn == f"T2.{first + 1}"
    assert next_ordinal(cluster) == first + 2


def test_an_update_refused_on_a_down_origin_takes_one_ordinal(cluster):
    first = next_ordinal(cluster)
    cluster.network.crash_site(2)
    with pytest.raises(SiteDownError):
        cluster.update(2, {"x": 1}, txn_id="refused")
    with pytest.raises(SiteDownError):
        cluster.update(2, {"x": 1})
    assert next_ordinal(cluster) == first + 3
    # refused before anything was sent or registered
    assert cluster.network.sent == 0
    assert cluster.committed_history() == []


def test_a_transaction_with_an_id_takes_one_ordinal(cluster):
    first = next_ordinal(cluster)
    txn = cluster.transaction(origin=1, txn_id="named")
    assert txn.txn == "named"
    assert next_ordinal(cluster) == first + 2
