"""``derive_catalog``: a what-if catalog without its highest hosting sites.

Dropping ``k`` of ``n`` hosting sites keeps the ``n - k`` lowest; a
``k`` that leaves no site is refused, however far past ``n`` it goes.
"""

import pytest

from repro.common.errors import StoreError
from repro.replay import derive_catalog
from repro.replication.catalog import ItemConfig, ReplicaCatalog

#: six hosting sites, every item on three of them
SIX_SITES = ReplicaCatalog(
    ItemConfig(name, {site: 1 for site in sites}, 2, 2)
    for name, sites in [("x", (1, 2, 3)), ("y", (3, 4, 5)), ("z", (1, 5, 6)), ("w", (2, 4, 6))]
)


@pytest.mark.parametrize("drop", [0, 1, 3, 5])
def test_keeps_the_lowest_sites(drop):
    derived = derive_catalog(SIX_SITES, drop_sites=drop)
    assert sorted(derived.all_sites()) == list(range(1, 7 - drop))


@pytest.mark.parametrize("drop", [6, 7, 11])
def test_dropping_every_site_is_refused(drop):
    with pytest.raises(StoreError, match="derived catalog is empty"):
        derive_catalog(SIX_SITES, drop_sites=drop)


def test_a_primary_keeps_its_site_while_the_site_keeps_its_copy():
    catalog = ReplicaCatalog(
        [
            ItemConfig("x", {1: 1, 2: 1, 3: 1}, 2, 2, primary=2),
            ItemConfig("y", {3: 1, 4: 1, 5: 1}, 2, 2, primary=5),
        ]
    )
    derived = derive_catalog(catalog, quorum="majority", drop_sites=1)
    assert derived.primary("x") == 2
    assert derived.primary("y") == 3  # site 5 was dropped: the lowest remaining host
