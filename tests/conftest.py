"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.experiments.resilience_study import gray_failure_plan
from repro.experiments.service_study import open_loop_scenario
from repro.replication.catalog import CatalogBuilder, ReplicaCatalog
from repro.sim.failures import FailurePlan
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer
from repro.traffic import Scenario
from repro.workload.generators import memoized_catalog, random_catalog


@pytest.fixture
def scheduler() -> Scheduler:
    """A fresh scheduler."""
    return Scheduler()


@pytest.fixture
def tracer() -> Tracer:
    """A fresh tracer."""
    return Tracer()


@pytest.fixture
def rng() -> RngRegistry:
    """A seeded RNG registry."""
    return RngRegistry(seed=42)


@pytest.fixture
def simple_catalog() -> ReplicaCatalog:
    """One item x at sites 1-3 with r=2, w=2."""
    return CatalogBuilder().replicated_item("x", sites=[1, 2, 3], r=2, w=2).build()


@pytest.fixture
def paper_catalog() -> ReplicaCatalog:
    """The Fig. 3 database: x at 1-4, y at 5-8, one vote each, r=2, w=3."""
    return (
        CatalogBuilder()
        .replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3)
        .replicated_item("y", sites=[5, 6, 7, 8], r=2, w=3)
        .build()
    )


def _gray_service(seed: int) -> tuple[Scenario, FailurePlan]:
    rng = RngRegistry(seed).stream("open-loop")
    catalog = memoized_catalog(
        rng, ("open-loop", 6, 4, 3), lambda r: random_catalog(r, n_sites=6, n_items=4, replication=3)
    )
    hosts = sorted(catalog.all_sites())
    plan = gray_failure_plan(6.0, 10.0, slow_site=hosts[0], factor=5.0, flap_src=hosts[1], flap_dst=hosts[2])
    service = open_loop_scenario(rate=1.2, duration=24.0, n_sites=6, n_items=4, replication=3)
    return service, plan


@pytest.fixture(scope="session")
def gray_service():
    """``seed -> (scenario, plan)``: a small open-loop service whose
    first host is slowed 5x from t=6 to t=16 and whose link from the
    second host to the third flaps from t=6.  Session-scoped, so
    Hypothesis tests may take it."""
    return _gray_service
