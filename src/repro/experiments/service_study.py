"""Experiment E26 — the open-loop tail-latency SLO service.

Every earlier experiment is closed-loop: a fixed transaction count with
pre-scheduled arrivals, asking "what happened to these N transactions".
A service asks the open-loop question instead: *at a sustained arrival
rate λ, what do clients experience* — tail latency, shed traffic,
sustainable throughput — while partitions come and go.  Two drivers:

* :func:`open_loop_scenario` — one service interval: a
  duration-bounded arrival stream (exponential gaps at ``rate``)
  through per-site admission control, with commit/abort latency folded
  into a streaming digest (p50/p99/p999, constant memory); run it with
  ``run_scenario(open_loop_scenario(...), protocol, seed)``.
* :func:`discover_ceiling` — the SLO ramp: step the arrival rate
  across a schedule of fresh service intervals until the p99 knee or
  the abort-rate threshold trips; the last untripped rate is the
  installation's throughput ceiling.

Both run entirely on the virtual clock with a seeded RNG, so their
counters are deterministic and the benchmark suite pins them as
``BENCH_open_loop_service.json`` / ``BENCH_ramp_ceiling.json``.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.failures import FailurePlan
from repro.traffic import (
    DEFAULT_BINS,
    DEFAULT_WINDOW,
    AdaptiveWindow,
    OpenLoopResult,
    RampResult,
    Scenario,
    ramp,
    run_scenario,
)
from repro.workload.generators import random_catalog
from repro.workload.spec import WorkloadSpec

#: the default service cluster: 9 sites, 6 items, 3-way replication.
SERVICE_SITES = 9
SERVICE_ITEMS = 6
SERVICE_REPLICATION = 3


def service_failure_plan(
    episode_start: float, episode_length: float, sites: Sequence[int]
) -> FailurePlan:
    """One deterministic mid-service partition episode.

    Splits the cluster into a majority and a minority component (first
    two-thirds of the site list vs the tail) for ``episode_length``
    virtual seconds.  Deterministic by construction — no RNG draws — so
    swapping it for a recorded plan never shifts the arrival stream.
    """
    sites = list(sites)
    cut = max(1, (2 * len(sites)) // 3)
    return (
        FailurePlan()
        .partition(episode_start, sites[:cut], sites[cut:])
        .heal(episode_start + episode_length)
    )


def open_loop_scenario(
    rate: float = 1.5,
    duration: float = 120.0,
    n_sites: int = SERVICE_SITES,
    n_items: int = SERVICE_ITEMS,
    replication: int = SERVICE_REPLICATION,
    read_fraction: float = 0.0,
    window: int = DEFAULT_WINDOW,
    latency_hi: float = 60.0,
    bins: int = DEFAULT_BINS,
    episode_window: "tuple[float, float] | None" = (30.0, 25.0),
    adapt: "AdaptiveWindow | dict | None" = None,
) -> Scenario:
    """E26 as a scenario: a sustained-rate service on a random catalog
    through one :func:`service_failure_plan` episode (``episode_window
    = (start, length)``; ``None``: a quiet run).  ``adapt`` may be the
    dict a trace header carries in place of an
    :class:`~repro.traffic.AdaptiveWindow` (``None``: the fixed
    per-site in-flight ``window``)."""
    params = dict(locals())
    if isinstance(adapt, dict):
        adapt = AdaptiveWindow(**adapt)

    def plan(rng, cluster, first):
        if episode_window is not None:
            return service_failure_plan(*episode_window, cluster.network.sites)

    return Scenario(
        name="open_loop",
        params=params,
        stream="open-loop",
        catalog=(random_catalog, dict(n_sites=n_sites, n_items=n_items, replication=replication)),
        workload=WorkloadSpec(
            arrival="open", rate=rate, duration=duration, read_fraction=read_fraction
        ),
        plan=plan,
        drive="open",
        service={"window": window, "latency_hi": latency_hi, "bins": bins, "adapt": adapt},
    )


def discover_ceiling(
    protocol: str,
    seed: int = 0,
    rates: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0),
    duration: float = 60.0,
    n_sites: int = SERVICE_SITES,
    n_items: int = 24,
    replication: int = SERVICE_REPLICATION,
    window: int = DEFAULT_WINDOW,
    knee_factor: float = 4.0,
    abort_threshold: float = 0.25,
) -> RampResult:
    """E26 ramp: step the arrival rate until the SLO trips.

    Each step is a fresh, quiet (no-failure) service interval at the
    next rate of ``rates`` — independent measurements, not one long
    run — so the ceiling is a property of the installation, not of the
    previous step's leftover lock state.  The ramp stops at the first
    p99 knee (``knee_factor`` times the first measured p99) or abort
    rate above ``abort_threshold``; see :func:`repro.traffic.ramp`.

    The default catalog is wider than the service interval's (24 items
    vs 6): with the tiny catalog the no-wait conflict rate saturates at
    the lowest rate and every ramp trips on its first step, whereas the
    wider catalog makes contention *grow with the arrival rate* — which
    is the knee the ramp exists to find.
    """

    def step(rate: float) -> OpenLoopResult:
        scenario = open_loop_scenario(
            rate, duration, n_sites, n_items, replication, window=window, episode_window=None
        )
        return run_scenario(scenario, protocol, seed).result

    return ramp(step, rates, knee_factor=knee_factor, abort_threshold=abort_threshold)
