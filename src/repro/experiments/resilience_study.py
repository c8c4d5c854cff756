"""Experiments E27/E28 — graceful degradation under churn and surge.

The gray-failure arm of the study: where E18–E26 stress fail-stop
faults (crash, partition, loss), these drivers stress the *in-between*
failure modes real installations live with — planned membership churn,
load surges, and sites that are slow rather than dead:

* **E27 rolling upgrade** (:func:`rolling_upgrade_scenario`) — waves of
  sites gracefully leave (:meth:`FailurePlan.leave
  <repro.sim.failures.FailurePlan.leave>`: catalog hand-off, drain,
  deregister) and rejoin upgraded, all under live closed-loop traffic
  with a retrying client.  The question: does a planned wave-by-wave
  decommission preserve commit availability the way a crash never can,
  and do client retries paper over the transient aborts?
* **E28 flash crowd** (:func:`flash_crowd_scenario`) — an open-loop service
  whose arrival rate follows a piecewise-constant schedule (quiet →
  surge → quiet) while an :class:`~repro.traffic.AdaptiveWindow`
  controller retunes the admission window against the streaming p99.
  The question: how much of the surge is shed vs absorbed, and does
  the controller widen back out after the crowd passes?
* **gray failure** (:func:`gray_failure_scenario`) — one degraded site
  (every delivery touching it stretched by ``factor``) plus a flapping
  link, under a fixed-window open-loop service.  Nothing is ever
  *down*, so the fail-stop counters stay quiet — the damage shows up
  only in the latency tail, which is exactly what makes gray failures
  hard to see.

All three are registered :class:`~repro.traffic.Scenario` constructors —
run them with ``run_scenario(scenario, protocol, seed)``; the benchmark
suite pins their counters as ``BENCH_rolling_upgrade.json`` /
``BENCH_flash_crowd.json`` / ``BENCH_gray_failure.json``, and each is
recordable and replayable like any other scenario (the artifact codec
round-trips leave/join/degrade/flap actions).
"""

from __future__ import annotations

import dataclasses

from repro.experiments.service_study import open_loop_scenario
from repro.sim.failures import FailurePlan, JoinSite, LeaveSite
from repro.traffic import AdaptiveWindow, RetryPolicy, Scenario
from repro.workload.generators import random_catalog
from repro.workload.spec import WorkloadSpec

#: the default client retry policy for rolling upgrades: three attempts
#: with a bounded exponential backoff on the virtual clock.
UPGRADE_RETRY = RetryPolicy(max_attempts=3, backoff=0.5, backoff_cap=4.0)


def rolling_upgrade_plan(
    catalog,
    sites: "list[int]",
    waves: int,
    first_leave: float,
    wave_spacing: float,
    upgrade_time: float,
) -> FailurePlan:
    """The wave-by-wave leave/rejoin schedule for :func:`rolling_upgrade_scenario`.

    Wave ``k`` gracefully removes ``sites[k]`` at
    ``first_leave + k * wave_spacing`` and rejoins it ``upgrade_time``
    later with one vote per item it used to host, anchored near the
    last site (which is never upgraded, so the anchor always exists).
    Deterministic by construction — no RNG draws — so arming it never
    shifts the workload stream.
    """
    if waves >= len(sites):
        raise ValueError(
            f"cannot upgrade {waves} of {len(sites)} sites: the last site "
            "must survive as the rejoin anchor"
        )
    plan = FailurePlan()
    anchor = sites[-1]
    # capture the hosted sets *now*, before any eviction mutates the
    # catalog: the plan is built against the pristine placement.
    hosted = catalog.items_by_site()
    for k in range(waves):
        site = sites[k]
        t_leave = first_leave + k * wave_spacing
        plan.leave(t_leave, site)
        plan.join(
            t_leave + upgrade_time,
            site,
            copies={i: 1 for i in hosted.get(site, ())},
            near=anchor,
        )
    return plan


def rolling_upgrade_scenario(
    n_txns: int = 70,
    n_sites: int = 9,
    n_items: int = 6,
    replication: int = 3,
    waves: int = 3,
    first_leave: float = 12.0,
    wave_spacing: float = 18.0,
    upgrade_time: float = 9.0,
    mean_spacing: float = 1.2,
    retry: "RetryPolicy | dict | None" = UPGRADE_RETRY,
) -> Scenario:
    """E27 as a scenario: a retrying closed-loop client while the
    ``waves`` lowest-numbered sites leave and rejoin one at a time
    (:func:`rolling_upgrade_plan`).  ``retry`` may be the dict a trace
    header carries in place of a :class:`RetryPolicy`.  Ops whose
    origin is mid-upgrade are tallied ``unreachable_origin``;
    ``sites_restored`` counts upgraded sites back at quiescence."""
    params = dict(locals())
    if isinstance(retry, dict):
        retry = RetryPolicy(**retry)

    def plan(rng, cluster, first):
        sites = sorted(cluster.network.sites)
        return rolling_upgrade_plan(
            cluster.catalog, sites, waves, first_leave, wave_spacing, upgrade_time
        )

    def counters(run):
        cluster, applied = run.cluster, run.cluster.injector.applied
        left = [a.site for a in applied if isinstance(a, LeaveSite)]
        return {
            **run.result.counters(),
            "leaves_applied": len(left),
            "joins_applied": sum(1 for a in applied if isinstance(a, JoinSite)),
            "sites_restored": sum(1 for s in left if s in cluster.sites),
            "retry_attempts": run.engine.retry_attempts,
            "unreachable_origin": run.engine.tallies.get("unreachable_origin", 0),
            "messages_sent": cluster.network.sent,
            "messages_delivered": cluster.network.delivered,
        }

    return Scenario(
        name="rolling_upgrade",
        params=params,
        stream="rolling-upgrade",
        catalog=(random_catalog, dict(n_sites=n_sites, n_items=n_items, replication=replication)),
        workload=WorkloadSpec(n_txns=n_txns, mean_spacing=mean_spacing),
        plan=plan,
        counters=counters,
        retry=retry,
    )


def flash_crowd_scenario(
    base_rate: float = 1.0,
    surge_rate: float = 6.0,
    surge_start: float = 40.0,
    surge_length: float = 30.0,
    duration: float = 120.0,
    n_sites: int = 9,
    n_items: int = 12,
    replication: int = 3,
    window: int = 4,
    adapt: "AdaptiveWindow | dict | None" = None,
) -> Scenario:
    """E28 as a scenario: a flash crowd through the adaptive admission
    controller — the E26 service, quiet network, surging arrival rate.

    The arrival rate follows a three-step schedule — ``base_rate``
    until ``surge_start``, ``surge_rate`` for ``surge_length`` seconds,
    then back to ``base_rate`` (the surge *is* the event).  The default
    :class:`~repro.traffic.AdaptiveWindow` narrows the per-site window
    when the windowed p99 blows past its target — commit latency here
    is protocol-round-bound, so the default target sits below the
    contended tail and the pinned trajectory is the shedding arm.  The
    ``window_narrowed`` / ``window_widened`` / ``window_final`` counters
    are the controller's trajectory, and ``shed_backpressure`` is the
    traffic it refused to keep the tail.
    """
    params = dict(locals())
    if adapt is None:
        adapt = AdaptiveWindow(target_p99=3.0, low=1, high=12, interval=10.0)
    service = open_loop_scenario(
        n_sites=n_sites,
        n_items=n_items,
        replication=replication,
        window=window,
        episode_window=None,
        adapt=adapt,
    )
    return dataclasses.replace(
        service,
        name="flash_crowd",
        params=params,
        workload=WorkloadSpec(
            arrival="open",
            rate=base_rate,
            duration=duration,
            rate_schedule=(
                (0.0, base_rate),
                (surge_start, surge_rate),
                (surge_start + surge_length, base_rate),
            ),
        ),
    )


def gray_failure_plan(
    start: float,
    length: float,
    slow_site: int,
    factor: float,
    flap_src: int,
    flap_dst: int,
    period: float = 6.0,
    duty: float = 0.5,
    cycles: int = 3,
) -> FailurePlan:
    """One deterministic gray-failure episode: a slow site plus a
    flapping link, healed after ``length`` virtual seconds.  No RNG
    draws, so arming it never shifts an arrival stream."""
    return (
        FailurePlan()
        .degrade(start, slow_site, factor)
        .flap(start, flap_src, flap_dst, period, duty=duty, cycles=cycles)
        .restore(start + length, slow_site)
    )


def gray_failure_scenario(
    rate: float = 1.5,
    duration: float = 120.0,
    n_sites: int = 9,
    n_items: int = 6,
    replication: int = 3,
    window: int = 4,
    episode_start: float = 30.0,
    episode_length: float = 40.0,
    factor: float = 6.0,
) -> Scenario:
    """The gray-failure run as a scenario: the E26 service, slow, not
    dead.

    One open-loop interval where the first hosting site delivers
    ``factor`` times slower (every message in or out stretched at the
    delay-sampling layer) and the link between the next two hosting
    sites flaps on a deterministic duty cycle (:func:`gray_failure_plan`)
    — while every site stays *alive*, so ``shed_unreachable`` and the
    crash counters stay at their quiet-run values.  The episode shows
    up only where gray failures always do — stretched decisions that
    trip protocol timeouts (``protocol_aborted`` up, ``committed``
    down) and a fatter latency distribution.
    """
    params = dict(locals())

    def plan(rng, cluster, first):
        # aim the episode at sites that exist — a random catalog does
        # not necessarily host every id in range
        hosts = sorted(cluster.catalog.all_sites())
        return gray_failure_plan(
            episode_start, episode_length, slow_site=hosts[0], factor=factor,
            flap_src=hosts[1], flap_dst=hosts[2],
        )

    return dataclasses.replace(
        open_loop_scenario(rate, duration, n_sites, n_items, replication, window=window),
        name="gray_failure",
        params=params,
        plan=plan,
    )
