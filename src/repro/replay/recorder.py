"""Harvesting a driver run into a :class:`RecordedTrace`.

Recording is a spy, not a fork of the drivers: :func:`record` passes a
:class:`RecordingSpec` as the run's ``workload=``, which compiles to a
proxy that delegates every draw to the real
:class:`~repro.workload.spec.CompiledWorkload` while logging the
results; the fault schedule is harvested post-run from
:attr:`~repro.sim.failures.FailureInjector.applied` (every armed
action fires before the run quiesces, in deterministic heap order).
The recorded run is therefore *bit-identical* to an unrecorded one —
the proxy adds no RNG draws and no events — so a trace can be taken
from any existing experiment without perturbing its committed
trajectory.
"""

from __future__ import annotations

from typing import Any

from repro.engine import jsonable
from repro.experiments import SCENARIOS
from repro.replay.artifact import RecordedTrace
from repro.traffic import Scenario, run_scenario
from repro.workload.spec import WorkloadSpec


def cluster_counters(cluster) -> dict[str, Any]:
    """The deterministic network / WAL / scheduler tallies of a run
    (the same fingerprint the bench suite pins baselines on)."""
    net = cluster.network
    return {
        "messages_sent": net.sent,
        "messages_delivered": net.delivered,
        "messages_dropped": net.dropped,
        "events_run": cluster.scheduler.events_run,
        "wal_forced": sum(site.wal.forced for site in cluster.sites.values()),
        "wal_flushes": sum(site.wal.flushes for site in cluster.sites.values()),
    }


class RecordingSpec:
    """A workload spec that records what its compiled stream emits.

    Drop-in for a :class:`~repro.workload.spec.WorkloadSpec` at any
    driver's ``workload=`` argument: ``compile`` captures the catalog
    the driver binds, and returns a proxy whose draws are logged here
    — ``arrivals``, ``gaps``, ``ops``, ``updates`` — while the real
    compiled workload does all the generating.
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.catalog = None
        self.arrivals: list[float] = []
        self.ops: list = []
        self.updates: list[tuple[int, dict[str, Any]]] = []
        self.gaps: list[float] = []

    def compile(self, catalog, regions=None) -> "_RecordingWorkload":
        """Bind like a spec would, capturing the binding as a side effect
        (a fork: the run may go on to change the placement it was given)."""
        self.catalog = catalog.fork()
        return _RecordingWorkload(self.spec.compile(catalog, regions), self)


class _RecordingWorkload:
    """The compiled-side spy: delegate every draw, log every result."""

    def __init__(self, inner, log: RecordingSpec) -> None:
        self._inner = inner
        self._log = log
        self.spec = inner.spec
        self.catalog = inner.catalog

    def arrivals(self, rng) -> list[float]:
        times = self._inner.arrivals(rng)
        self._log.arrivals = list(times)
        return times

    def next_op(self, rng):
        op = self._inner.next_op(rng)
        self._log.ops.append(op)
        return op

    def next_update(self, rng):
        origin, writes = self._inner.next_update(rng)
        self._log.updates.append((origin, dict(writes)))
        return origin, writes

    def next_gap(self, rng, now=None):
        gap = self._inner.next_gap(rng, now)
        self._log.gaps.append(gap)
        return gap


def record(
    scenario: "Scenario | str",
    protocol: str,
    seed: int = 0,
    *,
    workload: WorkloadSpec | None = None,
    failures=None,
) -> RecordedTrace:
    """Run a scenario once and harvest the full trace.

    ``scenario`` is a :class:`~repro.traffic.Scenario` or a
    :data:`~repro.experiments.SCENARIOS` name (built at its default
    shape); ``workload`` / ``failures`` replace its default spec and
    generated fault schedule exactly as in
    :func:`~repro.traffic.run_scenario`.  The returned trace carries
    everything needed to replay the run — the scenario's name and
    constructor keywords (its JSON identity), the catalog as it stood
    before the run, every draw, the fault schedule that fired — and the
    run's deterministic counters, so replays can be fixed-point checked.

    A closed stream records arrival times; an open-loop stream records
    *gaps* instead — one exponential inter-arrival draw per offered
    arrival — alongside the op stream; shed arrivals consume draws too,
    so the recorded stream replays bit-for-bit regardless of admission
    outcomes.
    """
    if isinstance(scenario, str):
        scenario = SCENARIOS[scenario]()
    spec = workload if workload is not None else scenario.workload
    recording = RecordingSpec(spec)
    run = run_scenario(scenario, protocol, seed, workload=recording, failures=failures)
    return RecordedTrace(
        driver=scenario.name,
        protocol=protocol,
        seed=seed,
        spec=spec,
        catalog=recording.catalog,
        params=jsonable(scenario.params),
        arrivals=recording.arrivals,
        gaps=recording.gaps,
        ops=recording.ops,
        updates=recording.updates,
        actions=list(run.cluster.injector.applied),
        counters=cluster_counters(run.cluster),
        result=jsonable(run.counters()),
    )

