"""One ``Scenario``, one ``run_scenario``: the macro drivers' shared runner.

Every macro experiment (E17, E18, E21–E28, the gray-failure run) asks
what a failure schedule does to a transaction stream under one commit
protocol, and used to answer with its own copy of the same five steps.
A :class:`Scenario` *declares* what differs between them;
:func:`run_scenario` performs the steps once, in the single order that
keeps every pinned trajectory (``README.md``, *Scenarios*, argues each
position in full):

1. **catalog** — the first draws of the scenario's named RNG stream;
2. **cluster** — and, for the single-shot drive, its one update *now*:
   the storm plan crashes that update's origin, so cannot precede it;
3. **plan** — drawn and armed before any arrival is scheduled, so fault
   events keep the scheduler sequence numbers they always had;
4. **drive** — closed, direct, single or open;
5. **tally** — ``probe`` sees the finished cluster after the verdict
   loop, before the result is assembled.

The three pins (``workload`` / ``catalog`` / ``failures``) replace what
steps 1–3 would generate, so a recorded trace and a live generator are
interchangeable: recording, replaying and benching a scenario are all
this one call.

``repro.workload``'s package init imports the worked examples, which
import this module — so nothing here may import ``repro.workload`` at
module level (the catalog memo is imported inside the runner).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.db.cluster import Cluster
from repro.db.txn import TxnHandle
from repro.replication.catalog import ReplicaCatalog
from repro.sim.failures import FailurePlan
from repro.sim.rng import RngRegistry
from repro.traffic.engine import TrafficEngine

#: how a scenario feeds its stream to the cluster.
DRIVES = ("closed", "direct", "single", "open")


@dataclass(frozen=True)
class Scenario:
    """What one macro experiment declares; everything else is the runner.

    Attributes:
        name: registry key (``repro.experiments.SCENARIOS``) and the
            ``driver`` of a recorded trace.
        params: the constructor keywords that built this scenario —
            with ``name`` its JSON identity: ``SCENARIOS[name](**params)``
            rebuilds it, which is how a trace header finds its runner.
        stream: name of the RNG stream catalog, plan and workload draw.
        catalog: ``(build, shape)`` — the placement is ``build(rng,
            **shape)``, memoized under ``(stream, *shape.values())``: the
            memo key cannot miss a parameter the builder depends on.
        workload: the default :class:`~repro.workload.spec.WorkloadSpec`.
        plan: ``plan(rng, cluster, first)`` builds the fault schedule
            (``None`` for a quiet run); ``first`` is the single-shot
            drive's submitted handle, ``None`` in every other mode.
        counters: ``counters(run)`` flattens a finished run into the
            deterministic dict benches pin and traces carry.  It gets
            the run, never a closure over the cluster: a scenario must
            not keep a cluster alive.
        drive: ``"closed"`` (one interactive submission per prefetched
            arrival), ``"direct"`` (closed, direct updates), ``"single"``
            (one update at t=0) or ``"open"`` (sustained-rate service).
        regions: WAN region layout — every listed site is registered
            (pure coordinators included) and the spec compiles against
            it; ``None`` for a flat installation.
        mutable: the plan changes placement (joins, leaves), so the run
            works on a fork of the memoized catalog.
        retry: client :class:`~repro.traffic.engine.RetryPolicy`.
        service: open-loop settings passed to
            :func:`~repro.traffic.open_loop.run_open_loop` (``window``,
            ``latency_hi``, ``bins``, ``adapt``).
    """

    name: str
    params: Mapping[str, Any]
    stream: str
    catalog: tuple[Callable[..., ReplicaCatalog], Mapping[str, Any]]
    workload: Any
    plan: Callable[[random.Random, Cluster, "TxnHandle | None"], "FailurePlan | None"]
    counters: Callable[["ScenarioRun"], dict[str, Any]] = lambda run: run.result.counters()
    drive: str = "closed"
    regions: Sequence[Sequence[int]] | None = None
    mutable: bool = False
    retry: Any = None
    service: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.drive not in DRIVES:
            raise ValueError(f"drive must be one of {DRIVES}, got {self.drive!r}")


@dataclass
class ScenarioRun:
    """A finished run: the cluster, the engine that drove it, the result.

    ``result`` is a :class:`~repro.traffic.WorkloadResult`, or an
    :class:`~repro.traffic.OpenLoopResult` for an open drive; ``txn`` is
    the single-shot drive's handle.  Dropping the run drops the cluster.
    """

    scenario: Scenario
    cluster: Cluster
    engine: TrafficEngine
    result: Any
    txn: TxnHandle | None = None

    def counters(self) -> dict[str, Any]:
        """The scenario's flat deterministic counters for this run."""
        return self.scenario.counters(self)


def run_scenario(
    scenario: Scenario,
    protocol: str,
    seed: int,
    *,
    workload: object | None = None,
    catalog: ReplicaCatalog | None = None,
    failures: FailurePlan | None = None,
    probe: "Callable[[Cluster], None] | None" = None,
) -> ScenarioRun:
    """Run ``scenario`` once under ``protocol`` (see the module docstring
    for the order of steps and why it is fixed).

    ``workload`` replaces the default spec; anything without a
    ``compile`` method is taken to *be* a compiled stream already (a
    :class:`~repro.replay.RecordedWorkload`).  ``catalog`` / ``failures``
    pin the placement and the fault schedule; a pinned catalog is used
    as given, so hand a ``mutable`` scenario a fork.  ``probe`` is
    called with the finished cluster.
    """
    from repro.workload.generators import memoized_catalog

    rng = RngRegistry(seed).stream(scenario.stream)
    if catalog is None:
        build, shape = scenario.catalog
        catalog = memoized_catalog(
            rng,
            (scenario.stream, *shape.values()),
            lambda r: build(r, **shape),
            mutable=scenario.mutable,
        )
    spec = workload if workload is not None else scenario.workload
    compiled = spec.compile(catalog, scenario.regions) if hasattr(spec, "compile") else spec
    everyone = [site for region in scenario.regions or () for site in region]
    cluster = Cluster(catalog, protocol=protocol, seed=seed, extra_sites=everyone)
    engine = TrafficEngine(cluster, compiled, rng, retry=scenario.retry)
    txn = None
    if scenario.drive == "single":
        txn = engine.submit_now()
        engine.handles[txn.txn] = txn  # submit_now leaves the tally to its caller
    if failures is None:
        failures = scenario.plan(rng, cluster, txn)
    if failures is not None:
        cluster.arm_failures(failures)

    if scenario.drive == "open":
        result = engine.run_open(protocol, probe=probe, **scenario.service)
    else:
        if scenario.drive == "single":
            engine.run_to_quiescence()
        else:
            engine.run_closed(engine.submit_direct if scenario.drive == "direct" else None)
        result = engine.tally(protocol, probe=probe)
    return ScenarioRun(scenario, cluster, engine, result, txn)
