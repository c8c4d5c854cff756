"""The four benchmark workloads: inputs from a seed, one pass, vt analysis.

Each workload is a class with the same three-step shape:

* ``__init__(seed, scale)`` — the *set-up*: every input the pass needs
  (catalogs, compiled specs, failure plans, RNG states) is generated
  here from the seed, so a pass is system work only.
* ``run_pass(lap=..., facts=None)`` — one pass of identical
  deterministic work against the public API; returns a
  :class:`PassResult` whose ``counters`` are exact and feed the
  ``sim_fingerprint``.  ``lap()`` is called at the end of every segment
  of the pass (see ``clock.py``).  Given a :class:`ClusterFacts` (the
  untimed warm-up pass only), every finished cluster is checked by the
  oracle and read for latencies before it is dropped.
* ``analyse(result, facts)`` — the virtual-time metrics and the rest of
  the oracle, computed once, outside any timed region.

The module imports only the public surface listed in ``README.md``; it
passes no legacy-arm flag and never touches ``repro.bench``,
``repro.experiments``, ``repro.replay`` or ``repro.workload.scenarios``.
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro import Cluster, FailurePlan, FixedDelay, UniformDelay
from repro.concurrency.serializability import ConflictGraph
from repro.engine import (
    CountAcc,
    JsonlSink,
    MeanAcc,
    QuantileDigest,
    ReducerSink,
    RowReducer,
    SweepSpec,
    TeeSink,
    iter_stream_rows,
    merge_digests,
    row_digest,
    run_sweep,
    shutdown_shared_runners,
)
from repro.traffic import TrafficEngine
from repro.workload.generators import (
    random_catalog,
    random_partition_groups,
    region_storm_plan,
    wan_catalog,
    wan_regions,
)
from repro.workload.spec import WorkloadSpec

PROTOCOLS = ("2pc", "3pc", "skq", "qtp1", "qtp2")

#: smoke runs are 1/20 of the full size; never comparable with full runs.
SCALES = {"full": 1.0, "smoke": 0.05}

#: the open-loop SLO: decide p99 <= 5 T, failed share <= 0.25, nothing
#: unresolved at quiescence.
SLO_P99_T = 5.0
SLO_FAILED_SHARE = 0.25


def derive_seed(seed: int, *parts: Any) -> int:
    """A 63-bit child seed from the run seed and a label (SHA-256, not
    ``hash()``: that one is salted per process)."""
    key = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big") >> 1


def no_lap() -> None:
    """The default segment hook: an untimed pass."""


def work_dir() -> Path:
    """A fresh scratch directory.  It is made inside the checkout (the
    root ``.gitignore`` names ``.work/``): the benchmark contract lets a
    run write nowhere else."""
    root = Path(__file__).resolve().parent / ".work"
    root.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=root))


def scaled(n: int, scale: str) -> int:
    return max(1, round(n * SCALES[scale]))


#: what an end-to-end metric reads on a workload that has no such
#: quantity: every name is printed on every workload, and never as 0.
NOT_APPLICABLE = 1.0


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sample
    (:data:`NOT_APPLICABLE` if it is empty)."""
    if not sorted_values:
        return NOT_APPLICABLE
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class PassResult:
    """What one pass did, in exact counts."""

    ops: int
    events: int
    counters: dict[str, Any]


def cluster_counters(cluster: Cluster) -> dict[str, int]:
    """The public deterministic counters of one finished cluster."""
    wals = [site.wal for site in cluster.sites.values()]
    net = cluster.network
    return {
        "events": cluster.scheduler.events_run,
        "sent": net.sent,
        "delivered": net.delivered,
        "dropped": net.dropped,
        "forced": sum(w.forced for w in wals),
        "flushes": sum(w.flushes for w in wals),
        "records": len(cluster.tracer),
    }


def add_counters(total: dict[str, int], part: dict[str, int]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def txn_latencies(cluster: Cluster) -> dict[str, Any]:
    """Per-transaction protocol latencies of one finished cluster.

    ``decide``: coord-begin -> first decision record at any site, over
    transactions that reached the protocol.  ``settle``: coord-begin ->
    last decision record, over transactions every live participant
    decided.  ``unsettled`` names the rest (a live participant still in
    doubt at quiescence — the paper's blocking measure).
    """
    tracer = cluster.tracer
    begins = {rec.txn: rec.time for rec in tracer.where(category="coord-begin")}
    first: dict[str, float] = {}
    last: dict[str, float] = {}
    commits = 0
    for rec in tracer.where(category="decision"):
        if rec.txn not in first:
            first[rec.txn] = rec.time
            commits += rec.detail["outcome"] == "commit"
        last[rec.txn] = rec.time
    decide, settle, unsettled = [], [], []
    for txn, began in begins.items():
        if txn in first:
            decide.append(first[txn] - began)
        if cluster.live_undecided(txn):
            unsettled.append(txn)
        elif txn in last:
            settle.append(last[txn] - began)
    return {
        "reached": len(begins),
        "commits": commits,
        "decide": decide,
        "settle": settle,
        "unsettled": unsettled,
    }


class Violations(list):
    """Oracle findings; any entry fails the run."""

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


class ClusterFacts:
    """What :meth:`analyse` reads off the finished clusters of a kept
    pass: the oracle's verdicts, pooled latencies and exact counts."""

    def __init__(self, violations: Violations) -> None:
        self.violations = violations
        #: label -> that cluster's latencies (see :func:`txn_latencies`)
        self.parts: dict[str, dict[str, Any]] = {}
        self.pooled: list[dict[str, Any]] = []
        self.decide_by: dict[str, list[float]] = {}
        self.mixed_3pc = 0
        self.commits = self.reached = 0
        #: transactions left unsettled or terminated inconsistently
        self.unterminated = 0
        self.term_msgs = self.election_rounds = 0

    def add(self, label: str, protocol: str, cluster: Cluster, pool: bool = True) -> None:
        """Check one finished cluster and fold its facts.

        ``pool=False`` keeps the cluster out of the pooled latency
        quantiles (``open_service`` pools one stream only).
        """
        check = self.violations.check
        mixed = {
            rec.txn
            for rec in cluster.tracer.where(category="coord-begin")
            if cluster.outcome(rec.txn).outcome == "mixed"
        }
        if protocol == "3pc":
            # the paper's Example 2: 3PC may terminate inconsistently
            self.mixed_3pc += len(mixed)
        else:
            check(not mixed, f"{label}: {len(mixed)} mixed outcome(s) under {protocol}")
        if not mixed:  # a mixed termination has no single committed history
            check(
                ConflictGraph(cluster.committed_history()).is_serializable(),
                f"{label}: committed history is not one-copy serializable",
            )
        net = cluster.network
        check(
            net.sent == net.delivered + net.dropped,
            f"{label}: sent {net.sent} != delivered {net.delivered} + dropped {net.dropped}",
        )
        part = self.parts[label] = txn_latencies(cluster)
        if pool:
            self.pooled.append(part)
        self.decide_by.setdefault(protocol, []).extend(part["decide"])
        self.commits += part["commits"]
        self.reached += part["reached"]
        self.unterminated += len(mixed.union(part["unsettled"]))
        self.term_msgs += sum(
            n for mtype, n in cluster.message_counts().items() if ".t." in mtype
        )
        self.election_rounds += cluster.tracer.count("election")

    def metrics(self, decide: bool = True) -> dict[str, Any]:
        """The pooled vt metrics plus the exact per-layer counts.

        ``decide=False`` marks the decide quantiles not applicable.
        """
        pooled_decide = sorted(x for part in self.pooled for x in part["decide"]) if decide else []
        settle = sorted(x for part in self.pooled for x in part["settle"])
        reached = sum(part["reached"] for part in self.pooled)
        unsettled = sum(len(part["unsettled"]) for part in self.pooled)
        return {
            "decide_p50_vt": quantile(pooled_decide, 0.50),
            "decide_p99_vt": quantile(pooled_decide, 0.99),
            "decide_n": len(pooled_decide),
            "settle_p50_vt": quantile(settle, 0.50),
            "settle_p95_vt": quantile(settle, 0.95),
            "settle_n": len(settle),
            "settled_fraction": (reached - unsettled) / reached if reached else NOT_APPLICABLE,
            "protocol_txns": self.reached,
            "protocol_commits": self.commits,
            "unterminated": self.unterminated,
            "mixed_3pc": self.mixed_3pc,
            "term_msgs": self.term_msgs,
            "election_rounds": self.election_rounds,
            "decide_p50_by_protocol": {
                protocol: quantile(sorted(values), 0.50)
                for protocol, values in self.decide_by.items()
            },
        }


class Workload:
    """What ``run.py`` drives: ``run_pass``, ``analyse`` and ``close``."""

    name: str
    #: whether the workload has numbers on the virtual clock
    on_vt_clock = True

    def close(self) -> None:
        """Release what the set-up acquired (most workloads: nothing)."""


# ----------------------------------------------------------------------
# closed_heavy
# ----------------------------------------------------------------------


class ClosedHeavy(Workload):
    """Closed loop: write transactions through all five commit engines
    under partition episodes and site crashes.  Op = one offered txn."""

    name = "closed_heavy"
    N_TXNS, N_SITES, N_ITEMS, COPIES = 600, 12, 64, 3
    MEAN_GAP = 1.5
    EPISODES, EPISODE_VT = 4, 30.0
    CRASHES, CRASH_VT = 2, 40.0

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.n_txns = scaled(self.N_TXNS, scale)
        self.delay = UniformDelay(0.2, 1.0)
        spec = WorkloadSpec(n_txns=self.n_txns, mean_spacing=self.MEAN_GAP, footprint=(1, 3))
        # each protocol gets its own installation, fault schedule and
        # stream: the benchmark does not compare protocols, and five
        # independent draws steady the pooled numbers between seeds
        self.inputs = {}
        for protocol in PROTOCOLS:
            rng = random.Random(derive_seed(seed, self.name, protocol, "inputs"))
            catalog = random_catalog(
                rng, n_sites=self.N_SITES, n_items=self.N_ITEMS, replication=self.COPIES
            )
            plan = self._fault_plan(rng, sorted(catalog.all_sites()), self.n_txns * self.MEAN_GAP)
            stream_seed = derive_seed(seed, self.name, protocol, "stream")
            self.inputs[protocol] = (catalog, spec.compile(catalog), plan, stream_seed)
        self.ops_per_pass = self.n_txns * len(PROTOCOLS)

    def _fault_plan(self, rng: random.Random, sites: list[int], horizon: float) -> FailurePlan:
        """Partition episodes evenly spread over the arrival horizon,
        crash/recover pairs in the gaps between them."""
        plan = FailurePlan()
        slot = horizon / (self.EPISODES + 1)
        for k in range(self.EPISODES):
            start = slot * (k + 1)
            groups = random_partition_groups(rng, sites, rng.choice([2, 2, 3]))
            plan.partition(start, *groups).heal(start + self.EPISODE_VT)
        for k, victim in enumerate(rng.sample(sites, self.CRASHES)):
            start = slot * (2 * k + 1.5)
            plan.crash(start, victim).recover(start + self.CRASH_VT, victim)
        return plan

    def run_pass(
        self, lap: Callable[[], None] = no_lap, facts: ClusterFacts | None = None
    ) -> PassResult:
        counters: dict[str, Any] = {}
        for protocol in PROTOCOLS:
            catalog, compiled, plan, stream_seed = self.inputs[protocol]
            cluster = Cluster(catalog, protocol=protocol, seed=stream_seed, delay_model=self.delay)
            cluster.arm_failures(plan)
            engine = TrafficEngine(cluster, compiled, random.Random(stream_seed))
            engine.run_closed()
            tally = engine.tally(protocol)
            lap()
            add_counters(counters, cluster_counters(cluster))
            unreachable = engine.tallies.get("unreachable_origin", 0)
            counters[protocol] = [
                tally.submitted + unreachable,
                tally.committed + tally.reads_committed,
                tally.client_aborted + tally.protocol_aborted,
                tally.blocked,
                unreachable,
                tally.serializable,
            ]
            if facts is not None:
                facts.add(f"{self.name}/{protocol}", protocol, cluster)
        return PassResult(self.ops_per_pass, counters["events"], counters)

    def analyse(self, result: PassResult, facts: ClusterFacts) -> dict[str, Any]:
        committed = offered = 0
        for protocol in PROTOCOLS:
            row = result.counters[protocol]
            offered += row[0]
            committed += row[1]
            facts.violations.check(
                row[0] == self.n_txns and row[0] == sum(row[1:5]),
                f"{self.name}/{protocol}: offered {row[0]} != "
                "committed + aborted + blocked + unreachable",
            )
        out = facts.metrics()
        out.update(
            commit_fraction=committed / offered,
            slo_rate_vt=NOT_APPLICABLE,
            client_failed=offered - committed,
        )
        return out


# ----------------------------------------------------------------------
# open_service
# ----------------------------------------------------------------------


class OpenService(Workload):
    """Open loop on the virtual clock: reads beside writes, arrivals on
    a schedule, admission and shedding, slow-not-dead faults.  Op = one
    offered arrival."""

    name = "open_service"
    SERVICE_PROTOCOLS = ("2pc", "qtp1")
    RATES = (2.0, 4.0, 8.0)
    DURATION = 400.0
    N_SITES, N_ITEMS, COPIES = 9, 96, 3
    READ_FRACTION, WINDOW = 0.7, 2

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.duration = self.DURATION * SCALES[scale]
        self.delay = UniformDelay(0.2, 1.0)
        # one installation, fault schedule and stream per protocol x rate
        # (independent draws, as in closed_heavy)
        self.inputs = {}
        for protocol in self.SERVICE_PROTOCOLS:
            for rate in self.RATES:
                rng = random.Random(derive_seed(seed, self.name, protocol, rate, "inputs"))
                catalog = random_catalog(
                    rng, n_sites=self.N_SITES, n_items=self.N_ITEMS, replication=self.COPIES
                )
                compiled = WorkloadSpec(
                    arrival="open",
                    rate=rate,
                    duration=self.duration,
                    read_fraction=self.READ_FRACTION,
                    footprint=(1, 2),
                ).compile(catalog)
                plan = self._fault_plan(rng, sorted(catalog.all_sites()))
                stream_seed = derive_seed(seed, self.name, protocol, rate, "stream")
                self.inputs[protocol, rate] = (catalog, compiled, plan, stream_seed)

    def _fault_plan(self, rng: random.Random, sites: list[int]) -> FailurePlan:
        """Majority/minority partition over 25-35% of the interval, one
        site degraded x4 over 50-70%, one link flapping from 55%."""
        shuffled = rng.sample(sites, len(sites))
        cut = (2 * len(sites)) // 3
        d = self.duration
        slow = rng.choice(sites)
        src, dst = rng.sample(sites, 2)
        return (
            FailurePlan()
            .partition(1.0 + 0.25 * d, sorted(shuffled[:cut]), sorted(shuffled[cut:]))
            .heal(1.0 + 0.35 * d)
            .degrade(1.0 + 0.50 * d, slow, 4.0)
            .restore(1.0 + 0.70 * d, slow)
            .flap(1.0 + 0.55 * d, src, dst, period=6.0, cycles=8)
        )

    def run_pass(
        self, lap: Callable[[], None] = no_lap, facts: ClusterFacts | None = None
    ) -> PassResult:
        counters: dict[str, Any] = {}
        ops = 0
        for protocol in self.SERVICE_PROTOCOLS:
            for rate in self.RATES:
                catalog, compiled, plan, stream_seed = self.inputs[protocol, rate]
                cluster = Cluster(
                    catalog, protocol=protocol, seed=stream_seed, delay_model=self.delay
                )
                cluster.arm_failures(plan)
                engine = TrafficEngine(cluster, compiled, random.Random(stream_seed))
                res = engine.run_open(protocol, window=self.WINDOW)
                lap()
                add_counters(counters, cluster_counters(cluster))
                ops += res.offered
                counters[f"{protocol}@{rate:g}"] = [
                    res.offered,
                    res.admitted,
                    res.shed_backpressure,
                    res.shed_unreachable,
                    res.committed,
                    res.reads_committed,
                    res.client_aborted,
                    res.protocol_aborted,
                    res.unresolved,
                    res.serializable,
                    res.latency["n"],
                ]
                if facts is not None:
                    # the latency pool is the protocol slo_rate_vt judges
                    facts.add(
                        f"{protocol}@{rate:g}",
                        protocol,
                        cluster,
                        pool=protocol == "qtp1",
                    )
        return PassResult(ops, counters["events"], counters)

    def analyse(self, result: PassResult, facts: ClusterFacts) -> dict[str, Any]:
        check = facts.violations.check
        by_rate: dict[float, dict[str, float]] = {}
        offered = committed = shed = client_aborted = 0
        # below the range (and never 0) when no rate meets the limits
        slo_rate = min(self.RATES) / 2
        for protocol in self.SERVICE_PROTOCOLS:
            for rate in self.RATES:
                label = f"{protocol}@{rate:g}"
                (n_offered, admitted, shed_busy, shed_down, n_committed, reads, client_ab,
                 protocol_ab, unresolved, _serializable, _n) = result.counters[label]
                done = n_committed + reads
                check(
                    n_offered == admitted + shed_busy + shed_down,
                    f"{self.name}/{label}: offered != admitted + shed",
                )
                check(
                    admitted >= done + client_ab + protocol_ab,
                    f"{self.name}/{label}: committed + aborted exceed admitted",
                )
                offered += n_offered
                committed += done
                shed += shed_busy + shed_down
                client_aborted += client_ab
                if protocol == "qtp1":
                    p99 = quantile(sorted(facts.parts[label]["decide"]), 0.99)
                    failed_share = (n_offered - done) / n_offered
                    by_rate[rate] = {"p99_vt": p99, "failed_fraction": failed_share}
                    if (
                        p99 <= SLO_P99_T * self.delay.max_delay
                        and failed_share <= SLO_FAILED_SHARE
                        and unresolved == 0
                    ):
                        slo_rate = max(slo_rate, rate)
        out = facts.metrics()
        out.update(
            commit_fraction=committed / offered,
            slo_rate_vt=slo_rate,
            client_failed=offered - committed,
            shed_fraction=shed / offered,
            client_abort_fraction=client_aborted / offered,
            by_rate=by_rate,
        )
        return out


# ----------------------------------------------------------------------
# wan_termination
# ----------------------------------------------------------------------


class WanTermination(Workload):
    """One multi-item update per fresh 32-site WAN cluster, its
    coordinator crashed early, four region-aligned partition waves.
    Op = one storm run."""

    name = "wan_termination"
    STORMS, SEGMENT_STORMS = 100, 20
    REGIONS, SITES_PER_REGION, N_ITEMS, REGION_COPIES, WAVES = 4, 8, 16, 3, 4

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.n_storms = scaled(self.STORMS, scale)
        self.regions = wan_regions(self.REGIONS, self.SITES_PER_REGION)
        self.all_sites = [s for region in self.regions for s in region]
        self.delay = FixedDelay(1.0)
        spec = WorkloadSpec(n_txns=1, footprint=(2, 4))
        # every protocol meets its own storms (independent draws, as in
        # closed_heavy); i is the storm's index within its protocol
        self.storms = {protocol: [] for protocol in PROTOCOLS}
        for protocol, i in ((p, i) for p in PROTOCOLS for i in range(self.n_storms)):
            rng = random.Random(derive_seed(seed, self.name, protocol, i))
            catalog = wan_catalog(
                rng,
                n_regions=self.REGIONS,
                sites_per_region=self.SITES_PER_REGION,
                n_items=self.N_ITEMS,
                region_replication=self.REGION_COPIES,
            )
            compiled = spec.compile(catalog, self.regions)
            # peek the update the pass will submit (same RNG state), so
            # the plan can name its coordinator before any cluster exists
            submit_state = rng.getstate()
            origin, _writes = compiled.next_update(rng)
            heal = i % 2 == 0
            plan = region_storm_plan(rng, self.regions, waves=self.WAVES, heal=heal)
            plan.crash(rng.uniform(1.0, 2.5), origin)
            if heal:
                plan.recover(max(a.time for a in plan.actions) + 5.0, origin)
            net_seed = derive_seed(seed, self.name, protocol, i, "net")
            self.storms[protocol].append((i, catalog, compiled, submit_state, plan, net_seed))
        self.ops_per_pass = self.n_storms * len(PROTOCOLS)

    def run_pass(
        self, lap: Callable[[], None] = no_lap, facts: ClusterFacts | None = None
    ) -> PassResult:
        counters: dict[str, Any] = {}
        outcomes = {protocol: [0, 0, 0, 0] for protocol in PROTOCOLS}
        for protocol in PROTOCOLS:
            for i, catalog, compiled, submit_state, plan, net_seed in self.storms[protocol]:
                cluster = Cluster(
                    catalog,
                    protocol=protocol,
                    seed=net_seed,
                    delay_model=self.delay,
                    extra_sites=self.all_sites,
                )
                rng = random.Random()
                rng.setstate(submit_state)
                engine = TrafficEngine(cluster, compiled, rng)
                txn = engine.submit_now()
                cluster.arm_failures(plan)
                engine.run_to_quiescence()
                report = cluster.outcome(txn.txn)
                if (i + 1) % self.SEGMENT_STORMS == 0 or i + 1 == self.n_storms:
                    lap()
                add_counters(counters, cluster_counters(cluster))
                slot = ("commit", "abort", "blocked", "mixed").index(report.outcome)
                outcomes[protocol][slot] += 1
                if facts is not None:
                    facts.add(f"{self.name}/{protocol}#{i}", protocol, cluster)
        counters.update(outcomes)
        return PassResult(self.ops_per_pass, counters["events"], counters)

    def analyse(self, result: PassResult, facts: ClusterFacts) -> dict[str, Any]:
        # one transaction over a fixed delay: decide latencies are whole
        # multiples of T, so their quantiles jump between seeds; the
        # settle quantiles (set by the random wave times) are the metric
        out = facts.metrics(decide=False)
        out.update(
            commit_fraction=NOT_APPLICABLE,
            slo_rate_vt=NOT_APPLICABLE,
            client_failed=out["unterminated"],
        )
        return out


# ----------------------------------------------------------------------
# sweep_stream
# ----------------------------------------------------------------------


def tiny_cell(seed: int) -> dict[str, float]:
    """A sweep cell with the simulator taken out: a few RNG draws."""
    rng = random.Random(seed)
    draws = [rng.random() for _ in range(8)]
    return {"mean": sum(draws) / len(draws), "peak": max(draws)}


def sweep_reducer() -> RowReducer:
    return RowReducer(
        (
            ("mean", "mean", MeanAcc()),
            ("peak", "peak", QuantileDigest(0.0, 1.0, 64)),
            ("rows", "peak", CountAcc()),
        )
    )


class SweepStream(Workload):
    """The sweep engine alone: tiny cells through the persistent pool
    into a gzip'd JSONL artifact plus a streaming reducer.  Op = one
    cell."""

    name = "sweep_stream"
    on_vt_clock = False
    CELLS, WORKERS = 25_000, 2

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.cells = scaled(self.CELLS, scale)
        self.spec = SweepSpec(
            "e2e-sweep-stream",
            tiny_cell,
            grid={},
            runs=self.cells,
            base_seed=derive_seed(seed, self.name) % (1 << 31),
        )
        self.workdir = work_dir()
        self.artifact = self.workdir / "rows.jsonl.gz"
        self.ops_per_pass = self.cells
        # pool spawn + first dispatch: the warm pool is part of set-up
        warm = SweepSpec("e2e-warm", tiny_cell, grid={}, runs=2 * self.WORKERS)
        run_sweep(warm, workers=self.WORKERS, persistent_pool=True, sink=ReducerSink(sweep_reducer()))
        self.reference: dict[str, Any] | None = None

    def compute_reference(self) -> None:
        """The serial ``workers=1`` reference the oracle compares with
        (benchmark-only work, so outside ``setup_s``)."""
        sink = ReducerSink(sweep_reducer())
        run_sweep(self.spec, workers=1, sink=sink)
        self.reference = sink.summary()

    def run_pass(
        self, lap: Callable[[], None] = no_lap, facts: ClusterFacts | None = None
    ) -> PassResult:
        reducer = ReducerSink(sweep_reducer())
        sink = TeeSink(JsonlSink(self.artifact), reducer)
        outcome = run_sweep(self.spec, workers=self.WORKERS, persistent_pool=True, sink=sink)
        # one segment: a kernel run mid-sweep would time this program's
        # own workers competing for the cores, not the machine
        lap()
        summary = outcome.aggregate
        counters = {
            "rows": summary["rows"],
            "digest": summary["digest"],
            "reduced": reducer.summary()["metrics"],
            "artifact_bytes": self.artifact.stat().st_size,
        }
        return PassResult(self.ops_per_pass, 0, counters)

    def analyse(self, result: PassResult, facts: ClusterFacts) -> dict[str, Any]:
        violations = facts.violations
        if self.reference is None:
            self.compute_reference()
        rows = digest = 0
        for row in iter_stream_rows(self.artifact):
            rows += 1
            digest = merge_digests(digest, row_digest(row))
        reference = self.reference
        violations.check(rows == self.cells, f"{self.name}: artifact has {rows} rows, not {self.cells}")
        violations.check(
            digest == reference["digest"] == result.counters["digest"],
            f"{self.name}: artifact digest differs from the serial reference",
        )
        violations.check(
            result.counters["reduced"] == reference["metrics"],
            f"{self.name}: streamed aggregates differ from the serial reference",
        )
        out = facts.metrics()  # no clusters: every cluster metric reads n/a
        out.update(
            commit_fraction=NOT_APPLICABLE,
            slo_rate_vt=NOT_APPLICABLE,
            client_failed=self.cells - rows,
            bytes_per_row=result.counters["artifact_bytes"] / self.cells,
        )
        return out

    def close(self) -> None:
        """Stop the worker pool and remove the artifact directory."""
        shutdown_shared_runners()
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (ClosedHeavy, OpenService, WanTermination, SweepStream)
}
