"""Bench-suite determinism properties, and the pinned hot paths held
against naive references.

``bench diff`` is only a trustworthy gate if the suite is a *fixed
point*: running the same cases twice with the same seeds — or at any
worker count — must yield byte-identical deterministic payloads, so the
only way a committed ``BENCH_*.json`` can disagree with a fresh run is
a genuine behaviour change.

The hypothesis cases extend the guarantee across seeds: each optimized
hot path must agree with a naive reference defined in this file.  A
reference that drops into a cluster (the network, a site's lock
manager, the catalog memo) is patched in for whole scenario runs — the
trajectories the committed baselines pin — and must leave every
counter unchanged.  One that does not (the trace store, the write-ahead
log, crash recovery's replay, the pool-per-sweep runner) is driven by a
small trial here, against the optimized path, on the same seeds.
"""

import contextlib
import dataclasses
import random
from collections import Counter
from typing import Any, Iterator, NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import CASES, encode, run_case
from repro.common.errors import StorageError
from repro.concurrency.locks import LockManager, LockMode
from repro.engine import SweepRunner, SweepSpec, run_sweep
from repro.experiments.examples import example1_scenario, example3_scenario
from repro.experiments.resilience_study import gray_failure_scenario
from repro.experiments.sweeps import wan_storm_scenario
from repro.experiments.workload_study import heavy_workload_scenario
from repro.net.delays import UniformDelay
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.net.partitions import PartitionView
from repro.replay import cluster_counters
from repro.sim.failures import FailurePlan
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer, TraceRecord
from repro.storage.recovery import recover_protocol_states, replay_data
from repro.storage.store import ReplicaStore
from repro.storage.wal import LogRecord, WriteAheadLog
from repro.traffic import run_scenario
from repro.workload.spec import WorkloadSpec

@pytest.fixture(scope="module")
def serial_payloads():
    """One serial run of every registered case at its committed shape,
    encoded (about a second for the whole registry)."""
    return {name: encode(run_case(name)) for name in CASES}


class TestFixedPoint:
    def test_two_runs_byte_identical(self, serial_payloads):
        for name, first in serial_payloads.items():
            assert encode(run_case(name)) == first, f"case {name} is not a fixed point"

    def test_serial_vs_parallel_byte_identical(self, serial_payloads):
        for name, serial in serial_payloads.items():
            assert encode(run_case(name, workers=2)) == serial, f"case {name} differs across worker counts"


class _FreshViewNetwork(Network):
    """Reference: validate and build a ``PartitionView`` on every event."""

    def _interned_view(self, groups):
        return PartitionView(self._nodes, groups)


class _ScanLockManager(LockManager):
    """Reference: every grant decided by the compatibility matrix,
    scanned over every holder; only a granted lock reaches the table."""

    def try_acquire(self, txn, item, mode):
        holders = self.holder_modes(item)
        held = holders.get(txn)
        if held is None:
            grant = all(mode is h is LockMode.SHARED for h in holders.values())  # only S/S coexist
        else:  # re-acquisition, or a sole holder's S -> X upgrade
            grant = held is mode or held is LockMode.EXCLUSIVE or len(holders) == 1
        if grant:
            assert super().try_acquire(txn, item, mode), "the table refused a compatible lock"
        return grant


def _rebuilt_catalog(rng, key, build):
    """Reference: no memo at all, a fresh build per run."""
    return build(rng)


def _runs(seed):
    """Whole runs a reference must leave unchanged: partition episodes,
    Zipf contention on a hot item, and region storms that crash the
    coordinator, with and without the heal that recovers it."""
    zipf = WorkloadSpec(n_txns=30, popularity="zipf", zipf_s=1.4, mean_spacing=1.2)
    return [
        run_scenario(heavy_workload_scenario(n_txns=24, n_sites=6), "qtp1", seed),
        run_scenario(heavy_workload_scenario(n_sites=10, n_items=8), "2pc", seed, workload=zipf),
        run_scenario(wan_storm_scenario(), "qtp1", seed),
        run_scenario(wan_storm_scenario(heal=True), "qtp2", seed),
    ]


def _counters(seed, target=None, reference=None):
    """The runs' counters, cluster fingerprints and network breakdowns,
    with ``reference`` patched over ``target`` while they run."""
    with mock.patch(target, reference) if target else contextlib.nullcontext():
        return [
            {
                **run.counters(),
                **cluster_counters(run.cluster),
                "sent_by_type": run.cluster.network.sent_by_type,
                "dropped_by": run.cluster.network.dropped_by,
            }
            for run in _runs(seed)
        ]


def _with_lossy_links(scenario):
    """``scenario`` with lossy links added to its fault plan: one link
    flaps severed, and the links between one site and three others lose
    40% / 60% of their messages, set again after each heal clears them."""

    def plan(rng, cluster, first):
        built = scenario.plan(rng, cluster, first) or FailurePlan()
        a, b, *others = sorted(cluster.catalog.all_sites())[:5]
        built.flap(1.0, a, b, period=4.0, cycles=10)
        for t in (0.5, 15.0, 30.0, 45.0):
            for other in others:
                built.sever(t, b, other, p=0.4).sever(t, other, b, p=0.6)
        return built

    return dataclasses.replace(scenario, plan=plan)


def _fault_runs(seed):
    """Every trace row (message rows kept), counter, per-type and
    per-reason count and ``net`` draw of whole runs whose faults reach
    past crashes and partitions: lossy and flapping links (beside a slow
    site in the gray failure), and the paper's counterexamples, which
    lose all PREPAREs but one through a filter."""
    scenarios = [
        (_with_lossy_links(heavy_workload_scenario(n_txns=24, n_sites=6)), "qtp1"),
        (_with_lossy_links(heavy_workload_scenario(n_txns=30, n_sites=8)), "qtp2"),
        (gray_failure_scenario(duration=60.0, episode_start=10.0), "qtp1"),
    ]
    runs = [run_scenario(scenario, protocol, seed, message_rows=True) for scenario, protocol in scenarios]
    runs.append(run_scenario(example1_scenario(), "qtp1", seed, message_rows=True))
    runs.append(
        run_scenario(example3_scenario(False), "qtp1", seed, message_rows=True, expect=frozenset({"atomicity"}))
    )
    clusters = [run.cluster for run in runs]
    return [
        (
            cluster_counters(c),
            c.tracer.dump(),
            c.network.sent_by_type,
            c.network.dropped_by,
            c.rng.stream("net").getstate(),
        )
        for c in clusters
    ]


class _Inbox(Node):
    """A node that keeps what it is delivered, rendered."""

    def __init__(self, node_id, network):
        super().__init__(node_id, network)
        self.received = []
        self.on("t.ping", lambda msg: self.received.append(str(msg)))


_SITES = (1, 2, 3, 4, 5)
_site = st.sampled_from(_SITES)
_LOSS = st.tuples(
    st.just("loss"), _site, _site, st.one_of(st.floats(0.01, 0.99), st.sampled_from((0.0, 1.0)))
)
#: one fault-model step: a send or fan-out (at the network, so a dead
#: sender's traffic is dropped, not refused), a lossy link with
#: ``0 < p < 1`` (or severed, or mended), a filter, a partition, a heal,
#: a crash or recovery, or time passing with messages in flight
_NET_OPS = st.one_of(
    st.tuples(st.just("send"), _site, st.sampled_from((*_SITES, 9))),
    st.tuples(st.just("fanout"), _site, st.lists(st.sampled_from((*_SITES, 9)), max_size=6)),
    _LOSS,
    _LOSS,  # twice, so most runs hold a lossy link or two
    st.tuples(st.just("filter"), _site),
    st.tuples(st.just("partition"), st.lists(st.integers(0, 2), min_size=5, max_size=5)),
    st.tuples(st.just("heal")),
    st.tuples(st.just("crash"), _site),
    st.tuples(st.just("recover"), _site),
    st.tuples(st.just("advance"), st.floats(0.0, 1.5)),
)


def _lossy_run(seed, ops, network_class):
    """Drive ``ops`` through a five-site network of ``network_class``,
    each op followed by a round of traffic from every site to every site
    and to an unknown one, so every fault meets messages on both send
    paths.  Returns the trace, the counters, what each site was
    delivered and the state of the ``net`` stream afterwards."""
    scheduler, rng = Scheduler(), RngRegistry(seed)
    network = network_class(scheduler, Tracer(), rng, UniformDelay(0.2, 1.0))
    nodes = [_Inbox(site, network) for site in _SITES]
    for n, (kind, *args) in enumerate(ops):
        if kind == "send":
            network.send(Message(args[0], args[1], "t.ping", f"T{n}"))
        elif kind == "fanout":
            network.fanout(args[0], args[1], "t.ping", f"T{n}", {"n": n})
        elif kind == "loss":
            network.set_link_loss(*args)
        elif kind == "filter":
            network.add_filter(lambda msg, dst=args[0], txn=f"R{n}": msg.dst == dst and msg.txn == txn)
        elif kind == "partition":
            groups = [[s for s, g in zip(_SITES, args[0]) if g == group] for group in range(3)]
            network.set_partition([group for group in groups if group])
        elif kind == "heal":
            network.heal()
        elif kind == "crash":
            network.crash_site(args[0])
        elif kind == "recover":
            network.recover_site(args[0])
        else:
            scheduler.run_until(scheduler.now + args[0])
        for src in _SITES:  # as a fan-out after even ops, as sends after odd ones
            if n % 2:
                for dst in (*_SITES, 9):
                    network.send(Message(src, dst, "t.ping", f"R{n}"))
            else:
                network.fanout(src, (*_SITES, 9), "t.ping", f"R{n}")
    scheduler.run()
    counters = (
        network.sent,
        network.delivered,
        network.dropped,
        network.sent_by_type,
        network.dropped_by,
        scheduler.events_run,
    )
    inboxes = [node.received for node in nodes]
    return network.tracer.dump(), counters, inboxes, rng.stream("net").getstate()


class _ListTracer:
    """Reference: a plain list of records, every query a linear scan."""

    def __init__(self):
        self.records = []

    def __len__(self):
        return len(self.records)

    def record(self, time, site, category, txn="", **detail):
        self.records.append(TraceRecord(time, site, category, txn, detail))

    def record_send(self, time, site, txn, mtype, dst):
        self.record(time, site, "send", txn, mtype=mtype, dst=dst)

    def record_deliver(self, time, site, txn, mtype, src):
        self.record(time, site, "deliver", txn, mtype=mtype, src=src)

    def record_drop(self, time, site, txn, mtype, dst, reason):
        self.record(time, site, "drop", txn, mtype=mtype, dst=dst, reason=reason)

    def where(self, category=None, site=None, txn=None):
        return [
            r
            for r in self.records
            if (category is None or r.category == category)
            and (site is None or r.site == site)
            and (txn is None or r.txn == txn)
        ]

    def count(self, category):
        return len(self.where(category=category))

    def decisions(self, txn):
        return {r.site: r.detail["outcome"] for r in self.where(category="decision", txn=txn)}

    def message_counts(self):
        return dict(Counter(r.detail["mtype"] for r in self.where(category="send")))


#: message types the synthetic trace mix draws from (protocol-shaped).
_MTYPES = ("qtp1.vote-req", "qtp1.vote", "qtp1.prepare", "qtp1.ack", "qtp1.decision", "term.state")


def _trace_mix(seed, tracer, n_events=600, n_sites=24, n_txns=48, queries=12):
    """Record a commit-run-shaped mix — mostly sends and delivers, a tail
    of state transitions, decisions and quorum checks — then ask what the
    analysis layer asks."""
    rng = RngRegistry(seed).stream("trace-bench")
    for step in range(n_events):
        t, kind, site = step * 0.25, rng.randrange(100), rng.randrange(n_sites)
        txn = f"T{rng.randrange(n_txns)}"
        if kind < 72:
            mtype, peer = _MTYPES[rng.randrange(len(_MTYPES))], rng.randrange(n_sites)
            if kind < 35:
                tracer.record_send(t, site, txn, mtype, peer)
            elif kind < 65:
                tracer.record_deliver(t, site, txn, mtype, peer)
            else:
                tracer.record_drop(t, site, txn, mtype, peer, "partitioned")
        elif kind < 90:
            tracer.record(t, site, "state", txn, src="W", dst="PC")
        elif kind < 96:
            tracer.record(t, site, "decision", txn, outcome="commit" if kind % 2 else "abort")
        else:
            tracer.record(t, site, "quorum", txn, ok=bool(kind % 2))
    cats = ("send", "deliver", "decision", "state", "drop")
    hits = sum(
        len(tracer.where(category=cats[q % 5], site=q % n_sites)) + tracer.count(cats[q % 5])
        for q in range(queries)
    )
    histogram = tracer.message_counts()
    return {
        "records": len(tracer),
        "query_hits": hits,
        "decided_sites": sum(len(tracer.decisions(f"T{i}")) for i in range(n_txns)),
        "histogram": histogram,
    }


def _scan_replay(wal, store):
    """Reference recovery: every ``apply`` record, in LSN order."""
    installs = 0
    for record in wal:
        if record.kind != "apply" or not store.hosts(record.payload["item"]):
            continue
        item, version = record.payload["item"], record.payload["version"]
        if store.read(item).version < version:
            store.write(item, record.payload["value"], version)
            installs += 1
    return installs


def _replayed(seed, replay):
    """Every site's log of a heavy E18 run, forced once and four times
    over into fresh logs (the repeats are stale versions), then
    ``replay``-ed into version-0 stores: per scale, the installs and the
    stores' contents."""
    run = run_scenario(heavy_workload_scenario(n_txns=24, n_sites=8), "qtp1", seed)
    out = {}
    for scale in (1, 4):
        installs, stores = 0, []
        for site in run.cluster.sites.values():
            wal, store = WriteAheadLog(site.node_id), ReplicaStore(site.node_id)
            for record in list(site.wal) * scale:
                wal.force(record.txn, record.kind, **record.payload)
                if record.kind == "apply" and not store.hosts(record.payload["item"]):
                    store.host(record.payload["item"], value=0, version=0)
            installs += replay(wal, store)
            stores.append(sorted(store.items()))
        out[scale] = installs, stores
    return out


class _ListWriteAheadLog:
    """Reference: a plain list of records, one built per append, every
    query answered off per-transaction lists of records (the log as it
    was before rows were stored by shape); ``begins`` and
    ``participant_decision`` are linear scans."""

    _VALID_KINDS = {"begin", "vote", "pc", "pa", "commit", "abort", "apply"}
    _FLUSH_KINDS = frozenset({"vote", "pc", "pa", "commit", "abort"})

    def __init__(self, site):
        self.site = site
        self._records = []
        self._next_lsn = 1
        self._by_txn = {}
        self._decisions = {}
        self._begin_order = []
        self._has_begin = set()
        self._applies = {}
        self._unflushed = 0
        self.flushes = 0

    @property
    def forced(self):
        return len(self._records)

    def force(self, txn, kind, **payload):
        if kind not in self._VALID_KINDS:
            raise StorageError(f"unknown log record kind {kind!r}")
        is_decision = kind in ("commit", "abort")
        if is_decision:
            prior = self._decisions.get(txn)
            if prior is not None and prior != kind:
                raise StorageError(
                    f"site {self.site}: txn {txn} already logged {prior}; cannot log {kind}"
                )
        record = LogRecord(self._next_lsn, txn, kind, payload)
        self._next_lsn += 1
        self._records.append(record)
        self._by_txn.setdefault(txn, []).append(record)
        if kind == "begin" and txn not in self._has_begin:
            self._has_begin.add(txn)
            self._begin_order.append(txn)
        self._unflushed += 1
        if is_decision and txn not in self._decisions:
            self._decisions[txn] = kind
        elif kind == "apply" and "item" in payload:
            item, version = payload["item"], payload.get("version", 0)
            prior = self._applies.get(item)
            if prior is None or version > prior[0]:
                self._applies[item] = (version, payload.get("value"))
        if kind in self._FLUSH_KINDS:
            self.flush()
        return record

    def flush(self):
        batch = self._unflushed
        if batch:
            self.flushes += 1
            self._unflushed = 0
        return batch

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def for_txn(self, txn):
        return list(self._by_txn.get(txn, ()))

    def decision(self, txn):
        return self._decisions.get(txn)

    def participant_decision(self, txn):
        for record in self._records:
            if record.txn == txn and record.kind in ("commit", "abort"):
                if record.payload.get("role") != "coordinator":
                    return record.kind
        return None

    def latest_applies(self):
        return self._applies

    def last_protocol_record(self, txn):
        for record in reversed(self._by_txn.get(txn, ())):
            if record.kind != "apply":
                return record
        return None

    def open_txns(self):
        return [t for t in self._begin_order if t not in self._decisions]

    def begins(self):
        return [
            (
                record.txn,
                record.payload.get("role"),
                {item: tuple(pair) for item, pair in record.payload.get("writes", {}).items()},
                record.payload.get("participants", []),
                record.payload.get("coordinator"),
                record.payload.get("epoch", 0),
            )
            for record in self._records
            if record.kind == "begin"
        ]


class _Op(NamedTuple):
    """One append: the typed call the log under test takes (None: the
    generic ``force``) and the generic ``force`` the reference takes."""

    txn: str
    typed: tuple[str, tuple[Any, ...], dict[str, Any]] | None
    kind: str
    payload: dict[str, Any]


def _wal_ops(seed: int, n_ops: int = 150) -> Iterator[_Op | None]:
    """A random legal append sequence mixing every typed append with the
    generic ``force`` (bare and unknown kinds included) and conflicting
    decisions; ``None`` marks a read between appends."""
    rng = random.Random(seed)
    txns = [f"T{i}" for i in range(rng.randint(1, 8))]
    items = ["x", "y", "z"]
    for _ in range(n_ops):
        txn, draw = rng.choice(txns), rng.random()
        role = rng.choice([None, "coordinator"])
        roled = {"role": role} if role else {}
        if draw < 0.1:
            yield None
        elif draw < 0.25:
            picked = rng.sample(items, rng.randint(1, 3))
            writes = {item: (rng.randrange(100), rng.randint(1, 9)) for item in picked}
            participants = sorted(rng.sample(range(1, 9), rng.randint(1, 4)))
            coordinator = rng.randint(1, 8)
            epoch = rng.randint(0, 3)
            payload = {
                **roled,
                "writes": {item: list(pair) for item, pair in writes.items()},
                "participants": participants,
                "coordinator": coordinator,
                "epoch": epoch,
            }
            typed = ("begin", (txn, writes, participants, coordinator, epoch), {"role": role})
            yield _Op(txn, typed, "begin", payload)
        elif draw < 0.4:
            yes = rng.random() < 0.8
            yield _Op(txn, ("vote", (txn, yes), {}), "vote", {"vote": "yes" if yes else "no"})
        elif draw < 0.55:
            kind = rng.choice(["pc", "pa"])
            yield _Op(txn, (kind, (txn,), {}), kind, {})
        elif draw < 0.7:
            outcome = rng.choice(["commit", "abort"])
            yield _Op(txn, ("decide", (txn, outcome), {"role": role}), outcome, roled)
        elif draw < 0.85:
            item, value, version = rng.choice(items), rng.randrange(100), rng.randint(0, 9)
            payload = {"item": item, "value": value, "version": version}
            yield _Op(txn, ("apply", (txn, item, value, version), {}), "apply", payload)
        else:
            kind = rng.choice(sorted(_ListWriteAheadLog._VALID_KINDS) + ["checkpoint"])
            payload = rng.choice([{}, {"note": rng.randrange(5)}, roled])
            if kind == "apply" and rng.random() < 0.5:
                payload = {"item": rng.choice(items), "value": 1, "version": rng.randint(0, 9)}
            yield _Op(txn, None, kind, payload)


def _append(log, op, typed):
    """Append ``op``, typed where it has a typed call and ``typed``:
    what the append returned, or the error it raised."""
    try:
        if typed and op.typed is not None:
            name, args, kwargs = op.typed
            return "ok", getattr(log, name)(*args, **kwargs)
        return "ok", log.force(op.txn, op.kind, **op.payload)
    except StorageError as error:
        return "raised", str(error)


def _wal_answers(wal, txns):
    """Everything a reader can ask the log, in comparable form."""
    return {
        "records": [(record, str(record)) for record in wal],
        "len": len(wal),
        "for_txn": {txn: wal.for_txn(txn) for txn in txns},
        "last": {txn: wal.last_protocol_record(txn) for txn in txns},
        "decision": {txn: wal.decision(txn) for txn in txns},
        "participant_decision": {txn: wal.participant_decision(txn) for txn in txns},
        "open": wal.open_txns(),
        "applies": dict(wal.latest_applies()),
        "begins": wal.begins(),
        "forced": wal.forced,
        "flushes": wal.flushes,
        "recovered": recover_protocol_states(wal),
    }


def _recovery_of(wal, site_id):
    """What crash recovery reads off ``wal``: the protocol states, and a
    replay into version-0 stores of every applied item."""
    store = ReplicaStore(site_id)
    for item in wal.latest_applies():
        store.host(item, value=0, version=0)
    installs = replay_data(wal, store)
    return recover_protocol_states(wal), installs, sorted(store.items())


def _noop():
    """Scheduler filler event."""


def drain(seed, n_events):
    """A tiny sweep task: a scheduler drain over hash-scattered times."""
    sched = Scheduler()
    for i in range(n_events):
        sched.call_fixed(float((i * 2654435761 + seed) % 211), _noop)
    sched.run()
    return {"events_run": sched.events_run, "final_now": sched.now}


class _PoolPerSweepRunner:
    """Reference: a process pool created and torn down inside every
    ``run_sweep`` call, behind the ``SweepRunner`` surface."""

    def __init__(self, workers):
        self.workers = workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def run_sweep(self, spec):
        return run_sweep(spec, workers=self.workers)


def _campaign(seed, runner):
    """A campaign of small sweeps on one runner: every sweep's rows."""
    specs = [
        SweepSpec(f"campaign-{i}", drain, grid={}, runs=3, base_seed=seed * 1009 + i, fixed={"n_events": 50})
        for i in range(2)
    ]
    with runner:
        return [runner.run_sweep(spec).results for spec in specs]


class TestHotPathsAgreeWithReferences:
    """The optimized hot paths must change time only, never behaviour."""

    @given(st.integers(0, 2**20))
    @settings(max_examples=20, deadline=None)
    def test_fanout_counters_identical_to_the_per_message_network(self, per_message_network, seed):
        # the reference checks connectivity at send and at delivery,
        # with no epoch cache and nothing hoisted out of a fan-out
        reference = _counters(seed, "repro.db.cluster.Network", per_message_network)
        assert reference == _counters(seed)

    @given(st.integers(0, 2**20))
    @settings(max_examples=20, deadline=None)
    def test_filtered_and_flapping_runs_identical_to_the_per_message_network(
        self, per_message_network, seed
    ):
        with mock.patch("repro.db.cluster.Network", per_message_network):
            reference = _fault_runs(seed)
        assert reference == _fault_runs(seed)

    @given(st.integers(0, 2**20), st.lists(_NET_OPS, min_size=4, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_lossy_links_draw_like_the_per_message_network(self, per_message_network, seed, ops):
        # no registered scenario draws the loss RNG (every sever / flap
        # is p = 1); here links lose with 0 < p < 1 between partitions,
        # crashes, recoveries and filters, with messages in flight
        assert _lossy_run(seed, ops, Network) == _lossy_run(seed, ops, per_message_network)

    @given(st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_churn_counters_identical_across_interning(self, seed):
        assert _counters(seed, "repro.db.cluster.Network", _FreshViewNetwork) == _counters(seed)

    @given(st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_lock_counters_identical_across_modes(self, seed):
        # the exclusive-holder counter must reproduce every grant
        # decision of the compatibility-matrix holder scan
        assert _counters(seed, "repro.db.site.LockManager", _ScanLockManager) == _counters(seed)

    @given(st.integers(0, 2**20))
    @settings(max_examples=5, deadline=None)
    def test_catalog_memo_counters_identical_across_modes(self, seed):
        # the second memoized pass is all hits: state capture must leave
        # every later draw where a rebuild leaves it
        rebuilt = _counters(seed, "repro.workload.generators.memoized_catalog", _rebuilt_catalog)
        assert _counters(seed) == _counters(seed) == rebuilt

    @given(st.integers(0, 2**20))
    @settings(max_examples=5, deadline=None)
    def test_wal_group_commit_flushes_once_per_answered_record(self, seed):
        for run in _runs(seed):
            for site in run.cluster.sites.values():
                kinds = Counter(record.kind for record in site.wal)
                assert site.wal.forced == len(site.wal)
                # one flush per record the protocol answers on — the
                # begins and applies ride the next such record's batch
                assert site.wal.flushes == sum(kinds[k] for k in ("vote", "pc", "pa", "commit", "abort"))

    @given(st.integers(0, 2**20))
    @settings(max_examples=40, deadline=None)
    def test_wal_rows_read_back_as_the_record_list(self, seed):
        # typed appends and generic forces, read back at random points
        # (so the lazy index and views are extended, not only built)
        wal, naive = WriteAheadLog(7), _ListWriteAheadLog(7)
        txns = ["T-missing"]
        for op in _wal_ops(seed):
            if op is None:
                assert _wal_answers(wal, txns) == _wal_answers(naive, txns)
                continue
            txns.append(op.txn)
            got, want = _append(wal, op, typed=True), _append(naive, op, typed=False)
            if op.typed is not None and want[0] == "ok":
                want = ("ok", None)  # a typed append returns nothing
            assert got == want, op
        assert _wal_answers(wal, txns) == _wal_answers(naive, txns)

    @given(st.integers(0, 2**20))
    @settings(max_examples=3, deadline=None)
    def test_recovery_reads_the_same_off_rows_and_records(self, seed):
        # a storm whose coordinator stays down holds coordinator-role
        # rows beside undecided participant halves
        recovered = 0
        for run in _runs(seed)[2:]:
            for site in run.cluster.sites.values():
                naive = _ListWriteAheadLog(site.node_id)
                for record in site.wal:
                    naive.force(record.txn, record.kind, **record.payload)
                assert list(naive) == list(site.wal)
                ours = _recovery_of(site.wal, site.node_id)
                assert ours == _recovery_of(naive, site.node_id)
                recovered += len(ours[0])
        assert recovered > 0

    @given(st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_trace_counters_identical_across_stores(self, seed):
        assert _trace_mix(seed, _ListTracer()) == _trace_mix(seed, Tracer())

    @given(st.integers(0, 2**20))
    @settings(max_examples=5, deadline=None)
    def test_recovery_replay_stores_identical_across_modes(self, seed):
        scan, indexed = _replayed(seed, _scan_replay), _replayed(seed, replay_data)
        for scale in (1, 4):
            # install counts legitimately differ (version ladder vs
            # newest), but the replayed stores must agree
            assert scan[scale][1] == indexed[scale][1], scale
            assert indexed[scale][0] <= scan[scale][0]
        assert indexed[4][0] == indexed[1][0]  # the replay does not grow with the log

    @given(st.integers(0, 2**10))
    @settings(max_examples=3, deadline=None)
    def test_warm_pool_rows_identical_across_executors(self, seed):
        assert _campaign(seed, _PoolPerSweepRunner(2)) == _campaign(seed, SweepRunner(2))
