"""Deterministic budgets on what one simulated event costs in hops.

The shape is the end-to-end benchmark's ``wan_termination`` storm (4
regions x 8 sites, one multi-item update whose coordinator crashes
under region-aligned partition waves), one per protocol, run to
quiescence under ``cProfile``.  Every bar is a call count read from the
profile — never a wall time: a per-event read of the clock, the
scheduler or the tracer is an attribute load, a message sent is one
``Message`` built once, a per-message trace row is one call, an
engine timer is one ``Scheduler.call_at`` that never passes through the
node, a state transition hashes no state in Python, and a connectivity
change kicks only the engines that hold an undecided transaction.  The
open-loop bar is the same idea one layer up: retiring decided
transactions reads a cursor, not the trace once per in-flight
transaction.

The trace bars run on the storm and on a 12-site closed loop (the
benchmark's ``closed_heavy`` shape, cut to 60 transactions): a state
transition is one call into :mod:`repro.sim.trace`, and judging a
finished cluster (``TrafficEngine.tally``, ``Cluster.outcome``)
builds no :class:`~repro.sim.trace.TraceRecord` and reads no ``send``
/ ``deliver`` / ``drop`` / ``state`` row.  A judged ``run_scenario``
reads its decision rows once and builds one conflict graph.
"""

import cProfile
import enum
import random
from collections import Counter
from unittest import mock

import pytest

from repro import PROTOCOL_NAMES, Cluster, FailurePlan, FixedDelay, UniformDelay
from repro.concurrency.serializability import ConflictGraph
from repro.experiments.service_study import open_loop_scenario
from repro.experiments.workload_study import heavy_workload_scenario
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.protocols.base import CommitProtocolEngine, TxnRecord
from repro.sim import trace
from repro.sim.scheduler import Scheduler
from repro.sim.trace import MESSAGES, TraceRecord, Tracer
from repro.traffic import TrafficEngine, run_scenario
from repro.traffic.open_loop import _OpenLoopRun
from repro.experiments.sweeps import wan_storm_scenario
from repro.workload.generators import (
    random_catalog,
    random_partition_groups,
    region_storm_plan,
    wan_catalog,
    wan_regions,
)
from repro.workload.spec import WorkloadSpec

PROTOCOLS = list(PROTOCOL_NAMES)
REGIONS = wan_regions(4, 8)
ALL_SITES = [s for region in REGIONS for s in region]

#: the per-event reads that must be attribute loads; each is counted
#: only while it still is a property (``Scheduler.now`` no longer is)
CLOCK_AND_BINDINGS = [(Scheduler, "now"), (Network, "scheduler"), (Network, "tracer")]


def armed_storm(seed, protocol, message_rows=False):
    """A fresh 32-site WAN cluster with its one update submitted and a
    healing two-wave storm plus the coordinator's crash armed; nothing
    has run yet.  Returns the cluster, its traffic engine and the
    update's txn id."""
    rng = random.Random(seed)
    catalog = wan_catalog(rng, n_regions=4, sites_per_region=8, n_items=16, region_replication=3)
    compiled = WorkloadSpec(n_txns=1, footprint=(2, 4)).compile(catalog, REGIONS)
    submit_state = rng.getstate()
    origin, _writes = compiled.next_update(rng)
    plan = region_storm_plan(rng, REGIONS, waves=2, heal=True)
    plan.crash(rng.uniform(1.0, 2.5), origin)
    plan.recover(max(a.time for a in plan.actions) + 5.0, origin)
    cluster = Cluster(
        catalog,
        protocol=protocol,
        seed=seed,
        delay_model=FixedDelay(1.0),
        extra_sites=ALL_SITES,
        message_rows=message_rows,
    )
    submit_rng = random.Random()
    submit_rng.setstate(submit_state)
    engine = TrafficEngine(cluster, compiled, submit_rng)
    txn = engine.submit_now().txn
    cluster.arm_failures(plan)
    return cluster, engine, txn


def closed_loop(seed, protocol):
    """A fresh 12-site closed loop with a partition episode and a
    crash / recover pair armed; nothing has run yet."""
    rng = random.Random(seed)
    catalog = random_catalog(rng, n_sites=12, n_items=64, replication=3)
    sites = sorted(catalog.all_sites())
    plan = FailurePlan().partition(20.0, *random_partition_groups(rng, sites, 2)).heal(50.0)
    plan.crash(60.0, sites[3]).recover(90.0, sites[3])
    compiled = WorkloadSpec(n_txns=60, mean_spacing=1.5, footprint=(1, 3)).compile(catalog)
    cluster = Cluster(catalog, protocol=protocol, seed=seed, delay_model=UniformDelay(0.2, 1.0))
    cluster.arm_failures(plan)
    return cluster, TrafficEngine(cluster, compiled, random.Random(seed))


class RunProfile:
    """Call counts of one run to quiescence, by code object; keeps the
    finished cluster and ``judge``, the call that gives its verdict."""

    def __init__(self, cluster, run, judge):
        sent = cluster.network.sent
        profile = cProfile.Profile()
        profile.enable()
        run()
        profile.disable()
        self.entries = {entry.code: entry for entry in profile.getstats()}
        self.events = cluster.scheduler.events_run
        self.sent = cluster.network.sent - sent  # messages sent while profiled
        self.cluster, self.judge = cluster, judge

    def calls(self, fn):
        entry = self.entries.get(fn.__code__)
        return entry.callcount if entry is not None else 0

    def _subcalls(self, caller):
        entry = self.entries.get(caller.__code__)
        return (entry.calls or ()) if entry is not None else ()

    def calls_from(self, caller, callee):
        """Direct calls of ``callee`` made by ``caller``."""
        return sum(sub.callcount for sub in self._subcalls(caller) if sub.code is callee.__code__)

    def calls_into(self, caller, module):
        """Direct calls ``caller`` made to functions defined in ``module``."""
        return sum(
            sub.callcount
            for sub in self._subcalls(caller)
            if getattr(sub.code, "co_filename", None) == module.__file__
        )


@pytest.fixture(params=PROTOCOLS, scope="module")
def storm_profile(request):
    cluster, engine, txn = armed_storm(4, request.param)
    kicks_due = []

    # subscribed after the cluster's own observer: by then the kicks of
    # this change are done, and a kick neither adds, drops nor decides
    # a record; per change, (engines holding an undecided record,
    # engines holding any record) — a site no message has reached yet
    # has no engine, and holds neither
    def engines():
        return [s.engine for s in cluster.sites.values() if s.alive and s.engine is not None]

    cluster.network.subscribe(
        lambda event: kicks_due.append(
            (
                sum(1 for commit in engines() if commit.undecided),
                sum(1 for commit in engines() if commit.records()),
            )
        )
    )
    profile = RunProfile(cluster, engine.run_to_quiescence, lambda: cluster.outcome(txn))
    assert profile.events > 100 and cluster.network.sent > 50  # the storm did run
    assert isinstance(cluster.tracer, Tracer)
    assert sum(cluster.message_counts().values()) == cluster.network.sent
    return profile, kicks_due


@pytest.fixture(params=PROTOCOLS, scope="module")
def storm_rows_profile(request):
    """The storm of ``storm_profile``, its cluster keeping message rows."""
    cluster, engine, txn = armed_storm(4, request.param, message_rows=True)
    profile = RunProfile(cluster, engine.run_to_quiescence, lambda: cluster.outcome(txn))
    assert cluster.tracer.count("send") == cluster.network.sent > 50
    return profile


@pytest.fixture(params=PROTOCOLS, scope="module")
def closed_profile(request):
    cluster, engine = closed_loop(5, request.param)
    profile = RunProfile(cluster, engine.run_closed, lambda: engine.tally(request.param))
    assert len(engine.handles) > 20 and cluster.network.sent > 500  # the loop did run
    return profile


class TestStormHopBudget:
    def test_clock_and_bindings_are_attribute_loads(self, storm_profile):
        profile, _ = storm_profile
        getters = [
            cls.__dict__[name].fget
            for cls, name in CLOCK_AND_BINDINGS
            if isinstance(cls.__dict__.get(name), property)
        ]
        assert getters  # the network's two bindings are still properties
        # an engine binds the tracer and the scheduler once, when it is
        # built — on its site's first delivery, so inside the run
        built = profile.calls(CommitProtocolEngine.__init__)
        assert 0 < built < len(ALL_SITES)
        per_build = sum(profile.calls_from(CommitProtocolEngine.__init__, getter) for getter in getters)
        assert per_build <= 2 * built
        calls = sum(profile.calls(getter) for getter in getters) - per_build
        assert calls <= 0.05 * profile.events  # 3.4 per event before

    def test_one_message_is_built_per_message_sent(self, storm_profile):
        profile, _ = storm_profile
        assert profile.sent > 50
        assert profile.calls(Message.__init__) == profile.sent

    def test_message_rows_append_in_place(self, storm_rows_profile):
        rows = 0
        for fast_path in (Tracer.record_send, Tracer.record_deliver, Tracer.record_drop):
            rows += storm_rows_profile.calls(fast_path)
            assert storm_rows_profile.calls_from(fast_path, Tracer._append) == 0
        assert rows > 100

    def test_without_message_rows_no_message_row_is_written(self, storm_profile):
        profile, _ = storm_profile
        for fast_path in (Tracer.record_send, Tracer.record_deliver, Tracer.record_drop):
            assert profile.calls(fast_path) == 0
        assert not {rec.category for rec in profile.cluster.tracer} & MESSAGES

    def test_a_timer_is_one_scheduler_call(self, storm_profile):
        profile, _ = storm_profile
        windows = engine_timers_are_one_scheduler_call(profile)
        # a storm arms no cancellable timer besides the engines'
        assert profile.calls(Scheduler.call_at) == (
            profile.calls_from(TxnRecord.set_timer, Scheduler.call_at) + windows
        )

    def test_only_engines_holding_an_undecided_record_are_kicked(self, storm_profile):
        profile, kicks_due = storm_profile
        assert len(kicks_due) >= 4  # two waves, the heal, the recovery
        undecided = sum(due for due, _ in kicks_due)
        holding = sum(held for _, held in kicks_due)
        assert 0 < undecided <= holding < len(kicks_due) * len(ALL_SITES)
        # every engine holding a record was kicked before, decided or not
        assert profile.calls(CommitProtocolEngine.kick) == undecided


def engine_timers_are_one_scheduler_call(profile):
    """Each engine timer arm is one ``Scheduler.call_at`` (a zero delay:
    one ``call_fixed_after``), registered by the engine alone: no engine
    timer is armed through ``Node.set_timer`` or fires through
    ``Node._guarded``.  Returns the number of round windows armed."""
    record_arms = profile.calls(TxnRecord.set_timer)
    assert record_arms > 10
    assert (
        profile.calls_from(TxnRecord.set_timer, Scheduler.call_at)
        + profile.calls_from(TxnRecord.set_timer, Scheduler.call_fixed_after)
        == record_arms
    )
    windows = 0
    for arm in (CommitProtocolEngine.begin_commit, CommitProtocolEngine._send_prepare):
        assert profile.calls_from(arm, Scheduler.call_at) == profile.calls(arm)
        windows += profile.calls(arm)
    assert profile.calls(Scheduler.call_after) == 0
    # one registration and a direct fire: the node sees none of it
    assert profile.calls(Node.set_timer) == 0  # every engine timer before
    assert profile.calls(Node._guarded) == 0  # every engine timer fire before
    return windows


def no_state_is_hashed_in_python(profile):
    """``TxnState`` hashes by identity: a transition's legality check
    (and every other state lookup) calls no Python-level
    ``Enum.__hash__`` — two per transition before."""
    assert profile.calls(CommitProtocolEngine._transition) >= 10
    assert profile.calls_from(CommitProtocolEngine._transition, enum.Enum.__hash__) == 0
    assert profile.calls(enum.Enum.__hash__) == 0


class TestOpenLoopHopBudget:
    def test_retiring_decisions_never_queries_the_trace(self):
        retiring = []
        queried = []
        retire, where = _OpenLoopRun.retire_decided, Tracer.where

        def counted_retire(self):
            retiring.append(1)
            try:
                retire(self)
            finally:
                retiring.pop()

        def counted_where(self, *args, **kwargs):
            queried.extend(retiring)
            return where(self, *args, **kwargs)

        with mock.patch.object(_OpenLoopRun, "retire_decided", counted_retire):
            with mock.patch.object(Tracer, "where", counted_where):
                scenario = open_loop_scenario(n_sites=9, rate=1.5, duration=60.0)
                result = run_scenario(scenario, "qtp1", 2).result
        assert result.offered > 50 and result.latency["n"] > 10
        assert queried == []  # one query per in-flight txn per arrival before


class TestOneReadJudgesARun:
    """``run_scenario`` tallies and judges a run from one read of its
    decision rows and one conflict graph: no per-transaction read."""

    @pytest.mark.parametrize(
        "scenario",
        [
            heavy_workload_scenario(n_txns=30, n_sites=6, n_items=5),
            open_loop_scenario(n_sites=9, rate=1.5, duration=30.0),
            wan_storm_scenario(n_regions=3, sites_per_region=4, heal=True),
        ],
        ids=lambda scenario: scenario.drive,
    )
    def test_a_judged_run_reads_its_decisions_once(self, scenario):
        decision_reads, graphs, per_txn = [], [], []
        txn_entries, build = Tracer.txn_entries, ConflictGraph.__init__

        def counted_entries(self, category):
            decision_reads.extend([category] if category == "decision" else [])
            return txn_entries(self, category)

        def counted_build(self, history):
            graphs.append(len(history))
            build(self, history)

        def per_txn_read(name):
            return lambda *args: per_txn.append(name)

        with (
            mock.patch.object(Tracer, "txn_entries", counted_entries),
            mock.patch.object(ConflictGraph, "__init__", counted_build),
            mock.patch.object(Tracer, "decisions", per_txn_read("Tracer.decisions")),
            mock.patch.object(Cluster, "live_undecided", per_txn_read("Cluster.live_undecided")),
        ):
            run = run_scenario(scenario, "qtp1", 1)
        assert len(run.cluster.submitted) > 0
        assert decision_reads == ["decision"]
        assert len(graphs) == 1
        assert per_txn == []


class ReadLog(list):
    """A trace column that notes every slot a reader takes from it."""

    def __init__(self, column, read):
        super().__init__(column)
        self.read = read

    def __getitem__(self, slot):
        self.read.update(range(len(self))[slot] if isinstance(slot, slice) else (slot,))
        return super().__getitem__(slot)

    def __iter__(self):
        self.read.update(range(len(self)))
        return super().__iter__()


def one_call_per_state_row(profile):
    tracer = profile.cluster.tracer
    rows = tracer.count("state")
    assert rows >= 10
    # one record_state per transition (Node.trace -> record -> _append before)
    assert profile.calls_into(CommitProtocolEngine._transition, trace) == rows
    assert profile.calls_from(CommitProtocolEngine._transition, Tracer.record_state) == rows
    # record_state itself calls back in only on a triple's first sight
    triples = {tuple(rec.detail.values()) for rec in tracer.where(category="state")}
    assert profile.calls_into(Tracer.record_state, trace) == len(triples) < rows


def verdict_reads_only_verdict_rows(profile):
    """Judge the finished cluster with its columns logged: the verdict
    builds no record and reads only verdict rows."""
    tracer = profile.cluster.tracer
    cats = list(tracer._cats)
    read = set()
    columns = {
        name: ReadLog(getattr(tracer, name), read)
        for name in ("_times", "_sites", "_cats", "_txns", "_details")
    }
    built = []
    init = TraceRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with mock.patch.object(TraceRecord, "__init__", counted), mock.patch.multiple(tracer, **columns):
        profile.judge()
    kinds = Counter(cats[slot] for slot in read)
    assert kinds["decision"] > 0  # the verdicts did read the trace
    assert built == []  # one TraceRecord per decision read before
    assert not kinds.keys() & {"send", "deliver", "drop", "state"}  # every row was read before


class TestClosedLoopHopBudget:
    def test_a_timer_is_one_scheduler_call(self, closed_profile):
        engine_timers_are_one_scheduler_call(closed_profile)


class TestStateHashBudget:
    def test_a_storm_hashes_no_state_in_python(self, storm_profile):
        no_state_is_hashed_in_python(storm_profile[0])

    def test_a_closed_loop_hashes_no_state_in_python(self, closed_profile):
        no_state_is_hashed_in_python(closed_profile)


class TestTraceRowBudget:
    def test_a_state_transition_is_one_trace_call_in_a_storm(self, storm_profile):
        one_call_per_state_row(storm_profile[0])

    def test_a_state_transition_is_one_trace_call_in_a_closed_loop(self, closed_profile):
        one_call_per_state_row(closed_profile)

    def test_a_storm_outcome_reads_only_verdict_rows(self, storm_profile):
        verdict_reads_only_verdict_rows(storm_profile[0])

    def test_a_closed_loop_tally_reads_only_verdict_rows(self, closed_profile):
        verdict_reads_only_verdict_rows(closed_profile)
