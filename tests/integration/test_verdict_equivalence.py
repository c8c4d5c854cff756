"""The verdicts read from columns equal the ``where()``-based readers.

``check_atomicity`` and ``termination_timeline`` read ``(time, site,
detail)`` through
``Tracer.entries`` and count through the ``(category, txn)`` index;
``Cluster.live_undecided`` goes through ``Tracer.decisions``, served
the same way, and ``Cluster.committed_history`` reads every decision
row once (``Tracer.txn_entries``).  Below are test-local copies
of the readers they replaced, which materialize records with
``Tracer.where``.  Both must agree on every transaction of every
registered trace scenario under every protocol, on one WAN storm per
protocol — among them a 3PC storm that ends ``mixed`` — and on the
paper's Example 3 with the ignore rules off, whose trace holds
``decision-conflict`` and ``illegal-transition`` rows.
"""

import math
from unittest import mock

import pytest

from repro.analysis.consistency import ConsistencyReport, check_atomicity
from repro.analysis.liveness import TerminationTimeline, termination_timeline
from repro.experiments import SCENARIOS
from repro.replay import TRACE_DRIVERS
from repro.sim.trace import Tracer
from repro.traffic import run_scenario
from repro.experiments.examples import run_example3_scenario

PROTOCOLS = ["2pc", "3pc", "skq", "qtp1", "qtp2"]
#: the WAN storm seed whose 3PC run commits at some sites and aborts at others
MIXED_3PC_SEED = 1


def where_check_atomicity(tracer, txn, participants):
    decisions = {}
    conflicts = 0
    for rec in tracer.where(category="decision", txn=txn):
        prior = decisions.get(rec.site)
        outcome = rec.detail["outcome"]
        if prior is not None and prior != outcome:
            conflicts += 1
        decisions.setdefault(rec.site, outcome)
    conflicts += len(tracer.where(category="decision-conflict", txn=txn))
    illegal = len(tracer.where(category="illegal-transition", txn=txn))
    committed = sorted(s for s, o in decisions.items() if o == "commit" and s in participants)
    aborted = sorted(s for s, o in decisions.items() if o == "abort" and s in participants)
    undecided = sorted(s for s in participants if s not in decisions)
    blocked = sorted({rec.site for rec in tracer.where(category="blocked", txn=txn)} & set(undecided))
    return ConsistencyReport(txn, committed, aborted, undecided, blocked, conflicts, illegal)


def where_termination_timeline(tracer, txn):
    begins = tracer.where(category="coord-begin", txn=txn)
    faults = [r.time for category in ("crash", "partition") for r in tracer.where(category=category)]
    decisions = tracer.where(category="decision", txn=txn)
    return TerminationTimeline(
        txn=txn,
        begin_time=begins[0].time if begins else 0.0,
        first_fault_time=min(faults) if faults else math.nan,
        last_decision_time=max((r.time for r in decisions), default=math.nan),
        elections=len(tracer.where(category="election", txn=txn)),
        term_attempts=len(tracer.where(category="term-phase1", txn=txn)),
    )


def where_decisions(tracer, txn):
    return {rec.site: rec.detail["outcome"] for rec in tracer.where(category="decision", txn=txn)}


def same_timeline(a, b):
    """Equal field by field, NaN equal to NaN."""
    return all(
        x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
        for x, y in zip(vars(a).values(), vars(b).values())
    )


def check_run(cluster, handles):
    tracer = cluster.tracer
    txns = sorted({rec.txn for rec in list(tracer) if rec.txn}) + ["no-such-txn"]
    assert len(txns) > 1
    for txn in txns:
        handle = handles.get(txn)
        participants = list(handle.participants) if handle else sorted(cluster.sites)
        assert check_atomicity(tracer, txn, participants) == where_check_atomicity(
            tracer, txn, participants
        )
        assert same_timeline(termination_timeline(tracer, txn), where_termination_timeline(tracer, txn))
        assert tracer.decisions(txn) == where_decisions(tracer, txn)
    undecided = [cluster.live_undecided(txn) for txn in txns]
    with mock.patch.object(Tracer, "decisions", where_decisions):
        assert [cluster.live_undecided(txn) for txn in txns] == undecided
    submitted = cluster.submitted
    committed = [txn for txn in submitted if "commit" in where_decisions(tracer, txn).values()]
    assert [entry.txn for entry in cluster.committed_history() if entry.txn in submitted] == committed


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", TRACE_DRIVERS)
def test_every_trace_scenario(name, protocol):
    run = run_scenario(SCENARIOS[name](), protocol, 0)
    check_run(run.cluster, run.engine.handles)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_one_wan_storm_per_protocol(protocol):
    run = run_scenario(SCENARIOS["wan_storm"](), protocol, MIXED_3PC_SEED)
    outcome = run.cluster.outcome(run.txn.txn).outcome
    if protocol == "3pc":
        assert outcome == "mixed"  # 3PC is not safe under partitions
    check_run(run.cluster, run.engine.handles)


@pytest.mark.parametrize("enforce_ignore_rules", [False, True])
def test_example3(enforce_ignore_rules):
    result = run_example3_scenario(enforce_ignore_rules)
    tracer = result.cluster.tracer
    broken = not enforce_ignore_rules
    assert bool(tracer.count("decision-conflict")) == bool(tracer.count("illegal-transition")) == broken
    check_run(result.cluster, {result.txn.txn: result.txn})
