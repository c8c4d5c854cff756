"""E16 (extension) — how long does termination take once failures hit?

For the Fig. 3 scenario (qtp1: G1 and G3 can decide), measures the
virtual time from the fault to the last decision among live sites, and
the number of elections / polls spent getting there.  Complements the
availability benchmarks: not just *whether* a partition unblocks, but
how quickly.
"""

import math

from repro.analysis.liveness import termination_timeline
from repro.experiments.examples import run_example1_scenario


def test_termination_latency_fig3(benchmark):
    result = benchmark.pedantic(
        run_example1_scenario, args=("qtp1",), rounds=3, iterations=1
    )
    timeline = termination_timeline(result.cluster.tracer, result.txn.txn)
    print(
        f"\nfault at t={timeline.first_fault_time:g}, "
        f"last decision at t={timeline.last_decision_time:g} "
        f"(termination latency {timeline.termination_latency:g}), "
        f"{timeline.elections} election events, "
        f"{timeline.term_attempts} termination polls"
    )
    assert timeline.ever_decided
    # watchdog (3T) + election (2T) + poll (2T) + round (2T) + command:
    # the decisions land within a small constant number of T after the
    # fault — not proportional to anything else.
    assert timeline.termination_latency < 15 * result.cluster.T
    assert timeline.term_attempts >= 2  # one per deciding partition


def test_blocked_partition_never_decides():
    result = run_example1_scenario("skq")
    timeline = termination_timeline(result.cluster.tracer, result.txn.txn)
    assert not timeline.ever_decided
    assert math.isnan(timeline.termination_latency)
    assert timeline.term_attempts >= 3  # every partition tried
