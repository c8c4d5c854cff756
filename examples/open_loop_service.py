#!/usr/bin/env python3
"""The open-loop tail-latency service, end to end.

Every closed-loop experiment asks "what happened to these N
transactions".  A service asks the open-loop question: at a sustained
arrival rate, what do clients experience — tail latency, shed traffic,
sustainable throughput — while partitions come and go.  Three short
demonstrations on the default 9-site service cluster:

1. **One service interval** — sustained arrivals through a mid-service
   partition episode, with per-site admission control and streaming
   p50/p99/p999 latency percentiles.
2. **Protocol comparison** — the same offered stream (same seed, same
   arrival draws) served under 2PC vs the quorum protocols.
3. **Ceiling discovery** — the SLO ramp: step the arrival rate across
   fresh service intervals until the p99 knee or the abort-rate
   threshold trips; the last untripped rate is the installation's
   throughput ceiling.

Run:  python examples/open_loop_service.py
"""

from repro.experiments.service_study import discover_ceiling, open_loop_scenario
from repro.traffic import run_scenario


def one_interval() -> None:
    print("== 1. One open-loop service interval (9 sites, partition mid-service)")
    result = run_scenario(open_loop_scenario(rate=1.5, duration=120.0), "qtp1", 0).result
    print(f"  {result.format_row()}")
    print(
        f"  offered={result.offered} = admitted({result.admitted}) "
        f"+ backpressure({result.shed_backpressure}) "
        f"+ unreachable({result.shed_unreachable})"
    )
    latency = result.latency
    print(
        f"  latency over {latency['n']:.0f} decided updates: "
        f"p50={latency['p50']:.2f}s p99={latency['p99']:.2f}s "
        f"p999={latency['p999']:.2f}s (max={latency['max']:.2f}s)"
    )


def protocol_comparison() -> None:
    print("== 2. The same offered stream under each commit protocol")
    for protocol in ("2pc", "3pc", "qtp1", "qtp2"):
        result = run_scenario(open_loop_scenario(rate=1.5, duration=120.0), protocol, 0).result
        print(f"  {result.format_row()}")


def ceiling_discovery() -> None:
    print("== 3. SLO ramp: stepping the arrival rate until the ceiling trips")
    result = discover_ceiling("qtp1", seed=0)
    for step in result.steps:
        print(
            f"  rate={step.rate:<4g} committed={step.committed:<4} "
            f"abort-rate={step.abort_rate:.2f} p99={step.latency.get('p99', 0.0):.2f}s"
        )
    print(f"  ceiling: {result.ceiling}/s (tripped: {result.tripped or 'never'})")


def main() -> None:
    one_interval()
    protocol_comparison()
    ceiling_discovery()


if __name__ == "__main__":
    main()
