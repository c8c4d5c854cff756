#!/usr/bin/env python3
"""Graceful degradation, end to end: upgrades, crowds, gray failures.

Fail-stop faults (crashes, partitions) are the easy case — something
is *down* and the counters say so.  Real installations mostly live in
the gray zone: planned membership churn, load surges, and sites that
are slow rather than dead.  Three short demonstrations:

1. **Rolling upgrade** — waves of sites gracefully leave (drain,
   hand their quorum votes off, deregister) and rejoin upgraded,
   under live closed-loop traffic with a retrying client.
2. **Flash crowd** — an open-loop service whose arrival rate spikes
   6x mid-run while the adaptive admission controller narrows the
   per-site window to protect the tail.
3. **Gray failure** — one site serves 6x slow and one link flaps,
   but nothing is ever down: the damage shows up only as timed-out
   decisions and a fatter latency tail.

Run:  python examples/rolling_upgrade.py
"""

from repro.experiments.resilience_study import (
    flash_crowd_scenario,
    gray_failure_scenario,
    rolling_upgrade_scenario,
)
from repro.traffic import run_scenario


def rolling_upgrade() -> None:
    print("== 1. Rolling upgrade: 3 waves of leave -> upgrade -> rejoin")
    for protocol in ("qtp1", "qtp2"):
        r = run_scenario(rolling_upgrade_scenario(), protocol, 0).counters()
        print(
            f"  {protocol:<5} committed={r['committed']:<4} "
            f"waves={r['leaves_applied']}/{r['joins_applied']} "
            f"restored={r['sites_restored']} retries={r['retry_attempts']} "
            f"serializable={r['serializable']}"
        )


def flash_crowd() -> None:
    print("== 2. Flash crowd: 6x surge through the adaptive admission window")
    r = run_scenario(flash_crowd_scenario(), "qtp2", 0).counters()
    print(
        f"  offered={r['offered']} admitted={r['admitted']} "
        f"shed={r['shed_backpressure']}"
    )
    print(
        f"  controller: narrowed x{r['window_narrowed']} "
        f"widened x{r['window_widened']} final window={r['window_final']}"
    )


def gray_failure() -> None:
    print("== 3. Gray failure: slow site + flapping link, nothing ever down")
    quiet = run_scenario(gray_failure_scenario(factor=1.0), "qtp2", 0).counters()
    gray = run_scenario(gray_failure_scenario(factor=6.0), "qtp2", 0).counters()
    print(
        f"  factor=1 committed={quiet['committed']:<4} "
        f"protocol_aborted={quiet['protocol_aborted']}"
    )
    print(
        f"  factor=6 committed={gray['committed']:<4} "
        f"protocol_aborted={gray['protocol_aborted']} "
        f"(unreachable-shed unchanged: {gray['shed_unreachable']})"
    )


def main() -> None:
    rolling_upgrade()
    flash_crowd()
    gray_failure()


if __name__ == "__main__":
    main()
