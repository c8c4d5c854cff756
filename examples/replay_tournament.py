#!/usr/bin/env python3
"""Record one heavy-traffic run, then ask "what if?".

Records the full op + failure stream of an E18 run under the paper's
QTP protocol, fixed-point checks the replay (same config → identical
deterministic counters), and then replays the *same* recorded stream
across the default what-if matrix: classic 2PC, 3PC, and a
read-one-write-all quorum assignment.

Run:  python examples/replay_tournament.py [--seed N] [--txns N]
"""

import argparse

from repro.experiments.workload_study import heavy_workload_scenario
from repro.replay import fixed_point_ok, format_diff_table, record, replay_trace, run_tournament


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="recorded run seed")
    parser.add_argument("--txns", type=int, default=60, help="stream length")
    args = parser.parse_args()

    print("=" * 72)
    print(f"recording E18 heavy traffic: qtp1, seed={args.seed}, {args.txns} txns")
    print("=" * 72)
    trace = record(heavy_workload_scenario(n_txns=args.txns), "qtp1", seed=args.seed)
    print(
        f"harvested {len(trace.ops)} ops, {len(trace.updates)} updates, "
        f"{len(trace.actions)} fault actions"
    )

    row = replay_trace(trace)
    verdict = "holds" if fixed_point_ok(trace, row) else "VIOLATED"
    print(f"record→replay fixed point: {verdict}")

    print()
    print("=" * 72)
    print("tournament: one recorded stream, four configurations")
    print("=" * 72)
    print(format_diff_table(run_tournament(trace)))


if __name__ == "__main__":
    main()
