"""``python -m repro.replay`` — the record / replay CLI.

Subcommands:

* ``record`` — run a scenario (any :data:`~repro.replay.TRACE_DRIVERS`
  name: E18 heavy traffic, E21 WAN storm, the E26 open-loop service, …)
  and write its full trace to a compressed, byte-stable artifact.
* ``replay`` — replay a trace artifact, optionally under an alternative
  configuration; without overrides the replay is fixed-point checked
  against the recorded counters.

The tournament table over one trace is :func:`repro.replay.run_tournament`
(``examples/replay_tournament.py`` prints it).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from repro.common.errors import StoreError
from repro.db.cluster import PROTOCOL_NAMES
from repro.experiments import SCENARIOS
from repro.replay.artifact import TRACE_DRIVERS, RecordedTrace
from repro.replay.recorder import record
from repro.replay.tournament import QUORUM_POLICIES, TournamentConfig, fixed_point_ok, replay_trace


def _takes_n_txns(constructor) -> bool:
    """Does this scenario constructor take a stream length?"""
    return "n_txns" in inspect.signature(constructor).parameters


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--protocol",
        choices=list(PROTOCOL_NAMES),
        help="replay under this commit protocol (default: as recorded)",
    )
    parser.add_argument(
        "--quorum",
        choices=list(QUORUM_POLICIES),
        default="recorded",
        help="quorum policy for the replayed catalog (default: recorded)",
    )
    parser.add_argument(
        "--drop-sites",
        type=int,
        default=0,
        metavar="N",
        help="shrink the installation by the N highest-numbered hosting "
        "sites; unhosted recorded ops are skipped and tallied",
    )
    parser.add_argument(
        "--crash-origin-at",
        type=float,
        metavar="T",
        help="extra fault: crash the recorded coordinator at virtual time T",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.replay",
        description="record driver runs as trace artifacts and replay them "
        "under what-if configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="run a driver and write its trace")
    record.add_argument(
        "--driver",
        choices=list(TRACE_DRIVERS),
        default="heavy_workload",
        help="which scenario to record (default: heavy_workload)",
    )
    record.add_argument(
        "--protocol",
        choices=list(PROTOCOL_NAMES),
        default="qtp1",
        help="commit protocol for the recorded run (default: qtp1)",
    )
    record.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    fixed_length = [name for name, build in SCENARIOS.items() if not _takes_n_txns(build)]
    record.add_argument(
        "--n-txns",
        type=int,
        help="stream length (default: the scenario's own; ignored by the "
        f"scenarios without one: {', '.join(fixed_length)})",
    )
    record.add_argument(
        "--out",
        default="trace.jsonl.gz",
        help="artifact path (default: trace.jsonl.gz)",
    )

    replay = sub.add_parser("replay", help="replay a trace artifact")
    replay.add_argument("trace", help="trace artifact path")
    _add_overrides(replay)
    return parser


def _cmd_record(args: argparse.Namespace) -> int:
    constructor = SCENARIOS[args.driver]
    shape = {}
    if args.n_txns is not None and _takes_n_txns(constructor):
        shape["n_txns"] = args.n_txns
    trace = record(constructor(**shape), args.protocol, seed=args.seed)
    trace.save(args.out)
    print(
        f"recorded {trace.driver} protocol={trace.protocol} seed={trace.seed}: "
        f"{len(trace.ops)} ops, {len(trace.updates)} updates, "
        f"{len(trace.actions)} fault actions -> {args.out}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = RecordedTrace.load(args.trace)
    overridden = bool(
        args.protocol or args.quorum != "recorded" or args.drop_sites
        or args.crash_origin_at is not None
    )
    config = TournamentConfig(
        name="cli" if overridden else "recorded",
        protocol=args.protocol,
        quorum=args.quorum,
        drop_sites=args.drop_sites,
        crash_origin_at=args.crash_origin_at,
    )
    row = replay_trace(trace, config)
    print(json.dumps(row, sort_keys=True, indent=2))
    if overridden:
        return 0
    if fixed_point_ok(trace, row):
        print("fixed point: replay reproduces the recorded counters")
        return 0
    print("FIXED POINT VIOLATION: replay diverged from the recorded counters")
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "record":
        return _cmd_record(args)
    try:
        return _cmd_replay(args)
    except StoreError as exc:  # an unreadable, truncated or malformed artifact
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
