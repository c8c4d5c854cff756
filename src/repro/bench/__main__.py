"""``python -m repro.bench`` — the benchmark-regression CLI.

Subcommands, run at the repository root:

* ``list``   — show the registered cases and their sweep shapes.
* ``diff``   — run cases and compare them with the committed
  baselines; ``--check`` exits 1 on any difference (or, without
  ``--case``, on a committed file no case owns).
* ``update`` — rewrite the committed baselines (then commit the result;
  the diff of the JSON is the reviewable behaviour record).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.cases import CASES
from repro.bench.gate import check, update


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="benchmark-regression harness over the committed BENCH_*.json baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="show registered cases")
    diff = sub.add_parser("diff", help="run cases and compare them with the committed baselines")
    diff.add_argument("--check", action="store_true", help="exit 1 on any difference (the gate)")
    update_cmd = sub.add_parser("update", help="run cases and rewrite the committed baselines")
    for command in (diff, update_cmd):
        command.add_argument(
            "--case",
            action="append",
            dest="cases",
            choices=list(CASES),
            help="restrict to one case (repeatable; default: all)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, spec in CASES.items():
            grid = {k: list(v) for k, v in spec.grid.items()}
            print(f"{name}: grid={grid} runs={spec.runs}")
        return 0
    if args.command == "update":
        for path in update(".", args.cases):
            print(f"baselined {path}")
        print("commit the rewritten BENCH_*.json files with your change.")
        return 0
    verdicts = check(".", args.cases)
    for name, differences in verdicts.items():
        print(f"{name}: {'DRIFT' if differences else 'ok'}")
        for difference in differences:
            print(f"  {difference}")
    if not any(verdicts.values()):
        print(f"bench diff: {len(verdicts)} case(s) clean")
        return 0
    print("bench diff: DRIFT — deterministic counters changed; either fix the")
    print("regression or re-baseline with `python -m repro.bench update`.")
    return 1 if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
