"""``python -m repro.bench`` — the benchmark-regression CLI.

Subcommands:

* ``list``   — show registered cases and their sweep shapes.
* ``run``    — execute the suite and write fresh ``BENCH_*.json`` files
  to ``--out`` (CI uploads these as workflow artifacts).
* ``diff``   — execute the suite and compare against the committed
  baselines at ``--root``; ``--check`` exits non-zero on counter drift
  (or, without ``--case``, on a committed file no case owns).
* ``update`` — rewrite the committed baselines (then commit the result;
  the diff of the JSON is the reviewable behaviour record).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.cases import SCALES, default_suite
from repro.bench.diff import (
    diff_against_baselines,
    diff_stored_payloads,
    markdown_summary,
    orphan_baselines,
)
from repro.bench.suite import BaselineStore, BenchSuite


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--case",
        action="append",
        dest="cases",
        metavar="NAME",
        help="restrict to one case (repeatable; default: all)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count for the sweep engine (default 1; counters are "
        "identical at every worker count)",
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="full",
        help="workload scale (quick is for smoke runs; committed baselines "
        "are always full scale)",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=900.0,
        metavar="SECONDS",
        help="soft per-case timeout: a case exceeding it fails fast with all "
        "thread stacks dumped to stderr instead of hanging the job "
        "(default 900; 0 disables)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="benchmark-regression harness over the committed BENCH_*.json baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show registered cases")

    run = sub.add_parser("run", help="run the suite, write fresh artifacts")
    _add_common(run)
    run.add_argument(
        "--out",
        default="bench-out",
        help="directory for fresh BENCH_*.json artifacts (default: bench-out)",
    )

    diff = sub.add_parser("diff", help="compare a fresh run against committed baselines")
    _add_common(diff)
    diff.add_argument(
        "--root", default=".", help="directory of committed baselines (default: .)"
    )
    diff.add_argument(
        "--fresh",
        metavar="DIR",
        help="compare the BENCH_*.json already written to DIR by `run --out` "
        "instead of re-executing the suite (the gate and the uploaded "
        "artifacts then come from the same run)",
    )
    diff.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on counter drift (the CI gate)",
    )
    diff.add_argument(
        "--summary",
        metavar="FILE",
        help="append a markdown verdict table to FILE (CI passes "
        "$GITHUB_STEP_SUMMARY)",
    )

    update = sub.add_parser("update", help="rewrite the committed baselines")
    _add_common(update)
    update.add_argument(
        "--root", default=".", help="directory of committed baselines (default: .)"
    )
    return parser


def _cmd_list(suite: BenchSuite) -> int:
    for case in suite:
        spec = case.spec
        grid = {k: list(v) for k, v in spec.grid.items()}
        print(f"{case.name}: grid={grid} runs={spec.runs}")
    return 0


def _timeout_for(args: argparse.Namespace) -> float | None:
    """The per-case soft timeout, with 0 (or less) meaning disabled."""
    timeout = getattr(args, "timeout_s", None)
    return timeout if timeout is not None and timeout > 0 else None


def _cmd_run(suite: BenchSuite, args: argparse.Namespace) -> int:
    store = BaselineStore(args.out)
    payloads = suite.run(args.cases, workers=args.workers, timeout_s=_timeout_for(args))
    for name, payload in payloads.items():
        path = store.save(payload)
        print(f"{name}: wrote {path}")
    return 0


def _cmd_diff(suite: BenchSuite, args: argparse.Namespace) -> int:
    baselines = BaselineStore(args.root)
    if args.fresh:
        results = diff_stored_payloads(
            BaselineStore(args.fresh), baselines, names=args.cases or suite.names
        )
    else:
        results = diff_against_baselines(
            suite, baselines, names=args.cases, workers=args.workers, timeout_s=_timeout_for(args)
        )
    if not args.cases:
        results += orphan_baselines(suite, baselines)
    if args.summary:
        with open(args.summary, "a") as fh:
            fh.write(markdown_summary(results))
    for result in results:
        print(result.describe())
    if all(result.ok for result in results):
        print(f"bench diff: {len(results)} case(s) clean")
        return 0
    print("bench diff: DRIFT — deterministic counters changed; either fix the")
    print("regression or re-baseline with `python -m repro.bench update`.")
    return 1 if args.check else 0


def _cmd_update(suite: BenchSuite, args: argparse.Namespace) -> int:
    store = BaselineStore(args.root)
    payloads = suite.run(args.cases, workers=args.workers, timeout_s=_timeout_for(args))
    for name, payload in payloads.items():
        path = store.save(payload)
        print(f"{name}: baselined {path}")
    print("commit the rewritten BENCH_*.json files with your change.")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(default_suite())
    suite = default_suite(args.scale)
    if args.command == "run":
        return _cmd_run(suite, args)
    if args.command == "diff":
        return _cmd_diff(suite, args)
    if args.command == "update":
        return _cmd_update(suite, args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
