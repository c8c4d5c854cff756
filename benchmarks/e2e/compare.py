#!/usr/bin/env python3
"""Compare two benchmark reports metric by metric against the bounds.

    python3 benchmarks/e2e/compare.py A.json B.json [--same-commit]

``A.json`` and ``B.json`` are ``run.py --out`` reports (one workload, or
all four from ``--workload all``).  One row per workload x end-to-end
metric: both values, the relative difference of B against A, the bound
from ``BENCHMARK.json`` and a verdict.

* Default — A is the parent, B the change: exits non-zero when any
  metric is *worse* in B by more than its bound.  A vt metric or a
  ``sim_fingerprint`` that differs at all is flagged ``changed``: the
  change altered what the simulator computes, not only how fast.
* ``--same-commit`` — two runs of one commit must agree: every host
  metric within its bound in either direction, every vt metric,
  ``attempted``, ``failed`` and ``sim_fingerprint`` identical.

``--noise-floor OUT.json R1.json R2.json ...`` instead records, per
workload x host metric, the max/min ratio over the given runs — and,
beside ``ops_per_s``, the rate the same runs give on the raw clock (ops
per pass / mean of the fastest quarter of raw pass times), the paired
evidence ``clock.py`` rests on.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Any

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: metrics on the host clock; every other end-to-end metric is virtual
#: time and repeats exactly.
HOST_METRICS = ("setup_s", "ops_per_s", "events_per_s", "peak_rss_mb")


def load_runs(path: str) -> dict[str, Any]:
    runs = json.loads(Path(path).read_text())["runs"]
    for name, run in runs.items():
        if run["trace"] or run["scale"] != "full":
            raise SystemExit(f"{path}: {name} is a traced or smoke run; compare full --trace 0 runs")
    return runs


def compare(a_runs: dict[str, Any], b_runs: dict[str, Any], same_commit: bool) -> int:
    declared = json.loads(MANIFEST.read_text())["end_to_end"]
    failures = 0
    print(f"{'workload':16s} {'metric':18s} {'A':>14s} {'B':>14s} {'B vs A':>9s} {'bound':>6s}  verdict")
    for workload in a_runs:
        if workload not in b_runs:
            continue
        a, b = a_runs[workload], b_runs[workload]
        if a["seed"] != b["seed"]:
            raise SystemExit(f"{workload}: seeds differ ({a['seed']} vs {b['seed']})")
        for entry in declared:
            name, bound = entry["name"], entry["bound"]
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            change = (vb - va) / va
            worse = -change if entry["better"] == "higher" else change
            host = name in HOST_METRICS
            if same_commit and not host:
                verdict = "ok" if va == vb else "DIFFERS"
            elif worse > bound:
                verdict = "WORSE"
            elif same_commit and worse < -bound:
                verdict = "DIFFERS"
            elif not host and va != vb:
                verdict = "changed"
            else:
                verdict = "better" if worse < -bound else "ok"
            failures += verdict in ("WORSE", "DIFFERS")
            print(
                f"{workload:16s} {name:18s} {va:14.6g} {vb:14.6g} {change:+9.2%} {bound:6.0%}  {verdict}"
            )
        for field in ("attempted", "failed", "sim_fingerprint"):
            if a[field] != b[field]:
                verdict = "DIFFERS" if same_commit else "changed"
                failures += same_commit
                print(
                    f"{workload:16s} {field:18s} {str(a[field])[:14]:>14s} {str(b[field])[:14]:>14s} "
                    f"{'':16s}  {verdict}"
                )
        failures += not (a["correct"] and b["correct"])
    return 1 if failures else 0


def raw_fq_rate(run: dict[str, Any]) -> float:
    """Ops per second on the raw clock: ops per pass over the mean of
    the fastest quarter of the run's raw pass times."""
    times = sorted(run["pass_s"])
    return run["ops_per_pass"] / statistics.fmean(times[: math.ceil(len(times) / 4)])


def noise_floor(out: str, paths: list[str]) -> int:
    """Max/min ratio of every host metric over several runs of one commit."""
    all_runs = [load_runs(path) for path in paths]
    first = all_runs[0]
    floor: dict[str, Any] = {}
    for workload, run in first.items():
        floor[workload] = {
            "seed": run["seed"],
            "passes": [runs[workload]["passes"] for runs in all_runs],
            "ops_per_pass": run["ops_per_pass"],
        }
        samples = {
            name: [runs[workload]["metrics"][name]["value"] for runs in all_runs]
            for name in HOST_METRICS
        }
        samples["ops_per_s_raw_fq"] = [raw_fq_rate(runs[workload]) for runs in all_runs]
        for name, values in samples.items():
            floor[workload][name] = {"values": values, "max_over_min": max(values) / min(values)}
            print(f"{workload:16s} {name:16s} max/min = {max(values) / min(values):.4f}")
    document = {"runs": len(paths), "env": next(iter(first.values()))["env"], "floor": floor}
    Path(out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="+", help="run.py --out files")
    parser.add_argument("--same-commit", action="store_true")
    parser.add_argument("--noise-floor", metavar="OUT", help="write the noise floor of the runs here")
    args = parser.parse_args(argv)
    if args.noise_floor:
        return noise_floor(args.noise_floor, args.reports)
    if len(args.reports) != 2:
        parser.error("compare takes exactly two reports")
    return compare(load_runs(args.reports[0]), load_runs(args.reports[1]), args.same_commit)


if __name__ == "__main__":
    sys.exit(main())
