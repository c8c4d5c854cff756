#!/usr/bin/env python3
"""The end-to-end + per-layer benchmark: one command per workload.

    python3 benchmarks/e2e/run.py --workload closed_heavy --seed 1 --seconds 20 --trace 0

builds the workload's inputs from the seed, runs it against the public
API, checks the outputs, and prints every metric ``BENCHMARK.json``
declares for that mode by name with its unit — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1`` — first as
a table, then as one JSON object on the last line of standard output.
``README.md`` beside this file says what each number means.

Every number is on one of two clocks: *host* (reference seconds of this
machine, see ``clock.py``) or *vt* (virtual time in units of the paper's
``T``; deterministic, read at the fixed seed :data:`VT_SEED`).  A change
that only makes the simulator faster leaves every vt metric and the
``sim_fingerprint`` identical.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

#: set-up is timed from here: everything the repository can influence
#: (its imports, input generation) comes after the stdlib imports above
T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"

#: timed passes of an untraced run (fewer only where ``--seconds`` runs
#: out first, and never fewer than MIN_PASSES)
PASSES = 9
MIN_PASSES = 3
#: untraced passes of a traced run (its overhead ratio's denominator)
TRACED_RUN_UNTRACED_PASSES = 3
#: traced passes; the fastest is reported whole
TRACED_PASSES = 3
#: fresh interpreters that time the set-up; the median is ``setup_s``
SETUP_SAMPLES = 9
#: the seed the virtual clock is read at, whatever ``--seed`` says.  The
#: timed work comes from ``--seed``; a vt metric is there to move when
#: the simulator's behaviour does and at no other time, so its inputs
#: are part of its definition.
VT_SEED = 1
#: rows of the serial in-process leg behind ``engine.executor.task_us_per_row``
TASK_LEG_ROWS = 2000


#: the end-to-end metrics on the virtual clock (from ``analyse``)
VT_METRICS = (
    "commit_fraction",
    "decide_p50_vt",
    "decide_p99_vt",
    "settle_p50_vt",
    "settle_p95_vt",
    "settled_fraction",
    "slo_rate_vt",
)


def fingerprint(counters: dict[str, Any]) -> str:
    blob = json.dumps(counters, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mib(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KiB


def measure_setup(args: argparse.Namespace) -> float:
    """Set-up time of one fresh interpreter (``--setup-only``), in
    reference seconds."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--setup-only",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--scale",
        args.scale,
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"set-up run failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------


def warm_up(workload: Any, violations: Any) -> tuple[Any, dict[str, Any]]:
    """An untimed, analysed pass: fills caches, and is the one pass the
    oracle and the vt analysis read.  Returns (pass result, facts)."""
    from workloads import ClusterFacts

    collected = ClusterFacts(violations)
    warm = workload.run_pass(facts=collected)
    return warm, workload.analyse(warm, collected)


def vt_facts(
    args: argparse.Namespace, workload: Any, facts: dict[str, Any], violations: Any
) -> dict[str, Any]:
    """The facts the vt metrics are read from: those of the same
    workload built from :data:`VT_SEED` (the run's own, if that is its
    seed or the workload has nothing on the virtual clock)."""
    if args.seed == VT_SEED or not workload.on_vt_clock:
        return facts
    reference = type(workload)(VT_SEED, args.scale)
    try:
        return warm_up(reference, violations)[1]
    finally:
        reference.close()


def timed_passes(
    workload: Any,
    count: int,
    seconds: float,
    first: str,
    violations: Any,
    after_pass: Callable[[], None] = lambda: None,
) -> dict[str, Any]:
    """``count`` passes of identical work on the segment clock, cut short
    (to no fewer than MIN_PASSES) once they have taken ``seconds``; every
    pass must reproduce the fingerprint ``first``.  ``after_pass`` runs
    untimed after each."""
    from clock import SegmentClock, pass_reference_seconds

    clock = SegmentClock()
    raw: list[float] = []
    reference: list[list[float]] = []
    kernel: list[float] = []
    while len(raw) < count and (len(raw) < MIN_PASSES or sum(raw) < seconds):
        gc.collect()
        clock.start()
        result = workload.run_pass(lap=clock.lap)
        raw.append(sum(clock.raw))
        reference.append(clock.reference_seconds())
        kernel.extend(clock.kernel)
        violations.check(
            fingerprint(result.counters) == first,
            f"pass {len(raw)}: fingerprint differs from the warm-up pass",
        )
        del result
        after_pass()
    return {
        "passes": len(raw),
        # raw seconds are kept as evidence only (``compare.py --noise-floor``)
        "pass_s": raw,
        "pass_reference_s": [sum(segments) for segments in reference],
        "pass_seconds": pass_reference_seconds(reference),
        "kernel_s": statistics.median(kernel),
    }


def run_untraced(
    args: argparse.Namespace, workload: Any, report: dict[str, Any]
) -> dict[str, float]:
    """Warm-up, then PASSES timed passes of identical work.

    Fills ``report`` and returns the end-to-end metric values (all but
    ``peak_rss_mb``, which is read after the workload is closed).
    """
    from clock import REFERENCE_S
    from workloads import Violations

    smoke = args.scale == "smoke"
    violations = Violations()
    warm, facts = warm_up(workload, violations)
    vt = vt_facts(args, workload, facts, violations)
    first = fingerprint(warm.counters)
    ops, events = warm.ops, warm.events

    # a smoke run times its own set-up: it is a fresh interpreter too
    setup_times = [report["own_setup"]] if smoke else []
    setup_samples = 1 if smoke else SETUP_SAMPLES

    def sample_setup() -> None:
        """One set-up sample after each pass, so the samples spread over
        the run: a burst on the box spoils a few, not their median."""
        if len(setup_times) < setup_samples:
            setup_times.append(measure_setup(args))

    timed = timed_passes(
        workload, 1 if smoke else PASSES, args.seconds, first, violations, sample_setup
    )
    while len(setup_times) < setup_samples:
        sample_setup()
    pass_s = timed.pop("pass_seconds")
    per_pass = timed["pass_reference_s"]
    quartiles = statistics.quantiles(per_pass, n=4) if len(per_pass) > 1 else per_pass * 3
    report.update(
        timed,
        ops_per_pass=ops,
        events_per_pass=events,
        sim_fingerprint=first,
        facts=facts,
        vt_samples={"decide_n": vt["decide_n"], "settle_n": vt["settle_n"]},
        violations=list(violations),
        setup_s_samples=setup_times,
        diagnostics={
            "pass_s_median": statistics.median(per_pass),
            "pass_s_iqr": quartiles[2] - quartiles[0],
            "machine_speed": REFERENCE_S / timed["kernel_s"],
        },
    )
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops / pass_s,
        # sweep_stream runs no scheduler: there an event is one row
        # through the sink
        "events_per_s": (events or ops) / pass_s,
        **{name: vt[name] for name in VT_METRICS},
    }


def run_traced(
    args: argparse.Namespace, workload: Any, report: dict[str, Any]
) -> dict[str, float]:
    """Untraced passes, one counted pass, then traced passes; fills
    ``report`` and returns the per-layer metric values.

    The order matters: the untraced passes and the call count run on
    unwrapped code, so the overhead ratio's denominator and
    ``host.pycalls_per_op`` describe the program, not the wrappers.
    """
    import spans
    from clock import SegmentClock
    from workloads import Violations

    smoke = args.scale == "smoke"
    violations = Violations()
    warm, facts = warm_up(workload, violations)
    first = fingerprint(warm.counters)
    ops, events, counters = warm.ops, warm.events, warm.counters

    untraced = timed_passes(
        workload, 1 if smoke else TRACED_RUN_UNTRACED_PASSES, 0.0, first, violations
    )

    profile = cProfile.Profile()
    gc.collect()
    profile.enable()
    workload.run_pass()
    profile.disable()
    pycalls = sum(entry.callcount for entry in profile.getstats())
    del profile

    task_us = 0.0
    if args.workload == "sweep_stream":
        start = time.perf_counter()
        rows = 0
        for task in workload.spec.iter_tasks():
            task.execute()
            rows += 1
            if rows >= TASK_LEG_ROWS:
                break
        task_us = (time.perf_counter() - start) / rows * 1e6

    spans.install()
    recorder = spans.REC
    clock = SegmentClock()
    try:
        recorder.begin_pass(retain=True)  # traced warm-up: full spans kept
        result = workload.run_pass()
        recorder.end_pass()
        kept_spans = recorder.spans or []
        violations.check(
            fingerprint(result.counters) == first, "traced warm-up: fingerprint differs"
        )
        best, best_s = None, 0.0
        for _ in range(1 if smoke else TRACED_PASSES):
            gc.collect()
            clock.start()
            recorder.begin_pass()
            result = workload.run_pass(lap=clock.lap)
            recorder.end_pass()
            violations.check(
                fingerprint(result.counters) == first,
                "traced pass: fingerprint differs from the untraced run",
            )
            seconds = sum(clock.reference_seconds())
            if best is None or seconds < best_s:
                best, best_s = recorder.snapshot(), seconds
                # the kernel ran inside the root span: not the pass's time
                in_kernel = int(clock.in_kernel * 1e9)
                best["pass_ns"] -= in_kernel
                best["self_ns"][spans.HARNESS] -= in_kernel
    finally:
        spans.uninstall()

    untraced_s = untraced.pop("pass_seconds")
    report.update(
        untraced,
        ops_per_pass=ops,
        events_per_pass=events,
        sim_fingerprint=first,
        facts=facts,
        vt_samples={"decide_n": facts["decide_n"], "settle_n": facts["settle_n"]},
        violations=list(violations),
        traced_pass_s=best_s,
        spans={
            "fields": ["id", "parent", "layer", "fn", "start_ns", "end_ns", "txn"],
            "rows": kept_spans,
        },
    )
    return layer_values(best, ops, events, best_s / untraced_s, counters, facts, pycalls, task_us)


def layer_values(
    snap: dict[str, Any],
    ops: int,
    events: int,
    overhead_ratio: float,
    counters: dict[str, Any],
    facts: dict[str, Any],
    pycalls: int,
    task_us: float,
) -> dict[str, float]:
    """Every per-layer metric, by the names ``BENCHMARK.json`` declares.

    A quantity a workload does not have reads 0 (per-layer metrics have
    no bound, so nothing divides by them).
    """
    import spans

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    pass_ns = snap["pass_ns"]
    out: dict[str, float] = {}
    for i, layer in enumerate(spans.LAYERS):
        out[f"{layer}.calls"] = snap["calls"][i]
        out[f"{layer}.self_us_per_op"] = snap["self_ns"][i] / 1e3 / ops
        out[f"{layer}.share"] = snap["self_ns"][i] / pass_ns
    index = {layer: i for i, layer in enumerate(spans.LAYERS)}
    commits = facts["protocol_commits"]
    sent = counters.get("sent", 0)
    forced = counters.get("forced", 0)
    cluster_ns, clusters = snap["named"].get("cluster_init", (0, 0))
    by_rate = facts.get("by_rate", {})
    out.update(
        {
            "harness.share": snap["self_ns"][spans.HARNESS] / pass_ns,
            "trace_overhead_ratio": overhead_ratio,
            "host.pycalls_per_op": pycalls / ops,
            "sim.scheduler.events_per_op": events / ops,
            "net.msgs_per_commit": ratio(sent, commits),
            "net.dropped_fraction": ratio(counters.get("dropped", 0), sent),
            "net.fanout_width": ratio(snap["fanout_dsts"], snap["fanouts"]),
            "protocols.handled_per_op": snap["handled"][index["protocols"]] / ops,
            "protocols.term_msgs_per_op": facts["term_msgs"] / ops,
            "election.rounds_per_op": facts["election_rounds"] / ops,
            "storage.wal.forces_per_commit": ratio(forced, commits),
            "storage.wal.flushes_per_force": ratio(counters.get("flushes", 0), forced),
            "concurrency.locks.denied_fraction": ratio(snap["lock_denied"], snap["lock_probes"]),
            "sim.trace.records_per_op": counters.get("records", 0) / ops,
            "sim.trace.queries_per_op": snap["calls"][index["sim.trace.query"]] / ops,
            "traffic.shed_fraction": facts.get("shed_fraction", 0.0),
            "traffic.client_abort_fraction": facts.get("client_abort_fraction", 0.0),
            "db.build.us_per_cluster": ratio(cluster_ns / 1e3, clusters),
            "engine.sink.bytes_per_row": facts.get("bytes_per_row", 0.0),
            "engine.executor.task_us_per_row": task_us,
        }
    )
    for protocol in ("2pc", "3pc", "skq", "qtp1", "qtp2"):
        out[f"protocols.decide_p50_vt.{protocol}"] = facts["decide_p50_by_protocol"].get(
            protocol, 0.0
        )
    for rate in (2, 4, 8):
        at_rate = by_rate.get(float(rate), {})
        out[f"traffic.p99_vt.r{rate}"] = at_rate.get("p99_vt", 0.0)
        out[f"traffic.failed_fraction.r{rate}"] = at_rate.get("failed_fraction", 0.0)
    return out


# ----------------------------------------------------------------------
# one workload, start to finish
# ----------------------------------------------------------------------


def timed_setup(args: argparse.Namespace) -> tuple[Any, float]:
    """Import the stack and build the workload's inputs; returns the
    workload and the set-up time since :data:`T0` in reference seconds."""
    from clock import calibrate, machine_now, reference_seconds

    kernel_start = time.perf_counter()
    calibrate()  # the kernel's first run in a process is its slowest
    before = machine_now()
    kernel_s = time.perf_counter() - kernel_start
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    raw = time.perf_counter() - T0 - kernel_s
    after = machine_now()
    return workload, reference_seconds(raw, before, after)


def run_workload(args: argparse.Namespace) -> dict[str, Any]:
    manifest = json.loads(MANIFEST.read_text())
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    workload, own_setup = timed_setup(args)
    report: dict[str, Any] = {
        "own_setup": own_setup,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(),
    }
    try:
        values = (run_traced if args.trace else run_untraced)(args, workload, report)
    finally:
        workload.close()
    if not args.trace:
        # after close(): the pool workers have been waited for, so the
        # children's peak is final
        values["peak_rss_mb"] = peak_rss_mib(with_children=args.workload == "sweep_stream")
    report["metrics"] = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    violations = report["violations"]
    report["correct"] = not violations
    report["attempted"] = report["ops_per_pass"]
    # an op whose client did not get what it asked for (aborted, shed,
    # blocked, unsettled, a missing row); the oracle's findings are in
    # ``correct`` and ``violations``
    report["failed"] = report["facts"]["client_failed"]
    return report


def clock_of(name: str, unit: str) -> str:
    """Which clock a metric is on: vt numbers repeat exactly per seed,
    host numbers are this machine's, counts are exact and on neither."""
    if unit in ("T", "1/T") or name.endswith("_fraction") or "_fraction." in name:
        return "vt"
    if unit in ("s", "op/s", "ev/s", "us", "MiB") or name.endswith((".share", "_ratio")):
        return "host"
    return "count"


def print_report(report: dict[str, Any]) -> None:
    """The human-readable table, then the one-line result."""
    label = "SMOKE (not comparable) " if report["scale"] == "smoke" else ""
    print(
        f"# {label}{report['workload']} seed={report['seed']} trace={report['trace']} "
        f"passes={report['passes']} ops/pass={report['ops_per_pass']}"
    )
    for name, metric in report["metrics"].items():
        unit = metric["unit"]
        print(f"{name:42s} {metric['value']:>16.6g} {unit:<6s} {clock_of(name, unit)}")
    extras = {
        "ops_attempted": report["attempted"],
        "ops_failed": report["failed"],
        **report["vt_samples"],
        "mixed_3pc": report["facts"]["mixed_3pc"],
        **report.get("diagnostics", {}),
    }
    for name, value in extras.items():
        print(f"{name:42s} {value:>16.6g}")
    print(f"{'sim_fingerprint':42s} {report['sim_fingerprint']}")
    for violation in report["violations"]:
        print(f"VIOLATION: {violation}")
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )


def run_all(args: argparse.Namespace) -> int:
    """``--workload all``: each workload in its own interpreter (so one
    workload's memory never shows in another's peak), merged into --out."""
    manifest = json.loads(MANIFEST.read_text())
    merged: dict[str, Any] = {"schema": 1, "runs": {}}
    status = 0
    for entry in manifest["workloads"]:
        command = [sys.executable, str(HERE / "run.py"), "--workload", entry["name"]]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace), "--scale", args.scale]
        part = Path(f"{args.out}.{entry['name']}.part") if args.out else None
        if part:
            command += ["--out", str(part)]
        status |= subprocess.run(command).returncode
        if part and part.exists():
            merged["runs"].update(json.loads(part.read_text())["runs"])
            part.unlink()
    if args.out:
        Path(args.out).write_text(json.dumps(merged, sort_keys=True) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0, help="cut the timed passes short after this long"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the full report (and kept spans) to this JSON file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not MANIFEST.is_file():
        print(f"run.py: no src/repro or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)

    if args.setup_only:
        workload, setup_s = timed_setup(args)
        print(repr(setup_s))
        workload.close()
        return 0

    report = run_workload(args)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"schema": 1, "runs": {args.workload: report}}, sort_keys=True) + "\n"
        )
    print_report(report)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
