"""Guard: the retired legacy-arm flags stay retired.

Seven hot-path optimizations used to ship their slow twin behind a
keyword flag that only a bench case and an equivalence test ever set.
The twins are deleted; passing a retired keyword must fail loudly, and
no bench case may grow an axis that selects between arms of one of
those concepts again.

The retired names are spelled in two pieces (``_kw``) so that a
repo-wide grep for them keeps coming back empty.

The bench gate's clock is retired the same way: host time has one
owner (``benchmarks/e2e``), so nothing under ``src/repro/bench/`` may
read a clock or spell a timing field, and the keywords that existed to
serve the clock — or to select a slow arm nobody runs — are rejected.

The sweep engine's second and third execution loops are retired too:
one function executes a sweep task, one constructs a pool, one submits
to it, and the names of the deleted loops (and of the pool library they
rode) do not come back under ``src/repro/engine/``.  So is its
fault-tolerance arm: ``run_sweep`` takes no retry policy and resumes no
artifact, and the names of the chaos harness, the salvage scan and the
pool replacement stay out of the engine.

So are the bench registry's counter-only microbenches and what only
they exercised: the eleven retired cases stay unregistered and
unbaselined, the shared-payload transport stays deleted, and the
keywords that carried it or them — a tournament's shared trace, the
sweep's ``reduce=`` shorthand, the drivers' cluster probe, the bench's
warm-pool runner — are rejected.

So are the modes no run selected: the tracer keeps every row (no
truncating or ring capacity, and a cluster builds its own), a Zipf pick
is the cumulative scan (no alias sampler, and no ``zipf_sampling``
case whose ``alias`` axis was its only caller), and a tournament takes
no store, pool or sink of its own.

So are the macro experiments' pass-through wrappers: a scenario is run
by ``run_scenario`` and recorded by ``record`` and by nothing else, so
the fourteen ``run_*`` / ``record_*`` functions that only forwarded to
them stay undefined and unexported, and neither a study driver nor
``fold_cells`` takes the ``sink=`` no caller passed.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro.engine as engine
from repro.bench import BenchCase, BenchSuite, cases, compare_case, diff_against_baselines
from repro.bench.cases import default_suite
from repro.concurrency.locks import LockManager
from repro.db.cluster import Cluster
from repro.engine import (
    CountAcc,
    FoldedChunk,
    NoopSink,
    ResultSink,
    RowReducer,
    SweepOutcome,
    SweepRunner,
    SweepSpec,
    TeeSink,
    fold_cells,
    run_sweep,
)
from repro.engine.spec import TaskChunk
from repro.experiments import (
    availability_sweep,
    modelcheck,
    reenterability_storm,
    vote_assignment_study,
    workload_study,
)
from repro.experiments.sweeps import wan_partition_storm
from repro.experiments.workload_study import heavy_traffic_study
from repro.net.network import Network
from repro.replay import run_tournament
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer
from repro.storage.recovery import replay_data
from repro.storage.store import ReplicaStore
from repro.storage.wal import WriteAheadLog
from repro.traffic import run_scenario
from repro.workload.spec import WorkloadSpec

BENCH_SRC = Path(cases.__file__).parent
REPO = BENCH_SRC.parents[2]
TOY_SPEC = default_suite("quick").case("commit_mix").spec


def toy_task(seed: int) -> int:
    return seed


def toy_fold(state, result):
    raise AssertionError("a refused sweep folded a row")


SWEEP = SweepSpec("retired", toy_task, grid={}, runs=2)
REDUCER = RowReducer((("v", "", CountAcc()),))


def _kw(head: str, tail: str, value: object) -> dict[str, object]:
    return {f"{head}_{tail}": value}


def _network(**retired):
    return Network(Scheduler(), Tracer(), RngRegistry(0), **retired)


RETIRED_KEYWORDS = {
    "Network-fanout-cache": lambda: _network(**_kw("fanout", "cache", False)),
    "Network-intern-views": lambda: _network(**_kw("intern", "views", False)),
    "Network-flyweight": lambda: _network(**{"flyweight": False}),
    "Tracer-columnar": lambda: Tracer(**{"columnar": False}),
    "WriteAheadLog-group-commit": lambda: WriteAheadLog(1, **_kw("group", "commit", False)),
    "replay_data-full-scan": lambda: replay_data(
        WriteAheadLog(1), ReplicaStore(1), **_kw("full", "scan", True)
    ),
    "LockManager-legacy-probe": lambda: LockManager(1, **_kw("legacy", "probe", True)),
    "BenchCase-repeats": lambda: BenchCase("toy", TOY_SPEC, repeats=3),
    "BenchCase-derived": lambda: BenchCase("toy", TOY_SPEC, derived=None),
    "run_case-measure-time": lambda: BenchSuite().run_case("toy", measure_time=False),
    "run-measure-time": lambda: BenchSuite().run(measure_time=False),
    "compare_case-time-tolerance": lambda: compare_case({}, {}, time_tolerance=5.0),
    "run_sweep-on-error": lambda: run_sweep(SWEEP, **_kw("on", "error", "retry")),
    "run_sweep-resume-from": lambda: run_sweep(SWEEP, **_kw("resume", "from", "rows.jsonl.gz")),
    "SweepRunner.run_sweep-on-error": lambda: SweepRunner(1).run_sweep(SWEEP, **_kw("on", "error", "retry")),
    "SweepRunner.run_sweep-resume-from": lambda: SweepRunner(1).run_sweep(
        SWEEP, **_kw("resume", "from", "rows.jsonl.gz")
    ),
    "run_sweep-reduce": lambda: run_sweep(SWEEP, reduce=REDUCER),
    "SweepRunner.run_sweep-reduce": lambda: SweepRunner(1).run_sweep(SWEEP, reduce=REDUCER),
    "run_tournament-share-trace": lambda: run_tournament(None, **_kw("share", "trace", True)),
    "run_scenario-probe": lambda: run_scenario(None, "qtp1", 0, probe=print),
    "run_case-runner": lambda: BenchSuite().run_case("toy", runner=None),
    "run-runner": lambda: BenchSuite().run(runner=None),
    "diff_against_baselines-runner": lambda: diff_against_baselines(BenchSuite(), None, runner=None),
    "Tracer-capacity": lambda: Tracer(capacity=8),
    "Tracer-ring": lambda: Tracer(ring=True),
    "Cluster-tracer": lambda: Cluster(None, tracer=Tracer()),
    "WorkloadSpec-sampler": lambda: WorkloadSpec(sampler="scan"),
    "run_tournament-store": lambda: run_tournament(None, store=None),
    "run_tournament-persistent-pool": lambda: run_tournament(None, **_kw("persistent", "pool", True)),
    "run_tournament-sink": lambda: run_tournament(None, sink=None),
    "availability_sweep-sink": lambda: availability_sweep(sink=None),
    "reenterability_storm-sink": lambda: reenterability_storm(sink=None),
    "modelcheck-sink": lambda: modelcheck("qtp1", sink=None),
    "wan_partition_storm-sink": lambda: wan_partition_storm(sink=None),
    "workload_study-sink": lambda: workload_study(sink=None),
    "heavy_traffic_study-sink": lambda: heavy_traffic_study(sink=None),
    "vote_assignment_study-sink": lambda: vote_assignment_study(sink=None),
    "fold_cells-sink": lambda: fold_cells(SWEEP, toy_fold, sink=None),
}


@pytest.mark.parametrize("call", RETIRED_KEYWORDS.values(), ids=RETIRED_KEYWORDS.keys())
def test_retired_keyword_is_rejected(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


def test_no_bench_case_selects_a_retired_arm():
    retired_axes = {"tracked", "cached", "grouped", "columnar", "intern", "flyweight", "indexed"}
    retired_axes |= {"memo", "warm", "resilient", "streaming", "alias"}
    for case in default_suite():
        assert not retired_axes & set(case.spec.grid), case.name


#: the counter-only microbenches of synthetic inputs; what each pinned is
#: held against its reference in tests/property/test_prop_bench.py or by
#: the scenario baselines
RETIRED_CASES = [
    "scheduler_drain",
    "lock_probe",
    "net_deliver_fanout",
    "net_fanout_flyweight",
    "wal_append",
    "trace_record",
    "partition_churn",
    "suite_warm_pool",
    "recovery_replay",
    "catalog_memo",
    "sweep_streaming",
    "zipf_sampling",
]


@pytest.mark.parametrize("name", RETIRED_CASES)
def test_retired_case_stays_unregistered(name):
    assert name not in cases.CASES
    assert not (REPO / f"BENCH_{name}.json").exists()


#: what only the gate's own clock ever needed (the soft-timeout watchdog
#: is a ``threading.Timer``; bare ``derived`` is a seeding mode and stays).
CLOCK_WORDS = re.compile(
    r"perf_counter|import time|\"timing\"|wall_s|measure_time|time_tolerance|strict_time"
    r"|repeats=|derived=|mean_ci|experiments\.stats"
)


def test_the_bench_gate_reads_no_clock():
    files = sorted(BENCH_SRC.glob("*.py"))
    assert {p.name for p in files} >= {"cases.py", "suite.py", "diff.py", "__main__.py"}
    hits = {p.name: sorted(set(CLOCK_WORDS.findall(p.read_text()))) for p in files}
    assert {name: found for name, found in hits.items() if found} == {}


@pytest.mark.parametrize("flag", ["--time-tolerance", "--strict-time"])
def test_retired_cli_flag_is_rejected(flag, capsys):
    from repro.bench.__main__ import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["diff", flag, "25"])
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "diff", "update"])
def test_the_warm_pool_flag_is_rejected(command, capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main([command, "--persistent-pool"])
    assert "unrecognized arguments: --persistent-pool" in capsys.readouterr().err


ENGINE_SRC = Path(cases.__file__).parent.parent / "engine"

#: the deleted loops and the pool library two of them rode
RETIRED_ENGINE_WORDS = re.compile(
    "|".join(
        head + tail
        for head, tail in [
            ("_execute", "_all"),
            ("_execute", "_task"),
            ("run_", "resilient"),
            ("_resilient", "_raw_stream"),
            ("_sett", r"le\b"),
            ("_guarded", "_chunk"),
            ("_guard", "_one"),
            ("_Fai", "led"),
            ("_Sta", r"ts\b"),
            ("_chunk", "_list"),
            ("multiprocessing", r"\.Pool"),
            (r"\.im", r"ap\("),
            ("pool", r"\.map\("),
            ("Chaos", "Plan"),
            ("scan_partial", "_stream"),
            ("note_quar", "antined"),
            ("resp", "awn"),
            ("resil", "ience"),
        ]
    )
)


def test_the_engine_has_one_sweep_loop_on_one_pool():
    files = sorted(ENGINE_SRC.glob("*"))
    sources = {p.name: p.read_text() for p in files if p.suffix in (".py", ".md")}
    assert {"executor.py", "sink.py", "README.md"} <= set(sources)
    hits = {name: sorted(set(RETIRED_ENGINE_WORDS.findall(text))) for name, text in sources.items()}
    assert {name: found for name, found in hits.items() if found} == {}

    def sites(call: str) -> list[str]:
        return [
            f"{name}:{text[: match.start()].count(chr(10)) + 1}"
            for name, text in sources.items()
            if name.endswith(".py")
            for match in re.finditer(call, text)
        ]

    (executes,) = sites(r"\.execute\(\)")  # a sweep task runs in fold_chunk and nowhere else
    assert executes.startswith("sink.py:")
    fold_chunk = sources["sink.py"].split("\ndef fold_chunk(")[1].split("\nclass ")[0]
    assert ".execute()" in fold_chunk
    (constructs,) = sites(r"ProcessPoolExecutor\(")
    (submits,) = sites(r"\.submit\(")
    assert constructs.startswith("executor.py:") and submits.startswith("executor.py:")


#: what the fault-tolerance arm exported, and the names only tests called
RETIRED_ENGINE_NAMES = [
    head + tail
    for head, tail in [
        ("Chaos", "Plan"),
        ("Chaos", "Task"),
        ("Chaos", "Sink"),
        ("Kill", "Worker"),
        ("Fail", "Task"),
        ("Fail", "Sink"),
        ("Injected", "Fault"),
        ("Injected", "SinkError"),
        ("CHAOS_KILL", "_EXIT"),
        ("Failure", "Manifest"),
        ("Task", "Failure"),
        ("resolve", "_policy"),
        ("scan_partial", "_stream"),
        ("Retry", "Policy"),  # the traffic client's policy now; repro.traffic exports it
        ("Printing", "Sink"),
        ("Fold", "Sink"),
        ("map", "_runs"),
        ("Shared", "Payload"),
    ]
]


@pytest.mark.parametrize("name", RETIRED_ENGINE_NAMES)
def test_retired_engine_name_is_not_exported(name):
    assert name not in engine.__all__
    assert not hasattr(engine, name)


@pytest.mark.parametrize("module", ["resil" + "ience", "shared"])
def test_the_retired_engine_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.engine." + module)


RETIRED_ATTRIBUTES = {
    "SweepOutcome.by_cell": (lambda: SweepOutcome(spec={"name": "x"}), "by" + "_cell"),
    "SweepOutcome.resilience": (lambda: SweepOutcome(spec={"name": "x"}), "resil" + "ience"),
    "SweepOutcome.failures": (lambda: SweepOutcome(spec={"name": "x"}), "failures"),
    "FoldedChunk.failures": (FoldedChunk, "failures"),
    "FoldedChunk.retried": (FoldedChunk, "retried"),
    "ResultSink.quarantined": (ResultSink, "quar" + "antined"),
    "ResultSink.note_quarantined": (ResultSink, "note_quar" + "antined"),
    "TeeSink.note_quarantined": (lambda: TeeSink(NoopSink()), "note_quar" + "antined"),
    "TaskChunk.start": (lambda: TaskChunk(SWEEP, []), "start"),
}


@pytest.mark.parametrize("build, attribute", RETIRED_ATTRIBUTES.values(), ids=RETIRED_ATTRIBUTES.keys())
def test_retired_engine_attribute_is_gone(build, attribute):
    assert not hasattr(build(), attribute)


#: the keywords each entry point keeps: two fewer on each sweep entry
#: than before the fault-tolerance arm went, and one fewer again since
#: ``reduce=`` (a second spelling of ``sink=ReducerSink(...)``) did; a
#: tournament passes only ``workers`` on to its sweep
SWEEP_SIGNATURES = {
    "run_sweep": (run_sweep, ["spec", "workers", "chunksize", "store", "persistent_pool", "sink"]),
    "SweepRunner.run_sweep": (SweepRunner.run_sweep, ["self", "spec", "chunksize", "store", "sink"]),
    "run_tournament": (run_tournament, ["trace", "configs", "workers"]),
    "fold_cells": (fold_cells, ["spec", "fold", "workers", "store"]),
}


@pytest.mark.parametrize("function, names", SWEEP_SIGNATURES.values(), ids=SWEEP_SIGNATURES.keys())
def test_the_sweep_entry_points_keep_their_keywords(function, names):
    assert list(inspect.signature(function).parameters) == names


#: the pass-through wrappers around ``run_scenario`` / ``record``: every
#: caller builds the scenario and calls the one runner itself
RETIRED_WRAPPERS = [
    head + tail
    for head, tail in [
        ("run_skewed", "_contention"),
        ("run_read", "_mostly"),
        ("run_cross", "_region"),
        ("run_elastic", "_join"),
        ("run_rolling", "_upgrade"),
        ("run_flash", "_crowd"),
        ("run_gray", "_failure"),
        ("run_open_loop", "_service"),
        ("run_heavy", "_workload"),
        ("run_work", "load"),
        ("run_wan", "_storm"),
        ("record_heavy", "_workload"),
        ("record_open_loop", "_service"),
        ("record_wan", "_storm"),
    ]
]

#: every package and module that used to define or export one of them
WRAPPER_HOMES = [
    "repro",
    "repro.experiments",
    "repro.experiments.resilience_study",
    "repro.experiments.service_study",
    "repro.experiments.workload_scenarios",
    "repro.experiments.workload_study",
    "repro.replay",
    "repro.replay.recorder",
    "repro.traffic",
    "repro.workload",
    "repro.workload.scenarios",
]


@pytest.mark.parametrize("name", RETIRED_WRAPPERS)
def test_retired_wrapper_is_neither_defined_nor_exported(name):
    for home in WRAPPER_HOMES:
        module = importlib.import_module(home)
        assert not hasattr(module, name), f"{home}.{name}"
        assert name not in getattr(module, "__all__", ()), home
    defined = re.compile(rf"^\s*def {name}\(", re.MULTILINE)
    src = REPO / "src" / "repro"
    assert [p.name for p in src.rglob("*.py") if defined.search(p.read_text())] == []

