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
them stay undefined and unexported, and no study driver takes the
``sink=`` no caller passed.  A study reads its sweep's rows itself:
the engine's per-cell fold helper stays deleted, and so does the
module that kept two experiments inside ``repro.workload``.

So is the sink's per-row protocol: a sink takes folded chunks through
one ``emit(chunk)`` and states a plan for them, never ``None``; the
sinks, the fallback plan, the row-object encoder and folds, and the
chunk hook that only that protocol served stay undefined under
``src/repro/engine/``.

So is the network's second send path: every message is one
``Message`` judged by one chain of checks, filters and link loss
included, and delivered by one method; the slot-store twin of the
message class, the per-message send arm, the flag that chose between
the arms and the label memo only that arm used stay undefined under
``src/repro/net/``.

So is the lock table's wait path: every lock request is granted or
refused at once, so the wait queue, its grant callbacks, the waits-for
edges and the deadlock detector that searched them stay deleted, and
``acquire`` stays a second name of ``try_acquire``, not a second grant
path.  Nor does a process-wide transaction counter or ``SweepSpec``'s
uncalled per-run seed helper come back: every transaction id is minted
by its issuer.

So are the per-protocol engine classes: an engine class is a commit
behaviour and the protocol's name is its message namespace, so the
protocol layer keeps four engine classes — the base engine (Skeen's
protocol), 2PC's, 3PC's and the one quorum engine of qtp1, qtp2 and
qtpp — and the five classes, the threshold attribute and the
per-variant test the quorum engine replaced stay undefined.

So are the termination round's per-direction twins: each step of phase
3 — prepare, ack, close, command — is one engine handler for both
directions, and a round closes on its rule's own ``commits`` /
``aborts``, so the per-direction handlers, the round predicates that
only forwarded to that pair and the record's round-mode string stay
undefined.

So is what nothing called: the experiment layer's scipy statistics
module and the reducer's scipy confidence interval (the package has no
optional dependency left), the two error classes nothing raised, and
the prepare round's window factor that every caller left at its
default.

So is the API that no driver reached (``benchmarks/reach_probe.py``
lists what none of the example scripts, the experiment report, the
bench gate, record + replay, the e2e smoke run or the paper-figure
tests calls): the functions and methods below stay undefined, none is
exported from ``repro`` or its package, and ``python -m repro.replay``
takes no ``diff`` subcommand (``run_tournament`` prints the table).

So are the paper examples' hand-driven options: every run goes through
``run_scenario``, which drains the run and judges it, so Example 1
takes no stop time (the Fig. 3 snapshot is read from the run's
``state`` rows) and no ignore-rule switch nothing set, Example 3 runs
under the paper's protocol 1 only, and the oracle has one entry,
``judge`` — ``check_invariants`` stays undefined.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro.engine as engine
import repro.protocols as protocols
import repro.bench as bench
from repro.bench import cases, check, compare, gate, run_case, update
from repro.bench.__main__ import main as bench_main
from repro.common import ids
from repro.concurrency import locks
from repro.concurrency.locks import LockManager
from repro.db.cluster import Cluster
from repro.engine import (
    CountAcc,
    ChunkPlan,
    FoldedChunk,
    JsonlSink,
    MeanAcc,
    QuantileDigest,
    ReducerSink,
    ResultSink,
    RowReducer,
    SweepOutcome,
    SweepRunner,
    SweepSpec,
    TeeSink,
    run_sweep,
)
from repro.engine import aggregate, executor, sink
from repro.engine.spec import TaskChunk
from repro.experiments import (
    availability_sweep,
    modelcheck,
    reenterability_storm,
    vote_assignment_study,
    workload_study,
)
from repro.experiments.examples import run_example1_scenario, run_example3_scenario
from repro.experiments.sweeps import wan_partition_storm
from repro.net import message, network, node
from repro.experiments.workload_study import heavy_traffic_study
from repro.net.network import Network
from repro.net.node import Node
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


def toy_task(seed: int) -> int:
    return seed


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
    "run_case-measure-time": lambda: run_case("commit_mix", measure_time=False),
    "compare-time-tolerance": lambda: compare({}, {}, time_tolerance=5.0),
    "run_case-timeout-s": lambda: run_case("commit_mix", timeout_s=900.0),
    "run_case-scale": lambda: run_case("commit_mix", scale="quick"),
    "check-workers": lambda: check(REPO, workers=2),
    "check-timeout-s": lambda: check(REPO, timeout_s=900.0),
    "update-workers": lambda: update(REPO, workers=2),
    "update-timeout-s": lambda: update(REPO, timeout_s=900.0),
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
    "run_case-runner": lambda: run_case("commit_mix", runner=None),
    "check-runner": lambda: check(REPO, runner=None),
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
    "run_example1_scenario-run-to": lambda: run_example1_scenario("qtp1", **_kw("run", "to", 3.5)),
    "run_example1_scenario-enforce-ignore-rules": lambda: run_example1_scenario("qtp1", enforce_ignore_rules=False),
    "run_example3_scenario-protocol": lambda: run_example3_scenario(False, protocol="3pc"),
}


@pytest.mark.parametrize("call", RETIRED_KEYWORDS.values(), ids=RETIRED_KEYWORDS.keys())
def test_retired_keyword_is_rejected(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


def test_no_bench_case_selects_a_retired_arm():
    retired_axes = {"tracked", "cached", "grouped", "columnar", "intern", "flyweight", "indexed"}
    retired_axes |= {"memo", "warm", "resilient", "streaming", "alias"}
    for name, spec in cases.CASES.items():
        assert not retired_axes & set(spec.grid), name


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


#: what only the gate's own clock ever needed (bare ``derived`` is a
#: seeding mode and stays).
CLOCK_WORDS = re.compile(
    r"perf_counter|import time|\"timing\"|wall_s|measure_time|time_tolerance|strict_time"
    r"|repeats=|derived=|mean_ci|experiments\.stats"
)


def test_the_bench_gate_reads_no_clock():
    files = sorted(BENCH_SRC.glob("*.py"))
    assert {p.name for p in files} == {"__init__.py", "__main__.py", "cases.py", "gate.py"}
    hits = {p.name: sorted(set(CLOCK_WORDS.findall(p.read_text()))) for p in files}
    assert {name: found for name, found in hits.items() if found} == {}


#: the bench's second surface: the registry, store and verdict classes,
#: the differs and summary around them, the soft watchdog and the quick
#: scale (split so a grep of the bench for them stays empty)
RETIRED_BENCH_NAMES = [
    head + tail
    for head, tail in [
        ("Bench", "Case"),
        ("Bench", "Suite"),
        ("Baseline", "Store"),
        ("Case", "Diff"),
        ("Bench", "Timeout"),
        ("_Case", "Watchdog"),
        ("compare", "_case"),
        ("diff_against", "_baselines"),
        ("diff_stored", "_payloads"),
        ("orphan", "_baselines"),
        ("markdown", "_summary"),
        ("default", "_suite"),
        ("SCA", "LES"),
        ("deterministic", "_rows"),
    ]
]


@pytest.mark.parametrize("name", RETIRED_BENCH_NAMES)
def test_retired_bench_name_stays_undefined(name):
    assert name not in bench.__all__
    for home in (bench, cases, gate, importlib.import_module("repro.bench.__main__")):
        assert not hasattr(home, name), f"{home.__name__}.{name}"
    word = re.compile(rf"\b{name}\b")
    assert [p.name for p in sorted(BENCH_SRC.glob("*.py")) if word.search(p.read_text())] == []


@pytest.mark.parametrize("module", ["suite", "diff"])
def test_the_retired_bench_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.bench." + module)


#: flags the bench CLI no longer takes: the clock's, the warm pool's, and
#: the ones only the ``run`` subcommand, the stored-payload diff, the
#: summary table, the worker count, the quick scale and the watchdog used
RETIRED_CLI_FLAGS = [
    "--time-tolerance",
    "--strict-time",
    "--persistent-pool",
    "--out",
    "--fresh",
    "--root",
    "--workers",
    "--scale",
    "--timeout-s",
    "--summary",
]


@pytest.mark.parametrize("command", ["diff", "update"])
@pytest.mark.parametrize("flag", RETIRED_CLI_FLAGS)
def test_retired_cli_flag_is_rejected(command, flag, capsys):
    with pytest.raises(SystemExit):
        bench_main([command, flag, "25"])
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_the_run_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit):
        bench_main(["run"])
    assert "invalid choice: 'run'" in capsys.readouterr().err


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

    # a sweep calls a task function on a chunk's plain fields in
    # fold_chunk and nowhere else; RunTask.execute, the one-task API,
    # calls it on its own attributes and the engine never calls that
    (calls,) = sites(r"task\(seed=seed, \*\*params\)")
    assert calls.startswith("sink.py:")
    fold_chunk = sources["sink.py"].split("\ndef fold_chunk(")[1].split("\nclass ")[0]
    assert "task(seed=seed, **params)" in fold_chunk
    assert sites(r"\.execute\(\)") == []
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
        ("DigestMerge", "Acc"),  # and the digest state it folded, below
        ("count", "_where"),
        ("values", "_of"),
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
    "TeeSink.note_quarantined": (lambda: TeeSink(ResultSink()), "note_quar" + "antined"),
    "TaskChunk.start": (lambda: TaskChunk(SWEEP, []), "start"),
    "SweepSpec.seed_for": (lambda: SWEEP, "seed" + "_for"),
    "QuantileDigest.state": (lambda: QuantileDigest(0.0, 1.0), "state"),
    "QuantileDigest.from_state": (lambda: QuantileDigest(0.0, 1.0), "from" + "_state"),
}


@pytest.mark.parametrize("build, attribute", RETIRED_ATTRIBUTES.values(), ids=RETIRED_ATTRIBUTES.keys())
def test_retired_engine_attribute_is_gone(build, attribute):
    assert not hasattr(build(), attribute)


#: what only the per-row sink protocol needed (split so a grep of the
#: engine for them stays empty)
RETIRED_SINK_NAMES = [
    head + tail
    for head, tail in [
        ("Noop", "Sink"),
        ("Memory", "Sink"),
        ("CellFold", "Sink"),
        ("LIVE_", "RESULTS"),
        ("encode", "_row"),
        ("fold", "_row"),
        ("fold", "_fields"),
        ("keeps", "_rows"),
        ("ab", "sorb"),
    ]
]

SINK_CLASSES = [ResultSink, JsonlSink, ReducerSink, TeeSink]


@pytest.mark.parametrize("name", RETIRED_SINK_NAMES)
def test_retired_sink_name_is_neither_exported_nor_defined(name):
    assert name not in engine.__all__
    for home in (engine, sink, aggregate, executor):
        assert not hasattr(home, name), f"{home.__name__}.{name}"
    for cls in (*SINK_CLASSES, RowReducer, QuantileDigest, ChunkPlan, FoldedChunk):
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    word = re.compile(rf"\b{name}\b")
    sources = [p for p in sorted(ENGINE_SRC.glob("*")) if p.suffix in (".py", ".md")]
    assert [p.name for p in sources if word.search(p.read_text())] == []


@pytest.mark.parametrize("cls", SINK_CLASSES, ids=lambda cls: cls.__name__)
def test_a_sink_takes_only_folded_chunks(cls):
    assert list(inspect.signature(cls.emit).parameters) == ["self", "chunk"]
    assert inspect.signature(cls.emit).parameters["chunk"].annotation in (FoldedChunk, "FoldedChunk")
    built = {JsonlSink: lambda: JsonlSink("rows.jsonl.gz"), ReducerSink: lambda: ReducerSink(REDUCER)}
    built[TeeSink] = lambda: TeeSink(ResultSink())
    plan = built.get(cls, cls)().chunk_plan()
    assert isinstance(plan, ChunkPlan)


#: the keywords each entry point keeps: two fewer on each sweep entry
#: than before the fault-tolerance arm went, and one fewer again since
#: ``reduce=`` (a second spelling of ``sink=ReducerSink(...)``) did; a
#: tournament passes only ``workers`` on to its sweep
SWEEP_SIGNATURES = {
    "run_sweep": (run_sweep, ["spec", "workers", "chunksize", "store", "persistent_pool", "sink"]),
    "SweepRunner.run_sweep": (SweepRunner.run_sweep, ["self", "spec", "chunksize", "store", "sink"]),
    "run_tournament": (run_tournament, ["trace", "configs", "workers"]),
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


def test_the_engine_keeps_no_per_cell_fold():
    """Each study reads its sweep's rows and groups them itself."""
    engine = importlib.import_module("repro.engine")
    name = "fold" + "_cells"
    assert not hasattr(engine, name)
    assert name not in engine.__all__
    assert not hasattr(engine.executor, name)


def test_the_workload_package_holds_no_experiment():
    """The worked examples and E21's scenario live in ``repro.experiments``."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.workload." + "scenarios")



#: what only a waiting lock request needed (split so a grep of the
#: source for them stays empty)
RETIRED_LOCK_NAMES = [
    head + tail
    for head, tail in [
        ("Lock", "Request"),
        ("on", "_grant"),
        ("waits", "_edges"),
        ("wait", "ing"),
        ("_wa", "ke"),
    ]
]
CONCURRENCY_SRC = Path(locks.__file__).parent


def test_the_deadlock_detector_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.concurrency." + "dead" + "lock")


@pytest.mark.parametrize("name", RETIRED_LOCK_NAMES)
def test_retired_lock_name_stays_undefined(name):
    for home in (locks, LockManager, importlib.import_module("repro.concurrency")):
        assert not hasattr(home, name), f"{home.__name__}.{name}"
    # defined, bound, passed or called ("no waiting" in prose is fine)
    use = re.compile(rf"\b(?:def|class) {name}\b|\.{name}\b|\b{name}\s*[=:(]|[\"']{name}[\"']")
    sources = sorted(CONCURRENCY_SRC.glob("*.py"))
    assert [p.name for p in sources if use.search(p.read_text())] == []


def test_the_lock_table_has_one_grant_path():
    assert "queue" not in locks._ItemLocks.__slots__
    assert LockManager.acquire is LockManager.try_acquire


@pytest.mark.parametrize("name", ["_txn" + "_counter", "reset_txn" + "_counter"])
def test_the_process_wide_txn_counter_is_gone(name):
    assert not hasattr(ids, name)


#: what only the second send path needed (split so a grep of the
#: network's source for them stays empty)
RETIRED_NET_NAMES = [
    head + tail
    for head, tail in [
        ("Message", "Stamp"),
        ("_send", "_slow"),
        ("_drop_reason", "_at_send"),
        ("_fast", "_path"),
        ("_refresh", "_fast_path"),
        ("_deliver", "_fast"),
        ("_lab", "els"),
    ]
]
NET_SRC = Path(network.__file__).parent


@pytest.mark.parametrize("name", RETIRED_NET_NAMES)
def test_retired_net_name_stays_undefined(name):
    built = Network(Scheduler(), Tracer(), RngRegistry(0))
    for home in (message, network, node, Network, Node, built):
        assert not hasattr(home, name), f"{home}.{name}"
    word = re.compile(rf"\b{name}\b")
    sources = sorted(NET_SRC.glob("*.py"))
    assert [p.name for p in sources if word.search(p.read_text())] == []


#: the per-protocol engine classes and the quorum engine's per-variant
#: hooks (split so a grep of the source for them stays empty)
RETIRED_ENGINE_CLASSES = [
    head + tail
    for head, tail in [
        ("Skeen", "Engine"),
        ("_Quorum", "CommitEngine"),
        ("QTP1", "Engine"),
        ("QTP2", "Engine"),
        ("QTPPrimary", "Engine"),
        ("ack", "_quorum"),
        ("_commit_quorum", "_reached"),
    ]
]
PROTOCOLS_SRC = Path(protocols.__file__).parent
PROTOCOL_MODULES = [
    "repro.protocols",
    "repro.protocols.base",
    "repro.protocols.twopc",
    "repro.protocols.threepc",
    "repro.protocols.skeen",
    "repro.protocols.qtp",
    "repro.protocols.qtp.commit",
    "repro.protocols.qtp.generalized",
    "repro.protocols.qtp.quorums",
    "repro.db.cluster",
]


@pytest.mark.parametrize("name", RETIRED_ENGINE_CLASSES)
def test_retired_engine_class_stays_undefined(name):
    from repro.protocols.base import CommitProtocolEngine
    from repro.protocols.qtp import QuorumCommitEngine

    for home in PROTOCOL_MODULES:
        module = importlib.import_module(home)
        assert not hasattr(module, name), f"{home}.{name}"
        assert name not in getattr(module, "__all__", ()), home
    for cls in (CommitProtocolEngine, QuorumCommitEngine):
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    word = re.compile(rf"\b{name}\b")
    sources = [*sorted(PROTOCOLS_SRC.rglob("*.py")), REPO / "src" / "repro" / "db" / "cluster.py"]
    assert [p.name for p in sources if word.search(p.read_text())] == []


def test_four_engine_classes_and_no_family_attribute():
    from repro.protocols.base import CommitProtocolEngine

    def subclasses(cls):
        return {cls}.union(*(subclasses(sub) for sub in cls.__subclasses__()))

    # importing the cluster imports every protocol
    importlib.import_module("repro.db.cluster")
    engines = subclasses(CommitProtocolEngine)
    names = {cls.__name__ for cls in engines}
    assert names == {"CommitProtocolEngine", "TwoPCEngine", "ThreePCEngine", "QuorumCommitEngine"}
    for cls in engines:
        for attribute in ("family", "handler_table", "mtypes"):
            assert attribute not in vars(cls), f"{cls.__name__}.{attribute}"



#: the termination round's per-direction twins (split so a grep of the
#: source for them stays empty)
RETIRED_ROUND_NAMES = [
    head + tail
    for head, tail in [
        ("commit_round", "_ok"),
        ("abort_round", "_ok"),
        ("term", "_mode"),
        ("_collect", "_term_ack"),
        ("_term_prepare", "_round"),
        ("_on_term_prepare", "_commit"),
        ("_on_term_prepare", "_abort"),
        ("_on_term_pc", "_ack"),
        ("_on_term_pa", "_ack"),
        ("_on_commit", "_cmd"),
        ("_on_abort", "_cmd"),
    ]
]


@pytest.mark.parametrize("name", RETIRED_ROUND_NAMES)
def test_retired_round_name_stays_undefined(name):
    from repro.protocols.base import CommitProtocolEngine, TerminationRule, TxnRecord
    from repro.protocols.qtp.quorums import QuorumTerminationRule

    for cls in (CommitProtocolEngine, TerminationRule, QuorumTerminationRule, TxnRecord):
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    word = re.compile(rf"\b{name}\b")
    sources = [*sorted(PROTOCOLS_SRC.rglob("*.py")), REPO / "src" / "repro" / "election" / "bully.py"]
    assert [p.name for p in sources if word.search(p.read_text())] == []


def test_each_termination_step_is_one_handler_for_both_directions():
    from repro.protocols.base import CommitProtocolEngine

    handlers = CommitProtocolEngine.HANDLERS
    for commit_kind, abort_kind in (("commit", "abort"), ("t.ptc", "t.pta"), ("t.pc-ack", "t.pa-ack")):
        assert handlers[commit_kind] == handlers[abort_kind]


def test_the_scipy_statistics_are_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.experiments." + "stats")
    assert not hasattr(MeanAcc(), "ci")
    assert "optional-dependencies" not in (REPO / "pyproject.toml").read_text()


#: error classes nothing raised (split so a grep for them stays empty)
RETIRED_ERRORS = ["Election" + "Error", "Transaction" + "Blocked"]


@pytest.mark.parametrize("name", RETIRED_ERRORS)
def test_retired_error_stays_undefined(name):
    for home in ("repro", "repro.common", "repro.common.errors"):
        module = importlib.import_module(home)
        assert not hasattr(module, name), f"{home}.{name}"
        assert name not in getattr(module, "__all__", ()), home


def test_the_prepare_round_takes_no_window_factor():
    from repro.protocols.base import CommitProtocolEngine

    with pytest.raises(TypeError, match="unexpected keyword argument"):
        CommitProtocolEngine._send_prepare(None, None, **_kw("window", "factor", 2.0))


#: module-level functions and classes no driver called
RETIRED_UNREACHED_NAMES = [
    ("repro.analysis.consistency", "first_decision_consistency"),
    ("repro.protocols.states", "is_committable"),
    ("repro.protocols.states", "is_terminal"),
    ("repro.protocols.states", "can_transition"),
    ("repro.common.errors", "NotSerializableError"),
    ("repro.engine.aggregate", "resolve_path"),
    ("repro.analysis.invariants", "check_invariants"),
]


@pytest.mark.parametrize("home, name", RETIRED_UNREACHED_NAMES, ids=[n for _, n in RETIRED_UNREACHED_NAMES])
def test_unreached_function_stays_undefined_and_unexported(home, name):
    module = importlib.import_module(home)
    assert not hasattr(module, name), f"{home}.{name}"
    for package in ("repro", home.rsplit(".", 1)[0]):
        exported = importlib.import_module(package)
        assert not hasattr(exported, name), f"{package}.{name}"
        assert name not in getattr(exported, "__all__", ()), package


#: methods and properties no driver called, by their class
RETIRED_UNREACHED_ATTRIBUTES = [
    ("repro.analysis.liveness", "TerminationTimeline", "decision_latency"),
    ("repro.concurrency.locks", "LockMode", "compatible_with"),
    ("repro.concurrency.locks", "LockMode", "__str__"),
    ("repro.concurrency.serializability", "ConflictGraph", "serial_order"),
    ("repro.db.cluster", "Cluster", "run_until"),
    ("repro.db.cluster", "Cluster", "outcomes"),
    ("repro.db.txn", "TxnHandle", "items"),
    ("repro.db.txn", "TxnHandle", "__str__"),
    ("repro.engine.spec", "SweepSpec", "tasks"),
    ("repro.engine.store", "ResultStore", "results"),
    ("repro.net.delays", "GroupedDelay", "group_of"),
    ("repro.net.message", "Message", "family"),
    ("repro.net.network", "Network", "node"),
    ("repro.net.network", "Network", "active_sites"),
    ("repro.net.partitions", "PartitionView", "__eq__"),
    ("repro.net.partitions", "PartitionView", "__hash__"),
    ("repro.net.node", "Node", "now"),
    ("repro.sim.failures", "FailurePlan", "describe"),
    ("repro.sim.failures", "FailurePlan", "__len__"),
    ("repro.sim.rng", "RngRegistry", "fork"),
    ("repro.sim.rng", "RngRegistry", "seed"),
    ("repro.sim.trace", "Tracer", "records"),
    ("repro.storage.store", "ReplicaStore", "snapshot"),
    ("repro.storage.store", "ReplicaStore", "__len__"),
    ("repro.storage.store", "ReplicaStore", "__contains__"),
    ("repro.storage.wal", "LogRecord", "__str__"),
    ("repro.traffic.open_loop", "OpenLoopResult", "shed_rate"),
    ("repro.workload.spec", "WorkloadSpec", "describe"),
]


@pytest.mark.parametrize(
    "home, cls, name",
    RETIRED_UNREACHED_ATTRIBUTES,
    ids=[f"{cls}.{name}" for _, cls, name in RETIRED_UNREACHED_ATTRIBUTES],
)
def test_unreached_method_stays_undefined(home, cls, name):
    owner = getattr(importlib.import_module(home), cls)
    if name.startswith("__"):  # a dunder is inherited from object or tuple
        assert name not in vars(owner), f"{cls}.{name}"
    else:
        assert not hasattr(owner, name), f"{cls}.{name}"


def test_the_replay_cli_takes_no_diff_subcommand(tmp_path, capsys):
    from repro.replay.__main__ import main as replay_main

    with pytest.raises(SystemExit) as exited:
        replay_main(["diff", str(tmp_path / "trace.jsonl.gz")])
    assert exited.value.code == 2
    assert "invalid choice: 'diff'" in capsys.readouterr().err
