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
rode) do not come back under ``src/repro/engine/``.
"""

import re
from pathlib import Path

import pytest

from repro.bench import BenchCase, BenchSuite, cases, compare_case
from repro.bench.cases import default_suite
from repro.concurrency.locks import LockManager
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer
from repro.storage.recovery import replay_data
from repro.storage.store import ReplicaStore
from repro.storage.wal import WriteAheadLog

BENCH_SRC = Path(cases.__file__).parent
TOY_SPEC = default_suite("quick").case("scheduler_drain").spec


def _kw(head: str, tail: str, value: bool) -> dict[str, bool]:
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
    "catalog_memo_trial-memo": lambda: cases.catalog_memo_trial(0, memo=True),
    "suite_warm_pool_trial-warm": lambda: cases.suite_warm_pool_trial(0, warm=True),
    "recovery_replay_trial-replays": lambda: cases.recovery_replay_trial(0, replays=1),
    "wal_append_trial-replays": lambda: cases.wal_append_trial(0, replays=1),
}


@pytest.mark.parametrize("call", RETIRED_KEYWORDS.values(), ids=RETIRED_KEYWORDS.keys())
def test_retired_keyword_is_rejected(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


def test_no_bench_case_selects_a_retired_arm():
    retired_axes = {"tracked", "cached", "grouped", "columnar", "intern", "flyweight", "indexed"}
    retired_axes |= {"memo", "warm"}
    for case in default_suite():
        assert not retired_axes & set(case.spec.grid), case.name


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
        ]
    )
)


def test_the_engine_has_one_sweep_loop_on_one_pool():
    files = sorted(ENGINE_SRC.glob("*"))
    sources = {p.name: p.read_text() for p in files if p.suffix in (".py", ".md")}
    assert {"executor.py", "sink.py", "resilience.py", "README.md"} <= set(sources)
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
