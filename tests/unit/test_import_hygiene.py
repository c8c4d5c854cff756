"""Guard: the core tunes no collector and imports nothing third-party.

A finished cluster is reclaimed by reference count (see
``test_cluster_gc_budget.py``), so nothing under ``src/`` may reach for
the cyclic collector's knobs to hide one that is not; and the graph
questions are answered in ``repro.concurrency.digraph``, so ``import
repro`` pulls in no networkx (28 000 collector-tracked objects and half
the import time when it did), nor the ``stats`` extra's numpy / scipy.
Neither does the sweep engine's warm pool: its warm-up imports the
experiment drivers, and with the extras missing that import used to
fail inside the pool-creation guard and turn every persistent sweep
serial without a word.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
BANNED = {
    # docs included: `git grep` for these under src/ must stay empty
    "collector-knobs": re.compile(r"\bgc\.(?:disable|freeze|set_threshold|collect)\b"),
    "graph-library": re.compile(r"^\s*(?:import|from)\s+networkx\b", re.MULTILINE),
}


@pytest.mark.parametrize("pattern", BANNED.values(), ids=BANNED.keys())
def test_src_never_spells_it(pattern):
    files = sorted(p for p in SRC.rglob("*") if p.suffix in {".py", ".md"})
    assert len(files) > 50  # the tree is where this test thinks it is
    assert [str(p.relative_to(SRC)) for p in files if pattern.search(p.read_text())] == []


def test_import_repro_loads_nothing_third_party():
    probe = (
        "import sys, repro, repro.engine, repro.traffic, repro.workload.spec\n"
        "print(sorted(m for m in ('networkx', 'numpy', 'scipy') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


BENCH_WITHOUT_EXTRAS = """
import sys

class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy", "networkx"):
            raise ModuleNotFoundError(f"No module named {name!r} (blocked by the test)")

sys.meta_path.insert(0, Blocked())
from repro.bench.__main__ import main

sys.exit(main(["diff", "--check", "--case", "commit_mix", "--case", "wan_storm"]))
"""


def test_bench_gate_runs_on_the_standard_library_alone():
    """``pyproject.toml`` declares the bench standard-library only: the
    gate must run two real cases against their committed baselines with
    every extra unimportable."""
    done = subprocess.run(
        [sys.executable, "-c", BENCH_WITHOUT_EXTRAS],
        env={"PYTHONPATH": str(SRC)},
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "bench diff: 2 case(s) clean" in done.stdout


def test_scenario_runner_sits_below_the_driver_layers():
    """``run_scenario`` is what the drivers, the recorder, the replayer
    and the bench trials stand on; it may import none of them."""
    probe = (
        "import sys, repro.traffic.scenario\n"
        "layers = ('repro.experiments', 'repro.replay', 'repro.bench')\n"
        "print(sorted(m for m in sys.modules if m.startswith(layers)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "first", ["repro.workload", "repro.workload.scenarios", "repro.traffic", "repro.traffic.scenario"]
)
def test_workload_and_scenario_modules_import_in_either_order(first):
    """``repro.workload``'s package init imports the worked examples,
    which import the scenario module — which therefore must not import
    ``repro.workload`` back at module level.  Whichever of them a fresh
    interpreter meets first, the import completes."""
    probe = (
        f"import {first}\n"
        "from repro.workload import run_example1_scenario\n"
        "from repro.workload.scenarios import wan_storm_scenario\n"
        "from repro.traffic import Scenario, run_scenario"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


POOL_PROBE_MODULE = """
import sys

def cell(seed):
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)
"""

POOL_PROBE = """
import sys
import pool_probe_cells
from repro.engine import MemorySink, SweepSpec, run_sweep, shared_runner

spec = SweepSpec("probe", pool_probe_cells.cell, grid={}, runs=8)
outcome = run_sweep(spec, workers=2, persistent_pool=True, sink=MemorySink())
runner = shared_runner(2)
print(runner.pools_created, runner._pool_failed)
print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
print(sorted({name for value in outcome.values() for name in value}))
"""


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["with-site", "no-site-packages"])
def test_persistent_sweep_pools_and_loads_no_numpy(tmp_path, flags):
    """``-S`` is the environment ``dependencies = []`` promises: no
    site-packages, so no numpy / scipy to import.  The sweep must pool
    there too, and where the extras exist neither the parent nor a
    worker may have loaded them."""
    (tmp_path / "pool_probe_cells.py").write_text(POOL_PROBE_MODULE)
    done = subprocess.run(
        [sys.executable, *flags, "-c", POOL_PROBE],
        env={"PYTHONPATH": f"{SRC}:{tmp_path}"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    pooled, parent_modules, worker_modules = done.stdout.strip().splitlines()
    assert pooled == "1 False"
    assert parent_modules == "[]"
    assert worker_modules == "[]"


def test_broken_warm_up_import_raises_instead_of_going_serial(monkeypatch):
    """Only pool *creation* may degrade a runner to serial."""
    from repro.engine import SweepRunner, SweepSpec, executor

    def broken() -> None:
        raise ImportError("No module named 'a_dependency_of_the_drivers'")

    monkeypatch.setattr(executor, "_warm_worker", broken)
    runner = SweepRunner(workers=2)
    with pytest.raises(ImportError, match="a_dependency_of_the_drivers"):
        runner.run_sweep(SweepSpec("broken", abs, grid={}, runs=4))
    assert runner.pools_created == 0 and not runner._pool_failed


# ----------------------------------------------------------------------
# the per-event path: one clock writer, one frozen message, no reaching in
# ----------------------------------------------------------------------

PACKAGE = SRC / "repro"


def _trees() -> dict[str, ast.Module]:
    return {
        str(path.relative_to(PACKAGE)): ast.parse(path.read_text())
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def test_only_the_scheduler_assigns_the_clock():
    """``Scheduler.now`` is a plain attribute so that a read costs an
    attribute load; what a property used to guarantee — nobody else
    moves the clock — is held here instead."""
    writers = set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            flat = [t for target in targets for t in ast.walk(target)]
            if any(isinstance(t, ast.Attribute) and t.attr == "now" for t in flat):
                writers.add(name)
    assert writers == {"sim/scheduler.py"}


def _message_calls(node, function=None, guard=None):
    """``(function, innermost enclosing if-test)`` of every
    ``Message(...)`` call under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    elif isinstance(node, ast.If):
        guard = ast.unparse(node.test)
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Message":
        yield function, guard
    for child in ast.iter_child_nodes(node):
        yield from _message_calls(child, function, guard)


def test_the_one_frozen_message_is_built_on_the_filtered_path():
    """Everything the library sends is a stamp; ``Message`` — the public
    value type — is constructed under ``src/repro/`` only where filters
    or lossy links force the per-message path of ``Network.fanout``."""
    built = [
        (name, *call) for name, tree in _trees().items() for call in _message_calls(tree)
    ]
    assert built == [("net/network.py", "fanout", "not self._fast_path")]


def _private_names(tree: ast.Module, classes: set[str]) -> set[str]:
    """Underscore names the given classes define: methods, class
    attributes and everything assigned through ``self``."""
    names = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name not in classes:
            continue
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.Name)):
                names.add(node.name if isinstance(node, ast.FunctionDef) else node.id)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
                names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_traffic_and_db_reach_into_no_tracer_and_no_engine():
    """The decision cursor, the verdict reads and the kick filter go
    through public reads (``Tracer.since``, ``Tracer.entries``,
    ``CommitProtocolEngine.records``); nothing in the layers above reads
    the tracer's columns or indexes, or an engine's tables."""
    trees = _trees()
    private = _private_names(trees["sim/trace.py"], {"Tracer"})
    private |= _private_names(trees["protocols/base.py"], {"CommitProtocolEngine"})
    private |= _private_names(trees["election/bully.py"], {"ElectionMixin"})
    assert {"_append", "_by_cat", "_by_key", "_times", "_records", "_rounds", "_tracer"} <= private
    reached = [
        (name, node.lineno, node.attr)
        for name, tree in trees.items()
        if name.startswith(("traffic/", "db/"))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in private
        and getattr(node.value, "id", None) != "self"
    ]
    assert reached == []
