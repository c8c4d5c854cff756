"""Guard: the core tunes no collector and imports nothing third-party.

A finished cluster is reclaimed by reference count (see
``test_cluster_gc_budget.py``), so nothing under ``src/`` may reach for
the cyclic collector's knobs to hide one that is not; and the graph
questions are answered in ``repro.concurrency.digraph``, so ``import
repro`` pulls in no networkx (28 000 collector-tracked objects and half
the import time when it did), nor numpy / scipy (the package has no
optional dependency).  Neither does the sweep engine's warm pool: its
warm-up imports the experiment drivers, and with numpy missing that
import used to fail inside the pool-creation guard and turn every
persistent sweep serial without a word.
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


#: what the workload package may not import: it generates workloads and
#: fault schedules, and every experiment that runs one lives above it
WORKLOAD_MAY_NOT_IMPORT = ("repro.db", "repro.traffic", "repro.experiments", "repro.replay", "repro.bench")


def test_workload_package_imports_nothing_above_it():
    """``repro.workload`` is a spec and its generators; the runnable
    experiments live in ``repro.experiments``.  So ``run_scenario`` can
    import the catalog memo at module level with no cycle to break."""
    reached = set()
    for path in sorted((SRC / "repro" / "workload").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            reached |= {
                (path.name, name)
                for name in names
                if any(name == layer or name.startswith(layer + ".") for layer in WORKLOAD_MAY_NOT_IMPORT)
            }
    assert reached == set()


POOL_PROBE_MODULE = """
import sys

def cell(seed):
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)
"""

POOL_PROBE = """
import sys
import pool_probe_cells
from repro.engine import SweepSpec, run_sweep, shared_runner

spec = SweepSpec("probe", pool_probe_cells.cell, grid={}, runs=8)
outcome = run_sweep(spec, workers=2, persistent_pool=True)
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


def _calls(node, callee, function=None):
    """The enclosing function of every call of the name ``callee``
    (``callee(...)`` or ``module.callee(...)``) under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    elif isinstance(node, ast.Call) and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
        yield function
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, callee, function)


def _callers(callee):
    return sorted((name, function) for name, tree in _trees().items() for function in _calls(tree, callee))


def test_messages_are_built_only_where_they_are_sent():
    """The library has one message type and builds it in one place:
    ``Network.fanout``, one per destination (``Network.send`` and
    ``Node.send`` are fan-outs to one destination).  Nothing else under
    ``src/repro/`` constructs one."""
    assert _callers("Message") == [("net/network.py", "fanout")]


def test_every_run_is_built_and_judged_on_one_path():
    """``run_scenario`` is the one place under ``src/repro/`` that builds
    a ``Cluster``, and the oracle's one caller is the tally it returns
    (``TrafficEngine.tally``): a run no scenario declares would be a run
    nobody judges.  Docstring examples are text, not calls, and do not
    count."""
    assert _callers("Cluster") == [("traffic/scenario.py", "run_scenario")]
    assert _callers("judge") == [("traffic/engine.py", "tally")]


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
    assert {"_append", "_by_cat", "_by_cat_txn", "_times", "_records", "_rounds", "_tracer"} <= private
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
