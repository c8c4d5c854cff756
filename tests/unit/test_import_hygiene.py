"""Guard: the core tunes no collector and imports nothing third-party.

A finished cluster is reclaimed by reference count (see
``test_cluster_gc_budget.py``), so nothing under ``src/`` may reach for
the cyclic collector's knobs to hide one that is not; and the graph
questions are answered in ``repro.concurrency.digraph``, so ``import
repro`` pulls in no networkx (28 000 collector-tracked objects and half
the import time when it did), nor the ``stats`` extra's numpy / scipy.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
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
