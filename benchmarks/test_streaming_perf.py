"""Streaming sweep backend performance: memory stays flat in cell count.

``tests/property/test_prop_engine.py`` pins that the streaming
pipeline folds the rows the classic path keeps (its throughput is
``benchmarks/e2e``'s ``sweep_stream``); here the assertions pin the
*shape* of the win with noise-proof bounds:
the classic keep-everything path allocates O(cells) — quadrupling the
sweep roughly quadruples its peak heap — while the streaming paths
(``ReducerSink`` partial folds, ``JsonlSink``) hold a bounded window
of rows whatever the sweep size.
"""

import random
import tracemalloc

import pytest

from repro.engine import JsonlSink, MeanAcc, ReducerSink, RowReducer, SweepSpec, run_sweep


def _probe(seed: int) -> dict:
    rng = random.Random(seed)
    return {"x": rng.random(), "y": rng.randrange(100)}


def _reducer() -> RowReducer:
    return RowReducer((("x", "x", MeanAcc()),))


def _spec(n_cells: int) -> SweepSpec:
    return SweepSpec("mem-probe", _probe, grid={}, runs=n_cells, seeding="offset")


_WARM: set[str] = set()


def _run(n_cells: int, backend: str, tmp_path=None) -> None:
    if backend == "memory":
        outcome = run_sweep(_spec(n_cells))
        assert len(outcome.results) == n_cells
    elif backend == "reduce":
        outcome = run_sweep(_spec(n_cells), sink=ReducerSink(_reducer()))
        assert outcome.aggregate["rows"] == n_cells
    else:  # jsonl
        sink = JsonlSink(tmp_path / f"{n_cells}.jsonl.gz")
        run_sweep(_spec(n_cells), sink=sink)
        assert sink.rows_emitted == n_cells


def _peak_bytes(n_cells: int, backend: str, tmp_path=None) -> int:
    """Peak traced heap of one sweep (the allocation profile, unlike
    wall time, is stable enough for a single round).

    Each backend is warmed once first — its lazy imports and caches
    otherwise land in whichever measurement happens to run first and
    swamp the streaming paths' tiny flat profile.
    """
    if backend not in _WARM:
        _run(50, backend, tmp_path)
        _WARM.add(backend)
    tracemalloc.start()
    _run(n_cells, backend, tmp_path)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


_MEMORY_RATIO: dict[int, float] = {}


def _memory_ratio(n: int) -> float:
    """The keep-everything path's 4x-sweep heap growth (computed once)."""
    if n not in _MEMORY_RATIO:
        _MEMORY_RATIO[n] = _peak_bytes(4 * n, "memory") / _peak_bytes(n, "memory")
    return _MEMORY_RATIO[n]


@pytest.mark.perf
def test_reduce_backend_peak_memory_flat_in_cell_count():
    n = 2_500
    memory_ratio = _memory_ratio(n)
    reduce_ratio = _peak_bytes(4 * n, "reduce") / _peak_bytes(n, "reduce")
    # the classic path grows with the row list (4x cells => roughly 4x
    # heap); the reducer path folds rows as they arrive and must not
    assert reduce_ratio < memory_ratio, (
        f"ReducerSink scales no better than keep-everything: "
        f"reduce {reduce_ratio:.2f}x vs memory {memory_ratio:.2f}x over a 4x sweep"
    )
    assert reduce_ratio < 2.0, (
        f"ReducerSink peak heap grew {reduce_ratio:.2f}x over a 4x sweep — "
        "the streaming backend is accumulating rows"
    )


@pytest.mark.perf
def test_jsonl_sink_peak_memory_flat_in_cell_count(tmp_path):
    n = 2_500
    memory_ratio = _memory_ratio(n)
    jsonl_ratio = _peak_bytes(4 * n, "jsonl", tmp_path) / _peak_bytes(n, "jsonl", tmp_path)
    assert jsonl_ratio < memory_ratio, (
        f"JsonlSink scales no better than keep-everything: "
        f"jsonl {jsonl_ratio:.2f}x vs memory {memory_ratio:.2f}x over a 4x sweep"
    )
    assert jsonl_ratio < 2.0, (
        f"JsonlSink peak heap grew {jsonl_ratio:.2f}x over a 4x sweep — "
        "rows are accumulating instead of streaming to disk"
    )
