"""Non-finite metric values are refused before anything is folded.

``MeanAcc`` and ``QuantileDigest`` check a value before they mutate any
state and raise a ``ValueError`` naming the accumulator and the value —
not a bare ``cannot convert NaN to integer ratio``, an ``OverflowError``,
or a half-folded digest.  A sweep whose row carries such a value ends
its chunk with an error naming the metric and the task index, and the
rows before it stay folded exactly.
"""

import math
import pickle
from itertools import islice

import pytest

from repro.engine import (
    ChunkPlan,
    CountAcc,
    MeanAcc,
    QuantileDigest,
    ReducerSink,
    ResultSink,
    ResultStore,
    RowReducer,
    SweepSpec,
    fold_chunk,
    row_digest,
    run_sweep,
)

NON_FINITE = [math.nan, math.inf, -math.inf]


def snapshot(acc) -> bytes:
    return pickle.dumps(acc.__dict__)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("make", [MeanAcc, lambda: QuantileDigest(0.0, 1.0, 8)], ids=["mean", "digest"])
def test_a_non_finite_value_is_refused_and_leaves_the_accumulator_as_it_was(make, value):
    acc = make()
    acc.add(0.25)
    before, summary = snapshot(acc), acc.summary()
    with pytest.raises(ValueError) as err:
        acc.add(value)
    assert type(acc).__name__ in str(err.value) and repr(value) in str(err.value)
    assert snapshot(acc) == before
    assert acc.summary() == summary and acc.n == 1


@pytest.mark.parametrize("value", [1e308, -1e308, 2.0**1000])
def test_a_huge_finite_value_clamps_into_an_edge_bin(value):
    digest = QuantileDigest(0.0, 1.0, 8)
    digest.add(value)
    assert digest.n == 1 and sum(digest.counts) == 1
    assert digest.counts[0 if value < 0 else 7] == 1
    assert digest.min == digest.max == value


def cell(seed: int, bad_at: int, bad: float) -> dict:
    """Offset seeding on an empty grid: the seed is the task index."""
    return {"x": bad if seed == bad_at else seed / 10, "odd": seed % 2}


def _reducer() -> RowReducer:
    return RowReducer(
        (("x", "x", MeanAcc()), ("x_p", "x", QuantileDigest(0.0, 2.0)), ("odd", "odd", CountAcc()))
    )


def _spec(bad_at: int, bad: float = math.nan, runs: int = 12) -> SweepSpec:
    return SweepSpec(
        "non-finite", cell, grid={}, runs=runs, seeding="offset", fixed={"bad_at": bad_at, "bad": bad}
    )


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_a_chunk_that_meets_one_ends_with_the_metric_and_the_task_index(bad):
    plan = ChunkPlan(digest=True, lines=True, reducers={0: _reducer()})
    folded = fold_chunk(next(_spec(3, bad).iter_chunks(6)), plan)
    assert folded.rows == 3 and folded.lines.count(b"\n") == 3
    assert type(folded.error) is ValueError
    assert str(folded.error).startswith("metric 'x' of task 3: MeanAcc folds finite values")
    assert isinstance(folded.error.__cause__, ValueError)
    # the partial holds exactly the rows before the failing one
    reference = _reducer()
    for task in islice(_spec(3, bad).iter_tasks(), 3):
        result = task.execute()
        reference.fold(result.index, row_digest(ResultStore.row_payload(result)), result.value)
    assert folded.partials[0].summary() == reference.summary()
    assert folded.digest == reference.digest


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_that_meets_one_raises_naming_the_metric_and_the_task(workers):
    with pytest.raises(ValueError, match=r"metric 'x' of task 7: MeanAcc folds finite values, got nan"):
        run_sweep(_spec(7), workers=workers, chunksize=3, sink=ReducerSink(_reducer()))


def test_a_sink_that_folds_no_metric_takes_the_row():
    outcome = run_sweep(_spec(7), workers=1, sink=ResultSink())
    assert outcome.aggregate["rows"] == 12
