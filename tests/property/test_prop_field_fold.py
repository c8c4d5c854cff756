"""The field fold equals the per-row reference, piece for piece.

:func:`~repro.engine.sink.fold_chunk` runs a chunk's tasks from their
plain ``(index, params, run, seed)`` fields and folds each row from
those fields and its value: no ``RunTask``, and a ``RunResult`` only
when the plan asks for live results.  The reference is the per-row
path it replaced — iterate the chunk's ``RunTask`` objects, ``execute``
each, encode the ``RunResult``'s fields (``encode_fields``) and
``RowReducer.fold`` them.  Over random grids, ``fixed`` values, both
seedings, chunk sizes 1–7, every plan shape, a task that raises
mid-chunk and a pickled chunk, the two must give the same row count,
digest, lines, partial summaries, live results and error.
"""

import pickle
import random
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.engine import (
    ChunkPlan,
    CountAcc,
    MeanAcc,
    QuantileDigest,
    RowReducer,
    SweepSpec,
    fold_chunk,
    merge_digests,
)
from repro.engine.aggregate import encode_fields, encode_params


@dataclass(frozen=True)
class Point:
    x: float
    tags: tuple


class Refused(Exception):
    """What a task raises at its ``fail_seed``."""


def trial(seed: int, fail_seed: int = -1, **params) -> dict:
    """A row with a flat part, a nested part and a dataclass."""
    if seed == fail_seed:
        raise Refused(f"seed {seed}")
    rng = random.Random(seed)
    x = rng.random()
    return {
        "x": x,
        "kind": rng.choice(["a", "b", 3, None, True]),
        "nested": {"ys": [rng.randint(-5, 5), x / 3], "cell": len(params)},
        "point": Point(rng.random(), (seed % 7, "t")),
    }


def reducer() -> RowReducer:
    return RowReducer(
        (
            ("x", "x", MeanAcc()),
            ("x_q", "x", QuantileDigest(0.0, 1.0, 16)),
            ("kind", "kind", CountAcc()),
            ("y0", "nested.ys.0", MeanAcc()),
            ("cell", "nested.cell", CountAcc()),
            ("px", "point.x", MeanAcc()),
        )
    )


#: every plan shape a sink tree can ask for
PLANS = {
    "digest": lambda: ChunkPlan(digest=True),
    "lines": lambda: ChunkPlan(lines=True),
    "reducers": lambda: ChunkPlan(reducers={1: reducer(), 2: reducer()}),
    "results": lambda: ChunkPlan(results=True),
    "everything": lambda: ChunkPlan(digest=True, lines=True, reducers={1: reducer()}, results=True),
}


def reference(chunk, plan: ChunkPlan) -> dict:
    """The per-row path: a ``RunTask`` per row, executed, encoded from
    its ``RunResult`` and folded as one."""
    partials = {key: template.fresh() for key, template in plan.reducers.items()}
    encode = plan.digest or plan.lines or bool(partials)
    rows, digest, lines, results, error = 0, 0, [], [], None
    for task in chunk:
        try:
            result = task.execute()
            if encode:
                params = encode_params(result.params)
                row_digest, line = encode_fields(result.index, params, result.run, result.seed, result.value)
                for partial in partials.values():
                    partial.fold(result.index, row_digest, result.value)
                digest = merge_digests(digest, row_digest)
                lines.append(line)
        except Exception as exc:
            error = exc
            break
        rows += 1
        results.append(result)
    return {
        "rows": rows,
        "digest": digest,
        "lines": "".join(line + "\n" for line in lines).encode() if plan.lines else b"",
        "partials": {key: partial.summary() for key, partial in partials.items()},
        "results": results if plan.results else [],
        "error": None if error is None else (type(error), str(error)),
    }


def folded(chunk, plan: ChunkPlan) -> dict:
    piece = fold_chunk(chunk, plan)
    return {
        "rows": piece.rows,
        "digest": piece.digest,
        "lines": piece.lines,
        "partials": {key: partial.summary() for key, partial in piece.partials.items()},
        "results": piece.results,
        "error": None if piece.error is None else (type(piece.error), str(piece.error)),
    }


grid_values = st.lists(
    st.one_of(st.integers(-3, 3), st.sampled_from(["2pc", "qtp1", None, True, 0.5])),
    min_size=1,
    max_size=3,
    unique_by=repr,
)
grids = st.dictionaries(st.sampled_from(["protocol", "waves", "loss"]), grid_values, max_size=3)


@given(
    grid=grids,
    runs=st.integers(1, 5),
    chunk=st.integers(1, 7),
    seeding=st.sampled_from(["derived", "offset"]),
    fixed=st.sampled_from([{}, {"payload": [1, 2]}, {"label": "x", "level": 2}]),
    plan=st.sampled_from(sorted(PLANS)),
    fail=st.one_of(st.none(), st.integers(0, 200)),
    pickled=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_the_field_fold_is_the_per_row_reference(grid, runs, chunk, seeding, fixed, plan, fail, pickled):
    shape = {"grid": grid, "runs": runs, "base_seed": 3, "seeding": seeding}
    spec = SweepSpec("fields", trial, fixed=fixed, **shape)
    if fail is not None:  # the task at this index raises (fixed values do not move seeds)
        seed = [task.seed for task in spec.iter_tasks()][fail % spec.n_tasks]
        spec = SweepSpec("fields", trial, fixed={**fixed, "fail_seed": seed}, **shape)
    rows = 0
    for piece in spec.iter_chunks(chunk):
        expected = reference(piece, PLANS[plan]())
        if pickled:  # what a pool worker receives
            piece = pickle.loads(pickle.dumps(piece))
        got = folded(piece, pickle.loads(pickle.dumps(PLANS[plan]())) if pickled else PLANS[plan]())
        assert got == expected
        rows += got["rows"]
        if got["error"] is not None:
            assert got["error"][0] is Refused
            break
    else:
        assert rows == spec.n_tasks
