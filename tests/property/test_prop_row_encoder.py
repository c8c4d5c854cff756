"""The one row encoder equals the reference row definition, byte for byte.

:func:`~repro.engine.aggregate.encode_fields` splices a row's digest input
and its artifact line from one canonical encode of the row's ``value``
and a formatted header.  The reference is
``canonical_line({"type": "row", **ResultStore.row_payload(r)})`` for
the line and ``row_digest(ResultStore.row_payload(r))`` for the digest;
over generated rows — escaped and unicode keys, nested containers and
dataclasses, signed zeros, non-finite floats,
big ints, empty params, header fields that JSON spells its own way —
and over real sweeps in both seeding modes, the two must agree.
"""

import enum
import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    ChunkPlan,
    ResultStore,
    RunResult,
    SweepSpec,
    canonical_line,
    fold_chunk,
    merge_digests,
    row_digest,
)
from repro.engine.aggregate import encode_fields, encode_params


@dataclass(frozen=True)
class Point:
    x: float
    tags: tuple


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class Tally(int):
    """An int subclass whose ``str`` is not its JSON spelling."""

    def __str__(self) -> str:
        return f"tally-{int(self)}"


keys = st.text(max_size=6)  # quotes, backslashes, control and non-ASCII characters
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
)
ints = st.one_of(st.integers(-(2**80), 2**80), st.sampled_from([2**70, -(2**70), 0]))
leaves = st.one_of(st.none(), st.booleans(), ints, floats, st.text(max_size=8))
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.frozensets(st.integers(-9, 9), max_size=4),
        st.sets(st.text(max_size=3), max_size=4),
        st.builds(Point, floats, st.tuples(inner)),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=12,
)
params = st.dictionaries(keys, st.one_of(values, st.builds(Point, floats, st.just(()))), max_size=4)
header_ints = st.one_of(ints, st.integers(0, 2**63 - 1))
# a header field that is not exactly an int must not go through "%d"
odd_headers = st.one_of(st.booleans(), st.sampled_from(list(Level)), st.builds(Tally, st.integers(-5, 5)))


def reference(result: RunResult) -> tuple[int, str]:
    row = ResultStore.row_payload(result)
    return row_digest(row), canonical_line({"type": "row", **row})


def encode(result: RunResult) -> tuple[int, str]:
    """The row encoder on a result's fields, as a sweep calls it."""
    return encode_fields(result.index, encode_params(result.params), result.run, result.seed, result.value)


def assert_encodes_like_reference(result: RunResult) -> None:
    assert encode(result) == reference(result)


class TestEncodeFields:
    @given(header_ints, params, header_ints, header_ints, values)
    @settings(max_examples=300, deadline=None)
    def test_spliced_row_is_the_reference_row(self, index, cell, run, seed, value):
        assert_encodes_like_reference(RunResult(index, cell, run, seed, value))

    @given(
        st.one_of(header_ints, odd_headers),
        params,
        st.one_of(header_ints, odd_headers),
        st.one_of(header_ints, odd_headers),
        values,
    )
    @settings(max_examples=200, deadline=None)
    def test_odd_header_fields_take_the_generic_encode(self, index, cell, run, seed, value):
        assert_encodes_like_reference(RunResult(index, cell, run, seed, value))

    def test_bool_and_int_subclass_headers_are_spelt_as_json_spells_them(self):
        result = RunResult(True, {}, Level.HIGH, Tally(3), None)
        _digest, line = encode(result)
        assert line == '{"index":true,"params":{},"run":7,"seed":3,"type":"row","value":null}'
        assert line == reference(result)[1]

    def test_empty_params_and_extreme_values(self):
        value = {"z": -0.0, "n": float("nan"), "i": float("inf"), "big": 2**70, "é\"\\": [(1,)]}
        result = RunResult(0, {}, 0, 2**62, value)
        assert_encodes_like_reference(result)
        assert json.loads(encode(result)[1])["value"]["big"] == 2**70

    @given(params)
    @settings(max_examples=100, deadline=None)
    def test_params_encode_as_in_the_row(self, cell):
        row = ResultStore.row_payload(RunResult(0, cell, 0, 0, None))
        assert encode_params(cell) == canonical_line(row["params"])


def echo(seed: int, **cell) -> dict:
    """A task whose value carries its cell back."""
    return {"seed": seed, "cell": cell, "half": seed / 2}


class TestSweepsEncodeLikeReference:
    @given(
        grid=st.dictionaries(
            st.sampled_from(["protocol", "ü", 'q"uote', "w"]),
            st.lists(
                st.one_of(st.integers(-3, 3), st.text(max_size=3), st.none()),
                min_size=1,
                max_size=3,
                unique=True,
            ),
            max_size=2,
        ),
        runs=st.integers(1, 5),
        chunk=st.integers(1, 7),
        seeding=st.sampled_from(["derived", "offset"]),
        with_fixed=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunk_lines_and_digest_are_the_reference(self, grid, runs, chunk, seeding, with_fixed):
        fixed = {"payload": [1, 2, 3]} if with_fixed else {}
        spec = SweepSpec("encode", echo, grid=grid, runs=runs, base_seed=5, seeding=seeding, fixed=fixed)
        lines, digest = [], 0
        for task in spec.iter_tasks():
            expected, line = reference(task.execute())
            lines.append(line)
            digest = merge_digests(digest, expected)
        folded = [fold_chunk(tasks, ChunkPlan(digest=True, lines=True)) for tasks in spec.iter_chunks(chunk)]
        assert all(piece.error is None for piece in folded)
        assert b"".join(piece.lines for piece in folded) == "".join(line + "\n" for line in lines).encode()
        total = 0
        for piece in folded:
            total = merge_digests(total, piece.digest)
        assert total == digest


@pytest.mark.parametrize("bad", [{1: "a", "1": "b"}, {True: 0, "True": 1}])
def test_a_row_whose_keys_collide_ends_its_chunk(bad):
    spec = SweepSpec("collide", echo, grid={}, runs=3, seeding="offset", fixed={"m": bad})
    (chunk,) = spec.iter_chunks(3)
    folded = fold_chunk(chunk, ChunkPlan(digest=True, lines=True))
    assert folded.rows == 0 and isinstance(folded.error, TypeError)
