"""Engine determinism properties: a sweep's output is a function of its
spec, never of its execution layout.

The multiprocess cases execute the *same* spec serially and under
several pool widths and require byte-identical artifacts — the property
the acceptance bar for the parallel engine rests on.  The hypothesis
cases pin down the seed derivation itself: total, deterministic,
injective across cells and runs, and independent of grid ordering —
and that a sweep's chunks, described as cell × run ranges and expanded
where they run, are the per-task expansion with every seed equal to
:func:`derive_seed`'s, whatever the grid values, seeding and chunk size.

The streaming cases extend the fixed point across *backends*: the
classic keep-everything path, every sink, and the per-chunk reducer
path must agree on rows, digests, and aggregates at every worker
count — and the exact accumulators must satisfy the merge law that
makes that possible (any partial grouping folds to the same summary).

The chunk cases pin what crosses the pool boundary: whatever the worker
count, the chunk size and the sink tree, a sweep folded chunk by chunk
equals a per-row ``open``/``emit``/``close`` drive of the same sinks —
each row its own chunk, built from the reference row definitions —
artifact bytes included, and a raising task leaves exactly the rows
before it.
"""

import gzip
import json
import pickle
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    CountAcc,
    FoldedChunk,
    JsonlSink,
    MeanAcc,
    QuantileDigest,
    ReducerSink,
    ResultSink,
    ResultStore,
    RowReducer,
    SweepSpec,
    TeeSink,
    canonical_line,
    derive_seed,
    load_stream,
    merge_digests,
    row_digest,
    run_sweep,
    shutdown_shared_runners,
)
from repro.engine.spec import cell_seeder
from repro.experiments.sweeps import availability_run

param_values = st.one_of(st.integers(-5, 5), st.sampled_from(["a", "b", "qtp1"]))
param_dicts = st.dictionaries(
    st.sampled_from(["protocol", "waves", "n", "mode"]), param_values, max_size=3
)


def pure_task(seed: int, scale: int) -> list[float]:
    """A cheap but seed-sensitive stand-in for a simulation run."""
    rng = random.Random(seed)
    return [rng.random() * scale for _ in range(3)]


class TestSeedDerivation:
    @given(st.integers(0, 2**31), param_dicts, st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_deterministic(self, base, params, run):
        assert derive_seed(base, "s", params, run) == derive_seed(base, "s", params, run)

    @given(st.integers(0, 2**31), param_dicts, st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_key_order_irrelevant(self, base, params, run):
        reversed_params = dict(reversed(list(params.items())))
        assert derive_seed(base, "s", params, run) == derive_seed(
            base, "s", reversed_params, run
        )

    @given(st.integers(0, 2**20), st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_runs_get_distinct_seeds(self, base, run_a, run_b):
        if run_a != run_b:
            assert derive_seed(base, "s", {}, run_a) != derive_seed(base, "s", {}, run_b)

    def test_cells_get_distinct_seeds(self):
        seeds = {
            derive_seed(0, "s", {"protocol": p, "waves": w}, 0)
            for p in ("2pc", "3pc", "skq", "qtp1", "qtp2")
            for w in range(20)
        }
        assert len(seeds) == 100


class TestSpecExpansion:
    @given(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, unique=True),
        st.integers(1, 5),
        st.integers(0, 100),
        st.sampled_from(["derived", "offset"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_tasks_cover_grid_exactly_once(self, values, runs, base, seeding):
        spec = SweepSpec(
            "p",
            pure_task,
            grid={"scale": list(range(len(values)))},
            runs=runs,
            base_seed=base,
            seeding=seeding,
        )
        tasks = spec.tasks()
        assert len(tasks) == spec.n_tasks == len(values) * runs
        assert [t.index for t in tasks] == list(range(len(tasks)))
        pairs = {(t.params["scale"], t.run) for t in tasks}
        assert len(pairs) == len(tasks)

    def test_offset_seeding_replays_scenarios_across_cells(self):
        spec = SweepSpec(
            "p", pure_task, grid={"scale": [1, 2, 3]}, runs=4, base_seed=9, seeding="offset"
        )
        by_cell = {}
        for t in spec.tasks():
            by_cell.setdefault(t.params["scale"], []).append(t.seed)
        assert all(seeds == [9, 10, 11, 12] for seeds in by_cell.values())


def _reference_expansion(spec: SweepSpec) -> list[tuple]:
    """The reference expansion, ``(index, params, run, seed)`` per task:
    one task per (cell, run), each seed straight from :func:`derive_seed`."""
    out = []
    for cell in spec.iter_cells():
        for run in range(spec.runs):
            if spec.seeding == "offset":
                seed = spec.base_seed + run
            else:
                seed = derive_seed(spec.base_seed, spec.name, cell, run)
            out.append((len(out), {**cell, **spec.fixed}, run, seed))
    return out


#: grid values, the ones ``derive_seed`` can only key through
#: ``default=str`` among them
grid_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.frozensets(st.integers(-3, 3), max_size=3),
    st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6),
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
)


class TestChunkExpansion:
    """A sweep's chunks cross the pool boundary as cell × run ranges and
    are expanded where they run; cut anywhere and concatenated, they are
    the per-task expansion, seed for seed."""

    @given(
        grid=st.dictionaries(
            st.sampled_from(["protocol", "waves", "n"]),
            st.lists(grid_values, min_size=1, max_size=3),
            max_size=3,
        ),
        runs=st.integers(1, 9),
        base=st.integers(-(2**63), 2**63),
        name=st.text(max_size=6),
        seeding=st.sampled_from(["derived", "offset"]),
        fixed=st.sampled_from(["none", "plain"]),
        size=st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunks_concatenate_to_the_per_task_expansion(self, grid, runs, base, name, seeding, fixed, size):
        extra = {"none": {}, "plain": {"scale": 2, "catalog": [1, 2, 3]}}[fixed]
        spec = SweepSpec(name, pure_task, grid=grid, runs=runs, base_seed=base, seeding=seeding, fixed=extra)
        expected = _reference_expansion(spec)
        chunks = list(spec.iter_chunks(size))
        assert [len(list(chunk)) for chunk in chunks[:-1]] == [size] * (len(chunks) - 1)
        assert [chunk.entries[0][0] for chunk in chunks] == list(range(0, spec.n_tasks, size))
        for expansion in (
            [task for chunk in chunks for task in chunk],
            # what a pool worker expands: the chunk after a pickle round trip
            [task for chunk in chunks for task in pickle.loads(pickle.dumps(chunk))],
            list(spec.iter_tasks()),
            spec.tasks(),
        ):
            fields = [(t.index, t.params, t.run, t.seed) for t in expansion]
            assert fields == expected
            assert {(t.sweep, t.task) for t in expansion} == {(name, pure_task)}

    @given(
        params=st.dictionaries(st.text(max_size=4), grid_values, max_size=3),
        base=st.integers(-(2**63), 2**63),
        name=st.text(max_size=6),
        runs=st.lists(st.integers(0, 2**64), max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_cell_seeder_is_derive_seed(self, params, base, name, runs):
        seed = cell_seeder(base, name, params)
        for run in [*range(12), *runs]:
            assert seed(run) == derive_seed(base, name, params, run)
            assert cell_seeder(base, name, params, "offset")(run) == base + run


class TestSerialParallelEquivalence:
    def _artifact(self, workers: int, task, grid, runs: int, seeding: str) -> str:
        spec = SweepSpec("equiv", task, grid=grid, runs=runs, seeding=seeding)
        outcome = run_sweep(spec, workers=workers)
        return ResultStore.encode(ResultStore.payload(outcome))

    def test_pure_task_identical_across_worker_counts(self):
        artifacts = {
            self._artifact(w, pure_task, {"scale": [1, 2, 5]}, 8, "derived")
            for w in (1, 2, 3, 5)
        }
        assert len(artifacts) == 1

    def test_simulation_task_identical_serial_vs_parallel(self):
        """The real thing: full cluster simulations fanned out."""
        artifacts = {
            self._artifact(w, availability_run, {"protocol": ["skq", "qtp1"]}, 4, "offset")
            for w in (1, 2, 4)
        }
        assert len(artifacts) == 1

    def test_chunksize_irrelevant(self):
        spec = SweepSpec("chunk", pure_task, grid={"scale": [1, 2]}, runs=10)
        outcomes = [
            run_sweep(spec, workers=2, chunksize=c) for c in (1, 3, 100)
        ]
        payloads = {ResultStore.encode(ResultStore.payload(o)) for o in outcomes}
        assert len(payloads) == 1

    def test_store_files_identical(self, tmp_path):
        spec = SweepSpec("stored", pure_task, grid={"scale": [2]}, runs=6)
        bytes_by_workers = []
        for w in (1, 3):
            store = ResultStore(tmp_path / f"w{w}")
            run_sweep(spec, workers=w, store=store)
            bytes_by_workers.append(store.path_for("stored").read_bytes())
        assert bytes_by_workers[0] == bytes_by_workers[1]


def _metric_reducer() -> RowReducer:
    return RowReducer(
        (
            ("first", "0", MeanAcc()),
            ("first_digest", "0", QuantileDigest(0.0, 6.0)),
        )
    )


class TestStreamingFixedPoint:
    """serial == parallel == streaming, for every backend."""

    def _spec(self) -> SweepSpec:
        return SweepSpec("fp", pure_task, grid={"scale": [1, 2, 5]}, runs=6)

    def test_digest_identical_across_backends_and_workers(self, tmp_path):
        digests = set()
        for w in (1, 2, 3):
            for make in (ResultSink, lambda: ReducerSink(_metric_reducer())):
                outcome = run_sweep(self._spec(), workers=w, sink=make())
                digests.add((outcome.aggregate["rows"], outcome.aggregate["digest"]))
            jsonl = JsonlSink(tmp_path / f"w{w}.jsonl.gz")
            run_sweep(self._spec(), workers=w, sink=jsonl)
            digests.add((jsonl.rows_emitted, jsonl.digest))
        assert len(digests) == 1

    def test_stream_artifact_bytes_identical_across_workers(self, tmp_path):
        blobs = set()
        for w in (1, 2, 4):
            path = tmp_path / f"w{w}.jsonl.gz"
            run_sweep(self._spec(), workers=w, sink=JsonlSink(path))
            blobs.add(path.read_bytes())
        assert len(blobs) == 1

    def test_streamed_rows_equal_stored_rows(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_sweep(self._spec(), store=store)
        path = tmp_path / "rows.jsonl.gz"
        run_sweep(self._spec(), workers=2, sink=JsonlSink(path))
        _spec_summary, rows = load_stream(path)
        assert rows == store.load("fp")["results"]

    def test_simulation_task_streams_identically(self, tmp_path):
        """The real thing: cluster simulations, serial and pooled."""
        spec = SweepSpec(
            "sim", availability_run, grid={"protocol": ["skq", "qtp1"]}, runs=3,
            seeding="offset",
        )
        default = run_sweep(spec, workers=1)
        pooled = run_sweep(spec, workers=2)
        assert pooled.results == default.results
        digest = 0
        for result in default.results:
            digest = merge_digests(digest, row_digest(ResultStore.row_payload(result)))
        assert run_sweep(spec, workers=2, sink=ResultSink()).aggregate == {"rows": 6, "digest": digest}


def brittle_task(seed: int, fail_at: int) -> float:
    """Under offset seeding on an empty grid the seed is the task index."""
    if seed == fail_at:
        raise RuntimeError(f"task {seed} failed")
    return random.Random(seed).random()


#: sink trees by name: each builds (sink, its parts by role) under ``tmp``
SINK_TREES = {
    "jsonl": lambda tmp: _tree(jsonl=JsonlSink(tmp / "rows.jsonl.gz")),
    "reducer": lambda tmp: _tree(reducer=ReducerSink(_metric_reducer())),
    "base": lambda tmp: _tree(base=ResultSink()),
    "jsonl+reducer": lambda tmp: _tree(
        jsonl=JsonlSink(tmp / "rows.jsonl.gz"), reducer=ReducerSink(_metric_reducer())
    ),
    "reducer+jsonl+base": lambda tmp: _tree(
        reducer=ReducerSink(_metric_reducer()), jsonl=JsonlSink(tmp / "rows.jsonl.gz"), base=ResultSink()
    ),
}


def _tree(**parts):
    sinks = list(parts.values())
    return (sinks[0] if len(sinks) == 1 else TeeSink(*sinks)), parts


def _observe(sink, parts) -> dict:
    """Everything a sink tree holds once its sweep is over."""
    seen = {
        "rows_emitted": sink.rows_emitted,
        "digest": sink.digest,
        "summary": sink.summary(),
        "parts": {role: (part.rows_emitted, part.digest) for role, part in parts.items()},
    }
    if "jsonl" in parts:
        seen["artifact"] = parts["jsonl"].path.read_bytes()
    if "reducer" in parts:
        seen["reduced"] = parts["reducer"].reducer.summary()
    return seen


def _row_chunk(result, plan) -> FoldedChunk:
    """One row as a chunk of its own, built from the reference row
    definitions (``row_payload``, ``row_digest``, ``canonical_line``)."""
    row = ResultStore.row_payload(result)
    chunk = FoldedChunk()
    chunk.rows, chunk.digest = 1, row_digest(row)
    chunk.lines = (canonical_line({"type": "row", **row}) + "\n").encode()
    for key, template in plan.reducers.items():
        chunk.partials[key] = template.fresh()
        chunk.partials[key].fold(result.index, chunk.digest, result.value)
    return chunk


def _per_row_reference(spec: SweepSpec, tree: str) -> dict:
    """The sinks driven one executed ``RunTask`` at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        sink, parts = SINK_TREES[tree](Path(tmp))
        plan = sink.chunk_plan()
        sink.open(spec.summary())
        for task in spec.iter_tasks():
            sink.emit(_row_chunk(task.execute(), plan))
        sink.close()
        return _observe(sink, parts)


def _committed_indices(path: Path) -> list[int]:
    """The task indices of the rows an aborted artifact holds."""
    header, *records = gzip.decompress(path.read_bytes()).splitlines()
    assert json.loads(header)["type"] == "header"
    rows = [json.loads(record) for record in records]
    assert all(row["type"] == "row" for row in rows)  # no end record
    return [row["index"] for row in rows]


class TestChunksEqualRows:
    @classmethod
    def teardown_class(cls):
        shutdown_shared_runners()

    @given(
        scales=st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True),
        runs=st.integers(1, 9),
        base=st.integers(0, 2**16),
        seeding=st.sampled_from(["derived", "offset"]),
        workers=st.sampled_from([1, 2, 3]),
        chunksize=st.sampled_from([None, 1, 2, 7]),
        persistent=st.booleans(),
        tree=st.sampled_from(sorted(SINK_TREES)),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_sink_tree_at_every_layout(
        self, scales, runs, base, seeding, workers, chunksize, persistent, tree
    ):
        """Every layout must leave what a per-row drive of the same sinks
        over the same sweep leaves."""
        spec = SweepSpec(
            "chunks", pure_task, grid={"scale": scales}, runs=runs, base_seed=base, seeding=seeding
        )
        layout = dict(workers=workers, chunksize=chunksize, persistent_pool=persistent)
        with tempfile.TemporaryDirectory() as tmp:
            sink, parts = SINK_TREES[tree](Path(tmp))
            outcome = run_sweep(spec, sink=sink, **layout)
            seen = _observe(sink, parts)
            assert seen == _per_row_reference(spec, tree)
        assert outcome.results == []
        assert outcome.aggregate == seen["summary"]

    @given(
        n=st.integers(1, 20),
        fail_at=st.integers(0, 19),
        workers=st.sampled_from([1, 2, 3]),
        chunksize=st.sampled_from([None, 1, 2, 7]),
    )
    @settings(max_examples=25, deadline=None)
    def test_raising_task_leaves_exactly_the_rows_before_it(self, n, fail_at, workers, chunksize):
        fail_at = fail_at % n
        spec = SweepSpec(
            "brittle", brittle_task, grid={}, runs=n, seeding="offset", fixed={"fail_at": fail_at}
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.jsonl.gz"
            reducer = ReducerSink(RowReducer((("v", "", MeanAcc()),)))
            with pytest.raises(RuntimeError, match=f"task {fail_at} failed"):
                run_sweep(
                    spec,
                    workers=workers,
                    chunksize=chunksize,
                    sink=TeeSink(JsonlSink(path), reducer),
                )
            committed = _committed_indices(path)
        assert committed == list(range(fail_at))
        assert reducer.rows_emitted >= fail_at  # the failing chunk's prefix was emitted


def _exact_sums(values) -> tuple[Fraction, Fraction]:
    exact = [Fraction(v) for v in values]
    return sum(exact, Fraction(0)), sum((v * v for v in exact), Fraction(0))


#: what a JSON row can hold as a number, the awkward corners included
#: (bounded so that a sum of squares still converts to a float)
json_numbers = st.one_of(
    st.floats(-1e150, 1e150),  # subnormals and negatives among them
    st.floats(-1.0, 1.0),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0]),
    st.integers(-(2**200), 2**200),
    st.booleans(),
)


class TestMeanAccAgainstFractions:
    @given(st.lists(json_numbers, min_size=1, max_size=30), st.integers(0, 30))
    @settings(max_examples=200, deadline=None)
    def test_sums_summary_and_pickled_merges_are_exact(self, values, cut):
        serial = MeanAcc()
        for v in values:
            serial.add(v)
        total, total_sq = _exact_sums(values)
        assert serial.total == total and serial.total_sq == total_sq
        n = len(values)
        floats = [float(v) for v in values]
        expected = {
            "kind": "mean",
            "n": n,
            "mean": float(total / n),
            "min": min(floats),
            "max": max(floats),
            "sd": (max(0.0, float((total_sq - total * total / n) / (n - 1))) ** 0.5 if n > 1 else 0.0),
        }
        assert serial.summary() == expected

        # partials that crossed a process boundary, merged either way round
        left, right = MeanAcc(), MeanAcc()
        for v in values[:cut]:
            left.add(v)
        for v in values[cut:]:
            right.add(v)
        for first, second in ((left, right), (right, left)):
            merged = pickle.loads(pickle.dumps(first))
            merged.merge(pickle.loads(pickle.dumps(second)))
            assert merged.total == total and merged.total_sq == total_sq
            assert merged.summary() == expected

    @pytest.mark.parametrize("value", ["1.5", None, Fraction(1, 3), 1 + 2j, [1.0]])
    def test_only_json_numbers_are_accepted(self, value):
        acc = MeanAcc()
        with pytest.raises(TypeError):
            acc.add(value)
        assert acc.n == 0 and acc.total == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_are_refused(self, value):
        with pytest.raises((ValueError, OverflowError)):
            MeanAcc().add(value)


class TestStreamingAggregatesMatchEager:
    @given(st.integers(0, 2**16), st.integers(1, 12), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_reduce_equals_fold_over_saved_artifact(self, base, runs, chunksize):
        import tempfile

        spec = SweepSpec(
            "agg", pure_task, grid={"scale": [1, 4]}, runs=runs, base_seed=base
        )
        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(tmp)
            run_sweep(spec, store=store)
            eager = _metric_reducer()
            for row in store.load("agg")["results"]:
                eager.fold(row["index"], row_digest(row), row["value"])
        streamed = run_sweep(spec, workers=2, chunksize=chunksize, sink=ReducerSink(_metric_reducer()))
        assert streamed.aggregate == eager.summary()

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
           st.integers(0, 39))
    @settings(max_examples=100, deadline=None)
    def test_mean_acc_merge_law(self, values, cut):
        cut = min(cut, len(values))
        serial = MeanAcc()
        for v in values:
            serial.add(v)
        left, right = MeanAcc(), MeanAcc()
        for v in values[:cut]:
            left.add(v)
        for v in values[cut:]:
            right.add(v)
        left.merge(right)
        assert left.summary() == serial.summary()
        assert left.total == serial.total  # exact, not approximate

    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=60),
           st.integers(0, 59))
    @settings(max_examples=100, deadline=None)
    def test_quantile_digest_merge_law(self, values, cut):
        cut = min(cut, len(values))
        serial = QuantileDigest(0.0, 10.0)
        for v in values:
            serial.add(v)
        left, right = QuantileDigest(0.0, 10.0), QuantileDigest(0.0, 10.0)
        for v in values[:cut]:
            left.add(v)
        for v in values[cut:]:
            right.add(v)
        left.merge(right)
        assert left.summary() == serial.summary()

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30),
           st.integers(0, 29))
    @settings(max_examples=50, deadline=None)
    def test_count_acc_merge_law(self, values, cut):
        cut = min(cut, len(values))
        serial = CountAcc()
        for v in values:
            serial.add(v)
        left, right = CountAcc(), CountAcc()
        for v in values[:cut]:
            left.add(v)
        for v in values[cut:]:
            right.add(v)
        left.merge(right)
        assert left.summary() == serial.summary()

    @given(st.lists(st.dictionaries(st.sampled_from(["i", "v"]), st.integers(0, 99),
                                    min_size=1), min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_row_digest_sum_is_order_independent(self, rows, rng):
        forward = 0
        for row in rows:
            forward = merge_digests(forward, row_digest(row))
        shuffled = list(rows)
        rng.shuffle(shuffled)
        backward = 0
        for row in shuffled:
            backward = merge_digests(backward, row_digest(row))
        assert forward == backward
