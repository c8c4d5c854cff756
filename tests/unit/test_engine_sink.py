"""Unit tests for the streaming sweep backend: result sinks, the
JSONL row-stream artifact, and the bounded worker cache."""

import gzip
import io
import json
import random

import pytest

from repro.common.errors import StoreError
from repro.engine import (
    STREAM_KIND,
    STREAM_SCHEMA,
    CountAcc,
    JsonlSink,
    MeanAcc,
    ReducerSink,
    ResultSink,
    ResultStore,
    RowReducer,
    SweepSpec,
    TeeSink,
    group_by,
    iter_stream_rows,
    load_stream,
    merge_digests,
    row_digest,
    run_sweep,
)
from repro.engine.executor import WORKER_CACHE_LIMIT, clear_worker_cache, worker_cache


def probe_task(seed: int, scale: int = 1) -> dict:
    """Cheap, seed-sensitive, module-level (so it pickles into pools)."""
    rng = random.Random(seed)
    return {"x": rng.random() * scale, "even": seed % 2 == 0}


def fragile_task(seed: int) -> int:
    if seed == 3:
        raise RuntimeError("boom")
    return seed


def untravelling_failure_task(seed: int) -> int:
    if seed == 2:
        error = ValueError("cannot travel")
        error.payload = lambda: None  # makes the exception unpicklable
        raise error
    return seed


def _spec(name: str = "s", runs: int = 6, task=probe_task, **kwargs) -> SweepSpec:
    return SweepSpec(name=name, task=task, grid={"scale": [1, 3]}, runs=runs, **kwargs)


def _reducer() -> RowReducer:
    return RowReducer((("x", "x", MeanAcc()), ("even", "even", CountAcc())))


def _fold_eagerly(reducer: RowReducer, results) -> RowReducer:
    """Fold kept results one at a time, through the reference row
    encoding."""
    for result in results:
        reducer.fold(result.index, row_digest(ResultStore.row_payload(result)), result.value)
    return reducer


def _committed_indices(path) -> list[int]:
    """The task indices of the rows an aborted artifact holds."""
    header, *records = gzip.decompress(path.read_bytes()).splitlines()
    assert json.loads(header)["type"] == "header"
    rows = [json.loads(record) for record in records]
    assert all(row["type"] == "row" for row in rows)  # no end record
    return [row["index"] for row in rows]


class TestResultSink:
    def test_counts_and_digests_the_rows_the_default_path_keeps(self):
        """The base sink keeps nothing; its count and digest are those of
        the default path's rows under the reference encoding."""
        kept = run_sweep(_spec()).results
        digest = 0
        for result in kept:
            digest = merge_digests(digest, row_digest(ResultStore.row_payload(result)))
        for workers in (1, 2):
            sink = ResultSink()
            outcome = run_sweep(_spec(), workers=workers, chunksize=5, sink=sink)
            assert outcome.results == []
            assert outcome.aggregate == {"rows": len(kept), "digest": digest} == sink.summary()


class TestJsonlSink:
    def test_round_trip_matches_eager_rows(self, tmp_path):
        path = tmp_path / "rows.jsonl.gz"
        run_sweep(_spec(), sink=JsonlSink(path))
        spec_summary, rows = load_stream(path)
        eager = run_sweep(_spec())
        assert spec_summary["name"] == "s"
        assert rows == [
            json.loads(json.dumps(ResultStore.row_payload(r), sort_keys=True))
            for r in eager.results
        ]

    def test_bytes_identical_across_worker_counts(self, tmp_path):
        blobs = set()
        for w in (1, 2, 3):
            path = tmp_path / f"w{w}.jsonl.gz"
            run_sweep(_spec(), workers=w, sink=JsonlSink(path))
            blobs.add(path.read_bytes())
        assert len(blobs) == 1

    def test_incremental_writes_match_one_shot_compression(self, tmp_path):
        """Per-row gzip writes and one batch write are byte-identical."""
        path = tmp_path / "rows.jsonl.gz"
        run_sweep(_spec(), sink=JsonlSink(path))
        logical = gzip.decompress(path.read_bytes())
        buf = io.BytesIO()
        with gzip.GzipFile(fileobj=buf, mode="wb", compresslevel=6, mtime=0) as gz:
            gz.write(logical)
        assert buf.getvalue() == path.read_bytes()

    def test_header_and_end_records(self, tmp_path):
        path = tmp_path / "rows.jsonl.gz"
        run_sweep(_spec(runs=2), sink=JsonlSink(path))
        records = [
            json.loads(line)
            for line in gzip.decompress(path.read_bytes()).decode().splitlines()
        ]
        assert records[0]["type"] == "header"
        assert records[0]["schema"] == STREAM_SCHEMA
        assert records[0]["kind"] == STREAM_KIND
        assert records[-1] == {"type": "end", "records": len(records) - 1}

    def test_task_failure_aborts_to_truncated_artifact(self, tmp_path):
        path = tmp_path / "partial.jsonl.gz"
        spec = SweepSpec("frail", fragile_task, grid={}, runs=6, seeding="offset")
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(spec, sink=JsonlSink(path))
        with pytest.raises(StoreError, match="truncated"):
            list(iter_stream_rows(path))

    def test_pooled_task_failure_keeps_type_message_and_worker_traceback(self, tmp_path):
        spec = SweepSpec("frail", fragile_task, grid={}, runs=6, seeding="offset")
        with pytest.raises(RuntimeError, match="boom") as err:
            run_sweep(spec, workers=2, chunksize=2, sink=JsonlSink(tmp_path / "p.jsonl.gz"))
        assert "fragile_task" in str(err.value.__cause__)  # the remote traceback

    def test_unpicklable_task_failure_travels_as_a_stand_in(self, tmp_path):
        spec = SweepSpec("frail", untravelling_failure_task, grid={}, runs=6, seeding="offset")
        with pytest.raises(ValueError, match="cannot travel"):
            run_sweep(spec, sink=ResultSink())  # in process: the exception itself
        path = tmp_path / "p.jsonl.gz"
        with pytest.raises(RuntimeError, match="ValueError: cannot travel"):
            run_sweep(spec, workers=2, chunksize=4, sink=JsonlSink(path))
        assert _committed_indices(path) == [0, 1]

    def test_truncation_tripwire(self, tmp_path):
        path = tmp_path / "cut.jsonl.gz"
        sink = JsonlSink(path)
        run_sweep(_spec(runs=2), sink=sink)
        lines = gzip.decompress(path.read_bytes()).splitlines(keepends=True)
        cut = tmp_path / "no-end.jsonl.gz"
        cut.write_bytes(gzip.compress(b"".join(lines[:-1]), mtime=0))
        with pytest.raises(StoreError, match="truncated"):
            list(iter_stream_rows(cut))

    def test_end_count_mismatch_fails(self, tmp_path):
        path = tmp_path / "bad-count.jsonl.gz"
        lines = [
            json.dumps({"type": "header", "schema": STREAM_SCHEMA, "kind": STREAM_KIND}),
            json.dumps({"type": "row", "index": 0}),
            json.dumps({"type": "end", "records": 7}),
        ]
        path.write_bytes(gzip.compress("\n".join(lines).encode(), mtime=0))
        with pytest.raises(StoreError, match="inconsistent"):
            list(iter_stream_rows(path))

    def test_foreign_and_stale_headers_fail(self, tmp_path):
        foreign = tmp_path / "foreign.jsonl.gz"
        foreign.write_bytes(
            gzip.compress(json.dumps({"type": "header", "kind": "other"}).encode())
        )
        with pytest.raises(StoreError, match="bad header"):
            list(iter_stream_rows(foreign))
        stale = tmp_path / "stale.jsonl.gz"
        stale.write_bytes(
            gzip.compress(
                json.dumps(
                    {"type": "header", "kind": STREAM_KIND, "schema": STREAM_SCHEMA + 1}
                ).encode()
            )
        )
        with pytest.raises(StoreError, match="schema"):
            list(iter_stream_rows(stale))

    def test_unknown_record_type_fails(self, tmp_path):
        path = tmp_path / "odd.jsonl.gz"
        lines = [
            json.dumps({"type": "header", "schema": STREAM_SCHEMA, "kind": STREAM_KIND}),
            json.dumps({"type": "mystery"}),
        ]
        path.write_bytes(gzip.compress("\n".join(lines).encode()))
        with pytest.raises(StoreError, match="unknown record type"):
            list(iter_stream_rows(path))

    def test_corrupt_and_empty_files_fail(self, tmp_path):
        corrupt = tmp_path / "corrupt.jsonl.gz"
        corrupt.write_bytes(b"this is not gzip")
        with pytest.raises(StoreError):
            list(iter_stream_rows(corrupt))
        empty = tmp_path / "empty.jsonl.gz"
        empty.write_bytes(gzip.compress(b""))
        with pytest.raises(StoreError, match="empty"):
            list(iter_stream_rows(empty))


class TestCorruptionErrorsNameOffsets:
    """Corruption errors must name the artifact path and the byte offset
    of the bad record, not just a category word."""

    def _artifact(self, tmp_path, lines, name="bad.jsonl.gz"):
        path = tmp_path / name
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode(), mtime=0))
        return path

    def test_garbled_record_names_path_and_offset(self, tmp_path):
        header = json.dumps(
            {"type": "header", "schema": STREAM_SCHEMA, "kind": STREAM_KIND}
        )
        path = self._artifact(tmp_path, [header, "{not json"])
        with pytest.raises(StoreError) as err:
            list(iter_stream_rows(path))
        message = str(err.value)
        assert str(path) in message
        # the bad record starts right after the header line + newline
        assert f"byte offset {len(header) + 1}" in message

    def test_unknown_record_type_names_offset(self, tmp_path):
        header = json.dumps(
            {"type": "header", "schema": STREAM_SCHEMA, "kind": STREAM_KIND}
        )
        path = self._artifact(tmp_path, [header, json.dumps({"type": "mystery"})])
        with pytest.raises(StoreError, match="unknown record type") as err:
            list(iter_stream_rows(path))
        assert f"byte offset {len(header) + 1}" in str(err.value)

    def test_inconsistent_end_record_names_offset(self, tmp_path):
        header = json.dumps(
            {"type": "header", "schema": STREAM_SCHEMA, "kind": STREAM_KIND}
        )
        row = json.dumps({"type": "row", "index": 0})
        end = json.dumps({"type": "end", "records": 7})
        path = self._artifact(tmp_path, [header, row, end])
        with pytest.raises(StoreError, match="inconsistent") as err:
            list(iter_stream_rows(path))
        assert f"byte offset {len(header) + len(row) + 2}" in str(err.value)

    READERS = {
        "iter_stream_rows": lambda path: list(iter_stream_rows(path)),
        "load_stream": load_stream,
    }

    @pytest.mark.parametrize("first_line", ["[1,2]", "3", "null", '"header"', '{"type":"row","index":0}'])
    @pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
    def test_first_record_that_is_no_header_names_path_and_offset(self, tmp_path, reader, first_line):
        """Valid JSON that is not a header object (not an object at all,
        among others) is a StoreError from the one header check."""
        path = self._artifact(tmp_path, ["", first_line])
        with pytest.raises(StoreError, match="bad header") as err:
            reader(path)
        assert str(path) in str(err.value)
        assert "byte offset 1 (decompressed)" in str(err.value)  # past the blank line

    @pytest.mark.parametrize("stray", ["[1]", "7", "null", '"row"'])
    def test_record_that_is_not_an_object_names_offset(self, tmp_path, stray):
        header = json.dumps({"type": "header", "schema": STREAM_SCHEMA, "kind": STREAM_KIND})
        rows = [json.dumps({"type": "row", "index": i, "value": i}) for i in (0, 1)]
        path = self._artifact(tmp_path, [header, rows[0], stray, rows[1]])
        for reader in (self.READERS["iter_stream_rows"], load_stream):
            with pytest.raises(StoreError, match="not an object") as err:
                reader(path)
            assert str(path) in str(err.value)
            assert f"byte offset {len(header) + len(rows[0]) + 2}" in str(err.value)

    def test_truncated_stream_reports_clean_prefix_end(self, tmp_path):
        path = tmp_path / "full.jsonl.gz"
        run_sweep(_spec(runs=2), sink=JsonlSink(path))
        logical = gzip.decompress(path.read_bytes()).splitlines(keepends=True)
        cut = tmp_path / "cut.jsonl.gz"
        cut.write_bytes(gzip.compress(b"".join(logical[:-1]), mtime=0))
        with pytest.raises(StoreError, match="truncated") as err:
            list(iter_stream_rows(cut))
        prefix = sum(len(line) for line in logical[:-1])
        assert f"byte offset {prefix}" in str(err.value)

    def test_load_stream_wraps_unreadable_files_in_store_error(self, tmp_path):
        not_gzip = tmp_path / "raw.jsonl.gz"
        not_gzip.write_bytes(b"plainly not gzip")
        with pytest.raises(StoreError, match="cannot read"):
            load_stream(not_gzip)
        empty = tmp_path / "void.jsonl.gz"
        empty.write_bytes(gzip.compress(b""))
        with pytest.raises(StoreError, match="empty"):
            load_stream(empty)


class TestReducerSink:
    def test_reducer_sink_matches_eager_fold(self):
        eager = _fold_eagerly(_reducer(), run_sweep(_spec()).results)
        outcome = run_sweep(_spec(), sink=ReducerSink(_reducer()))
        assert outcome.results == []
        assert outcome.aggregate == eager.summary()

    def test_serial_and_pooled_reducer_sinks_agree(self):
        serial = run_sweep(_spec(), sink=ReducerSink(_reducer()))
        parallel = run_sweep(_spec(), workers=2, chunksize=2, sink=ReducerSink(_reducer()))
        assert serial.aggregate == parallel.aggregate
        assert serial.results == parallel.results == []


def never_run(seed: int) -> int:
    raise AssertionError("a refused sweep ran a task")


class TestStoreNeedsRows:
    """``store=`` saves the outcome's rows: a sink keeps none, so a sink
    would leave an artifact that claims its runs and holds no row."""

    SINKS = {
        "base": lambda tmp: ResultSink(),
        "reducer": lambda tmp: ReducerSink(_reducer()),
        "tee": lambda tmp: TeeSink(ResultSink(), JsonlSink(tmp / "rows.jsonl.gz")),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("make", SINKS.values(), ids=SINKS.keys())
    def test_store_with_any_sink_is_refused_before_any_task(self, tmp_path, workers, make):
        spec = SweepSpec("quiet", never_run, grid={}, runs=5)
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="keeps none"):
            run_sweep(spec, workers=workers, store=store, sink=make(tmp_path))
        assert not store.path_for("quiet").exists()
        assert not (tmp_path / "rows.jsonl.gz").exists()

    def test_store_on_the_default_path_saves_every_row(self, tmp_path):
        store = ResultStore(tmp_path)
        run_sweep(_spec(), store=store)
        assert len(store.load("s")["results"]) == 12


class TestOneSweepPerSink:
    """A sink's count, digest, reducer and artifact describe one sweep:
    opening it for a second is refused before any task runs, and what
    the first sweep left stays as it was."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_jsonl_sink_is_not_reopened(self, tmp_path, workers):
        path = tmp_path / "rows.jsonl.gz"
        sink = JsonlSink(path)
        assert run_sweep(_spec(runs=5), workers=workers, sink=sink).aggregate["rows"] == 10
        written = path.read_bytes()
        with pytest.raises(ValueError, match="JsonlSink already served sweep 's'"):
            run_sweep(SweepSpec("again", never_run, grid={}, runs=5), workers=workers, sink=sink)
        assert path.read_bytes() == written
        assert len(list(iter_stream_rows(path))) == sink.rows_emitted == 10

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_reducer_sink_is_not_reopened(self, workers):
        sink = ReducerSink(_reducer())
        first = run_sweep(_spec(runs=5), workers=workers, sink=sink).aggregate
        with pytest.raises(ValueError, match="ReducerSink already served"):
            run_sweep(SweepSpec("again", never_run, grid={}, runs=5), workers=workers, sink=sink)
        assert sink.summary() == first and first["rows"] == 10

    def test_a_tee_and_a_tee_of_used_children_are_not_reopened(self, tmp_path):
        jsonl, reducer = JsonlSink(tmp_path / "rows.jsonl.gz"), ReducerSink(_reducer())
        tee = TeeSink(jsonl, reducer)
        run_sweep(_spec(runs=5), sink=tee)
        again = SweepSpec("again", never_run, grid={}, runs=5)
        with pytest.raises(ValueError, match="TeeSink already served"):
            run_sweep(again, sink=tee)
        fresh = JsonlSink(tmp_path / "fresh.jsonl.gz")
        with pytest.raises(ValueError, match="ReducerSink already served"):
            run_sweep(again, sink=TeeSink(fresh, reducer))
        assert not fresh.path.exists()  # no child was opened
        assert tee.rows_emitted == jsonl.rows_emitted == reducer.rows_emitted == 10


class TestStudyCells:
    """What a study reads: its sweep's rows, grouped by its one grid
    parameter."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_straddling_chunks_come_back_whole(self, workers):
        spec = SweepSpec("t", probe_task, grid={"scale": [1, 3]}, runs=300)  # > MAX_CHUNK_ROWS
        cells = group_by(run_sweep(spec, workers=workers).results, "scale")
        assert list(cells) == [1, 3]
        assert [[r.run for r in rows] for rows in cells.values()] == [list(range(300))] * 2


class TestTeeSink:
    def test_children_agree(self, tmp_path):
        base = ResultSink()
        jsonl = JsonlSink(tmp_path / "rows.jsonl.gz")
        reducer = ReducerSink(_reducer())
        tee = TeeSink(jsonl, reducer, base)
        outcome = run_sweep(_spec(), sink=tee)
        assert outcome.results == []
        assert jsonl.digest == reducer.digest == base.digest == tee.digest
        assert tee.rows_emitted == base.rows_emitted == 12
        # the first child's summary, plus the keys the later children add
        assert tee.summary() == {**jsonl.summary(), "metrics": reducer.summary()["metrics"]}
        assert list(tee.summary())[:2] == list(jsonl.summary())

    def test_needs_a_child(self):
        with pytest.raises(ValueError):
            TeeSink()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_readme_example_aggregate_carries_the_reducer_metrics(self, tmp_path, workers):
        """engine/README.md, "The sink hierarchy", taken literally."""
        my_reducer = _reducer()
        outcome = run_sweep(
            _spec(),
            workers=workers,
            sink=TeeSink(JsonlSink(tmp_path / "rows.jsonl.gz"), ReducerSink(my_reducer)),
        )
        assert outcome.results == []  # nothing was retained
        assert sorted(outcome.aggregate) == ["digest", "metrics", "rows"]
        assert outcome.aggregate == my_reducer.summary()
        assert outcome.aggregate["rows"] == 12

    def test_first_child_wins_a_summary_conflict(self):
        class Labelled(ResultSink):
            def __init__(self, label):
                super().__init__()
                self.label = label

            def summary(self):
                return {**super().summary(), "label": self.label, self.label: True}

        tee = TeeSink(Labelled("a"), Labelled("b"))
        run_sweep(_spec(runs=1), sink=tee)
        assert tee.summary() == {**tee.sinks[0].summary(), "b": True}

    def test_two_reducers_in_one_tee_each_get_their_own_partials(self):
        first, second = _reducer(), RowReducer((("x", "x", MeanAcc()),))
        run_sweep(_spec(), workers=2, chunksize=5, sink=TeeSink(ReducerSink(first), ReducerSink(second)))
        kept = run_sweep(_spec()).results
        eager_first = _fold_eagerly(_reducer(), kept)
        eager_second = _fold_eagerly(RowReducer((("x", "x", MeanAcc()),)), kept)
        assert first.summary() == eager_first.summary()
        assert second.summary() == eager_second.summary()


class TestWorkerCacheBound:
    def test_fifo_eviction_at_limit(self):
        clear_worker_cache()
        try:
            builds = []
            for i in range(WORKER_CACHE_LIMIT + 8):
                worker_cache(("bound", i), lambda i=i: builds.append(i) or i)
            assert len(builds) == WORKER_CACHE_LIMIT + 8
            # the newest keys are still cached...
            newest = WORKER_CACHE_LIMIT + 7
            worker_cache(("bound", newest), lambda: builds.append("rebuilt"))
            assert "rebuilt" not in builds
            # ...while the oldest were evicted FIFO and rebuild on demand
            worker_cache(("bound", 0), lambda: builds.append("rebuilt"))
            assert "rebuilt" in builds
        finally:
            clear_worker_cache()
