"""Unit tests of the result store, artifact encoding and aggregation."""

from dataclasses import dataclass

import pytest

from repro.common.errors import StoreError
from repro.engine import (
    SCHEMA_VERSION,
    ResultStore,
    SweepSpec,
    fraction_of,
    group_by,
    jsonable,
    mean_of,
    run_sweep,
)


def trial(seed, kind):
    return {"kind": kind, "score": float(seed % 7)}


@dataclass
class Sample:
    name: str
    values: tuple
    tags: frozenset


class TestJsonable:
    def test_dataclass_flattens(self):
        out = jsonable(Sample("a", (1, 2), frozenset(["y", "x"])))
        assert out == {"name": "a", "values": [1, 2], "tags": ["x", "y"]}

    def test_nested_containers(self):
        assert jsonable({"k": [(1, 2), {3}]}) == {"k": [[1, 2], [3]]}

    def test_scalars_pass_through(self):
        for v in (None, True, 3, 2.5, "s"):
            assert jsonable(v) == v

    def test_unencodable_rejected(self):
        with pytest.raises(TypeError, match="cannot encode"):
            jsonable(object())

    @pytest.mark.parametrize(
        "mapping, keys",
        [
            ({1: "a", "1": "b"}, ("1", "'1'")),
            ({True: "x", "True": "y"}, ("True", "'True'")),
            ({"n": {None: 0, "None": 1}}, ("None", "'None'")),
        ],
    )
    def test_keys_that_stringify_alike_are_rejected_not_dropped(self, mapping, keys):
        with pytest.raises(TypeError, match="both encode as") as raised:
            jsonable(mapping)
        for key in keys:
            assert key in str(raised.value)

    def test_distinct_stringified_keys_still_encode(self):
        assert jsonable({1: "a", 2.5: "b", None: "c", "x": "d"}) == {
            "1": "a",
            "2.5": "b",
            "None": "c",
            "x": "d",
        }


class TestResultStore:
    def _outcome(self):
        spec = SweepSpec("demo", trial, grid={"kind": ["a", "b"]}, runs=3)
        return run_sweep(spec)

    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(self._outcome())
        assert path == store.path_for("demo")
        payload = store.load("demo")
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["sweep"] == "demo"
        assert len(payload["results"]) == 6
        assert payload["spec"]["grid"] == {"kind": ["a", "b"]}

    def test_rows_keep_task_order(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(self._outcome())
        rows = store.load("demo")["results"]
        assert [r["index"] for r in rows] == list(range(6))

    def test_newer_schema_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(self._outcome())
        path = store.path_for("demo")
        path.write_text(path.read_text().replace(f'"schema": {SCHEMA_VERSION}', '"schema": 99'))
        with pytest.raises(StoreError, match="schema 99"):
            store.load("demo")

    def test_older_schema_rejected_not_reinterpreted(self, tmp_path):
        """A stale artifact must raise, never be handed back unguarded."""
        store = ResultStore(tmp_path)
        store.save(self._outcome())
        path = store.path_for("demo")
        path.write_text(path.read_text().replace(f'"schema": {SCHEMA_VERSION}', '"schema": 0'))
        with pytest.raises(StoreError, match="schema 0"):
            store.load("demo")

    def test_schemaless_payload_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        store.path_for("demo").parent.mkdir(parents=True, exist_ok=True)
        store.path_for("demo").write_text('{"sweep": "demo", "results": []}')
        with pytest.raises(StoreError, match="schema None"):
            store.load("demo")

    def test_store_error_is_still_a_value_error(self, tmp_path):
        """Callers that predate StoreError catch ValueError; keep them working."""
        assert issubclass(StoreError, ValueError)

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ResultStore(tmp_path).load("nope")

    def test_sweep_names_sanitized_into_filenames(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.path_for("a/b c").name == "a-b-c.json"

    def test_encoding_is_canonical(self):
        outcome = self._outcome()
        a = ResultStore.encode(ResultStore.payload(outcome))
        b = ResultStore.encode(ResultStore.payload(outcome))
        assert a == b
        assert a.endswith("\n")


class TestAggregationHelpers:
    def _rows(self):
        spec = SweepSpec("agg", trial, grid={"kind": ["a", "b"]}, runs=4, seeding="offset")
        return run_sweep(spec).results

    def test_group_by_partitions_rows(self):
        groups = group_by(self._rows(), "kind")
        assert sorted(groups) == ["a", "b"]
        assert all(len(rows) == 4 for rows in groups.values())

    def test_helpers_work_on_live_and_loaded_rows(self, tmp_path):
        spec = SweepSpec("agg", trial, grid={"kind": ["a"]}, runs=4, seeding="offset")
        store = ResultStore(tmp_path)
        outcome = run_sweep(spec, store=store)
        live = mean_of(outcome.results, lambda v: v["score"])
        loaded = mean_of(store.load("agg")["results"], lambda v: v["score"])
        assert live == loaded

    def test_fraction_of(self):
        rows = self._rows()
        assert len(rows) == 8
        n_zero = sum(1 for row in rows if row.value["score"] == 0.0)
        assert fraction_of(rows, lambda v: v["score"] == 0.0) == n_zero / 8

    def test_empty_inputs(self):
        assert mean_of([]) == 0.0
        assert fraction_of([], lambda v: True) == 0.0
