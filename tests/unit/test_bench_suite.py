"""Unit tests for the bench registry, its gate and its CLI."""

import json
import shutil
from pathlib import Path

import pytest

from repro.bench import (
    CASES,
    SCHEMA_VERSION,
    BenchError,
    check,
    compare,
    encode,
    load,
    run_case,
    update,
)
from repro.bench.__main__ import main
from repro.common.errors import StoreError
from repro.engine.spec import SweepSpec

REPO = Path(__file__).resolve().parents[2]


def counting_task(seed: int, scale: int = 1) -> dict:
    """Deterministic toy task obeying the bench contract."""
    return {"value": (seed % 97) * scale, "scale": scale}


def bad_task(seed: int) -> int:
    """Violates the contract: counters must be a dict."""
    return seed


@pytest.fixture
def toy(monkeypatch):
    """A cheap case registered as ``toy`` for the length of one test."""
    monkeypatch.setitem(CASES, "toy", SweepSpec("bench-toy", counting_task, grid={"scale": [1, 3]}, runs=2))
    return "toy"


class TestRunCase:
    def test_payload_shape(self, toy):
        payload = run_case(toy)
        assert set(payload) == {"schema", "case", "spec", "rows"}
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["case"] == "toy"
        assert len(payload["rows"]) == 4  # 2 cells x 2 runs
        assert all(set(row["counters"]) == {"value", "scale"} for row in payload["rows"])

    def test_bad_task_contract_raises(self, monkeypatch):
        monkeypatch.setitem(CASES, "bad", SweepSpec("bench-bad", bad_task, grid={}))
        with pytest.raises(BenchError, match="must return"):
            run_case("bad")

    def test_the_registry_in_run_order(self):
        assert list(CASES) == [
            "commit_mix",
            "heavy_workload",
            "wan_storm",
            "skewed_contention",
            "read_mostly",
            "cross_region_txn",
            "elastic_join",
            "open_loop_service",
            "ramp_ceiling",
            "rolling_upgrade",
            "flash_crowd",
            "gray_failure",
            "trace_replay_tournament",
        ]
        assert {spec.name for spec in CASES.values()} == {"bench-" + name.replace("_", "-") for name in CASES}


class TestGate:
    def test_every_case_reproduces_its_committed_baseline(self):
        """The counter gate: every registered case, run at its committed
        shape, encodes to exactly its ``BENCH_<name>.json``, and every
        committed file belongs to a case."""
        verdicts = check(REPO)
        assert {name: found for name, found in verdicts.items() if found} == {}
        assert list(verdicts) == list(CASES)


class TestBaselineFiles:
    def test_update_then_check_round_trips(self, toy, tmp_path):
        (path,) = update(tmp_path, [toy])
        assert path == tmp_path / "BENCH_toy.json"
        assert load(path) == json.loads(encode(run_case(toy)))
        assert check(tmp_path, [toy]) == {"toy": []}

    def test_a_missing_or_stale_baseline_is_a_difference(self, toy, tmp_path):
        (found,) = check(tmp_path, [toy])["toy"]
        assert "no committed baseline" in found
        (path,) = update(tmp_path, [toy])
        path.write_text(path.read_text().replace(f'"schema": {SCHEMA_VERSION}', '"schema": 99'))
        with pytest.raises(StoreError, match="schema 99"):
            load(path)
        (found,) = check(tmp_path, [toy])["toy"]
        assert "schema 99" in found

    def test_a_file_no_case_owns_is_a_difference(self, toy, tmp_path):
        (path,) = update(tmp_path, [toy])
        shutil.copy(path, tmp_path / "BENCH_ghost.json")
        verdicts = check(tmp_path)
        assert verdicts["toy"] == []
        (found,) = verdicts["ghost"]
        assert "no registered case owns" in found
        # a named check compares only what it names
        assert check(tmp_path, [toy]) == {"toy": []}

    def test_missing_baseline_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "BENCH_toy.json")


class TestCommittedBaselines:
    """The 13 files at the repo root, read but never re-run (milliseconds)."""

    def test_every_file_is_counter_only_canonical_and_owned_by_the_registry(self):
        assert sorted(p.name for p in REPO.glob("BENCH_*.json")) == sorted(f"BENCH_{n}.json" for n in CASES)
        for name, spec in CASES.items():
            text = (REPO / f"BENCH_{name}.json").read_text()
            payload = json.loads(text)
            assert set(payload) == {"case", "rows", "schema", "spec"}, name
            assert encode(payload) == text, f"{name}: not canonical — hand-edited?"
            assert payload["case"] == name
            # a registry edit shipped without `bench update` stops here
            assert payload["spec"] == spec.summary(), name


def _commit_mix():
    return load(REPO / "BENCH_commit_mix.json")


class TestCompare:
    def test_identical_payloads_clean(self):
        assert compare(_commit_mix(), _commit_mix()) == []

    def test_counter_drift_is_named(self):
        fresh = _commit_mix()
        fresh["rows"][1]["counters"]["commit"] += 7
        (found,) = compare(_commit_mix(), fresh)
        assert found.startswith("rows[1].counters.commit: ")

    def test_row_count_change_is_named(self):
        fresh = _commit_mix()
        fresh["rows"].pop()
        assert compare(_commit_mix(), fresh) == ["rows: 8 entries -> 7"]

    def test_spec_change_is_named(self):
        fresh = _commit_mix()
        fresh["spec"]["runs"] = 99
        assert compare(_commit_mix(), fresh) == ["spec.runs: 2 -> 99"]

    def test_schema_change_is_named(self):
        fresh = _commit_mix()
        fresh["schema"] = SCHEMA_VERSION + 1
        assert compare(_commit_mix(), fresh) == [f"schema: {SCHEMA_VERSION} -> {SCHEMA_VERSION + 1}"]

    def test_an_extra_key_in_one_row_is_named(self):
        fresh = _commit_mix()
        fresh["rows"][3]["note"] = "x"
        assert compare(_commit_mix(), fresh) == ['rows[3].note: added "x"']

    def test_a_renamed_case_is_named(self):
        fresh = _commit_mix()
        fresh["case"] = "commit_mix_v2"
        assert compare(_commit_mix(), fresh) == ['case: "commit_mix" -> "commit_mix_v2"']

    def test_an_extra_top_level_key_is_named(self):
        fresh = _commit_mix()
        fresh["generated_by"] = "someone"
        assert compare(_commit_mix(), fresh) == ['generated_by: added "someone"']

    def test_a_value_that_encodes_differently_is_named(self):
        # 16 == 16.0 in Python, but the two encode to different bytes
        fresh = _commit_mix()
        fresh["spec"]["fixed"]["n_txns"] = 16.0
        assert compare(_commit_mix(), fresh) == ["spec.fixed.n_txns: 16 -> 16.0"]

    def test_a_wholesale_drift_is_capped(self):
        fresh = _commit_mix()
        for row in fresh["rows"]:
            row["counters"] = {key: -1 for key in row["counters"]}
        found = compare(_commit_mix(), fresh)
        assert len(found) == 13 and found[-1].startswith("... and ")


class TestCli:
    @pytest.mark.parametrize("command", ["diff", "update"])
    def test_an_unknown_case_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as raised:
            main([command, "--case", "nope"])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err
        assert all(repr(name) in err for name in CASES)

    def test_diff_and_update_over_one_case(self, toy, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["diff", "--check", "--case", toy]) == 1
        assert main(["update", "--case", toy]) == 0
        assert main(["diff", "--check", "--case", toy]) == 0
        assert "bench diff: 1 case(s) clean" in capsys.readouterr().out
        baseline = tmp_path / "BENCH_toy.json"
        baseline.write_text(baseline.read_text().replace("3", "4"))
        assert main(["diff", "--case", toy]) == 0  # a report without --check
        assert main(["diff", "--check", "--case", toy]) == 1
        assert "toy: DRIFT" in capsys.readouterr().out

    def test_list_prints_every_case(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == list(CASES)
