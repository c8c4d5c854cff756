"""Unit tests for the bench suite registry, baselines and differ."""

import json
import shutil
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BaselineStore,
    BenchCase,
    BenchError,
    BenchSuite,
    compare_case,
    default_suite,
    encode,
)
from repro.bench.__main__ import main
from repro.bench.diff import orphan_baselines
from repro.common.errors import StoreError
from repro.engine.spec import SweepSpec

REPO = Path(__file__).resolve().parents[2]


def counting_task(seed: int, scale: int = 1) -> dict:
    """Deterministic toy task obeying the bench contract."""
    return {"value": (seed % 97) * scale, "scale": scale}


def bad_task(seed: int) -> int:
    """Violates the contract: counters must be a dict."""
    return seed


def sleepy_task(seed: int) -> dict:
    """Sleeps past the watchdog tests' soft timeout."""
    import time

    time.sleep(0.4)
    return {"v": seed}


def tiny_case(name="toy", runs=2, task=counting_task, grid=None):
    if grid is None:
        grid = {"scale": [1, 3]}
    return BenchCase(
        name=name,
        spec=SweepSpec(name=f"bench-{name}", task=task, grid=grid, runs=runs),
    )


class TestSuite:
    def test_run_case_payload_shape(self):
        suite = BenchSuite([tiny_case()])
        payload = suite.run_case("toy")
        assert set(payload) == {"schema", "case", "spec", "rows"}
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["case"] == "toy"
        assert len(payload["rows"]) == 4  # 2 cells x 2 runs
        assert all(set(row["counters"]) == {"value", "scale"} for row in payload["rows"])

    def test_bad_task_contract_raises(self):
        suite = BenchSuite([tiny_case(task=bad_task, grid={})])
        with pytest.raises(BenchError, match="must return"):
            suite.run_case("toy")

    def test_duplicate_and_unknown_names_rejected(self):
        suite = BenchSuite([tiny_case()])
        with pytest.raises(ValueError, match="duplicate"):
            suite.add(tiny_case())
        with pytest.raises(KeyError, match="unknown bench case"):
            suite.case("nope")

    def test_unsafe_case_name_rejected(self):
        with pytest.raises(ValueError, match="unsafe"):
            tiny_case(name="../evil")

    def test_default_suite_registers_expected_cases(self):
        suite = default_suite("quick")
        assert suite.names == [
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
        with pytest.raises(ValueError, match="unknown scale"):
            default_suite("huge")


class TestSoftTimeout:
    def test_overrunning_case_raises_bench_timeout(self):
        from repro.bench import BenchTimeout

        suite = BenchSuite([tiny_case(name="sleepy", task=sleepy_task, grid={})])
        with pytest.raises(BenchTimeout, match="soft timeout"):
            suite.run_case("sleepy", timeout_s=0.15)

    def test_fast_case_is_untouched_by_the_watchdog(self):
        suite = BenchSuite([tiny_case()])
        with_watchdog = suite.run_case("toy", timeout_s=60.0)
        without = suite.run_case("toy")
        assert with_watchdog == without

    def test_zero_and_none_disable_the_watchdog(self):
        suite = BenchSuite([tiny_case()])
        assert suite.run_case("toy", timeout_s=0)["case"] == "toy"
        assert suite.run_case("toy", timeout_s=None)["case"] == "toy"


class TestBaselineStore:
    def test_roundtrip(self, tmp_path):
        suite = BenchSuite([tiny_case()])
        store = BaselineStore(tmp_path)
        payload = suite.run_case("toy")
        path = store.save(payload)
        assert path.name == "BENCH_toy.json"
        assert store.load("toy") == json.loads(encode(payload))
        assert store.known_cases() == ["toy"]

    def test_schema_mismatch_raises_store_error(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.save({"case": "toy", "schema": SCHEMA_VERSION, "rows": []})
        raw = store.path_for("toy").read_text().replace(str(SCHEMA_VERSION), "99")
        store.path_for("toy").write_text(raw)
        with pytest.raises(StoreError, match="schema 99"):
            store.load("toy")

    def test_missing_baseline_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            BaselineStore(tmp_path).load("toy")


class TestCommittedBaselines:
    """The 14 files at the repo root, read but never re-run (milliseconds)."""

    def test_every_file_is_counter_only_canonical_and_owned_by_the_registry(self):
        suite = default_suite("full")
        store = BaselineStore(REPO)
        assert store.known_cases() == sorted(suite.names)
        for case in suite:
            text = store.path_for(case.name).read_text()
            payload = json.loads(text)
            assert set(payload) == {"case", "rows", "schema", "spec"}, case.name
            assert encode(payload) == text, f"{case.name}: not canonical — hand-edited?"
            assert payload["case"] == case.name
            # a registry edit shipped without `bench update` stops here
            assert payload["spec"] == case.spec.summary(), case.name


class TestOrphanBaselines:
    def test_a_file_no_case_owns_is_an_error(self, tmp_path):
        suite = BenchSuite([tiny_case()])
        store = BaselineStore(tmp_path)
        payload = suite.run_case("toy")
        store.save(payload)
        assert orphan_baselines(suite, store) == []
        store.save({**payload, "case": "renamed_away"})
        (orphan,) = orphan_baselines(suite, store)
        assert orphan.case == "renamed_away" and not orphan.ok
        assert "no registered case owns" in orphan.errors[0]

    def test_whole_suite_diff_fails_on_an_orphan_and_a_named_case_does_not(self, tmp_path, capsys):
        # the committed files stand in for a fresh run, so no sweep executes
        for path in REPO.glob("BENCH_*.json"):
            shutil.copy(path, tmp_path)
        diff = ["diff", "--check", "--fresh", str(REPO), "--root", str(tmp_path)]
        assert main(diff) == 0
        shutil.copy(tmp_path / "BENCH_commit_mix.json", tmp_path / "BENCH_ghost.json")
        assert main(diff) == 1
        assert "no registered case owns" in capsys.readouterr().out
        assert main([*diff, "--case", "commit_mix"]) == 0


class TestCompare:
    def _payload(self, **overrides):
        suite = BenchSuite([tiny_case()])
        payload = suite.run_case("toy")
        payload.update(overrides)
        return payload

    def test_identical_payloads_clean(self):
        base = self._payload()
        fresh = json.loads(encode(base))
        verdict = compare_case(base, fresh)
        assert verdict.ok

    def test_counter_drift_is_a_hard_error(self):
        base = self._payload()
        fresh = json.loads(encode(base))
        fresh["rows"][1]["counters"]["value"] += 7
        verdict = compare_case(base, fresh)
        assert not verdict.ok
        assert any("drifted" in e and "'value'" in e for e in verdict.errors)

    def test_row_count_change_is_a_hard_error(self):
        base = self._payload()
        fresh = json.loads(encode(base))
        fresh["rows"].pop()
        verdict = compare_case(base, fresh)
        assert any("row count changed" in e for e in verdict.errors)

    def test_spec_change_is_a_hard_error(self):
        base = self._payload()
        fresh = json.loads(encode(base))
        fresh["spec"]["runs"] = 99
        verdict = compare_case(base, fresh)
        assert any("spec changed" in e for e in verdict.errors)

    def test_schema_change_is_a_hard_error(self):
        base = self._payload()
        fresh = json.loads(encode(base))
        fresh["schema"] = SCHEMA_VERSION + 1
        verdict = compare_case(base, fresh)
        assert any("schema mismatch" in e for e in verdict.errors)
