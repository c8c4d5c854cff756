"""Tests of the trace-record → replay engine (`repro.replay`).

The load-bearing contract is the record→replay *fixed point*: replaying
config C's recording under config C must reproduce the recorded
deterministic counters exactly.  Everything else — artifact round-trips,
what-if overrides, the tournament sweep — is layered on that guarantee.
"""

import dataclasses
import gc
import gzip
import json
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StoreError
from repro.experiments import SCENARIOS
from repro.replay import (
    DEFAULT_CONFIGS,
    TRACE_DRIVERS,
    RecordedTrace,
    TournamentConfig,
    derive_catalog,
    encode_catalog,
    fixed_point_ok,
    record,
    replay_trace,
    run_tournament,
)
from repro.experiments.workload_study import heavy_workload_scenario
from repro.replication.catalog import ReplicaCatalog
from repro.sim.failures import JoinSite
from repro.traffic import run_scenario
from repro.workload.scenarios import wan_storm_scenario

#: one small E18 recording shared across the read-only tests.
_TRACE_CACHE: dict[str, RecordedTrace] = {}


def small_trace() -> RecordedTrace:
    if "heavy" not in _TRACE_CACHE:
        _TRACE_CACHE["heavy"] = record(
            heavy_workload_scenario(n_txns=20, n_sites=6, n_items=5), "qtp1", seed=3
        )
    return _TRACE_CACHE["heavy"]


class TestFixedPoint:
    def test_heavy_workload_replay_reproduces_counters(self):
        trace = small_trace()
        row = replay_trace(trace)
        assert fixed_point_ok(trace, row), (trace.counters, row)

    def test_wan_storm_replay_reproduces_counters(self):
        trace = record(wan_storm_scenario(n_regions=3, sites_per_region=4), "qtp1", seed=1)
        row = replay_trace(trace)
        assert fixed_point_ok(trace, row), (trace.counters, row)

    def test_replay_matches_recorded_tallies(self):
        trace = small_trace()
        row = replay_trace(trace)
        assert row["submitted"] == len(trace.ops)
        assert row["committed"] == trace.result["committed"]
        assert row["protocol"] == trace.protocol

    @given(st.integers(0, 2**16), st.sampled_from(["2pc", "3pc", "qtp1", "qtp2"]))
    @settings(max_examples=6, deadline=None)
    def test_fixed_point_across_seeds_and_protocols(self, seed, protocol):
        trace = record(heavy_workload_scenario(n_txns=10, n_sites=5, n_items=4), protocol, seed)
        assert fixed_point_ok(trace, replay_trace(trace))


#: every registry entry at a shape small enough for tier-1.
SMALL_SHAPES = {
    "workload": dict(n_txns=10),
    "heavy_workload": dict(n_txns=12, n_sites=6, n_items=4),
    "wan_storm": dict(n_regions=3, sites_per_region=3, n_items=4, region_replication=2, waves=2),
    "cross_region": dict(n_txns=12),
    "elastic_join": dict(n_txns=20),
    "open_loop": dict(rate=1.0, duration=20.0, n_sites=6),
    "rolling_upgrade": dict(n_txns=20, waves=2),
    "skewed_contention": dict(n_txns=16, n_sites=6, n_items=4),
    "read_mostly": dict(n_txns=16, n_sites=6, n_items=4),
    "flash_crowd": dict(duration=30.0, surge_start=10.0, surge_length=10.0, n_sites=6),
    "gray_failure": dict(rate=1.0, duration=30.0, episode_start=8.0, episode_length=12.0),
}


def small_scenario_trace(name: str, protocol: str, seed: int = 1) -> RecordedTrace:
    return record(SCENARIOS[name](**SMALL_SHAPES[name]), protocol, seed)


class TestEveryScenario:
    """Whatever the registry holds can be recorded, shipped through the
    line codec and replayed to its fixed point — with no scenario-specific
    code anywhere on that path."""

    def test_registry_and_trace_drivers_are_one_list(self):
        assert TRACE_DRIVERS == tuple(SCENARIOS)
        assert set(SMALL_SHAPES) == set(SCENARIOS)  # a new scenario joins the test below
        assert {name: build().name for name, build in SCENARIOS.items()} == {
            name: name for name in SCENARIOS
        }

    @pytest.mark.parametrize("protocol", ["2pc", "qtp1"])
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_record_codec_replay_fixed_point(self, name, protocol):
        recorded = small_scenario_trace(name, protocol)
        assert recorded.driver == name
        assert len(recorded.ops) + len(recorded.updates) > 0
        trace = RecordedTrace.from_lines(json.loads(json.dumps(recorded.to_lines())))
        placement = encode_catalog(trace.catalog)
        first = replay_trace(trace)
        assert fixed_point_ok(trace, first), (trace.counters, first)
        assert first["skipped_ops"] == 0
        # a replay leaves the trace as it found it: same row again
        assert replay_trace(trace) == first
        assert encode_catalog(trace.catalog) == placement

    def test_record_by_name_uses_the_default_shape(self):
        trace = record("workload", "qtp1", seed=2)
        assert trace.driver == "workload"
        assert trace.params == {
            "n_txns": 24, "partition_window": [20.0, 70.0], "arrival_spacing": 4.0
        }
        assert fixed_point_ok(trace, replay_trace(trace))

    @pytest.mark.parametrize(
        "name, legacy_keys",
        [
            ("heavy_workload", {"n_sites", "n_items", "replication"}),
            ("open_loop", {"n_sites", "n_items", "replication", "window"}),
            ("wan_storm", {"n_regions", "sites_per_region", "n_items", "region_replication"}),
        ],
    )
    def test_header_with_the_historical_param_keys_still_replays(self, name, legacy_keys):
        lines = small_scenario_trace(name, "qtp1").to_lines()
        assert legacy_keys <= set(lines[0]["params"])
        lines[0] = dict(
            lines[0], params={k: v for k, v in lines[0]["params"].items() if k in legacy_keys}
        )
        trace = RecordedTrace.from_lines(lines)
        assert set(trace.params) == legacy_keys
        assert fixed_point_ok(trace, replay_trace(trace))

    def test_unregistered_driver_is_rejected_on_load(self):
        lines = small_scenario_trace("workload", "qtp1").to_lines()
        with pytest.raises(StoreError, match="unknown trace driver"):
            RecordedTrace.from_lines([dict(lines[0], driver="no_such_scenario")] + lines[1:])

    def test_trace_catalog_is_the_placement_before_the_run(self):
        # the run's joins admit sites into the live catalog; the trace
        # must carry what the run *started* from, or a replay would
        # start from the end state
        trace = small_scenario_trace("elastic_join", "qtp1")
        joined = {a.site for a in trace.actions if isinstance(a, JoinSite)}
        assert joined and not joined & set(trace.catalog.all_sites())

    def test_ops_from_joined_sites_are_replayed_not_skipped(self):
        trace = small_scenario_trace("elastic_join", "qtp1")
        joined = {a.site for a in trace.actions if isinstance(a, JoinSite)}
        assert any(op.origin in joined for op in trace.ops)
        row = replay_trace(trace, TournamentConfig("as-2pc", protocol="2pc"))
        assert row["skipped_ops"] == 0 and row["submitted"] == len(trace.ops)

    def test_updates_only_stream_keeps_its_arrival_slots(self):
        trace = small_scenario_trace("cross_region", "qtp1")
        assert not trace.ops and len(trace.arrivals) == len(trace.updates) == 12
        projected = trace.workload().project(trace.catalog, sites=range(1, 13))
        assert projected.arrivals(None) == trace.arrivals
        # dropping an update drops its slot with it
        shrunk = trace.workload().project(derive_catalog(trace.catalog, drop_sites=3))
        assert shrunk.skipped_ops > 0
        assert len(shrunk.arrivals(None)) == len(shrunk) == 12 - shrunk.skipped_ops

    def test_a_scenario_run_dies_by_refcount(self):
        gc.collect()
        gc.disable()
        try:
            run = run_scenario(SCENARIOS["elastic_join"](**SMALL_SHAPES["elastic_join"]), "qtp1", 1)
            cluster = weakref.ref(run.cluster)
            assert run.counters()["joins_applied"] == 3
            del run
            assert cluster() is None
        finally:
            gc.enable()


class TestArtifact:
    def test_roundtrip_preserves_fixed_point(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.jsonl.gz"
        trace.save(path)
        loaded = RecordedTrace.load(path)
        assert fixed_point_ok(loaded, replay_trace(loaded))

    def test_encoding_is_byte_stable(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.jsonl.gz"
        trace.save(path)
        loaded = RecordedTrace.load(path)
        assert trace.encode() == loaded.encode()
        # saving the reloaded trace reproduces the artifact byte-for-byte
        again = tmp_path / "again.jsonl.gz"
        loaded.save(again)
        assert path.read_bytes() == again.read_bytes()

    def test_explicit_primaries_travel_with_a_qtpp_trace(self, tmp_path):
        recorded = record(heavy_workload_scenario(n_txns=12, n_sites=6, n_items=4), "qtpp", seed=2)
        default = recorded.catalog
        # every primary on its item's highest host instead of its lowest
        primaries = {x: max(default.item(x).copies) for x in default.item_names}
        explicit = ReplicaCatalog(
            dataclasses.replace(default.item(x), primary=primaries[x]) for x in default.item_names
        )
        assert all("primary" not in item for item in encode_catalog(default)["items"])
        assert {item["name"]: item["primary"] for item in encode_catalog(explicit)["items"]} == primaries
        trace = dataclasses.replace(recorded, catalog=explicit)
        row = replay_trace(trace)
        trace.counters = {key: row[key] for key in recorded.counters}
        path = tmp_path / "qtpp.jsonl.gz"
        trace.save(path)
        loaded = RecordedTrace.load(path)
        assert {x: loaded.catalog.primary(x) for x in loaded.catalog.item_names} == primaries
        assert fixed_point_ok(loaded, replay_trace(loaded))
        assert loaded.encode() == trace.encode()

    def test_a_decoded_primary_hosting_no_copy_is_a_store_error(self):
        lines = json.loads(json.dumps(small_trace().to_lines()))
        placement = next(line for line in lines if line.get("type") == "catalog")
        placement["items"][0]["primary"] = 99
        with pytest.raises(StoreError, match="hosts no copy"):
            RecordedTrace.from_lines(lines)

    def test_truncated_artifact_rejected(self, tmp_path):
        lines = small_trace().to_lines()
        with pytest.raises(StoreError):
            RecordedTrace.from_lines(lines[:-2] + [lines[-1]])
        with pytest.raises(StoreError):
            RecordedTrace.from_lines(lines[:-1])
        # a good header, then valid JSON that is not an object where
        # the end record belongs: named by path and line, never a raw
        # AttributeError from the end-record check
        for tail in ("[1]", '"end"'):
            path = tmp_path / "tail.jsonl.gz"
            with gzip.open(path, "wt") as fh:
                fh.write(json.dumps(lines[0]) + "\n" + tail + "\n")
            with pytest.raises(StoreError, match=r"tail\.jsonl\.gz: line 2 is not a JSON object"):
                RecordedTrace.load(path)

    def test_corrupt_gzip_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl.gz"
        path.write_bytes(b"not a gzip stream at all")
        with pytest.raises(StoreError):
            RecordedTrace.load(path)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("{this is not json\n")
        with pytest.raises(StoreError):
            RecordedTrace.load(path)
        # valid JSON, but the only line is not an object
        for only in ("[1,2]", "3"):
            with gzip.open(path, "wt") as fh:
                fh.write(only + "\n")
            with pytest.raises(StoreError, match=r"bad\.jsonl\.gz: line 1 is not a JSON object"):
                RecordedTrace.load(path)

    def test_schema_mismatch_rejected(self):
        lines = small_trace().to_lines()
        header = dict(lines[0], schema=99)
        with pytest.raises(StoreError):
            RecordedTrace.from_lines([header] + lines[1:])

    def test_wrong_kind_rejected(self):
        lines = small_trace().to_lines()
        header = dict(lines[0], kind="something-else")
        with pytest.raises(StoreError):
            RecordedTrace.from_lines([header] + lines[1:])

    def test_a_sampler_other_than_the_scan_is_refused_by_name(self):
        # every artifact carries "sampler": "scan" (a format constant);
        # no other value has a sampler to replay it
        lines = small_trace().to_lines()
        header = dict(lines[0], spec=dict(lines[0]["spec"], sampler="alias"))
        with pytest.raises(StoreError, match=r"malformed trace header: spec field 'sampler' is 'alias'"):
            RecordedTrace.from_lines([header] + lines[1:])


class TestWhatIfConfigs:
    def test_protocol_override_changes_engine_not_stream(self):
        trace = small_trace()
        row = replay_trace(trace, TournamentConfig("as-2pc", protocol="2pc"))
        assert row["protocol"] == "2pc"
        assert row["submitted"] == len(trace.ops)
        assert row["skipped_ops"] == 0

    def test_smaller_cluster_skips_unhosted_ops(self):
        trace = small_trace()
        row = replay_trace(trace, TournamentConfig("shrunk", drop_sites=2))
        # the projection is the oracle for what must be skipped
        catalog = derive_catalog(trace.catalog, drop_sites=2)
        expected = trace.workload().project(catalog)
        assert row["skipped_ops"] == expected.skipped_ops
        assert row["submitted"] == len(trace.ops) - expected.skipped_ops
        assert row["serializable"]

    def test_replay_survives_termination_race(self):
        # regression: replaying this exact stream under 3PC used to
        # crash with "already logged abort; cannot log commit" — the
        # coordinator's original round, fed late PC-acks across a
        # partition, raced its own termination attempt's abort.  The
        # stale round must stand down, not contradict the log.
        trace = record(heavy_workload_scenario(n_txns=24), "qtp1", seed=0)
        row = replay_trace(trace, TournamentConfig("as-3pc", protocol="3pc"))
        total = (
            row["committed"] + row["client_aborted"]
            + row["protocol_aborted"] + row["blocked"]
        )
        assert total == row["submitted"]
        assert row["serializable"]

    def test_coordinator_crash_hurts_commits(self):
        trace = small_trace()
        baseline = replay_trace(trace)
        crashed = replay_trace(trace, TournamentConfig("crash", crash_origin_at=0.5))
        assert crashed["committed"] < baseline["committed"]

    def test_invalid_config_rejected(self):
        with pytest.raises(StoreError):
            TournamentConfig("bad", quorum="no-such-policy")
        with pytest.raises(StoreError):
            TournamentConfig("bad", drop_sites=-1)


class TestTournament:
    def test_diff_covers_all_default_configs(self):
        rows = run_tournament(small_trace())
        assert [r["config"] for r in rows] == [c.name for c in DEFAULT_CONFIGS]
        assert len(rows) >= 3
        assert fixed_point_ok(small_trace(), rows[0])

    @given(st.integers(0, 2**10))
    @settings(max_examples=3, deadline=None)
    def test_serial_and_parallel_tournaments_byte_identical(self, seed):
        trace = record(heavy_workload_scenario(n_txns=10, n_sites=5, n_items=4), "qtp1", seed)
        serial = run_tournament(trace, workers=1)
        parallel = run_tournament(trace, workers=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


class TestCommandLine:
    """``replay`` / ``diff`` on an artifact the reader refuses: one
    ``error:`` line on stderr and exit status 2, never a traceback."""

    @pytest.mark.parametrize("command", ["replay", "diff"])
    def test_unreadable_or_truncated_artifact_exits_2(self, tmp_path, capsys, command):
        from repro.replay.__main__ import main

        whole = small_trace().encode()
        cut = tmp_path / "cut.jsonl.gz"
        cut.write_bytes(whole[: len(whole) // 2])
        for path in (cut, tmp_path / "never-written.jsonl.gz"):
            assert main([command, str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(path) in err

    @pytest.mark.parametrize("drop", [6, 7, 11])
    def test_dropping_every_site_exits_2(self, tmp_path, capsys, drop):
        from repro.replay.__main__ import main

        path = tmp_path / "whole.jsonl.gz"
        small_trace().save(path)
        assert len(small_trace().catalog.all_sites()) == 6
        assert main(["replay", str(path), "--drop-sites", str(drop)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: derived catalog is empty") and err.count("\n") == 1

    def test_a_whole_artifact_still_replays_to_its_fixed_point(self, tmp_path, capsys):
        from repro.replay.__main__ import main

        path = tmp_path / "whole.jsonl.gz"
        small_trace().save(path)
        assert main(["replay", str(path)]) == 0
        assert "fixed point" in capsys.readouterr().out


@pytest.mark.slow
class TestDeepTournament:
    """Full-scale E18 harvest replayed across the whole default matrix."""

    def test_full_scale_matrix(self):
        trace = record("heavy_workload", "qtp1", seed=0)
        rows = run_tournament(trace)
        assert fixed_point_ok(trace, rows[0])
        by_name = {r["config"]: r for r in rows}
        assert set(by_name) == {c.name for c in DEFAULT_CONFIGS}
        for row in rows:
            assert row["committed"] + row["client_aborted"] + row[
                "protocol_aborted"
            ] + row["blocked"] == row["submitted"]
