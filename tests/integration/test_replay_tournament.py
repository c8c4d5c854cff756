"""Tests of the trace-record → replay engine (`repro.replay`).

The load-bearing contract is the record→replay *fixed point*: replaying
config C's recording under config C must reproduce the recorded
deterministic counters exactly.  Everything else — artifact round-trips,
what-if overrides, the tournament sweep — is layered on that guarantee.
"""

import dataclasses
import gc
import gzip
import hashlib
import json
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import PROTOCOL_NAMES
from repro.analysis import judge
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
from repro.experiments.sweeps import wan_storm_scenario

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


#: SHA-256 of ``tracer.dump() + json.dumps(run.counters(), sort_keys=True)``
#: for every scenario x protocol at ``SMALL_SHAPES``, seed 0 — the blob
#: CI's hash-seed step prints, both with message rows kept
#: (``message_rows=True``).  Pinned when every site's commit engine
#: was still built with its cluster; building an engine on the site's
#: first delivery (or first coordination) must not move one byte of any
#: run's trace or counters.
RUN_SHA256 = {
    "workload": {
        "2pc": "7f30b6d4ee205ac6ba8fe1db9ee3718f9635a833172454ec517af9fb5cfbba55",
        "3pc": "fac6c3a73ffb4f604a80366b7078c0decf76de4adae9c951bd96b79b3842ef02",
        "skq": "c733ef83475aedc965d211745b06cf72c243a86c3076fcc7ff0b0081bbc94f9c",
        "qtp1": "44757399a5b9a53a556185d2eeb2e2eeb29fcc9d52f55f11499b3382d6845c50",
        "qtp2": "f5ff45c551d32f1e654ee23e48d359c2db1b05bea68526d147063d07a4728f1f",
        "qtpp": "e862a6a17cdfccf404d9e494f4d2bf747341abf23115748a95b5b695e782038d",
    },
    "heavy_workload": {
        "2pc": "1e44043d4014a671e7fe109a79625febe4f571942e6a18d4596b5d76e1113237",
        "3pc": "da0c9dfe37aae96d11e309c52c472219d5705fd48b388ecb7aa1b4e89c1bfb99",
        "skq": "378c1325cf4f34fe159aab24356d15dcb9a0fcf26015a97a6f6659dc682752cf",
        "qtp1": "4e4346042240bf0f73e899150b66631dfb1219bdfc03c76719ac12d3c9031551",
        "qtp2": "988c6709f130c7923ecf4d87c8b89a8c569661565f48cd370fa216961b0f325d",
        "qtpp": "cf7dbbabd81d2ea62bfefbab97dac1df30048cf8cf21acfcd180c664bd5deda7",
    },
    "wan_storm": {
        "2pc": "37ed3bc8b634c833f2467570f09f888c450730bfa1bac0cc8ee3481375ecef25",
        "3pc": "b2bc3f071ff657c9c3bdd63de0e2d110e4d39fc85ef73da96477b38b5b29d804",
        "skq": "cb468caf0208edec505dbd9c06c5e8ca83c58eb61c13648c7886e13e4cf0ead1",
        "qtp1": "51a27e0d8b9bd0e5a78bb305666c2c420814c5bb9155d39ac8c17473809283b1",
        "qtp2": "512cece8db01da91471e08648acefefeb8eb66e619b0125d08f78967af8a89a3",
        "qtpp": "fd509647aaecc003f911b442e12296024259bd600077447e85fba8283227ee45",
    },
    "skewed_contention": {
        "2pc": "aebd9b590ea3af50ee243b276634769b6d0d5d8265f671649da0e8e0aac75bc1",
        "3pc": "8527d1e10306381148f6363edb285002c102e976d199eddf34a53ac050e4b17c",
        "skq": "12299980b48e6baa66cb9750dbf99d391c13249d6cedebdb436e962c4ab52d71",
        "qtp1": "01a507910b5a9efce5ae89258771006467e27bbb88b8b138e73b42ba7520db5d",
        "qtp2": "5b9f26c2fbfd1ec5f3ed66aaae6566ee75ab62d602c848bede0817c59972dda1",
        "qtpp": "5137aa671ab39f9af0b2b86b5aff8a23941550e46629d834cb67465bb1170f27",
    },
    "read_mostly": {
        "2pc": "3d0d9bfc017be03eb2d5226f69ebe419afedf892ae77f38ec06c909a3d167e42",
        "3pc": "f74267b49c4eed4a3f4a8b603eb5dca9c177146565dad5aa90f66a80392facaf",
        "skq": "bd262314a27529da9bec962ecbaf2beabca72cf86c874baef316baf917194226",
        "qtp1": "3aa1cb26e2087960309e1833b108856499d84480e83a62da87db69e0f0392a04",
        "qtp2": "bee674ecded91e280dcf2d7595cb41d14fbe502729782a3135d6114cc0fabad4",
        "qtpp": "1504c08a5c4bdfba0c004adf184017196b76dcec7c23877b313c0c8e52c6a270",
    },
    "cross_region": {
        "2pc": "9971549610a2d344b402b327c8a97b0075361d6a7e1b626428fdd90b5c03dadf",
        "3pc": "cae97e0b6ea0cd889d9d1c2d33538ecd0a04e9c4437dea9744975ed6180f007a",
        "skq": "5ec87a4e7d0b0d4e2677877638f4667d3650a12049aaf1dc65cf01bcf568d423",
        "qtp1": "6eda0d7dd51e5c7a8acd462d61e2718963971912fd97a314538b113a8d9455f6",
        "qtp2": "f4580f5188ab9a923d49c3d7375edf340afc958dfd3e5eb203a9153021766719",
        "qtpp": "b32619c5ae7f34ed977c0f6c20b7187d658e9e35cb9b35990f04c91e63cecba5",
    },
    "elastic_join": {
        "2pc": "96e6c29704c092007f31f17ef8dad8c59cb6845ba082672ba84410659d59b6c4",
        "3pc": "3486c2d4374999e168209f262c42a84118397a874ea5fb217115a2fdaa51cf40",
        "skq": "6e4f024e410c60ee9db65927ae0d6d10f556b24efd4ab38992aae305a11fe602",
        "qtp1": "a6089372b0ad957137b06614688c7f5917fcc45ce4c2297d238a66ffd31fed77",
        "qtp2": "2946d28aed8897399c4ad5f33bd84b824803876f4c3fd8724209220612dd8d66",
        "qtpp": "c390467398443b1f72a3c66f3a4eff2dbbae014ae6c67cf44b2965400403186b",
    },
    "open_loop": {
        "2pc": "50e2e24e8c11ee2157db30d19fe89427863aa25e1ceddfa051ff6cd50e244d60",
        "3pc": "bf0a4b37bf5daaba8a016202ac37496488305af4204abb3c1efa2fb076510f5f",
        "skq": "a4b8979dbaa26e01407baf673d7a261c5420c1cdffcfe53dceabade9a913f234",
        "qtp1": "6df4365f7277ecea7a7822d288158a1ed8b480e9ae87c09d2850e4a2d382c4bf",
        "qtp2": "ac04a90db387c3d444c12f8223e8d50548fd020339b0cc4f4c0a1551c2adc272",
        "qtpp": "7fe4736ed23aa4c26ef9ba9b7bdb18c519433c97d2e9580297204fcee3dbd231",
    },
    "rolling_upgrade": {
        "2pc": "44cbfc8ec28471b05248763cfd2c941954e4f84ed78064c95e9050a7249551ac",
        "3pc": "2c4932b175d953068837b23b05c5d9f7c986470a28feb5cc6f34b45e15566859",
        "skq": "8eca5cdecb93d8d1f0eef790269cb75e62f34c9c5150e41daad114851e2711e8",
        "qtp1": "96b3f5e664b8de49edbffc7abfca4d184ab4384ccbe53b24e06d64e7232b1fc9",
        "qtp2": "bb3c9891c70e71c78b25f9142e956e552a089b854e36aa2c9e52094e40cb7a52",
        "qtpp": "7f1f268f20b0acc12959912b5b8bf180e57a7c100df6ea6ea92f6ea3c67168f5",
    },
    "flash_crowd": {
        "2pc": "ad546fb8219ebf287d0dc8e77ef8a8e8b9ecb24e1052e4a8ef95b32102a98671",
        "3pc": "8496d317a29d5bf16f2def6b422b7d014e390a57f09b12363cc6f874e62c1ad1",
        "skq": "144742125a6d0d08e83a5a921762080c02fcd8832a659810c8a29205b300d3f6",
        "qtp1": "daf2a5f2d7788704264c3f32cc77d4aed0c7e2f19c5ecc6943a6cb571a7161a9",
        "qtp2": "ba2e08e66173325d99ff64fb89cedab3cd8b79ac89e93aff13c3ed267216311f",
        "qtpp": "00973492c635af14024d5e3adccb1c02553282d1392c0bee3fc5527d6fd383f0",
    },
    "gray_failure": {
        "2pc": "c55d1d8b2af5bac9799254169e1fdc9bd2277c2df0df8b91c02ba20a6ddee7bb",
        "3pc": "24d4b8834a166d8e1efa84e9ae38bddbd407fbdfd3fad3789e7e11fc13b933bd",
        "skq": "9d69844de94a4c940f3b9eeff247058f0cd263bb51c203505381a640a816bc8f",
        "qtp1": "ce7d4750c8767e0bd7fe8d5af7796463143c732567471a7a074d97599d983dd4",
        "qtp2": "ccd0f6f1825d0f509e31cd5b05435c1ae433f873c755e25a9c910eaad7ba99b9",
        "qtpp": "ad2394b9f19aa597ee74b8ce53a7977fbc9ed44c2178c8702827228ca92a25dd",
    },
}


class TestRunIdentityPins:
    def test_every_scenario_and_protocol_is_pinned(self):
        assert set(RUN_SHA256) == set(SCENARIOS)
        assert all(set(per) == set(PROTOCOL_NAMES) for per in RUN_SHA256.values())

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_trace_and_counters_do_not_move(self, name, protocol):
        run = run_scenario(SCENARIOS[name](**SMALL_SHAPES[name]), protocol, 0, message_rows=True)
        blob = run.cluster.tracer.dump() + json.dumps(run.counters(), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == RUN_SHA256[name][protocol]
        # the same run keeps the paper's claims (the oracle only reads)
        assert judge(run.cluster).violations == []

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_one_pass_verdicts_equal_the_per_transaction_reads(self, name, protocol):
        cluster = run_scenario(SCENARIOS[name](**SMALL_SHAPES[name]), protocol, 0).cluster
        submitted = cluster.submitted
        assert submitted
        # every outcome: the first decision of each participant
        assert cluster.verdicts().outcomes == {txn: cluster.outcome(txn).outcome for txn in submitted}
        # the committed history: some site's last decision is a commit
        committed = [txn for txn in submitted if "commit" in cluster.tracer.decisions(txn).values()]
        history = [entry for entry in cluster.committed_history() if entry.txn in submitted]
        assert [entry.txn for entry in history] == committed
        for entry in history:
            handle = submitted[entry.txn]
            assert entry.writes == {item: version for item, (_, version) in handle.writes.items()}
        # what the one read rests on: a site decides a transaction at most
        # once, and only a participant decides it
        rows = Counter((site, txn) for site, txn, _ in cluster.tracer.txn_entries("decision"))
        assert set(rows.values()) <= {1}
        assert all(site in submitted[txn].participants for site, txn in rows)
        # the oracle's in-doubt sets are the per-transaction reads
        stranded = {txn: live for txn in submitted if (live := cluster.live_undecided(txn))}
        assert cluster.verdicts().in_doubt == stranded


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
    def test_commit_latency_starts_at_the_transactions_own_begin(self):
        """The recorded E18 trace: first commit decision − coord-begin,
        not − the run's first global row (the first partition, t=20)."""
        scenario = heavy_workload_scenario(n_txns=60, n_sites=8)
        run = run_scenario(scenario, "qtp1", 0)
        tracer = run.cluster.tracer
        latencies = []
        for txn, outcome in run.result.txn_outcomes.items():
            if outcome == "commit":
                decided = [t for t, _, d in tracer.entries("decision", txn) if d["outcome"] == "commit"]
                latencies.append(min(decided) - tracer.entries("coord-begin", txn)[0][0])
        row = replay_trace(record(scenario, "qtp1", seed=0))
        assert row["committed"] == len(latencies) == 31
        assert row["mean_commit_latency"] == pytest.approx(sum(latencies) / len(latencies))
        assert row["mean_commit_latency"] == pytest.approx(4.0)  # 27.73 from the first partition row

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
    """``replay`` on an artifact the reader refuses: one ``error:`` line
    on stderr and exit status 2, never a traceback."""

    def test_unreadable_or_truncated_artifact_exits_2(self, tmp_path, capsys):
        from repro.replay.__main__ import main

        whole = small_trace().encode()
        cut = tmp_path / "cut.jsonl.gz"
        cut.write_bytes(whole[: len(whole) // 2])
        for path in (cut, tmp_path / "never-written.jsonl.gz"):
            assert main(["replay", str(path)]) == 2
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
