"""Unit tests for the WAL, replica store and recovery."""

import pytest

from repro.common.errors import StorageError
from repro.protocols.states import TxnState
from repro.storage.recovery import recover_protocol_states, replay_data
from repro.storage.store import ReplicaStore
from repro.storage.wal import WriteAheadLog


class TestWal:
    def test_lsns_increase(self):
        wal = WriteAheadLog(1)
        r1 = wal.force("T1", "begin")
        r2 = wal.force("T1", "vote", vote="yes")
        assert r2.lsn == r1.lsn + 1

    def test_unknown_kind_rejected(self):
        wal = WriteAheadLog(1)
        with pytest.raises(StorageError, match="unknown log record kind"):
            wal.force("T1", "frobnicate")

    def test_decision_is_irrevocable(self):
        wal = WriteAheadLog(1)
        wal.force("T1", "commit")
        with pytest.raises(StorageError, match="already logged"):
            wal.force("T1", "abort")

    def test_same_decision_twice_is_fine(self):
        wal = WriteAheadLog(1)
        wal.force("T1", "commit")
        wal.force("T1", "commit")
        assert wal.decision("T1") == "commit"

    def test_decision_none_when_undecided(self):
        wal = WriteAheadLog(1)
        wal.force("T1", "begin")
        assert wal.decision("T1") is None

    def test_for_txn_filters(self):
        wal = WriteAheadLog(1)
        wal.force("T1", "begin")
        wal.force("T2", "begin")
        wal.force("T1", "vote", vote="yes")
        assert [r.kind for r in wal.for_txn("T1")] == ["begin", "vote"]

    def test_open_txns_excludes_decided(self):
        wal = WriteAheadLog(1)
        wal.force("T1", "begin")
        wal.force("T2", "begin")
        wal.force("T1", "commit")
        assert wal.open_txns() == ["T2"]

    def test_decide_rejects_a_non_decision(self):
        wal = WriteAheadLog(1)
        with pytest.raises(StorageError, match="unknown decision kind"):
            wal.decide("T1", "pc")
        assert wal.forced == 0

    def test_participant_decision_ignores_the_coordinator_role(self):
        wal = WriteAheadLog(1)
        wal.begin("T1", {"x": (7, 1)}, [1, 2], 1, 0, role="coordinator")
        wal.begin("T1", {"x": (7, 1)}, [1, 2], 1, 0)
        wal.decide("T1", "commit", role="coordinator")
        assert (wal.decision("T1"), wal.participant_decision("T1")) == ("commit", None)
        with pytest.raises(StorageError, match="already logged commit"):
            wal.decide("T1", "abort")  # irrevocable across roles
        wal.decide("T1", "commit")
        assert wal.participant_decision("T1") == "commit"

    def test_last_protocol_record_skips_apply(self):
        wal = WriteAheadLog(1)
        wal.force("T1", "begin")
        wal.force("T1", "pc")
        wal.force("T1", "apply", item="x", value=1, version=1)
        assert wal.last_protocol_record("T1").kind == "pc"


class TestStore:
    def test_host_and_read(self):
        store = ReplicaStore(1)
        store.host("x", value=5, version=2)
        assert store.read("x").value == 5
        assert store.read("x").version == 2

    def test_double_host_rejected(self):
        store = ReplicaStore(1)
        store.host("x")
        with pytest.raises(StorageError, match="already hosts"):
            store.host("x")

    def test_read_missing_copy_rejected(self):
        store = ReplicaStore(1)
        with pytest.raises(StorageError, match="no copy"):
            store.read("x")

    def test_write_bumps_version(self):
        store = ReplicaStore(1)
        store.host("x", value=0, version=0)
        store.write("x", 10, 1)
        assert store.read("x").version == 1

    def test_stale_write_rejected(self):
        store = ReplicaStore(1)
        store.host("x", value=0, version=5)
        with pytest.raises(StorageError, match="stale write"):
            store.write("x", 1, 5)

    def test_items_sorted(self):
        store = ReplicaStore(1)
        store.host("b")
        store.host("a")
        assert [name for name, __ in store.items()] == ["a", "b"]


class TestRecovery:
    def test_replay_installs_committed_writes(self):
        wal = WriteAheadLog(1)
        store = ReplicaStore(1)
        store.host("x", value=0, version=0)
        wal.force("T1", "apply", item="x", value=42, version=1)
        replayed = replay_data(wal, store)
        assert replayed == 1
        assert store.read("x").value == 42

    def test_replay_is_idempotent(self):
        wal = WriteAheadLog(1)
        store = ReplicaStore(1)
        store.host("x", value=0, version=0)
        wal.force("T1", "apply", item="x", value=42, version=1)
        replay_data(wal, store)
        assert replay_data(wal, store) == 0

    def test_replay_skips_unhosted_items(self):
        wal = WriteAheadLog(1)
        store = ReplicaStore(1)
        wal.force("T1", "apply", item="ghost", value=1, version=1)
        assert replay_data(wal, store) == 0

    def test_recover_states_by_anchor(self):
        wal = WriteAheadLog(1)
        wal.force("T1", "begin")
        wal.force("T2", "begin")
        wal.force("T2", "vote", vote="yes")
        wal.force("T3", "begin")
        wal.force("T3", "vote", vote="yes")
        wal.force("T3", "pc")
        wal.force("T4", "begin")
        wal.force("T4", "vote", vote="yes")
        wal.force("T4", "pa")
        states = recover_protocol_states(wal)
        assert states == {
            "T1": TxnState.Q,
            "T2": TxnState.W,
            "T3": TxnState.PC,
            "T4": TxnState.PA,
        }

    def test_recover_excludes_decided(self):
        wal = WriteAheadLog(1)
        wal.force("T1", "begin")
        wal.force("T1", "vote", vote="yes")
        wal.force("T1", "commit")
        assert recover_protocol_states(wal) == {}

    def test_no_vote_recovers_to_q(self):
        wal = WriteAheadLog(1)
        wal.force("T1", "begin")
        wal.force("T1", "vote", vote="no")
        assert recover_protocol_states(wal)["T1"] is TxnState.Q


def _messy_wal(site: int) -> WriteAheadLog:
    """A WAL with stale, duplicate and non-hosted apply records."""
    wal = WriteAheadLog(site)
    wal.force("T1", "begin")
    wal.force("T1", "apply", item="x", value=10, version=1)
    wal.force("T1", "commit")
    wal.force("T2", "begin")
    wal.force("T2", "apply", item="x", value=20, version=3)  # ladder jump
    wal.force("T2", "apply", item="y", value=5, version=1)
    wal.force("T2", "commit")
    wal.force("T3", "begin")
    wal.force("T3", "apply", item="x", value=20, version=3)  # exact duplicate
    wal.force("T3", "apply", item="ghost", value=9, version=4)  # never hosted
    wal.force("T3", "apply", item="y", value=4, version=1)  # stale duplicate
    wal.force("T3", "commit")
    return wal


def _fresh_store(site: int) -> ReplicaStore:
    store = ReplicaStore(site)
    store.host("x", value=0, version=0)
    store.host("y", value=0, version=2)  # already newer than every y apply
    return store


def _scan_replay(wal: WriteAheadLog, store: ReplicaStore) -> int:
    """Reference replay: every ``apply`` record, in LSN order."""
    installs = 0
    for record in wal:
        if record.kind != "apply" or not store.hosts(record.payload["item"]):
            continue
        item, version = record.payload["item"], record.payload["version"]
        if store.read(item).version < version:
            store.write(item, record.payload["value"], version)
            installs += 1
    return installs


class TestIndexedReplay:
    """The per-item apply index must replay exactly what a log scan does."""

    def test_indexed_matches_scan_replay_state(self):
        wal = _messy_wal(1)
        scanned = _fresh_store(1)
        _scan_replay(wal, scanned)
        indexed = _fresh_store(1)
        replay_data(wal, indexed)
        assert list(indexed.items()) == list(scanned.items())
        assert indexed.read("x").version == 3
        assert indexed.read("x").value == 20
        assert indexed.read("y").version == 2  # stale applies skipped

    def test_indexed_installs_only_newest_version(self):
        # the scan walks x through v1 then v3 (two installs); the index
        # jumps straight to v3 (one install) — same final state
        wal = _messy_wal(1)
        assert _scan_replay(wal, _fresh_store(1)) == 2
        assert replay_data(wal, _fresh_store(1)) == 1

    def test_latest_applies_tracks_newest_per_item(self):
        wal = _messy_wal(1)
        assert wal.latest_applies() == {
            "x": (3, 20),
            "y": (1, 5),
            "ghost": (4, 9),
        }

    def test_indexed_replay_is_idempotent(self):
        wal = _messy_wal(1)
        store = _fresh_store(1)
        replay_data(wal, store)
        assert replay_data(wal, store) == 0
