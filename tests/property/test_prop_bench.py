"""Bench-suite determinism properties.

``bench diff`` is only a trustworthy gate if the suite is a *fixed
point*: running the same cases twice with the same seeds — or at any
worker count — must yield byte-identical deterministic payloads, so the
only way a committed ``BENCH_*.json`` can disagree with a fresh run is
a genuine behaviour change.  The hypothesis cases extend the guarantee
across seeds: the A/B microbenches' two arms must agree with *each
other* on every counter, and each optimized hot path must agree with a
naive reference defined in this file (swapped into the trial with
``mock.patch``, so the trial shape is the committed one).
"""

from collections import Counter
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.bench import cases, compare_case, default_suite, encode
from repro.bench.cases import (
    catalog_memo_trial,
    lock_probe_trial,
    net_fanout_flyweight_trial,
    net_fanout_trial,
    partition_churn_trial,
    recovery_replay_trial,
    suite_warm_pool_trial,
    sweep_streaming_trial,
    trace_record_trial,
    wal_append_trial,
    zipf_sampling_trial,
)
from repro.concurrency.locks import LockManager
from repro.engine.executor import run_sweep
from repro.net.network import Network
from repro.net.partitions import PartitionView
from repro.sim.trace import TraceRecord

#: cases cheap enough to run repeatedly inside tier-1.
QUICK_CASES = [
    "scheduler_drain",
    "commit_mix",
    "heavy_workload",
    "net_deliver_fanout",
    "wal_append",
    "trace_record",
    "partition_churn",
    "suite_warm_pool",
    "skewed_contention",
    "read_mostly",
    "cross_region_txn",
    "elastic_join",
    "open_loop_service",
    "ramp_ceiling",
    "rolling_upgrade",
    "flash_crowd",
    "gray_failure",
    "lock_probe",
    "net_fanout_flyweight",
    "zipf_sampling",
    "recovery_replay",
    "catalog_memo",
    "trace_replay_tournament",
    "sweep_streaming",
]


def _payload_bytes(suite, name, workers=1):
    return encode(suite.run_case(name, workers=workers))


class TestFixedPoint:
    def test_two_runs_byte_identical(self):
        suite = default_suite("quick")
        for name in QUICK_CASES:
            first = _payload_bytes(suite, name)
            second = _payload_bytes(suite, name)
            assert first == second, f"case {name} is not a fixed point"

    def test_diff_of_two_runs_is_clean(self):
        suite = default_suite("quick")
        for name in QUICK_CASES:
            baseline = suite.run_case(name)
            fresh = suite.run_case(name)
            verdict = compare_case(baseline, fresh)
            assert verdict.ok, f"{name}: {verdict.errors}"

    def test_serial_vs_parallel_byte_identical(self):
        suite = default_suite("quick")
        for name in QUICK_CASES:
            serial = _payload_bytes(suite, name, workers=1)
            parallel = _payload_bytes(suite, name, workers=2)
            assert serial == parallel, f"case {name} differs across worker counts"


class _SlowPathNetwork(Network):
    """Every message takes the per-message path: a filter is installed
    (it drops nothing), so the epoch cache and fan-out stamps never run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.add_filter(lambda msg: False)


class _FreshViewNetwork(Network):
    """Reference: validate and build a ``PartitionView`` on every event."""

    def _interned_view(self, groups):
        return PartitionView(self._nodes, groups)


class _ScanLockManager(LockManager):
    """Reference: the compatibility matrix, scanned over every holder."""

    def _grantable(self, entry, mode):
        return not entry.queue and all(mode.compatible_with(h) for h in entry.holders.values())


class _ListTracer:
    """Reference: a plain list of records, every query a linear scan."""

    dropped = 0

    def __init__(self):
        self.records = []

    def __len__(self):
        return len(self.records)

    def record(self, time, site, category, txn="", **detail):
        self.records.append(TraceRecord(time, site, category, txn, detail))

    def record_send(self, time, site, txn, mtype, dst):
        self.record(time, site, "send", txn, mtype=mtype, dst=dst)

    def record_deliver(self, time, site, txn, mtype, src):
        self.record(time, site, "deliver", txn, mtype=mtype, src=src)

    def record_drop(self, time, site, txn, mtype, dst, reason):
        self.record(time, site, "drop", txn, mtype=mtype, dst=dst, reason=reason)

    def where(self, category=None, site=None, txn=None):
        return [
            r
            for r in self.records
            if (category is None or r.category == category)
            and (site is None or r.site == site)
            and (txn is None or r.txn == txn)
        ]

    def count(self, category):
        return len(self.where(category=category))

    def decisions(self, txn):
        return {r.site: r.detail["outcome"] for r in self.where(category="decision", txn=txn)}

    def message_counts(self):
        return dict(Counter(r.detail["mtype"] for r in self.where(category="send")))


class _PoolPerSweepRunner:
    """Reference: a process pool created and torn down inside every
    ``run_sweep`` call, behind the ``SweepRunner`` surface the trial uses."""

    def __init__(self, workers):
        self.workers = workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def run_sweep(self, spec):
        return run_sweep(spec, workers=self.workers)


def _scan_replay(wal, store):
    """Reference recovery: every ``apply`` record, in LSN order."""
    installs = 0
    for record in wal:
        if record.kind != "apply" or not store.hosts(record.payload["item"]):
            continue
        item, version = record.payload["item"], record.payload["version"]
        if store.read(item).version < version:
            store.write(item, record.payload["value"], version)
            installs += 1
    return installs


class TestABCountersAgree:
    """The optimized hot paths must change time only, never behaviour."""

    @given(st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_fanout_counters_identical_across_modes(self, seed):
        with mock.patch.object(cases, "Network", _SlowPathNetwork):
            slow = net_fanout_trial(seed, n_sites=9, rounds=2)
        cached = net_fanout_trial(seed, n_sites=9, rounds=2)
        assert slow == cached

    @given(st.integers(0, 2**20))
    @settings(max_examples=5, deadline=None)
    def test_wal_replay_counters_identical_except_flushes(self, seed):
        counters = wal_append_trial(seed, n_txns=12, n_sites=5)
        kinds = {k[len("kind_") :]: v for k, v in counters.items() if k.startswith("kind_")}
        assert counters["forced"] == sum(kinds.values())
        # group commit: one flush per record the protocol answers on —
        # the begins and applies ride the next such record's batch
        assert counters["flushes"] == sum(kinds.get(k, 0) for k in ("vote", "pc", "pa", "commit", "abort"))
        assert counters["flushes"] <= counters["forced"]

    @given(st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_trace_counters_identical_across_stores(self, seed):
        with mock.patch.object(cases, "Tracer", _ListTracer):
            naive = trace_record_trial(seed, n_events=600, queries=12)
        columnar = trace_record_trial(seed, n_events=600, queries=12)
        assert naive == columnar

    @given(st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_churn_counters_identical_across_interning(self, seed):
        with mock.patch.object(cases, "Network", _FreshViewNetwork):
            fresh = partition_churn_trial(seed, n_sites=10, rounds=4)
        interned = partition_churn_trial(seed, n_sites=10, rounds=4)
        assert fresh == interned

    @given(st.integers(0, 2**10))
    @settings(max_examples=3, deadline=None)
    def test_warm_pool_counters_identical_across_executors(self, seed):
        with mock.patch.object(cases, "SweepRunner", _PoolPerSweepRunner):
            cold = suite_warm_pool_trial(seed, n_sweeps=2, runs_per_sweep=2)
        warm = suite_warm_pool_trial(seed, n_sweeps=2, runs_per_sweep=2)
        assert cold == warm

    @given(st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_flyweight_counters_identical_across_modes(self, seed):
        with mock.patch.object(cases, "Network", _SlowPathNetwork):
            messages = net_fanout_flyweight_trial(seed, n_sites=8, rounds=2)
        stamped = net_fanout_flyweight_trial(seed, n_sites=8, rounds=2)
        assert messages == stamped

    @given(st.integers(0, 2**20))
    @settings(max_examples=5, deadline=None)
    def test_recovery_replay_stores_identical_across_modes(self, seed):
        with mock.patch("repro.storage.recovery.replay_data", _scan_replay):
            scan = recovery_replay_trial(seed, n_txns=24)
        indexed = recovery_replay_trial(seed, n_txns=24)
        # install counts legitimately differ (version ladder vs newest),
        # but the replayed store state and the log shape must agree
        for key in ("wal_records_1x", "wal_records_4x", "store_checksum_1x", "store_checksum_4x"):
            assert scan[key] == indexed[key], key
        assert indexed["installed_1x"] <= scan["installed_1x"]

    @given(st.integers(0, 2**20))
    @settings(max_examples=5, deadline=None)
    def test_catalog_memo_counters_identical_across_modes(self, seed):
        # reference: no memo at all, a fresh build per cell (the trial
        # imports the name inside the function, so patch the source)
        with mock.patch(
            "repro.workload.generators.memoized_catalog", lambda rng, key, build: build(rng)
        ):
            rebuilt = catalog_memo_trial(seed, reuses=3)
        memoized = catalog_memo_trial(seed, reuses=3)
        # probe_sum pins the post-build RNG stream: state-capture hits
        # must leave the caller's draws bit-identical to a rebuild
        assert rebuilt == memoized

    @given(st.integers(0, 2**20))
    @settings(max_examples=5, deadline=None)
    def test_sweep_streaming_counters_identical_across_backends(self, seed):
        # the streaming pipeline (JsonlSink + per-row reducer) must fold
        # the exact same rows, digest, and aggregates as the classic
        # accumulate-then-aggregate path
        memory = sweep_streaming_trial(seed, streaming=False, n_cells=80, n_items=60)
        streaming = sweep_streaming_trial(seed, streaming=True, n_cells=80, n_items=60)
        assert memory == streaming

    @given(st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_lock_probe_counters_identical_across_modes(self, seed):
        # the exclusive-holder counter must reproduce every grant
        # decision of the compatibility-matrix holder scan
        with mock.patch.object(cases, "LockManager", _ScanLockManager):
            scanned = lock_probe_trial(seed, n_readers=20, probes=200)
        tracked = lock_probe_trial(seed, n_readers=20, probes=200)
        assert scanned == tracked

    @given(st.integers(0, 2**20))
    @settings(max_examples=5, deadline=None)
    def test_zipf_sampling_arms_each_deterministic(self, seed):
        # the two arms consume the RNG differently by design (the alias
        # sampler is opt-in for that reason); each arm must still be a
        # pure function of its seed
        for alias in (False, True):
            first = zipf_sampling_trial(seed, alias=alias, n_items=300, draws=40, fp_draws=8)
            second = zipf_sampling_trial(seed, alias=alias, n_items=300, draws=40, fp_draws=8)
            assert first == second
