"""Kick performance.

Every connectivity change kicks each engine that holds an undecided
transaction: the kick clears the blocked flag and re-arms the watchdog
of every record still in doubt.  The engine keeps its undecided records
indexed, so a kick visits only those — an engine that scanned all of
its records instead would make each kick cost as much as the site's
whole history of decided transactions.  The scenario baselines pin
what a kick does (every ``BENCH_*.json`` row); this suite pins the
shape of its time with a noise-proof ratio.
"""

import time

import pytest

from repro import Cluster
from repro.protocols.base import TxnRecord
from repro.protocols.states import TxnState
from repro.replication.catalog import CatalogBuilder


def kick_cost(decided: int, rounds: int = 2000) -> float:
    """Seconds per kick of an engine holding 2 undecided records and
    ``decided`` decided ones."""
    catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3]).build()
    cluster = Cluster(catalog, protocol="qtp1")
    engine = cluster.sites[1].ensure_engine()
    for i in range(decided):
        state = TxnState.C if i % 2 else TxnState.A
        engine._add_record(TxnRecord(f"D{i}", 2, [1, 2, 3], {"x": (i, 1)}, state=state))
    for i in range(2):
        engine._add_record(TxnRecord(f"U{i}", 2, [1, 2, 3], {"x": (i, 1)}, state=TxnState.W))
    assert len(engine.undecided) == 2
    t0 = time.perf_counter()
    for _ in range(rounds):
        engine.kick()
    elapsed = time.perf_counter() - t0
    cluster.close()
    return elapsed / rounds


@pytest.mark.perf
def test_kick_cost_ignores_decided_records():
    """Kicking 2 undecided records costs about the same beside 10 or
    5 000 decided ones: the kick is O(the records in doubt)."""
    best = {10: float("inf"), 5000: float("inf")}
    for _ in range(5):
        for decided in best:
            best[decided] = min(best[decided], kick_cost(decided))
    ratio = best[5000] / best[10]
    # a scan of every record per kick would make the 5 000-record
    # engine ~500x slower than the 10-record one; the index stays flat
    assert ratio < 3.0, f"kick looks O(records): {ratio:.1f}x time for 500x the decided records"
