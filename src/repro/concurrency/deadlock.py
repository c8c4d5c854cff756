"""Global deadlock detection over per-site lock managers.

The simulator runs an omniscient detector (a union of every site's
waits-for edges, then a cycle search).  A real system would run a
distributed detector or timeouts; for reproducing the paper, deadlock
handling only needs to exist so random workloads cannot wedge — the
victim with the lexicographically greatest transaction id is aborted,
a deterministic choice that keeps sweeps reproducible.
"""

from __future__ import annotations

from typing import Iterable

from repro.concurrency.digraph import find_cycle
from repro.concurrency.locks import LockManager


def build_waits_for(managers: Iterable[LockManager]) -> dict[str, dict[str, None]]:
    """Union the waits-for edges of many lock managers into one digraph.

    Returns the adjacency mapping ``waiter -> {holder: None}``; every
    transaction on either end of an edge is a key.
    """
    graph: dict[str, dict[str, None]] = {}
    for manager in managers:
        for waiter, holder in manager.waits_edges():
            graph.setdefault(waiter, {})[holder] = None
            graph.setdefault(holder, {})
    return graph


def find_deadlock(managers: Iterable[LockManager]) -> list[str] | None:
    """Find one deadlock cycle, if any.

    Returns:
        The transactions on one cycle (in cycle order), or None.  When
        several cycles exist the first one a depth-first search in
        edge-insertion order closes is returned; callers re-run
        detection after aborting a victim.
    """
    return find_cycle(build_waits_for(managers))


def choose_victim(cycle: list[str]) -> str:
    """Deterministic victim: the greatest transaction id on the cycle."""
    return max(cycle)
