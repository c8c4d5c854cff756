"""The library's own graph answers agree with networkx's.

``ConflictGraph`` and the deadlock detector used to hand their digraphs
to networkx; they now keep a plain adjacency mapping and answer through
``repro.concurrency.digraph``.  networkx stays a *test-time* reference:
over random committed histories (lost updates and write skew among
them) and random waits-for graphs, the verdicts must agree and every
witness — a cycle, a serial order — must be a real one in the reference
graph.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import NotSerializableError, ReproError
from repro.concurrency.deadlock import build_waits_for, find_deadlock
from repro.concurrency.serializability import CommittedTxn, ConflictGraph

nx = pytest.importorskip("networkx")

ITEMS = st.sampled_from(["x", "y", "z", "w"])
FOOTPRINT = st.dictionaries(ITEMS, st.integers(0, 4), max_size=3)
HISTORIES = st.lists(st.tuples(FOOTPRINT, FOOTPRINT), max_size=9).map(
    lambda rows: [CommittedTxn(f"T{i}", reads, writes) for i, (reads, writes) in enumerate(rows)]
)

LOST_UPDATE = [
    CommittedTxn("T0", reads={"x": 0}, writes={"x": 1}),
    CommittedTxn("T1", reads={"x": 0}, writes={"x": 2}),
]
WRITE_SKEW = [
    CommittedTxn("T0", reads={"x": 0}, writes={"y": 1}),
    CommittedTxn("T1", reads={"y": 0}, writes={"x": 1}),
]


def reference_conflict_graph(history):
    """The conflict graph as the library built it on networkx."""
    graph = nx.DiGraph()
    graph.add_nodes_from(txn.txn for txn in history)
    by_item_writes = {}
    for txn in history:
        for item, version in txn.writes.items():
            by_item_writes.setdefault(item, []).append((version, txn.txn))
    for writes in by_item_writes.values():
        writes.sort()
        for (_, earlier), (_, later) in zip(writes, writes[1:]):
            if earlier != later:
                graph.add_edge(earlier, later, kind="ww")
    for txn in history:
        for item, read_version in txn.reads.items():
            for write_version, writer in by_item_writes.get(item, []):
                if writer == txn.txn:
                    continue
                if write_version <= read_version:
                    graph.add_edge(writer, txn.txn, kind="wr")
                else:
                    graph.add_edge(txn.txn, writer, kind="rw")
    return graph


def is_cycle_of(reference, nodes):
    return bool(nodes) and all(
        reference.has_edge(a, b) for a, b in zip(nodes, nodes[1:] + nodes[:1])
    )


@settings(max_examples=300, deadline=None)
@given(HISTORIES)
@example(LOST_UPDATE)
@example(WRITE_SKEW)
def test_conflict_graph_agrees_with_networkx(history):
    reference = reference_conflict_graph(history)
    graph = ConflictGraph(history)
    assert {u: dict(vs) for u, vs in graph.graph.items()} == {
        u: {v: data["kind"] for v, data in reference.adj[u].items()} for u in reference
    }
    acyclic = nx.is_directed_acyclic_graph(reference)
    assert graph.is_serializable() == acyclic
    cycle = graph.cycle()
    if acyclic:
        assert cycle is None
        order = graph.serial_order()
        assert sorted(order) == sorted(reference.nodes)
        rank = {txn: k for k, txn in enumerate(order)}
        assert all(rank[u] < rank[v] for u, v in reference.edges)
    else:
        assert is_cycle_of(reference, cycle)
        with pytest.raises(NotSerializableError) as raised:
            graph.serial_order()
        assert isinstance(raised.value, ReproError)
        assert is_cycle_of(reference, raised.value.cycle)


class Edges:
    """All the deadlock detector asks of a lock manager."""

    def __init__(self, edges):
        self._edges = edges

    def waits_edges(self):
        return self._edges


TXNS = st.sampled_from([f"T{i}" for i in range(7)])
WAITS = st.lists(st.lists(st.tuples(TXNS, TXNS), max_size=6), max_size=4)


@settings(max_examples=300, deadline=None)
@given(WAITS)
def test_deadlock_detection_agrees_with_networkx(per_site_edges):
    managers = [Edges(edges) for edges in per_site_edges]
    reference = nx.DiGraph(edge for edges in per_site_edges for edge in edges)
    graph = build_waits_for(managers)
    assert {u: set(vs) for u, vs in graph.items()} == {u: set(reference.adj[u]) for u in reference}
    cycle = find_deadlock(managers)
    try:
        nx.find_cycle(reference)
    except nx.NetworkXNoCycle:
        assert cycle is None
    else:
        assert is_cycle_of(reference, cycle)
