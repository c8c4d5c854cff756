"""The library's own graph answers agree with networkx's.

``ConflictGraph`` used to hand its digraph to networkx; it now keeps a
plain adjacency mapping and answers through
``repro.concurrency.digraph``.  networkx stays a *test-time* reference:
over random committed histories (lost updates, write skew, tied
versions and transactions that read and write one item among them) and
random digraphs (self-loops among them), the verdicts must agree and
every witness — a cycle, a serial order — must be a real one in the
reference graph.

``ConflictGraph.graph`` is the direct serialization graph (only the
nearest writers around each read are joined to it).  It must equal
:func:`reference_dsg`, and it must keep the transitive closure of the
full conflict graph (:func:`reference_conflict_graph`, every reader
joined to every writer) while holding a subset of its edges: every
verdict and witness is checked against the full graph.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import NotSerializableError, ReproError
from repro.concurrency.digraph import find_cycle, topological_order
from repro.concurrency.serializability import CommittedTxn, ConflictGraph

nx = pytest.importorskip("networkx")

ITEMS = st.sampled_from(["x", "y", "z", "w"])
FOOTPRINT = st.dictionaries(ITEMS, st.integers(0, 4), max_size=3)
HISTORIES = st.lists(st.tuples(FOOTPRINT, FOOTPRINT), max_size=9).map(
    lambda rows: [CommittedTxn(f"T{i}", reads, writes) for i, (reads, writes) in enumerate(rows)]
)

#: tied versions, a read-modify-write and a reader between two writers
TIED = [
    CommittedTxn("T0", reads={}, writes={"x": 1}),
    CommittedTxn("T1", reads={"x": 1}, writes={"x": 1}),
    CommittedTxn("T2", reads={"x": 0}, writes={"x": 2, "y": 1}),
    CommittedTxn("T3", reads={"x": 1, "y": 0}, writes={}),
    CommittedTxn("T4", reads={}, writes={"x": 3}),
]
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


def reference_dsg(history):
    """The direct serialization graph, by linear scans: per item a ww
    edge between writers of adjacent versions; per read a wr edge from
    the last other writer at or below the version read and an rw edge to
    the first other writer above it."""
    graph = nx.DiGraph()
    graph.add_nodes_from(txn.txn for txn in history)
    chains = {}
    for txn in history:
        for item, version in txn.writes.items():
            chains.setdefault(item, []).append((version, txn.txn))
    for chain in chains.values():
        chain.sort()
        for k in range(1, len(chain)):
            if chain[k - 1][1] != chain[k][1]:
                graph.add_edge(chain[k - 1][1], chain[k][1], kind="ww")
    for txn in history:
        for item, read_version in txn.reads.items():
            others = [(v, w) for v, w in chains.get(item, []) if w != txn.txn]
            at_or_below = [w for v, w in others if v <= read_version]
            above = [w for v, w in others if v > read_version]
            if at_or_below:
                graph.add_edge(at_or_below[-1], txn.txn, kind="wr")
            if above:
                graph.add_edge(txn.txn, above[0], kind="rw")
    return graph


def is_cycle_of(reference, nodes):
    return bool(nodes) and all(
        reference.has_edge(a, b) for a, b in zip(nodes, nodes[1:] + nodes[:1])
    )


@settings(max_examples=300, deadline=None)
@given(HISTORIES)
@example(LOST_UPDATE)
@example(WRITE_SKEW)
@example(TIED)
def test_conflict_graph_agrees_with_networkx(history):
    reference = reference_conflict_graph(history)
    graph = ConflictGraph(history)
    dsg = reference_dsg(history)
    assert {u: dict(vs) for u, vs in graph.graph.items()} == {
        u: {v: data["kind"] for v, data in dsg.adj[u].items()} for u in dsg
    }
    # the direct dependencies keep the full graph's reachability
    assert set(dsg.edges) <= set(reference.edges)
    assert set(nx.transitive_closure(dsg).edges) == set(nx.transitive_closure(reference).edges)
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


NODES = st.sampled_from([f"T{i}" for i in range(7)])
DIGRAPHS = st.lists(st.tuples(NODES, NODES), max_size=12)


def adjacency(edges):
    """``edges`` as the ``node -> {successor: None}`` mapping digraph reads."""
    graph = {}
    for u, v in edges:
        graph.setdefault(u, {})[v] = None
        graph.setdefault(v, {})
    return graph


@settings(max_examples=300, deadline=None)
@given(DIGRAPHS)
def test_find_cycle_agrees_with_networkx(edges):
    reference = nx.DiGraph(edges)
    cycle = find_cycle(adjacency(edges))
    try:
        nx.find_cycle(reference)
    except nx.NetworkXNoCycle:
        assert cycle is None
    else:
        assert is_cycle_of(reference, cycle)


@settings(max_examples=300, deadline=None)
@given(DIGRAPHS)
def test_topological_order_agrees_with_networkx(edges):
    reference = nx.DiGraph(edges)
    order = topological_order(adjacency(edges))
    if not nx.is_directed_acyclic_graph(reference):
        assert order is None
    else:
        assert sorted(order) == sorted(reference)
        rank = {node: i for i, node in enumerate(order)}
        assert all(rank[u] < rank[v] for u, v in reference.edges)
