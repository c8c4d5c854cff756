"""Unit tests for the conflict-graph serializability checker."""

from repro.concurrency.serializability import CommittedTxn, ConflictGraph


class TestSerializable:
    def test_disjoint_txns_serializable(self):
        history = [
            CommittedTxn("T1", writes={"x": 1}),
            CommittedTxn("T2", writes={"y": 1}),
        ]
        graph = ConflictGraph(history)
        assert graph.is_serializable()
        assert graph.cycle() is None

    def test_ww_chain_is_ordered(self):
        history = [
            CommittedTxn("T2", writes={"x": 2}),
            CommittedTxn("T1", writes={"x": 1}),
        ]
        graph = ConflictGraph(history)
        assert graph.is_serializable()
        assert graph.graph == {"T1": {"T2": "ww"}, "T2": {}}

    def test_wr_edge_orders_reader_after_writer(self):
        history = [
            CommittedTxn("T1", writes={"x": 1}),
            CommittedTxn("T2", reads={"x": 1}, writes={"y": 1}),
        ]
        assert ConflictGraph(history).graph == {"T1": {"T2": "wr"}, "T2": {}}

    def test_rw_edge_orders_reader_before_later_writer(self):
        history = [
            CommittedTxn("T1", reads={"x": 0}),
            CommittedTxn("T2", writes={"x": 1}),
        ]
        assert ConflictGraph(history).graph == {"T1": {"T2": "rw"}, "T2": {}}

    def test_empty_history(self):
        assert ConflictGraph([]).is_serializable()


class TestNonSerializable:
    def test_write_skew_style_cycle(self):
        # T1 reads x before T2 writes it; T2 reads y before T1 writes it.
        history = [
            CommittedTxn("T1", reads={"x": 0}, writes={"y": 1}),
            CommittedTxn("T2", reads={"y": 0}, writes={"x": 1}),
        ]
        graph = ConflictGraph(history)
        assert not graph.is_serializable()
        assert set(graph.cycle()) == {"T1", "T2"}

    def test_lost_update_cycle(self):
        # both read version 0 of x, both write x -> rw + ww cycle
        history = [
            CommittedTxn("T1", reads={"x": 0}, writes={"x": 1}),
            CommittedTxn("T2", reads={"x": 0}, writes={"x": 2}),
        ]
        assert not ConflictGraph(history).is_serializable()


class TestGraphShape:
    def test_graph_is_the_adjacency_mapping(self):
        history = [
            CommittedTxn("T1", writes={"x": 1}),
            CommittedTxn("T2", reads={"x": 1}, writes={"x": 2}),
            CommittedTxn("T3", writes={"y": 1}),
        ]
        assert ConflictGraph(history).graph == {"T1": {"T2": "wr"}, "T2": {}, "T3": {}}

    def test_a_long_version_chain_needs_no_recursion(self):
        history = [CommittedTxn(f"T{i}", writes={"x": i}) for i in range(5000)]
        graph = ConflictGraph(history)
        assert graph.is_serializable() and graph.cycle() is None
        loop = history + [CommittedTxn("T-late", reads={"x": 0}, writes={"x": 5000})]
        assert len(ConflictGraph(loop).cycle()) == 5000
