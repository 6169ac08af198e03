"""Unit tests for the statistics containers."""

from repro.simnet.stats import NodeStats, RunStats


class TestNodeStats:
    def test_total_packets(self):
        stats = NodeStats(node="a")
        stats.data_packets_sent = 3
        stats.data_packets_received = 4
        stats.control_packets_sent = 2
        stats.control_packets_received = 1
        assert stats.total_packets() == 10

    def test_record_rollback_accumulates(self):
        stats = NodeStats(node="a")
        stats.record_rollback(500, depth=3)
        stats.record_rollback(700, depth=1)
        assert stats.rollbacks == 2
        assert stats.messages_rolled_back == 4
        assert stats.rollback_samples_us == [500, 700]

    def test_record_processing_and_memory(self):
        stats = NodeStats(node="a")
        stats.record_processing(120)
        stats.record_memory(10, 5)
        assert stats.processing_samples_us == [120]
        assert list(stats.virtual_memory_samples) == [10]
        assert list(stats.physical_memory_samples) == [5]


class TestRunStats:
    def test_node_accessor_creates_lazily(self):
        run = RunStats()
        run.node("x").data_packets_sent += 1
        assert run.node("x").data_packets_sent == 1
        assert set(run.per_node) == {"x"}

    def test_packets_per_node(self):
        run = RunStats()
        run.node("a").data_packets_sent = 2
        run.node("b").control_packets_received = 3
        assert sorted(run.packets_per_node()) == [2, 3]

    def test_aggregations(self):
        run = RunStats()
        run.node("a").record_rollback(100, 1)
        run.node("b").record_rollback(200, 2)
        run.node("a").record_processing(10)
        run.node("b").record_processing(20)
        assert run.total_rollbacks() == 2
        assert sorted(run.all_rollback_samples()) == [100, 200]
        assert sorted(run.all_processing_samples()) == [10, 20]

    def test_control_packet_totals(self):
        run = RunStats()
        run.node("a").control_packets_sent = 4
        run.node("b").control_packets_received = 6
        assert run.total_control_packets() == 10
