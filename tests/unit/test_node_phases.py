"""Fine-grained tests of the replica control phases (section 2.2)."""

import pytest

from repro.db.locks import LockMode
from repro.replication.transaction import AbortReason, TxnState
from tests.conftest import quick_cluster


class TestReadPhase:
    def test_read_set_versions_recorded(self):
        cluster = quick_cluster()
        cluster.submit_via("S1", [], {"obj0": "x"})
        cluster.settle(0.3)
        txn = cluster.submit_via("S1", ["obj0", "obj1"], {})
        cluster.settle(0.3)
        assert txn.committed
        assert txn.read_set["obj0"] >= 0  # the committed writer's gid
        assert txn.read_set["obj1"] == -1  # untouched object

    def test_read_phase_takes_time(self):
        cluster = quick_cluster()
        txn = cluster.submit_via("S1", ["obj0", "obj1", "obj2"], {"obj3": 1})
        assert txn.sent_at is None  # still in the local read phase
        cluster.settle(0.3)
        assert txn.sent_at is not None
        assert txn.sent_at > txn.submitted_at

    def test_write_only_transaction_skips_read_phase(self):
        cluster = quick_cluster()
        txn = cluster.submit_via("S1", [], {"obj0": 1})
        assert txn.state is not TxnState.LOCAL_READ
        assert txn.sent_at == txn.submitted_at

    def test_read_locks_held_until_commit(self):
        cluster = quick_cluster()
        txn = cluster.submit_via("S1", ["obj0"], {"obj1": 1})
        cluster.run_for(0.002)  # past the read phase, before delivery round-trip
        node = cluster.nodes["S1"]
        if not txn.done:
            assert node.db.locks.holds(txn.txn_id, "obj0")
        cluster.settle(0.3)
        assert txn.committed
        assert not node.db.locks.holds(txn.txn_id, "obj0")


class TestSerializationPhase:
    def test_read_then_write_same_object_upgrades(self):
        """The origin's own shared lock upgrades to exclusive — a
        transaction must never deadlock with itself."""
        cluster = quick_cluster()
        txn = cluster.submit_via("S1", ["obj0"], {"obj0": "rmw"})
        cluster.settle(0.3)
        assert txn.committed
        assert cluster.nodes["S2"].db.store.value("obj0") == "rmw"

    def test_gid_matches_delivery_order(self):
        cluster = quick_cluster()
        first = cluster.submit_via("S1", [], {"obj0": 1})
        cluster.settle(0.2)
        second = cluster.submit_via("S1", [], {"obj1": 2})
        cluster.settle(0.2)
        assert first.gid < second.gid

    def test_version_check_abort_reason_and_gid(self):
        cluster = quick_cluster()
        a = cluster.submit_via("S1", ["obj0"], {"obj0": "a"})
        b = cluster.submit_via("S2", ["obj0"], {"obj0": "b"})
        cluster.settle(0.3)
        loser = a if a.aborted else b
        assert loser.abort_reason in (AbortReason.VERSION_CHECK,
                                      AbortReason.LOCAL_READER_CONFLICT)
        if loser.abort_reason is AbortReason.VERSION_CHECK:
            # aborted at the serialization phase: it had a gid
            assert loser.gid is not None

    def test_aborted_transaction_leaves_no_trace_in_store(self):
        cluster = quick_cluster()
        a = cluster.submit_via("S1", ["obj0"], {"obj0": "a"})
        b = cluster.submit_via("S2", ["obj0"], {"obj0": "b"})
        cluster.settle(0.3)
        winner = a if a.committed else b
        expected = winner.writes["obj0"]
        for node in cluster.nodes.values():
            assert node.db.store.value("obj0") == expected


class TestWriteAndCommitPhases:
    def test_latency_includes_write_phase(self):
        from repro import NodeConfig

        cluster = quick_cluster(node_config=NodeConfig(write_op_time=0.01))
        txn = cluster.submit_via("S1", [], {"obj0": 1, "obj1": 2})
        cluster.settle(0.5)
        assert txn.committed
        assert txn.latency >= 0.01

    def test_disjoint_writes_execute_concurrently(self):
        """Two delivered transactions with disjoint write sets must not
        serialize their write phases (the paper's phase IV concurrency)."""
        from repro import NodeConfig

        results = {}
        for serial in (False, True):
            cluster = quick_cluster(seed=71,
                                    node_config=NodeConfig(write_op_time=0.01,
                                                           serial_processing=serial))
            t1 = cluster.submit_via("S1", [], {"obj0": 1})
            t2 = cluster.submit_via("S2", [], {"obj1": 2})
            cluster.settle(0.5)
            assert t1.committed and t2.committed
            results[serial] = max(t1.latency, t2.latency)
        assert results[False] < results[True]

    def test_version_tag_equals_gid_at_all_sites(self):
        cluster = quick_cluster()
        txn = cluster.submit_via("S3", [], {"obj7": "tagged"})
        cluster.settle(0.3)
        for node in cluster.nodes.values():
            assert node.db.store.version("obj7") == txn.gid

    def test_commit_registers_rectable(self):
        cluster = quick_cluster()
        txn = cluster.submit_via("S1", [], {"obj4": 9})
        cluster.settle(0.3)
        for node in cluster.nodes.values():
            node.db.rectable.ensure_current()
            if "obj4" in node.db.rectable:
                assert node.db.rectable.last_writer("obj4") == txn.gid
            else:
                # Garbage-collected: legitimate only once every site's
                # cover is at or past the writer (section 4.5, step II).
                assert node.db.cover_gid() >= txn.gid


class TestMetricsSummary:
    def test_summary_shape(self):
        cluster = quick_cluster()
        cluster.submit_via("S1", [], {"obj0": 1})
        cluster.settle(0.3)
        summary = cluster.metrics_summary()
        assert summary["commits"] == 1
        assert summary["aborts"] == 0
        assert summary["network_messages"] > 0
        assert summary["virtual_time"] == cluster.sim.now


class TestLocalTransactionTable:
    def test_table_is_bounded_by_transactions_in_flight(self):
        """A site forgets a local transaction when it terminates: the
        table holds what is in flight, not everything ever submitted."""
        cluster = quick_cluster()
        node = cluster.nodes["S1"]
        done = []
        for wave in range(100):
            txns = [
                cluster.submit_via("S1", [f"obj{5 * k}"], {f"obj{5 * k + 1}": wave})
                for k in range(5)
            ]
            assert len(node._local_txns) <= len(txns)
            cluster.settle(0.05)
            assert len(node._local_txns) <= sum(not t.done for t in txns)
            done.extend(txns)
        assert sum(t.committed for t in done) == 500
        assert len(node._local_txns) == 0

    def test_crash_terminates_and_forgets_everything_in_flight(self):
        cluster = quick_cluster()
        node = cluster.nodes["S1"]
        txns = [cluster.submit_via("S1", ["obj0"], {f"obj{k + 1}": k})
                for k in range(3)]
        assert len(node._local_txns) == 3
        cluster.crash("S1")
        assert all(t.abort_reason is AbortReason.SITE_CRASHED for t in txns)
        assert not node._local_txns
