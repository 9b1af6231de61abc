"""Unit tests for the correctness checkers themselves."""

import pytest

from repro.checkers import (
    ConsistencyViolation,
    HistoryRecorder,
    check_decision_agreement,
    check_gid_consistency,
    check_one_copy_serializability,
    check_processing_order,
)
from repro.replication.messages import TransactionMessage


def txn(origin="S1", local_id="S1#1", reads=(), writes=()):
    return TransactionMessage(
        origin=origin, local_id=local_id, read_set=tuple(reads), write_set=tuple(writes)
    )


class TestGidConsistency:
    def test_same_message_ok(self):
        history = HistoryRecorder()
        message = txn()
        history.record("S1", "commit", 0, message)
        history.record("S2", "commit", 0, message)
        check_gid_consistency(history)

    def test_conflicting_binding_detected(self):
        history = HistoryRecorder()
        history.record("S1", "commit", 0, txn(local_id="S1#1"))
        history.record("S2", "commit", 0, txn(local_id="S2#9"))
        with pytest.raises(ConsistencyViolation):
            check_gid_consistency(history)


class TestProcessingOrder:
    def test_duplicate_termination_detected(self):
        history = HistoryRecorder()
        message = txn()
        history.record("S1", "commit", 0, message)
        history.record("S1", "commit", 0, message)
        with pytest.raises(ConsistencyViolation):
            check_processing_order(history)

    def test_out_of_order_termination_allowed(self):
        """Non-conflicting write phases may commit out of gid order."""
        history = HistoryRecorder()
        history.record("S1", "commit", 1, txn(local_id="a"))
        history.record("S1", "commit", 0, txn(local_id="b"))
        check_processing_order(history)


class TestDecisionAgreement:
    def test_disagreement_detected(self):
        history = HistoryRecorder()
        message = txn()
        history.record("S1", "commit", 0, message)
        history.record("S2", "abort", 0, message)
        with pytest.raises(ConsistencyViolation):
            check_decision_agreement(history)

    def test_agreement_ok(self):
        history = HistoryRecorder()
        message = txn()
        history.record("S1", "abort", 0, message)
        history.record("S2", "abort", 0, message)
        check_decision_agreement(history)


class TestSerializability:
    def test_valid_history_passes(self):
        history = HistoryRecorder()
        history.record("S1", "commit", 0, txn(local_id="w0", writes=(("a", 1),)))
        history.record("S1", "commit", 1, txn(local_id="r1", reads=(("a", 0),), writes=(("a", 2),)))
        check_one_copy_serializability(history)

    def test_stale_read_detected(self):
        history = HistoryRecorder()
        history.record("S1", "commit", 0, txn(local_id="w0", writes=(("a", 1),)))
        history.record("S1", "commit", 1, txn(local_id="r1", reads=(("a", -1),)))
        with pytest.raises(ConsistencyViolation):
            check_one_copy_serializability(history)

    def test_aborted_transactions_excluded(self):
        history = HistoryRecorder()
        history.record("S1", "commit", 0, txn(local_id="w0", writes=(("a", 1),)))
        history.record("S1", "abort", 1, txn(local_id="stale", reads=(("a", -1),)))
        history.record("S1", "commit", 2, txn(local_id="r2", reads=(("a", 0),)))
        check_one_copy_serializability(history)

    def test_initial_version_read(self):
        history = HistoryRecorder()
        history.record("S1", "commit", 0, txn(local_id="r0", reads=(("a", -1),)))
        check_one_copy_serializability(history)


class TestRecorder:
    def test_commits_of_site(self):
        history = HistoryRecorder()
        history.record("S1", "commit", 0, txn())
        history.record("S1", "abort", 1, txn(local_id="x"))
        assert history.commits_of("S1") == [0]

    def test_timestamps_from_clock(self):
        now = {"t": 1.5}
        history = HistoryRecorder(clock=lambda: now["t"])
        history.record("S1", "commit", 0, txn())
        assert history.events[0].time == 1.5
