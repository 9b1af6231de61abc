"""What every client request leaves behind at every replica stays small.

A closed-loop client finishes more requests the cheaper reconfiguration
gets, so the objects kept per request — its WAL records, its history
event, its session record, its outcome row — are slotted, and one
outcome row is shared by the table, its checkpoint image and the
transfer snapshots instead of being rebuilt for each.
"""

import pytest

from repro.checkers import TxnEvent
from repro.client.session import RequestRecord
from repro.db.database import Database
from repro.db.outcomes import OutcomeTable
from repro.db.recovery import run_single_site_recovery
from repro.db.wal import (
    AbortRecord,
    BaselineRecord,
    BeginRecord,
    CommitRecord,
    NoopRecord,
    PersistentStorage,
    ReconcileRecord,
    WriteRecord,
)
from repro.replication.messages import RequestId, TransactionMessage

MESSAGE = TransactionMessage(origin="S1", local_id="T1", read_set=(), write_set=())

PER_REQUEST = [
    BaselineRecord(1),
    BeginRecord(1),
    WriteRecord(1, "obj0", 0, -1, 5),
    CommitRecord(1, RequestId("C1", 1)),
    AbortRecord(2, RequestId("C1", 2)),
    ReconcileRecord(1),
    NoopRecord(3),
    TxnEvent(site="S1", kind="commit", gid=1, message=MESSAGE, time=0.0),
    RequestRecord(client_id="C1", seq=1, reads=[], writes={}, submitted_at=0.0),
    RequestId("C1", 1),
]


@pytest.mark.parametrize("instance", PER_REQUEST, ids=lambda obj: type(obj).__name__)
def test_per_request_objects_carry_no_instance_dict(instance):
    assert not hasattr(instance, "__dict__")


def test_outcome_rows_are_shared_not_rebuilt():
    rows = (("C1", 1, 0, 4, True), ("C2", 7, 1, 9, False))
    table = OutcomeTable()
    table.reset_to(rows)
    assert all(got is sent for got, sent in zip(table.rows(), rows))
    assert table.snapshot_through(4)[0] is rows[0]
    merged = OutcomeTable()
    merged.merge(rows)
    assert all(got is sent for got, sent in zip(merged.rows(), rows))

    db = Database(PersistentStorage())
    db.outcomes = table
    db.checkpoint()
    assert all(got is sent for got, sent in zip(db.storage.outcome_image, rows))


def test_wal_round_trip_rebuilds_outcomes_from_request_ids():
    """Commit and abort records log the delivered message's own
    ``RequestId``; single-site recovery reads the table back from them."""
    storage = PersistentStorage()
    db = Database(storage)
    db.bootstrap({"obj0": 0})
    committed, aborted = RequestId("C1", 1, attempt=2), RequestId("C2", 5)
    for gid, request, commit in ((0, committed, True), (1, aborted, False)):
        db.log_begin(gid)
        db.outcomes.record(request, gid, commit)
        if commit:
            db.apply_write(gid, "obj0", "v")
            db.commit(gid, request)
        else:
            db.abort(gid, request)
    logged = [r.request for r in storage.log if isinstance(r, (CommitRecord, AbortRecord))]
    assert logged[0] is committed and logged[1] is aborted

    result = run_single_site_recovery(storage)
    assert result.outcomes.rows() == db.outcomes.rows() == (
        ("C1", 1, 2, 0, True), ("C2", 5, 0, 1, False))
    assert result.outcomes.is_duplicate(RequestId("C1", 1, attempt=3))
    assert not result.outcomes.is_duplicate(RequestId("C2", 5, attempt=1))
