"""Unit tests for the two-level strict lock manager."""

from repro.db.locks import DB_RESOURCE, LockManager, LockMode


def granted_flags(*requests):
    return [r.granted for r in requests]


class TestBasicModes:
    def test_shared_locks_compatible(self):
        lm = LockManager()
        a = lm.request("T1", "x", LockMode.SHARED)
        b = lm.request("T2", "x", LockMode.SHARED)
        assert granted_flags(a, b) == [True, True]

    def test_exclusive_conflicts_with_shared(self):
        lm = LockManager()
        lm.request("T1", "x", LockMode.SHARED)
        b = lm.request("T2", "x", LockMode.EXCLUSIVE)
        assert not b.granted

    def test_shared_waits_for_exclusive(self):
        lm = LockManager()
        lm.request("T1", "x", LockMode.EXCLUSIVE)
        b = lm.request("T2", "x", LockMode.SHARED)
        assert not b.granted
        lm.release("T1", "x")
        assert b.granted

    def test_different_objects_independent(self):
        lm = LockManager()
        lm.request("T1", "x", LockMode.EXCLUSIVE)
        b = lm.request("T2", "y", LockMode.EXCLUSIVE)
        assert b.granted

    def test_same_txn_reentrant(self):
        lm = LockManager()
        lm.request("T1", "x", LockMode.SHARED)
        b = lm.request("T1", "x", LockMode.EXCLUSIVE)  # upgrade, no other holders
        assert b.granted
        assert lm.holders("x")["T1"] is LockMode.EXCLUSIVE

    def test_upgrade_does_not_downgrade(self):
        lm = LockManager()
        lm.request("T1", "x", LockMode.EXCLUSIVE)
        lm.request("T1", "x", LockMode.SHARED)
        assert lm.holders("x")["T1"] is LockMode.EXCLUSIVE

    def test_on_grant_callback_fires_on_release(self):
        lm = LockManager()
        fired = []
        lm.request("T1", "x", LockMode.EXCLUSIVE)
        lm.request("T2", "x", LockMode.EXCLUSIVE, fired.append)
        assert fired == []
        lm.release("T1")
        assert len(fired) == 1 and fired[0].granted

    def test_release_all_resources(self):
        lm = LockManager()
        lm.request("T1", "x", LockMode.EXCLUSIVE)
        lm.request("T1", "y", LockMode.EXCLUSIVE)
        lm.release("T1")
        assert lm.holders("x") == {} and lm.holders("y") == {}


class TestFifoFairness:
    def test_no_overtaking_queued_writer(self):
        lm = LockManager()
        lm.request("T1", "x", LockMode.EXCLUSIVE)
        waiting_writer = lm.request("T2", "x", LockMode.EXCLUSIVE)
        late_reader = lm.request("T3", "x", LockMode.SHARED)
        lm.release("T1")
        assert waiting_writer.granted
        assert not late_reader.granted  # behind T2
        lm.release("T2")
        assert late_reader.granted

    def test_concurrent_readers_granted_together(self):
        lm = LockManager()
        lm.request("T1", "x", LockMode.EXCLUSIVE)
        r1 = lm.request("T2", "x", LockMode.SHARED)
        r2 = lm.request("T3", "x", LockMode.SHARED)
        lm.release("T1")
        assert r1.granted and r2.granted

    def test_waiting_for_reports_blockers(self):
        lm = LockManager()
        lm.request("T1", "x", LockMode.EXCLUSIVE)
        waiting = lm.request("T2", "x", LockMode.EXCLUSIVE)
        assert lm.waiting_for(waiting) == {"T1"}

    def test_cancel_removes_waiting_and_holds(self):
        lm = LockManager()
        lm.request("T1", "x", LockMode.EXCLUSIVE)
        waiter = lm.request("T2", "x", LockMode.EXCLUSIVE)
        third = lm.request("T3", "x", LockMode.EXCLUSIVE)
        lm.cancel("T2")
        lm.release("T1")
        assert third.granted
        assert waiter.cancelled and not waiter.granted


class TestDatabaseLock:
    def test_db_shared_conflicts_with_object_writer(self):
        lm = LockManager()
        lm.request("W", "x", LockMode.EXCLUSIVE)
        db = lm.request("XFER", DB_RESOURCE, LockMode.SHARED)
        assert not db.granted
        lm.release("W")
        assert db.granted

    def test_object_writer_waits_behind_db_lock(self):
        lm = LockManager()
        lm.request("XFER", DB_RESOURCE, LockMode.SHARED)
        writer = lm.request("W", "x", LockMode.EXCLUSIVE)
        assert not writer.granted
        lm.release("XFER")
        assert writer.granted

    def test_db_shared_compatible_with_object_readers(self):
        lm = LockManager()
        lm.request("R", "x", LockMode.SHARED)
        db = lm.request("XFER", DB_RESOURCE, LockMode.SHARED)
        assert db.granted

    def test_queued_db_lock_blocks_later_writers(self):
        lm = LockManager()
        lm.request("W1", "x", LockMode.EXCLUSIVE)
        db = lm.request("XFER", DB_RESOURCE, LockMode.SHARED)
        w2 = lm.request("W2", "y", LockMode.EXCLUSIVE)  # later than queued DB lock
        assert not w2.granted
        lm.release("W1")
        assert db.granted
        lm.release("XFER")
        assert w2.granted

    def test_inherit_ticket_downgrade(self):
        """The RecTable pattern: object locks inherit the DB lock's
        position so writers queued behind the DB lock stay behind."""
        lm = LockManager()
        db = lm.request("XFER", DB_RESOURCE, LockMode.SHARED)
        writer = lm.request("W", "x", LockMode.EXCLUSIVE)  # queued behind DB lock
        fine = lm.request("XFER", "x", LockMode.SHARED, inherit_ticket=db.ticket)
        lm.release("XFER", DB_RESOURCE)
        assert fine.granted
        assert not writer.granted  # still behind the inherited position
        lm.release("XFER", "x")
        assert writer.granted

    def test_without_inherit_ticket_writer_wins(self):
        lm = LockManager()
        lm.request("XFER", DB_RESOURCE, LockMode.SHARED)
        writer = lm.request("W", "x", LockMode.EXCLUSIVE)
        fine = lm.request("XFER", "x", LockMode.SHARED)  # fresh ticket, after W
        lm.release("XFER", DB_RESOURCE)
        assert writer.granted
        assert not fine.granted


class TestWaitQueueIndex:
    def test_simultaneously_eligible_granted_in_enqueue_order(self):
        """One release frees two objects; the waiter queued first goes
        first even though the other carries a lower (inherited) ticket."""
        lm = LockManager()
        order = []
        coarse = lm.request("XFER", "z", LockMode.SHARED)
        lm.request("T1", "a", LockMode.EXCLUSIVE)
        lm.request("T1", "b", LockMode.EXCLUSIVE)
        writer = lm.request("W", "a", LockMode.EXCLUSIVE, lambda r: order.append(r.txn_id))
        fine = lm.request("XFER", "b", LockMode.SHARED, lambda r: order.append(r.txn_id),
                          inherit_ticket=coarse.ticket)
        assert fine.ticket < writer.ticket
        lm.release("T1")
        assert order == ["W", "XFER"]

    def test_release_examines_only_overlapping_queues(self):
        """The recover_full shape: a transfer transaction holds shared
        locks on everything, writers queue on other objects, one object
        is released.  The eligibility checks that release costs must not
        grow with the number of unrelated waiters."""

        def checks_for(unrelated_waiters: int) -> int:
            lm = LockManager()
            for i in range(500):
                lm.request("XFER", f"obj{i}", LockMode.SHARED)
            blocked = lm.request("W", "obj0", LockMode.EXCLUSIVE)
            for i in range(unrelated_waiters):
                lm.request(f"U{i}", f"obj{i + 1}", LockMode.EXCLUSIVE)
            calls = []
            grantable = lm._grantable
            lm._grantable = lambda request: calls.append(request) or grantable(request)
            lm.release("XFER", "obj0")
            assert blocked.granted
            assert len(lm.waiting_requests()) == unrelated_waiters
            return len(calls)

        assert checks_for(400) == checks_for(4) <= 2

    def test_uncontended_grants_record_no_wait(self):
        lm = LockManager()
        lm.request("T1", "x", LockMode.SHARED)
        lm.request("T2", "x", LockMode.SHARED)
        assert lm.wait_times == []


class TestMetrics:
    def test_wait_times_recorded(self):
        now = {"t": 0.0}
        lm = LockManager(clock=lambda: now["t"])
        lm.request("T1", "x", LockMode.EXCLUSIVE)
        lm.request("T2", "x", LockMode.EXCLUSIVE)
        now["t"] = 2.5
        lm.release("T1")
        assert 2.5 in lm.wait_times

    def test_grant_counter(self):
        lm = LockManager()
        lm.request("T1", "x", LockMode.SHARED)
        lm.request("T2", "x", LockMode.SHARED)
        assert lm.grants == 2
