"""Unit tests for the correctness checkers themselves."""

import pytest

from repro.checkers import (
    ConsistencyViolation,
    HistoryRecorder,
    check_decision_agreement,
    check_gid_consistency,
    check_installed_state,
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

    def test_by_site_groups_the_one_event_list(self):
        """Events are kept once; the per-site view is computed from
        them, sites in order of their first event."""
        history = HistoryRecorder()
        history.record("S2", "commit", 0, txn())
        history.record("S1", "commit", 0, txn())
        history.record("S2", "abort", 1, txn(local_id="x"))
        grouped = history.by_site()
        assert list(grouped) == ["S2", "S1"]
        first, second, third = history.events
        assert grouped["S2"][0] is first and grouped["S2"][1] is third
        assert grouped["S1"] == [second]
        assert "by_site" not in vars(history)

    def test_timestamps_from_clock(self):
        now = {"t": 1.5}
        history = HistoryRecorder(clock=lambda: now["t"])
        history.record("S1", "commit", 0, txn())
        assert history.events[0].time == 1.5


class TestInstalledState:
    """A transfer install is the peer's committed state at its boundary:
    (1) version <= boundary, (2) the value is what that version wrote,
    (3) no committed write to the object in (version, boundary]."""

    def history(self):
        history = HistoryRecorder(initial={"a": 0, "b": 0})
        history.record("S1", "commit", 3, txn(local_id="t3", writes=[("a", "three")]))
        history.record("S1", "abort", 5, txn(local_id="t5", writes=[("a", "five")]))
        history.record("S1", "commit", 7, txn(local_id="t7", writes=[("a", "seven")]))
        return history

    def test_committed_state_at_the_boundary_passes(self):
        history = self.history()
        history.record_install("S3", 6, (("a", "three", 3), ("b", 0, -1)))
        history.record_install("S3", 7, (("a", "seven", 7),))
        check_installed_state(history)

    @pytest.mark.parametrize("item, expected", [
        (("a", "seven", 7), "'three' at version 3"),  # (1) above the boundary
        (("a", "bitrot", 3), "'three' at version 3"),  # (2) another value
        (("b", 1, -1), "0 at version -1"),  # (2) not the bootstrap value
        (("a", 0, -1), "'three' at version 3"),  # (3) a commit in between
    ], ids=["newer", "wrong-value", "wrong-bootstrap", "stale"])
    def test_wrong_install_detected(self, item, expected):
        history = self.history()
        history.record_install("S3", 6, (item,))
        with pytest.raises(ConsistencyViolation, match=expected):
            check_installed_state(history)

    def test_commits_recorded_after_an_install_are_indexed_for_the_next(self):
        """Each install reads the commits recorded up to it, once."""
        history = self.history()
        history.record_install("S3", 7, (("a", "seven", 7),))
        history.record("S2", "commit", 7, txn(local_id="t7", writes=[("a", "seven")]))
        history.record("S2", "commit", 9, txn(local_id="t9", writes=[("a", "nine")]))
        history.record_install("S4", 9, (("a", "nine", 9),))
        history.record_install("S4", 8, (("a", "seven", 7),))
        check_installed_state(history)

    @staticmethod
    def scan_rule(events, initial, site, boundary, items):
        """The install rule as a scan over every gid written to the
        object, kept here as the reference the indexed recorder must
        match."""
        writes = {}
        for event in events:
            if event.kind == "commit":
                for obj, value in event.message.write_set:
                    writes.setdefault(obj, {})[event.gid] = value
        wrong = []
        for obj, value, version in items:
            written = writes.get(obj, {})
            last = max((gid for gid in written if gid <= boundary), default=-1)
            expected = (last, written.get(last, initial.get(obj)))
            if (version, value) != expected:
                wrong.append(
                    f"{site} installed {obj}={value!r} at version {version} from a "
                    f"transfer bounded at gid {boundary}, but the committed state "
                    f"there is {expected[1]!r} at version {expected[0]}")
        return wrong

    def test_indexed_lookup_equals_the_scan(self):
        """Random histories: one gid committed at several sites, gids
        recorded out of order, aborts, and installs between the records,
        some right and some wrong.  The recorder reports exactly the
        scan's wrong installs, in the same order and words."""
        import random

        objects = ["a", "b", "c", "d"]
        initial = {obj: 0 for obj in objects}
        wrong = installed = 0
        for seed in range(20):
            rng = random.Random(seed)
            history = HistoryRecorder(initial=initial)
            expected = []
            gids = list(range(60))
            rng.shuffle(gids)
            for gid in gids:
                writes = [(obj, f"{obj}{gid}")
                          for obj in rng.sample(objects, rng.randint(1, 3))]
                kind = "abort" if rng.random() < 0.2 else "commit"
                for site in rng.sample(["S1", "S2", "S3"], rng.randint(1, 3)):
                    history.record(site, kind, gid, txn(local_id=f"t{gid}", writes=writes))
                if rng.random() < 0.3:
                    boundary = rng.randint(-1, 60)
                    items = []
                    for obj in rng.sample(objects, rng.randint(1, len(objects))):
                        version = rng.randint(-1, 60)
                        value = initial[obj] if version < 0 else f"{obj}{version}"
                        items.append((obj, value, version))
                    expected += self.scan_rule(history.events, initial, "S4", boundary, items)
                    installed += len(items)
                    history.record_install("S4", boundary, tuple(items))
            assert history.wrong_installs == expected, seed
            wrong += len(expected)
        # Neither vacuous way round: some installs are right, some wrong.
        assert 0 < wrong < installed
