"""Property-based tests for store, RecTable, cover and recovery."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.db.database import Database
from repro.db.recovery import compute_cover, run_single_site_recovery
from repro.db.rectable import RecTable
from repro.db.store import INITIAL_VERSION, ObjectStore
from repro.db.wal import PersistentStorage

OBJECTS = [f"o{i}" for i in range(6)]


class TestStoreProperties:
    @given(st.lists(st.tuples(st.sampled_from(OBJECTS), st.integers(), st.integers(0, 100)),
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_apply_keeps_max_version(self, triples):
        store = ObjectStore()
        model = {}
        store.apply(triples)
        for obj, value, version in triples:
            if obj not in model or version >= model[obj][1]:
                model[obj] = (value, version)
        for obj, (value, version) in model.items():
            assert store.version(obj) == version

    @given(st.dictionaries(st.sampled_from(OBJECTS), st.integers(), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_snapshot_roundtrip(self, initial):
        store = ObjectStore(initial)
        clone = ObjectStore()
        clone.load_snapshot(store.snapshot())
        assert clone.content_digest() == store.content_digest()


class TestRecTableProperties:
    @given(st.lists(st.tuples(st.sampled_from(OBJECTS), st.integers(0, 50)), max_size=50),
           st.integers(-1, 50))
    @settings(max_examples=100, deadline=None)
    def test_changed_since_matches_model(self, registrations, cover):
        table = RecTable()
        model = {}
        for obj, gid in registrations:
            table.register(obj, gid)
            model[obj] = max(model.get(obj, -1), gid)
        table.ensure_current()
        expected = {obj: gid for obj, gid in model.items() if gid > cover}
        assert table.changed_since(cover) == expected

    @given(st.lists(st.tuples(st.sampled_from(OBJECTS), st.integers(0, 50)), max_size=50),
           st.integers(0, 50))
    @settings(max_examples=100, deadline=None)
    def test_purge_never_removes_needed_records(self, registrations, min_cover):
        table = RecTable()
        for obj, gid in registrations:
            table.register(obj, gid)
        table.ensure_current()
        table.purge(min_cover)
        # Everything still present is above the purge boundary; everything
        # above the boundary is still present.
        model = {}
        for obj, gid in registrations:
            model[obj] = max(model.get(obj, -1), gid)
        for obj, gid in model.items():
            if gid > min_cover:
                assert table.last_writer(obj) == gid
            else:
                assert obj not in table


class TestCoverProperties:
    @given(st.lists(st.integers(0, 30), unique=True, max_size=20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_cover_below_all_unterminated(self, delivered, data):
        delivered = sorted(delivered)
        terminated = set(data.draw(st.lists(st.sampled_from(delivered), unique=True)
                                   if delivered else st.just([])))
        cover = compute_cover(-1, delivered, terminated)
        for gid in delivered:
            if gid not in terminated:
                assert cover < gid
        # And the cover is never above the last delivered gid.
        assert cover <= max(delivered, default=-1)

    @given(st.lists(st.tuples(
        st.sampled_from(["begin", "noop", "commit", "abort", "rollback", "baseline"]),
        st.integers(1, 3),  # gid step of a delivery
        st.integers(0, 12),  # which gid a termination or baseline names
    ), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_live_cover_equals_compute_cover(self, ops):
        """``Database.cover_gid`` keeps no delivered-gid list; it must
        agree with :func:`compute_cover` over that list at every step.
        Deliveries come in gid order, as the total order hands them out;
        terminations and baselines may name any gid, delivered or not."""
        db = Database(PersistentStorage())
        delivered, unterminated, last = [], set(), -1
        for op, step, pick in ops:
            if op in ("begin", "noop"):
                last += step
                delivered.append(last)
                if op == "begin":
                    db.log_begin(last)
                    unterminated.add(last)
                else:
                    db.log_noop(last)
            elif op == "baseline":
                gid = pick - 1
                db.set_baseline(gid)
                delivered = [g for g in delivered if g > gid]
            else:
                gid = delivered[pick % len(delivered)] if delivered else pick
                getattr(db, op)(gid)
                if op != "rollback":
                    unterminated.discard(gid)
            assert db.cover_gid() == compute_cover(
                db.baseline_gid, delivered, set(delivered) - unterminated)


class TestRecoveryProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(OBJECTS),
                st.integers(0, 999),
                st.booleans(),  # commit?
            ),
            max_size=25,
        ),
        st.integers(0, 25),
    )
    @settings(max_examples=100, deadline=None)
    def test_recovery_equals_committed_replay(self, txns, checkpoint_after):
        """Crash-recovery from (checkpoint, log) always reproduces exactly
        the committed prefix state, regardless of when the fuzzy
        checkpoint was taken."""
        storage = PersistentStorage()
        db = Database(storage)
        db.bootstrap({obj: 0 for obj in OBJECTS})
        model = ObjectStore({obj: 0 for obj in OBJECTS})
        for gid, (obj, value, commit) in enumerate(txns):
            db.log_begin(gid)
            db.apply_write(gid, obj, value)
            if commit:
                db.commit(gid)
                model.write(obj, value, gid)
            else:
                db.abort(gid)
            if gid == checkpoint_after:
                db.checkpoint()
        recovered, _ = Database.recover_from(storage)
        assert recovered.store.content_digest() == model.content_digest()

    @given(st.lists(st.tuples(st.sampled_from(OBJECTS), st.integers(0, 999)), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_recovered_rectable_matches_committed_writers(self, writes):
        storage = PersistentStorage()
        db = Database(storage)
        db.bootstrap({obj: 0 for obj in OBJECTS})
        model = {}
        for gid, (obj, value) in enumerate(writes):
            db.log_begin(gid)
            db.apply_write(gid, obj, value)
            db.commit(gid)
            model[obj] = gid
        recovered, _ = Database.recover_from(storage)
        assert recovered.rectable.changed_since(-1) == model
