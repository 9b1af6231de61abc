"""The checkpoint image rule, property-tested.

``Database.checkpoint`` patches the image it last handed to
``PersistentStorage``: it re-reads only the objects changed since, plus
those that carried a before-image.  Whatever the history, the image must
equal the rule it stands for, kept here as the reference: a full copy of
the store with every uncommitted writer's before-image laid over it
(no-steal).  Recovering from the image must give the store that
recovering from the reference gives.
"""

import copy

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.db.database import Database
from repro.db.recovery import run_single_site_recovery
from repro.db.wal import PersistentStorage

INITIAL = {"a": 0, "b": 0, "c": 0}
#: ``d`` is not in the initial copy: a transfer install or a write adds it.
OBJECTS = sorted(INITIAL) + ["d"]

WHICH = st.integers(0, 3)
OPS = st.one_of(
    st.tuples(st.just("begin")),
    st.tuples(st.just("write"), WHICH, st.sampled_from(OBJECTS), st.integers(1, 9)),
    st.tuples(st.sampled_from(["commit", "abort", "rollback"]), WHICH),
    st.tuples(st.just("install"), st.sampled_from(OBJECTS), st.integers(1, 9),
              st.integers(-1, 30)),
    st.tuples(st.just("baseline")),
    st.tuples(st.just("checkpoint"), st.booleans()),
    st.tuples(st.just("crash")),
)


class Site:
    """One site's database driven op by op, with the test-side record of
    each open writer's before-images that the reference image needs."""

    def __init__(self):
        self.storage = PersistentStorage()
        self.db = Database(self.storage)
        self.db.bootstrap(dict(INITIAL))
        self.next_gid = 0
        #: Open writers in begin order: [gid, [(obj, before image), ...]].
        self.open = []
        self.reference = self.reference_image()
        assert self.storage.checkpoint_image == self.reference

    def reference_image(self):
        store = self.db.store
        image = {obj: store.read(obj) for obj in store.objects()}
        for _gid, befores in self.open:
            for obj, before in befores:
                image[obj] = before
        return image

    def writer(self, which):
        return self.open[which % len(self.open)] if self.open else None

    # -- the ops ------------------------------------------------------
    def begin(self):
        self.db.log_begin(self.next_gid)
        self.open.append([self.next_gid, []])
        self.next_gid += 1

    def write(self, which, obj, value):
        writer = self.writer(which)
        # An object is written by one open writer at a time (its lock).
        if writer is None or any(obj in dict(befores) for gid, befores in self.open
                                 if gid != writer[0]):
            return
        writer[1].append((obj, self.db.store.peek(obj)))
        self.db.apply_write(writer[0], obj, value)

    def _end(self, which, how):
        writer = self.writer(which)
        if writer is not None:
            self.open.remove(writer)
            how(writer[0])

    def commit(self, which):
        self._end(which, self.db.commit)

    def abort(self, which):
        self._end(which, self.db.abort)

    def rollback(self, which):
        self._end(which, self.db.rollback)

    def install(self, obj, value, version):
        if not any(obj in dict(befores) for _gid, befores in self.open):
            self.db.store.apply(((obj, value, version),))

    def baseline(self):
        self.db.set_baseline(self.next_gid - 1)

    def checkpoint(self, truncate_log):
        self.db.checkpoint(truncate_log=truncate_log)
        self.reference = self.reference_image()
        assert self.storage.checkpoint_image == self.reference

    def crash(self):
        shadow = copy.copy(self.storage)
        shadow.checkpoint_image = dict(self.reference)
        expected = run_single_site_recovery(shadow)
        self.db, result = Database.recover_from(self.storage)
        assert result.store.content_digest() == expected.store.content_digest()
        assert result.cover_gid == expected.cover_gid
        self.open = []


# A transaction open at one checkpoint commits before the next one and
# writes nothing more: the second image must read ``a`` again although
# the store has not changed it since.
FORGOTTEN_BEFORE_IMAGE = [("begin",), ("write", 0, "a", 5), ("checkpoint", False),
                          ("commit", 0), ("checkpoint", False)]


@given(st.lists(OPS, max_size=60))
@settings(max_examples=300, deadline=None)
@example(FORGOTTEN_BEFORE_IMAGE)
# The first checkpoint after a recovery starts from an empty image: it
# must read every object the recovered store was loaded with.
@example([("begin",), ("write", 0, "d", 3), ("commit", 0), ("crash",),
          ("install", "b", 7, 4), ("checkpoint", True), ("crash",)])
def test_checkpoint_image_is_the_store_under_its_before_images(ops):
    site = Site()
    for op in ops:
        getattr(site, op[0])(*op[1:])
    site.checkpoint(False)
    site.crash()
