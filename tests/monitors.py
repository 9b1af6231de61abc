"""Runtime invariant monitors: consumers of a cluster's trace stream that
check an invariant at the moment it can first be violated, instead of at
the final quiesce where the checkers of :mod:`repro.checkers` run.

A monitor is a tracer listener; it raises :class:`ConsistencyViolation`
out of the emitting call, so the run stops at the illegal step with the
simulation clock still on it.  Tests opt in through the
``activation_monitor`` fixture (``tests/conftest.py``); each monitor is
proven non-vacuous by a mutation from :mod:`tests.mutations`
(``tests/integration/test_checker_mutations.py``).
"""

from __future__ import annotations

from repro.checkers import ConsistencyViolation


def activation_monitor(cluster):
    """Listener: a site that turns ``active — up to date`` holds every
    committed write up to its own ``last_processed_gid``.

    Checked against ``cluster.history``: each object written by a gid at
    or below that point which *any* site has committed must be stored at
    that version or a newer one.  A joiner activated on top of a skipped
    message fails here, not a virtual second later when a final checker
    happens to look.
    """

    def on_event(event) -> None:
        if (event.category, event.kind, event.detail) != (
                "status", "active", "up to date"):
            return
        node = cluster.nodes[event.site]
        store = node.db.store
        horizon = node.last_processed_gid
        for txn in cluster.history.events:
            if txn.kind != "commit" or txn.gid > horizon:
                continue
            for obj, _value in txn.message.write_set:
                held = store.version(obj) if obj in store else None
                if held is None or held < txn.gid:
                    raise ConsistencyViolation(
                        f"{event.site} activated at t={event.time:.4f} as up "
                        f"to date through gid {horizon} but holds {obj} at "
                        f"version {held} < committed writer {txn.gid}")

    return on_event

